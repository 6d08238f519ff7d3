//! Command line of the repo benchmark.
//!
//! ```text
//! xorator-benchmark --workload NAME --seed N --seconds S --trace 0|1 [--quick]
//! xorator-benchmark all [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE]
//! xorator-benchmark compare BASE.jsonl NEW.jsonl
//! xorator-benchmark expected [--seed N]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload,
//! one process, the result as one JSON object on the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use xorator_benchmark::spec::{Workload, DEFAULT_SEED};
use xorator_benchmark::{
    analytic, churn, corpus, oracle, report, scratch_root, wire, Res, RunArgs,
};

struct Cli {
    command: Option<String>,
    positional: Vec<String>,
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    runs: u64,
    out: Option<PathBuf>,
}

fn parse_cli() -> Res<Cli> {
    let mut cli = Cli {
        command: None,
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        quick: false,
        runs: 1,
        out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?.parse()?),
            "--seed" => cli.seed = value()?.parse()?,
            "--seconds" => cli.seconds = value()?.parse()?,
            "--trace" => cli.trace = value()? == "1",
            "--runs" => cli.runs = value()?.parse()?,
            "--out" => cli.out = Some(value()?.into()),
            "--quick" => cli.quick = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}").into()),
            _ if cli.command.is_none() => cli.command = Some(arg),
            _ => cli.positional.push(arg),
        }
    }
    Ok(cli)
}

/// Write `expected/seed-<n>.tsv`: every analytic statement's logical
/// digest in both dialects, `wire_point`'s per kind, the churn prefill.
fn write_expected(seed: u64) -> Res<()> {
    let dir = scratch_root().join(format!("expected-{}", std::process::id()));
    let mut expected = oracle::Expected::new();
    let bed = analytic::set_up(Workload::PaperCold, seed, &dir.join("analytic"))?;
    for stmt in &bed.stmts {
        let result = bed.dbs[stmt.db].db.query(stmt.sql)?;
        expected.insert(stmt.key.clone(), oracle::logical(&result));
    }
    let hybrid_shakespeare = bed
        .dbs
        .iter()
        .find(|l| (l.corpus, l.dialect) == (corpus::Corpus::Shakespeare, corpus::Dialect::Hybrid))
        .expect("paper_cold loads every database");
    wire::expected_entries(seed, &hybrid_shakespeare.db, &mut expected)?;
    churn::expected_entries(seed, &dir.join("churn"), &mut expected)?;
    drop(bed);
    let _ = std::fs::remove_dir_all(&dir);
    println!("wrote {}", oracle::write_expected(seed, &expected)?.display());
    Ok(())
}

fn main_inner() -> Res<bool> {
    let cli = parse_cli()?;
    match (cli.command.as_deref(), cli.workload) {
        (None, Some(workload)) => {
            let seconds = if cli.quick { 1.0 } else { cli.seconds as f64 };
            let dir = scratch_root().join(format!("{workload}-{}", std::process::id()));
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
                dir,
            };
            let outcome = xorator_benchmark::run(&args);
            let _ = std::fs::remove_dir_all(&args.dir);
            report::print_run(&args, &outcome?);
            Ok(true)
        }
        (Some("all"), None) => {
            let out = cli.out.unwrap_or_else(|| scratch_root().join("results.jsonl"));
            report::run_all(cli.seed, cli.seconds, cli.runs, cli.quick, &out)
        }
        (Some("compare"), None) if cli.positional.len() == 2 => {
            report::compare(&cli.positional[0], &cli.positional[1])
        }
        (Some("expected"), None) => write_expected(cli.seed).map(|()| true),
        _ => Err("usage: --workload NAME --seed N --seconds S --trace 0|1 [--quick] \
                  | all [--seed N] [--seconds S] [--runs R] [--quick] [--out FILE] \
                  | compare BASE NEW | expected [--seed N]"
            .into()),
    }
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("xorator-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
