//! Output and comparison: the contract's one-line JSON result, the
//! run's recorded `config`, the `all` driver that runs every workload in
//! its own process, and `compare`, the A/A and before/after check.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

use xorator_bench::trajectory::{parse_json, Json};

use crate::spec::{per_layer, Workload, END_TO_END};
use crate::stats::{calibration_ms, median, quartiles};
use crate::{Outcome, Res, RunArgs};

fn number(v: f64) -> String {
    // Rust prints the shortest digits that round-trip: the value as
    // measured, with all its digits.
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The metric names and units a run in this trace mode must report.
pub fn declared(trace: bool) -> Vec<(String, &'static str)> {
    if trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    }
}

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter holding every declared metric of
/// the trace mode (0 where the workload does not exercise the layer).
pub fn result_json(outcome: &Outcome, trace: bool) -> String {
    let metrics: Vec<String> = declared(trace)
        .iter()
        .map(|(name, unit)| {
            let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", number(value))
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.failed == 0,
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    )
}

/// The run's configuration as a JSON object: everything that changes
/// the numbers without changing the engine.
pub fn config_json(args: &RunArgs) -> String {
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"quick\": {}, \
         \"profile\": \"{}\", \"rustc\": \"{rustc}\", \"nproc\": {cores}, \"clients\": {}, \
         \"pool_frames\": {}, \"durability\": \"on, one fsync per commit, group commit\", \
         \"corpus\": \"datagen defaults x{}\", \"calibration_ms\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        args.quick,
        if cfg!(debug_assertions) { "debug" } else { "release" },
        match args.workload {
            Workload::WirePoint | Workload::WireTxnChurn => crate::wire::CLIENTS,
            _ => 1,
        },
        args.workload.pool_frames(),
        crate::corpus::SCALE,
        number(calibration_ms()),
    )
}

/// Print the human-readable report, then the contract's JSON line last.
pub fn print_run(args: &RunArgs, outcome: &Outcome) {
    println!("config: {}", config_json(args));
    println!("samples: {} ops behind the timing metrics", outcome.samples);
    for (name, unit) in declared(args.trace) {
        let value = outcome.metrics.get(&name).copied().unwrap_or(0.0);
        println!("{:<14} {name:<30} {value:>14.4} {unit}", args.workload.name());
    }
    let t = &outcome.tally;
    let failed_frac = t.failed as f64 / t.attempted.max(1) as f64;
    println!("{:<14} {:<30} {failed_frac:>14.4} ratio", args.workload.name(), "failed_frac");
    for msg in &t.messages {
        println!("FAILED: {msg}");
    }
    println!("{}", result_json(outcome, args.trace));
}

/// `all`: run every workload in both trace modes, each in a fresh
/// process (so `peak_rss_mb` is per workload), `runs` times with seeds
/// `seed, seed+1, …`. Appends one JSON line per run to `out`.
pub fn run_all(seed: u64, seconds: u64, runs: u64, quick: bool, out: &Path) -> Res<bool> {
    let exe = std::env::current_exe()?;
    let mut lines = String::new();
    let mut all_correct = true;
    for run in 0..runs {
        for workload in Workload::ALL {
            for trace in [0, 1] {
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload.name(), "--trace", &trace.to_string()]).args([
                    "--seed",
                    &(seed + run).to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ]);
                if quick {
                    cmd.arg("--quick");
                }
                let output = cmd.output()?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let Some(last) = stdout.lines().last().filter(|_| output.status.success()) else {
                    eprint!("{}", String::from_utf8_lossy(&output.stderr));
                    return Err(format!("{workload} --trace {trace} failed").into());
                };
                all_correct &= last.contains("\"correct\": true");
                let _ = writeln!(
                    lines,
                    "{{\"workload\": \"{workload}\", \"seed\": {}, \"trace\": {trace}, \"result\": {last}}}",
                    seed + run
                );
            }
        }
    }
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut existing = std::fs::read_to_string(out).unwrap_or_default();
    existing.push_str(&lines);
    std::fs::write(out, existing)?;
    println!("result set appended to {}", out.display());
    Ok(all_correct)
}

/// `(better, bound)` per end-to-end metric from `BENCHMARK.json`.
pub fn bounds() -> Res<BTreeMap<String, (bool, f64)>> {
    let path = [
        PathBuf::from("BENCHMARK.json"),
        PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")),
    ]
    .into_iter()
    .find(|p| p.exists())
    .ok_or("BENCHMARK.json not found")?;
    let spec = parse_json(&std::fs::read_to_string(path)?)?;
    let Some(Json::Arr(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut out = BTreeMap::new();
    for metric in metrics {
        let name = metric.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
        let higher = metric.get("better").and_then(Json::as_str) == Some("higher");
        let bound = metric.get("bound").and_then(Json::as_f64).ok_or("metric without a bound")?;
        out.insert(name.to_string(), (higher, bound));
    }
    Ok(out)
}

/// `workload → metric → values over runs`.
type ResultSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The `--trace 0` lines of a result-set file, plus how many of its runs
/// had failures.
fn read_result_set(path: &str) -> Res<(ResultSet, u64)> {
    let mut out = ResultSet::new();
    let mut incorrect = 0;
    for line in std::fs::read_to_string(path)?.lines().filter(|l| !l.trim().is_empty()) {
        let entry = parse_json(line)?;
        let result = entry.get("result").ok_or("line without a result")?;
        if result.get("correct") != Some(&Json::Bool(true)) {
            incorrect += 1;
        }
        if entry.get("trace").and_then(Json::as_u64) != Some(0) {
            continue;
        }
        let workload = entry.get("workload").and_then(Json::as_str).ok_or("no workload")?;
        let Some(Json::Obj(metrics)) = result.get("metrics") else { continue };
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::as_f64).ok_or("metric without a value")?;
            out.entry(workload.into()).or_default().entry(name.clone()).or_default().push(value);
        }
    }
    Ok((out, incorrect))
}

/// `compare BASE NEW`: per (metric, workload) the relative difference of
/// the medians, the spread (quartile distance over median, the wider of
/// the two sides), the bound, and `ok` / `regressed` / `unresolved`
/// (spread wider than the bound). Returns false on any `regressed`, or
/// when a run of either side had failed operations.
pub fn compare(base: &str, new: &str) -> Res<bool> {
    let bounds = bounds()?;
    let ((a, a_bad), (b, b_bad)) = (read_result_set(base)?, read_result_set(new)?);
    let mut ok = true;
    println!(
        "{:<16}{:<16}{:>12}{:>12}{:>9}{:>9}{:>7}  verdict",
        "metric", "workload", "base", "new", "diff", "spread", "bound"
    );
    for (metric, (higher_better, bound)) in &bounds {
        for workload in Workload::ALL {
            let side = |s: &ResultSet| {
                s.get(workload.name()).and_then(|m| m.get(metric)).cloned().unwrap_or_default()
            };
            let (mut va, mut vb) = (side(&a), side(&b));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let spread = |v: &[f64], med: f64| {
                let (q1, q3) = quartiles(v);
                if v.len() < 2 {
                    0.0
                } else {
                    (q3 - q1) / med
                }
            };
            let (ma, mb) = (median(&mut va), median(&mut vb));
            let spread = spread(&va, ma).max(spread(&vb, mb));
            let diff = (mb - ma) / ma;
            let worse = if *higher_better { -diff } else { diff };
            let verdict = if worse > *bound {
                ok = false;
                "regressed"
            } else if spread > *bound {
                "unresolved"
            } else {
                "ok"
            };
            println!(
                "{metric:<16}{:<16}{ma:>12.4}{mb:>12.4}{:>+8.1}%{:>8.1}%{:>6.0}%  {verdict}",
                workload.name(),
                diff * 100.0,
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    if a_bad + b_bad > 0 {
        println!("failed operations: {a_bad} run(s) of base, {b_bad} of new were not correct");
        ok = false;
    }
    Ok(ok)
}
