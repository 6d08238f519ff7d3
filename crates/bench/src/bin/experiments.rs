//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation section (§4).
//!
//! ```text
//! experiments [table1|fig11|table2|fig13|fig14|examples|all]
//!             [--full] [--scales 1,2,4,8] [--reps 5] [--io-sim]
//! ```
//!
//! An unknown command prints this usage and exits 2.
//!
//! * `--full`  — use the paper-sized corpora (37 plays ≈ 7.5 MB,
//!   3000 proceedings ≈ 12 MB); default is a reduced corpus that keeps
//!   the whole suite in the minutes range.
//! * `--scales` — the DSx replication factors for Figures 11/13.
//! * `--reps` — cold runs per query (paper: 5, mean of middle three).
//! * `--io-sim` — simulate year-2000 disk latency on buffer-pool misses
//!   (0.2 ms sequential / 2 ms random), re-creating the paper's I/O-bound
//!   regime; see `ordb::storage::buffer::IoSimulation`.
//!
//! Engine properties beyond the paper (throughput, durability, spilling,
//! serving, transactions, vacuum) are measured by the repository
//! benchmark under `benchmark/` and asserted by the test matrices.

use std::time::Duration;

use datagen::{ShakespeareConfig, SigmodConfig};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator_bench::{
    mb, replicate, scratch_dir, setup, sizes, time_query, time_query_opts, workload_sql, LoadedDb,
    QueryTiming,
};

struct Args {
    command: String,
    full: bool,
    scales: Vec<usize>,
    reps: usize,
    io_sim: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        full: false,
        scales: vec![1, 2, 4, 8],
        reps: 5,
        io_sim: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--full" => args.full = true,
            "--io-sim" => args.io_sim = true,
            "--scales" => {
                let v = it.next().expect("--scales needs a value");
                args.scales = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("scale must be an integer"))
                    .collect();
            }
            "--reps" => {
                args.reps = it.next().expect("--reps needs a value").parse().expect("int");
            }
            cmd if !cmd.starts_with('-') => args.command = cmd.to_string(),
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

/// One table or figure of the report.
type Figure = fn(&Args, &mut MetricsLog);

/// Every figure by command name, in the order `all` runs them.
const FIGURES: [(&str, Figure); 6] = [
    ("table1", table1),
    ("fig11", fig11),
    ("table2", table2),
    ("fig13", fig13),
    ("fig14", fig14),
    ("examples", |args, _| examples(args)),
];

fn main() {
    let args = parse_args();
    let all = args.command == "all";
    if !all && !FIGURES.iter().any(|(name, _)| *name == args.command) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown command {:?}\nusage: experiments [{}|all] [--full] [--scales 1,2,4,8] \
             [--reps 5] [--io-sim]",
            args.command,
            names.join("|")
        );
        std::process::exit(2);
    }
    let mut mlog = MetricsLog::default();
    for (name, figure) in FIGURES {
        if all || args.command == name {
            figure(&args, &mut mlog);
        }
    }
    if let Some(path) = mlog.write().expect("write metrics.json") {
        println!("\n(per-query metrics written to {})", path.display());
    }
}

/// Accumulates one JSON object per timed query (and per dialect of a
/// size table) and writes them all as a JSON array to
/// `target/experiments/metrics.json` at the end of the run.
#[derive(Default)]
struct MetricsLog {
    entries: Vec<String>,
}

impl MetricsLog {
    /// Record one timed query. `metrics` comes from the extra instrumented
    /// cold run, so the five timed runs stay untouched.
    fn push(&mut self, figure: &str, scale: usize, query: &str, variant: &str, t: &QueryTiming) {
        let metrics = t.metrics.as_ref().map_or_else(|| "null".to_string(), |m| m.to_json());
        self.entries.push(format!(
            "{{\"figure\":\"{figure}\",\"scale\":{scale},\"query\":\"{query}\",\
             \"variant\":\"{variant}\",\"mean_ns\":{},\"rows\":{},\"metrics\":{metrics}}}",
            t.mean.as_nanos(),
            t.rows
        ));
    }

    /// Record an already-formatted JSON object (used for entries whose
    /// shape doesn't fit the per-query schema, e.g. registry snapshots).
    fn push_raw(&mut self, json: String) {
        self.entries.push(json);
    }

    fn write(&self) -> std::io::Result<Option<std::path::PathBuf>> {
        if self.entries.is_empty() {
            return Ok(None);
        }
        let path = scratch_dir("metrics.json");
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(&path, format!("[\n{}\n]\n", self.entries.join(",\n")))?;
        Ok(Some(path))
    }
}

fn shakespeare_docs(args: &Args) -> Vec<String> {
    let cfg =
        if args.full { ShakespeareConfig::paper_size() } else { ShakespeareConfig::default() };
    let docs = datagen::generate_shakespeare(&cfg);
    let bytes: usize = docs.iter().map(String::len).sum();
    println!("# Shakespeare corpus: {} plays, {} of XML", docs.len(), human(bytes as u64));
    docs
}

fn sigmod_docs(args: &Args) -> Vec<String> {
    let cfg = if args.full { SigmodConfig::paper_size() } else { SigmodConfig::default() };
    let docs = datagen::generate_sigmod(&cfg);
    let bytes: usize = docs.iter().map(String::len).sum();
    println!("# SIGMOD corpus: {} documents, {} of XML", docs.len(), human(bytes as u64));
    docs
}

fn human(bytes: u64) -> String {
    if bytes > 1024 * 1024 {
        format!("{:.1} MB", bytes as f64 / (1024.0 * 1024.0))
    } else {
        format!("{:.1} KB", bytes as f64 / 1024.0)
    }
}

/// Load one corpus under both mappings for a workload.
fn load_pair(tag: &str, dtd_src: &str, docs: &[String], workload: &[&str]) -> (LoadedDb, LoadedDb) {
    let simple = simplify(&parse_dtd(dtd_src).expect("paper DTD parses"));
    let h = setup(
        &scratch_dir(&format!("{tag}-hybrid")),
        map_hybrid(&simple),
        docs,
        FormatPolicy::Auto,
        workload,
    )
    .expect("hybrid load");
    let x = setup(
        &scratch_dir(&format!("{tag}-xorator")),
        map_xorator(&simple),
        docs,
        FormatPolicy::Auto,
        workload,
    )
    .expect("xorator load");
    (h, x)
}

/// Print a size table and log one entry per dialect with the numbers CI's
/// `paper-harness` job asserts on.
fn print_size_table(figure: &str, title: &str, h: &LoadedDb, x: &LoadedDb, mlog: &mut MetricsLog) {
    let sh = sizes(h).expect("sizes");
    let sx = sizes(x).expect("sizes");
    for (variant, s) in [("hybrid", &sh), ("xorator", &sx)] {
        mlog.push_raw(format!(
            "{{\"figure\":\"{figure}\",\"variant\":\"{variant}\",\"tables\":{},\
             \"data_bytes\":{},\"index_bytes\":{}}}",
            s.tables, s.data_bytes, s.index_bytes
        ));
    }
    println!("\n## {title}\n");
    println!("| | Hybrid | XORator | XORator/Hybrid |");
    println!("|---|---|---|---|");
    println!("| Number of tables | {} | {} | |", sh.tables, sx.tables);
    println!(
        "| Database size (MB) | {} | {} | {:.2} |",
        mb(sh.data_bytes),
        mb(sx.data_bytes),
        sx.data_bytes as f64 / sh.data_bytes as f64
    );
    println!(
        "| Index size (MB) | {} | {} | {:.2} |",
        mb(sh.index_bytes),
        mb(sx.index_bytes),
        sx.index_bytes as f64 / sh.index_bytes as f64
    );
    println!(
        "| Tuples loaded | {} | {} | |\n| XADT format | - | {:?} | |",
        h.load.tuples, x.load.tuples, x.load.format
    );
    println!(
        "| Loading time (s) | {:.2} | {:.2} | {:.2} |",
        h.load.elapsed.as_secs_f64(),
        x.load.elapsed.as_secs_f64(),
        x.load.elapsed.as_secs_f64() / h.load.elapsed.as_secs_f64()
    );
}

fn table1(args: &Args, mlog: &mut MetricsLog) {
    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let (h, x) = load_pair("table1", xorator::dtds::SHAKESPEARE_DTD, &docs, &wl);
    print_size_table(
        "table1",
        "Table 1 — Shakespeare data set: tables, database size, index size",
        &h,
        &x,
        mlog,
    );
}

fn table2(args: &Args, mlog: &mut MetricsLog) {
    let docs = sigmod_docs(args);
    let queries = sigmod_queries();
    let wl = workload_sql(&queries);
    let (h, x) = load_pair("table2", xorator::dtds::SIGMOD_DTD, &docs, &wl);
    print_size_table(
        "table2",
        "Table 2 — SIGMOD Proceedings data set: tables, database size, index size",
        &h,
        &x,
        mlog,
    );
}

/// Shared driver for Figures 11 and 13: Hybrid/XORator response-time
/// ratios per query at DSx1..DSx8, plus the loading-time ratio.
fn ratio_figure(
    args: &Args,
    tag: &str,
    title: &str,
    dtd_src: &str,
    base: &[String],
    queries: &[xorator::queries::QueryPair],
    mlog: &mut MetricsLog,
) {
    let wl = workload_sql(queries);
    println!("\n## {title}\n");
    let header: Vec<String> = queries.iter().map(|q| q.id.to_string()).collect();
    println!("| scale | {} | load |", header.join(" | "));
    println!("|---|{}---|", "---|".repeat(queries.len()));
    for &scale in &args.scales {
        let docs = replicate(base, scale);
        let (h, x) = load_pair(&format!("{tag}-x{scale}"), dtd_src, &docs, &wl);
        if args.io_sim {
            let sim = ordb::storage::buffer::IoSimulation::year2000_disk();
            h.db.set_io_simulation(Some(sim));
            x.db.set_io_simulation(Some(sim));
        }
        let mut cells = Vec::new();
        for q in queries {
            let th = time_query_opts(&h.db, q.hybrid, args.reps, true).expect("hybrid query");
            let tx = time_query_opts(&x.db, q.xorator, args.reps, true).expect("xorator query");
            mlog.push(tag, scale, q.id, "hybrid", &th);
            mlog.push(tag, scale, q.id, "xorator", &tx);
            let ratio = th.mean.as_secs_f64() / tx.mean.as_secs_f64().max(1e-9);
            cells.push(format!("{ratio:.2}"));
            eprintln!(
                "  [{} DSx{scale}] {}: hybrid {:?} ({} rows) / xorator {:?} ({} rows) = {ratio:.2}",
                tag, q.id, th.mean, th.rows, tx.mean, tx.rows
            );
        }
        let load_ratio = h.load.elapsed.as_secs_f64() / x.load.elapsed.as_secs_f64().max(1e-9);
        println!("| DSx{scale} | {} | {load_ratio:.2} |", cells.join(" | "));
        // One unified registry snapshot per database per scale: query
        // count, the latency histogram (p50..p999), pool/WAL/engine
        // counters — metrics.json carries the whole observability view,
        // not just per-query deltas.
        for (variant, loaded) in [("hybrid", &h), ("xorator", &x)] {
            mlog.push_raw(format!(
                "{{\"figure\":\"{tag}\",\"scale\":{scale},\"variant\":\"{variant}\",\
                 \"registry\":{}}}",
                loaded.db.metrics_snapshot().to_json()
            ));
        }
    }
    println!("\n(Values are Hybrid/XORator response-time ratios; > 1 means XORator is faster, matching the paper's log-scale figures.)");
}

fn fig11(args: &Args, mlog: &mut MetricsLog) {
    let base = shakespeare_docs(args);
    ratio_figure(
        args,
        "fig11",
        "Figure 11 — Hybrid/XORator performance ratios, Shakespeare (QS1–QS6)",
        xorator::dtds::SHAKESPEARE_DTD,
        &base,
        &shakespeare_queries(),
        mlog,
    );
}

fn fig13(args: &Args, mlog: &mut MetricsLog) {
    let base = sigmod_docs(args);
    ratio_figure(
        args,
        "fig13",
        "Figure 13 — Hybrid/XORator performance ratios, SIGMOD Proceedings (QG1–QG6)",
        xorator::dtds::SIGMOD_DTD,
        &base,
        &sigmod_queries(),
        mlog,
    );
}

fn fig14(args: &Args, mlog: &mut MetricsLog) {
    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    let h = setup(&scratch_dir("fig14"), map_hybrid(&simple), &docs, FormatPolicy::Auto, &wl)
        .expect("load");
    println!("\n## Figure 14 — Overhead of invoking UDFs vs. built-in functions\n");
    println!(
        "| query | built-in | UDF (NOT FENCED) | UDF/built-in | UDF (FENCED) | FENCED/built-in |"
    );
    println!("|---|---|---|---|---|---|");
    for q in udf_overhead_queries() {
        let tb = time_query_opts(&h.db, q.builtin, args.reps, true).expect("builtin");
        let tu = time_query_opts(&h.db, q.udf, args.reps, true).expect("udf");
        let tf = time_query_opts(&h.db, q.fenced, args.reps, true).expect("fenced");
        mlog.push("fig14", 1, q.id, "builtin", &tb);
        mlog.push("fig14", 1, q.id, "udf", &tu);
        mlog.push("fig14", 1, q.id, "fenced", &tf);
        let ratio = |t: &QueryTiming| t.mean.as_secs_f64() / tb.mean.as_secs_f64().max(1e-9);
        println!(
            "| {} | {:.2} ms | {:.2} ms | {:.2} | {:.2} ms | {:.2} |",
            q.id,
            ms(tb.mean),
            ms(tu.mean),
            ratio(&tu),
            ms(tf.mean),
            ratio(&tf)
        );
    }
    println!("\n(The paper measures NOT FENCED UDFs ≈ 40 % more expensive than built-ins.)");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// QE1/QE2 (Figures 7/8) over a small Figure-1-Plays corpus, and the
/// Figure 9 unnest demonstration.
fn examples(args: &Args) {
    println!("\n## Figures 7/8 — QE1 and QE2 over the Plays DTD\n");
    // A small corpus conforming to the Figure 1 DTD, derived from the
    // Shakespeare generator by wrapping speeches in acts directly.
    let docs: Vec<String> = (0..4)
        .map(|i| {
            format!(
                "<PLAY><ACT><SCENE><TITLE>one</TITLE>\
                 <SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>my friend {i}</LINE>\
                 <LINE>second line {i}</LINE></SPEECH></SCENE>\
                 <TITLE>ACT {i}</TITLE>\
                 <SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>dear friend of acts</LINE>\
                 <LINE>line two</LINE></SPEECH>\
                 <SPEECH><SPEAKER>OTHER</SPEAKER><LINE>nothing</LINE></SPEECH>\
                 </ACT></PLAY>"
            )
        })
        .collect();
    let queries = example_queries();
    let wl = workload_sql(&queries);
    let (h, x) = load_pair("examples", xorator::dtds::PLAYS_DTD, &docs, &wl);
    for q in &queries {
        let th = time_query(&h.db, q.hybrid, args.reps.max(3)).expect("hybrid");
        let tx = time_query(&x.db, q.xorator, args.reps.max(3)).expect("xorator");
        println!(
            "{}: hybrid {} rows in {:.2} ms; xorator {} rows in {:.2} ms",
            q.id,
            th.rows,
            ms(th.mean),
            tx.rows,
            ms(tx.mean)
        );
    }

    println!("\n## Figure 9 — unnesting the speaker attribute\n");
    let db = &x.db;
    db.execute("CREATE TABLE speakers (speaker XADT)").expect("create");
    db.execute(
        "INSERT INTO speakers VALUES \
         ('<speaker>s1</speaker><speaker>s2</speaker>'), ('<speaker>s1</speaker>')",
    )
    .expect("insert");
    let before = db.query("SELECT speaker FROM speakers").expect("q");
    println!("before unnesting:\n{before}");
    let after = db
        .query(
            "SELECT DISTINCT u.out AS SPEAKER \
             FROM speakers, TABLE(unnest(speaker, 'speaker')) u",
        )
        .expect("q");
    println!("after unnesting:\n{after}");
}
