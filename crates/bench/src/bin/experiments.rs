//! Experiment driver: regenerates every table and figure of the paper's
//! evaluation section (§4).
//!
//! ```text
//! experiments [table1|table2|fig11|fig13|fig14|examples|throughput|durability|spill|txn|vacuum|all]
//!             [--full] [--scales 1,2,4,8] [--reps 5] [--threads 1,2,4,8]
//!             [--budget BYTES]
//! experiments serve [--clients 4] [--secs 2]
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
//! * `--budget` — per-operator memory budget in bytes for the `spill`
//!   experiment (default 4 MiB with `--full`, 256 KiB otherwise).

use std::time::Duration;

use datagen::{ShakespeareConfig, SigmodConfig};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator_bench::{
    mb, replicate, scratch_dir, setup, sizes, throughput, time_query, time_query_opts,
    workload_sql, LoadedDb, QueryTiming,
};

struct Args {
    command: String,
    full: bool,
    scales: Vec<usize>,
    reps: usize,
    io_sim: bool,
    threads: Vec<usize>,
    budget: Option<usize>,
    clients: usize,
    secs: f64,
}

fn parse_args() -> Args {
    let mut args = Args {
        command: "all".to_string(),
        full: false,
        scales: vec![1, 2, 4, 8],
        reps: 5,
        io_sim: false,
        threads: vec![1, 2, 4, 8],
        budget: None,
        clients: 4,
        secs: 2.0,
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
            "--threads" => {
                let v = it.next().expect("--threads needs a value");
                args.threads = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("thread count must be an integer"))
                    .collect();
            }
            "--reps" => {
                args.reps = it.next().expect("--reps needs a value").parse().expect("int");
            }
            "--budget" => {
                args.budget =
                    Some(it.next().expect("--budget needs a value").parse().expect("bytes"));
            }
            "--clients" => {
                args.clients = it.next().expect("--clients needs a value").parse().expect("int");
            }
            "--secs" => {
                args.secs = it.next().expect("--secs needs a value").parse().expect("seconds");
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

/// Every figure by command name, in the order `all` runs them (`serve`
/// runs only on its own).
const FIGURES: [(&str, Figure); 11] = [
    ("table1", |args, _| table1(args)),
    ("fig11", fig11),
    ("table2", |args, _| table2(args)),
    ("fig13", fig13),
    ("fig14", fig14),
    ("examples", |args, _| examples(args)),
    ("throughput", |args, _| throughput_figure(args)),
    ("durability", durability_figure),
    ("spill", spill_figure),
    ("txn", txn_figure),
    ("vacuum", vacuum_figure),
];

fn main() {
    let args = parse_args();
    if args.command == "serve" {
        serve_command(&args);
        return;
    }
    let all = args.command == "all";
    if !all && !FIGURES.iter().any(|(name, _)| *name == args.command) {
        let names: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown command {:?}\nusage: experiments [{}|all] [--full] [--scales 1,2,4,8] \
             [--reps 5] [--threads 1,2,4,8] [--budget BYTES] [--io-sim]\n       \
             experiments serve [--clients 4] [--secs 2]",
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

/// Accumulates one JSON object per timed query and writes them all as a
/// JSON array to `target/experiments/metrics.json` at the end of the run.
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

    /// Record an already-formatted JSON object (used by experiments whose
    /// shape doesn't fit the per-query schema, e.g. the durability rows).
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

fn print_size_table(title: &str, h: &LoadedDb, x: &LoadedDb) {
    let sh = sizes(h).expect("sizes");
    let sx = sizes(x).expect("sizes");
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

fn table1(args: &Args) {
    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let (h, x) = load_pair("table1", xorator::dtds::SHAKESPEARE_DTD, &docs, &wl);
    print_size_table("Table 1 — Shakespeare data set: tables, database size, index size", &h, &x);
}

fn table2(args: &Args) {
    let docs = sigmod_docs(args);
    let queries = sigmod_queries();
    let wl = workload_sql(&queries);
    let (h, x) = load_pair("table2", xorator::dtds::SIGMOD_DTD, &docs, &wl);
    print_size_table(
        "Table 2 — SIGMOD Proceedings data set: tables, database size, index size",
        &h,
        &x,
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
    println!("| query | built-in | UDF (NOT FENCED) | UDF/built-in |");
    println!("|---|---|---|---|");
    for (id, _desc, builtin, udf) in udf_overhead_queries() {
        let tb = time_query_opts(&h.db, builtin, args.reps, true).expect("builtin");
        let tu = time_query_opts(&h.db, udf, args.reps, true).expect("udf");
        mlog.push("fig14", 1, id, "builtin", &tb);
        mlog.push("fig14", 1, id, "udf", &tu);
        println!(
            "| {id} | {:.2} ms | {:.2} ms | {:.2} |",
            ms(tb.mean),
            ms(tu.mean),
            tu.mean.as_secs_f64() / tb.mean.as_secs_f64().max(1e-9)
        );
    }
    println!("\n(The paper measures UDFs ≈ 40 % more expensive than built-ins.)");
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Multi-threaded serving throughput (queries/sec) on a Shakespeare
/// read-only point-lookup mix at 1/2/4/8 client threads, per mapping.
///
/// The serving regime re-creates the paper's I/O-bound testbed: the
/// database is reopened with a pool far smaller than the working set and
/// the year-2000 disk simulation enabled, so each point lookup pays a few
/// simulated seeks (index descent + heap fetch). Those sleeps happen
/// outside the pool's shard latches, which is what lets N client threads
/// overlap their I/O waits — the scaling shown here is the tentpole
/// property of the concurrent buffer pool (a single global lock holding
/// the latch across the read would flat-line at the 1-thread rate).
fn throughput_figure(args: &Args) {
    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    println!("\n## Throughput — Shakespeare point-lookup mix, shared database, N client threads\n");
    println!("(16-frame pool + simulated year-2000 disk; 2 s per cell)");
    println!("\n| threads | Hybrid qps | speedup | XORator qps | speedup |");
    println!("|---|---|---|---|---|");
    let (h, x) = load_pair("throughput", xorator::dtds::SHAKESPEARE_DTD, &docs, &wl);
    // Reopen each database with a tiny pool so the working set cannot be
    // cached and every client keeps faulting pages in. Indexes and ID
    // sampling happen before the disk simulation switches on.
    let serve = |loaded: LoadedDb, tag: &str| -> (ordb::Database, Vec<String>) {
        drop(loaded.db);
        let db = ordb::Database::open_with(
            scratch_dir(&format!("throughput-{tag}")),
            ordb::DbOptions { pool_frames: 16, ..Default::default() },
        )
        .expect("reopen for serving");
        let workload = serving_workload(&db);
        db.set_io_simulation(Some(ordb::storage::buffer::IoSimulation::year2000_disk()));
        (db, workload)
    };
    let (hdb, hwl) = serve(h, "hybrid");
    let (xdb, xwl) = serve(x, "xorator");
    let hwl: Vec<&str> = hwl.iter().map(String::as_str).collect();
    let xwl: Vec<&str> = xwl.iter().map(String::as_str).collect();
    let per_cell = Duration::from_secs(2);
    let mut base = (0.0f64, 0.0f64);
    for &n in &args.threads {
        let th = throughput(&hdb, &hwl, n, per_cell).expect("hybrid throughput");
        let tx = throughput(&xdb, &xwl, n, per_cell).expect("xorator throughput");
        if base.0 == 0.0 {
            base = (th.qps(), tx.qps());
        }
        println!(
            "| {n} | {:.1} | {:.2}x | {:.1} | {:.2}x |",
            th.qps(),
            th.qps() / base.0.max(1e-9),
            tx.qps(),
            tx.qps() / base.1.max(1e-9)
        );
    }
    println!("\n(speedup is qps relative to 1 client thread; scaling on a single core comes from overlapping simulated I/O waits.)");
}

/// Load cost of durability: the Shakespeare corpus loaded under the
/// XORator mapping with the WAL on (default) vs off, reporting load
/// time, WAL volume, and the commit/checkpoint counters. Rows land in
/// `target/experiments/metrics.json` alongside the per-query metrics.
fn durability_figure(args: &Args, mlog: &mut MetricsLog) {
    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    println!("\n## Durability — load cost with the write-ahead log on vs off\n");
    println!("| WAL | load (s) | tuples | WAL bytes | appends | fsyncs |");
    println!("|---|---|---|---|---|---|");
    for durability in [true, false] {
        let tag = if durability { "wal-on" } else { "wal-off" };
        let opts = ordb::DbOptions { durability, ..xorator_bench::experiment_opts() };
        let loaded = xorator_bench::setup_opts(
            &scratch_dir(&format!("durability-{tag}")),
            map_xorator(&simple),
            &docs,
            FormatPolicy::Auto,
            &wl,
            opts,
        )
        .expect("durability load");
        // Checkpoint so the WAL counters include the full load's logging
        // work, then read them before the handle closes.
        loaded.db.checkpoint().expect("checkpoint");
        let stats = loaded.db.wal_stats().unwrap_or_default();
        println!(
            "| {} | {:.2} | {} | {} | {} | {} |",
            if durability { "on" } else { "off" },
            loaded.load.elapsed.as_secs_f64(),
            loaded.load.tuples,
            stats.bytes,
            stats.appends,
            stats.fsyncs,
        );
        mlog.push_raw(format!(
            "{{\"figure\":\"durability\",\"variant\":\"{tag}\",\"load_ns\":{},\
             \"tuples\":{},\"wal_bytes\":{},\"wal_appends\":{},\"wal_fsyncs\":{},\
             \"wal_checkpoints\":{}}}",
            loaded.load.elapsed.as_nanos(),
            loaded.load.tuples,
            stats.bytes,
            stats.appends,
            stats.fsyncs,
            stats.checkpoints,
        ));
    }
    println!("\n(WAL on logs every dirty page once per commit; the delta in load time is the durability tax.)");
}

/// Memory-bounded execution: a QS1-style 3-way join + ORDER BY and a
/// grouped aggregation over the Hybrid mapping, run unbounded and then
/// under a per-operator memory budget. The budgeted run must return
/// exactly the unbounded rows while EXPLAIN ANALYZE shows external sort
/// runs, Grace join partitions, and aggregation overflow — the paper's
/// multi-way-join cost argument demonstrated at corpus scales that no
/// longer fit in RAM.
///
/// The corpus is replicated (DSx2 reduced, DSx4 with `--full`) so the
/// join build sides genuinely exceed the default budget.
fn spill_figure(args: &Args, mlog: &mut MetricsLog) {
    let scale = if args.full { 4 } else { 2 };
    let docs = replicate(&shakespeare_docs(args), scale);
    let budget = args.budget.unwrap_or(if args.full { 4 << 20 } else { 256 << 10 });
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    let dir = scratch_dir("spill");
    let loaded = setup(&dir, map_hybrid(&simple), &docs, FormatPolicy::Auto, &wl).expect("load");
    drop(loaded.db);

    let spill_queries: [(&str, &str); 2] = [
        (
            "join3",
            "SELECT speechID, speakerID, lineID, speaker_value, line_value \
             FROM speech, speaker, line \
             WHERE speaker_parentID = speechID AND line_parentID = speechID \
             ORDER BY lineID, speakerID",
        ),
        (
            "group-agg",
            "SELECT line_parentID, COUNT(*), MIN(line_value), MAX(line_value), SUM(lineID) \
             FROM line GROUP BY line_parentID ORDER BY line_parentID",
        ),
    ];
    println!(
        "\n## Spill — memory-bounded execution at DSx{scale} ({} budget vs unbounded)\n",
        human(budget as u64)
    );
    println!("| query | budget | rows | exec | sort spills | join parts | agg spills | spilled |");
    println!("|---|---|---|---|---|---|---|---|");
    let mut baseline: Vec<Vec<ordb::Row>> = Vec::new();
    for mem_budget in [None, Some(budget)] {
        let db = ordb::Database::open_with(
            &dir,
            ordb::DbOptions { mem_budget, ..xorator_bench::experiment_opts() },
        )
        .expect("reopen for spill run");
        for (i, (id, sql)) in spill_queries.iter().enumerate() {
            db.drop_cache().expect("drop cache");
            let report = db.explain_analyze(sql).expect("spill query");
            let e = &report.metrics.engine;
            println!(
                "| {id} | {} | {} | {:.2} ms | {} | {} | {} | {} |",
                mem_budget.map_or("∞".to_string(), |b| human(b as u64)),
                report.result.len(),
                ms(report.metrics.exec),
                e.sort_spills,
                e.join_partitions,
                e.agg_spills,
                human(e.spill_bytes),
            );
            mlog.push_raw(format!(
                "{{\"figure\":\"spill\",\"scale\":{scale},\"query\":\"{id}\",\
                 \"budget\":{},\"rows\":{},\"metrics\":{}}}",
                mem_budget.map_or("null".to_string(), |b| b.to_string()),
                report.result.len(),
                report.metrics.to_json(),
            ));
            match mem_budget {
                None => baseline.push(report.result.rows),
                Some(b) => {
                    assert_eq!(
                        report.result.rows, baseline[i],
                        "{id} under a {b} B budget diverged from the unbounded run"
                    );
                    assert!(e.sort_spills > 0, "{id}: expected external sort runs at {b} B");
                    if *id == "join3" {
                        assert!(e.join_partitions > 0, "join3: expected Grace partitions at {b} B");
                    } else {
                        assert!(e.agg_spills > 0, "{id}: expected aggregation overflow at {b} B");
                    }
                }
            }
        }
        assert_eq!(db.spill_files_live(), 0, "spill temp files must not outlive the queries");
        mlog.push_raw(format!(
            "{{\"figure\":\"spill\",\"scale\":{scale},\"variant\":\"registry\",\"budget\":{},\
             \"registry\":{}}}",
            mem_budget.map_or("null".to_string(), |b| b.to_string()),
            db.metrics_snapshot().to_json()
        ));
    }
    println!(
        "\n(Budgeted rows are asserted byte-identical to the unbounded run; \
         spill temp files are asserted gone after each pass.)"
    );
}

/// `experiments serve`: the wire-protocol saturation cell (ROADMAP
/// item 1). Loads the Shakespeare corpus under the Hybrid mapping,
/// starts a real `xord` TCP server on an ephemeral loopback port, then:
///
/// 1. **verifies transparency** — every statement in the mix must return
///    byte-identical results over the wire and on the embedded handle;
/// 2. **saturates** — `--clients N` (default 4) remote connections loop
///    the point-lookup/join mix for `--secs` (default 2), each timing
///    round-trips into its own `Histogram`;
/// 3. **reports** — merged qps + p50/p99/p999 plus the server's
///    `net` counter delta (connections, frames, bytes, protocol errors).
fn serve_command(args: &Args) {
    use ordb::metrics::Histogram;
    use ordb::net::{Client, Server};
    use std::time::Instant;

    let docs = shakespeare_docs(args);
    let queries = shakespeare_queries();
    let wl = workload_sql(&queries);
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    let loaded = setup(&scratch_dir("serve"), map_hybrid(&simple), &docs, FormatPolicy::Auto, &wl)
        .expect("serve load");
    let mut mix = serving_workload(&loaded.db);
    // Point-joins alongside the point lookups: speech ⋈ speaker on the
    // parent edge, pinned to one speech ID so each statement stays a
    // short indexed probe (a serving mix, not an analytics scan).
    let minmax =
        loaded.db.query("SELECT MIN(speechID), MAX(speechID) FROM speech").expect("id range");
    let lo = minmax.rows[0][0].as_int().unwrap_or(0);
    let hi = minmax.rows[0][1].as_int().unwrap_or(lo);
    let span = (hi - lo).max(1);
    for i in 0..8 {
        let id = lo + span * i / 8;
        mix.push(format!(
            "SELECT speechID, speaker_value FROM speech, speaker \
             WHERE speaker_parentID = speechID AND speechID = {id}"
        ));
    }

    let db = std::sync::Arc::new(loaded.db);
    let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();
    println!("\n## Serve — remote clients over the wire protocol\n");
    println!("server on {addr}; mix of {} statements", mix.len());

    // Transparency gate before any timing: remote == embedded, bytewise.
    {
        let mut c = Client::connect(addr).expect("verification connect");
        for sql in &mix {
            let remote = c.query(sql).expect("wire query");
            let local = db.query(sql).expect("embedded query");
            assert_eq!(remote, local, "wire/embedded mismatch for {sql}");
        }
        c.close().expect("close");
    }
    println!("verification: all {} statements byte-identical over the wire", mix.len());

    let before = db.metrics_snapshot();
    let deadline = Duration::from_secs_f64(args.secs);
    let clients = args.clients.max(1);
    let mut merged = Histogram::new();
    let mut total = 0u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|ci| {
                let mix = &mix;
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("client connect");
                    let mut hist = Histogram::new();
                    let start = Instant::now();
                    // Stagger starting offsets so clients don't run the
                    // mix in lockstep against the same pages.
                    let mut i = ci * mix.len() / clients.max(1);
                    while start.elapsed() < deadline {
                        let q0 = Instant::now();
                        c.query(&mix[i % mix.len()]).expect("wire query");
                        hist.record_duration(q0.elapsed());
                        i += 1;
                    }
                    let _ = c.close();
                    hist
                })
            })
            .collect();
        for w in workers {
            let hist = w.join().expect("client thread");
            total += hist.count();
            merged.merge(&hist);
        }
    });
    let elapsed = t0.elapsed();
    let qps = total as f64 / elapsed.as_secs_f64().max(1e-9);
    println!("\n| clients | queries | wall (s) | qps | p50 | p99 | p999 |");
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| {clients} | {total} | {:.2} | {qps:.1} | {:.2} ms | {:.2} ms | {:.2} ms |",
        elapsed.as_secs_f64(),
        merged.p50() as f64 / 1e6,
        merged.p99() as f64 / 1e6,
        merged.p999() as f64 / 1e6,
    );
    println!("latency: {}", merged.summary());
    let d = db.metrics_snapshot().since(&before);
    println!(
        "server: {} connections, {} frames in / {} out, {} B in / {} B out, {} protocol errors",
        d.net.connections,
        d.net.frames_in,
        d.net.frames_out,
        d.net.bytes_in,
        d.net.bytes_out,
        d.net.protocol_errors
    );
    assert_eq!(d.net.protocol_errors, 0, "a clean saturation run sends no malformed frames");
    assert!(total > 0, "the burst must complete at least one query");

    // Writer phase: the same client count, now doing explicit
    // BEGIN/INSERT/COMMIT transactions. Every COMMIT asks for a durable
    // fsync; group commit lets concurrent committers share the leader's
    // flush, so the run must end with fewer fsyncs than commits.
    db.execute("CREATE TABLE serve_writes (k INTEGER, v VARCHAR)").expect("writer table");
    let wbefore = db.metrics_snapshot();
    let wdeadline = Duration::from_secs_f64((args.secs / 2.0).max(0.5));
    let mut commits = 0u64;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients.max(4))
            .map(|ci| {
                s.spawn(move || {
                    let mut c = Client::connect(addr).expect("writer connect");
                    let start = Instant::now();
                    let mut i = 0u64;
                    while start.elapsed() < wdeadline {
                        let k = ci as u64 * 1_000_000 + i;
                        c.execute("BEGIN").expect("begin");
                        c.execute(&format!("INSERT INTO serve_writes VALUES ({k}, 'c{ci}')"))
                            .expect("insert");
                        c.execute("COMMIT").expect("commit");
                        i += 1;
                    }
                    let _ = c.close();
                    i
                })
            })
            .collect();
        for w in workers {
            commits += w.join().expect("writer thread");
        }
    });
    let wd = db.metrics_snapshot().since(&wbefore);
    println!(
        "writers: {commits} commits, {} commit records, {} fsyncs ({} group commits, {} saved)",
        wd.wal.commit_records, wd.wal.fsyncs, wd.wal.group_commits, wd.wal.fsyncs_saved
    );
    assert!(
        wd.wal.fsyncs < wd.wal.commit_records,
        "group commit must batch: {} fsyncs for {} commit records",
        wd.wal.fsyncs,
        wd.wal.commit_records
    );
    handle.stop();
}

/// Group-commit figure: `--clients` (≥4 by default) remote writer
/// connections each loop `BEGIN; INSERT; COMMIT` for `--secs`, while two
/// readers run snapshot point counts. Every explicit COMMIT requests a
/// durable fsync, but concurrent committers share the leader's flush —
/// the figure's claim is `fsyncs < commits`, with the saved calls showing
/// up in `fsyncs_saved`. A deliberate write-write conflict pair at the
/// end exercises the first-updater-wins path.
fn txn_figure(args: &Args, mlog: &mut MetricsLog) {
    use ordb::net::{Client, Server};
    use std::time::Instant;

    let dir = scratch_dir("txn");
    let _ = std::fs::remove_dir_all(&dir);
    let db = ordb::Database::open(&dir).expect("open txn scratch db");
    db.execute("CREATE TABLE ledger (k INTEGER, v VARCHAR)").expect("create");
    db.execute("CREATE INDEX ledger_k ON ledger (k)").expect("index");
    db.execute("INSERT INTO ledger VALUES (0, 'seed')").expect("seed row");

    let db = std::sync::Arc::new(db);
    let server = Server::bind(db.clone(), "127.0.0.1:0").expect("bind loopback");
    let addr = server.local_addr();
    let handle = server.spawn();
    let writers = args.clients.max(4);
    let readers = 2usize;
    println!("\n## Transactions — group commit under {writers} writer clients\n");

    let before = db.metrics_snapshot();
    let deadline = Duration::from_secs_f64(args.secs);
    let t0 = Instant::now();
    let mut commits = 0u64;
    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for ci in 0..writers {
            workers.push(s.spawn(move || {
                let mut c = Client::connect(addr).expect("writer connect");
                let start = Instant::now();
                let mut i = 0u64;
                while start.elapsed() < deadline {
                    let k = (ci as u64 + 1) * 1_000_000 + i;
                    c.execute("BEGIN").expect("begin");
                    c.execute(&format!("INSERT INTO ledger VALUES ({k}, 'w{ci}')"))
                        .expect("insert");
                    c.execute("COMMIT").expect("commit");
                    i += 1;
                }
                let _ = c.close();
                i
            }));
        }
        for _ in 0..readers {
            s.spawn(move || {
                let mut c = Client::connect(addr).expect("reader connect");
                let start = Instant::now();
                while start.elapsed() < deadline {
                    let r = c.query("SELECT COUNT(*) FROM ledger WHERE k = 0").expect("read");
                    assert_eq!(r.rows[0][0], ordb::Value::Int(1), "seed row always visible");
                }
                let _ = c.close();
            });
        }
        for w in workers {
            commits += w.join().expect("writer thread");
        }
    });
    let elapsed = t0.elapsed();
    let d = db.metrics_snapshot().since(&before);

    println!(
        "| writers | commits | wall (s) | commit records | fsyncs | group commits | fsyncs saved |"
    );
    println!("|---|---|---|---|---|---|---|");
    println!(
        "| {writers} | {commits} | {:.2} | {} | {} | {} | {} |",
        elapsed.as_secs_f64(),
        d.wal.commit_records,
        d.wal.fsyncs,
        d.wal.group_commits,
        d.wal.fsyncs_saved
    );
    println!(
        "txns: {} begun, {} committed, {} aborted, {} conflicts",
        d.txn.begun, d.txn.committed, d.txn.aborted, d.txn.conflicts
    );
    assert_eq!(d.txn.committed, commits, "every wire COMMIT lands in the counter");
    assert!(
        d.wal.fsyncs < d.wal.commit_records,
        "group commit must batch: {} fsyncs for {} commits",
        d.wal.fsyncs,
        d.wal.commit_records
    );
    let visible = db.query("SELECT COUNT(*) FROM ledger").expect("count").rows[0][0]
        .as_int()
        .unwrap_or(0) as u64;
    assert_eq!(visible, commits + 1, "committed rows all visible");

    // First-updater-wins demonstration on the embedded handle.
    let (mut s1, mut s2) = (db.session(), db.session());
    s1.execute("BEGIN").expect("begin t1");
    s2.execute("BEGIN").expect("begin t2");
    s1.execute("DELETE FROM ledger WHERE k = 0").expect("t1 claims");
    let conflict = s2.execute("DELETE FROM ledger WHERE k = 0");
    assert!(
        matches!(conflict, Err(ordb::DbError::TxnConflict(_))),
        "second updater must fail fast, got {conflict:?}"
    );
    s1.execute("ROLLBACK").expect("t1 rollback");
    let dc = db.metrics_snapshot().since(&before);
    println!(
        "conflict demo: {} write-write conflict(s), loser rolled back automatically",
        dc.txn.conflicts
    );
    assert!(dc.txn.conflicts >= 1);

    mlog.push_raw(format!(
        "{{\"figure\":\"txn\",\"writers\":{writers},\"secs\":{:.3},\"commits\":{commits},\
         \"commit_records\":{},\"fsyncs\":{},\"group_commits\":{},\"fsyncs_saved\":{},\
         \"conflicts\":{}}}",
        elapsed.as_secs_f64(),
        d.wal.commit_records,
        d.wal.fsyncs,
        d.wal.group_commits,
        d.wal.fsyncs_saved,
        dc.txn.conflicts
    ));
    handle.stop();
}

/// The vacuum figure: identical delete/insert churn against two
/// databases — one vacuumed every round, one never — showing the heap
/// stays at its steady-state page count with vacuum and grows
/// monotonically without it. Ends with a crash injected mid-vacuum and
/// the recovery equivalence check (heap == index == oracle on reopen).
fn vacuum_figure(args: &Args, mlog: &mut MetricsLog) {
    use ordb::storage::page::PAGE_SIZE;

    let rounds = if args.full { 10 } else { 6 };
    let rows: i64 = if args.full { 512 } else { 192 };
    println!("\n## Vacuum — steady-state page count under delete/insert churn\n");

    let open = |tag: &str| {
        let dir = scratch_dir(&format!("vacuum-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        // Auto-vacuum off: the figure drives the passes explicitly so
        // the no-vacuum arm really never reclaims.
        let opts = ordb::DbOptions { auto_vacuum: false, ..xorator_bench::experiment_opts() };
        let db = ordb::Database::open_with(&dir, opts).expect("open vacuum scratch db");
        db.execute("CREATE TABLE churn (id INTEGER, body VARCHAR)").expect("create");
        db.execute("CREATE INDEX churn_id ON churn (id)").expect("index");
        db
    };
    // Every 8th row is a ~6 KB body, so the churn exercises overflow
    // chains as well as in-page slots.
    let fill = |db: &ordb::Database, round: i64| {
        let batch: Vec<Vec<ordb::Value>> = (0..rows)
            .map(|i| {
                let body =
                    if i % 8 == 0 { "x".repeat(6000) } else { format!("body-{round}-{i:05}") };
                vec![ordb::Value::Int(i), ordb::Value::str(&body)]
            })
            .collect();
        db.insert_rows("churn", batch).expect("fill churn");
    };
    let pages = |db: &ordb::Database| db.data_size_bytes().expect("size") as usize / PAGE_SIZE;

    let vdb = open("on");
    let ndb = open("off");
    fill(&vdb, 0);
    fill(&ndb, 0);

    println!("| round | pages (vacuum) | pages (no vacuum) | versions reclaimed |");
    println!("|---|---|---|---|");
    let mut v_pages = Vec::new();
    let mut n_pages = Vec::new();
    let mut reclaimed_total = 0u64;
    for round in 1..=rounds {
        vdb.execute("DELETE FROM churn").expect("delete (vacuum arm)");
        ndb.execute("DELETE FROM churn").expect("delete (leak arm)");
        let report = vdb.vacuum().expect("vacuum");
        reclaimed_total += report.vacuumed_versions;
        fill(&vdb, round);
        fill(&ndb, round);
        v_pages.push(pages(&vdb));
        n_pages.push(pages(&ndb));
        println!(
            "| {round} | {} | {} | {} |",
            v_pages[v_pages.len() - 1],
            n_pages[n_pages.len() - 1],
            report.vacuumed_versions
        );
    }
    assert_eq!(
        v_pages.last(),
        v_pages.first(),
        "vacuum + free-space reuse must hold the page count flat: {v_pages:?}"
    );
    assert!(n_pages.windows(2).all(|w| w[0] <= w[1]), "leak arm never shrinks: {n_pages:?}");
    assert!(
        n_pages.last() > v_pages.last(),
        "without vacuum the heap must outgrow the vacuumed arm: {n_pages:?} vs {v_pages:?}"
    );
    println!(
        "\nsteady state: {} pages with vacuum vs {} without ({} versions reclaimed)",
        v_pages[v_pages.len() - 1],
        n_pages[n_pages.len() - 1],
        reclaimed_total
    );

    // Crash mid-vacuum, then reopen: the heap, the index, and the
    // oracle (live ids tracked outside the database) must agree.
    let dir = scratch_dir("vacuum-crash");
    let _ = std::fs::remove_dir_all(&dir);
    let inj = ordb::FaultInjector::new();
    let opts = ordb::DbOptions {
        fault: Some(inj.clone()),
        auto_vacuum: false,
        ..xorator_bench::experiment_opts()
    };
    let db = ordb::Database::open_with(&dir, opts).expect("open crash db");
    db.execute("CREATE TABLE churn (id INTEGER, body VARCHAR)").expect("create");
    db.execute("CREATE INDEX churn_id ON churn (id)").expect("index");
    fill(&db, 0);
    db.execute("DELETE FROM churn WHERE id < 96").expect("kill half");
    let live: i64 = rows - 96.min(rows);
    // Make the pre-vacuum state durable (autocommit statements alone
    // are not — their page images reach the WAL lazily), so the torn
    // write below holds *only* the vacuum storm.
    db.checkpoint().expect("durable base");
    // The pass's mutations all reach disk in one buffered WAL write at
    // its closing sync, so crash on the *first* write and tear it: a
    // random strict prefix of the vacuum's page images survives —
    // exactly a process death partway through the reclamation storm.
    inj.arm(ordb::FaultPlan {
        crash_after: 0,
        mode: ordb::CrashMode::Tear,
        scope: ordb::FaultScope::Wal,
        seed: 0xC0FFEE,
    });
    let crashed = db.vacuum().is_err() && inj.crashed();
    db.abandon();
    inj.disarm();
    let db = ordb::Database::open_with(
        &dir,
        ordb::DbOptions { auto_vacuum: false, ..xorator_bench::experiment_opts() },
    )
    .expect("reopen after mid-vacuum crash");
    let canon = |access: ordb::ForcedAccess| -> Vec<String> {
        let forcing = ordb::PlanForcing { access: Some(access), ..Default::default() };
        let mut ids: Vec<String> = db
            .session()
            .with_forcing(forcing)
            .query("SELECT id FROM churn WHERE id >= 0")
            .expect("recovered query")
            .rows
            .iter()
            .map(|r| format!("{r:?}"))
            .collect();
        ids.sort();
        ids
    };
    let seq = canon(ordb::ForcedAccess::SeqScan);
    let via_index = canon(ordb::ForcedAccess::IndexScan);
    assert_eq!(seq.len() as i64, live, "heap must match the oracle after recovery");
    assert_eq!(seq, via_index, "index must match the heap after recovery");
    // A clean pass after recovery converges whatever the crash left.
    let post = db.vacuum().expect("post-recovery vacuum");
    assert_eq!(canon(ordb::ForcedAccess::SeqScan).len() as i64, live);
    println!(
        "crash mid-vacuum: injected={crashed}, reopen sees {live} live rows \
         (heap == index == oracle), post-recovery pass reclaimed {}",
        post.vacuumed_versions
    );

    mlog.push_raw(format!(
        "{{\"figure\":\"vacuum\",\"rounds\":{rounds},\"rows\":{rows},\
         \"pages_vacuum\":{},\"pages_no_vacuum\":{},\"reclaimed\":{reclaimed_total},\
         \"crash_injected\":{crashed},\"live_after_recovery\":{live}}}",
        v_pages[v_pages.len() - 1],
        n_pages[n_pages.len() - 1],
    ));
}

/// A serving-style read-only mix over tables both mappings share: point
/// lookups by speech ID and short path steps by parent ID, spread across
/// the key range so concurrent clients fault different pages.
fn serving_workload(db: &ordb::Database) -> Vec<String> {
    // Point-lookup index (the advisor indexes parent IDs; serving also
    // needs the primary key).
    db.execute("CREATE INDEX serve_speech_id ON speech (speechID)").expect("serving index");
    let minmax = db.query("SELECT MIN(speechID), MAX(speechID) FROM speech").expect("id range");
    let lo = minmax.rows[0][0].as_int().unwrap_or(0);
    let hi = minmax.rows[0][1].as_int().unwrap_or(lo);
    let span = (hi - lo).max(1);
    let mut wl = Vec::new();
    const POINTS: i64 = 16;
    for i in 0..POINTS {
        let id = lo + span * i / POINTS;
        wl.push(format!(
            "SELECT speech_parentID, speech_parentCODE FROM speech WHERE speechID = {id}"
        ));
        wl.push(format!("SELECT speechID FROM speech WHERE speech_parentID = {id}"));
    }
    wl
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
