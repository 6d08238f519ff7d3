//! `xorshell` — a small interactive shell over an `ordb` database.
//!
//! ```text
//! xorshell <db-dir> [--pool-frames N]
//! ```
//!
//! Meta commands (everything else is SQL, `;`-terminated or single-line):
//!
//! ```text
//! .help                     this text
//! .tables                   list tables with row counts
//! .schema [table]           show column definitions
//! .load shakespeare N       generate + load N plays (XORator mapping)
//! .load sigmod N            generate + load N proceedings docs
//! .xpath /PLAY/ACT/...      compile an XPath and run it
//! .metrics                  session buffer-pool / engine / UDF counters
//! .spans [chrome|folded F]  last plain SELECT's span tree (or export it)
//! .hist                     session query-latency histogram
//! .stats                    run runstats on every table
//! .quit
//! ```
//!
//! Meta commands also accept a backslash prefix (`\spans`, `\metrics`).
//! SQL runs through one session, so `BEGIN`/`COMMIT`/`ROLLBACK` and
//! `SET force_*` hold across lines as they do over the wire, and
//! `EXPLAIN [ANALYZE]` plans under them; quitting rolls back an open
//! transaction. Every SELECT runs profiled (`Session::analyze`), and the
//! shell keeps the last one's report for `.spans`.

use std::io::{BufRead, Write};

use ordb::{AnalyzeReport, Database, DbOptions, Session};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator::schema::Mapping;

struct Shell<'db> {
    db: &'db Database,
    /// Every SQL line runs here: the shell's forcing and transaction.
    session: Session<'db>,
    /// Mapping of the last `.load`, for `.xpath`.
    mapping: Option<Mapping>,
    /// The last SELECT's report, for `.spans`.
    last: Option<AnalyzeReport>,
}

fn main() {
    let mut args = std::env::args().skip(1);
    let dir = args.next().unwrap_or_else(|| {
        eprintln!("usage: xorshell <db-dir> [--pool-frames N]");
        std::process::exit(2);
    });
    let mut opts = DbOptions::default();
    while let Some(a) = args.next() {
        if a == "--pool-frames" {
            opts.pool_frames = args.next().and_then(|v| v.parse().ok()).unwrap_or(opts.pool_frames);
        }
    }
    let db = match Database::open_with(&dir, opts) {
        Ok(db) => db,
        Err(e) => {
            eprintln!("cannot open {dir}: {e}");
            std::process::exit(1);
        }
    };
    println!("xorshell — {} table(s) in {dir}. Type .help for commands.", db.table_count());
    let mut shell = Shell { db: &db, session: db.session(), mapping: None, last: None };

    let stdin = std::io::stdin();
    let mut line = String::new();
    loop {
        print!("xorator> ");
        std::io::stdout().flush().ok();
        line.clear();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let input = line.trim().trim_end_matches(';').trim();
        if input.is_empty() {
            continue;
        }
        if input == ".quit" || input == ".exit" {
            break;
        }
        if let Err(e) = shell.dispatch(input) {
            eprintln!("error: {e}");
        }
    }
    // Dropping the session rolls back a transaction left open.
    drop(shell);
    db.flush().ok();
}

impl Shell<'_> {
    fn dispatch(&mut self, input: &str) -> Result<(), Box<dyn std::error::Error>> {
        // Meta commands take either prefix: `.spans` and `\spans` are the
        // same command.
        if let Some(rest) = input.strip_prefix('.').or_else(|| input.strip_prefix('\\')) {
            let mut parts = rest.split_whitespace();
            match parts.next().unwrap_or_default() {
                "help" => print!("{}", HELP),
                "tables" => {
                    for name in self.db.table_names() {
                        println!("{name} ({} rows)", self.db.row_count(&name)?);
                    }
                }
                "schema" => {
                    let filter = parts.next();
                    for name in self.db.table_names() {
                        if filter.is_some_and(|f| !name.eq_ignore_ascii_case(f)) {
                            continue;
                        }
                        if let Some(def) = self.db.table_def(&name) {
                            let cols: Vec<String> = def
                                .columns
                                .iter()
                                .map(|c| format!("{} {}", c.name, c.ty))
                                .collect();
                            println!("CREATE TABLE {name} ({});", cols.join(", "));
                        }
                    }
                }
                "load" => {
                    let corpus = parts.next().unwrap_or_default().to_string();
                    let n: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(4);
                    self.load(&corpus, n)?;
                }
                "xpath" => {
                    let path = rest.trim_start_matches("xpath").trim();
                    let mapping =
                        self.mapping.as_ref().ok_or("no mapping loaded; use .load first")?;
                    let compiled = compile_xpath(mapping, path)?;
                    println!("-- {}", compiled.sql);
                    print!("{}", self.analyze(&compiled.sql)?.result);
                }
                "spans" => {
                    let Some(last) = &self.last else {
                        println!("(no spans yet — run a query first)");
                        return Ok(());
                    };
                    let spans = last.metrics.spans();
                    match (parts.next(), parts.next()) {
                        (Some("chrome"), Some(path)) => {
                            std::fs::write(path, ordb::trace::chrome_trace_json(&spans))?;
                            println!("wrote Chrome trace ({} spans) to {path}", spans.len());
                        }
                        (Some("folded"), Some(path)) => {
                            std::fs::write(path, ordb::trace::folded_stacks(&spans))?;
                            println!("wrote folded stacks ({} spans) to {path}", spans.len());
                        }
                        (None, _) => print!("{}", ordb::trace::render_span_tree(&spans)),
                        _ => return Err("usage: \\spans [chrome FILE | folded FILE]".into()),
                    }
                }
                "hist" => {
                    let m = self.db.metrics_snapshot();
                    println!("queries={} latency: {}", m.queries, m.latency.summary());
                }
                "metrics" => {
                    let m = self.db.metrics_snapshot();
                    let pool = m.pool;
                    println!(
                        "buffer pool: fetches={} hits={} misses={} evictions={} \
                         writebacks={} hit_ratio={:.3}",
                        pool.fetches(),
                        pool.hits,
                        pool.misses,
                        pool.evictions,
                        pool.writebacks,
                        pool.hit_ratio()
                    );
                    let e = m.engine;
                    println!(
                        "engine: index_probes={} sort_rows={} sort_spills={} \
                         unnest_calls={} unnest_bytes={}",
                        e.index_probes, e.sort_rows, e.sort_spills, e.unnest_calls, e.unnest_bytes
                    );
                    let called: Vec<_> =
                        self.db.udf_counters().into_iter().filter(|u| u.calls > 0).collect();
                    if called.is_empty() {
                        println!("functions: (none called yet)");
                    } else {
                        for u in called {
                            println!(
                                "function {}: calls={} marshalled_bytes={}",
                                u.name, u.calls, u.marshalled_bytes
                            );
                        }
                    }
                }
                "stats" => {
                    self.db.runstats_all()?;
                    println!("statistics collected for {} table(s)", self.db.table_count());
                }
                other => eprintln!("unknown command .{other}; try .help"),
            }
            return Ok(());
        }
        // SQL.
        let upper = input.trim_start().to_ascii_uppercase();
        let start = std::time::Instant::now();
        if upper.starts_with("SELECT") {
            print!("{}", self.analyze(input)?.result);
        } else if upper.starts_with("EXPLAIN") {
            print!("{}", self.session.query(input)?);
        } else {
            let n = self.session.execute(input)?;
            println!("ok ({n} rows affected)");
        }
        println!("({:.2} ms)", start.elapsed().as_secs_f64() * 1e3);
        Ok(())
    }

    /// Run a SELECT through the session, profiled, and keep its record
    /// for `.spans`.
    fn analyze(&mut self, sql: &str) -> ordb::Result<&AnalyzeReport> {
        Ok(self.last.insert(self.session.analyze(sql)?))
    }

    fn load(&mut self, corpus: &str, n: usize) -> Result<(), Box<dyn std::error::Error>> {
        let (docs, dtd_src) = match corpus {
            "shakespeare" => (
                datagen::generate_shakespeare(&datagen::ShakespeareConfig {
                    plays: n,
                    ..Default::default()
                }),
                xorator::dtds::SHAKESPEARE_DTD,
            ),
            "sigmod" => (
                datagen::generate_sigmod(&datagen::SigmodConfig {
                    documents: n,
                    ..Default::default()
                }),
                xorator::dtds::SIGMOD_DTD,
            ),
            other => return Err(format!("unknown corpus {other:?}").into()),
        };
        let simple = simplify(&parse_dtd(dtd_src)?);
        let mapping = map_xorator(&simple);
        let report = load_corpus(self.db, &mapping, &docs, LoadOptions::default())?;
        let queries: Vec<&str> = if corpus == "shakespeare" {
            shakespeare_queries().iter().map(|q| q.xorator).collect()
        } else {
            sigmod_queries().iter().map(|q| q.xorator).collect()
        };
        let n_idx = advise_and_apply(self.db, &mapping, &queries)?;
        println!(
            "loaded {} documents → {} tuples ({:?} XADT), {} indexes, {:.2}s",
            report.documents,
            report.tuples,
            report.format,
            n_idx,
            report.elapsed.as_secs_f64()
        );
        self.mapping = Some(mapping);
        Ok(())
    }
}

const HELP: &str = "\
.help                     this text
.tables                   list tables with row counts
.schema [table]           show column definitions
.load shakespeare N       generate + load N plays (XORator mapping)
.load sigmod N            generate + load N proceedings docs
.xpath /PLAY/ACT/...      compile an XPath and run it
.metrics                  session buffer-pool / engine / UDF counters
.spans                    last plain SELECT's span tree (self/total times)
.spans chrome FILE        export it as Chrome trace_event JSON
.spans folded FILE        export it as folded flamegraph stacks
.hist                     session query-latency histogram (p50..p999)
.stats                    run runstats on every table
.quit                     exit (rolls back an open transaction)
meta commands also accept a backslash prefix (\\spans, \\metrics, ...)
anything else is SQL, run in this shell's one session:
  SELECT / CREATE / INSERT / DELETE / DROP / VACUUM
  BEGIN / COMMIT / ROLLBACK
  EXPLAIN SELECT|DELETE ...  the planner's decisions
  EXPLAIN ANALYZE SELECT ... run it: per-operator rows/time, counters
  SET force_join nested|hash|cost     plan forcing for this session
  SET force_access seq|index|cost     (also SET key = value)
  SET force_order declared|cost
";
