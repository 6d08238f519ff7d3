//! The three analytic workloads: the paper's queries through embedded
//! `Database::query` on one thread — `hybrid_warm`, `xorator_warm` (warm
//! 4096-frame pool) and `paper_cold` (both dialects, 64-frame pool,
//! cache dropped before every statement, outside the timed interval).

use std::path::Path;
use std::time::{Duration, Instant};

use ordb::Database;

use crate::corpus::{disk_bytes, load, Corpus, Dialect, Docs, Loaded};
use crate::layers::{self, set, Metrics, Profile, Window};
use crate::oracle::{self, check_expected, Digest, Expected, Tally};
use crate::phase::{summarize, OpCounter, Passes};
use crate::spans::{now_ns, Spans};
use crate::spec::Workload;
use crate::stats::median;
use crate::{Outcome, Res, RunArgs};

/// One statement of a workload's round-robin list.
pub struct Stmt {
    /// `<dialect>/<id>`, the key in the expected file.
    pub key: String,
    /// Paper identifier, e.g. `QS1`.
    pub id: &'static str,
    /// Index into the bed's databases.
    pub db: usize,
    /// The SQL text.
    pub sql: &'static str,
}

/// A set-up test bed: loaded databases and the statement list.
pub struct Bed {
    /// The generated corpora (kept for the load-path probes).
    pub docs: Docs,
    /// One database per (corpus, dialect) the workload needs.
    pub dbs: Vec<Loaded>,
    /// The statements of one pass, in order.
    pub stmts: Vec<Stmt>,
    /// Drop the cache before every statement.
    pub cold: bool,
}

fn dialects(workload: Workload) -> &'static [Dialect] {
    match workload {
        Workload::HybridWarm => &[Dialect::Hybrid],
        Workload::XoratorWarm => &[Dialect::Xorator],
        _ => &[Dialect::Hybrid, Dialect::Xorator],
    }
}

/// The statement list of an analytic workload: per dialect, QS1–QS6 and
/// QE1/QE2 on Shakespeare, then QG1–QG6 on SIGMOD. `(dialect, corpus)`
/// pairs are numbered in the order [`set_up`] loads them.
pub fn statements(workload: Workload) -> Vec<Stmt> {
    let mut out = Vec::new();
    for (d, &dialect) in dialects(workload).iter().enumerate() {
        for (c, corpus) in [Corpus::Shakespeare, Corpus::Sigmod].into_iter().enumerate() {
            for q in corpus.queries() {
                out.push(Stmt {
                    key: format!("{}/{}", dialect.name(), q.id),
                    id: q.id,
                    db: d * 2 + c,
                    sql: dialect.sql(&q),
                });
            }
        }
    }
    out
}

/// Generate the corpora from `seed` and load every database under `dir`.
pub fn set_up(workload: Workload, seed: u64, dir: &Path) -> Res<Bed> {
    let docs = Docs::generate(seed);
    let mut dbs = Vec::new();
    for &dialect in dialects(workload) {
        for corpus in [Corpus::Shakespeare, Corpus::Sigmod] {
            let sub = dir.join(format!("{}-{corpus:?}", dialect.name()));
            dbs.push(load(&sub, corpus, dialect, docs.of(corpus), workload.pool_frames())?);
        }
    }
    Ok(Bed { docs, dbs, stmts: statements(workload), cold: workload == Workload::PaperCold })
}

impl Bed {
    fn db(&self, stmt: &Stmt) -> &Database {
        &self.dbs[stmt.db].db
    }

    fn all_dbs(&self) -> Vec<&Database> {
        self.dbs.iter().map(|l| &*l.db).collect()
    }

    /// Run one statement the way the timed phase does; returns its
    /// latency in ms and counts errors and wrong digests into `tally`.
    fn run(&self, i: usize, want: Digest, buf: &mut Vec<u8>, tally: &mut Tally) -> f64 {
        let stmt = &self.stmts[i];
        let db = self.db(stmt);
        if self.cold {
            if let Err(e) = db.drop_cache() {
                tally.check(false, || format!("{}: drop_cache: {e}", stmt.key));
            }
        }
        let t = Instant::now();
        let result = db.query(stmt.sql);
        let latency = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(r) => {
                let got = oracle::physical(&r, buf);
                tally.check(got == want, || format!("{}: {got:?}, first run {want:?}", stmt.key));
            }
            Err(e) => tally.check(false, || format!("{}: {e}", stmt.key)),
        }
        latency
    }

    /// The two warm-up passes: the first fixes each statement's digest
    /// (and is held against the expected file), the second must repeat it.
    pub fn warm_up(&self, expected: Option<&Expected>, tally: &mut Tally) -> Res<Vec<Digest>> {
        let mut buf = Vec::new();
        let mut digests = Vec::with_capacity(self.stmts.len());
        for stmt in &self.stmts {
            if self.cold {
                self.db(stmt).drop_cache()?;
            }
            let r = self.db(stmt).query(stmt.sql)?;
            check_expected(tally, expected, &stmt.key, oracle::logical(&r));
            digests.push(oracle::physical(&r, &mut buf));
        }
        for (i, want) in digests.iter().enumerate() {
            self.run(i, *want, &mut buf, tally);
        }
        Ok(digests)
    }

    /// Whole passes until `seconds` have gone by (the pass in flight at
    /// the deadline finishes).
    fn passes(&self, seconds: f64, digests: &[Digest], tally: &mut Tally) -> Passes {
        let (mut passes, counter) = (Passes::default(), OpCounter::default());
        let mut buf = Vec::new();
        let deadline = Instant::now() + Duration::from_secs_f64(seconds);
        while Instant::now() < deadline || passes.is_empty() {
            passes.begin(Some(&counter));
            let mut busy_ms = 0.0;
            for (i, want) in digests.iter().enumerate() {
                let latency = self.run(i, *want, &mut buf, tally);
                passes.record(latency, &counter);
                busy_ms += latency;
            }
            // Cache drops and digest checks sit between the timed
            // intervals, so the pass's wall time is their sum.
            passes.end(Some(busy_ms / 1e3), Some(&counter));
        }
        passes
    }
}

/// Run one analytic workload end to end.
pub fn run(args: &RunArgs) -> Res<Outcome> {
    let mut tally = Tally::default();
    let (bed, setup_s) = crate::repeat_set_up(
        args,
        || set_up(args.workload, args.seed, &args.dir),
        |old| {
            drop(old);
            Ok(())
        },
    )?;
    let expected = oracle::load_expected(args.seed);
    let digests = bed.warm_up(expected.as_ref(), &mut tally)?;

    let mut metrics = Metrics::new();
    let samples;
    if args.trace {
        samples = layer_metrics(args, &bed, &digests, &mut tally, &mut metrics)?;
    } else {
        let passes = bed.passes(args.seconds, &digests, &mut tally);
        samples = summarize(&mut [passes], &mut metrics);
        let mut disk = 0u64;
        for l in &bed.dbs {
            disk += disk_bytes(&l.db)?;
        }
        let xml: u64 = bed.dbs.iter().map(|l| l.xml_bytes).sum();
        set(&mut metrics, "setup_s", setup_s);
        set(&mut metrics, "space_amp", disk as f64 / xml as f64);
    }
    Ok(Outcome { tally, metrics, samples })
}

/// The traced run: untraced passes for the baseline, the same passes
/// through `explain_analyze` with spans and a counter window, then the
/// direct probes. Returns the number of traced ops.
fn layer_metrics(
    args: &RunArgs,
    bed: &Bed,
    digests: &[Digest],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Res<u64> {
    let passes = args.traced_passes();
    let mut buf = Vec::new();

    let mut untraced = vec![Vec::new(); bed.stmts.len()];
    for _ in 0..passes {
        for (i, samples) in untraced.iter_mut().enumerate() {
            samples.push(bed.run(i, digests[i], &mut buf, tally));
        }
    }
    let untraced_ms: f64 = untraced.iter().flatten().sum();
    for id in crate::spec::QUERY_IDS {
        // paper_cold runs each query in both dialects: report their mean.
        let medians: Vec<f64> = bed
            .stmts
            .iter()
            .zip(&mut untraced)
            .filter(|(s, _)| s.id == id)
            .map(|(_, samples)| median(samples))
            .collect();
        let mean = medians.iter().sum::<f64>() / medians.len().max(1) as f64;
        set(m, &format!("query.{id}.p50_ms"), mean);
    }

    let dbs = bed.all_dbs();
    let mut spans = Spans::default();
    let mut profile = Profile::default();
    let mut traced_ms = 0.0;
    let window = Window::open(&dbs);
    let mut op = 0u64;
    for _ in 0..passes {
        for (i, stmt) in bed.stmts.iter().enumerate() {
            let db = bed.db(stmt);
            if bed.cold {
                db.drop_cache()?;
            }
            op += 1;
            let start = now_ns();
            let report = db.explain_analyze(stmt.sql);
            let dur = now_ns() - start;
            traced_ms += dur as f64 / 1e6;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    tally.check(false, || format!("{} (traced): {e}", stmt.key));
                    continue;
                }
            };
            let got = oracle::physical(&report.result, &mut buf);
            tally.check(got == digests[i], || format!("{} (traced): {got:?}", stmt.key));

            let me = spans.push(None, op, 1, format!("op {}", stmt.key), start, dur);
            spans.push_phases(me, start, &report.metrics, true);
            profile.add(&report.metrics);
        }
    }
    window.close(&dbs, op, m);
    profile.write(passes, op, m);
    set(m, "trace.overhead_frac", traced_ms / untraced_ms - 1.0);

    set(m, "sql.parse_us", layers::parse_us(bed.stmts.iter().map(|s| s.sql)));
    set(m, "plan.explain_us", layers::explain_us(bed.stmts.iter().map(|s| (bed.db(s), s.sql))));
    set(m, "heap.scan_mrows_per_s", layers::scan_mrows_per_s(&bed.dbs[0].db)?);
    let keys = crate::wire::point_keys(args.seed, &bed.dbs[0].db)?;
    let selects: Vec<String> = keys.iter().map(|k| crate::wire::pk_select(*k)).collect();
    set(m, "btree.point_select_us", layers::point_select_us(&bed.dbs[0].db, &selects)?);
    layers::sizes(&dbs, m)?;
    layers::load_path(&bed.docs, &bed.dbs, m)?;
    layers::xadt_probes(&bed.dbs, if args.quick { 100 } else { 500 }, m)?;

    spans.write_chrome(&args.trace_path())?;
    Ok(op)
}
