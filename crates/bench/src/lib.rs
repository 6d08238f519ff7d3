//! # xorator-bench — experiment harness
//!
//! Reusable machinery for reproducing the paper's evaluation (§4):
//! database setup per mapping algorithm, the paper's cold-run timing
//! methodology (5 runs, mean of the middle three, buffer pool dropped
//! between runs), and corpus scaling (DSx1/x2/x4/x8 by loading the base
//! corpus multiple times, §4.3/§4.4).
//!
//! The `experiments` binary drives these helpers to print every table and
//! figure; the repository benchmark under `benchmark/` reuses the corpus
//! scaling, the workload list and the scratch directory.

#![warn(missing_docs)]

pub mod trajectory;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ordb::storage::buffer::PoolStats;
use ordb::{Database, DbOptions, QueryResult};
use xorator::prelude::*;
use xorator::schema::Mapping;

/// Default buffer-pool size for experiments (256 × 8 KiB = 2 MiB), small
/// enough that the larger DSx scales spill to disk, as on the paper's
/// 256 MB testbed.
pub const EXPERIMENT_POOL_FRAMES: usize = 256;

/// What `io`'s misses would have cost on the paper's I/O-bound testbed,
/// a year-2000 disk scaled down ~10×: 0.2 ms per sequential miss (~0.5 ms
/// on the real device) and 2 ms per random one (~10 ms, seek + rotation).
pub fn io_charge(io: &PoolStats) -> Duration {
    Duration::from_micros(200 * io.seq_misses + 2000 * io.rand_misses())
}

/// A database loaded with one corpus under one mapping.
pub struct LoadedDb {
    /// The database.
    pub db: Database,
    /// The mapping used.
    pub mapping: Mapping,
    /// Load outcome (time, tuples, chosen XADT format).
    pub load: LoadReport,
    /// Number of indexes the advisor created.
    pub indexes: usize,
}

/// Build a fresh database at `dir` for `mapping`, load `docs`, create the
/// advisor's indexes, and collect statistics — the paper's §4.2 setup.
pub fn setup(
    dir: &Path,
    mapping: Mapping,
    docs: &[String],
    policy: FormatPolicy,
    workload: &[&str],
) -> xorator::Result<LoadedDb> {
    setup_opts(dir, mapping, docs, policy, workload, experiment_opts())
}

/// Database options used by [`setup`]: the experiment pool size, every
/// other option at the engine default.
pub fn experiment_opts() -> DbOptions {
    DbOptions { pool_frames: EXPERIMENT_POOL_FRAMES, ..Default::default() }
}

/// [`setup`] with explicit [`DbOptions`] — used by the crash-matrix
/// harness (fault injection).
pub fn setup_opts(
    dir: &Path,
    mapping: Mapping,
    docs: &[String],
    policy: FormatPolicy,
    workload: &[&str],
    opts: DbOptions,
) -> xorator::Result<LoadedDb> {
    let _ = std::fs::remove_dir_all(dir);
    let db = Database::open_with(dir, opts).map_err(xorator::CoreError::Db)?;
    let load = load_corpus(&db, &mapping, docs, LoadOptions { policy, sample_docs: 10 })?;
    let indexes = advise_and_apply(&db, &mapping, workload)?;
    db.runstats_all().map_err(xorator::CoreError::Db)?;
    db.flush().map_err(xorator::CoreError::Db)?;
    Ok(LoadedDb { db, mapping, load, indexes })
}

/// Timing of one query under the paper's methodology.
#[derive(Debug, Clone)]
pub struct QueryTiming {
    /// Mean of the middle three of five cold runs.
    pub mean: Duration,
    /// All run durations, sorted.
    pub runs: Vec<Duration>,
    /// The same mean over modelled times: each run's measured time plus
    /// the [`io_charge`] of its own misses.
    pub modelled: Duration,
    /// Buffer-pool counters of the first cold run (every cold run reads
    /// the same pages in the same order).
    pub io: PoolStats,
    /// Rows returned (sanity check: must agree across algorithms).
    pub rows: usize,
    /// Per-operator profile and engine counters from one extra cold
    /// instrumented run (not one of the timed runs, so the paper's
    /// methodology is unchanged).
    pub metrics: Option<ordb::QueryMetrics>,
}

/// Run `sql` cold `reps` times (default methodology: 5) and report the
/// mean of the middle `reps - 2` runs.
///
/// Every run must return the same number of rows — a divergence means the
/// query is non-deterministic or the engine is broken, and either way the
/// timing is meaningless, so this fails loudly instead of reporting it.
pub fn time_query(db: &Database, sql: &str, reps: usize) -> ordb::Result<QueryTiming> {
    time_query_opts(db, sql, reps, false)
}

/// [`time_query`], optionally followed by one extra cold instrumented run
/// that fills [`QueryTiming::metrics`].
pub fn time_query_opts(
    db: &Database,
    sql: &str,
    reps: usize,
    with_metrics: bool,
) -> ordb::Result<QueryTiming> {
    assert!(reps >= 3, "need at least 3 runs to trim");
    let (mut runs, mut modelled) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    let (mut rows, mut first_io) = (0, PoolStats::default());
    for rep in 0..reps {
        db.drop_cache()?;
        let pool0 = db.metrics_snapshot().pool;
        let start = Instant::now();
        let result: QueryResult = db.query(sql)?;
        runs.push(start.elapsed());
        let io = db.metrics_snapshot().pool.since(&pool0);
        modelled.push(runs[rep] + io_charge(&io));
        if rep == 0 {
            (rows, first_io) = (result.len(), io);
        } else if result.len() != rows {
            return Err(ordb::DbError::Exec(format!(
                "row count diverged across timing runs of {sql:?}: \
                 run 1 returned {rows}, run {} returned {}",
                rep + 1,
                result.len()
            )));
        }
    }
    let trimmed_mean = |v: &mut Vec<Duration>| {
        v.sort();
        v[1..reps - 1].iter().sum::<Duration>() / (reps - 2) as u32
    };
    let (mean, modelled) = (trimmed_mean(&mut runs), trimmed_mean(&mut modelled));
    let metrics = if with_metrics {
        db.drop_cache()?;
        let report = db.explain_analyze(sql)?;
        if report.result.len() != rows {
            return Err(ordb::DbError::Exec(format!(
                "row count diverged on the instrumented run of {sql:?}: \
                 timed runs returned {rows}, instrumented run returned {}",
                report.result.len()
            )));
        }
        Some(report.metrics)
    } else {
        None
    };
    Ok(QueryTiming { mean, runs, modelled, io: first_io, rows, metrics })
}

/// Replicate `base` docs `k` times — the paper's DSx`k` configurations.
pub fn replicate(base: &[String], k: usize) -> Vec<String> {
    let mut out = Vec::with_capacity(base.len() * k);
    for _ in 0..k {
        out.extend_from_slice(base);
    }
    out
}

/// Paper-style size row: tables / database MB / index MB.
#[derive(Debug, Clone, Copy)]
pub struct SizeRow {
    /// Number of mapped tables.
    pub tables: usize,
    /// Heap bytes.
    pub data_bytes: u64,
    /// Index bytes.
    pub index_bytes: u64,
}

/// Measure a loaded database's sizes.
pub fn sizes(loaded: &LoadedDb) -> ordb::Result<SizeRow> {
    Ok(SizeRow {
        tables: loaded.db.table_count(),
        data_bytes: loaded.db.data_size_bytes()?,
        index_bytes: loaded.db.index_size_bytes()?,
    })
}

/// Format bytes as MB with two decimals.
pub fn mb(bytes: u64) -> String {
    format!("{:.2}", bytes as f64 / (1024.0 * 1024.0))
}

/// A scratch directory under the target dir (kept out of the source tree).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"));
    base.join("experiments").join(tag)
}

/// Both workload SQL dialects for a query set, as the advisor input.
pub fn workload_sql(queries: &[xorator::queries::QueryPair]) -> Vec<&'static str> {
    queries.iter().flat_map(|q| [q.hybrid, q.xorator]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use datagen::ShakespeareConfig;

    #[test]
    fn setup_and_time_smallest_corpus() {
        let docs = datagen::generate_shakespeare(&ShakespeareConfig {
            plays: 2,
            acts: 2,
            scenes_per_act: 2,
            speeches_per_scene: 6,
            ..Default::default()
        });
        let queries = shakespeare_queries();
        let sql = workload_sql(&queries);
        let dtd = xmlkit::dtd::parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap();
        let simple = simplify(&dtd);

        let h =
            setup(&scratch_dir("libtest-h"), map_hybrid(&simple), &docs, FormatPolicy::Auto, &sql)
                .unwrap();
        let x =
            setup(&scratch_dir("libtest-x"), map_xorator(&simple), &docs, FormatPolicy::Auto, &sql)
                .unwrap();

        assert_eq!(h.db.table_count(), 17);
        assert_eq!(x.db.table_count(), 7);
        assert!(x.load.tuples < h.load.tuples);

        // QS2 must select something in both dialects.
        let q = &queries[1];
        let th = time_query_opts(&h.db, q.hybrid, 3, true).unwrap();
        let tx = time_query_opts(&x.db, q.xorator, 3, true).unwrap();
        assert!(th.rows > 0, "QS2 must select something (hybrid)");
        assert!(tx.rows > 0, "QS2 must select something (xorator)");

        // The instrumented extra run profiles both plans: root row counts
        // agree with the timed runs, and the cold run touched the pool.
        for t in [&th, &tx] {
            let m = t.metrics.as_ref().expect("metrics requested");
            assert_eq!(m.rows, t.rows as u64);
            let root = m.root.as_ref().expect("profiled plan");
            assert_eq!(root.rows_out, t.rows as u64);
            assert!(m.pool.fetches() > 0, "cold instrumented run fetches pages");
            // The timed cold runs read what the instrumented one did, and
            // the modelled clock charges every miss.
            assert_eq!((t.io.misses, t.io.seq_misses), (m.pool.misses, m.pool.seq_misses));
            assert!(t.io.misses > 0 && t.modelled > t.mean, "{t:?}");
        }
        // The plain path carries no profile.
        assert!(time_query(&h.db, q.hybrid, 3).unwrap().metrics.is_none());
    }

    #[test]
    fn replicate_scales() {
        let base = vec!["a".to_string(), "b".to_string()];
        assert_eq!(replicate(&base, 3).len(), 6);
    }

    #[test]
    fn mb_formatting() {
        assert_eq!(mb(1024 * 1024), "1.00");
        assert_eq!(mb(1536 * 1024), "1.50");
    }
}
