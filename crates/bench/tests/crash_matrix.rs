//! The crash matrix: randomized fault injection over a real corpus,
//! verified by query equivalence against an uncrashed twin.
//!
//! Protocol per round:
//!
//! 1. Insert one deterministic batch into both databases; the insert is
//!    durable when it returns (the WAL now holds every batch page).
//! 2. Arm the fault injector with a randomized plan (crash point, tear /
//!    bit-flip / drop, data-only or all writes) and run `checkpoint()`,
//!    which must fail mid-way — the simulated process death.
//! 3. `abandon()` the handle (no Drop-time flushing), disarm the
//!    injector, and reopen: the redo pass reconstructs the data files.
//! 4. Every probe query must return exactly the twin's rows.
//!
//! The number of crash points comes from `CRASH_POINTS` (default 50 in
//! release, a handful in debug so local `cargo test` stays fast).
//! The crash point is randomized per round from `CRASH_SEED` (the CI
//! matrix pins three seeds), so one run covers crashes in heap writes,
//! index writes, and the log rewrite that carries the checkpoint record. A
//! failure message carries the `(seed, round, plan)` triple — rerunning
//! with that seed replays the exact same crash.

use datagen::ShakespeareConfig;
use ordb::{CrashMode, Database, DbOptions, FaultInjector, FaultPlan, FaultScope, Value};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;
use xorator_bench::{scratch_dir, setup_opts, workload_sql};

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Sorted, printable form of a result set — the equivalence currency.
fn canon(db: &Database, sql: &str) -> Vec<String> {
    let result = db.query(sql).expect(sql);
    let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    rows
}

struct Corpus {
    docs: Vec<String>,
    workload: Vec<&'static str>,
}

fn corpus() -> Corpus {
    let docs = datagen::generate_shakespeare(&ShakespeareConfig {
        plays: 2,
        acts: 2,
        scenes_per_act: 2,
        speeches_per_scene: 6,
        ..Default::default()
    });
    let workload = workload_sql(&shakespeare_queries());
    Corpus { docs, workload }
}

fn load(dir: &std::path::Path, c: &Corpus, opts: DbOptions) -> Database {
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    let loaded =
        setup_opts(dir, map_xorator(&simple), &c.docs, FormatPolicy::Auto, &c.workload, opts)
            .expect("corpus load");
    loaded.db.execute("CREATE TABLE crashlog (id INTEGER, note VARCHAR)").expect("create");
    loaded.db.execute("CREATE INDEX crashlog_id ON crashlog (id)").expect("index");
    loaded.db
}

const BATCH: i64 = 64;

fn batch_rows(round: u64) -> Vec<Vec<Value>> {
    let base = 1_000_000 + round as i64 * BATCH;
    (0..BATCH)
        .map(|i| vec![Value::Int(base + i), Value::str(format!("round {round} row {i}"))])
        .collect()
}

/// Probe queries: corpus aggregates, an index path, and the incremental
/// table the rounds grow. Point lookups target the latest batch.
fn probes(round: u64) -> Vec<String> {
    let latest = 1_000_000 + round as i64 * BATCH;
    vec![
        "SELECT COUNT(*) FROM speech".to_string(),
        "SELECT COUNT(*), MIN(id), MAX(id) FROM crashlog".to_string(),
        format!("SELECT note FROM crashlog WHERE id = {}", latest + BATCH / 2),
        format!("SELECT id FROM crashlog WHERE id >= {latest}"),
    ]
}

#[test]
fn crash_matrix_recovers_to_twin_equivalence() {
    let seed = env_u64("CRASH_SEED", 1);
    // Release CI runs the full 50-point matrix per seed; debug runs keep
    // the suite quick (a debug round is ~5× slower and the checkpoint
    // window shifts, which made 10-round debug runs time out under load).
    // CRASH_POINTS overrides both; CRASH_ROUNDS is honored as the old name.
    let default_points = if cfg!(debug_assertions) { 6 } else { 50 };
    let rounds = env_u64("CRASH_POINTS", env_u64("CRASH_ROUNDS", default_points));
    let c = corpus();

    let twin_dir = scratch_dir(&format!("crash-twin-{seed}"));
    let crash_dir = scratch_dir(&format!("crash-db-{seed}"));
    let twin = load(&twin_dir, &c, DbOptions::default());
    let inj = FaultInjector::new();
    let opts = DbOptions { fault: Some(inj.clone()), ..Default::default() };
    let mut db = load(&crash_dir, &c, opts.clone());

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut crashes = 0u64;
    for round in 0..rounds {
        let rows = batch_rows(round);
        twin.insert_rows("crashlog", rows.clone()).expect("twin insert");
        db.insert_rows("crashlog", rows).expect("crash-db insert");

        // Randomize the crash: mode, scope, and how many in-scope writes
        // the checkpoint gets to finish first. A batch dirties at least a
        // heap page and an index leaf, so crash_after < 2 always lands.
        let plan = FaultPlan {
            crash_after: xorshift(&mut rng) % 2,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope: match xorshift(&mut rng) % 3 {
                0 => FaultScope::All,
                _ => FaultScope::Data,
            },
            seed: xorshift(&mut rng),
        };
        let ctx = format!("seed={seed} round={round} plan={plan:?}");
        inj.arm(plan);
        let result = db.checkpoint();
        if inj.crashed() {
            crashes += 1;
            assert!(result.is_err(), "checkpoint must report the crash [{ctx}]");
        }
        db.abandon();
        inj.disarm();

        // Reopen: the redo pass must rebuild exactly the twin's state.
        db = Database::open_with(&crash_dir, opts.clone())
            .unwrap_or_else(|e| panic!("reopen after crash failed [{ctx}]: {e}"));
        for sql in probes(round) {
            let got = canon(&db, &sql);
            let want = canon(&twin, &sql);
            assert_eq!(
                got,
                want,
                "query diverged after recovery [{ctx}] sql={sql}\n\
                 recovery={:?}",
                db.recovery_report()
            );
        }
    }
    println!("crash matrix seed={seed}: crashes={crashes}/{rounds}");
    assert!(
        crashes >= rounds * 9 / 10,
        "matrix barely crashed ({crashes}/{rounds}) — fault plans are miscalibrated"
    );

    let _ = db.close();
    let _ = twin.close();
    let _ = std::fs::remove_dir_all(&twin_dir);
    let _ = std::fs::remove_dir_all(&crash_dir);
}

/// The torn-page satellite: the *final* page of a data file left torn by
/// a crash (the file ends mid-page) must be detected at the next open
/// and rebuilt from the WAL, restoring the exact pre-crash answers.
#[test]
fn torn_final_page_is_detected_and_repaired() {
    let c = corpus();
    let dir = scratch_dir("crash-torn");
    let db = load(&dir, &c, DbOptions::default());
    db.insert_rows("crashlog", batch_rows(0)).expect("insert");
    let file_id = db.table_def("crashlog").expect("table exists").file;
    let want = canon(&db, "SELECT COUNT(*), MIN(id), MAX(id) FROM crashlog");
    db.flush().expect("flush");
    db.abandon(); // keep the WAL: no Drop-time checkpoint replaces it

    // Tear the final data write at the OS level: the file ends mid-page.
    let path = dir.join(format!("f{file_id:05}.dat"));
    let len = std::fs::metadata(&path).expect("data file exists").len();
    assert!(len > 0, "crashlog heap must have pages on disk");
    let f = std::fs::OpenOptions::new().write(true).open(&path).expect("open data file");
    f.set_len(len - 3000).expect("tear the final page");
    drop(f);

    let db = Database::open(&dir).expect("reopen repairs the tear");
    let report = db.recovery_report().expect("wal existed");
    assert!(report.replayed_pages >= 1, "torn final page must be replayed: {report:?}");
    assert_eq!(canon(&db, "SELECT COUNT(*), MIN(id), MAX(id) FROM crashlog"), want);
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery work is bounded by the last checkpoint: after a clean
/// `close()`, reopening replays nothing.
#[test]
fn clean_close_leaves_nothing_to_replay() {
    let c = corpus();
    let dir = scratch_dir("crash-clean");
    let db = load(&dir, &c, DbOptions::default());
    db.insert_rows("crashlog", batch_rows(0)).expect("insert");
    db.close().expect("close");
    let db = Database::open(&dir).expect("reopen");
    let report = db.recovery_report().expect("wal existed");
    assert_eq!(report.replayed_pages, 0, "{report:?}");
    assert_eq!(
        canon(&db, "SELECT COUNT(*) FROM crashlog"),
        vec![format!("{:?}", vec![Value::Int(BATCH)])]
    );
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}
