//! Release-mode churn smoke for the vacuum + free-space subsystem:
//! sustained delete/insert rounds with a vacuum pass per round must
//! hold the heap *and the index* at their steady-state size — the MVCC
//! space leak this subsystem exists to fix would show up here as
//! monotonic growth. Ids only ascend from round to round, as a key
//! handed out by a counter does: every round's index entries land right
//! of the last round's, and the leaves vacuum empties on the left are
//! what the splits on the right must be fed from.

use ordb::{Database, DbOptions, Value};
use xorator_bench::scratch_dir;

fn fill(db: &Database, rows: i64, round: i64) {
    let batch: Vec<Vec<Value>> = (0..rows)
        .map(|i| {
            // Every 8th row overflows into a chain, so page reuse is
            // exercised for both in-page slots and whole overflow pages.
            let body = if i % 8 == 0 { "x".repeat(6000) } else { format!("body-{round}-{i:05}") };
            vec![Value::Int(round * rows + i), Value::str(&body)]
        })
        .collect();
    db.insert_rows("churn", batch).expect("fill churn");
}

#[test]
fn churn_with_vacuum_holds_steady_state_size() {
    let rounds = if cfg!(debug_assertions) { 4 } else { 12 };
    let rows: i64 = if cfg!(debug_assertions) { 512 } else { 1536 };
    let open = |tag: &str| {
        let dir = scratch_dir(tag);
        let _ = std::fs::remove_dir_all(&dir);
        // The test drives every pass explicitly and never checkpoints, so
        // the leak twin never reclaims.
        let db = Database::open(&dir).expect("open churn db");
        db.execute("CREATE TABLE churn (id INTEGER, body VARCHAR)").expect("create");
        db.execute("CREATE INDEX churn_id ON churn (id)").expect("index");
        (dir, db)
    };
    let (dir, db) = open("vacuum-churn-test");
    // The twin runs the same rounds without vacuum: the pinned size below
    // is only evidence if the leak it rules out would have shown.
    let (leak_dir, leak) = open("vacuum-churn-leak");

    let before = db.metrics_snapshot();
    // One full cycle to reach steady state, then the size must pin.
    fill(&db, rows, 0);
    fill(&leak, rows, 0);
    db.execute("DELETE FROM churn").expect("delete");
    leak.execute("DELETE FROM churn").expect("delete (leak twin)");
    db.vacuum().expect("vacuum");
    fill(&db, rows, 1);
    fill(&leak, rows, 1);
    let steady = db.data_size_bytes().expect("size");
    let mut leak_sizes = vec![leak.data_size_bytes().expect("leak size")];
    let index_steady = db.index_size_bytes().expect("index size");
    // Meta page, an internal root, two leaves: anything less never splits.
    assert!(index_steady >= 4 * 8192, "the index must be more than a root: {index_steady}");
    for round in 2..=rounds {
        db.execute("DELETE FROM churn").expect("delete");
        leak.execute("DELETE FROM churn").expect("delete (leak twin)");
        let report = db.vacuum().expect("vacuum");
        assert!(
            report.vacuumed_versions >= rows as u64,
            "round {round}: pass must reclaim the whole dead generation, got {report:?}"
        );
        fill(&db, rows, round);
        fill(&leak, rows, round);
        leak_sizes.push(leak.data_size_bytes().expect("leak size"));
        assert_eq!(
            db.data_size_bytes().expect("size"),
            steady,
            "round {round}: steady-state heap size must not drift"
        );
        assert_eq!(
            db.index_size_bytes().expect("index size"),
            index_steady,
            "round {round}: emptied leaves must feed the splits, not the file's end"
        );
    }
    assert!(
        leak_sizes.windows(2).all(|w| w[0] <= w[1]),
        "the leak twin never shrinks: {leak_sizes:?}"
    );
    assert!(
        leak_sizes[leak_sizes.len() - 1] > steady,
        "without vacuum the heap must outgrow the steady state {steady}: {leak_sizes:?}"
    );
    leak.close().expect("close leak twin");
    let _ = std::fs::remove_dir_all(&leak_dir);
    let delta = db.metrics_snapshot().since(&before);
    assert!(
        delta.engine.vacuumed_versions >= (rounds - 1) as u64 * rows as u64,
        "vacuumed_versions counter tracks the passes: {}",
        delta.engine.vacuumed_versions
    );
    assert!(delta.engine.freed_pages > 0, "emptied and chain pages return to the free list");
    assert!(delta.engine.reused_slots > 0, "inserts revive reclaimed space");

    // Survivors are intact and both access paths agree after the churn.
    assert_eq!(db.row_count("churn").expect("count"), rows as u64);
    let hit = db
        .query(&format!("SELECT body FROM churn WHERE id = {}", rounds * rows + 9))
        .expect("probe");
    assert_eq!(hit.len(), 1);
    db.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn auto_vacuum_reclaims_at_checkpoint() {
    let dir = scratch_dir("vacuum-churn-auto");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).expect("open auto db");
    db.execute("CREATE TABLE churn (id INTEGER, body VARCHAR)").expect("create");
    fill(&db, 64, 0);
    db.execute("DELETE FROM churn WHERE id < 32").expect("delete");
    db.checkpoint().expect("checkpoint runs the auto pass");
    let report = db.vacuum().expect("manual follow-up");
    assert_eq!(
        report.vacuumed_versions, 0,
        "the checkpoint's auto-vacuum already reclaimed everything: {report:?}"
    );
    assert_eq!(db.row_count("churn").expect("count"), 32);
    db.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The shape `wire_txn_churn` runs: every transaction inserts four rows
/// under a fresh, larger key and deletes the four it inserted a while
/// ago, with a `VACUUM` every 64 transactions. Live rows are constant, so
/// after the first cycles nothing may grow: the files are as large after
/// 2N transactions as after N.
#[test]
fn churn_transactions_hold_heap_and_index_files_flat() {
    const LAG: i64 = 64;
    let n: i64 = if cfg!(debug_assertions) { 256 } else { 1024 };
    let dir = scratch_dir("vacuum-churn-txn");
    let _ = std::fs::remove_dir_all(&dir);
    let opts = DbOptions { pool_frames: 1024, ..Default::default() };
    let db = Database::open_with(&dir, opts).expect("open churn db");
    db.execute("CREATE TABLE churn (k INTEGER, parent INTEGER, v VARCHAR)").expect("create");
    let prefill: Vec<Vec<Value>> = (0..2000 * 4)
        .map(|k| vec![Value::Int(k), Value::Int(k / 4), Value::str(format!("prefilled-{k:08}"))])
        .collect();
    db.insert_rows("churn", prefill).expect("prefill");
    db.execute("CREATE INDEX ix_churn_k ON churn (k)").expect("index k");
    db.execute("CREATE INDEX ix_churn_parent ON churn (parent)").expect("index parent");

    let mut session = db.session();
    let mut sizes = Vec::new();
    for txn in 0..2 * n {
        let tag = 2000 + txn;
        let rows: Vec<String> =
            (0..4).map(|j| format!("({}, {tag}, 'inserted-{:08}')", tag * 4 + j, tag)).collect();
        session.execute("BEGIN").expect("begin");
        session.execute(&format!("INSERT INTO churn VALUES {}", rows.join(", "))).expect("insert");
        let deleted = session
            .execute(&format!("DELETE FROM churn WHERE parent = {}", tag - LAG))
            .expect("delete");
        assert_eq!(deleted, 4, "transaction {txn}");
        session.execute("COMMIT").expect("commit");
        if txn % 64 == 63 {
            db.vacuum().expect("vacuum");
        }
        if txn + 1 == n || txn + 1 == 2 * n {
            sizes
                .push((db.data_size_bytes().expect("heap"), db.index_size_bytes().expect("index")));
        }
    }
    assert_eq!(
        sizes[0],
        sizes[1],
        "(heap, index) bytes after {n} and after {} transactions",
        2 * n
    );
    assert_eq!(db.row_count("churn").expect("count"), 2000 * 4);
    let by_index = db.query("SELECT COUNT(*) FROM churn WHERE k >= 0").expect("index count");
    assert_eq!(by_index.scalar(), Some(&Value::Int(2000 * 4)));
    drop(session);
    db.close().expect("close");
    let _ = std::fs::remove_dir_all(&dir);
}
