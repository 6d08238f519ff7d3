//! The transaction crash matrix: interleaved committed and uncommitted
//! transactions crossed with randomized crash points, verified by the
//! MVCC recovery contract.
//!
//! Protocol per round:
//!
//! 1. Commit one batch durably through the explicit-transaction path
//!    (`BEGIN; INSERT …; COMMIT` — the group-commit fsync).
//! 2. Open a second transaction that inserts an "orphan" batch and
//!    claims (deletes) one previously-committed row, then *never*
//!    commits.
//! 3. Arm the fault injector with a randomized plan and `checkpoint()`
//!    — the simulated process death lands mid-flush, with uncommitted
//!    versions potentially durable in the data files.
//! 4. Reopen. The undo pass must leave exactly the committed history:
//!    no orphan row visible, every committed row visible (including the
//!    one the orphan transaction tried to delete), and the index path
//!    agreeing with the sequential path row-for-row.
//!
//! The crash plan is randomized from `CRASH_SEED` (the CI matrix pins
//! three seeds); `CRASH_POINTS` bounds the rounds. On divergence the
//! test writes a WAL dump captured *before* the reopen consumed the log
//! to `target/txn-matrix/` and panics with the path — CI uploads the
//! directory as an artifact.

use ordb::{
    CrashMode, Database, DbOptions, FaultInjector, FaultPlan, FaultScope, ForcedAccess,
    PlanForcing, Value,
};
use xorator_bench::scratch_dir;

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

const BATCH: i64 = 16;

fn open(dir: &std::path::Path, inj: &std::sync::Arc<FaultInjector>) -> Database {
    let opts = DbOptions { fault: Some(inj.clone()), ..Default::default() };
    Database::open_with(dir, opts).expect("open txn-matrix db")
}

/// Persist `dump` for CI artifact upload and panic with context.
fn fail_with_waldump(seed: u64, round: u64, ctx: &str, dump: &str, msg: String) -> ! {
    let dir = std::path::Path::new("target/txn-matrix");
    let _ = std::fs::create_dir_all(dir);
    let path = dir.join(format!("waldump-seed{seed}-round{round}.txt"));
    let _ = std::fs::write(&path, format!("{ctx}\n\n{dump}"));
    panic!("{msg}\n[{ctx}]\nWAL dump written to {}", path.display());
}

#[test]
fn txn_matrix_crash_points_never_leak_uncommitted_versions() {
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 5 } else { 30 };
    let rounds = env_u64("CRASH_POINTS", default_points);

    let dir = scratch_dir(&format!("txn-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    let mut db = open(&dir, &inj);
    db.execute("CREATE TABLE tlog (id INTEGER, tag VARCHAR)").expect("create");
    db.execute("CREATE INDEX tlog_id ON tlog (id)").expect("index");

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut crashes = 0u64;
    for round in 0..rounds {
        // 1. A durably committed batch through the explicit txn path.
        let base = 1_000 + round as i64 * BATCH;
        let mut committer = db.session();
        committer.execute("BEGIN").expect("begin committer");
        for i in 0..BATCH {
            committer
                .execute(&format!("INSERT INTO tlog VALUES ({}, 'keep')", base + i))
                .expect("committed insert");
        }
        committer.execute("COMMIT").expect("durable commit");
        drop(committer);

        // 2. An orphan transaction: inserts plus one delete claim on a
        //    committed row of an older page, never committed. Its id slot
        //    dies with the process below.
        let claimed = 1_000 + round as i64;
        let orphan_base = 9_000_000 + round as i64 * BATCH;
        let mut orphan = db.session();
        orphan.execute("BEGIN").expect("begin orphan");
        for i in 0..BATCH {
            orphan
                .execute(&format!("INSERT INTO tlog VALUES ({}, 'orphan')", orphan_base + i))
                .expect("orphan insert");
        }
        orphan
            .execute(&format!("DELETE FROM tlog WHERE id = {claimed}"))
            .expect("orphan delete claim");

        // 3. Crash somewhere inside the checkpoint's write storm.
        let plan = FaultPlan {
            crash_after: xorshift(&mut rng) % 4,
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
        // The process dies with the orphan open: nothing rolls it back.
        std::mem::forget(orphan);
        db.abandon();
        inj.disarm();

        // Capture the log before the reopen replaces it.
        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();

        // 4. Reopen and check the MVCC recovery contract.
        db = open(&dir, &inj);
        let committed = (round as i64 + 1) * BATCH;
        let checks: [(String, i64); 3] = [
            ("SELECT COUNT(*) FROM tlog WHERE tag = 'orphan'".into(), 0),
            ("SELECT COUNT(*) FROM tlog WHERE tag = 'keep'".into(), committed),
            // The orphan's delete claim must have been cleared.
            (format!("SELECT COUNT(*) FROM tlog WHERE id = {claimed}"), 1),
        ];
        for (sql, want) in &checks {
            let got = db.query(sql).expect(sql).rows[0][0].clone();
            if got != Value::Int(*want) {
                fail_with_waldump(
                    seed,
                    round,
                    &ctx,
                    &dump,
                    format!("{sql}: got {got:?}, want Int({want})"),
                );
            }
        }
        // Index path and sequential path must agree (dangling or
        // aliased index entries after recovery would diverge here).
        let canon = |access: ForcedAccess| -> Vec<String> {
            let sql = "SELECT id FROM tlog WHERE id >= 0";
            let forcing = PlanForcing { access: Some(access), ..Default::default() };
            let mut rows: Vec<String> = db
                .session()
                .with_forcing(forcing)
                .query(sql)
                .expect(sql)
                .rows
                .iter()
                .map(|r| format!("{r:?}"))
                .collect();
            rows.sort();
            rows
        };
        let seq = canon(ForcedAccess::SeqScan);
        let via_index = canon(ForcedAccess::IndexScan);
        if seq != via_index {
            fail_with_waldump(
                seed,
                round,
                &ctx,
                &dump,
                format!(
                    "access-path divergence after recovery: {} seq rows vs {} index rows",
                    seq.len(),
                    via_index.len()
                ),
            );
        }
    }
    println!("txn matrix seed={seed}: crashes={crashes}/{rounds}");
    assert!(
        crashes >= rounds * 7 / 10,
        "matrix barely crashed ({crashes}/{rounds}) — fault plans are miscalibrated"
    );

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Rows per round of the vacuum crash matrix.
const VACUUM_BATCH: i64 = 64;

/// One round of the vacuum matrix's churn: durably insert batch `round`
/// (ids and tags only ascend; every 4th row overflows into a chain so a
/// crashing pass has chain pages in flight, not just slots), then durably
/// delete its even half and what is left of the batch two rounds back.
/// The wide `tag` index holds ~40 entries a leaf, so a batch that goes
/// away whole empties leaves: the next vacuum pass reclaims B+Tree
/// pages, not just entries.
fn vacuum_matrix_churn(db: &Database, round: i64, oracle: &mut std::collections::BTreeSet<i64>) {
    let base = round * VACUUM_BATCH;
    let mut w = db.session();
    w.execute("BEGIN").expect("begin insert");
    for id in base..base + VACUUM_BATCH {
        let body = if id % 4 == 0 { "y".repeat(6000) } else { format!("row-{id}") };
        let tag = format!("{id:08}{}", "t".repeat(160));
        w.execute(&format!("INSERT INTO vlog VALUES ({id}, '{tag}', '{body}')")).expect("insert");
        oracle.insert(id);
    }
    w.execute("COMMIT").expect("durable insert commit");
    w.execute("BEGIN").expect("begin delete");
    let old = (round - 2) * VACUUM_BATCH;
    let doomed = (base..base + VACUUM_BATCH)
        .filter(|id| id % 2 == 0)
        .chain((old..old + VACUUM_BATCH).filter(|id| *id >= 0 && id % 2 != 0));
    for id in doomed {
        w.execute(&format!("DELETE FROM vlog WHERE id = {id}")).expect("delete");
        oracle.remove(&id);
    }
    w.execute("COMMIT").expect("durable delete commit");
}

/// The vacuum crash matrix: every round commits a batch durably,
/// deletes half of it and the rest of an older one durably, then kills
/// the process inside the vacuum pass's WAL storm — the whole
/// reclamation, B+Tree leaves given back included, reaches disk in one
/// buffered write, so `crash_after: 0` with a randomized mode (drop /
/// tear / bit-flip, tear point seeded per round) replays an arbitrary
/// prefix of the pass on reopen. The recovery contract: the heap, both
/// indexes, and an oracle maintained outside the database agree exactly,
/// and a clean pass afterwards converges whatever the crash left. After
/// the matrix the same churn runs on without crashes, and the trees that
/// came through all of them must hold their files flat.
#[test]
fn vacuum_crash_matrix_recovers_heap_index_equivalence() {
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 4 } else { 12 };
    let rounds = env_u64("CRASH_POINTS", default_points) as i64;

    let dir = scratch_dir(&format!("vacuum-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    // The matrix arms the injector around explicit passes and never
    // checkpoints, whose own pass would reclaim the round's garbage before
    // the armed one gets to crash on it.
    let opts = DbOptions { fault: Some(inj.clone()), ..Default::default() };
    let mut db = Database::open_with(&dir, opts.clone()).expect("open vacuum-matrix db");
    db.execute("CREATE TABLE vlog (id INTEGER, tag VARCHAR, body VARCHAR)").expect("create");
    db.execute("CREATE INDEX vlog_id ON vlog (id)").expect("index");
    db.execute("CREATE INDEX vlog_tag ON vlog (tag)").expect("index");

    // The ids each access path finds: the heap, the id index, the tag index.
    let canon = |db: &Database, predicate: &str, access: ForcedAccess| -> Vec<i64> {
        let forcing = PlanForcing { access: Some(access), ..Default::default() };
        let mut ids: Vec<i64> = db
            .session()
            .with_forcing(forcing)
            .query(&format!("SELECT id FROM vlog WHERE {predicate}"))
            .expect("recovered query")
            .rows
            .iter()
            .map(|r| r[0].as_int().expect("id"))
            .collect();
        ids.sort_unstable();
        ids
    };
    let paths = [
        ("seq", "id >= 0", ForcedAccess::SeqScan),
        ("id index", "id >= 0", ForcedAccess::IndexScan),
        ("tag index", "tag >= '0'", ForcedAccess::IndexScan),
    ];

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut oracle: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
    let mut crashes = 0i64;
    for round in 0..rounds {
        vacuum_matrix_churn(&db, round, &mut oracle);
        let plan = FaultPlan {
            crash_after: 0,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope: FaultScope::Wal,
            seed: xorshift(&mut rng),
        };
        let ctx = format!("seed={seed} round={round} plan={plan:?}");
        inj.arm(plan);
        let result = db.vacuum();
        if inj.crashed() {
            crashes += 1;
            assert!(result.is_err(), "vacuum must report the crash [{ctx}]");
        }
        db.abandon();
        inj.disarm();

        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();
        db = Database::open_with(&dir, opts.clone()).expect("reopen after vacuum crash");

        let want: Vec<i64> = oracle.iter().copied().collect();
        for (label, predicate, access) in paths {
            let got = canon(&db, predicate, access);
            if got != want {
                fail_with_waldump(
                    seed,
                    round as u64,
                    &ctx,
                    &dump,
                    format!(
                        "{label} path diverged from oracle after mid-vacuum crash: \
                         {} rows vs {} expected",
                        got.len(),
                        want.len()
                    ),
                );
            }
        }
        // A clean pass converges the half-reclaimed state.
        db.vacuum().expect("post-recovery vacuum");
        for (label, predicate, access) in paths {
            if canon(&db, predicate, access) != want {
                let msg = format!("post-recovery vacuum lost rows on the {label} path");
                fail_with_waldump(seed, round as u64, &ctx, &dump, msg);
            }
        }
    }
    assert_eq!(crashes, rounds, "crash_after=0 must kill every armed pass");

    // No more crashes: the free lists that survived the matrix feed every
    // split from here on.
    let mut sizes = Vec::new();
    for round in rounds..rounds + 6 {
        vacuum_matrix_churn(&db, round, &mut oracle);
        db.vacuum().expect("clean vacuum");
        sizes.push(db.index_size_bytes().expect("index size"));
    }
    assert!(sizes[2..].iter().all(|s| *s == sizes[2]), "index files kept growing: {sizes:?}");
    let want: Vec<i64> = oracle.iter().copied().collect();
    for (label, predicate, access) in paths {
        assert_eq!(canon(&db, predicate, access), want, "{label} path after the clean rounds");
    }

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commit-then-crash durability: a COMMIT, and each autocommit INSERT
/// and DELETE acknowledged through `Database::execute` or a `Session`,
/// survives an immediate process death with *no* checkpoint in between,
/// and an open transaction at death vanishes.
#[test]
fn durable_commit_survives_instant_death() {
    let dir = scratch_dir("txn-matrix-durable");
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).expect("open");
    db.execute("CREATE TABLE t (id INTEGER)").expect("create");

    let mut s = db.session();
    s.execute("BEGIN").expect("begin");
    s.execute("INSERT INTO t VALUES (1), (2), (3)").expect("insert");
    s.execute("COMMIT").expect("commit");

    assert_eq!(db.execute("INSERT INTO t VALUES (10), (11)").expect("autocommit insert"), 2);
    assert_eq!(db.execute("DELETE FROM t WHERE id = 10").expect("autocommit delete"), 1);
    assert_eq!(s.execute("INSERT INTO t VALUES (20), (21)").expect("session insert"), 2);
    assert_eq!(s.execute("DELETE FROM t WHERE id = 21").expect("session delete"), 1);

    s.execute("BEGIN").expect("begin 2");
    s.execute("INSERT INTO t VALUES (99)").expect("uncommitted insert");
    // Process death: no rollback, no flush, no checkpoint.
    std::mem::forget(s);
    db.abandon();

    let db = Database::open(&dir).expect("recover");
    let mut ids = db.query("SELECT id FROM t").expect("ids").rows;
    ids.sort();
    let want: Vec<Vec<Value>> = [1, 2, 3, 11, 20].map(|id| vec![Value::Int(id)]).into();
    assert_eq!(ids, want, "every acknowledged statement survives, the open one does not");
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Commits racing a checkpoint (ROADMAP 5e). A second thread commits
/// small transactions flat out while this thread checkpoints, each
/// checkpoint starting as soon as two more transactions have come back
/// (so a heap page and an index leaf, at the least, are dirty again). A
/// third session holds a transaction open over an insert for the whole
/// round, so every commit after it stays above the checkpoint watermark
/// and is re-logged into each new log. In three rounds of four the last
/// checkpoint runs with the injector armed: in two the process dies at
/// the first or second data write of its page flush, and in one at its
/// first log write — the log rewrite itself, since the committer stops
/// first. In the fourth round it survives, and the process is abandoned
/// right after. Either way every commit the second thread saw
/// acknowledged must be there on reopen, whole, on both access paths,
/// and nothing of the held transaction: a commit that logged and was
/// acknowledged between a checkpoint's flush and its WAL truncation used
/// to lose its records, and so did a re-logged commit when the crash hit
/// the truncated log before its rewrite.
#[test]
fn commits_acknowledged_during_a_checkpoint_survive_the_crash() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    const TXN_ROWS: i64 = 4;
    /// The `txn` column of the held transaction's rows.
    const HELD: i64 = -1;
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 4 } else { 16 };
    let rounds = env_u64("CRASH_POINTS", default_points);

    let dir = scratch_dir(&format!("ckpt-commit-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    let mut db = open(&dir, &inj);
    db.execute("CREATE TABLE clog (id INTEGER, txn INTEGER)").expect("create");
    db.execute("CREATE INDEX clog_id ON clog (id)").expect("index");

    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut next_txn = 0i64;
    let mut acked: Vec<i64> = Vec::new();
    let (mut armed, mut crashes, mut rewrite_crashes) = (0u64, 0u64, 0u64);
    for round in 0..rounds {
        let checkpoints = 1 + xorshift(&mut rng) % 6;
        let survives = round % 4 == 3;
        let (scope, crash_after) = match round % 4 {
            0 => (FaultScope::Wal, 0),
            _ => (FaultScope::Data, xorshift(&mut rng) % 2),
        };
        let plan = FaultPlan {
            crash_after,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope,
            seed: xorshift(&mut rng),
        };
        let ctx = format!(
            "seed={seed} round={round} checkpoints={checkpoints} survives={survives} plan={plan:?}"
        );

        // Begun before every commit of the round: all of them are above
        // the watermark of every checkpoint the round takes.
        let mut held = db.session();
        held.execute("BEGIN").expect("begin held");
        let rows: Vec<String> =
            (0..TXN_ROWS).map(|j| format!("({}, {HELD})", 1_000_000_000 + j)).collect();
        held.execute(&format!("INSERT INTO clog VALUES {}", rows.join(", "))).expect("held insert");

        let stop = AtomicBool::new(false);
        let attempts = AtomicU64::new(0);
        let first_txn = next_txn;
        let (txn, newly) = std::thread::scope(|scope| {
            let committer = scope.spawn(|| {
                let (mut txn, mut acked) = (first_txn, Vec::new());
                while !stop.load(Ordering::SeqCst) {
                    let rows: Vec<String> =
                        (0..TXN_ROWS).map(|j| format!("({}, {txn})", txn * TXN_ROWS + j)).collect();
                    let insert = format!("INSERT INTO clog VALUES {}", rows.join(", "));
                    // A failed statement leaves nothing open: dropping the
                    // session rolls back whatever it began.
                    let mut s = db.session();
                    let committed = s.execute("BEGIN").is_ok()
                        && s.execute(&insert).is_ok()
                        && s.execute("COMMIT").is_ok();
                    if committed {
                        acked.push(txn);
                    }
                    txn += 1;
                    attempts.fetch_add(1, Ordering::SeqCst);
                }
                (txn, acked)
            });
            // Every checkpoint has pages to flush — of two transactions
            // come back since the last one returned, the second wrote all
            // of its pages after it — and the committer is mid-stride
            // when it starts.
            let mut seen = 0;
            for k in 0..checkpoints {
                while attempts.load(Ordering::SeqCst) < seen + 2 {
                    std::thread::yield_now();
                }
                let arm = k + 1 == checkpoints && !survives;
                if arm && plan.scope == FaultScope::Wal {
                    // The committer's last transaction logged every dirty
                    // page, so the checkpoint's first log write is its
                    // rewrite: the only commit records it writes are the
                    // re-logged ones.
                    stop.store(true, Ordering::SeqCst);
                    while !committer.is_finished() {
                        std::thread::yield_now();
                    }
                }
                if arm {
                    inj.arm(plan);
                    armed += 1;
                }
                let relogged = db.wal_stats().expect("wal").commit_records;
                let result = db.checkpoint();
                let relogged = db.wal_stats().expect("wal").commit_records - relogged;
                seen = attempts.load(Ordering::SeqCst);
                if inj.crashed() {
                    crashes += 1;
                    assert!(result.is_err(), "checkpoint must report the crash [{ctx}]");
                    // Only a crash inside the rewrite leaves the new log
                    // unrenamed.
                    if plan.scope == FaultScope::Wal
                        && relogged > 0
                        && dir.join("wal.log.tmp").exists()
                    {
                        rewrite_crashes += 1;
                    }
                } else {
                    result.unwrap_or_else(|e| panic!("checkpoint {k}: {e} [{ctx}]"));
                }
            }
            stop.store(true, Ordering::SeqCst);
            committer.join().expect("committer")
        });
        next_txn = txn;
        acked.extend(newly);
        // The process dies with the held transaction open.
        std::mem::forget(held);
        db.abandon();
        inj.disarm();

        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();
        db = open(&dir, &inj);
        let rows_of = |access: ForcedAccess| -> Vec<(i64, i64)> {
            let forcing = PlanForcing { access: Some(access), ..Default::default() };
            let mut rows: Vec<(i64, i64)> = db
                .session()
                .with_forcing(forcing)
                .query("SELECT id, txn FROM clog WHERE id >= 0")
                .expect("recovered query")
                .rows
                .iter()
                .map(|r| (r[0].as_int().expect("id"), r[1].as_int().expect("txn")))
                .collect();
            rows.sort_unstable();
            rows
        };
        let seq = rows_of(ForcedAccess::SeqScan);
        let via_index = rows_of(ForcedAccess::IndexScan);
        if seq != via_index {
            let only = |a: &[(i64, i64)], b: &[(i64, i64)]| -> Vec<(i64, i64)> {
                a.iter().filter(|r| !b.contains(r)).copied().collect()
            };
            fail_with_waldump(
                seed,
                round,
                &ctx,
                &dump,
                format!(
                    "heap and index disagree: only the heap has {:?}, only the index {:?}",
                    only(&seq, &via_index),
                    only(&via_index, &seq)
                ),
            );
        }
        let mut per_txn = std::collections::BTreeMap::<i64, i64>::new();
        for (_, txn) in &seq {
            *per_txn.entry(*txn).or_default() += 1;
        }
        if let Some(n) = per_txn.get(&HELD) {
            let msg = format!("{n} rows of the transaction held open at the crash survived");
            fail_with_waldump(seed, round, &ctx, &dump, msg);
        }
        if let Some((txn, n)) = per_txn.iter().find(|(_, n)| **n != TXN_ROWS) {
            fail_with_waldump(
                seed,
                round,
                &ctx,
                &dump,
                format!("transaction {txn} is there in part: {n} of {TXN_ROWS} rows"),
            );
        }
        if let Some(lost) = acked.iter().find(|t| !per_txn.contains_key(t)) {
            fail_with_waldump(
                seed,
                round,
                &ctx,
                &dump,
                format!(
                    "acknowledged transaction {lost} is gone ({} acknowledged, {} present)",
                    acked.len(),
                    per_txn.len()
                ),
            );
        }
    }
    assert_eq!(crashes, armed, "every armed checkpoint has a write to die in");
    assert!(
        rewrite_crashes > 0,
        "no crash landed in a log rewrite with commits to re-log ({crashes} crashes)"
    );

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}

/// What the DDL matrix can see of a database's catalog: its tables, and
/// each of them that an index scan reaches (every table here has at most
/// one index, `<table>_id` on `id`).
fn ddl_catalog(db: &Database) -> std::collections::BTreeSet<String> {
    let forcing = PlanForcing { access: Some(ForcedAccess::IndexScan), ..Default::default() };
    let mut names = std::collections::BTreeSet::new();
    for table in db.table_names() {
        let sql = format!("SELECT id FROM {table} WHERE id >= 0");
        let plan = db.session().with_forcing(forcing).query(&format!("EXPLAIN {sql}"));
        if plan.expect("explain").to_string().contains("IndexScan") {
            names.insert(format!("{table}_id"));
        }
        names.insert(table);
    }
    names
}

/// The DDL crash matrix: CREATE TABLE, CREATE INDEX over existing rows,
/// DROP INDEX and DROP TABLE in turn, each run with the injector armed
/// (drop / tear / bit-flip, scope all writes or the log only). The crash
/// lands either in the statement's own commit (`crash_after: 0`) or, once
/// it has returned, in the checkpoint that follows. After every reopen:
/// the catalog is the acknowledged statements, or those plus the one in
/// flight; every index finds exactly what its heap holds; every data file
/// in the directory belongs to the catalog. A statement that did not land
/// is run again unarmed, so the rounds walk through all four kinds.
#[test]
fn ddl_crash_matrix_recovers_the_acknowledged_catalog() {
    const ROWS: i64 = 40;
    let seed = env_u64("CRASH_SEED", 1);
    let default_points = if cfg!(debug_assertions) { 8 } else { 32 };
    let rounds = env_u64("CRASH_POINTS", default_points);

    let dir = scratch_dir(&format!("ddl-matrix-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    let inj = FaultInjector::new();
    let mut db = open(&dir, &inj);
    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
    let mut acked = std::collections::BTreeSet::new();
    let (mut crashes, mut landed_in_flight) = (0u64, 0u64);
    for round in 0..rounds {
        let table = format!("d{}", round / 4);
        let index = format!("{table}_id");
        let (sql, object) = match round % 4 {
            0 => (format!("CREATE TABLE {table} (id INTEGER, v VARCHAR)"), &table),
            1 => (format!("CREATE INDEX {index} ON {table} (id)"), &index),
            2 => (format!("DROP INDEX {index}"), &index),
            _ => (format!("DROP TABLE {table}"), &table),
        };
        let mut after = acked.clone();
        if !after.remove(object) {
            after.insert(object.clone());
        }
        let plan = FaultPlan {
            crash_after: xorshift(&mut rng) % 2,
            mode: match xorshift(&mut rng) % 3 {
                0 => CrashMode::Drop,
                1 => CrashMode::Tear,
                _ => CrashMode::BitFlip,
            },
            scope: if (round / 4) % 2 == 0 { FaultScope::All } else { FaultScope::Wal },
            seed: xorshift(&mut rng),
        };
        let ctx = format!("seed={seed} round={round} sql={sql:?} plan={plan:?}");
        inj.arm(plan);
        // A statement that returns is acknowledged, even if the crash
        // came after its commit (a DROP's unlink may be what dies).
        let in_flight = match db.execute(&sql) {
            Ok(_) => {
                acked = after.clone();
                if !inj.crashed() {
                    assert!(db.checkpoint().is_err(), "the checkpoint must crash [{ctx}]");
                }
                false
            }
            Err(e) => {
                assert!(inj.crashed(), "the statement failed without a crash: {e} [{ctx}]");
                true
            }
        };
        if inj.crashed() {
            crashes += 1;
        }
        db.abandon();
        inj.disarm();

        let dump = ordb::storage::wal::dump(&dir.join("wal.log")).unwrap_or_default();
        db = open(&dir, &inj);
        let found = ddl_catalog(&db);
        if found == after && in_flight {
            landed_in_flight += 1;
            acked = found.clone();
        } else if found != acked {
            let msg = format!("catalog {found:?}, acknowledged {acked:?}, in flight {after:?}");
            fail_with_waldump(seed, round, &ctx, &dump, msg);
        }
        if acked != after {
            db.execute(&sql).unwrap_or_else(|e| panic!("rerun failed: {e} [{ctx}]"));
            acked = after;
        }
        if round % 4 == 0 {
            let rows: Vec<String> = (0..ROWS).map(|i| format!("({i}, 'row {i}')")).collect();
            let mut s = db.session();
            s.execute("BEGIN").expect("begin");
            s.execute(&format!("INSERT INTO {table} VALUES {}", rows.join(", "))).expect("insert");
            s.execute("COMMIT").expect("commit");
        }

        for name in db.table_names() {
            let ids = |access: ForcedAccess| -> Vec<String> {
                let forcing = PlanForcing { access: Some(access), ..Default::default() };
                let sql = format!("SELECT id FROM {name} WHERE id >= 0");
                let result = db.session().with_forcing(forcing).query(&sql).expect("query");
                let mut ids: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
                ids.sort();
                ids
            };
            let seq = ids(ForcedAccess::SeqScan);
            if seq.len() != ROWS as usize || ids(ForcedAccess::IndexScan) != seq {
                let msg = format!("{name}: heap rows and index entries disagree");
                fail_with_waldump(seed, round, &ctx, &dump, msg);
            }
        }
        let files = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter(|e| e.as_ref().expect("entry").file_name().to_string_lossy().ends_with(".dat"))
            .count();
        // The catalog's own heap, then one file per table and per index.
        if files != 1 + acked.len() {
            let msg = format!("{files} data files for catalog {acked:?}");
            fail_with_waldump(seed, round, &ctx, &dump, msg);
        }
    }
    println!(
        "ddl matrix seed={seed}: crashes={crashes}/{rounds} in-flight landed={landed_in_flight}"
    );
    assert_eq!(crashes, rounds, "every armed round has a write to die in");

    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
}
