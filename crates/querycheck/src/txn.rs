//! Transaction-aware differential checking: snapshot isolation and
//! commit-order serializability against an in-memory oracle.
//!
//! Two logical writers interleave randomly over one shared table with a
//! deliberately small, conflicting key space. Because the interleaving
//! is driven single-threaded from one seeded RNG, the commit order *is*
//! the linearization — the oracle applies each transaction's effects
//! exactly at its commit point and nothing else. After every step the
//! engine must agree with the oracle three ways:
//!
//! 1. **Committed state** — an autocommit read (under both the seq-scan
//!    and index-scan forcings) returns exactly the oracle's committed
//!    rows: no uncommitted version, no lost committed row.
//! 2. **Snapshot reads** — each open transaction sees its begin-time
//!    snapshot plus its own writes, byte-identical to the
//!    single-threaded expectation, regardless of what the other writer
//!    committed meanwhile.
//! 3. **Conflict policy** — first-updater-wins: a delete landing on a
//!    version already claimed (by the other open transaction *or* by a
//!    transaction that committed after this one began) must fail with
//!    [`ordb::DbError::TxnConflict`] and abort the whole transaction.
//!
//! A disagreement aborts the run with a description carrying the seed,
//! step, and the exact operation — replayable because everything
//! derives from the seed.

use std::collections::{BTreeMap, BTreeSet};

use ordb::{Database, DbError, ForcedAccess, PlanForcing, Session, Value};
use rand::{rngs::SmallRng, Rng, SeedableRng};

/// Who currently holds the delete claim (`xmax`) on a committed row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// Live: no one has stamped `xmax`.
    None,
    /// Claimed by the open transaction of writer `w` — still committed-
    /// visible to everyone except that writer.
    Active(usize),
    /// Deleted by a committed transaction: invisible to snapshots taken
    /// after that commit, and any later claim attempt must conflict.
    Committed,
}

/// Oracle state for one committed row.
#[derive(Debug, Clone, Copy)]
struct OracleRow {
    val: i64,
    claim: Claim,
}

/// One writer's open transaction, mirrored oracle-side.
struct OpenTxn<'db> {
    /// The writer's session, inside its `BEGIN`.
    session: Session<'db>,
    /// Committed-live ids visible at `BEGIN` (the snapshot).
    snapshot: BTreeSet<i64>,
    /// Own uncommitted inserts, in insertion order.
    inserts: Vec<(i64, i64)>,
    /// Own inserts deleted again within the same transaction.
    deleted_own: BTreeSet<i64>,
    /// Committed rows this transaction has claimed (deleted).
    claimed: BTreeSet<i64>,
}

/// Counters from one [`run`], for the CLI summary line.
#[derive(Debug, Default, Clone, Copy)]
pub struct TxnReport {
    /// Interleaving steps executed.
    pub steps: usize,
    /// Transactions begun across both writers.
    pub begins: usize,
    /// Durable commits.
    pub commits: usize,
    /// Explicit rollbacks.
    pub rollbacks: usize,
    /// First-updater-wins conflicts observed (each aborts a txn).
    pub conflicts: usize,
    /// State comparisons performed (committed × forcings + snapshots).
    pub reads_checked: usize,
}

/// Run `steps` interleaved operations from `seed` and differentially
/// check every intermediate state. `Err` carries a replayable
/// description of the first disagreement.
pub fn run(seed: u64, steps: usize) -> Result<TxnReport, String> {
    let dir = std::env::temp_dir().join(format!("querycheck-txn-{}-s{seed}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Database::open(&dir).map_err(|e| format!("open scratch db: {e}"))?;
    db.execute("CREATE TABLE acct (id INTEGER, val INTEGER)")
        .map_err(|e| format!("create table: {e}"))?;
    db.execute("CREATE INDEX acct_id ON acct (id)").map_err(|e| format!("create index: {e}"))?;

    let mut rng = SmallRng::seed_from_u64(seed ^ 0xA5A5_5A5A_D00D_FEED);
    let mut rows: BTreeMap<i64, OracleRow> = BTreeMap::new();
    let mut open: [Option<OpenTxn>; 2] = [None, None];
    let mut next_id: i64 = 1;
    let mut report = TxnReport::default();

    let result = (|| {
        for step in 0..steps {
            report.steps = step + 1;
            let w = rng.gen_range(0..2usize);
            let ctx = |op: &str| format!("seed={seed} step={step} writer={w} op={op}");

            if open[w].is_none() {
                let mut session = db.session();
                session.execute("BEGIN").map_err(|e| format!("{}: {e}", ctx("BEGIN")))?;
                let snapshot = rows
                    .iter()
                    .filter(|(_, r)| r.claim != Claim::Committed)
                    .map(|(id, _)| *id)
                    .collect();
                open[w] = Some(OpenTxn {
                    session,
                    snapshot,
                    inserts: Vec::new(),
                    deleted_own: BTreeSet::new(),
                    claimed: BTreeSet::new(),
                });
                report.begins += 1;
            } else {
                match rng.gen_range(0..10u32) {
                    // Insert a fresh id: never conflicts, always 1 row.
                    0..=4 => {
                        let (id, val) = (next_id, rng.gen_range(0..1_000));
                        next_id += 1;
                        let sql = format!("INSERT INTO acct VALUES ({id}, {val})");
                        let n = open[w]
                            .as_mut()
                            .unwrap()
                            .session
                            .execute(&sql)
                            .map_err(|e| format!("{}: {e}", ctx(&sql)))?;
                        if n != 1 {
                            return Err(format!("{}: affected {n}, want 1", ctx(&sql)));
                        }
                        open[w].as_mut().unwrap().inserts.push((id, val));
                    }
                    // Delete a row the writer can see — the conflict axis.
                    5..=7 => {
                        let t = open[w].as_mut().unwrap();
                        let mut targets: Vec<i64> = t
                            .snapshot
                            .iter()
                            .copied()
                            .filter(|id| !t.claimed.contains(id))
                            .chain(
                                t.inserts
                                    .iter()
                                    .map(|(id, _)| *id)
                                    .filter(|id| !t.deleted_own.contains(id)),
                            )
                            .collect();
                        targets.sort_unstable();
                        if targets.is_empty() {
                            continue;
                        }
                        let target = targets[rng.gen_range(0..targets.len())];
                        let sql = format!("DELETE FROM acct WHERE id = {target}");
                        let own_insert = t.inserts.iter().any(|(id, _)| *id == target);
                        let expect_conflict = !own_insert
                            && rows.get(&target).is_some_and(|r| {
                                matches!(r.claim, Claim::Committed)
                                    || matches!(r.claim, Claim::Active(o) if o != w)
                            });
                        let got = t.session.execute(&sql);
                        match (expect_conflict, got) {
                            (true, Err(DbError::TxnConflict(_))) => {
                                // Whole-txn abort: the engine already rolled
                                // back and cleared the slot; mirror it.
                                if t.session.in_transaction() {
                                    return Err(format!(
                                        "{}: conflict left the txn slot open",
                                        ctx(&sql)
                                    ));
                                }
                                let t = open[w].take().unwrap();
                                for id in &t.claimed {
                                    rows.get_mut(id).unwrap().claim = Claim::None;
                                }
                                report.conflicts += 1;
                            }
                            (true, Err(e)) => {
                                return Err(format!("{}: want TxnConflict, got {e}", ctx(&sql)))
                            }
                            (true, Ok(n)) => {
                                return Err(format!("{}: want TxnConflict, got Ok({n})", ctx(&sql)))
                            }
                            (false, Ok(1)) => {
                                let t = open[w].as_mut().unwrap();
                                if own_insert {
                                    t.deleted_own.insert(target);
                                } else {
                                    rows.get_mut(&target).unwrap().claim = Claim::Active(w);
                                    t.claimed.insert(target);
                                }
                            }
                            (false, Ok(n)) => {
                                return Err(format!("{}: affected {n}, want 1", ctx(&sql)))
                            }
                            (false, Err(e)) => {
                                return Err(format!("{}: unexpected error {e}", ctx(&sql)))
                            }
                        }
                    }
                    8 => {
                        let mut t = open[w].take().unwrap();
                        t.session
                            .execute("COMMIT")
                            .map_err(|e| format!("{}: {e}", ctx("COMMIT")))?;
                        for id in &t.claimed {
                            rows.get_mut(id).unwrap().claim = Claim::Committed;
                        }
                        for (id, val) in &t.inserts {
                            if !t.deleted_own.contains(id) {
                                rows.insert(*id, OracleRow { val: *val, claim: Claim::None });
                            }
                        }
                        report.commits += 1;
                    }
                    _ => {
                        let mut t = open[w].take().unwrap();
                        t.session
                            .execute("ROLLBACK")
                            .map_err(|e| format!("{}: {e}", ctx("ROLLBACK")))?;
                        for id in &t.claimed {
                            rows.get_mut(id).unwrap().claim = Claim::None;
                        }
                        report.rollbacks += 1;
                    }
                }
            }

            check_states(&db, &rows, &open, seed, step, &mut report)?;
        }
        Ok(())
    })();

    // Dropping the sessions rolls back what is still open; then scrub
    // the scratch directory.
    drop(open);
    let _ = db.close();
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|()| report)
}

/// Compare engine state with the oracle: committed rows under both
/// access-path forcings, plus each open transaction's snapshot view.
fn check_states(
    db: &Database,
    rows: &BTreeMap<i64, OracleRow>,
    open: &[Option<OpenTxn>; 2],
    seed: u64,
    step: usize,
    report: &mut TxnReport,
) -> Result<(), String> {
    let committed: Vec<(i64, i64)> = rows
        .iter()
        .filter(|(_, r)| r.claim != Claim::Committed)
        .map(|(id, r)| (*id, r.val))
        .collect();
    for access in [ForcedAccess::SeqScan, ForcedAccess::IndexScan] {
        let forcing = PlanForcing { access: Some(access), ..PlanForcing::default() };
        let got = read_pairs(&db.session().with_forcing(forcing))
            .map_err(|e| format!("seed={seed} step={step} committed read ({access:?}): {e}"))?;
        report.reads_checked += 1;
        if got != committed {
            return Err(format!(
                "seed={seed} step={step} committed state diverged under {access:?}: \
                 engine {got:?} vs oracle {committed:?}"
            ));
        }
    }
    for (w, t) in open.iter().enumerate() {
        let Some(t) = t else { continue };
        // Snapshot semantics: begin-time rows minus own deletes, plus
        // own live inserts — other writers' later commits invisible.
        let mut want: Vec<(i64, i64)> = t
            .snapshot
            .iter()
            .filter(|id| !t.claimed.contains(id))
            .map(|id| (*id, rows[id].val))
            .chain(t.inserts.iter().filter(|(id, _)| !t.deleted_own.contains(id)).copied())
            .collect();
        want.sort_unstable();
        let got = read_pairs(&t.session)
            .map_err(|e| format!("seed={seed} step={step} writer={w} snapshot read: {e}"))?;
        report.reads_checked += 1;
        if got != want {
            return Err(format!(
                "seed={seed} step={step} writer={w} snapshot diverged: \
                 engine {got:?} vs oracle {want:?}"
            ));
        }
    }
    Ok(())
}

/// `SELECT id, val FROM acct` through `session`, as sorted `(id, val)`
/// pairs.
fn read_pairs(session: &Session) -> Result<Vec<(i64, i64)>, String> {
    let result = session.query("SELECT id, val FROM acct").map_err(|e| e.to_string())?;
    let mut pairs = Vec::with_capacity(result.rows.len());
    for row in &result.rows {
        match (&row[0], &row[1]) {
            (Value::Int(id), Value::Int(val)) => pairs.push((*id, *val)),
            other => return Err(format!("non-integer row {other:?}")),
        }
    }
    pairs.sort_unstable();
    Ok(pairs)
}

#[cfg(test)]
mod tests {
    /// The mode must exercise every interesting path (conflicts,
    /// commits, rollbacks) and agree with the oracle throughout.
    #[test]
    fn txn_mode_agrees_with_oracle_and_hits_conflicts() {
        let report = super::run(1, 500).expect("txn differential run");
        assert!(report.commits > 0, "no commits exercised: {report:?}");
        assert!(report.rollbacks > 0, "no rollbacks exercised: {report:?}");
        assert!(report.conflicts > 0, "no conflicts exercised: {report:?}");
        assert!(report.reads_checked > report.steps, "reads not checked every step: {report:?}");
    }

    /// Different seeds drive different interleavings (sanity that the
    /// CI seed matrix buys coverage).
    #[test]
    fn seeds_vary_the_interleaving() {
        let a = super::run(2, 120).expect("seed 2");
        let b = super::run(3, 120).expect("seed 3");
        assert!(
            a.commits != b.commits || a.conflicts != b.conflicts || a.begins != b.begins,
            "seeds 2 and 3 produced identical schedules: {a:?} vs {b:?}"
        );
    }
}
