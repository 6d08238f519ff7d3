//! One caller's view of a [`Database`]: the only place per-caller state
//! lives.
//!
//! A [`Session`] holds the caller's plan forcing (`SET force_*`) and its
//! open explicit transaction, if a `BEGIN` ran. Every caller runs SQL the
//! same way through one: the wire server keeps one per connection,
//! `xorshell` one per process, and the differential harnesses one per
//! logical writer. Everything a caller asks is a statement: `SET` and
//! `BEGIN` go through [`Session::execute`], `EXPLAIN [ANALYZE]` through
//! [`Session::query`], which returns the plan as rows.
//! [`Database::query`], [`Database::explain_analyze`] and
//! [`Database::execute`] are autocommit wrappers over a fresh session.
//!
//! Dropping a session rolls back its open transaction, so a caller that
//! goes away mid-transaction (a dropped connection, a panicking harness)
//! can neither leak uncommitted versions nor pin the vacuum watermark.

use crate::catalog::ColumnDef;
use crate::db::{AnalyzeReport, Database, QueryResult};
use crate::error::{DbError, Result};
use crate::plan::{ForcedAccess, ForcedJoin, PlanForcing};
use crate::sql::ast::{AstExpr, Statement};
use crate::sql::parser::parse_statement;
use crate::txn::{Snapshot, TxnId};
use crate::types::{Row, Value};

/// Per-caller state over a borrowed [`Database`]: plan forcing and the
/// open explicit transaction. See the module docs.
pub struct Session<'db> {
    db: &'db Database,
    /// `None` means cost-based planning.
    forcing: Option<PlanForcing>,
    /// The open explicit transaction, if a `BEGIN` ran.
    txn: Option<TxnId>,
}

impl Database {
    /// A fresh session: cost-based planning, no open transaction.
    pub fn session(&self) -> Session<'_> {
        Session { db: self, forcing: None, txn: None }
    }
}

impl<'db> Session<'db> {
    /// This session, planning every statement under `forcing` — how the
    /// differential harnesses pin one query to each plan shape.
    pub fn with_forcing(mut self, forcing: PlanForcing) -> Session<'db> {
        self.forcing = Some(forcing);
        self
    }

    /// The forcing `SET force_*` or [`Session::with_forcing`] installed;
    /// `None` means cost-based planning.
    pub fn forcing(&self) -> Option<PlanForcing> {
        self.forcing
    }

    /// Whether a `BEGIN` is open on this session.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// What this session's statements read: the snapshot captured at
    /// `BEGIN` inside a transaction, everything committed so far outside.
    pub(crate) fn snapshot(&self) -> Result<Snapshot> {
        self.db.snapshot_of(self.txn)
    }

    /// Run a SELECT, EXPLAIN a SELECT or a DELETE, or `EXPLAIN ANALYZE`
    /// a SELECT, through this session's snapshot and forcing. Both
    /// EXPLAIN forms return one `plan` column, one line per row.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        Ok(self.db.run_query(sql, self.forcing, self.snapshot()?, false)?.0)
    }

    /// Run a SELECT with full instrumentation, through this session's
    /// snapshot and forcing: every operator is wrapped to count `next()`
    /// calls, rows, and inclusive time, and execution is bracketed with
    /// the calling thread's buffer-pool, index, sort, and UDF counters.
    /// Returns both the result and the
    /// [`QueryMetrics`](crate::metrics::QueryMetrics), whose counts are
    /// this statement's alone whatever other sessions run meanwhile.
    pub fn analyze(&self, sql: &str) -> Result<AnalyzeReport> {
        let (result, metrics) = self.db.run_query(sql, self.forcing, self.snapshot()?, true)?;
        let metrics = metrics.expect("an analyzed run returns its metrics");
        Ok(AnalyzeReport { result, metrics })
    }

    /// Run one statement; returns the affected-row count. `BEGIN` opens
    /// the session's transaction and `COMMIT`/`ROLLBACK` close it; `SET`
    /// changes the session's forcing (`force_join` nested|hash|cost,
    /// `force_access` seq|index|cost, `force_order` declared|cost). DML
    /// joins the open transaction, or autocommits when none is open;
    /// a failed DML statement inside a transaction aborts the whole
    /// transaction (first-updater-wins conflicts never leave a
    /// half-applied statement behind). DDL and `VACUUM` run on their own.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        self.execute_stmt(parse_statement(sql)?)
    }

    pub(crate) fn execute_stmt(&mut self, stmt: Statement) -> Result<u64> {
        let db = self.db;
        let _fold = db.metrics().folding();
        match stmt {
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(DbError::Exec("transaction already open".into()));
                }
                self.txn = Some(db.begin_txn());
                Ok(0)
            }
            Statement::Commit => {
                let t = self
                    .txn
                    .take()
                    .ok_or_else(|| DbError::Exec("COMMIT with no open transaction".into()))?;
                db.commit_txn(t).map(|()| 0)
            }
            Statement::Rollback => {
                let t = self
                    .txn
                    .take()
                    .ok_or_else(|| DbError::Exec("ROLLBACK with no open transaction".into()))?;
                db.rollback_txn(t).map(|()| 0)
            }
            Statement::Insert { table, rows } => {
                self.dml(|t| db.insert_rows_in(&table, literal_rows(rows)?, t))
            }
            Statement::Delete { table, predicate } => {
                let forcing = self.forcing;
                self.dml(|t| db.delete_rows_in(&table, predicate, forcing, t))
            }
            Statement::CreateTable { name, columns } => {
                let cols = columns.into_iter().map(|(n, t)| ColumnDef::new(n, t)).collect();
                db.create_table(&name, cols).map(|()| 0)
            }
            Statement::CreateIndex { name, table, columns } => {
                db.create_index(&name, &table, columns).map(|()| 0)
            }
            Statement::Drop { index: true, name } => db.drop_index(&name).map(|()| 0),
            Statement::Drop { index: false, name } => db.drop_table(&name).map(|()| 0),
            Statement::Vacuum => Ok(db.vacuum()?.vacuumed_versions),
            Statement::Set { key, value } => self.set(&key, &value).map(|()| 0),
            Statement::Select(_) | Statement::Explain { .. } => {
                Err(DbError::Plan("SELECT and EXPLAIN return rows; use query()".into()))
            }
        }
    }

    /// Run one DML statement in the open transaction, or as its own
    /// autocommit transaction. An error inside an explicit transaction
    /// rolls the whole transaction back and clears the slot; the original
    /// error (e.g. [`DbError::TxnConflict`]) is returned unchanged so wire
    /// clients see a stable error code.
    fn dml(&mut self, f: impl FnOnce(TxnId) -> Result<u64>) -> Result<u64> {
        let Some(t) = self.txn else { return self.db.autocommit(f) };
        f(t).inspect_err(|_| {
            self.txn = None;
            let _ = self.db.rollback_txn(t);
        })
    }

    /// Apply one `SET key [=] value`. Supported keys:
    ///
    /// * `force_join` — `nested` | `hash` | `cost`
    /// * `force_access` — `seq` | `index` | `cost`
    /// * `force_order` — `declared` | `cost`
    ///
    /// `cost` restores the cost-based default for that knob. Unknown
    /// keys or values fail with [`DbError::Exec`] and leave the session
    /// unchanged.
    fn set(&mut self, key: &str, value: &str) -> Result<()> {
        let mut forcing = self.forcing.unwrap_or_default();
        let val_lc = value.to_ascii_lowercase();
        match key.to_ascii_lowercase().as_str() {
            "force_join" => {
                forcing.join = match val_lc.as_str() {
                    "nested" => Some(ForcedJoin::NestedLoop),
                    "hash" => Some(ForcedJoin::Hash),
                    "cost" => None,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_join value {other:?} (want nested|hash|cost)"
                        )))
                    }
                }
            }
            "force_access" => {
                forcing.access = match val_lc.as_str() {
                    "seq" => Some(ForcedAccess::SeqScan),
                    "index" => Some(ForcedAccess::IndexScan),
                    "cost" => None,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_access value {other:?} (want seq|index|cost)"
                        )))
                    }
                }
            }
            "force_order" => {
                forcing.declared_order = match val_lc.as_str() {
                    "declared" => true,
                    "cost" => false,
                    other => {
                        return Err(DbError::Exec(format!(
                            "bad force_order value {other:?} (want declared|cost)"
                        )))
                    }
                }
            }
            other => return Err(DbError::Exec(format!("unknown session option {other:?}"))),
        }
        self.forcing = Some(forcing);
        Ok(())
    }
}

impl Drop for Session<'_> {
    /// Roll back the open transaction, if any. Errors are swallowed —
    /// `Drop` cannot report them; `ROLLBACK` through
    /// [`Session::execute`] does.
    fn drop(&mut self) {
        if let Some(t) = self.txn.take() {
            let _fold = self.db.metrics().folding();
            let _ = self.db.rollback_txn(t);
        }
    }
}

/// Convert parsed `INSERT … VALUES` literal rows into [`Value`] rows.
fn literal_rows(rows: Vec<Vec<AstExpr>>) -> Result<Vec<Row>> {
    let mut values = Vec::with_capacity(rows.len());
    for row in rows {
        let mut out = Vec::with_capacity(row.len());
        for e in row {
            out.push(match e {
                AstExpr::Str(s) => Value::Str(s),
                AstExpr::Num(n) => Value::Int(n),
                AstExpr::Null => Value::Null,
                other => {
                    return Err(DbError::Exec(format!(
                        "INSERT values must be literals, got {other:?}"
                    )))
                }
            });
        }
        values.push(out);
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db(tag: &str) -> Database {
        let dir = std::env::temp_dir().join(format!("ordb-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Database::open(&dir).unwrap()
    }

    #[test]
    fn session_set_maps_onto_forcing() {
        let db = db("set");
        let mut s = db.session();
        assert_eq!(s.forcing(), None);
        s.set("force_join", "hash").unwrap();
        assert_eq!(s.forcing().unwrap().join, Some(ForcedJoin::Hash));
        s.set("FORCE_ACCESS", "SEQ").unwrap();
        let f = s.forcing().unwrap();
        assert_eq!(f.join, Some(ForcedJoin::Hash), "knobs compose");
        assert_eq!(f.access, Some(ForcedAccess::SeqScan));
        s.set("force_order", "declared").unwrap();
        assert!(s.forcing().unwrap().declared_order);
        s.set("force_join", "cost").unwrap();
        assert_eq!(s.forcing().unwrap().join, None);
        // Bad key/value: error, state unchanged.
        let before = s.forcing();
        assert!(s.set("force_join", "quantum").is_err());
        // Hash join is the one equi-join that builds a table.
        let err = s.set("force_join", "merge").unwrap_err();
        assert!(err.to_string().contains("nested|hash|cost"), "{err}");
        // The engine has one executor, so there is no executor to pick.
        let err = s.set("FORCE_EXECUTOR", "batch").unwrap_err();
        assert!(err.to_string().contains("unknown session option"), "{err}");
        assert!(s.set("fsync", "off").is_err());
        assert_eq!(s.forcing(), before);
        // The statement form runs the same code, with or without `=`.
        assert_eq!(s.execute("SET force_access = index").unwrap(), 0);
        assert_eq!(s.forcing().unwrap().access, Some(ForcedAccess::IndexScan));
        assert!(s.execute("SET force_access quantum").is_err());
        assert_eq!(s.forcing().unwrap().access, Some(ForcedAccess::IndexScan));
    }

    #[test]
    fn failed_dml_inside_a_transaction_aborts_it() {
        let db = db("dmlabort");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        // A non-literal value, a value of the wrong type, and an unknown
        // table: each fails at a different stage of the statement, and
        // each must take the whole transaction down with it.
        for bad in
            ["INSERT INTO t VALUES (1+1)", "INSERT INTO t VALUES ('x')", "DELETE FROM nosuchtable"]
        {
            let mut s = db.session();
            s.execute("BEGIN").unwrap();
            assert_eq!(s.execute("INSERT INTO t VALUES (7)").unwrap(), 1);
            assert!(s.execute(bad).is_err(), "{bad}");
            assert!(!s.in_transaction(), "{bad} left the transaction open");
            let count = db.query("SELECT COUNT(*) FROM t").unwrap();
            assert_eq!(count.scalar(), Some(&Value::Int(0)), "{bad} kept the earlier insert");
        }
    }

    #[test]
    fn analyze_runs_under_the_sessions_forcing_and_transaction() {
        let db = db("analyze");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..200).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.runstats("t").unwrap();
        let sql = "SELECT a FROM t WHERE a = 7";
        let leaf = |s: &Session<'_>| {
            let mut n = s.analyze(sql).unwrap().metrics.root.expect("profiled");
            while let Some(c) = n.children.pop() {
                n = c;
            }
            n.label
        };
        assert!(leaf(&db.session()).starts_with("IndexScan"), "cost-based plan probes");
        let forced = ForcedAccess::SeqScan;
        let seq =
            db.session().with_forcing(PlanForcing { access: Some(forced), ..Default::default() });
        assert!(leaf(&seq).starts_with("SeqScan"), "forcing reaches the profiled plan");

        // The SQL forms take the same path: `SET` forces, `EXPLAIN
        // ANALYZE` answers with the profiled plan as rows.
        let explain_analyze = |s: &Session<'_>| {
            let r = s.query(&format!("EXPLAIN ANALYZE {sql}")).unwrap();
            assert_eq!(r.columns, ["plan"]);
            r.rows.iter().map(|row| row[0].to_string() + "\n").collect::<String>()
        };
        let mut s = db.session();
        assert!(explain_analyze(&s).contains("IndexScan"), "{}", explain_analyze(&s));
        s.execute("SET force_access seq").unwrap();
        let rendered = explain_analyze(&s);
        assert!(rendered.contains("SeqScan") && rendered.contains("phases:"), "{rendered}");

        s.execute("BEGIN").unwrap();
        s.execute("INSERT INTO t VALUES (7)").unwrap();
        assert_eq!(s.analyze(sql).unwrap().metrics.rows, 2, "sees its own insert");
        assert!(explain_analyze(&s).contains("[rows=2 "), "{}", explain_analyze(&s));
        assert_eq!(db.explain_analyze(sql).unwrap().metrics.rows, 1, "others do not");
        assert!(explain_analyze(&db.session()).contains("[rows=1 "));
    }

    #[test]
    fn refuses_explain_analyze_of_anything_but_a_select_before_running_it() {
        let db = db("analyzedml");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        for sql in ["EXPLAIN ANALYZE DELETE FROM t WHERE a = 1", "EXPLAIN ANALYZE VACUUM"] {
            assert!(matches!(db.query(sql), Err(DbError::Plan(_))), "{sql}");
            assert!(db.execute(sql).is_err(), "{sql}");
        }
        assert_eq!(db.row_count("t").unwrap(), 2, "the DELETE never ran");
    }

    #[test]
    fn execute_refuses_transaction_control_outside_a_session() {
        let db = db("txncontrol");
        for sql in ["BEGIN", "COMMIT", "ROLLBACK", "SET force_join hash"] {
            let err = db.execute(sql).unwrap_err();
            assert!(err.to_string().contains("Database::session"), "{sql}: {err}");
        }
    }
}
