//! Per-operator instrumentation for `EXPLAIN ANALYZE`.
//!
//! [`Instrumented`] wraps any operator and records `next()` calls, rows
//! produced, and inclusive wall time into a shared
//! [`NodeMetrics`](crate::metrics::NodeMetrics), without the wrapped
//! operator knowing. The planner inserts wrappers only when a recording
//! [`Profiler`](crate::metrics::Profiler) is passed, so the plain query
//! path pays nothing.

use std::sync::Arc;
use std::time::Instant;

use crate::error::Result;
use crate::exec::{BoxOp, Operator};
use crate::metrics::NodeMetrics;
use crate::types::Row;

/// A transparent operator wrapper that feeds [`NodeMetrics`].
///
/// Timing is *inclusive*: a parent's elapsed time contains its children's
/// (each `next()` of the parent pulls the children inside the timed
/// window). Subtract child times to approximate self-time.
pub struct Instrumented {
    inner: BoxOp,
    metrics: Arc<NodeMetrics>,
    /// Whether the first pull's timestamp has been taken (kept local so
    /// the steady-state path does one boolean test, not an atomic RMW).
    pulled: bool,
}

#[cfg(test)]
thread_local! {
    /// Wrappers built on this thread, so a test can tell which paths
    /// build them.
    static BUILT: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Instrumented {
    /// Wrap `inner`, recording into `metrics`.
    pub fn new(inner: BoxOp, metrics: Arc<NodeMetrics>) -> Instrumented {
        #[cfg(test)]
        BUILT.with(|n| n.set(n.get() + 1));
        Instrumented { inner, metrics, pulled: false }
    }
}

impl Operator for Instrumented {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.pulled {
            self.pulled = true;
            self.metrics.record_first_pull(crate::trace::now_ns());
        }
        let start = Instant::now();
        let out = self.inner.next();
        self.metrics.record(start.elapsed(), matches!(out, Ok(Some(_))));
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::types::Value;
    use std::sync::atomic::Ordering;

    #[test]
    fn counts_match_rows() {
        let metrics = Arc::new(NodeMetrics::default());
        let rows = vec![vec![Value::Int(1)], vec![Value::Int(2)], vec![Value::Int(3)]];
        let op = Instrumented::new(Box::new(Values::new(rows)), metrics.clone());
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(metrics.rows_out.load(Ordering::Relaxed), 3);
        assert_eq!(metrics.next_calls.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn only_analyze_wraps_operators() {
        let dir = std::env::temp_dir().join(format!("ordb-instrument-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = crate::Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        let sql = "SELECT a FROM t WHERE a = 2";
        let built = || BUILT.with(|n| n.get());
        let before = built();
        db.query(sql).unwrap();
        let mut s = db.session();
        s.execute("BEGIN").unwrap();
        s.query(sql).unwrap();
        s.query(&format!("EXPLAIN {sql}")).unwrap();
        assert_eq!(built(), before, "plain queries build no wrapper");
        s.analyze(sql).unwrap();
        assert!(built() > before, "EXPLAIN ANALYZE wraps every operator");
    }
}
