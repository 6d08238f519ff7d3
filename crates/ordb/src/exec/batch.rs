//! The vectorized batch executor.
//!
//! Operators exchange [`Batch`]es — up to [`BATCH_SIZE`] rows stored as
//! column vectors plus an optional *selection vector* naming the live
//! rows — instead of one [`Row`] per virtual call. A scan→filter→join
//! pipeline thus pays one dynamic dispatch per ~1024 rows, and filters
//! refine the selection vector in place without copying column data.
//!
//! The batch path covers filters, projections, and in-memory hash joins;
//! everything else (table access, sorts, spilling operators, laterals,
//! aggregation) stays on the Volcano path, and the planner bridges the
//! two worlds with [`RowsToBatch`] / [`BatchToRows`] adapters. There is
//! no batch scan: the heap has one iteration loop
//! ([`PageScan`](crate::storage::heap::PageScan)), the row
//! [`SeqScan`](crate::exec::SeqScan) already reads it a page at a time
//! and decodes only live columns, and a batch plan starts at
//! `RowsToBatch(SeqScan)`. Batch plans are byte- and order-identical
//! to their Volcano equivalents: scans emit heap order, hash joins are
//! probe-driven with per-key matches in build-arrival order, exactly
//! like [`HashJoin`](crate::exec::HashJoin).
//!
//! Like every Volcano operator, batch operators are **lazy**: all I/O is
//! deferred to the first `next_batch()` call, so `EXPLAIN` on a batch
//! plan touches zero pages.

use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::error::Result;
use crate::exec::join::{join_rows, BuildTable, JoinEmit, JoinKey};
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::metrics::NodeMetrics;
use crate::types::{Row, Value};

/// Maximum rows per batch. [`RowsToBatch`] fills a batch to this size
/// before handing it on, so a scan's interior batches are exactly this
/// size and rows regularly straddle page boundaries.
pub const BATCH_SIZE: usize = 1024;

/// A batch of rows in columnar layout.
///
/// `cols[c][r]` is column `c` of row `r`; every column vector is `rows`
/// long. `sel`, when present, lists the indices of the rows that are
/// still live (ascending, no duplicates) — filtered-out rows stay in the
/// columns but are skipped by every consumer. `sel == None` means all
/// `rows` rows are live.
pub struct Batch {
    /// Column vectors, each `rows` values long.
    pub cols: Vec<Vec<Value>>,
    /// Physical row count (the length of every column vector).
    pub rows: usize,
    /// Live-row indices, ascending; `None` ⇒ all rows live.
    pub sel: Option<Vec<u32>>,
}

impl Batch {
    /// Build a dense batch (no selection vector) from column vectors,
    /// recording it in the engine-wide batch counters.
    pub fn from_cols(cols: Vec<Vec<Value>>, rows: usize) -> Batch {
        debug_assert!(cols.iter().all(|c| c.len() == rows));
        let b = Batch { cols, rows, sel: None };
        crate::metrics::ENGINE.batches.fetch_add(1, Ordering::Relaxed);
        crate::metrics::ENGINE.batch_rows.fetch_add(rows as u64, Ordering::Relaxed);
        b
    }

    /// Build a dense batch from `arity`-wide rows.
    pub fn from_rows(rows: impl IntoIterator<Item = Row>, arity: usize) -> Batch {
        let mut cols: Vec<Vec<Value>> = (0..arity).map(|_| Vec::new()).collect();
        let mut n = 0;
        for row in rows {
            debug_assert_eq!(row.len(), arity);
            for (c, v) in row.into_iter().enumerate() {
                cols[c].push(v);
            }
            n += 1;
        }
        Batch::from_cols(cols, n)
    }

    /// Number of live rows.
    pub fn live(&self) -> usize {
        self.sel.as_ref().map_or(self.rows, Vec::len)
    }

    /// Iterate the live row indices in order.
    pub fn indices(&self) -> impl Iterator<Item = usize> + '_ {
        // Either arm boxed so both have one type; batches are coarse
        // enough that the allocation is noise.
        match &self.sel {
            Some(s) => Box::new(s.iter().map(|&i| i as usize)) as Box<dyn Iterator<Item = usize>>,
            None => Box::new(0..self.rows),
        }
    }

    /// Materialize row `r` (a physical index) as an owned [`Row`].
    pub fn row_at(&self, r: usize) -> Row {
        self.cols.iter().map(|c| c[r].clone()).collect()
    }

    /// Materialize every live row in order.
    pub fn take_rows(&self) -> Vec<Row> {
        self.indices().map(|r| self.row_at(r)).collect()
    }
}

/// A physical operator of the batch executor.
pub trait BatchOperator {
    /// Pull the next batch, `None` when exhausted. Implementations never
    /// return a batch with zero live rows.
    fn next_batch(&mut self) -> Result<Option<Batch>>;

    /// Human-readable operator name for EXPLAIN output.
    fn name(&self) -> &'static str;
}

/// Boxed batch operator, the edge type of batch plan subtrees.
pub type BoxBatchOp = Box<dyn BatchOperator>;

// ---- filter / projection -------------------------------------------------

/// Predicate evaluation as selection-vector refinement: rows failing the
/// predicate are dropped from `sel`; column data is never copied. Batches
/// whose selection empties are swallowed entirely.
pub struct BatchFilter {
    input: BoxBatchOp,
    predicate: Expr,
}

impl BatchFilter {
    /// Keep rows of `input` where `predicate` is true.
    pub fn new(input: BoxBatchOp, predicate: Expr) -> BatchFilter {
        BatchFilter { input, predicate }
    }
}

impl BatchOperator for BatchFilter {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        while let Some(mut batch) = self.input.next_batch()? {
            let mut sel = Vec::with_capacity(batch.live());
            for r in batch.indices() {
                if self.predicate.eval_at(&batch.cols, r)?.is_true() {
                    sel.push(r as u32);
                }
            }
            if sel.is_empty() {
                continue; // all-filtered batch: swallow, pull the next
            }
            batch.sel = Some(sel);
            return Ok(Some(batch));
        }
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "BatchFilter"
    }
}

/// Expression projection: evaluates each output expression at every live
/// row, producing a dense batch (selection vector folded away).
pub struct BatchProject {
    input: BoxBatchOp,
    exprs: Vec<Expr>,
}

impl BatchProject {
    /// Project `input` through `exprs`.
    pub fn new(input: BoxBatchOp, exprs: Vec<Expr>) -> BatchProject {
        BatchProject { input, exprs }
    }
}

impl BatchOperator for BatchProject {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let mut cols: Vec<Vec<Value>> =
            self.exprs.iter().map(|_| Vec::with_capacity(batch.live())).collect();
        for r in batch.indices() {
            for (c, e) in self.exprs.iter().enumerate() {
                cols[c].push(e.eval_at(&batch.cols, r)?);
            }
        }
        let rows = batch.live();
        Ok(Some(Batch::from_cols(cols, rows)))
    }

    fn name(&self) -> &'static str {
        "BatchProject"
    }
}

// ---- hash join -----------------------------------------------------------

/// In-memory hash join over batches, semantically identical to the row
/// [`HashJoin`](crate::exec::HashJoin): the build side is drained into
/// the same one-pass build table on the first `next_batch()`, then the
/// probe side streams. NULL keys never equi-join on either side; output
/// is `probe ++ build` or `build ++ probe` per `probe_is_left`, cut to
/// the listed columns after [`BatchHashJoin::emitting`]; the residual
/// predicate is evaluated on the whole joined row. Matches of one
/// probe batch are re-batched densely (chunked at [`BATCH_SIZE`]).
///
/// No Grace spill: the planner only picks this operator when no spill
/// budget is configured, falling back to the Volcano hash join otherwise.
pub struct BatchHashJoin {
    probe: BoxBatchOp,
    /// Unconsumed build child; taken and hashed on first `next_batch()`.
    build: Option<BoxBatchOp>,
    probe_keys: Vec<Expr>,
    build_keys: Vec<Expr>,
    residual: Option<Expr>,
    emit: Option<JoinEmit>,
    probe_is_left: bool,
    built: BuildTable,
    /// Joined rows awaiting emission.
    out: VecDeque<Row>,
}

impl BatchHashJoin {
    /// Join `probe` against `build` (hashed by `build_keys` on first
    /// `next_batch()`), streaming `probe` with `probe_keys`.
    pub fn new(
        probe: BoxBatchOp,
        build: BoxBatchOp,
        probe_keys: Vec<Expr>,
        build_keys: Vec<Expr>,
        residual: Option<Expr>,
        probe_is_left: bool,
    ) -> BatchHashJoin {
        BatchHashJoin {
            probe,
            build: Some(build),
            probe_keys,
            build_keys,
            residual,
            emit: None,
            probe_is_left,
            built: BuildTable::default(),
            out: VecDeque::new(),
        }
    }

    /// Emit only the listed columns of the `left ++ right` row.
    pub fn emitting(mut self, emit: JoinEmit) -> BatchHashJoin {
        self.emit = Some(emit);
        self
    }

    /// Evaluate `keys` at row `r` of `batch`; `None` when any key value
    /// is NULL (NULL never equi-joins).
    fn key_at(keys: &[Expr], batch: &Batch, r: usize) -> Result<Option<JoinKey>> {
        let mut key = Vec::with_capacity(keys.len());
        for e in keys {
            let v = e.eval_at(&batch.cols, r)?;
            if v.is_null() {
                return Ok(None);
            }
            key.push(v);
        }
        Ok(Some(JoinKey::new(key)))
    }
}

impl BatchOperator for BatchHashJoin {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if let Some(mut build) = self.build.take() {
            while let Some(batch) = build.next_batch()? {
                for r in batch.indices() {
                    if let Some(key) = Self::key_at(&self.build_keys, &batch, r)? {
                        self.built.insert(key, batch.row_at(r));
                    }
                }
            }
        }
        loop {
            if !self.out.is_empty() {
                let take = self.out.len().min(BATCH_SIZE);
                let arity = self.out[0].len();
                return Ok(Some(Batch::from_rows(self.out.drain(..take), arity)));
            }
            let Some(batch) = self.probe.next_batch()? else {
                return Ok(None);
            };
            for r in batch.indices() {
                let Some(key) = Self::key_at(&self.probe_keys, &batch, r)? else { continue };
                let mut probe_row = None;
                for build_row in self.built.rows_of(&key) {
                    let probe_row: &Row = probe_row.get_or_insert_with(|| batch.row_at(r));
                    let (left, right) = if self.probe_is_left {
                        (probe_row, build_row)
                    } else {
                        (build_row, probe_row)
                    };
                    if let Some(p) = &self.residual {
                        if !p.eval(&join_rows(left, right, None))?.is_true() {
                            continue;
                        }
                    }
                    self.out.push_back(join_rows(left, right, self.emit.as_ref()));
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "BatchHashJoin"
    }
}

// ---- adapters ------------------------------------------------------------

/// Row-executor view of a batch subtree: materializes each batch's live
/// rows and yields them one at a time. The planner caps every batch plan
/// with one of these so [`PhysicalPlan`](crate::plan::PhysicalPlan) keeps
/// a single root type.
pub struct BatchToRows {
    input: BoxBatchOp,
    pending: std::vec::IntoIter<Row>,
}

impl BatchToRows {
    /// Adapt `input` to the row protocol.
    pub fn new(input: BoxBatchOp) -> BatchToRows {
        BatchToRows { input, pending: Vec::new().into_iter() }
    }
}

impl Operator for BatchToRows {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(row) = self.pending.next() {
                return Ok(Some(row));
            }
            let Some(batch) = self.input.next_batch()? else {
                return Ok(None);
            };
            self.pending = batch.take_rows().into_iter();
        }
    }

    fn name(&self) -> &'static str {
        "BatchToRows"
    }
}

/// Batch-executor view of a Volcano subtree: pulls up to [`BATCH_SIZE`]
/// rows per batch from a row operator. Bridges non-vectorized inputs
/// (index scans, sorts, laterals) into a batch pipeline.
pub struct RowsToBatch {
    input: BoxOp,
}

impl RowsToBatch {
    /// Adapt `input` to the batch protocol.
    pub fn new(input: BoxOp) -> RowsToBatch {
        RowsToBatch { input }
    }
}

impl BatchOperator for RowsToBatch {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let mut rows: Vec<Row> = Vec::new();
        while rows.len() < BATCH_SIZE {
            let Some(row) = self.input.next()? else { break };
            rows.push(row);
        }
        if rows.is_empty() {
            return Ok(None);
        }
        let arity = rows[0].len();
        Ok(Some(Batch::from_rows(rows, arity)))
    }

    fn name(&self) -> &'static str {
        "RowsToBatch"
    }
}

// ---- instrumentation -----------------------------------------------------

/// Batch analogue of [`Instrumented`](crate::exec::Instrumented): records
/// `next_batch()` calls, *live rows* produced, and inclusive wall time
/// into a shared [`NodeMetrics`], so `EXPLAIN ANALYZE` profiles batch
/// plans with the same machinery as row plans.
pub struct InstrumentedBatch {
    inner: BoxBatchOp,
    metrics: Arc<NodeMetrics>,
    pulled: bool,
}

impl InstrumentedBatch {
    /// Wrap `inner`, recording into `metrics`.
    pub fn new(inner: BoxBatchOp, metrics: Arc<NodeMetrics>) -> InstrumentedBatch {
        InstrumentedBatch { inner, metrics, pulled: false }
    }
}

impl BatchOperator for InstrumentedBatch {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if !self.pulled {
            self.pulled = true;
            self.metrics.record_first_pull(crate::trace::now_ns());
        }
        let start = Instant::now();
        let out = self.inner.next_batch();
        let rows = match &out {
            Ok(Some(b)) => b.live() as u64,
            _ => 0,
        };
        self.metrics.next_calls.fetch_add(1, Ordering::Relaxed);
        self.metrics.elapsed_nanos.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.metrics.rows_out.fetch_add(rows, Ordering::Relaxed);
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    /// A canned batch source for unit tests.
    struct BatchValues {
        batches: std::vec::IntoIter<Batch>,
    }

    impl BatchValues {
        fn new(batches: Vec<Batch>) -> BatchValues {
            BatchValues { batches: batches.into_iter() }
        }
    }

    impl BatchOperator for BatchValues {
        fn next_batch(&mut self) -> Result<Option<Batch>> {
            Ok(self.batches.next())
        }

        fn name(&self) -> &'static str {
            "BatchValues"
        }
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn drain(mut op: BoxBatchOp) -> Vec<Row> {
        let mut out = Vec::new();
        while let Some(b) = op.next_batch().unwrap() {
            assert!(b.live() > 0, "operators must not emit empty batches");
            out.extend(b.take_rows());
        }
        out
    }

    // x > 3 over a single int column.
    fn gt3() -> Expr {
        Expr::cmp(CmpOp::Gt, Expr::col(0), Expr::Literal(Value::Int(3)))
    }

    #[test]
    fn empty_batch_is_never_emitted() {
        // A zero-row batch from the source must not escape the filter.
        let empty = Batch { cols: vec![Vec::new()], rows: 0, sel: None };
        let full = Batch::from_cols(vec![ints(&[1, 5])], 2);
        let f = BatchFilter::new(Box::new(BatchValues::new(vec![empty, full])), gt3());
        assert_eq!(drain(Box::new(f)), vec![vec![Value::Int(5)]]);
    }

    #[test]
    fn all_filtered_batch_is_swallowed() {
        // First batch filters to nothing; second survives partially.
        let b1 = Batch::from_cols(vec![ints(&[1, 2, 3])], 3);
        let b2 = Batch::from_cols(vec![ints(&[0, 4, 9])], 3);
        let f = BatchFilter::new(Box::new(BatchValues::new(vec![b1, b2])), gt3());
        assert_eq!(drain(Box::new(f)), vec![vec![Value::Int(4)], vec![Value::Int(9)]]);
    }

    #[test]
    fn filter_refines_existing_selection() {
        // sel already excludes row 0; filter must only inspect live rows.
        let b = Batch { cols: vec![ints(&[7, 1, 8])], rows: 3, sel: Some(vec![1, 2]) };
        let f = BatchFilter::new(Box::new(BatchValues::new(vec![b])), gt3());
        assert_eq!(drain(Box::new(f)), vec![vec![Value::Int(8)]]);
    }

    #[test]
    fn null_heavy_column_filters_and_projects() {
        let col = vec![Value::Null, Value::Int(4), Value::Null, Value::Int(2), Value::Null];
        let b = Batch::from_cols(vec![col], 5);
        // NULL > 3 is not true ⇒ NULL rows drop.
        let f = BatchFilter::new(Box::new(BatchValues::new(vec![b])), gt3());
        let p = BatchProject::new(Box::new(f), vec![Expr::col(0)]);
        assert_eq!(drain(Box::new(p)), vec![vec![Value::Int(4)]]);
    }

    #[test]
    fn rows_to_batch_chunks_at_batch_size() {
        use crate::exec::Values;
        let rows: Vec<Row> =
            (0..(BATCH_SIZE as i64 * 2 + 5)).map(|i| vec![Value::Int(i)]).collect();
        let mut op = RowsToBatch::new(Box::new(Values::new(rows.clone())));
        let mut sizes = Vec::new();
        let mut all = Vec::new();
        while let Some(b) = op.next_batch().unwrap() {
            sizes.push(b.live());
            all.extend(b.take_rows());
        }
        assert_eq!(sizes, vec![BATCH_SIZE, BATCH_SIZE, 5]);
        assert_eq!(all, rows);
    }

    #[test]
    fn batch_to_rows_round_trips_selection() {
        let b = Batch { cols: vec![ints(&[10, 11, 12])], rows: 3, sel: Some(vec![0, 2]) };
        let rows =
            crate::exec::collect(Box::new(BatchToRows::new(Box::new(BatchValues::new(vec![b])))))
                .unwrap();
        assert_eq!(rows, vec![vec![Value::Int(10)], vec![Value::Int(12)]]);
    }

    #[test]
    fn hash_join_matches_row_semantics() {
        // Probe side: ids 1..4 with a NULL; build side: two rows for id 2
        // (checking per-key build order) and one for id 3.
        let probe = Batch::from_cols(vec![ints(&[1, 2, 3]), ints(&[10, 20, 30])], 3);
        let probe_null =
            Batch { cols: vec![vec![Value::Null], vec![Value::Int(40)]], rows: 1, sel: None };
        let build = Batch::from_cols(vec![ints(&[2, 2, 3]), ints(&[201, 202, 301])], 3);
        let j = BatchHashJoin::new(
            Box::new(BatchValues::new(vec![probe, probe_null])),
            Box::new(BatchValues::new(vec![build])),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            true,
        );
        let rows = drain(Box::new(j));
        assert_eq!(
            rows,
            vec![ints(&[2, 20, 2, 201]), ints(&[2, 20, 2, 202]), ints(&[3, 30, 3, 301]),]
        );
    }

    #[test]
    fn hash_join_build_right_concat_order_and_residual() {
        let probe = Batch::from_cols(vec![ints(&[1, 2])], 2);
        let build = Batch::from_cols(vec![ints(&[1, 2]), ints(&[100, 200])], 2);
        // probe_is_left = false ⇒ output is build ++ probe; residual keeps
        // build payload > 100.
        let residual = Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::Literal(Value::Int(100)));
        let j = BatchHashJoin::new(
            Box::new(BatchValues::new(vec![probe])),
            Box::new(BatchValues::new(vec![build])),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            Some(residual),
            false,
        );
        assert_eq!(drain(Box::new(j)), vec![ints(&[2, 200, 2])]);
    }
}
