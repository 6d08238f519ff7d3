//! The Volcano-style executor.
//!
//! Every physical operator implements [`Operator::next`], pulling rows
//! from its children. Plans are trees of boxed operators produced by the
//! planner ([`crate::plan`]).

mod agg;
mod filter;
mod instrument;
mod join;
mod scan;
mod sort;
mod table_fn;

pub use agg::{AggCall, AggFunc, Distinct, HashAggregate};
pub use filter::{Filter, Limit, Project, Values};
pub use instrument::Instrumented;
pub use join::{HashJoin, IndexNestedLoopJoin, JoinEmit, MergeJoin, NestedLoopJoin};
pub use scan::{trailing_rid, IndexScan, SeqScan};
pub use sort::{Sort, SortKey};
pub use table_fn::UnnestScan;

use crate::error::Result;
use crate::storage::spill::{SpillFile, SpillReader};
use crate::types::Row;

/// A physical operator.
pub trait Operator {
    /// Pull the next row, `None` when exhausted.
    fn next(&mut self) -> Result<Option<Row>>;

    /// Human-readable operator name for EXPLAIN output.
    fn name(&self) -> &'static str;
}

/// Boxed operator, the edge type of plan trees.
pub type BoxOp = Box<dyn Operator>;

/// Drain an operator into a vector (for tests and materializing steps).
pub fn collect(mut op: BoxOp) -> Result<Vec<Row>> {
    let mut out = Vec::new();
    while let Some(row) = op.next()? {
        out.push(row);
    }
    Ok(out)
}

/// Replays a sealed spill file as an operator — the row source spilled
/// operators use when they re-process their own partitions. Owns the
/// file, so the temp data lives exactly as long as the sub-plan reading
/// it.
pub(crate) struct SpillScan {
    file: SpillFile,
    reader: Option<SpillReader>,
}

impl SpillScan {
    pub(crate) fn new(file: SpillFile) -> SpillScan {
        SpillScan { file, reader: None }
    }
}

impl Operator for SpillScan {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.reader.is_none() {
            self.reader = Some(self.file.open()?);
        }
        self.reader.as_mut().expect("opened above").next()
    }

    fn name(&self) -> &'static str {
        "SpillScan"
    }
}
