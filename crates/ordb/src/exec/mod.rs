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
pub use join::{HashJoin, IndexNestedLoopJoin, JoinEmit, NestedLoopJoin};
pub use scan::{trailing_rid, IndexScan, SeqScan};
pub use sort::{Sort, SortKey};
pub use table_fn::UnnestScan;

use crate::error::Result;
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
