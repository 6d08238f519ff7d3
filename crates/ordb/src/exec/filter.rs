//! Row-at-a-time operators: filter, project, limit, and literal values.

use crate::error::Result;
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::types::{Row, Value};

/// Keep rows whose predicate evaluates to true.
pub struct Filter {
    child: BoxOp,
    predicate: Expr,
}

impl Filter {
    /// Filter `child` by `predicate`.
    pub fn new(child: BoxOp, predicate: Expr) -> Filter {
        Filter { child, predicate }
    }
}

impl Operator for Filter {
    fn next(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.child.next()? {
            if self.predicate.eval(&row)?.is_true() {
                return Ok(Some(row));
            }
        }
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "Filter"
    }
}

/// Compute output expressions from each input row.
pub struct Project {
    child: BoxOp,
    exprs: Vec<Expr>,
    /// Per expression: the input column it passes through unchanged, when
    /// no other expression reads that column — the value is then moved
    /// out of the input row, not copied.
    moves: Vec<Option<usize>>,
}

impl Project {
    /// Project `child` through `exprs`.
    pub fn new(child: BoxOp, exprs: Vec<Expr>) -> Project {
        let mut reads = Vec::new();
        exprs.iter().for_each(|e| e.columns(&mut reads));
        let read_once = |col: &usize| reads.iter().filter(|c| *c == col).count() == 1;
        let moves = exprs
            .iter()
            .map(|e| match e {
                Expr::Column(col) if read_once(col) => Some(*col),
                _ => None,
            })
            .collect();
        Project { child, exprs, moves }
    }
}

impl Operator for Project {
    fn next(&mut self) -> Result<Option<Row>> {
        let Some(mut row) = self.child.next()? else { return Ok(None) };
        let mut out = Vec::with_capacity(self.exprs.len());
        for (e, moved) in self.exprs.iter().zip(&self.moves) {
            out.push(match moved.and_then(|col| row.get_mut(col)) {
                Some(v) => std::mem::replace(v, Value::Null),
                None => e.eval(&row)?,
            });
        }
        Ok(Some(out))
    }

    fn name(&self) -> &'static str {
        "Project"
    }
}

/// Emit at most `n` rows.
pub struct Limit {
    child: BoxOp,
    remaining: u64,
}

impl Limit {
    /// Limit `child` to `n` rows.
    pub fn new(child: BoxOp, n: u64) -> Limit {
        Limit { child, remaining: n }
    }
}

impl Operator for Limit {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        match self.child.next()? {
            Some(row) => {
                self.remaining -= 1;
                Ok(Some(row))
            }
            None => {
                self.remaining = 0;
                Ok(None)
            }
        }
    }

    fn name(&self) -> &'static str {
        "Limit"
    }
}

/// A literal row source (used by INSERT … VALUES and in tests).
pub struct Values {
    rows: std::vec::IntoIter<Row>,
}

impl Values {
    /// Emit `rows` in order.
    pub fn new(rows: Vec<Row>) -> Values {
        Values { rows: rows.into_iter() }
    }
}

impl Operator for Values {
    fn next(&mut self) -> Result<Option<Row>> {
        Ok(self.rows.next())
    }

    fn name(&self) -> &'static str {
        "Values"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::collect;
    use crate::expr::CmpOp;

    fn values(n: i64) -> BoxOp {
        Box::new(Values::new(
            (0..n).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]).collect(),
        ))
    }

    #[test]
    fn filter_keeps_matching() {
        let pred = Expr::cmp(CmpOp::Ge, Expr::col(0), Expr::lit(7i64));
        let rows = collect(Box::new(Filter::new(values(10), pred))).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0][0], Value::Int(7));
    }

    #[test]
    fn project_computes() {
        let rows = collect(Box::new(Project::new(values(3), vec![Expr::col(1), Expr::lit(9i64)])))
            .unwrap();
        assert_eq!(rows[2], vec![Value::str("r2"), Value::Int(9)]);
        // A column named twice is copied both times; one named once moves.
        let twice = vec![Expr::col(1), Expr::col(0), Expr::col(1)];
        let rows = collect(Box::new(Project::new(values(2), twice))).unwrap();
        assert_eq!(rows[1], vec![Value::str("r1"), Value::Int(1), Value::str("r1")]);
    }

    #[test]
    fn limit_truncates() {
        let rows = collect(Box::new(Limit::new(values(10), 4))).unwrap();
        assert_eq!(rows.len(), 4);
        let rows = collect(Box::new(Limit::new(values(2), 4))).unwrap();
        assert_eq!(rows.len(), 2);
        let rows = collect(Box::new(Limit::new(values(2), 0))).unwrap();
        assert!(rows.is_empty());
    }
}
