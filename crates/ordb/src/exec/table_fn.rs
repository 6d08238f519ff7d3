//! Lateral table functions — the paper's `unnest` table UDF (§3.5).
//!
//! `FROM speakers, TABLE(unnest(speaker, 'speaker')) u` is executed as a
//! lateral cross-apply: for each row of the child, the function arguments
//! are evaluated *against that row*, the function produces a table, and
//! the child row is concatenated with each produced row.

use crate::error::{DbError, Result};
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::types::{Row, Value};

/// Lateral `TABLE(unnest(xadt_expr, tag_expr))`: emits
/// `child_row ++ [fragment]` for each unnested element, and after the
/// fragment the child row's ordinal when `numbered`.
pub struct UnnestScan {
    child: BoxOp,
    /// Evaluates to the XADT input.
    input: Expr,
    /// Evaluates to the tag name.
    tag: Expr,
    /// Whether to append the ordinal of the child row: the plan above
    /// memoizes on it the calls that read the child row alone (see
    /// [`Expr::Memo`]), so they run once per child row.
    numbered: bool,
    current: Option<Row>,
    /// Child rows pulled so far.
    ordinal: i64,
    pending: std::vec::IntoIter<Value>,
}

impl UnnestScan {
    /// Build the operator.
    pub fn new(child: BoxOp, input: Expr, tag: Expr, numbered: bool) -> UnnestScan {
        UnnestScan {
            child,
            input,
            tag,
            numbered,
            current: None,
            ordinal: 0,
            pending: Vec::new().into_iter(),
        }
    }
}

impl Operator for UnnestScan {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(frag) = self.pending.next() {
                let outer = self.current.as_ref().expect("outer row set");
                let mut row = Vec::with_capacity(outer.len() + 1 + usize::from(self.numbered));
                row.extend_from_slice(outer);
                row.push(frag);
                if self.numbered {
                    row.push(Value::Int(self.ordinal));
                }
                return Ok(Some(row));
            }
            let Some(outer) = self.child.next()? else {
                return Ok(None);
            };
            let input = self.input.eval(&outer)?;
            let tag = self.tag.eval(&outer)?;
            let frags: Vec<Value> = match (&input, &tag) {
                (Value::Null, _) => Vec::new(),
                (Value::Xadt(x), Value::Str(t)) => {
                    crate::metrics::count(|c| {
                        c.engine.unnest_calls += 1;
                        c.engine.unnest_bytes += x.storage_len() as u64;
                    });
                    xadt::unnest(x, t)?.into_iter().map(Value::Xadt).collect()
                }
                other => {
                    return Err(DbError::Exec(format!(
                        "unnest expects (XADT, VARCHAR), got {other:?}"
                    )))
                }
            };
            self.current = Some(outer);
            self.ordinal += 1;
            self.pending = frags.into_iter();
        }
    }

    fn name(&self) -> &'static str {
        "UnnestScan"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use xadt::XadtValue;

    #[test]
    fn figure_9_unnest() {
        // Table `speakers` with a single XADT column.
        let rows = vec![
            vec![Value::Xadt(XadtValue::plain("<speaker>s1</speaker><speaker>s2</speaker>"))],
            vec![Value::Xadt(XadtValue::plain("<speaker>s1</speaker>"))],
        ];
        let op =
            UnnestScan::new(Box::new(Values::new(rows)), Expr::col(0), Expr::lit("speaker"), false);
        let out = collect(Box::new(op)).unwrap();
        // 3 unnested rows, each child ++ fragment.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].len(), 2);
        let frags: Vec<String> =
            out.iter().map(|r| r[1].as_xadt().unwrap().to_plain().into_owned()).collect();
        assert_eq!(
            frags,
            ["<speaker>s1</speaker>", "<speaker>s2</speaker>", "<speaker>s1</speaker>"]
        );
        // DISTINCT over the fragment column gives 2 speakers (Fig. 9b).
        let mut unique = frags;
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), 2);
    }

    #[test]
    fn empty_fragment_produces_no_rows() {
        let rows = vec![vec![Value::Xadt(XadtValue::plain(""))]];
        let op =
            UnnestScan::new(Box::new(Values::new(rows)), Expr::col(0), Expr::lit("speaker"), false);
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn null_input_produces_no_rows() {
        let rows = vec![vec![Value::Null]];
        let op = UnnestScan::new(Box::new(Values::new(rows)), Expr::col(0), Expr::lit("x"), false);
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn lateral_argument_computed_per_row() {
        // The unnest argument is an expression over the outer row: here a
        // getElm call that narrows the fragment first.
        let reg = crate::functions::FunctionRegistry::with_builtins();
        let get_elm = reg.get("getElm").unwrap();
        let rows = vec![vec![Value::Xadt(XadtValue::plain(
            "<aTuple><title>Join paper</title><author>X</author><author>Y</author></aTuple><aTuple><title>Other</title><author>Z</author></aTuple>",
        ))]];
        let narrowed = Expr::Func {
            def: get_elm,
            args: vec![Expr::col(0), Expr::lit("aTuple"), Expr::lit("title"), Expr::lit("Join")],
        };
        let op = UnnestScan::new(Box::new(Values::new(rows)), narrowed, Expr::lit("author"), false);
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out.len(), 2); // only X and Y
    }
}
