//! Unresolved SQL syntax trees produced by the parser.

use crate::types::DataType;

/// Any parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A query.
    Select(Select),
    /// `CREATE TABLE name (col type, …)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Columns.
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE INDEX name ON table (col, …)`.
    CreateIndex {
        /// Index name.
        name: String,
        /// Target table.
        table: String,
        /// Key columns.
        columns: Vec<String>,
    },
    /// `INSERT INTO table VALUES (…), (…)`.
    Insert {
        /// Target table.
        table: String,
        /// Literal rows.
        rows: Vec<Vec<AstExpr>>,
    },
    /// `DELETE FROM table [WHERE …]`.
    Delete {
        /// Target table.
        table: String,
        /// Optional predicate.
        predicate: Option<AstExpr>,
    },
    /// `DROP TABLE name` / `DROP INDEX name`.
    Drop {
        /// True for `DROP INDEX`.
        index: bool,
        /// Object name.
        name: String,
    },
    /// `EXPLAIN [ANALYZE] <statement>` — returns the planner's decision
    /// log, or with `ANALYZE` runs the SELECT profiled and returns its
    /// annotated plan.
    Explain {
        /// True for `EXPLAIN ANALYZE`.
        analyze: bool,
        /// The explained statement.
        stmt: Box<Statement>,
    },
    /// `SET key [=] value` — change a session option.
    Set {
        /// Option name, e.g. `force_join`.
        key: String,
        /// Option value, e.g. `hash`.
        value: String,
    },
    /// `BEGIN [TRANSACTION | WORK]` — open an explicit transaction.
    Begin,
    /// `COMMIT [TRANSACTION | WORK]` — commit the open transaction.
    Commit,
    /// `ROLLBACK [TRANSACTION | WORK]` — abort the open transaction.
    Rollback,
    /// `VACUUM` — reclaim versions invisible below the oldest snapshot.
    Vacuum,
}

/// A SELECT query.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Select {
    /// `SELECT DISTINCT`.
    pub distinct: bool,
    /// Select list.
    pub items: Vec<SelectItem>,
    /// FROM clause in declaration order.
    pub from: Vec<FromItem>,
    /// WHERE predicate.
    pub where_clause: Option<AstExpr>,
    /// GROUP BY expressions.
    pub group_by: Vec<AstExpr>,
    /// ORDER BY keys.
    pub order_by: Vec<(AstExpr, bool)>,
    /// LIMIT row count.
    pub limit: Option<u64>,
}

/// One select-list item.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `alias.*`: every column of one FROM item.
    QualifiedWildcard(String),
    /// An expression with an optional alias.
    Expr {
        /// The expression.
        expr: AstExpr,
        /// `AS alias`.
        alias: Option<String>,
    },
}

/// One FROM item.
#[derive(Debug, Clone, PartialEq)]
pub enum FromItem {
    /// A base table with an optional alias.
    Table {
        /// Table name.
        name: String,
        /// Alias (defaults to the table name).
        alias: Option<String>,
    },
    /// `TABLE(fn(args)) alias` — a lateral table function.
    TableFunction {
        /// Function name (currently only `unnest`).
        func: String,
        /// Arguments (may reference earlier FROM items).
        args: Vec<AstExpr>,
        /// Mandatory alias; its single output column is `alias.out`.
        alias: String,
    },
}

impl FromItem {
    /// The alias this item's columns are qualified with.
    pub fn alias(&self) -> &str {
        match self {
            FromItem::Table { name, alias } => alias.as_deref().unwrap_or(name),
            FromItem::TableFunction { alias, .. } => alias,
        }
    }
}

/// Unresolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `name` or `qualifier.name`.
    Column {
        /// Optional table alias qualifier.
        qualifier: Option<String>,
        /// Column name.
        name: String,
    },
    /// String literal.
    Str(String),
    /// Integer literal.
    Num(i64),
    /// `NULL`.
    Null,
    /// Binary comparison.
    Cmp {
        /// Operator.
        op: crate::expr::CmpOp,
        /// Left side.
        lhs: Box<AstExpr>,
        /// Right side.
        rhs: Box<AstExpr>,
    },
    /// `AND`.
    And(Box<AstExpr>, Box<AstExpr>),
    /// `OR`.
    Or(Box<AstExpr>, Box<AstExpr>),
    /// `NOT`.
    Not(Box<AstExpr>),
    /// `expr [NOT] LIKE 'pattern'`.
    Like {
        /// Operand.
        expr: Box<AstExpr>,
        /// Pattern literal.
        pattern: String,
        /// Negated.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<AstExpr>,
        /// Negated.
        negated: bool,
    },
    /// Scalar function call.
    Func {
        /// Function name.
        name: String,
        /// Arguments.
        args: Vec<AstExpr>,
    },
    /// Integer arithmetic.
    Arith {
        /// Operator.
        op: crate::expr::ArithOp,
        /// Left side.
        lhs: Box<AstExpr>,
        /// Right side.
        rhs: Box<AstExpr>,
    },
    /// Aggregate call: `COUNT(*)`, `COUNT([DISTINCT] e)`, `SUM(e)`, ….
    Agg {
        /// Function name (`count`, `sum`, `min`, `max`).
        func: String,
        /// `None` for `COUNT(*)`.
        arg: Option<Box<AstExpr>>,
        /// `DISTINCT` inside the call.
        distinct: bool,
    },
}

/// SQL rendering, fully parenthesized (EXPLAIN names expressions with it).
impl std::fmt::Display for AstExpr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let quoted = |s: &str| format!("'{}'", s.replace('\'', "''"));
        let not = |negated: &bool| if *negated { "NOT " } else { "" };
        match self {
            AstExpr::Column { qualifier: Some(q), name } => write!(f, "{q}.{name}"),
            AstExpr::Column { qualifier: None, name } => write!(f, "{name}"),
            AstExpr::Str(s) => f.write_str(&quoted(s)),
            AstExpr::Num(n) => write!(f, "{n}"),
            AstExpr::Null => f.write_str("NULL"),
            AstExpr::Cmp { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
            AstExpr::And(a, b) => write!(f, "({a} AND {b})"),
            AstExpr::Or(a, b) => write!(f, "({a} OR {b})"),
            AstExpr::Not(e) => write!(f, "(NOT {e})"),
            AstExpr::Like { expr, pattern, negated } => {
                write!(f, "({expr} {}LIKE {})", not(negated), quoted(pattern))
            }
            AstExpr::IsNull { expr, negated } => write!(f, "({expr} IS {}NULL)", not(negated)),
            AstExpr::Func { name, args } => {
                write!(f, "{name}(")?;
                for (i, arg) in args.iter().enumerate() {
                    write!(f, "{}{arg}", if i == 0 { "" } else { ", " })?;
                }
                f.write_str(")")
            }
            AstExpr::Arith { op, lhs, rhs } => {
                use crate::expr::ArithOp::*;
                let symbol = match op {
                    Add => '+',
                    Sub => '-',
                    Mul => '*',
                    Div => '/',
                    Mod => '%',
                };
                write!(f, "({lhs} {symbol} {rhs})")
            }
            AstExpr::Agg { func, arg: None, .. } => write!(f, "{func}(*)"),
            AstExpr::Agg { func, arg: Some(arg), distinct } => {
                write!(f, "{func}({}{arg})", if *distinct { "DISTINCT " } else { "" })
            }
        }
    }
}

impl AstExpr {
    /// Split a conjunction into its conjuncts.
    pub fn conjuncts(self) -> Vec<AstExpr> {
        match self {
            AstExpr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// True if the expression (sub)tree contains an aggregate call.
    pub fn has_aggregate(&self) -> bool {
        match self {
            AstExpr::Agg { .. } => true,
            AstExpr::Column { .. } | AstExpr::Str(_) | AstExpr::Num(_) | AstExpr::Null => false,
            AstExpr::Cmp { lhs, rhs, .. } => lhs.has_aggregate() || rhs.has_aggregate(),
            AstExpr::And(a, b) | AstExpr::Or(a, b) => a.has_aggregate() || b.has_aggregate(),
            AstExpr::Not(e) => e.has_aggregate(),
            AstExpr::Like { expr, .. } | AstExpr::IsNull { expr, .. } => expr.has_aggregate(),
            AstExpr::Func { args, .. } => args.iter().any(AstExpr::has_aggregate),
            AstExpr::Arith { lhs, rhs, .. } => lhs.has_aggregate() || rhs.has_aggregate(),
        }
    }
}
