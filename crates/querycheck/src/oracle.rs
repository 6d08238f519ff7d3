//! A naive in-memory relational oracle for `SELECT` queries.
//!
//! Tuple-at-a-time, no indexes, no spill: FROM items are expanded into a
//! full cross product (laterals applied row by row), the whole WHERE
//! clause is evaluated against each concatenated row, and aggregation /
//! DISTINCT / ORDER BY are computed over plain vectors. Scalar expression
//! semantics are *shared* with the engine via
//! [`ordb::plan::compile_expr`], so NULL propagation, overflow checks,
//! LIKE matching and the XADT UDFs cannot silently diverge; everything
//! relational is reimplemented here independently.
//!
//! ## Semantics contract (mirrors `ordb::exec`, see DESIGN.md §11)
//!
//! * A row passes WHERE iff the predicate evaluates to a non-NULL true
//!   value ([`ordb::types::Value::is_true`]); NULL drops the row.
//! * Sorting: NULLs order first for ascending *and* descending keys
//!   (`exec::sort::cmp_keys`); the sort is stable, so ties keep the
//!   oracle's enumeration order — plan-dependent tie order is handled by
//!   the runner's tied-key window comparison, not here.
//! * Aggregates: `COUNT(expr)` counts non-NULLs, `COUNT(*)` counts rows,
//!   `COUNT(DISTINCT e)` ignores NULLs, `SUM` is `checked_add` (errors
//!   with "SUM overflow") and NULL on empty/all-NULL input, `MIN`/`MAX`
//!   ignore NULLs. A global aggregate over empty input produces one row;
//!   a grouped aggregate produces zero rows.
//! * `DISTINCT` deduplicates the projected row, keeping the first
//!   occurrence, and sits *above* ORDER BY.
//! * `unnest(NULL, tag)` produces no rows; non-XADT input is an error.
//! * LIMIT is applied last (the generator never emits it — truncation
//!   order is plan-dependent).

use std::cmp::Ordering;
use std::collections::{HashMap, HashSet};

use ordb::expr::Expr;
use ordb::functions::FunctionRegistry;
use ordb::plan::compile_expr;
use ordb::sql::ast::{AstExpr, FromItem, Select, SelectItem};
use ordb::{DbError, Result, Row, Value};
use xorator::prelude::Mapping;

/// The oracle's answer for one query.
#[derive(Debug, Clone)]
pub struct OracleOutput {
    /// Result rows (projection applied).
    pub rows: Vec<Row>,
    /// For ORDER BY queries: the sort-key tuple of each row, aligned with
    /// `rows` and in the same (sorted) order. `None` for unordered
    /// queries, where the runner compares plain multisets.
    pub keys: Option<Vec<Row>>,
}

/// Compare key tuples with NULLs first regardless of direction — the
/// same contract as `ordb::exec::sort::cmp_keys`.
pub fn cmp_key_tuples(a: &[Value], b: &[Value], descending: &[bool]) -> Ordering {
    for (i, (ka, kb)) in a.iter().zip(b).enumerate() {
        let ord = match (ka.is_null(), kb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => Ordering::Less,
            (false, true) => Ordering::Greater,
            (false, false) => {
                let ord = ka.cmp(kb);
                if descending[i] {
                    ord.reverse()
                } else {
                    ord
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Evaluate `q` against ground-truth `tables` (aligned with
/// `mapping.tables`).
pub fn evaluate(
    q: &Select,
    mapping: &Mapping,
    tables: &[Vec<Row>],
    reg: &FunctionRegistry,
) -> Result<OracleOutput> {
    // ---- FROM: cross product with lateral table functions ------------
    let mut bindings: Vec<(String, String)> = Vec::new();
    let mut rows: Vec<Row> = vec![Vec::new()];
    for item in &q.from {
        match item {
            FromItem::Table { name, alias } => {
                let ti = mapping
                    .tables
                    .iter()
                    .position(|t| t.name.eq_ignore_ascii_case(name))
                    .ok_or_else(|| DbError::Plan(format!("unknown table {name:?}")))?;
                let alias = alias.clone().unwrap_or_else(|| name.clone());
                let mut next = Vec::with_capacity(rows.len() * tables[ti].len());
                for r in &rows {
                    for tr in &tables[ti] {
                        let mut nr = r.clone();
                        nr.extend(tr.iter().cloned());
                        next.push(nr);
                    }
                }
                rows = next;
                for c in &mapping.tables[ti].columns {
                    bindings.push((alias.clone(), c.name.clone()));
                }
            }
            FromItem::TableFunction { func, args, alias } => {
                if !func.eq_ignore_ascii_case("unnest") || args.len() != 2 {
                    return Err(DbError::Plan(format!("unsupported table function {func:?}")));
                }
                let input = compile_expr(&args[0], &bindings, reg)?;
                let tag = compile_expr(&args[1], &bindings, reg)?;
                let mut next = Vec::new();
                for r in &rows {
                    let iv = input.eval(r)?;
                    let tv = tag.eval(r)?;
                    match (&iv, &tv) {
                        (Value::Null, _) => {}
                        (Value::Xadt(x), Value::Str(t)) => {
                            let frags =
                                xadt::unnest(x, t).map_err(|e| DbError::Exec(e.to_string()))?;
                            for frag in frags {
                                let mut nr = r.clone();
                                nr.push(Value::Xadt(frag));
                                next.push(nr);
                            }
                        }
                        other => {
                            return Err(DbError::Exec(format!(
                                "unnest expects (XADT, VARCHAR), got {other:?}"
                            )))
                        }
                    }
                }
                rows = next;
                bindings.push((alias.clone(), "out".into()));
            }
        }
    }

    // ---- WHERE: whole-clause evaluation per row ----------------------
    if let Some(w) = &q.where_clause {
        let pred = compile_expr(w, &bindings, reg)?;
        let mut kept = Vec::new();
        for r in rows {
            if pred.eval(&r)?.is_true() {
                kept.push(r);
            }
        }
        rows = kept;
    }

    let has_agg = q.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.has_aggregate(),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
    }) || !q.group_by.is_empty();

    let (mut out, mut keys) =
        if has_agg { aggregate(q, &bindings, rows, reg)? } else { plain(q, &bindings, rows, reg)? };

    // ---- DISTINCT: first occurrence wins, above ORDER BY -------------
    if q.distinct {
        let mut seen: HashSet<Row> = HashSet::new();
        let mut drows = Vec::new();
        let mut dkeys = keys.as_ref().map(|_| Vec::new());
        for (i, r) in out.iter().enumerate() {
            if seen.insert(r.clone()) {
                drows.push(r.clone());
                if let (Some(dk), Some(k)) = (dkeys.as_mut(), keys.as_ref()) {
                    dk.push(k[i].clone());
                }
            }
        }
        out = drows;
        keys = dkeys;
    }

    if let Some(n) = q.limit {
        out.truncate(n as usize);
        if let Some(k) = keys.as_mut() {
            k.truncate(n as usize);
        }
    }

    Ok(OracleOutput { rows: out, keys })
}

/// Plain (non-aggregate) projection with optional ORDER BY.
#[allow(clippy::type_complexity)]
fn plain(
    q: &Select,
    bindings: &[(String, String)],
    mut rows: Vec<Row>,
    reg: &FunctionRegistry,
) -> Result<(Vec<Row>, Option<Vec<Row>>)> {
    let mut out_exprs: Vec<Expr> = Vec::new();
    for item in &q.items {
        match item {
            SelectItem::Wildcard => out_exprs.extend((0..bindings.len()).map(Expr::col)),
            SelectItem::QualifiedWildcard(alias) => {
                let of_alias = |i: &usize| bindings[*i].0.eq_ignore_ascii_case(alias);
                out_exprs.extend((0..bindings.len()).filter(of_alias).map(Expr::col));
            }
            SelectItem::Expr { expr, .. } => out_exprs.push(compile_expr(expr, bindings, reg)?),
        }
    }

    let mut keys: Option<Vec<Row>> = None;
    if !q.order_by.is_empty() {
        let desc: Vec<bool> = q.order_by.iter().map(|(_, asc)| !asc).collect();
        let mut key_exprs = Vec::new();
        for (e, _) in &q.order_by {
            key_exprs.push(compile_expr(e, bindings, reg)?);
        }
        let mut keyed: Vec<(Row, Row)> = Vec::with_capacity(rows.len());
        for r in rows {
            let mut k = Vec::with_capacity(key_exprs.len());
            for e in &key_exprs {
                k.push(e.eval(&r)?);
            }
            keyed.push((k, r));
        }
        keyed.sort_by(|(a, _), (b, _)| cmp_key_tuples(a, b, &desc));
        rows = keyed.iter().map(|(_, r)| r.clone()).collect();
        keys = Some(keyed.into_iter().map(|(k, _)| k).collect());
    }

    let mut projected = Vec::with_capacity(rows.len());
    for r in &rows {
        let mut pr = Vec::with_capacity(out_exprs.len());
        for e in &out_exprs {
            pr.push(e.eval(r)?);
        }
        projected.push(pr);
    }
    Ok((projected, keys))
}

/// Naive aggregate state — a faithful copy of `exec::agg::AggState`.
enum NaiveAgg {
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum(Option<i64>),
    Min(Option<Value>),
    Max(Option<Value>),
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum NaiveAggFunc {
    Count,
    CountDistinct,
    Sum,
    Min,
    Max,
}

impl NaiveAgg {
    fn new(f: NaiveAggFunc) -> NaiveAgg {
        match f {
            NaiveAggFunc::Count => NaiveAgg::Count(0),
            NaiveAggFunc::CountDistinct => NaiveAgg::CountDistinct(HashSet::new()),
            NaiveAggFunc::Sum => NaiveAgg::Sum(None),
            NaiveAggFunc::Min => NaiveAgg::Min(None),
            NaiveAggFunc::Max => NaiveAgg::Max(None),
        }
    }

    fn update(&mut self, v: Option<Value>) -> Result<()> {
        match self {
            NaiveAgg::Count(n) => match v {
                None => *n += 1,
                Some(val) if !val.is_null() => *n += 1,
                Some(_) => {}
            },
            NaiveAgg::CountDistinct(set) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        set.insert(val);
                    }
                }
            }
            NaiveAgg::Sum(acc) => {
                if let Some(Value::Int(i)) = v {
                    let sum = acc
                        .unwrap_or(0)
                        .checked_add(i)
                        .ok_or_else(|| DbError::Exec("SUM overflow".into()))?;
                    *acc = Some(sum);
                } else if let Some(Value::Null) = v {
                    // NULLs ignored
                } else if let Some(other) = v {
                    return Err(DbError::Exec(format!("SUM over non-integer {other:?}")));
                }
            }
            NaiveAgg::Min(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val < *a) {
                        *acc = Some(val);
                    }
                }
            }
            NaiveAgg::Max(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val > *a) {
                        *acc = Some(val);
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            NaiveAgg::Count(n) => Value::Int(n),
            NaiveAgg::CountDistinct(set) => Value::Int(set.len() as i64),
            NaiveAgg::Sum(acc) => acc.map_or(Value::Null, Value::Int),
            NaiveAgg::Min(acc) | NaiveAgg::Max(acc) => acc.unwrap_or(Value::Null),
        }
    }
}

/// Register `e` in the deduplicated aggregate list, mirroring the
/// planner's `find_or_add_agg` (including its error messages).
fn find_or_add_agg(
    e: &AstExpr,
    aggs: &mut Vec<(NaiveAggFunc, Option<Expr>)>,
    agg_asts: &mut Vec<AstExpr>,
    bindings: &[(String, String)],
    reg: &FunctionRegistry,
) -> Result<usize> {
    if let Some(i) = agg_asts.iter().position(|a| a == e) {
        return Ok(i);
    }
    let AstExpr::Agg { func, arg, distinct } = e else {
        return Err(DbError::Plan("expected aggregate".into()));
    };
    let af = match (func.as_str(), distinct) {
        ("count", false) => NaiveAggFunc::Count,
        ("count", true) => NaiveAggFunc::CountDistinct,
        ("sum", false) => NaiveAggFunc::Sum,
        ("min", false) => NaiveAggFunc::Min,
        ("max", false) => NaiveAggFunc::Max,
        (f, true) => return Err(DbError::Plan(format!("DISTINCT not supported inside {f}"))),
        (f, _) => return Err(DbError::Plan(format!("unknown aggregate {f:?}"))),
    };
    let compiled = match arg {
        Some(a) => Some(compile_expr(a, bindings, reg)?),
        None => None,
    };
    aggs.push((af, compiled));
    agg_asts.push(e.clone());
    Ok(aggs.len() - 1)
}

/// Grouped / global aggregation with optional ORDER BY over group keys or
/// aggregate values, mirroring the planner's aggregate pipeline
/// (HashAggregate → Sort → Project).
#[allow(clippy::type_complexity)]
fn aggregate(
    q: &Select,
    bindings: &[(String, String)],
    rows: Vec<Row>,
    reg: &FunctionRegistry,
) -> Result<(Vec<Row>, Option<Vec<Row>>)> {
    let mut group_exprs = Vec::new();
    for g in &q.group_by {
        group_exprs.push(compile_expr(g, bindings, reg)?);
    }

    let mut aggs: Vec<(NaiveAggFunc, Option<Expr>)> = Vec::new();
    let mut agg_asts: Vec<AstExpr> = Vec::new();
    // Select items map to internal columns `group values ++ agg values`.
    let mut out_cols: Vec<usize> = Vec::new();
    for item in &q.items {
        let SelectItem::Expr { expr, .. } = item else {
            return Err(DbError::Plan("* not allowed with aggregates".into()));
        };
        match expr {
            AstExpr::Agg { .. } => {
                let idx = find_or_add_agg(expr, &mut aggs, &mut agg_asts, bindings, reg)?;
                // Placeholder; fixed up below once `aggs` is final.
                out_cols.push(usize::MAX - idx);
            }
            other => {
                let gidx = q.group_by.iter().position(|g| g == other).ok_or_else(|| {
                    DbError::Plan(format!(
                        "select item {other:?} is neither aggregated nor grouped"
                    ))
                })?;
                out_cols.push(gidx);
            }
        }
    }
    // ORDER BY keys in the aggregate context (may add aggregates).
    let mut order_cols: Vec<(usize, bool)> = Vec::new();
    for (e, asc) in &q.order_by {
        let col = match e {
            AstExpr::Agg { .. } => {
                let idx = find_or_add_agg(e, &mut aggs, &mut agg_asts, bindings, reg)?;
                usize::MAX - idx
            }
            other => q.group_by.iter().position(|g| g == other).ok_or_else(|| {
                DbError::Plan("ORDER BY must use grouped or aggregated values".into())
            })?,
        };
        order_cols.push((col, *asc));
    }
    // Resolve the placeholder encoding now that `aggs.len()` is final.
    let fix = |c: usize| {
        if c > usize::MAX / 2 {
            group_exprs.len() + (usize::MAX - c)
        } else {
            c
        }
    };
    let out_cols: Vec<usize> = out_cols.into_iter().map(fix).collect();
    let order_cols: Vec<(usize, bool)> = order_cols.into_iter().map(|(c, a)| (fix(c), a)).collect();

    // ---- hash aggregation -------------------------------------------
    let mut groups: HashMap<Vec<Value>, Vec<NaiveAgg>> = HashMap::new();
    if group_exprs.is_empty() {
        // Global aggregate: one group even on empty input.
        groups.insert(Vec::new(), aggs.iter().map(|(f, _)| NaiveAgg::new(*f)).collect());
    }
    for r in &rows {
        let mut key = Vec::with_capacity(group_exprs.len());
        for e in &group_exprs {
            key.push(e.eval(r)?);
        }
        let states = groups
            .entry(key)
            .or_insert_with(|| aggs.iter().map(|(f, _)| NaiveAgg::new(*f)).collect());
        for (si, (_, arg)) in aggs.iter().enumerate() {
            let v = match arg {
                Some(e) => Some(e.eval(r)?),
                None => None,
            };
            states[si].update(v)?;
        }
    }

    let mut internal: Vec<Row> = Vec::with_capacity(groups.len());
    for (key, states) in groups {
        let mut row = key;
        for s in states {
            row.push(s.finish());
        }
        internal.push(row);
    }

    // ---- optional sort over internal columns ------------------------
    let mut keys: Option<Vec<Row>> = None;
    if !order_cols.is_empty() {
        let desc: Vec<bool> = order_cols.iter().map(|(_, asc)| !asc).collect();
        let key_of = |r: &Row| -> Row { order_cols.iter().map(|(c, _)| r[*c].clone()).collect() };
        internal.sort_by(|a, b| cmp_key_tuples(&key_of(a), &key_of(b), &desc));
        keys = Some(internal.iter().map(&key_of).collect());
    }

    let projected: Vec<Row> =
        internal.iter().map(|r| out_cols.iter().map(|c| r[*c].clone()).collect()).collect();
    Ok((projected, keys))
}
