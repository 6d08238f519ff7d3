//! Seeded random-but-valid SQL generation against a mapped schema.
//!
//! The generator builds an [`ordb::sql::ast::Select`] directly (the
//! oracle evaluates that AST; the engine parses the rendered text — so a
//! renderer/parser disagreement is itself a detectable differential).
//! Everything is drawn from one [`SmallRng`], making query streams a
//! deterministic function of the seed.
//!
//! ## Generation invariants (why results are comparable)
//!
//! The engine pushes WHERE conjuncts below joins and short-circuits
//! `AND`/`OR`, so conjuncts may be evaluated in a different order — or
//! not at all — compared to the oracle's whole-clause evaluation. That
//! is only observable through runtime *errors*, therefore the generator
//! never emits an expression that can error at runtime:
//!
//! * no `/` or `%` (division by zero), and arithmetic only over columns
//!   holding small non-negative integers (ids, orders — no overflow);
//! * `LIKE` and string functions only over VARCHAR columns (or `xtext`
//!   results), never integers;
//! * comparisons are type-matched (int↔int, string↔string);
//! * `SUM` only over INTEGER columns;
//! * XADT UDFs get typed arguments, with non-empty element names;
//! * no LIMIT (truncation order is plan-dependent).
//!
//! The engine decodes only the columns a statement names, so the shapes
//! where "named" is easy to get wrong are generated on purpose: a table
//! joined to itself (two aliases, two column sets, one heap), `alias.*`
//! and `*` beside tables read by the column, GROUP BY keys and ORDER BY
//! keys that are not selected, and `unnest` over a column nothing else
//! reads.

use ordb::expr::{ArithOp, CmpOp};
use ordb::sql::ast::{AstExpr, FromItem, Select, SelectItem};
use ordb::types::DataType;
use ordb::Value;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::data::SchemaInfo;

/// Cap on the oracle's cross-product size: the running estimate of
/// `∏ |table|` (laterals counted ×4) must stay below this before another
/// FROM item is added.
const PRODUCT_CAP: usize = 150_000;

/// Generate one random query against `info`.
pub fn generate(rng: &mut SmallRng, info: &SchemaInfo) -> Select {
    let mut q = Select::default();
    let mut chosen: Vec<(usize, String)> = Vec::new(); // (table idx, alias)
    let mut conjuncts: Vec<AstExpr> = Vec::new();
    let mut product = 1usize;

    // ---- base tables joined along FK edges ---------------------------
    let want = match rng.gen_range(0..100u32) {
        0..=34 => 1,
        35..=74 => 2,
        _ => 3,
    };
    let first = rng.gen_range(0..info.mapping.tables.len());
    product = product.saturating_mul(info.tables[first].len().max(1));
    chosen.push((first, "t0".into()));
    while chosen.len() < want {
        let alias = format!("t{}", chosen.len());
        // Candidate FK edges: new table is child of a chosen one, or
        // parent of a chosen one (self-joins included).
        let mut edges: Vec<(usize, AstExpr)> = Vec::new();
        for (ci, calias) in &chosen {
            for (ti, t) in info.mapping.tables.iter().enumerate() {
                // `t` as child of chosen table `ci`.
                if t.parent_tables.iter().any(|p| *p == info.mapping.tables[*ci].element) {
                    if let Some(e) = fk_edge(info, ti, &alias, *ci, calias, rng) {
                        edges.push((ti, e));
                    }
                }
                // `t` as parent of chosen table `ci`.
                if info.mapping.tables[*ci].parent_tables.contains(&t.element) {
                    if let Some(e) = fk_edge(info, *ci, calias, ti, &alias, rng) {
                        edges.push((ti, e));
                    }
                }
            }
        }
        let pick_edge = !edges.is_empty() && rng.gen_bool(0.85);
        let (ti, pred) = if rng.gen_bool(0.12) {
            // Self-join: a chosen table again under a new alias, matched
            // on one of its integer columns. Each alias has its own
            // column needs, over one stored table.
            let (ti, other) = chosen[rng.gen_range(0..chosen.len())].clone();
            let ints = info.cols_of_type(ti, DataType::Integer);
            let on = pick(rng, &ints).map(|(_, name)| {
                let (_, theirs) = pick(rng, &ints).expect("non-empty");
                cmp(CmpOp::Eq, column(&alias, name), column(&other, theirs))
            });
            (ti, on)
        } else if pick_edge {
            let (ti, e) = edges[rng.gen_range(0..edges.len())].clone();
            (ti, Some(e))
        } else {
            // Cross join — only while the product stays small.
            (rng.gen_range(0..info.mapping.tables.len()), None)
        };
        if product.saturating_mul(info.tables[ti].len().max(1)) > PRODUCT_CAP {
            break;
        }
        product = product.saturating_mul(info.tables[ti].len().max(1));
        chosen.push((ti, alias));
        if let Some(p) = pred {
            conjuncts.push(p);
        }
    }
    q.from = chosen
        .iter()
        .map(|(ti, alias)| FromItem::Table {
            name: info.mapping.tables[*ti].name.clone(),
            alias: Some(alias.clone()),
        })
        .collect();

    // ---- lateral unnest over XADT columns of chosen tables -----------
    let mut unnest_aliases: Vec<(String, usize)> = Vec::new(); // (alias, xadt_cols idx)
    let local_xadt: Vec<usize> = info
        .xadt_cols
        .iter()
        .enumerate()
        .filter(|(_, xc)| chosen.iter().any(|(ti, _)| *ti == xc.table))
        .map(|(i, _)| i)
        .collect();
    if !local_xadt.is_empty() && product.saturating_mul(4) < PRODUCT_CAP {
        let n_unnest = if rng.gen_bool(0.5) {
            0
        } else if rng.gen_bool(0.8) {
            1
        } else {
            2
        };
        for k in 0..n_unnest {
            let xi = local_xadt[rng.gen_range(0..local_xadt.len())];
            let xc = &info.xadt_cols[xi];
            let (_, alias) = chosen.iter().find(|(ti, _)| *ti == xc.table).unwrap();
            let col = column(alias, &info.mapping.tables[xc.table].columns[xc.col].name);
            // Occasionally narrow the fragment with getElm first.
            let input = if rng.gen_bool(0.2) {
                AstExpr::Func {
                    name: "getElm".into(),
                    args: vec![
                        col,
                        AstExpr::Str(xc.child.clone()),
                        AstExpr::Str(pick(rng, &xc.elements).cloned().unwrap_or_default()),
                        AstExpr::Str(maybe_word(rng, xc)),
                    ],
                }
            } else {
                col
            };
            let ualias = format!("u{k}");
            q.from.push(FromItem::TableFunction {
                func: "unnest".into(),
                args: vec![input, AstExpr::Str(xc.child.clone())],
                alias: ualias.clone(),
            });
            unnest_aliases.push((ualias, xi));
            product = product.saturating_mul(4);
        }
    }

    // ---- extra WHERE predicates --------------------------------------
    for _ in 0..rng.gen_range(0..=3u32) {
        if let Some(p) = gen_predicate(rng, info, &chosen, &unnest_aliases) {
            conjuncts.push(p);
        }
    }
    q.where_clause = conjuncts.into_iter().reduce(|a, b| AstExpr::And(Box::new(a), Box::new(b)));

    // ---- shape: aggregate or plain -----------------------------------
    if rng.gen_bool(0.35) {
        gen_aggregate_shape(rng, info, &chosen, &mut q);
    } else {
        gen_plain_shape(rng, info, &chosen, &unnest_aliases, &mut q);
    }
    q
}

/// FK equi-join edge `child.parentID = parent.id`, optionally with the
/// parentCODE discriminator.
fn fk_edge(
    info: &SchemaInfo,
    child: usize,
    child_alias: &str,
    parent: usize,
    parent_alias: &str,
    rng: &mut SmallRng,
) -> Option<AstExpr> {
    use xorator::schema::ColumnKind;
    let ct = &info.mapping.tables[child];
    let pt = &info.mapping.tables[parent];
    let pid = ct.col_of_kind(&ColumnKind::ParentId)?;
    let id = pt.col_of_kind(&ColumnKind::Id)?;
    let mut e = cmp(
        CmpOp::Eq,
        column(child_alias, &ct.columns[pid].name),
        column(parent_alias, &pt.columns[id].name),
    );
    if let Some(code) = ct.col_of_kind(&ColumnKind::ParentCode) {
        if rng.gen_bool(0.7) {
            let code_pred = cmp(
                CmpOp::Eq,
                column(child_alias, &ct.columns[code].name),
                AstExpr::Str(pt.element.clone()),
            );
            e = AstExpr::And(Box::new(e), Box::new(code_pred));
        }
    }
    Some(e)
}

/// One random WHERE conjunct (None when the schema offers nothing
/// suitable for the drawn kind).
fn gen_predicate(
    rng: &mut SmallRng,
    info: &SchemaInfo,
    chosen: &[(usize, String)],
    unnests: &[(String, usize)],
) -> Option<AstExpr> {
    let (ti, alias) = &chosen[rng.gen_range(0..chosen.len())];
    match rng.gen_range(0..8u32) {
        // int col CMP int literal
        0 | 1 => {
            let (ci, name) = pick(rng, &info.cols_of_type(*ti, DataType::Integer))?.clone();
            let lit = sample_int(rng, info, *ti, ci);
            Some(cmp(rand_cmp(rng), column(alias, &name), AstExpr::Num(lit)))
        }
        // varchar col CMP string literal
        2 => {
            let (ci, name) = pick(rng, &info.cols_of_type(*ti, DataType::Varchar))?.clone();
            let lit = sample_str(rng, info, *ti, ci)?;
            let op = *pick(rng, &[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Gt])?;
            Some(cmp(op, column(alias, &name), AstExpr::Str(lit)))
        }
        // varchar col LIKE '%word%'
        3 => {
            let (ci, name) = pick(rng, &info.cols_of_type(*ti, DataType::Varchar))?.clone();
            let word = sample_word(rng, info, *ti, ci)?;
            Some(AstExpr::Like {
                expr: Box::new(column(alias, &name)),
                pattern: format!("%{word}%"),
                negated: rng.gen_bool(0.25),
            })
        }
        // IS [NOT] NULL on any column
        4 => {
            let cols = &info.mapping.tables[*ti].columns;
            let ci = rng.gen_range(0..cols.len());
            Some(AstExpr::IsNull {
                expr: Box::new(column(alias, &cols[ci].name)),
                negated: rng.gen_bool(0.5),
            })
        }
        // (int col + k) CMP literal
        5 => {
            let (ci, name) = pick(rng, &info.cols_of_type(*ti, DataType::Integer))?.clone();
            let k = rng.gen_range(0..5i64);
            let op = *pick(rng, &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul])?;
            let lhs = AstExpr::Arith {
                op,
                lhs: Box::new(column(alias, &name)),
                rhs: Box::new(AstExpr::Num(k)),
            };
            Some(cmp(rand_cmp(rng), lhs, AstExpr::Num(sample_int(rng, info, *ti, ci))))
        }
        // col = col across tables (type-matched)
        6 => {
            let (tj, alias2) = &chosen[rng.gen_range(0..chosen.len())];
            let ty = if rng.gen_bool(0.7) { DataType::Integer } else { DataType::Varchar };
            let (_, a) = pick(rng, &info.cols_of_type(*ti, ty))?.clone();
            let (_, b) = pick(rng, &info.cols_of_type(*tj, ty))?.clone();
            Some(cmp(rand_cmp(rng), column(alias, &a), column(alias2, &b)))
        }
        // XADT method predicate on a column or an unnest output
        _ => {
            let (target, xi) = xadt_target(rng, info, chosen, unnests)?;
            let xc = &info.xadt_cols[xi];
            if rng.gen_bool(0.6) {
                // findKeyInElm(x, elem, word) = 1
                let f = AstExpr::Func {
                    name: "findKeyInElm".into(),
                    args: vec![
                        target,
                        AstExpr::Str(pick(rng, &xc.elements).cloned().unwrap_or(xc.child.clone())),
                        AstExpr::Str(maybe_word(rng, xc)),
                    ],
                };
                Some(cmp(CmpOp::Eq, f, AstExpr::Num(i64::from(rng.gen_bool(0.8)))))
            } else {
                // countElm(x, elem) CMP k
                let f = AstExpr::Func {
                    name: "countElm".into(),
                    args: vec![
                        target,
                        AstExpr::Str(pick(rng, &xc.elements).cloned().unwrap_or(xc.child.clone())),
                    ],
                };
                Some(cmp(rand_cmp(rng), f, AstExpr::Num(rng.gen_range(0..4))))
            }
        }
    }
}

/// Aggregate query shape: GROUP BY over 0–2 scalar columns, 1–2
/// aggregates, optional ORDER BY over grouped/aggregated values.
fn gen_aggregate_shape(
    rng: &mut SmallRng,
    info: &SchemaInfo,
    chosen: &[(usize, String)],
    q: &mut Select,
) {
    let mut group: Vec<AstExpr> = Vec::new();
    for _ in 0..rng.gen_range(0..=2u32) {
        let (ti, alias) = &chosen[rng.gen_range(0..chosen.len())];
        let ty = if rng.gen_bool(0.5) { DataType::Integer } else { DataType::Varchar };
        if let Some((_, name)) = pick(rng, &info.cols_of_type(*ti, ty)) {
            let e = column(alias, name);
            if !group.contains(&e) {
                group.push(e);
            }
        }
    }
    // A group key is usually selected too; one that is not is still read
    // below the aggregate.
    let mut items: Vec<SelectItem> = group
        .iter()
        .filter(|_| rng.gen_bool(0.75))
        .map(|g| SelectItem::Expr { expr: g.clone(), alias: None })
        .collect();
    let mut agg_items: Vec<AstExpr> = Vec::new();
    for _ in 0..rng.gen_range(1..=2u32) {
        let (ti, alias) = &chosen[rng.gen_range(0..chosen.len())];
        let agg = match rng.gen_range(0..5u32) {
            0 => AstExpr::Agg { func: "count".into(), arg: None, distinct: false },
            1 => {
                let cols = &info.mapping.tables[*ti].columns;
                let ci = rng.gen_range(0..cols.len());
                AstExpr::Agg {
                    func: "count".into(),
                    arg: Some(Box::new(column(alias, &cols[ci].name))),
                    distinct: rng.gen_bool(0.4),
                }
            }
            2 => match pick(rng, &info.cols_of_type(*ti, DataType::Integer)) {
                Some((_, name)) => AstExpr::Agg {
                    func: "sum".into(),
                    arg: Some(Box::new(column(alias, name))),
                    distinct: false,
                },
                None => AstExpr::Agg { func: "count".into(), arg: None, distinct: false },
            },
            _ => {
                let ty = if rng.gen_bool(0.5) { DataType::Integer } else { DataType::Varchar };
                match pick(rng, &info.cols_of_type(*ti, ty)) {
                    Some((_, name)) => AstExpr::Agg {
                        func: if rng.gen_bool(0.5) { "min" } else { "max" }.into(),
                        arg: Some(Box::new(column(alias, name))),
                        distinct: false,
                    },
                    None => AstExpr::Agg { func: "count".into(), arg: None, distinct: false },
                }
            }
        };
        agg_items.push(agg.clone());
        items.push(SelectItem::Expr { expr: agg, alias: None });
    }
    // Optional ORDER BY over grouped columns / aggregate values.
    let mut order: Vec<(AstExpr, bool)> = Vec::new();
    if rng.gen_bool(0.5) {
        let mut pool: Vec<AstExpr> = group.iter().chain(agg_items.iter()).cloned().collect();
        let n = rng.gen_range(1..=pool.len().min(2));
        for _ in 0..n {
            let e = pool.remove(rng.gen_range(0..pool.len()));
            order.push((e, rng.gen_bool(0.6)));
        }
    }
    q.group_by = group;
    q.items = items;
    q.order_by = order;
}

/// Plain projection shape: 1–4 output expressions, optional DISTINCT,
/// optional ORDER BY over arbitrary visible columns.
fn gen_plain_shape(
    rng: &mut SmallRng,
    info: &SchemaInfo,
    chosen: &[(usize, String)],
    unnests: &[(String, usize)],
    q: &mut Select,
) {
    let mut items: Vec<SelectItem> = Vec::new();
    for _ in 0..rng.gen_range(1..=4u32) {
        // `alias.*` keeps one FROM item whole beside others read by the
        // column; `*` keeps them all, in declaration order.
        items.push(match rng.gen_range(0..20u32) {
            0 => SelectItem::Wildcard,
            1 | 2 => {
                let aliases = chosen.iter().map(|(_, a)| a).chain(unnests.iter().map(|(a, _)| a));
                let aliases: Vec<&String> = aliases.collect();
                SelectItem::QualifiedWildcard(aliases[rng.gen_range(0..aliases.len())].clone())
            }
            _ => {
                SelectItem::Expr { expr: gen_output_expr(rng, info, chosen, unnests), alias: None }
            }
        });
    }
    q.items = items;
    q.distinct = rng.gen_bool(0.3);
    if rng.gen_bool(0.45) {
        let mut order = Vec::new();
        for _ in 0..rng.gen_range(1..=2u32) {
            let (ti, alias) = &chosen[rng.gen_range(0..chosen.len())];
            let cols = &info.mapping.tables[*ti].columns;
            let ci = rng.gen_range(0..cols.len());
            order.push((column(alias, &cols[ci].name), rng.gen_bool(0.6)));
        }
        q.order_by = order;
    }
}

/// One output expression for the plain shape.
fn gen_output_expr(
    rng: &mut SmallRng,
    info: &SchemaInfo,
    chosen: &[(usize, String)],
    unnests: &[(String, usize)],
) -> AstExpr {
    let (ti, alias) = &chosen[rng.gen_range(0..chosen.len())];
    match rng.gen_range(0..8u32) {
        // plain column
        0..=2 => {
            let cols = &info.mapping.tables[*ti].columns;
            let ci = rng.gen_range(0..cols.len());
            column(alias, &cols[ci].name)
        }
        // string functions over varchar
        3 => match pick(rng, &info.cols_of_type(*ti, DataType::Varchar)) {
            Some((_, name)) => {
                let f = *pick(rng, &["upper", "lower", "length"]).unwrap();
                AstExpr::Func { name: f.into(), args: vec![column(alias, name)] }
            }
            None => plain_column(rng, info, *ti, alias),
        },
        // substr(varchar, 1, k)
        4 => match pick(rng, &info.cols_of_type(*ti, DataType::Varchar)) {
            Some((_, name)) => AstExpr::Func {
                name: "substr".into(),
                args: vec![
                    column(alias, name),
                    AstExpr::Num(rng.gen_range(1..4)),
                    AstExpr::Num(rng.gen_range(1..8)),
                ],
            },
            None => plain_column(rng, info, *ti, alias),
        },
        // arithmetic over an int column
        5 => match pick(rng, &info.cols_of_type(*ti, DataType::Integer)) {
            Some((_, name)) => AstExpr::Arith {
                op: *pick(rng, &[ArithOp::Add, ArithOp::Sub, ArithOp::Mul]).unwrap(),
                lhs: Box::new(column(alias, name)),
                rhs: Box::new(AstExpr::Num(rng.gen_range(0..10))),
            },
            None => plain_column(rng, info, *ti, alias),
        },
        // XADT methods: xtext / getElm / getElmIndex / countElm
        _ => match xadt_target(rng, info, chosen, unnests) {
            Some((target, xi)) => {
                let xc = &info.xadt_cols[xi];
                match rng.gen_range(0..4u32) {
                    0 => AstExpr::Func { name: "xtext".into(), args: vec![target] },
                    1 => {
                        let mut args = vec![
                            target,
                            AstExpr::Str(xc.child.clone()),
                            AstExpr::Str(
                                pick(rng, &xc.elements).cloned().unwrap_or(xc.child.clone()),
                            ),
                            AstExpr::Str(maybe_word(rng, xc)),
                        ];
                        if rng.gen_bool(0.3) {
                            args.push(AstExpr::Num(rng.gen_range(0..3)));
                        }
                        AstExpr::Func { name: "getElm".into(), args }
                    }
                    2 => AstExpr::Func {
                        name: "getElmIndex".into(),
                        args: vec![
                            target,
                            AstExpr::Str(if rng.gen_bool(0.5) {
                                String::new()
                            } else {
                                xc.child.clone()
                            }),
                            AstExpr::Str(
                                pick(rng, &xc.elements).cloned().unwrap_or(xc.child.clone()),
                            ),
                            AstExpr::Num(rng.gen_range(1..3)),
                            AstExpr::Num(rng.gen_range(1..4)),
                        ],
                    },
                    _ => AstExpr::Func {
                        name: "countElm".into(),
                        args: vec![
                            target,
                            AstExpr::Str(
                                pick(rng, &xc.elements).cloned().unwrap_or(xc.child.clone()),
                            ),
                        ],
                    },
                }
            }
            None => plain_column(rng, info, *ti, alias),
        },
    }
}

/// A random plain column of `ti` — the fallback when a specialized
/// expression kind has nothing to work with.
fn plain_column(rng: &mut SmallRng, info: &SchemaInfo, ti: usize, alias: &str) -> AstExpr {
    let cols = &info.mapping.tables[ti].columns;
    let ci = rng.gen_range(0..cols.len());
    column(alias, &cols[ci].name)
}

/// An XADT-typed expression to feed a method: either a raw XADT column of
/// a chosen table or an `unnest` output column.
fn xadt_target(
    rng: &mut SmallRng,
    info: &SchemaInfo,
    chosen: &[(usize, String)],
    unnests: &[(String, usize)],
) -> Option<(AstExpr, usize)> {
    let mut options: Vec<(AstExpr, usize)> = Vec::new();
    for (xi, xc) in info.xadt_cols.iter().enumerate() {
        if let Some((_, alias)) = chosen.iter().find(|(ti, _)| *ti == xc.table) {
            options.push((column(alias, &info.mapping.tables[xc.table].columns[xc.col].name), xi));
        }
    }
    for (alias, xi) in unnests {
        options.push((column(alias, "out"), *xi));
    }
    if options.is_empty() {
        return None;
    }
    Some(options[rng.gen_range(0..options.len())].clone())
}

// ---- small helpers -----------------------------------------------------

fn column(alias: &str, name: &str) -> AstExpr {
    AstExpr::Column { qualifier: Some(alias.to_string()), name: name.to_string() }
}

fn cmp(op: CmpOp, lhs: AstExpr, rhs: AstExpr) -> AstExpr {
    AstExpr::Cmp { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }
}

fn rand_cmp(rng: &mut SmallRng) -> CmpOp {
    *pick(rng, &[CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge]).unwrap()
}

fn pick<'a, T>(rng: &mut SmallRng, xs: &'a [T]) -> Option<&'a T> {
    if xs.is_empty() {
        None
    } else {
        Some(&xs[rng.gen_range(0..xs.len())])
    }
}

/// A keyword for XADT search arguments; sometimes empty (= match any).
fn maybe_word(rng: &mut SmallRng, xc: &crate::data::XadtColInfo) -> String {
    if rng.gen_bool(0.4) {
        String::new()
    } else {
        pick(rng, &xc.words).cloned().unwrap_or_default()
    }
}

/// Sample an integer literal from the column's actual data (clamped to
/// non-negative so the rendered literal round-trips), falling back to a
/// small constant.
fn sample_int(rng: &mut SmallRng, info: &SchemaInfo, ti: usize, ci: usize) -> i64 {
    let rows = &info.tables[ti];
    if !rows.is_empty() && rng.gen_bool(0.7) {
        if let Value::Int(v) = rows[rng.gen_range(0..rows.len())][ci] {
            return v.max(0);
        }
    }
    rng.gen_range(0..20)
}

/// Sample a string literal from the column's actual data.
fn sample_str(rng: &mut SmallRng, info: &SchemaInfo, ti: usize, ci: usize) -> Option<String> {
    let rows = &info.tables[ti];
    for _ in 0..8 {
        if rows.is_empty() {
            break;
        }
        if let Value::Str(s) = &rows[rng.gen_range(0..rows.len())][ci] {
            return Some(s.clone());
        }
    }
    Some("none".into())
}

/// A single word out of a sampled string value, for LIKE patterns.
fn sample_word(rng: &mut SmallRng, info: &SchemaInfo, ti: usize, ci: usize) -> Option<String> {
    let s = sample_str(rng, info, ti, ci)?;
    let words: Vec<&str> =
        s.split(|c: char| !c.is_ascii_alphanumeric()).filter(|w| w.len() >= 2).collect();
    if words.is_empty() {
        return Some("xx".into());
    }
    Some(words[rng.gen_range(0..words.len())].to_string())
}

// ---- rendering ---------------------------------------------------------

/// Render a `Select` to SQL text the `ordb` parser accepts. Every
/// sub-expression is parenthesized, so operator precedence can never
/// diverge between this renderer and the parser.
pub fn render_select(q: &Select) -> String {
    let mut s = String::from("SELECT ");
    if q.distinct {
        s.push_str("DISTINCT ");
    }
    for (i, item) in q.items.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match item {
            SelectItem::Wildcard => s.push('*'),
            SelectItem::QualifiedWildcard(alias) => {
                s.push_str(alias);
                s.push_str(".*");
            }
            SelectItem::Expr { expr, alias } => {
                render_expr(expr, &mut s);
                if let Some(a) = alias {
                    s.push_str(" AS ");
                    s.push_str(a);
                }
            }
        }
    }
    s.push_str(" FROM ");
    for (i, f) in q.from.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        match f {
            FromItem::Table { name, alias } => {
                s.push_str(name);
                if let Some(a) = alias {
                    s.push(' ');
                    s.push_str(a);
                }
            }
            FromItem::TableFunction { func, args, alias } => {
                s.push_str("TABLE(");
                s.push_str(func);
                s.push('(');
                for (j, a) in args.iter().enumerate() {
                    if j > 0 {
                        s.push_str(", ");
                    }
                    render_expr(a, &mut s);
                }
                s.push_str(")) ");
                s.push_str(alias);
            }
        }
    }
    if let Some(w) = &q.where_clause {
        s.push_str(" WHERE ");
        render_expr(w, &mut s);
    }
    if !q.group_by.is_empty() {
        s.push_str(" GROUP BY ");
        for (i, g) in q.group_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            render_expr(g, &mut s);
        }
    }
    if !q.order_by.is_empty() {
        s.push_str(" ORDER BY ");
        for (i, (e, asc)) in q.order_by.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            render_expr(e, &mut s);
            s.push_str(if *asc { " ASC" } else { " DESC" });
        }
    }
    if let Some(n) = q.limit {
        s.push_str(&format!(" LIMIT {n}"));
    }
    s
}

fn render_expr(e: &AstExpr, s: &mut String) {
    match e {
        AstExpr::Column { qualifier, name } => {
            if let Some(q) = qualifier {
                s.push_str(q);
                s.push('.');
            }
            s.push_str(name);
        }
        AstExpr::Str(v) => {
            s.push('\'');
            s.push_str(&v.replace('\'', "''"));
            s.push('\'');
        }
        AstExpr::Num(n) => s.push_str(&n.to_string()),
        AstExpr::Null => s.push_str("NULL"),
        AstExpr::Cmp { op, lhs, rhs } => {
            s.push('(');
            render_expr(lhs, s);
            s.push_str(match op {
                CmpOp::Eq => " = ",
                CmpOp::Ne => " <> ",
                CmpOp::Lt => " < ",
                CmpOp::Le => " <= ",
                CmpOp::Gt => " > ",
                CmpOp::Ge => " >= ",
            });
            render_expr(rhs, s);
            s.push(')');
        }
        AstExpr::And(a, b) => {
            s.push('(');
            render_expr(a, s);
            s.push_str(" AND ");
            render_expr(b, s);
            s.push(')');
        }
        AstExpr::Or(a, b) => {
            s.push('(');
            render_expr(a, s);
            s.push_str(" OR ");
            render_expr(b, s);
            s.push(')');
        }
        AstExpr::Not(a) => {
            s.push_str("(NOT ");
            render_expr(a, s);
            s.push(')');
        }
        AstExpr::Like { expr, pattern, negated } => {
            s.push('(');
            render_expr(expr, s);
            s.push_str(if *negated { " NOT LIKE '" } else { " LIKE '" });
            s.push_str(&pattern.replace('\'', "''"));
            s.push_str("')");
        }
        AstExpr::IsNull { expr, negated } => {
            s.push('(');
            render_expr(expr, s);
            s.push_str(if *negated { " IS NOT NULL)" } else { " IS NULL)" });
        }
        AstExpr::Func { name, args } => {
            s.push_str(name);
            s.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                render_expr(a, s);
            }
            s.push(')');
        }
        AstExpr::Arith { op, lhs, rhs } => {
            s.push('(');
            render_expr(lhs, s);
            s.push_str(match op {
                ArithOp::Add => " + ",
                ArithOp::Sub => " - ",
                ArithOp::Mul => " * ",
                ArithOp::Div => " / ",
                ArithOp::Mod => " % ",
            });
            render_expr(rhs, s);
            s.push(')');
        }
        AstExpr::Agg { func, arg, distinct } => {
            s.push_str(&func.to_uppercase());
            s.push('(');
            match arg {
                None => s.push('*'),
                Some(a) => {
                    if *distinct {
                        s.push_str("DISTINCT ");
                    }
                    render_expr(a, s);
                }
            }
            s.push(')');
        }
    }
}
