//! The query planner: resolves names, picks access paths and join order,
//! and builds a physical operator tree.
//!
//! Planning pipeline for a SELECT:
//!
//! 1. bind FROM items (base tables, lateral table functions), keeping of
//!    each base table only the columns the statement names anywhere
//!    (`Liveness`) — every later step sees that narrow schema;
//! 2. split WHERE into conjuncts and classify them: per-table local
//!    predicates (pushed into scans), equi-join edges, residuals, and
//!    predicates over table-function outputs;
//! 3. per base table, choose `IndexScan` (an index whose first key column
//!    carries an equality/range literal predicate) or `SeqScan + Filter`;
//! 4. order joins greedily from the smallest estimated input, preferring
//!    an index nested-loop when the inner table has an index on its join
//!    column, hash join otherwise (the planner's estimates come from
//!    `runstats`, mirroring the paper's methodology); a hash join emits
//!    only the columns the plan above it still reads;
//! 5. apply lateral `TABLE(unnest(...))` functions in declaration order,
//!    filtering as soon as a predicate's inputs are all available;
//! 6. aggregate / DISTINCT / ORDER BY / LIMIT / projection.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::catalog::{Catalog, TableDef};
use crate::error::{DbError, Result};
use crate::exec::{
    AggCall, AggFunc, BoxOp, Distinct, Filter, HashAggregate, HashJoin, IndexNestedLoopJoin,
    IndexScan, JoinEmit, Limit, NestedLoopJoin, Project, SeqScan, Sort, SortKey, UnnestScan,
};
use crate::expr::{CmpOp, Expr, MemoSlot};
use crate::functions::FunctionRegistry;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::metrics::Profiler;
use crate::sql::ast::{AstExpr, FromItem, Select, SelectItem};
use crate::stats::TableStats;
use crate::storage::heap::HeapFile;
use crate::storage::spill::SpillConfig;
use crate::txn::Snapshot;
use crate::types::{DataType, Value};

/// Join algorithm pinned by a [`PlanForcing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedJoin {
    /// Materializing nested-loop join; the equi-join predicate is applied
    /// to the concatenated row instead of driving a hash table or index.
    NestedLoop,
    /// Hash join on the equi-keys (build side still picked by estimate).
    Hash,
}

/// Base-table access path pinned by a [`PlanForcing`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForcedAccess {
    /// Always `SeqScan` + `Filter`, even when an index matches a sargable
    /// predicate.
    SeqScan,
    /// Use an `IndexScan` whenever an index matches a sargable predicate
    /// (today's default policy, pinned against future cost gating).
    IndexScan,
}

/// Plan-space forcing: pins planner decisions so a test harness can run
/// one query under every plan shape and compare results. The default
/// (`None` everywhere) is the normal cost-based planner.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanForcing {
    /// Pin every equi-join edge to one algorithm (cross joins stay
    /// nested-loop). `None`: cost-based choice.
    pub join: Option<ForcedJoin>,
    /// Join base tables in FROM-declaration order instead of greedily by
    /// estimated cardinality.
    pub declared_order: bool,
    /// Pin the base-table access path. `None`: current default policy.
    pub access: Option<ForcedAccess>,
}

impl PlanForcing {
    /// True when no knob is pinned (the normal planner).
    pub fn is_default(&self) -> bool {
        *self == PlanForcing::default()
    }

    /// Compact rendering for EXPLAIN lines and repro files, e.g.
    /// `join=hash order=declared access=seq`.
    pub fn describe(&self) -> String {
        let join = match self.join {
            None => "cost",
            Some(ForcedJoin::NestedLoop) => "nested-loop",
            Some(ForcedJoin::Hash) => "hash",
        };
        let order = if self.declared_order { "declared" } else { "greedy" };
        let access = match self.access {
            None => "cost",
            Some(ForcedAccess::SeqScan) => "seq",
            Some(ForcedAccess::IndexScan) => "index",
        };
        format!("join={join} order={order} access={access}")
    }
}

/// Everything the planner needs from the database.
pub struct PlanContext<'a> {
    /// Catalog of tables and indexes.
    pub catalog: &'a Catalog,
    /// Heap handle per lowered table name.
    pub heaps: &'a HashMap<String, Arc<HeapFile>>,
    /// B+Tree handle per lowered index name.
    pub indexes: &'a HashMap<String, Arc<BTree>>,
    /// Statistics per lowered table name (from `runstats`).
    pub stats: &'a HashMap<String, TableStats>,
    /// Scalar function registry.
    pub functions: &'a FunctionRegistry,
    /// Memory budget + spill manager handed to blocking operators;
    /// `None`: they hold everything in memory.
    pub spill: Option<&'a SpillConfig>,
    /// Plan-space forcing knobs (default: cost-based planning).
    pub forcing: PlanForcing,
    /// MVCC snapshot every scan filters versions through.
    pub snapshot: Snapshot,
}

/// A compiled physical plan.
pub struct PhysicalPlan {
    /// Root operator.
    pub root: BoxOp,
    /// Output column names.
    pub columns: Vec<String>,
    /// Human-readable log of planning decisions (for EXPLAIN / tests).
    pub explain: Vec<String>,
}

/// One column of the in-flight plan.
#[derive(Debug, Clone)]
struct Binding {
    alias: String,
    column: String,
    #[allow(dead_code)]
    ty: DataType,
    /// Set on the outer-row ordinal a lateral unnest appends (see
    /// [`UnnestScan`]): the calls it carries, each with the slot all its
    /// spellings share. Such a column has no name — `resolve` and `*`
    /// pass over it — and [`compile`] memoizes those calls on it wherever
    /// the plan above spells them.
    carried: Option<Vec<(AstExpr, MemoSlot)>>,
}

impl Binding {
    fn column(alias: &str, column: &str, ty: DataType) -> Binding {
        Binding { alias: alias.to_string(), column: column.to_string(), ty, carried: None }
    }
}

#[derive(Default)]
struct Schema(Vec<Binding>);

impl Schema {
    fn resolve(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        let matches: Vec<usize> = self
            .0
            .iter()
            .enumerate()
            .filter(|(_, b)| {
                b.carried.is_none()
                    && b.column.eq_ignore_ascii_case(name)
                    && qualifier.is_none_or(|q| b.alias.eq_ignore_ascii_case(q))
            })
            .map(|(i, _)| i)
            .collect();
        match matches.len() {
            0 => Err(DbError::Plan(format!(
                "unknown column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
            1 => Ok(matches[0]),
            _ => Err(DbError::Plan(format!(
                "ambiguous column {}{name}",
                qualifier.map(|q| format!("{q}.")).unwrap_or_default()
            ))),
        }
    }
}

/// A base table reference in FROM, or the target of a DML statement.
struct BaseRef {
    alias: String,
    table: String, // lowered
    /// The columns the statement reads of the table, in table order: all
    /// its scan decodes, all the plan above can name.
    columns: Vec<Binding>,
    /// Where each of `columns` sits in the stored row.
    ordinals: Vec<usize>,
    /// Columns the table has.
    arity: usize,
    /// DML target: the scan appends each row's rid (see
    /// [`crate::exec::trailing_rid`]) and every local predicate stays a
    /// residual filter, so the whole predicate is re-checked on the
    /// version the scan fetched.
    rid: bool,
}

impl BaseRef {
    /// Stored position of the column `name`, if the statement reads it.
    fn ordinal_of(&self, name: &str) -> Option<usize> {
        let i = self.columns.iter().position(|b| b.column.eq_ignore_ascii_case(name))?;
        Some(self.ordinals[i])
    }

    /// `cols 2/13: atupleid, atuple_parentid` — what the scan decodes.
    /// Built for every statement planned, so sized once: grown piecewise
    /// it cost a point select 0.4 µs.
    fn describe_cols(&self) -> String {
        let names: usize = self.columns.iter().map(|b| b.column.len() + 2).sum();
        let mut out = String::with_capacity(16 + names);
        let _ = write!(out, "cols {}/{}", self.columns.len(), self.arity);
        for (i, b) in self.columns.iter().enumerate() {
            out.push_str(if i == 0 { ": " } else { ", " });
            out.push_str(&b.column);
        }
        out
    }
}

/// Which columns of each FROM table a statement reads. One pass over the
/// statement marks every column it names — select list, every conjunct
/// (join keys among them), GROUP BY, ORDER BY, aggregate and table
/// function arguments, hence also every call a lateral unnest carries —
/// and each table is then bound with its marked columns only.
#[derive(Default)]
struct Liveness<'a> {
    /// `(alias, definition, live flag per column)` in FROM order.
    tables: Vec<(&'a str, &'a TableDef, Vec<bool>)>,
}

impl<'a> Liveness<'a> {
    fn add_table(&mut self, ctx: &PlanContext<'a>, name: &str, alias: &'a str) -> Result<()> {
        let def = ctx
            .catalog
            .table(name)
            .ok_or_else(|| DbError::Plan(format!("unknown table {name:?}")))?;
        self.tables.push((alias, def, vec![false; def.columns.len()]));
        Ok(())
    }

    /// Mark every column `e` names. An unqualified name marks the column
    /// in every table that has one (name resolution reports the
    /// ambiguity later); a name no table has marks nothing.
    fn mark(&mut self, e: &AstExpr) {
        columns_of(e, &mut |qualifier, name| {
            for (alias, def, live) in &mut self.tables {
                if qualifier.is_none_or(|q| q.eq_ignore_ascii_case(alias)) {
                    if let Some(i) = def.column_index(name) {
                        live[i] = true;
                    }
                }
            }
        });
    }

    /// Mark every column of the table under `alias` (`alias.*`), or of
    /// every table (`*`).
    fn mark_all(&mut self, alias: Option<&str>) {
        for (a, _, live) in &mut self.tables {
            if alias.is_none_or(|q| q.eq_ignore_ascii_case(a)) {
                live.fill(true);
            }
        }
    }

    fn mark_select(&mut self, q: &Select) {
        for item in &q.items {
            match item {
                SelectItem::Wildcard => self.mark_all(None),
                SelectItem::QualifiedWildcard(alias) => self.mark_all(Some(alias)),
                SelectItem::Expr { expr, .. } => self.mark(expr),
            }
        }
        for item in &q.from {
            if let FromItem::TableFunction { args, .. } = item {
                args.iter().for_each(|a| self.mark(a));
            }
        }
        let sorted = q.order_by.iter().map(|(e, _)| e);
        for e in q.where_clause.iter().chain(&q.group_by).chain(sorted) {
            self.mark(e);
        }
    }

    fn bind(self, rid: bool) -> Vec<BaseRef> {
        let bind = |(alias, def, live): (&str, &TableDef, Vec<bool>)| {
            let ordinals: Vec<usize> = (0..live.len()).filter(|&i| live[i]).collect();
            BaseRef {
                alias: alias.to_string(),
                table: def.name.to_ascii_lowercase(),
                columns: ordinals
                    .iter()
                    .map(|&i| Binding::column(alias, &def.columns[i].name, def.columns[i].ty))
                    .collect(),
                ordinals,
                arity: live.len(),
                rid,
            }
        };
        self.tables.into_iter().map(bind).collect()
    }
}

/// Plan a SELECT.
pub fn plan_select(ctx: &PlanContext<'_>, q: &Select) -> Result<PhysicalPlan> {
    plan_select_profiled(ctx, q, &mut Profiler::disabled())
}

/// Plan a SELECT, wrapping every operator in an instrumentation node when
/// `prof` is recording (the `EXPLAIN ANALYZE` path). With a disabled
/// profiler this is exactly [`plan_select`] — no wrappers are built.
pub fn plan_select_profiled(
    ctx: &PlanContext<'_>,
    q: &Select,
    prof: &mut Profiler,
) -> Result<PhysicalPlan> {
    let mut explain = Vec::new();

    // ---- 1. bind FROM ---------------------------------------------------
    let mut live = Liveness::default();
    let mut fns: Vec<(String, String, Vec<AstExpr>)> = Vec::new(); // (alias, func, args)
    for item in &q.from {
        match item {
            FromItem::Table { name, alias } => {
                live.add_table(ctx, name, alias.as_deref().unwrap_or(name))?;
            }
            FromItem::TableFunction { func, args, alias } => {
                if !func.eq_ignore_ascii_case("unnest") {
                    return Err(DbError::Plan(format!("unknown table function {func:?}")));
                }
                if args.len() != 2 {
                    return Err(DbError::Plan("unnest takes (xadt, tag)".into()));
                }
                fns.push((alias.clone(), func.clone(), args.clone()));
            }
        }
    }
    live.mark_select(q);
    let bases = live.bind(false);
    if bases.is_empty() {
        return Err(DbError::Plan("FROM must reference at least one base table".into()));
    }
    // Duplicate-alias check across all FROM items.
    {
        let mut seen = std::collections::HashSet::new();
        for a in bases
            .iter()
            .map(|b| b.alias.to_ascii_lowercase())
            .chain(fns.iter().map(|(a, _, _)| a.to_ascii_lowercase()))
        {
            if !seen.insert(a.clone()) {
                return Err(DbError::Plan(format!("duplicate alias {a:?} in FROM")));
            }
        }
    }

    // Global name → alias map (for classifying unqualified references).
    let mut global: Vec<(String, String)> = Vec::new(); // (column lowered, alias)
    for b in &bases {
        for c in &b.columns {
            global.push((c.column.to_ascii_lowercase(), b.alias.clone()));
        }
    }
    for (alias, _, _) in &fns {
        global.push(("out".into(), alias.clone()));
    }

    // ---- 2. classify conjuncts ------------------------------------------
    let conjuncts: Vec<AstExpr> = match &q.where_clause {
        Some(w) => w.clone().conjuncts(),
        None => Vec::new(),
    };
    let fn_aliases: Vec<String> = fns.iter().map(|(a, _, _)| a.to_ascii_lowercase()).collect();

    // aliases referenced by each conjunct
    let mut local: HashMap<String, Vec<AstExpr>> = HashMap::new(); // base alias → preds
    let mut edges: Vec<(String, AstExpr, String, AstExpr)> = Vec::new(); // equi joins
    let mut deferred: Vec<(Vec<String>, AstExpr)> = Vec::new(); // (aliases, pred)
    for c in conjuncts {
        let mut aliases = Vec::new();
        collect_aliases(&c, &global, &mut aliases)?;
        aliases.sort();
        aliases.dedup();
        let touches_fn = aliases.iter().any(|a| fn_aliases.contains(&a.to_ascii_lowercase()));
        if !touches_fn && aliases.len() == 1 {
            local.entry(aliases[0].clone()).or_default().push(c);
        } else if !touches_fn && aliases.len() == 2 {
            // Equi-join edge? Each side references exactly one alias.
            if let AstExpr::Cmp { op: CmpOp::Eq, lhs, rhs } = &c {
                let mut la = Vec::new();
                let mut ra = Vec::new();
                collect_aliases(lhs, &global, &mut la)?;
                collect_aliases(rhs, &global, &mut ra)?;
                la.dedup();
                ra.dedup();
                if la.len() == 1 && ra.len() == 1 && la[0] != ra[0] {
                    edges.push((la[0].clone(), (**lhs).clone(), ra[0].clone(), (**rhs).clone()));
                    continue;
                }
            }
            deferred.push((aliases, c));
        } else {
            deferred.push((aliases, c));
        }
    }

    // ---- 3 & 4. scans and join order ------------------------------------
    // Estimated output cardinality per base table after local predicates.
    let est: Vec<f64> = bases
        .iter()
        .map(|b| {
            let stats = ctx.stats.get(&b.table);
            let rows = stats.map_or(1000.0, |s| s.row_count as f64);
            let sel: f64 = local
                .get(&b.alias)
                .map(|preds| preds.iter().map(|p| selectivity(p, b, stats)).product())
                .unwrap_or(1.0);
            (rows * sel).max(1.0)
        })
        .collect();

    if !ctx.forcing.is_default() {
        explain.push(format!("forcing: {}", ctx.forcing.describe()));
    }

    let n = bases.len();
    let mut joined = vec![false; n];
    let start = if ctx.forcing.declared_order {
        0
    } else {
        (0..n).min_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite")).expect("nonempty")
    };
    joined[start] = true;

    let mut schema = Schema::default();
    let (mut root, used_index, mut root_id) =
        build_scan(ctx, &bases[start], local.get(&bases[start].alias), prof)?;
    explain.push(format!("{} [est {:.0} rows]", scan_line(&bases[start], &used_index), est[start]));
    schema.0.extend(bases[start].columns.iter().cloned());
    let mut current_rows = est[start];

    let mut edges_left = edges;
    for _ in 1..n {
        // Find a joinable (connected) table, smallest estimate first —
        // or, under forced declared order, the next table as written.
        let mut order: Vec<usize> = (0..n).filter(|&i| !joined[i]).collect();
        if !ctx.forcing.declared_order {
            order.sort_by(|&a, &b| est[a].partial_cmp(&est[b]).expect("finite"));
        }
        let candidates = if ctx.forcing.declared_order { &order[..1] } else { &order[..] };
        let mut picked = None;
        'outer: for &cand in candidates {
            for (ei, (a1, _, a2, _)) in edges_left.iter().enumerate() {
                let cand_alias = &bases[cand].alias;
                let in_cur =
                    |al: &String| schema.0.iter().any(|bnd| bnd.alias.eq_ignore_ascii_case(al));
                if (a1 == cand_alias && in_cur(a2)) || (a2 == cand_alias && in_cur(a1)) {
                    picked = Some((cand, ei));
                    break 'outer;
                }
            }
        }
        let (cand, edge_idx) = match picked {
            Some(p) => p,
            None => {
                // No connecting edge: cross join the smallest remainder.
                let cand = order[0];
                let (inner, path, inner_id) =
                    build_scan(ctx, &bases[cand], local.get(&bases[cand].alias), prof)?;
                explain.push(scan_line(&bases[cand], &path));
                explain.push(format!("cross join {}", bases[cand].alias));
                (root, root_id) = prof.wrap(
                    Box::new(NestedLoopJoin::new(root, inner, None)),
                    format!("NestedLoopJoin (cross) {}", bases[cand].alias),
                    vec![root_id, inner_id],
                );
                schema.0.extend(bases[cand].columns.iter().cloned());
                joined[cand] = true;
                current_rows *= est[cand];
                continue;
            }
        };
        let (a1, e1, a2, e2) = edges_left.remove(edge_idx);
        let cand_alias = bases[cand].alias.clone();
        let (outer_ast, inner_ast) = if a1 == cand_alias { (e2, e1) } else { (e1, e2) };
        debug_assert!(a1 == cand_alias || a2 == cand_alias);

        // The outer side expression compiles against the current schema.
        let outer_key = compile(&outer_ast, &schema, ctx.functions)?;

        // Decide the join algorithm: index NLJ when the inner table has an
        // index whose first column is the inner join column AND the outer
        // estimate is small relative to the inner table.
        let inner_base = &bases[cand];
        let inner_col = match &inner_ast {
            AstExpr::Column { name, .. } => Some(name.clone()),
            _ => None,
        };
        let inner_index =
            inner_col.as_ref().and_then(|col| find_index_on(ctx, &inner_base.table, col));
        let inner_local = local.get(&inner_base.alias);

        // Join sizing: matches per probe on an equi key ≈ (inner rows
        // after local predicates) / NDV(inner join column) — the foreign
        // key fanout for parentID joins.
        let inner_stats = ctx.stats.get(&inner_base.table);
        let inner_rows = inner_stats.map_or(1000.0, |s| s.row_count as f64);
        let inner_pages = inner_stats
            .map(|s| (s.row_count * s.avg_row_bytes.max(16)) as f64 / 8192.0)
            .unwrap_or(inner_rows / 50.0)
            .max(1.0);
        let inner_ndv = inner_col
            .as_ref()
            .and_then(|col| Some(inner_stats?.ndv_of(inner_base.ordinal_of(col)?) as f64))
            .unwrap_or(inner_rows.max(1.0))
            .max(1.0);
        let matches_per_probe = (est[cand] / inner_ndv).max(0.0);
        let join_rows = (current_rows * matches_per_probe).max(1.0);

        // Cost model (units: page fetches, with decode/materialize CPU at
        // one tenth of a fetch per row): an index nested-loop pays ~3
        // fetches per probe plus one per fetched row; a hash join scans
        // the inner once and materializes every inner row.
        let index_cost = current_rows * 3.0 + join_rows;
        let mut hash_cost = inner_pages + inner_rows / 10.0;
        // Under a memory budget, a build side that will not fit pays a
        // Grace partitioning pass: both sides written to spill files and
        // read back once (~2× the build pages of extra I/O).
        if let Some(spill) = ctx.spill {
            let build_rows = est[cand].min(current_rows).max(1.0);
            let build_bytes =
                build_rows * inner_stats.map_or(64.0, |s| s.avg_row_bytes.max(16) as f64);
            if build_bytes > spill.budget as f64 {
                hash_cost += 2.0 * (build_bytes / 8192.0).max(1.0);
            }
        }
        let use_index_nlj = ctx.forcing.join.is_none()
            && inner_index.is_some()
            && (index_cost < hash_cost || ctx.forcing.access == Some(ForcedAccess::IndexScan));

        if let Some(ForcedJoin::NestedLoop) = ctx.forcing.join {
            // Forced nested loop: materialize the inner side and apply the
            // equi-join predicate to the concatenated row.
            let (inner_plan, path, inner_id) = build_scan(ctx, inner_base, inner_local, prof)?;
            explain.push(scan_line(inner_base, &path));
            schema.0.extend(inner_base.columns.iter().cloned());
            let pred_ast = AstExpr::Cmp {
                op: CmpOp::Eq,
                lhs: Box::new(outer_ast.clone()),
                rhs: Box::new(inner_ast.clone()),
            };
            let pred = compile(&pred_ast, &schema, ctx.functions)?;
            explain.push(format!("nested-loop join {} (forced)", inner_base.alias));
            (root, root_id) = prof.wrap(
                Box::new(NestedLoopJoin::new(root, inner_plan, Some(pred))),
                format!("NestedLoopJoin {}", inner_base.alias),
                vec![root_id, inner_id],
            );
        } else if let (true, Some(index)) = (use_index_nlj, inner_index) {
            // Residual = inner local predicates, compiled against the
            // concatenated schema.
            schema.0.extend(inner_base.columns.iter().cloned());
            let residual = compile_preds_at(inner_local, &schema, ctx.functions)?;
            let cols = inner_base.describe_cols();
            explain.push(format!(
                "index-nested-loop join {} via index (est outer {:.0}) {cols}",
                inner_base.alias, current_rows
            ));
            (root, root_id) = prof.wrap(
                Box::new(IndexNestedLoopJoin::new(
                    root,
                    ctx.heap_of(&inner_base.table)?,
                    index,
                    inner_base.ordinals.clone(),
                    vec![outer_key],
                    residual,
                    ctx.snapshot.clone(),
                )),
                format!("IndexNestedLoopJoin {} {cols}", inner_base.alias),
                vec![root_id],
            );
        } else {
            // Hash join, building on the estimated-smaller side, probing
            // with the other; the output is `current ++ inner` either way,
            // cut to what the plan above still reads.
            let (inner_plan, path, inner_id) = build_scan(ctx, inner_base, inner_local, prof)?;
            explain.push(scan_line(inner_base, &path));
            let inner_schema = Schema(inner_base.columns.clone());
            let inner_key = compile(&inner_ast, &inner_schema, ctx.functions)?;
            let left_width = schema.0.len();
            schema.0.extend(inner_base.columns.iter().cloned());
            let pending = edges_left
                .iter()
                .flat_map(|(_, e1, _, e2)| [e1, e2])
                .chain(deferred.iter().map(|(_, pred)| pred));
            let read = read_above(&schema, q, pending);
            let width = read.len();
            let emit: JoinEmit = (
                (0..left_width).filter(|&i| read[i]).collect(),
                (left_width..width).filter(|&i| read[i]).map(|i| i - left_width).collect(),
            );
            let mut read = read.into_iter();
            schema.0.retain(|_| read.next().expect("one flag per column"));
            let build_inner = est[cand] <= current_rows;
            let (build_side, build_rows, probe_side, probe_rows) = if build_inner {
                ("inner", est[cand], "", current_rows)
            } else {
                ("current", current_rows, "inner ", est[cand])
            };
            explain.push(format!(
                "hash join {} (build {build_side} {build_rows:.0} rows, probe \
                 {probe_side}{probe_rows:.0}) emits {}/{width}",
                inner_base.alias,
                schema.0.len(),
            ));
            let label = format!("HashJoin {} emits {}/{width}", inner_base.alias, schema.0.len());
            // (probe, build) with their keys; the probe is the left input
            // exactly when the build side is the new table.
            let (probe, probe_key, probe_id, build, build_key, build_id) = if build_inner {
                (root, outer_key, root_id, inner_plan, inner_key, inner_id)
            } else {
                (inner_plan, inner_key, inner_id, root, outer_key, root_id)
            };
            let (probe_keys, build_keys) = (vec![probe_key], vec![build_key]);
            let spill = ctx.spill.cloned();
            let join =
                HashJoin::new(probe, build, probe_keys, build_keys, None, build_inner, spill)
                    .emitting(emit);
            (root, root_id) = prof.wrap(Box::new(join), label, vec![probe_id, build_id]);
        }
        joined[cand] = true;
        current_rows = join_rows;
    }

    // Leftover edges (join cycles) become filters.
    for (_, e1, _, e2) in edges_left {
        let pred = AstExpr::Cmp { op: CmpOp::Eq, lhs: Box::new(e1), rhs: Box::new(e2) };
        let compiled = compile(&pred, &schema, ctx.functions)?;
        (root, root_id) =
            prof.wrap(Box::new(Filter::new(root, compiled)), "Filter (join edge)", vec![root_id]);
    }

    // ---- 5. lateral table functions + deferred predicates ---------------
    let mut pending = deferred;
    // Predicates whose aliases are all base tables apply now.
    (root, root_id) = apply_ready_preds(root, root_id, &mut pending, &schema, ctx.functions, prof)?;

    for (alias, _func, args) in &fns {
        let input = compile(&args[0], &schema, ctx.functions)?;
        let tag = compile(&args[1], &schema, ctx.functions)?;
        // Scalar calls the plan above this unnest evaluates per unnested
        // row although every column they read is bound below it: have
        // the unnest number its outer rows and memoize each call on that
        // ordinal, so it runs where the plan reads it — above every
        // filter — but once per outer row.
        let mut carried: Vec<AstExpr> = Vec::new();
        let selected = q.items.iter().filter_map(|item| match item {
            SelectItem::Expr { expr, .. } => Some(expr),
            SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => None,
        });
        for e in selected.chain(&q.group_by).chain(pending.iter().map(|(_, pred)| pred)) {
            collect_carried(e, &schema, &global, &mut carried);
        }
        let mut line = format!("lateral unnest {alias}");
        for (i, e) in carried.iter().enumerate() {
            line.push_str(&format!("{} {e}", if i == 0 { " carrying" } else { "," }));
        }
        explain.push(line);
        (root, root_id) = prof.wrap(
            Box::new(UnnestScan::new(root, input, tag, !carried.is_empty())),
            format!("UnnestScan {alias}"),
            vec![root_id],
        );
        schema.0.push(Binding::column(alias, "out", DataType::Xadt));
        if !carried.is_empty() {
            schema.0.push(Binding {
                alias: String::new(),
                column: String::new(),
                ty: DataType::Integer,
                carried: Some(carried.into_iter().map(|e| (e, MemoSlot::default())).collect()),
            });
        }
        (root, root_id) =
            apply_ready_preds(root, root_id, &mut pending, &schema, ctx.functions, prof)?;
    }
    if let Some((aliases, _)) = pending.first() {
        return Err(DbError::Plan(format!("predicate references unavailable aliases {aliases:?}")));
    }

    // ---- 6. aggregation / distinct / order / limit / projection ---------
    let has_agg = q.items.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => expr.has_aggregate(),
        SelectItem::Wildcard | SelectItem::QualifiedWildcard(_) => false,
    }) || !q.group_by.is_empty();

    let mut columns: Vec<String> = Vec::new();
    if has_agg {
        // Compile group-by keys.
        let mut group_exprs = Vec::new();
        for g in &q.group_by {
            group_exprs.push(compile(g, &schema, ctx.functions)?);
        }
        // Gather aggregate calls from the select list (and ORDER BY).
        let mut aggs: Vec<AggCall> = Vec::new();
        let mut agg_asts: Vec<AstExpr> = Vec::new();
        let mut out_exprs: Vec<Expr> = Vec::new();
        for item in &q.items {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(DbError::Plan("* not allowed with aggregates".into()));
            };
            match expr {
                AstExpr::Agg { .. } => {
                    let idx = find_or_add_agg(expr, &mut aggs, &mut agg_asts, &schema, ctx)?;
                    out_exprs.push(Expr::col(group_exprs.len() + idx));
                    columns.push(alias.clone().unwrap_or_else(|| agg_name(expr)));
                }
                other => {
                    // Must match a GROUP BY expression.
                    let gidx = q.group_by.iter().position(|g| g == other).ok_or_else(|| {
                        DbError::Plan(format!(
                            "select item {other:?} is neither aggregated nor grouped"
                        ))
                    })?;
                    out_exprs.push(Expr::col(gidx));
                    columns.push(alias.clone().unwrap_or_else(|| ast_name(other)));
                }
            }
        }
        // ORDER BY keys in the aggregate context.
        let mut sort_keys = Vec::new();
        for (e, asc) in &q.order_by {
            let key = match e {
                AstExpr::Agg { .. } => {
                    let idx = find_or_add_agg(e, &mut aggs, &mut agg_asts, &schema, ctx)?;
                    Expr::col(group_exprs.len() + idx)
                }
                other => {
                    let gidx = q.group_by.iter().position(|g| g == other).ok_or_else(|| {
                        DbError::Plan("ORDER BY must use grouped or aggregated values".into())
                    })?;
                    Expr::col(gidx)
                }
            };
            sort_keys.push(SortKey { expr: key, asc: *asc });
        }
        explain.push(format!(
            "hash aggregate: {} group keys, {} aggregates",
            group_exprs.len(),
            aggs.len()
        ));
        (root, root_id) = prof.wrap(
            Box::new(HashAggregate::new(root, group_exprs, aggs, ctx.spill.cloned())),
            "HashAggregate",
            vec![root_id],
        );
        if !sort_keys.is_empty() {
            (root, root_id) = prof.wrap(
                Box::new(Sort::new(root, sort_keys, ctx.spill.cloned())),
                "Sort",
                vec![root_id],
            );
        }
        (root, root_id) =
            prof.wrap(Box::new(Project::new(root, out_exprs)), "Project", vec![root_id]);
    } else {
        // Plain projection.
        let mut out_exprs = Vec::new();
        for item in &q.items {
            match item {
                // FROM items in declaration order, whatever order they
                // were joined in.
                SelectItem::Wildcard => {
                    for from in &q.from {
                        expand_star(from.alias(), &schema, &mut out_exprs, &mut columns);
                    }
                }
                SelectItem::QualifiedWildcard(alias) => {
                    if !q.from.iter().any(|f| f.alias().eq_ignore_ascii_case(alias)) {
                        return Err(DbError::Plan(format!("unknown alias in {alias}.*")));
                    }
                    expand_star(alias, &schema, &mut out_exprs, &mut columns);
                }
                SelectItem::Expr { expr, alias } => {
                    out_exprs.push(compile(expr, &schema, ctx.functions)?);
                    columns.push(alias.clone().unwrap_or_else(|| ast_name(expr)));
                }
            }
        }
        if !q.order_by.is_empty() {
            let mut sort_keys = Vec::new();
            for (e, asc) in &q.order_by {
                sort_keys.push(SortKey { expr: compile(e, &schema, ctx.functions)?, asc: *asc });
            }
            (root, root_id) = prof.wrap(
                Box::new(Sort::new(root, sort_keys, ctx.spill.cloned())),
                "Sort",
                vec![root_id],
            );
        }
        (root, root_id) =
            prof.wrap(Box::new(Project::new(root, out_exprs)), "Project", vec![root_id]);
    }

    if q.distinct {
        // Distinct sits above the Sort, so when the query has an ORDER BY
        // it must preserve its input order — the spill path re-emits
        // partitioned keys out of order, so only an unordered DISTINCT
        // gets the budget-bounded variant.
        let spill = if q.order_by.is_empty() { ctx.spill.cloned() } else { None };
        (root, root_id) =
            prof.wrap(Box::new(Distinct::new(root, spill)), "Distinct", vec![root_id]);
    }
    if let Some(n) = q.limit {
        (root, root_id) =
            prof.wrap(Box::new(Limit::new(root, n)), format!("Limit {n}"), vec![root_id]);
    }
    let _ = root_id;

    Ok(PhysicalPlan { root, columns, explain })
}

/// Where a `DELETE` finds its victims.
pub struct DeletePlan {
    /// Yields every row of the target table that the snapshot sees and
    /// the predicate accepts, with its rid appended
    /// ([`crate::exec::trailing_rid`]).
    pub root: BoxOp,
    /// The target table's name, lowered (the catalog's key).
    pub table: String,
    /// The target table's heap, for the claims.
    pub heap: Arc<HeapFile>,
    /// The access-path decision (for `EXPLAIN DELETE`).
    pub explain: Vec<String>,
}

/// Plan the scan side of `DELETE FROM table [WHERE predicate]`: the same
/// single-table access-path choice a `SELECT` gets from `build_scan`
/// (index probe on a sargable conjunct, `SeqScan` otherwise, forcing
/// honoured), over scans that also yield the rid.
pub fn plan_delete(
    ctx: &PlanContext<'_>,
    table: &str,
    predicate: Option<&AstExpr>,
) -> Result<DeletePlan> {
    let mut live = Liveness::default();
    live.add_table(ctx, table, table)?;
    predicate.into_iter().for_each(|p| live.mark(p));
    let base = live.bind(true).pop().expect("one table bound");
    let preds = predicate.map(|p| p.clone().conjuncts());
    let (root, path, _) = build_scan(ctx, &base, preds.as_ref(), &mut Profiler::disabled())?;
    let mut explain = Vec::new();
    if !ctx.forcing.is_default() {
        explain.push(format!("forcing: {}", ctx.forcing.describe()));
    }
    explain.push(format!("delete from {} via {path}", base.table));
    let heap = ctx.heap_of(&base.table)?;
    Ok(DeletePlan { root, table: base.table, heap, explain })
}

/// Compile an expression against an explicit `(alias, column)` binding
/// list — one entry per visible column, in row order. This is the entry
/// point external test oracles use to share the engine's expression
/// semantics (NULL propagation, overflow checks, LIKE matching, UDF call
/// paths) without building a full plan.
pub fn compile_expr(
    ast: &AstExpr,
    bindings: &[(String, String)],
    functions: &FunctionRegistry,
) -> Result<Expr> {
    let schema = Schema(
        bindings
            .iter()
            // Types are not used for resolution; Integer is a stand-in.
            .map(|(alias, column)| Binding::column(alias, column, DataType::Integer))
            .collect(),
    );
    compile(ast, &schema, functions)
}

impl PlanContext<'_> {
    fn heap_of(&self, table_lower: &str) -> Result<Arc<HeapFile>> {
        self.heaps
            .get(table_lower)
            .cloned()
            .ok_or_else(|| DbError::Plan(format!("no heap for table {table_lower:?}")))
    }
}

fn schema_has_alias(schema: &Schema, alias: &str) -> bool {
    schema.0.iter().any(|b| b.alias.eq_ignore_ascii_case(alias))
}

/// Append every named column `schema` binds under `alias` to a select
/// list.
fn expand_star(alias: &str, schema: &Schema, exprs: &mut Vec<Expr>, names: &mut Vec<String>) {
    for (i, b) in schema.0.iter().enumerate() {
        if b.carried.is_none() && b.alias.eq_ignore_ascii_case(alias) {
            exprs.push(Expr::col(i));
            names.push(b.column.clone());
        }
    }
}

/// `scan a (t) via SeqScan cols 2/13: x, y` — one table's access path.
fn scan_line(base: &BaseRef, path: &str) -> String {
    format!("scan {} ({}) via {path}", base.alias, base.table)
}

/// Which columns of `schema` — a hash join's whole output — the rest of
/// the plan reads: the select list, the table function arguments, GROUP
/// BY, ORDER BY, and the `pending` join edges and conjuncts no operator
/// below has consumed. A name that matches several columns keeps them
/// all, so name resolution above reports what it always did.
fn read_above<'e>(
    schema: &Schema,
    q: &Select,
    pending: impl Iterator<Item = &'e AstExpr>,
) -> Vec<bool> {
    let mut read = vec![false; schema.0.len()];
    let mut mark = |qualifier: Option<&str>, name: Option<&str>| {
        for (b, r) in schema.0.iter().zip(&mut read) {
            *r |= qualifier.is_none_or(|q| b.alias.eq_ignore_ascii_case(q))
                && name.is_none_or(|n| b.column.eq_ignore_ascii_case(n));
        }
    };
    let mut exprs: Vec<&AstExpr> = pending.collect();
    for item in &q.items {
        match item {
            SelectItem::Wildcard => mark(None, None),
            SelectItem::QualifiedWildcard(alias) => mark(Some(alias), None),
            SelectItem::Expr { expr, .. } => exprs.push(expr),
        }
    }
    for item in &q.from {
        if let FromItem::TableFunction { args, .. } = item {
            exprs.extend(args);
        }
    }
    exprs.extend(q.group_by.iter().chain(q.order_by.iter().map(|(e, _)| e)));
    for e in exprs {
        columns_of(e, &mut |qualifier, name| mark(qualifier, Some(name)));
    }
    read
}

/// Apply every pending predicate whose aliases are all in `schema`.
fn apply_ready_preds(
    mut root: BoxOp,
    mut root_id: usize,
    pending: &mut Vec<(Vec<String>, AstExpr)>,
    schema: &Schema,
    fns: &FunctionRegistry,
    prof: &mut Profiler,
) -> Result<(BoxOp, usize)> {
    let mut remaining = Vec::new();
    for (aliases, pred) in pending.drain(..) {
        if aliases.iter().all(|a| schema_has_alias(schema, a)) {
            let compiled = compile(&pred, schema, fns)?;
            (root, root_id) =
                prof.wrap(Box::new(Filter::new(root, compiled)), "Filter", vec![root_id]);
        } else {
            remaining.push((aliases, pred));
        }
    }
    *pending = remaining;
    Ok((root, root_id))
}

/// Find an index on `table` whose first key column is `col`.
fn find_index_on(ctx: &PlanContext<'_>, table_lower: &str, col: &str) -> Option<Arc<BTree>> {
    for idx in ctx.catalog.indexes_of(table_lower) {
        if idx.columns.first().is_some_and(|c| c.eq_ignore_ascii_case(col)) {
            if let Some(tree) = ctx.indexes.get(&idx.name.to_ascii_lowercase()) {
                return Some(tree.clone());
            }
        }
    }
    None
}

/// Build the access path for one base table with its local predicates.
/// Returns the operator, a description of the chosen path, and the
/// profiler id of the topmost node built here.
fn build_scan(
    ctx: &PlanContext<'_>,
    base: &BaseRef,
    preds: Option<&Vec<AstExpr>>,
    prof: &mut Profiler,
) -> Result<(BoxOp, String, usize)> {
    let heap = ctx.heap_of(&base.table)?;
    let table_schema = Schema(base.columns.clone());
    let empty = Vec::new();
    let preds = preds.unwrap_or(&empty);

    // Look for `col = literal` (preferred) or a range predicate on an
    // indexed first column. Under forced SeqScan access the search is
    // skipped entirely, so every local predicate stays a residual filter.
    let mut chosen: Option<(Arc<BTree>, Value, CmpOp)> = None;
    let mut chosen_pred_idx = usize::MAX;
    let scannable =
        if ctx.forcing.access == Some(ForcedAccess::SeqScan) { &[] } else { preds.as_slice() };
    for (i, p) in scannable.iter().enumerate() {
        let Some((col, lit, op)) = sargable(p) else { continue };
        // `<>` has no key range; a comparison with NULL is never true, and
        // a probe for the NULL key would find the rows it must not match.
        if matches!(op, CmpOp::Ne) || matches!(lit, AstExpr::Null) {
            continue;
        }
        if let Some(tree) = find_index_on(ctx, &base.table, col) {
            let value = literal_value(lit)?;
            let is_eq = matches!(op, CmpOp::Eq);
            // Prefer equality probes over ranges.
            if chosen.is_none() || (is_eq && !matches!(chosen.as_ref().unwrap().2, CmpOp::Eq)) {
                chosen = Some((tree, value, op));
                chosen_pred_idx = i;
            }
        }
    }

    let (mut op, desc, mut op_id) = match chosen {
        Some((tree, value, cmp)) => {
            let key = encode_key(std::slice::from_ref(&value));
            let snap = ctx.snapshot.clone();
            let cols = base.ordinals.clone();
            let mut scan = match cmp {
                CmpOp::Eq => IndexScan::prefix(heap, tree, &key, cols, snap),
                CmpOp::Lt => IndexScan::range(heap, tree, None, Some(&key), false, cols, snap),
                CmpOp::Le => IndexScan::range(heap, tree, None, Some(&key), true, cols, snap),
                CmpOp::Gt | CmpOp::Ge => {
                    // Gt: skip equal keys via the residual filter below.
                    IndexScan::range(heap, tree, Some(&key), None, true, cols, snap)
                }
                CmpOp::Ne => unreachable!("filtered above"),
            };
            if base.rid {
                scan = scan.with_rid();
            }
            let described = base.describe_cols();
            let label = format!("IndexScan({cmp}) {} {described}", base.alias);
            let (op, id) = prof.wrap(Box::new(scan), label, vec![]);
            (op, format!("IndexScan({cmp}) {described}"), id)
        }
        None => {
            let mut scan = SeqScan::new(heap, base.ordinals.clone(), ctx.snapshot.clone());
            if base.rid {
                scan = scan.with_rid();
            }
            let described = base.describe_cols();
            let (op, id) =
                prof.wrap(Box::new(scan), format!("SeqScan {} {described}", base.alias), vec![]);
            (op, format!("SeqScan {described}"), id)
        }
    };

    // Residual local predicates (all of them except a consumed equality —
    // range probes keep their predicate as a residual for exactness, and a
    // DML target keeps every predicate).
    let residual: Vec<&AstExpr> = preds
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            base.rid
                || *i != chosen_pred_idx
                || !matches!(preds[chosen_pred_idx], AstExpr::Cmp { op: CmpOp::Eq, .. })
        })
        .map(|(_, p)| p)
        .collect();
    for p in residual {
        let compiled = compile(p, &table_schema, ctx.functions)?;
        (op, op_id) = prof.wrap(Box::new(Filter::new(op, compiled)), "Filter", vec![op_id]);
    }
    Ok((op, desc, op_id))
}

fn is_literal(e: &AstExpr) -> bool {
    matches!(e, AstExpr::Str(_) | AstExpr::Num(_) | AstExpr::Null)
}

/// The one matcher for sargable predicates: `column op literal` in either
/// spelling, as `(column, literal, op with the column on the left)`.
fn sargable(p: &AstExpr) -> Option<(&str, &AstExpr, CmpOp)> {
    let AstExpr::Cmp { op, lhs, rhs } = p else { return None };
    match (&**lhs, &**rhs) {
        (AstExpr::Column { name, .. }, lit) if is_literal(lit) => Some((name, lit, *op)),
        (lit, AstExpr::Column { name, .. }) if is_literal(lit) => Some((name, lit, op.flipped())),
        _ => None,
    }
}

fn literal_value(e: &AstExpr) -> Result<Value> {
    match e {
        AstExpr::Str(s) => Ok(Value::str(s.clone())),
        AstExpr::Num(n) => Ok(Value::Int(*n)),
        AstExpr::Null => Ok(Value::Null),
        other => Err(DbError::Plan(format!("{other:?} is not a literal"))),
    }
}

/// Crude selectivity estimates, in the spirit of System R defaults.
fn selectivity(p: &AstExpr, base: &BaseRef, stats: Option<&TableStats>) -> f64 {
    match p {
        AstExpr::Cmp { op: CmpOp::Eq, .. } => match (sargable(p).map(|(col, _, _)| col), stats) {
            (Some(c), Some(s)) => base.ordinal_of(c).map_or(0.1, |i| s.eq_selectivity(i)),
            _ => 0.1,
        },
        AstExpr::Cmp { .. } => 0.3,
        AstExpr::Like { .. } => 0.1,
        AstExpr::IsNull { .. } => 0.05,
        _ => 0.25,
    }
}

/// Call `f(qualifier, name)` for every column reference in `e`.
fn columns_of(e: &AstExpr, f: &mut dyn FnMut(Option<&str>, &str)) {
    match e {
        AstExpr::Column { qualifier, name } => f(qualifier.as_deref(), name),
        AstExpr::Str(_) | AstExpr::Num(_) | AstExpr::Null => {}
        AstExpr::Cmp { lhs, rhs, .. } | AstExpr::Arith { lhs, rhs, .. } => {
            columns_of(lhs, f);
            columns_of(rhs, f);
        }
        AstExpr::And(a, b) | AstExpr::Or(a, b) => {
            columns_of(a, f);
            columns_of(b, f);
        }
        AstExpr::Not(x) => columns_of(x, f),
        AstExpr::Like { expr, .. } | AstExpr::IsNull { expr, .. } => columns_of(expr, f),
        AstExpr::Func { args, .. } => args.iter().for_each(|a| columns_of(a, f)),
        AstExpr::Agg { arg, .. } => arg.iter().for_each(|a| columns_of(a, f)),
    }
}

/// Collect the FROM aliases referenced by an expression.
fn collect_aliases(e: &AstExpr, global: &[(String, String)], out: &mut Vec<String>) -> Result<()> {
    let mut result = Ok(());
    columns_of(e, &mut |qualifier, name| match qualifier {
        Some(q) => out.push(q.to_string()),
        None => {
            let lname = name.to_ascii_lowercase();
            let mut hits = global.iter().filter(|(c, _)| *c == lname).map(|(_, a)| a);
            match (hits.next(), hits.next()) {
                (Some(alias), None) => out.push(alias.clone()),
                (None, _) if result.is_ok() => {
                    result = Err(DbError::Plan(format!("unknown column {name:?}")));
                }
                (Some(_), Some(_)) if result.is_ok() => {
                    result = Err(DbError::Plan(format!("ambiguous column {name:?}")));
                }
                _ => {}
            }
        }
    });
    result
}

/// Gather from `e` the outermost scalar calls that read at least one
/// column and only columns `schema` binds, and that `schema` does not
/// carry yet. A call whose columns do not resolve is left for [`compile`]
/// to report.
fn collect_carried(
    e: &AstExpr,
    schema: &Schema,
    global: &[(String, String)],
    out: &mut Vec<AstExpr>,
) {
    let mut visit = |sub: &AstExpr| collect_carried(sub, schema, global, out);
    match e {
        AstExpr::Func { args, .. } => {
            let mut aliases = Vec::new();
            let bound = !e.has_aggregate()
                && collect_aliases(e, global, &mut aliases).is_ok()
                && !aliases.is_empty()
                && aliases.iter().all(|a| schema_has_alias(schema, a));
            if !bound {
                args.iter().for_each(visit);
            } else if !out.contains(e) && memo_of(schema, e).is_none() {
                out.push(e.clone());
            }
        }
        AstExpr::Column { .. } | AstExpr::Str(_) | AstExpr::Num(_) | AstExpr::Null => {}
        AstExpr::Cmp { lhs, rhs, .. } | AstExpr::Arith { lhs, rhs, .. } => {
            visit(lhs);
            visit(rhs);
        }
        AstExpr::And(a, b) | AstExpr::Or(a, b) => {
            visit(a);
            visit(b);
        }
        AstExpr::Not(x) => visit(x),
        AstExpr::Like { expr, .. } | AstExpr::IsNull { expr, .. } => visit(expr),
        AstExpr::Agg { arg, .. } => {
            if let Some(arg) = arg {
                visit(arg);
            }
        }
    }
}

/// The ordinal column and slot `schema` memoizes the call `e` on, if a
/// lateral unnest below carries it.
fn memo_of(schema: &Schema, e: &AstExpr) -> Option<(usize, MemoSlot)> {
    schema.0.iter().enumerate().find_map(|(i, b)| {
        let (_, slot) = b.carried.as_ref()?.iter().find(|(call, _)| call == e)?;
        Some((i, slot.clone()))
    })
}

/// Compile an AST expression against a schema.
fn compile(e: &AstExpr, schema: &Schema, fns: &FunctionRegistry) -> Result<Expr> {
    match e {
        AstExpr::Column { qualifier, name } => {
            Ok(Expr::col(schema.resolve(qualifier.as_deref(), name)?))
        }
        AstExpr::Str(s) => Ok(Expr::lit(s.as_str())),
        AstExpr::Num(n) => Ok(Expr::lit(*n)),
        AstExpr::Null => Ok(Expr::Literal(Value::Null)),
        AstExpr::Cmp { op, lhs, rhs } => Ok(Expr::Cmp {
            op: *op,
            lhs: Box::new(compile(lhs, schema, fns)?),
            rhs: Box::new(compile(rhs, schema, fns)?),
        }),
        AstExpr::And(a, b) => {
            Ok(Expr::And(Box::new(compile(a, schema, fns)?), Box::new(compile(b, schema, fns)?)))
        }
        AstExpr::Or(a, b) => {
            Ok(Expr::Or(Box::new(compile(a, schema, fns)?), Box::new(compile(b, schema, fns)?)))
        }
        AstExpr::Not(x) => Ok(Expr::Not(Box::new(compile(x, schema, fns)?))),
        AstExpr::Like { expr, pattern, negated } => Ok(Expr::Like {
            expr: Box::new(compile(expr, schema, fns)?),
            pattern: pattern.clone(),
            negated: *negated,
        }),
        AstExpr::IsNull { expr, negated } => {
            Ok(Expr::IsNull { expr: Box::new(compile(expr, schema, fns)?), negated: *negated })
        }
        AstExpr::Func { name, args } => {
            let def =
                fns.get(name).ok_or_else(|| DbError::Plan(format!("unknown function {name:?}")))?;
            let mut compiled = Vec::with_capacity(args.len());
            for a in args {
                compiled.push(compile(a, schema, fns)?);
            }
            let call = Expr::Func { def, args: compiled };
            Ok(match memo_of(schema, e) {
                Some((ordinal, slot)) => Expr::Memo { ordinal, call: Box::new(call), slot },
                None => call,
            })
        }
        AstExpr::Agg { .. } => Err(DbError::Plan("aggregate not allowed in this context".into())),
        AstExpr::Arith { op, lhs, rhs } => Ok(Expr::Arith {
            op: *op,
            lhs: Box::new(compile(lhs, schema, fns)?),
            rhs: Box::new(compile(rhs, schema, fns)?),
        }),
    }
}

fn compile_preds_at(
    preds: Option<&Vec<AstExpr>>,
    schema: &Schema,
    fns: &FunctionRegistry,
) -> Result<Option<Expr>> {
    let Some(preds) = preds else { return Ok(None) };
    let mut combined: Option<Expr> = None;
    for p in preds {
        let c = compile(p, schema, fns)?;
        combined = Some(match combined {
            Some(acc) => Expr::And(Box::new(acc), Box::new(c)),
            None => c,
        });
    }
    Ok(combined)
}

fn find_or_add_agg(
    e: &AstExpr,
    aggs: &mut Vec<AggCall>,
    agg_asts: &mut Vec<AstExpr>,
    schema: &Schema,
    ctx: &PlanContext<'_>,
) -> Result<usize> {
    if let Some(i) = agg_asts.iter().position(|a| a == e) {
        return Ok(i);
    }
    let AstExpr::Agg { func, arg, distinct } = e else {
        return Err(DbError::Plan("expected aggregate".into()));
    };
    let af = match (func.as_str(), distinct) {
        ("count", false) => AggFunc::Count,
        ("count", true) => AggFunc::CountDistinct,
        ("sum", false) => AggFunc::Sum,
        ("min", false) => AggFunc::Min,
        ("max", false) => AggFunc::Max,
        (f, true) => return Err(DbError::Plan(format!("DISTINCT not supported inside {f}"))),
        (f, _) => return Err(DbError::Plan(format!("unknown aggregate {f:?}"))),
    };
    let compiled_arg = match arg {
        Some(a) => Some(compile(a, schema, ctx.functions)?),
        None => None,
    };
    aggs.push(AggCall { func: af, arg: compiled_arg });
    agg_asts.push(e.clone());
    Ok(aggs.len() - 1)
}

fn agg_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Agg { func, arg: None, .. } => format!("{func}(*)"),
        AstExpr::Agg { func, distinct, .. } => {
            format!("{func}({})", if *distinct { "distinct" } else { "expr" })
        }
        _ => "agg".into(),
    }
}

fn ast_name(e: &AstExpr) -> String {
    match e {
        AstExpr::Column { name, .. } => name.clone(),
        AstExpr::Func { name, .. } => name.clone(),
        _ => "expr".into(),
    }
}
