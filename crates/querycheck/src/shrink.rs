//! Greedy minimization of a failing (documents, query) pair.
//!
//! Once the runner finds a mismatch, the shrinker repeatedly tries
//! smaller candidates — fewer documents, fewer conjuncts, fewer select
//! items — and keeps any candidate that still reproduces a mismatch in
//! the *same* (config, forcing) cell. Every probe rebuilds a fresh
//! single-config database from scratch, so shrinking is deterministic
//! and never contaminated by earlier state. The result is written as a
//! self-contained markdown repro under `target/querycheck/`.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use ordb::sql::ast::{AstExpr, FromItem, Select, SelectItem};
use ordb::{Database, DbOptions, PlanForcing};
use xorator::prelude::*;

use crate::data::{Corpus, SchemaInfo};
use crate::gen::render_select;
use crate::oracle;
use crate::runner::{compare, EngineConfig, Mismatch, Mutation};

static PROBE_SEQ: AtomicUsize = AtomicUsize::new(0);

/// A minimized failure, ready to file.
#[derive(Debug)]
pub struct Repro {
    /// Minimized documents (still reproduce the mismatch).
    pub docs: Vec<String>,
    /// Minimized query.
    pub query: Select,
    /// Mismatch detail from the final probe.
    pub detail: String,
    /// Where the repro file was written.
    pub path: PathBuf,
}

/// Re-run one (docs, query) candidate in the failing cell from scratch.
/// `Some(detail)` means the mismatch still reproduces; `None` means the
/// candidate is uninteresting (agrees, or fails to even load/plan).
pub fn probe(
    corpus: Corpus,
    algorithm: Algorithm,
    docs: &[String],
    q: &Select,
    cfg: EngineConfig,
    forcing: PlanForcing,
    mutation: Option<Mutation>,
) -> Option<String> {
    let mapping = corpus.mapping(algorithm);
    let info = SchemaInfo::build(mapping, docs).ok()?;
    let dir = std::env::temp_dir().join(format!(
        "querycheck-probe-{}-{}",
        std::process::id(),
        PROBE_SEQ.fetch_add(1, Ordering::Relaxed),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let result = probe_in(&dir, &info, docs, q, cfg, forcing, mutation);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn probe_in(
    dir: &PathBuf,
    info: &SchemaInfo,
    docs: &[String],
    q: &Select,
    cfg: EngineConfig,
    forcing: PlanForcing,
    mutation: Option<Mutation>,
) -> Option<String> {
    let db = Database::open_with(
        dir,
        DbOptions {
            pool_frames: cfg.pool_frames,
            mem_budget: cfg.mem_budget,
            ..DbOptions::default()
        },
    )
    .ok()?;
    load_corpus(
        &db,
        &info.mapping,
        docs,
        LoadOptions { policy: FormatPolicy::Plain, sample_docs: 0 },
    )
    .ok()?;
    use xorator::schema::ColumnKind;
    for t in &info.mapping.tables {
        for c in &t.columns {
            if matches!(c.kind, ColumnKind::Id | ColumnKind::ParentId | ColumnKind::ChildOrder) {
                db.create_index(
                    &format!("qc_{}_{}", t.name, c.name),
                    &t.name,
                    vec![c.name.clone()],
                )
                .ok()?;
            }
        }
    }
    db.runstats_all().ok()?;
    let reg = ordb::functions::FunctionRegistry::with_builtins();
    let expected = oracle::evaluate(q, &info.mapping, &info.tables, &reg);
    let mut got = db.session().with_forcing(forcing).query(&render_select(q)).map(|r| r.rows);
    if let (Ok(rows), Some(m)) = (&mut got, mutation) {
        m.apply(rows);
    }
    compare(&expected, &got)
}

/// Minimize `docs` then `query` against the mismatching cell and write
/// the repro file. The original pair must already reproduce.
pub fn shrink_and_report(
    corpus: Corpus,
    algorithm: Algorithm,
    seed: u64,
    docs: Vec<String>,
    query: Select,
    mismatch: &Mismatch,
    mutation: Option<Mutation>,
) -> std::io::Result<Repro> {
    let cfg = mismatch.engine_config;
    let forcing = mismatch.plan_forcing;
    let still = |d: &[String], q: &Select| probe(corpus, algorithm, d, q, cfg, forcing, mutation);

    let docs = shrink_docs(docs, &query, &still);
    let query = shrink_query(query, &docs, &still);
    let detail = still(&docs, &query).unwrap_or_else(|| mismatch.detail.clone());

    let dir = target_dir();
    std::fs::create_dir_all(&dir)?;
    let path =
        dir.join(format!("repro-{}-{}-seed{}.md", corpus.name(), algorithm_name(algorithm), seed));
    let mut out = String::new();
    out.push_str(&format!("# querycheck repro — {} / {:?}\n\n", corpus.name(), algorithm));
    out.push_str(&format!("- seed: `{seed}`\n"));
    out.push_str(&format!("- config: `{}`\n", cfg.describe()));
    out.push_str(&format!("- forcing: `{}`\n", forcing.describe()));
    if let Some(m) = mutation {
        out.push_str(&format!("- injected mutation: `{m:?}`\n"));
    }
    out.push_str(&format!("- mismatch: {detail}\n\n"));
    out.push_str("## Query\n\n```sql\n");
    out.push_str(&render_select(&query));
    out.push_str("\n```\n\n");
    out.push_str(&format!("## Documents ({})\n", docs.len()));
    for (i, d) in docs.iter().enumerate() {
        out.push_str(&format!("\n### doc {i}\n\n```xml\n{d}\n```\n"));
    }
    std::fs::write(&path, out)?;
    Ok(Repro { docs, query, detail, path })
}

fn algorithm_name(a: Algorithm) -> &'static str {
    match a {
        Algorithm::Hybrid => "hybrid",
        Algorithm::Xorator => "xorator",
    }
}

/// Workspace `target/querycheck/` (compile-time relative to this crate).
pub fn target_dir() -> PathBuf {
    match std::env::var_os("CARGO_TARGET_DIR") {
        Some(t) => PathBuf::from(t).join("querycheck"),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/querycheck"),
    }
}

/// Delta-debug the document list: drop halves first, then single docs.
fn shrink_docs(
    mut docs: Vec<String>,
    q: &Select,
    still: &dyn Fn(&[String], &Select) -> Option<String>,
) -> Vec<String> {
    // Halving pass.
    loop {
        if docs.len() <= 1 {
            break;
        }
        let mid = docs.len() / 2;
        if still(&docs[..mid], q).is_some() {
            docs.truncate(mid);
            continue;
        }
        if still(&docs[mid..], q).is_some() {
            docs.drain(..mid);
            continue;
        }
        break;
    }
    // Drop-one pass, to fixpoint.
    let mut changed = true;
    while changed && docs.len() > 1 {
        changed = false;
        let mut i = 0;
        while i < docs.len() && docs.len() > 1 {
            let mut cand = docs.clone();
            cand.remove(i);
            if still(&cand, q).is_some() {
                docs = cand;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    docs
}

/// Greedy structural minimization of the query, to fixpoint. Invalid
/// candidates (both sides error → "agreement") are rejected by the probe
/// automatically, so transformations don't need to preserve validity.
fn shrink_query(
    mut q: Select,
    docs: &[String],
    still: &dyn Fn(&[String], &Select) -> Option<String>,
) -> Select {
    let mut changed = true;
    while changed {
        changed = false;

        // Drop the WHERE clause, or individual conjuncts.
        if q.where_clause.is_some() {
            let mut cand = q.clone();
            cand.where_clause = None;
            if still(docs, &cand).is_some() {
                q = cand;
                changed = true;
            } else {
                let conjuncts = q.where_clause.clone().expect("checked").conjuncts();
                for i in 0..conjuncts.len() {
                    let mut rest = conjuncts.clone();
                    rest.remove(i);
                    let mut cand = q.clone();
                    cand.where_clause =
                        rest.into_iter().reduce(|a, b| AstExpr::And(Box::new(a), Box::new(b)));
                    if still(docs, &cand).is_some() {
                        q = cand;
                        changed = true;
                        break;
                    }
                }
            }
        }

        // Drop ORDER BY entirely, then key by key.
        if !q.order_by.is_empty() {
            let mut cand = q.clone();
            cand.order_by.clear();
            if still(docs, &cand).is_some() {
                q = cand;
                changed = true;
            } else {
                for i in 0..q.order_by.len() {
                    let mut cand = q.clone();
                    cand.order_by.remove(i);
                    if still(docs, &cand).is_some() {
                        q = cand;
                        changed = true;
                        break;
                    }
                }
            }
        }

        // Drop DISTINCT and LIMIT.
        if q.distinct {
            let mut cand = q.clone();
            cand.distinct = false;
            if still(docs, &cand).is_some() {
                q = cand;
                changed = true;
            }
        }
        if q.limit.is_some() {
            let mut cand = q.clone();
            cand.limit = None;
            if still(docs, &cand).is_some() {
                q = cand;
                changed = true;
            }
        }

        // Drop one GROUP BY key together with select items equal to it.
        for i in 0..q.group_by.len() {
            let key = q.group_by[i].clone();
            let mut cand = q.clone();
            cand.group_by.remove(i);
            cand.items.retain(|it| !matches!(it, SelectItem::Expr { expr, .. } if *expr == key));
            if !cand.items.is_empty() && still(docs, &cand).is_some() {
                q = cand;
                changed = true;
                break;
            }
        }

        // Drop select items (keep at least one).
        if q.items.len() > 1 {
            for i in 0..q.items.len() {
                let mut cand = q.clone();
                cand.items.remove(i);
                if still(docs, &cand).is_some() {
                    q = cand;
                    changed = true;
                    break;
                }
            }
        }

        // Drop FROM items whose alias is never referenced (and that no
        // later lateral depends on). Keep at least one.
        if q.from.len() > 1 {
            for i in (0..q.from.len()).rev() {
                let alias = q.from[i].alias();
                if is_referenced(&q, i, alias) {
                    continue;
                }
                let mut cand = q.clone();
                cand.from.remove(i);
                if still(docs, &cand).is_some() {
                    q = cand;
                    changed = true;
                    break;
                }
            }
        }
    }
    q
}

/// Does anything outside `q.from[idx]` reference `alias`? A `*` select
/// item references every FROM item.
fn is_referenced(q: &Select, idx: usize, alias: &str) -> bool {
    let mut exprs: Vec<&AstExpr> = Vec::new();
    for it in &q.items {
        match it {
            SelectItem::Wildcard => return true,
            SelectItem::QualifiedWildcard(a) if a.eq_ignore_ascii_case(alias) => return true,
            SelectItem::QualifiedWildcard(_) => {}
            SelectItem::Expr { expr, .. } => exprs.push(expr),
        }
    }
    if let Some(w) = &q.where_clause {
        exprs.push(w);
    }
    exprs.extend(q.group_by.iter());
    exprs.extend(q.order_by.iter().map(|(e, _)| e));
    for (j, item) in q.from.iter().enumerate() {
        if j == idx {
            continue;
        }
        if let FromItem::TableFunction { args, .. } = item {
            exprs.extend(args.iter());
        }
    }
    exprs.iter().any(|e| mentions(e, alias))
}

fn mentions(e: &AstExpr, alias: &str) -> bool {
    match e {
        AstExpr::Column { qualifier, .. } => qualifier.as_deref() == Some(alias),
        AstExpr::Str(_) | AstExpr::Num(_) | AstExpr::Null => false,
        AstExpr::Cmp { lhs, rhs, .. } | AstExpr::Arith { lhs, rhs, .. } => {
            mentions(lhs, alias) || mentions(rhs, alias)
        }
        AstExpr::And(a, b) | AstExpr::Or(a, b) => mentions(a, alias) || mentions(b, alias),
        AstExpr::Not(x) => mentions(x, alias),
        AstExpr::Like { expr, .. } | AstExpr::IsNull { expr, .. } => mentions(expr, alias),
        AstExpr::Func { args, .. } => args.iter().any(|a| mentions(a, alias)),
        AstExpr::Agg { arg, .. } => arg.as_deref().is_some_and(|a| mentions(a, alias)),
    }
}
