//! Grouping, aggregation, and duplicate elimination.
//!
//! Both blocking operators here ([`HashAggregate`], [`Distinct`]) honour
//! an optional [`SpillConfig`] memory budget with a partition-and-retry
//! scheme: when the in-memory working set overflows, input not yet
//! absorbed is hash-partitioned into spill files and each partition is
//! re-processed by a sub-operator one level deeper ([`Partitioned`]).
//! Without a budget they hold everything in memory.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::storage::spill::{Partitioned, Partitioner, SpillConfig};
use crate::tuple::encoded_len;
use crate::types::{Row, Value};

/// Supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` (argument ignored) or `COUNT(expr)` (non-NULLs).
    Count,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM(expr)` over integers.
    Sum,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
}

/// One aggregate call in the select list.
pub struct AggCall {
    /// Which function.
    pub func: AggFunc,
    /// Argument (`None` only for `COUNT(*)`).
    pub arg: Option<Expr>,
}

/// Rough heap footprint of one [`AggState`], used for budget accounting
/// (variable-size state growth is reported by [`AggState::update`]).
const AGG_STATE_BYTES: usize = 32;

enum AggState {
    Count(i64),
    CountDistinct(HashSet<Value>),
    Sum(Option<i64>),
    Min(Option<Value>),
    Max(Option<Value>),
}

impl AggState {
    fn new(f: AggFunc) -> AggState {
        match f {
            AggFunc::Count => AggState::Count(0),
            AggFunc::CountDistinct => AggState::CountDistinct(HashSet::new()),
            AggFunc::Sum => AggState::Sum(None),
            AggFunc::Min => AggState::Min(None),
            AggFunc::Max => AggState::Max(None),
        }
    }

    /// Fold `v` in, returning the bytes of state growth when `account`
    /// is set (only `COUNT(DISTINCT)` retains per-value memory).
    fn update(&mut self, v: Option<Value>, account: bool) -> Result<usize> {
        match self {
            AggState::Count(n) => {
                // COUNT(*) passes None; COUNT(expr) passes Some(v) and
                // counts only non-NULL values.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    Some(_) => {}
                }
            }
            AggState::CountDistinct(set) => {
                if let Some(val) = v {
                    if !val.is_null() {
                        let grow =
                            if account { encoded_len(std::slice::from_ref(&val)) } else { 0 };
                        if set.insert(val) {
                            return Ok(grow);
                        }
                    }
                }
            }
            AggState::Sum(acc) => {
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
            AggState::Min(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val < *a) {
                        *acc = Some(val);
                    }
                }
            }
            AggState::Max(acc) => {
                if let Some(val) = v {
                    if !val.is_null() && acc.as_ref().is_none_or(|a| val > *a) {
                        *acc = Some(val);
                    }
                }
            }
        }
        Ok(0)
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::CountDistinct(set) => Value::Int(set.len() as i64),
            AggState::Sum(acc) => acc.map_or(Value::Null, Value::Int),
            AggState::Min(acc) | AggState::Max(acc) => acc.unwrap_or(Value::Null),
        }
    }
}

/// Hash aggregation: output rows are `group values ++ aggregate values`.
/// With no group keys a single global group is produced (even on empty
/// input, per SQL).
///
/// Spilling is hybrid: groups resident when the budget fills keep
/// absorbing their rows in place; rows of *new* keys are hash-partitioned
/// to disk and each partition is aggregated recursively. A key is thus
/// finalized exactly once — either resident or in exactly one partition —
/// so spilled results equal in-memory results up to group order (resident
/// groups first, then per-partition first-seen order).
pub struct HashAggregate {
    child: Option<BoxOp>,
    group_exprs: Arc<Vec<Expr>>,
    aggs: Arc<Vec<AggCall>>,
    spill: Option<SpillConfig>,
    output: std::vec::IntoIter<Row>,
    /// Overflow partitions still to aggregate, once built.
    grace: Option<Partitioned<1>>,
    built: bool,
}

impl HashAggregate {
    /// Group `child` by `group_exprs` and compute `aggs` per group,
    /// within `spill`'s budget when there is one. A global aggregate (no
    /// group keys) holds one row and never spills.
    pub fn new(
        child: BoxOp,
        group_exprs: Vec<Expr>,
        aggs: Vec<AggCall>,
        spill: Option<SpillConfig>,
    ) -> HashAggregate {
        let spill = spill.filter(|_| !group_exprs.is_empty());
        Self::open(child, Arc::new(group_exprs), Arc::new(aggs), spill)
    }

    fn open(
        child: BoxOp,
        group_exprs: Arc<Vec<Expr>>,
        aggs: Arc<Vec<AggCall>>,
        spill: Option<SpillConfig>,
    ) -> HashAggregate {
        HashAggregate {
            child: Some(child),
            group_exprs,
            aggs,
            spill,
            output: Vec::new().into_iter(),
            grace: None,
            built: false,
        }
    }

    fn build(&mut self) -> Result<()> {
        let mut child = self.child.take().expect("build once");
        let mut groups: HashMap<Vec<Value>, Vec<AggState>> = HashMap::new();
        // Preserve first-seen group order for deterministic output.
        let mut order: Vec<Vec<Value>> = Vec::new();
        let account = self.spill.is_some();
        let mut bytes = 0usize;
        // Armed on overflow; from then on rows of non-resident keys are
        // scattered to these partitions instead of growing `groups`.
        let mut overflow: Option<Partitioner> = None;
        while let Some(row) = child.next()? {
            let mut key = Vec::with_capacity(self.group_exprs.len());
            for e in self.group_exprs.iter() {
                key.push(e.eval(&row)?);
            }
            let states = match groups.get_mut(&key) {
                Some(s) => s,
                None => {
                    if let Some(parts) = overflow.as_mut() {
                        // Resident set is frozen: defer this key's rows.
                        parts.add(&key, &row)?;
                        continue;
                    }
                    if account {
                        bytes += encoded_len(&key) + AGG_STATE_BYTES * self.aggs.len();
                    }
                    order.push(key.clone());
                    groups.entry(key).or_insert_with(|| {
                        self.aggs.iter().map(|a| AggState::new(a.func)).collect()
                    })
                }
            };
            for (state, call) in states.iter_mut().zip(self.aggs.iter()) {
                let v = match &call.arg {
                    Some(e) => Some(e.eval(&row)?),
                    None => None,
                };
                bytes += state.update(v, account)?;
            }
            if let Some(spill) = &self.spill {
                if overflow.is_none() && spill.over(bytes) {
                    crate::metrics::count(|c| c.engine.agg_spills += 1);
                    overflow = Some(spill.partitioner()?);
                }
            }
        }
        if let Some(parts) = overflow {
            let spill = self.spill.as_ref().expect("only a budgeted aggregate overflows");
            let (group_exprs, aggs) = (self.group_exprs.clone(), self.aggs.clone());
            let open = move |[rows]: [BoxOp; 1], spill| -> BoxOp {
                Box::new(HashAggregate::open(rows, group_exprs.clone(), aggs.clone(), spill))
            };
            self.grace = Some(Partitioned::new(spill, [parts], open)?);
        }
        if groups.is_empty() && self.group_exprs.is_empty() {
            // Global aggregate over empty input still yields one row.
            order.push(Vec::new());
            groups.insert(Vec::new(), self.aggs.iter().map(|a| AggState::new(a.func)).collect());
        }
        let mut out = Vec::with_capacity(order.len());
        for key in order {
            let states = groups.remove(&key).expect("tracked group");
            let mut row = key;
            row.extend(states.into_iter().map(AggState::finish));
            out.push(row);
        }
        self.output = out.into_iter();
        self.built = true;
        Ok(())
    }
}

impl Operator for HashAggregate {
    fn next(&mut self) -> Result<Option<Row>> {
        if !self.built {
            self.build()?;
        }
        if let Some(row) = self.output.next() {
            return Ok(Some(row));
        }
        match &mut self.grace {
            Some(grace) => grace.next(),
            None => Ok(None),
        }
    }

    fn name(&self) -> &'static str {
        "HashAggregate"
    }
}

/// Rough heap footprint of one seen-set entry beyond its encoded bytes.
const SEEN_ENTRY_BYTES: usize = 16;

/// Hash-based duplicate elimination over whole rows.
///
/// Streams while the seen-set fits the budget. On overflow the seen
/// rows are spilled with an "already emitted" marker and the remaining
/// input follows, hash-partitioned by row; each partition is then
/// deduplicated recursively — marked rows suppress re-emission but
/// still participate in dedup, so every distinct row is emitted exactly
/// once.
pub struct Distinct {
    child: BoxOp,
    seen: HashSet<Row>,
    bytes: usize,
    spill: Option<SpillConfig>,
    /// Rows from `child` carry a leading emitted-marker column (true for
    /// the recursive partition passes).
    flagged: bool,
    /// Set on overflow: the partitions still to deduplicate.
    grace: Option<Partitioned<1>>,
}

impl Distinct {
    /// Deduplicate `child`, within `spill`'s budget when there is one.
    pub fn new(child: BoxOp, spill: Option<SpillConfig>) -> Distinct {
        Self::open(child, spill, false)
    }

    fn open(child: BoxOp, spill: Option<SpillConfig>, flagged: bool) -> Distinct {
        Distinct { child, seen: HashSet::new(), bytes: 0, spill, flagged, grace: None }
    }

    /// Spill the seen-set (marked emitted) and the rest of the input
    /// (original markers) into hash partitions, then arm `grace`.
    fn overflow(&mut self) -> Result<()> {
        let spill = self.spill.as_ref().expect("only a budgeted DISTINCT overflows");
        crate::metrics::count(|c| c.engine.agg_spills += 1);
        let mut parts = spill.partitioner()?;
        let mut rec: Row = Vec::new();
        let mut write = |emitted: bool, row: &[Value]| {
            rec.clear();
            rec.push(Value::Int(emitted as i64));
            rec.extend(row.iter().cloned());
            parts.add(row, &rec)
        };
        for row in self.seen.drain() {
            write(true, &row)?;
        }
        self.bytes = 0;
        while let Some(row) = self.child.next()? {
            let (emitted, payload) = split_flag(row, self.flagged);
            write(emitted, &payload)?;
        }
        let open =
            |[rows]: [BoxOp; 1], spill| -> BoxOp { Box::new(Distinct::open(rows, spill, true)) };
        self.grace = Some(Partitioned::new(spill, [parts], open)?);
        Ok(())
    }
}

/// Split the leading emitted-marker column off `row` when present.
fn split_flag(mut row: Row, flagged: bool) -> (bool, Row) {
    if flagged {
        let payload = row.split_off(1);
        (row[0] == Value::Int(1), payload)
    } else {
        (false, row)
    }
}

impl Operator for Distinct {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(grace) = &mut self.grace {
                return grace.next();
            }
            let Some(row) = self.child.next()? else {
                return Ok(None);
            };
            let (emitted, payload) = split_flag(row, self.flagged);
            if self.seen.contains(&payload) {
                continue;
            }
            let mut over = false;
            if let Some(spill) = &self.spill {
                self.bytes += encoded_len(&payload) + SEEN_ENTRY_BYTES;
                over = spill.over(self.bytes);
            }
            self.seen.insert(payload.clone());
            if over {
                // The row that tipped the budget goes to disk with the
                // seen-set, marked emitted: emit it now if it was fresh.
                self.overflow()?;
            }
            if !emitted {
                return Ok(Some(payload));
            }
        }
    }

    fn name(&self) -> &'static str {
        "Distinct"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::storage::spill::{partition_of, SpillManager, MAX_SPILL_DEPTH, SPILL_FANOUT};

    fn rows() -> BoxOp {
        Box::new(Values::new(vec![
            vec![Value::str("a"), Value::Int(1)],
            vec![Value::str("b"), Value::Int(2)],
            vec![Value::str("a"), Value::Int(3)],
            vec![Value::str("a"), Value::Null],
            vec![Value::str("b"), Value::Int(2)],
        ]))
    }

    #[test]
    fn count_star_and_count_expr() {
        let op = HashAggregate::new(
            rows(),
            vec![Expr::col(0)],
            vec![
                AggCall { func: AggFunc::Count, arg: None },
                AggCall { func: AggFunc::Count, arg: Some(Expr::col(1)) },
            ],
            None,
        );
        let mut out = collect(Box::new(op)).unwrap();
        out.sort_by(|a, b| a[0].cmp(&b[0]));
        assert_eq!(out[0], vec![Value::str("a"), Value::Int(3), Value::Int(2)]);
        assert_eq!(out[1], vec![Value::str("b"), Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn count_distinct_sum_min_max() {
        let op = HashAggregate::new(
            rows(),
            vec![],
            vec![
                AggCall { func: AggFunc::CountDistinct, arg: Some(Expr::col(0)) },
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)) },
            ],
            None,
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(2), Value::Int(8), Value::Int(1), Value::Int(3)]]);
    }

    #[test]
    fn global_aggregate_on_empty_input() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![])),
            vec![],
            vec![AggCall { func: AggFunc::Count, arg: None }],
            None,
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(0)]]);
    }

    #[test]
    fn grouped_aggregate_on_empty_input_is_empty() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![])),
            vec![Expr::col(0)],
            vec![AggCall { func: AggFunc::Count, arg: None }],
            None,
        );
        assert!(collect(Box::new(op)).unwrap().is_empty());
    }

    #[test]
    fn distinct_dedups() {
        let out = collect(Box::new(Distinct::new(rows(), None))).unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn sum_overflow_is_an_error_not_a_panic() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![vec![Value::Int(i64::MAX)], vec![Value::Int(1)]])),
            vec![],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(0)) }],
            None,
        );
        let err = collect(Box::new(op)).unwrap_err();
        assert!(matches!(&err, DbError::Exec(m) if m == "SUM overflow"), "{err}");
    }

    #[test]
    fn sum_at_i64_max_without_overflow_is_fine() {
        let op = HashAggregate::new(
            Box::new(Values::new(vec![vec![Value::Int(i64::MAX - 1)], vec![Value::Int(1)]])),
            vec![],
            vec![AggCall { func: AggFunc::Sum, arg: Some(Expr::col(0)) }],
            None,
        );
        let out = collect(Box::new(op)).unwrap();
        assert_eq!(out, vec![vec![Value::Int(i64::MAX)]]);
    }

    fn spill_config(tag: &str, budget: usize) -> SpillConfig {
        let dir = std::env::temp_dir().join(format!("ordb-agg-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SpillConfig::new(budget, Arc::new(SpillManager::new(dir)))
    }

    fn many_rows() -> Vec<Row> {
        (0..400)
            .map(|i| vec![Value::str(format!("group-{:02}", i % 37)), Value::Int(i % 7)])
            .collect()
    }

    #[test]
    fn spilled_aggregate_matches_in_memory() {
        let aggs = || {
            vec![
                AggCall { func: AggFunc::Count, arg: None },
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::CountDistinct, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Min, arg: Some(Expr::col(1)) },
                AggCall { func: AggFunc::Max, arg: Some(Expr::col(1)) },
            ]
        };
        let mut in_mem = collect(Box::new(HashAggregate::new(
            Box::new(Values::new(many_rows())),
            vec![Expr::col(0)],
            aggs(),
            None,
        )))
        .unwrap();
        for budget in [128usize, 512, 2048] {
            let cfg = spill_config(&format!("agg-{budget}"), budget);
            let manager = cfg.manager.clone();
            let mut spilled = collect(Box::new(HashAggregate::new(
                Box::new(Values::new(many_rows())),
                vec![Expr::col(0)],
                aggs(),
                Some(cfg),
            )))
            .unwrap();
            // Group order differs between the two paths; compare sorted.
            in_mem.sort_by(|a, b| a[0].cmp(&b[0]));
            spilled.sort_by(|a, b| a[0].cmp(&b[0]));
            assert_eq!(spilled, in_mem, "budget {budget}");
            assert_eq!(manager.live_files(), 0, "spill files must be gone, budget {budget}");
        }
    }

    #[test]
    fn spilled_distinct_matches_in_memory() {
        let rows: Vec<Row> = (0..500)
            .map(|i| vec![Value::Int(i % 91), Value::str(format!("v{}", i % 13))])
            .collect();
        let mut in_mem =
            collect(Box::new(Distinct::new(Box::new(Values::new(rows.clone())), None))).unwrap();
        for budget in [64usize, 256, 1024] {
            let cfg = spill_config(&format!("distinct-{budget}"), budget);
            let manager = cfg.manager.clone();
            let mut spilled =
                collect(Box::new(Distinct::new(Box::new(Values::new(rows.clone())), Some(cfg))))
                    .unwrap();
            assert_eq!(spilled.len(), in_mem.len(), "budget {budget}");
            in_mem.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            spilled.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            assert_eq!(spilled, in_mem, "budget {budget}");
            assert_eq!(manager.live_files(), 0, "budget {budget}");
        }
    }

    /// Spill files an aggregate under a zero budget creates over `keys`
    /// (distinct group keys in first-seen order) at `depth`: every level
    /// below `cap` keeps its first key resident and partitions the rest.
    fn files_created_model(keys: &[Vec<Value>], depth: usize, cap: usize) -> u64 {
        if depth == cap {
            return 0;
        }
        let mut parts = vec![Vec::new(); SPILL_FANOUT];
        for key in &keys[1..] {
            parts[partition_of(key, depth)].push(key.clone());
        }
        let deeper = parts.iter().filter(|p| !p.is_empty());
        SPILL_FANOUT as u64 + deeper.map(|p| files_created_model(p, depth + 1, cap)).sum::<u64>()
    }

    #[test]
    fn groups_overflowing_every_level_stop_partitioning_at_the_depth_cap() {
        // 1 000 groups, each over the budget on its own: every aggregate
        // above the cap holds one group and partitions the others.
        let rows: Vec<Row> = (0..3000).map(|i| vec![Value::Int(i % 1000), Value::Int(i)]).collect();
        let aggs = || {
            vec![
                AggCall { func: AggFunc::Count, arg: None },
                AggCall { func: AggFunc::Sum, arg: Some(Expr::col(1)) },
            ]
        };
        let agg = |spill| -> BoxOp {
            Box::new(HashAggregate::new(
                Box::new(Values::new(rows.clone())),
                vec![Expr::col(0)],
                aggs(),
                spill,
            ))
        };
        let mut in_mem = collect(agg(None)).unwrap();
        let keys: Vec<Vec<Value>> = in_mem.iter().map(|r| vec![r[0].clone()]).collect();
        let cfg = spill_config("skew", 0);
        let manager = cfg.manager.clone();
        let mut spilled = collect(agg(Some(cfg))).unwrap();
        in_mem.sort();
        spilled.sort();
        assert_eq!(spilled, in_mem);
        let capped = files_created_model(&keys, 0, MAX_SPILL_DEPTH);
        assert!(
            capped < files_created_model(&keys, 0, MAX_SPILL_DEPTH + 1),
            "partitions at the cap must still hold more than one group"
        );
        assert_eq!(manager.files_created(), capped);
        assert_eq!(manager.live_files(), 0, "spill files must be gone after the aggregate");
    }
}
