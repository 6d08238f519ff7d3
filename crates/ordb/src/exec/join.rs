//! Join operators: block nested-loop, index nested-loop and hash — the
//! O(n²) and O(n) cost regimes the paper discusses in §4.4, plus the
//! index probe that makes the parent-ID joins of the Hybrid mapping cheap.
//!
//! All builds are **lazy**: constructing an operator does no I/O. The
//! build side (materialized inner, hash table) is produced on the first
//! `next()` call, so `EXPLAIN` — which constructs a plan only to print it
//! — touches zero pages.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::Result;
use crate::exec::{BoxOp, Operator};
use crate::expr::Expr;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::storage::heap::HeapFile;
use crate::storage::spill::{Partitioned, Partitioner, SpillConfig, SPILL_FANOUT};
use crate::tuple::{decode_cols, encoded_len};
use crate::txn::Snapshot;
use crate::types::{Row, Value};

/// Inner join with the inner side materialized; optional predicate applied
/// to the concatenated row. With no predicate this is a cross product.
pub struct NestedLoopJoin {
    outer: BoxOp,
    /// Unconsumed inner child; taken and collected on first `next()`.
    inner: Option<BoxOp>,
    inner_rows: Vec<Row>,
    predicate: Option<Expr>,
    current_outer: Option<Row>,
    inner_pos: usize,
}

impl NestedLoopJoin {
    /// Join `outer` with `inner` (materialized on first `next()`).
    pub fn new(outer: BoxOp, inner: BoxOp, predicate: Option<Expr>) -> NestedLoopJoin {
        NestedLoopJoin {
            outer,
            inner: Some(inner),
            inner_rows: Vec::new(),
            predicate,
            current_outer: None,
            inner_pos: 0,
        }
    }
}

impl Operator for NestedLoopJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(inner) = self.inner.take() {
            self.inner_rows = crate::exec::collect(inner)?;
        }
        loop {
            if self.current_outer.is_none() {
                self.current_outer = self.outer.next()?;
                self.inner_pos = 0;
                if self.current_outer.is_none() {
                    return Ok(None);
                }
            }
            let outer = self.current_outer.as_ref().expect("set above");
            while self.inner_pos < self.inner_rows.len() {
                let inner = &self.inner_rows[self.inner_pos];
                self.inner_pos += 1;
                let joined = join_rows(outer, inner, None);
                match &self.predicate {
                    Some(p) if !p.eval(&joined)?.is_true() => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            self.current_outer = None;
        }
    }

    fn name(&self) -> &'static str {
        "NestedLoopJoin"
    }
}

/// Index nested-loop join: for each outer row, probe the inner table's
/// B+Tree with the outer join-key values and fetch matching inner rows.
pub struct IndexNestedLoopJoin {
    outer: BoxOp,
    inner_heap: Arc<HeapFile>,
    inner_index: Arc<BTree>,
    /// Ordinals of the inner table's columns to decode, ascending.
    inner_cols: Vec<usize>,
    /// Expressions over the *outer* row producing the probe key values.
    outer_keys: Vec<Expr>,
    /// Residual predicate over the concatenated row.
    residual: Option<Expr>,
    /// MVCC snapshot filtering the fetched inner versions.
    snapshot: Snapshot,
    current_outer: Option<Row>,
    pending: std::vec::IntoIter<Row>,
}

impl IndexNestedLoopJoin {
    /// Build the operator.
    pub fn new(
        outer: BoxOp,
        inner_heap: Arc<HeapFile>,
        inner_index: Arc<BTree>,
        inner_cols: Vec<usize>,
        outer_keys: Vec<Expr>,
        residual: Option<Expr>,
        snapshot: Snapshot,
    ) -> IndexNestedLoopJoin {
        IndexNestedLoopJoin {
            outer,
            inner_heap,
            inner_index,
            inner_cols,
            outer_keys,
            residual,
            snapshot,
            current_outer: None,
            pending: Vec::new().into_iter(),
        }
    }
}

impl Operator for IndexNestedLoopJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(inner) = self.pending.next() {
                let outer = self.current_outer.as_ref().expect("outer set");
                let joined = join_rows(outer, &inner, None);
                match &self.residual {
                    Some(p) if !p.eval(&joined)?.is_true() => continue,
                    _ => return Ok(Some(joined)),
                }
            }
            let Some(outer) = self.outer.next()? else {
                return Ok(None);
            };
            let mut key_vals = Vec::with_capacity(self.outer_keys.len());
            let mut has_null = false;
            for e in &self.outer_keys {
                let v = e.eval(&outer)?;
                has_null |= v.is_null();
                key_vals.push(v);
            }
            if has_null {
                // NULL never equi-joins.
                self.pending = Vec::new().into_iter();
                self.current_outer = Some(outer);
                continue;
            }
            let prefix = encode_key(&key_vals);
            let rids = self.inner_index.scan_prefix(&prefix)?;
            let mut rows = Vec::with_capacity(rids.len());
            for rid in rids {
                // Skip dangling entries (rolled-back inserts) and
                // versions invisible to this snapshot.
                let Some(v) = self.inner_heap.get_versioned(rid)? else {
                    continue;
                };
                if !self.snapshot.visible(v.xmin, v.xmax) {
                    continue;
                }
                rows.push(decode_cols(&v.body, self.inner_cols.iter().copied())?);
            }
            self.current_outer = Some(outer);
            self.pending = rows.into_iter();
        }
    }

    fn name(&self) -> &'static str {
        "IndexNestedLoopJoin"
    }
}

/// A NULL-free join key. One integer — every join edge of both paper
/// schemas — is held as such: no allocation per build or probe row, and
/// sixteen bytes to hash.
#[derive(PartialEq, Eq, Hash)]
enum JoinKey {
    Int(i64),
    Values(Vec<Value>),
}

impl JoinKey {
    /// Evaluate `keys` against `row`; `None` when any value is NULL
    /// (NULL never equi-joins).
    fn of(keys: &[Expr], row: &[Value]) -> Result<Option<JoinKey>> {
        if let [key] = keys {
            let v = key.eval_ref(row)?;
            return Ok(match *v {
                Value::Null => None,
                Value::Int(i) => Some(JoinKey::Int(i)),
                _ => Some(JoinKey::Values(vec![v.into_owned()])),
            });
        }
        let mut values = Vec::with_capacity(keys.len());
        for e in keys {
            let v = e.eval(row)?;
            if v.is_null() {
                return Ok(None);
            }
            values.push(v);
        }
        Ok(Some(JoinKey::Values(values)))
    }

    /// What [`encoded_len`] says of the key's values.
    fn encoded_len(&self) -> usize {
        match self {
            JoinKey::Int(_) => 9,
            JoinKey::Values(v) => encoded_len(v),
        }
    }
}

/// Write `row` to the partition of its key under `keys`; a row with a
/// NULL key goes nowhere.
fn scatter(parts: &mut Partitioner, keys: &[Expr], row: &[Value]) -> Result<()> {
    match JoinKey::of(keys, row)? {
        Some(JoinKey::Int(i)) => parts.add(&[Value::Int(i)], row),
        Some(JoinKey::Values(v)) => parts.add(&v, row),
        None => Ok(()),
    }
}

/// Which columns of its `left ++ right` output a join emits: positions
/// into the left row, then positions into the right row.
pub type JoinEmit = (Vec<usize>, Vec<usize>);

/// `left ++ right`, or of that only the columns `emit` lists.
fn join_rows(left: &[Value], right: &[Value], emit: Option<&JoinEmit>) -> Row {
    match emit {
        None => [left, right].concat(),
        Some((l, r)) => {
            let mut out = Vec::with_capacity(l.len() + r.len());
            out.extend(l.iter().map(|&i| left[i].clone()));
            out.extend(r.iter().map(|&i| right[i].clone()));
            out
        }
    }
}

/// End of a build-row chain (an index no arena reaches).
const NO_ROW: usize = usize::MAX;

/// The build side of a hash join, filled in one pass: each row goes into
/// an arena in arrival order, linked to the previous row of its key; the
/// table maps a key to the first and last row of its chain. A probe
/// match walks the chain — per key in build-arrival order — with no
/// per-probe copy of the matched row group.
#[derive(Default)]
struct BuildTable {
    /// Build rows, each with the arena index of the next row of the same
    /// key ([`NO_ROW`] ends the chain).
    entries: Vec<(Row, usize)>,
    table: HashMap<JoinKey, (usize, usize)>,
}

impl BuildTable {
    fn insert(&mut self, key: JoinKey, row: Row) {
        let idx = self.entries.len();
        self.entries.push((row, NO_ROW));
        match self.table.entry(key) {
            Entry::Occupied(mut chain) => {
                let (_, last) = chain.get_mut();
                self.entries[*last].1 = idx;
                *last = idx;
            }
            Entry::Vacant(slot) => {
                slot.insert((idx, idx));
            }
        }
    }

    /// Arena index of the first row of `key`, [`NO_ROW`] if it has none.
    fn first(&self, key: &JoinKey) -> usize {
        self.table.get(key).map_or(NO_ROW, |&(first, _)| first)
    }
}

/// Hash join: build a hash table on the build side's keys, stream the
/// probe side. Output rows are `probe ++ build` or `build ++ probe`
/// depending on `probe_is_left` — or, after [`HashJoin::emitting`], only
/// the columns of that which the plan above still reads.
///
/// The build is one pass into a `BuildTable`.
///
/// With a [`SpillConfig`] whose budget the build side exceeds, the
/// operator switches to a Grace hash join: both inputs are partitioned
/// by their join key (`storage::spill::Partitioned`) and each (build,
/// probe) partition pair is joined by a sub-join one level deeper. NULL
/// keys never equi-join, so both partitioning passes drop them, same as
/// the in-memory build.
pub struct HashJoin {
    /// Unconsumed probe child; taken when Grace partitioning drains it.
    probe: Option<BoxOp>,
    /// Unconsumed build child; taken and hashed on first `next()`.
    build: Option<BoxOp>,
    /// What to join on and what to emit; shared with Grace sub-joins.
    spec: Arc<JoinSpec>,
    spill: Option<SpillConfig>,
    built: BuildTable,
    /// Set when the build overflowed: the partition pairs still to join.
    grace: Option<Partitioned<2>>,
    current_probe: Option<Row>,
    /// Arena index of the current probe row's next match.
    pending: usize,
}

struct JoinSpec {
    probe_keys: Vec<Expr>,
    build_keys: Vec<Expr>,
    /// Checked on the whole `left ++ right` row.
    residual: Option<Expr>,
    emit: Option<JoinEmit>,
    probe_is_left: bool,
}

impl HashJoin {
    /// Join `probe` against `build` (hashed by `build_keys` on first
    /// `next()`), streaming `probe` with `probe_keys`, within `spill`'s
    /// budget when there is one.
    pub fn new(
        probe: BoxOp,
        build: BoxOp,
        probe_keys: Vec<Expr>,
        build_keys: Vec<Expr>,
        residual: Option<Expr>,
        probe_is_left: bool,
        spill: Option<SpillConfig>,
    ) -> HashJoin {
        let spec = JoinSpec { probe_keys, build_keys, residual, emit: None, probe_is_left };
        Self::open(probe, build, Arc::new(spec), spill)
    }

    /// Emit only the listed columns of the `left ++ right` row.
    pub fn emitting(mut self, emit: JoinEmit) -> HashJoin {
        Arc::get_mut(&mut self.spec).expect("a join is configured before it first runs").emit =
            Some(emit);
        self
    }

    fn open(
        probe: BoxOp,
        build: BoxOp,
        spec: Arc<JoinSpec>,
        spill: Option<SpillConfig>,
    ) -> HashJoin {
        HashJoin {
            probe: Some(probe),
            build: Some(build),
            spec,
            spill,
            built: BuildTable::default(),
            grace: None,
            current_probe: None,
            pending: NO_ROW,
        }
    }

    /// Drain the build child. Either fills the in-memory table, or — if
    /// the budget overflows mid-drain — partitions both sides to disk and
    /// arms `self.grace`.
    fn start(&mut self, mut build: BoxOp) -> Result<()> {
        let spec = self.spec.clone();
        let mut bytes = 0usize;
        while let Some(row) = build.next()? {
            let Some(key) = JoinKey::of(&spec.build_keys, &row)? else { continue };
            let mut over = false;
            if let Some(spill) = &self.spill {
                bytes += key.encoded_len() + encoded_len(&row);
                over = spill.over(bytes);
            }
            self.built.insert(key, row);
            if over {
                return self.partition(build);
            }
        }
        Ok(())
    }

    /// Scatter the build side — what the table holds, then the rest of
    /// `build` — and the whole probe side into partitions.
    fn partition(&mut self, mut build: BoxOp) -> Result<()> {
        let spill = self.spill.as_ref().expect("only a budgeted join partitions");
        crate::metrics::count(|c| c.engine.join_partitions += SPILL_FANOUT as u64);
        let spec = self.spec.clone();
        let mut build_parts = spill.partitioner()?;
        for (row, _) in std::mem::take(&mut self.built).entries {
            scatter(&mut build_parts, &spec.build_keys, &row)?;
        }
        while let Some(row) = build.next()? {
            scatter(&mut build_parts, &spec.build_keys, &row)?;
        }
        let mut probe = self.probe.take().expect("probe not yet consumed");
        let mut probe_parts = spill.partitioner()?;
        while let Some(row) = probe.next()? {
            scatter(&mut probe_parts, &spec.probe_keys, &row)?;
        }
        let open = move |[build, probe]: [BoxOp; 2], spill| -> BoxOp {
            Box::new(HashJoin::open(probe, build, spec.clone(), spill))
        };
        self.grace = Some(Partitioned::new(spill, [build_parts, probe_parts], open)?);
        Ok(())
    }
}

impl Operator for HashJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(build) = self.build.take() {
            self.start(build)?;
        }
        if let Some(grace) = &mut self.grace {
            return grace.next();
        }
        loop {
            if let Some((build_row, next)) = self.built.entries.get(self.pending) {
                self.pending = *next;
                let probe_row = self.current_probe.as_ref().expect("probe set");
                let spec = &*self.spec;
                let (left, right) = if spec.probe_is_left {
                    (probe_row, build_row)
                } else {
                    (build_row, probe_row)
                };
                if let Some(p) = &spec.residual {
                    if !p.eval(&join_rows(left, right, None))?.is_true() {
                        continue;
                    }
                }
                return Ok(Some(join_rows(left, right, spec.emit.as_ref())));
            }
            let Some(probe_row) =
                self.probe.as_mut().expect("probe not consumed by grace").next()?
            else {
                return Ok(None);
            };
            if let Some(key) = JoinKey::of(&self.spec.probe_keys, &probe_row)? {
                self.pending = self.built.first(&key);
            }
            self.current_probe = Some(probe_row);
        }
    }

    fn name(&self) -> &'static str {
        "HashJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::expr::CmpOp;
    use crate::storage::spill::MAX_SPILL_DEPTH;

    fn left() -> BoxOp {
        // (id, name)
        Box::new(Values::new(vec![
            vec![Value::Int(1), Value::str("a")],
            vec![Value::Int(2), Value::str("b")],
            vec![Value::Int(2), Value::str("b2")],
            vec![Value::Int(3), Value::str("c")],
            vec![Value::Null, Value::str("n")],
        ]))
    }

    fn right() -> BoxOp {
        // (ref, tag)
        Box::new(Values::new(vec![
            vec![Value::Int(2), Value::str("x")],
            vec![Value::Int(2), Value::str("y")],
            vec![Value::Int(3), Value::str("z")],
            vec![Value::Int(9), Value::str("w")],
            vec![Value::Null, Value::str("nn")],
        ]))
    }

    fn expected_pairs() -> Vec<(i64, String, String)> {
        vec![
            (2, "b".into(), "x".into()),
            (2, "b".into(), "y".into()),
            (2, "b2".into(), "x".into()),
            (2, "b2".into(), "y".into()),
            (3, "c".into(), "z".into()),
        ]
    }

    fn normalize(rows: Vec<Row>) -> Vec<(i64, String, String)> {
        let mut v: Vec<(i64, String, String)> = rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_int().unwrap(),
                    r[1].as_str().unwrap().to_string(),
                    r[3].as_str().unwrap().to_string(),
                )
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn nested_loop_equi() {
        let pred = Expr::cmp(CmpOp::Eq, Expr::col(0), Expr::col(2));
        let j = NestedLoopJoin::new(left(), right(), Some(pred));
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn hash_join_matches_nested_loop() {
        let j = HashJoin::new(
            left(),
            right(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            true,
            None,
        );
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn hash_join_emits_only_the_listed_columns() {
        // (name) of the probe row, (tag) of the build row; both orders.
        for probe_is_left in [true, false] {
            let (probe, build) = if probe_is_left { (left(), right()) } else { (right(), left()) };
            let j = HashJoin::new(
                probe,
                build,
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                None,
                probe_is_left,
                None,
            )
            .emitting((vec![1], vec![1]));
            let mut rows = collect(Box::new(j)).unwrap();
            rows.sort();
            let want: Vec<Row> = expected_pairs()
                .into_iter()
                .map(|(_, name, tag)| vec![Value::Str(name), Value::Str(tag)])
                .collect();
            assert_eq!(rows, want, "probe_is_left={probe_is_left}");
        }
    }

    #[test]
    fn hash_join_on_string_and_mixed_keys() {
        let side = |keys: Vec<Value>| -> BoxOp {
            Box::new(Values::new(keys.into_iter().map(|k| vec![k]).collect()))
        };
        // An integer never equals a string, NULL never equals anything,
        // and each build row of a key comes back in arrival order.
        let probe = side(vec![Value::str("a"), Value::Int(1), Value::Null, Value::str("b")]);
        let build = side(vec![Value::str("b"), Value::str("1"), Value::str("a"), Value::Null]);
        let j =
            HashJoin::new(probe, build, vec![Expr::col(0)], vec![Expr::col(0)], None, true, None);
        let rows = collect(Box::new(j)).unwrap();
        assert_eq!(rows, [vec![Value::str("a"); 2], vec![Value::str("b"); 2]]);
    }

    #[test]
    fn cross_product_without_predicate() {
        let j = NestedLoopJoin::new(left(), right(), None);
        assert_eq!(collect(Box::new(j)).unwrap().len(), 25);
    }

    fn spill_config(tag: &str, budget: usize) -> SpillConfig {
        let dir = std::env::temp_dir().join(format!("ordb-join-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SpillConfig::new(budget, Arc::new(crate::storage::spill::SpillManager::new(dir)))
    }

    fn big_sides() -> (Vec<Row>, Vec<Row>) {
        // ~60 B/row build side so a small budget forces Grace mode, with
        // duplicate keys on both sides and NULLs sprinkled in.
        let left: Vec<Row> = (0..300)
            .map(|i| {
                let key = if i % 17 == 0 { Value::Null } else { Value::Int(i % 40) };
                vec![key, Value::str(format!("left-{i:04}-padpadpad"))]
            })
            .collect();
        let right: Vec<Row> = (0..200)
            .map(|i| {
                let key = if i % 13 == 0 { Value::Null } else { Value::Int(i % 55) };
                vec![key, Value::str(format!("right-{i:04}-padpadpad"))]
            })
            .collect();
        (left, right)
    }

    fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
        rows.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }

    #[test]
    fn grace_join_matches_in_memory_and_cleans_up() {
        let (l, r) = big_sides();
        let in_mem = collect(Box::new(HashJoin::new(
            Box::new(Values::new(l.clone())),
            Box::new(Values::new(r.clone())),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            true,
            None,
        )))
        .unwrap();
        for budget in [256usize, 1024, 4096] {
            let cfg = spill_config(&format!("grace-{budget}"), budget);
            let manager = cfg.manager.clone();
            let before = crate::metrics::thread_counters().engine.join_partitions;
            let grace = HashJoin::new(
                Box::new(Values::new(l.clone())),
                Box::new(Values::new(r.clone())),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                None,
                true,
                Some(cfg),
            );
            let grace = collect(Box::new(grace)).unwrap();
            // Grace emits partition by partition, so compare as multisets.
            assert_eq!(sorted(grace), sorted(in_mem.clone()), "budget {budget}");
            let after = crate::metrics::thread_counters().engine.join_partitions;
            assert!(after > before, "budget {budget} should have partitioned");
            assert_eq!(manager.live_files(), 0, "spill files must be gone after the join");
        }
    }

    #[test]
    fn one_key_build_side_partitions_down_to_the_depth_cap() {
        // Every row has the same key, which no hash can split: each level
        // sends both whole sides into one partition pair.
        let side = |n: i64, tag: &str| -> Vec<Row> {
            (0..n).map(|i| vec![Value::Int(7), Value::str(format!("{tag}-{i:04}-pad"))]).collect()
        };
        let (probe, build) = (side(30, "probe"), side(200, "build"));
        let join = |spill| -> BoxOp {
            Box::new(HashJoin::new(
                Box::new(Values::new(probe.clone())),
                Box::new(Values::new(build.clone())),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                None,
                true,
                spill,
            ))
        };
        let in_mem = collect(join(None)).unwrap();
        assert_eq!(in_mem.len(), 30 * 200);
        // The build side is ~8 KB of rows.
        let cfg = spill_config("skew", 256);
        let manager = cfg.manager.clone();
        assert_eq!(collect(join(Some(cfg))).unwrap(), in_mem);
        // A build and a probe partitioner at each level above the cap;
        // the join at the cap builds in memory.
        let per_level = 2 * SPILL_FANOUT as u64;
        assert_eq!(manager.files_created(), MAX_SPILL_DEPTH as u64 * per_level);
        assert_eq!(manager.live_files(), 0, "spill files must be gone after the join");
    }

    #[test]
    fn hash_join_residual() {
        // join on id, but keep only tag = 'y'
        let residual = Expr::cmp(CmpOp::Eq, Expr::col(3), Expr::lit("y"));
        let j = HashJoin::new(
            left(),
            right(),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            Some(residual),
            true,
            None,
        );
        let rows = collect(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 2); // b-y and b2-y
    }
}
