//! Join operators: block nested-loop, index nested-loop, hash, and
//! sort-merge — the three cost regimes the paper discusses in §4.4
//! (O(n²) nested loop, O(n log n) merge, O(n) hash probe).
//!
//! All builds are **lazy**: constructing an operator does no I/O. The
//! build side (materialized inner, hash table, sorted runs) is produced
//! on the first `next()` call, so `EXPLAIN` — which constructs a plan
//! only to print it — touches zero pages.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use crate::error::Result;
use crate::exec::{BoxOp, Operator, SpillScan};
use crate::expr::Expr;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::storage::heap::HeapFile;
use crate::storage::spill::{
    partition_of, SpillConfig, SpillFile, SpillWriter, MAX_SPILL_DEPTH, SPILL_FANOUT,
};
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
        Ok(HashJoin::eval_key(keys, row)?.map(JoinKey::Values))
    }

    /// What [`encoded_len`] says of the key's values.
    fn encoded_len(&self) -> usize {
        match self {
            JoinKey::Int(_) => 9,
            JoinKey::Values(v) => encoded_len(v),
        }
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
/// into [`SPILL_FANOUT`] spill files by a depth-seeded hash of the join
/// key, and each (build, probe) partition pair is joined independently —
/// recursing (with a fresh seed) if a partition is still over budget,
/// up to [`MAX_SPILL_DEPTH`]. NULL keys never equi-join, so both
/// partitioning passes drop them, same as the in-memory build.
pub struct HashJoin {
    /// Unconsumed probe child; taken when Grace partitioning drains it.
    probe: Option<BoxOp>,
    /// Unconsumed build child; taken and hashed on first `next()`.
    build: Option<BoxOp>,
    /// What to join on and what to emit; shared with Grace sub-joins.
    spec: Arc<JoinSpec>,
    built: BuildTable,
    /// Grace recursion depth of this operator (0 = planner-built root).
    depth: usize,
    /// Set when the build overflowed: partition pairs still to join and
    /// the sub-join currently draining.
    grace: Option<GraceState>,
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
    spill: Option<SpillConfig>,
}

struct GraceState {
    /// Remaining (build, probe) partition pairs.
    parts: std::vec::IntoIter<(SpillFile, SpillFile)>,
    /// Sub-join over the current partition pair.
    current: Option<Box<HashJoin>>,
}

impl HashJoin {
    /// Join `probe` against `build` (hashed by `build_keys` on first
    /// `next()`), streaming `probe` with `probe_keys`. Fully in-memory.
    pub fn new(
        probe: BoxOp,
        build: BoxOp,
        probe_keys: Vec<Expr>,
        build_keys: Vec<Expr>,
        residual: Option<Expr>,
        probe_is_left: bool,
    ) -> HashJoin {
        let spec =
            JoinSpec { probe_keys, build_keys, residual, emit: None, probe_is_left, spill: None };
        Self::open(probe, build, Arc::new(spec), 0)
    }

    /// Honour `spill`'s memory budget via Grace partitioning.
    pub fn with_spill(mut self, spill: SpillConfig) -> HashJoin {
        self.spec_mut().spill = Some(spill);
        self
    }

    /// Emit only the listed columns of the `left ++ right` row.
    pub fn emitting(mut self, emit: JoinEmit) -> HashJoin {
        self.spec_mut().emit = Some(emit);
        self
    }

    fn spec_mut(&mut self) -> &mut JoinSpec {
        Arc::get_mut(&mut self.spec).expect("a join is configured before it first runs")
    }

    fn open(probe: BoxOp, build: BoxOp, spec: Arc<JoinSpec>, depth: usize) -> HashJoin {
        HashJoin {
            probe: Some(probe),
            build: Some(build),
            spec,
            built: BuildTable::default(),
            depth,
            grace: None,
            current_probe: None,
            pending: NO_ROW,
        }
    }

    fn eval_key(keys: &[Expr], row: &[Value]) -> Result<Option<Vec<Value>>> {
        let mut key = Vec::with_capacity(keys.len());
        for e in keys {
            let v = e.eval(row)?;
            if v.is_null() {
                // NULL never equi-joins.
                return Ok(None);
            }
            key.push(v);
        }
        Ok(Some(key))
    }

    /// Drain the build child. Either fills the in-memory table, or — if
    /// the budget overflows mid-drain — partitions both sides to disk and
    /// arms `self.grace`.
    fn start(&mut self, mut build: BoxOp) -> Result<()> {
        // Only a join that may spill accounts what it holds.
        let spec = self.spec.clone();
        let budget =
            spec.spill.as_ref().filter(|s| s.budget.is_some() && self.depth < MAX_SPILL_DEPTH);
        let mut bytes = 0usize;
        while let Some(row) = build.next()? {
            let Some(key) = JoinKey::of(&spec.build_keys, &row)? else { continue };
            if budget.is_some() {
                bytes += key.encoded_len() + encoded_len(&row);
            }
            self.built.insert(key, row);
            if budget.is_some_and(|s| s.over(bytes)) {
                return self.grace_partition(build);
            }
        }
        Ok(())
    }

    /// Scatter the build side — what the table holds, then the rest of
    /// `build` — and the whole probe side into per-partition spill files.
    fn grace_partition(&mut self, mut build: BoxOp) -> Result<()> {
        let spec = self.spec.clone();
        let spill = spec.spill.as_ref().expect("grace requires a spill config");
        crate::metrics::ENGINE
            .join_partitions
            .fetch_add(SPILL_FANOUT as u64, std::sync::atomic::Ordering::Relaxed);

        let held = std::mem::take(&mut self.built).entries;
        let mut build_writers = new_writers(spill)?;
        let mut scatter = |row: Row| -> Result<()> {
            if let Some(key) = Self::eval_key(&spec.build_keys, &row)? {
                build_writers[partition_of(&key, self.depth)].add(&row)?;
            }
            Ok(())
        };
        for (row, _) in held {
            scatter(row)?;
        }
        while let Some(row) = build.next()? {
            scatter(row)?;
        }
        let build_files = seal_writers(build_writers)?;

        let mut probe = self.probe.take().expect("probe not yet consumed");
        let mut probe_writers = new_writers(spill)?;
        while let Some(row) = probe.next()? {
            let Some(key) = Self::eval_key(&spec.probe_keys, &row)? else { continue };
            probe_writers[partition_of(&key, self.depth)].add(&row)?;
        }
        let probe_files = seal_writers(probe_writers)?;

        // A pair with an empty side can produce no matches; dropping it
        // here deletes both files immediately.
        let parts: Vec<(SpillFile, SpillFile)> = build_files
            .into_iter()
            .zip(probe_files)
            .filter(|(b, p)| b.rows() > 0 && p.rows() > 0)
            .collect();
        self.grace = Some(GraceState { parts: parts.into_iter(), current: None });
        Ok(())
    }

    fn grace_next(&mut self) -> Result<Option<Row>> {
        let g = self.grace.as_mut().expect("grace armed");
        loop {
            if let Some(sub) = &mut g.current {
                if let Some(row) = sub.next()? {
                    return Ok(Some(row));
                }
                g.current = None;
            }
            let Some((build_file, probe_file)) = g.parts.next() else {
                return Ok(None);
            };
            g.current = Some(Box::new(HashJoin::open(
                Box::new(SpillScan::new(probe_file)),
                Box::new(SpillScan::new(build_file)),
                self.spec.clone(),
                self.depth + 1,
            )));
        }
    }
}

fn new_writers(spill: &SpillConfig) -> Result<Vec<SpillWriter>> {
    (0..SPILL_FANOUT).map(|_| spill.manager.create()).collect()
}

fn seal_writers(writers: Vec<SpillWriter>) -> Result<Vec<SpillFile>> {
    writers.into_iter().map(SpillWriter::finish).collect()
}

impl Operator for HashJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(build) = self.build.take() {
            self.start(build)?;
        }
        if self.grace.is_some() {
            return self.grace_next();
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

/// Sort-merge join on equi-keys: each side is routed through a [`Sort`](super::sort::Sort)
/// on its key expressions (the external merge sort when a
/// [`SpillConfig`] budget is set), then merged streaming. Only the
/// current right-side duplicate group is buffered, so peak memory is
/// one sort budget per side plus the widest equal-key group.
///
/// NULL keys never equi-join; they sort first (NULLs-first contract)
/// and are skipped as the merge reads each side.
pub struct MergeJoin {
    /// Unconsumed children and keys; sorted lazily on first `next()`.
    inputs: Option<MergeInputs>,
    spill: Option<SpillConfig>,
    state: Option<MergeState>,
}

struct MergeInputs {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Option<Expr>,
}

struct MergeState {
    left: BoxOp,
    right: BoxOp,
    left_keys: Vec<Expr>,
    right_keys: Vec<Expr>,
    residual: Option<Expr>,
    /// Current left head (key + row).
    lhead: Option<(Vec<Value>, Row)>,
    /// Right head not yet folded into a group.
    rhead: Option<(Vec<Value>, Row)>,
    /// Buffered right rows equal to `rgroup_key`.
    rgroup: Vec<Row>,
    rgroup_key: Vec<Value>,
    /// Cross-product cursor of `lhead` × `rgroup`.
    rpos: usize,
}

impl MergeJoin {
    /// Join `left` and `right` on their key expressions (work deferred to
    /// first `next()`). Fully in-memory sorts.
    pub fn new(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
    ) -> MergeJoin {
        MergeJoin {
            inputs: Some(MergeInputs { left, right, left_keys, right_keys, residual }),
            spill: None,
            state: None,
        }
    }

    /// Like [`MergeJoin::new`] but sorting each side under `spill`'s
    /// memory budget.
    pub fn with_spill(
        left: BoxOp,
        right: BoxOp,
        left_keys: Vec<Expr>,
        right_keys: Vec<Expr>,
        residual: Option<Expr>,
        spill: SpillConfig,
    ) -> MergeJoin {
        MergeJoin {
            inputs: Some(MergeInputs { left, right, left_keys, right_keys, residual }),
            spill: Some(spill),
            state: None,
        }
    }

    fn start(&mut self) -> Result<()> {
        let MergeInputs { left, right, left_keys, right_keys, residual } =
            self.inputs.take().expect("start once");
        let sorted = |op: BoxOp, keys: &[Expr], spill: &Option<SpillConfig>| -> BoxOp {
            let sort_keys: Vec<crate::exec::SortKey> =
                keys.iter().map(|e| crate::exec::SortKey { expr: e.clone(), asc: true }).collect();
            match spill {
                Some(cfg) => Box::new(crate::exec::Sort::with_spill(op, sort_keys, cfg.clone())),
                None => Box::new(crate::exec::Sort::new(op, sort_keys)),
            }
        };
        let mut state = MergeState {
            left: sorted(left, &left_keys, &self.spill),
            right: sorted(right, &right_keys, &self.spill),
            left_keys,
            right_keys,
            residual,
            lhead: None,
            rhead: None,
            rgroup: Vec::new(),
            rgroup_key: Vec::new(),
            rpos: 0,
        };
        state.lhead = read_keyed(&mut state.left, &state.left_keys)?;
        state.rhead = read_keyed(&mut state.right, &state.right_keys)?;
        self.state = Some(state);
        Ok(())
    }
}

/// Read the next row with a fully non-NULL key from `op`, returning the
/// evaluated key alongside it.
fn read_keyed(op: &mut BoxOp, keys: &[Expr]) -> Result<Option<(Vec<Value>, Row)>> {
    while let Some(row) = op.next()? {
        if let Some(key) = HashJoin::eval_key(keys, &row)? {
            return Ok(Some((key, row)));
        }
    }
    Ok(None)
}

impl MergeState {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            let Some((lk, lrow)) = &self.lhead else {
                return Ok(None);
            };
            if !self.rgroup.is_empty() && *lk == self.rgroup_key {
                if self.rpos < self.rgroup.len() {
                    let joined = join_rows(lrow, &self.rgroup[self.rpos], None);
                    self.rpos += 1;
                    match &self.residual {
                        Some(p) if !p.eval(&joined)?.is_true() => continue,
                        _ => return Ok(Some(joined)),
                    }
                }
                // Crossed this left row against the whole group; advance.
                self.lhead = read_keyed(&mut self.left, &self.left_keys)?;
                self.rpos = 0;
                continue;
            }
            let Some((rk, _)) = &self.rhead else {
                // Right exhausted and the buffered group doesn't match.
                return Ok(None);
            };
            match lk.cmp(rk) {
                std::cmp::Ordering::Less => {
                    self.lhead = read_keyed(&mut self.left, &self.left_keys)?;
                    self.rpos = 0;
                }
                std::cmp::Ordering::Greater => {
                    self.rhead = read_keyed(&mut self.right, &self.right_keys)?;
                }
                std::cmp::Ordering::Equal => {
                    // Buffer the full right group for this key.
                    let (key, row) = self.rhead.take().expect("checked above");
                    self.rgroup_key = key;
                    self.rgroup = vec![row];
                    loop {
                        match read_keyed(&mut self.right, &self.right_keys)? {
                            Some((k, r)) if k == self.rgroup_key => self.rgroup.push(r),
                            other => {
                                self.rhead = other;
                                break;
                            }
                        }
                    }
                    self.rpos = 0;
                }
            }
        }
    }
}

impl Operator for MergeJoin {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.state.is_none() {
            self.start()?;
        }
        self.state.as_mut().expect("started").next()
    }

    fn name(&self) -> &'static str {
        "MergeJoin"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{collect, Values};
    use crate::expr::CmpOp;

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
        let j = HashJoin::new(left(), right(), vec![Expr::col(0)], vec![Expr::col(0)], None, true);
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
        let j = HashJoin::new(probe, build, vec![Expr::col(0)], vec![Expr::col(0)], None, true);
        let rows = collect(Box::new(j)).unwrap();
        assert_eq!(rows, [vec![Value::str("a"); 2], vec![Value::str("b"); 2]]);
    }

    #[test]
    fn merge_join_matches_nested_loop() {
        let j = MergeJoin::new(left(), right(), vec![Expr::col(0)], vec![Expr::col(0)], None);
        assert_eq!(normalize(collect(Box::new(j)).unwrap()), expected_pairs());
    }

    #[test]
    fn cross_product_without_predicate() {
        let j = NestedLoopJoin::new(left(), right(), None);
        assert_eq!(collect(Box::new(j)).unwrap().len(), 25);
    }

    fn spill_config(tag: &str, budget: usize) -> SpillConfig {
        let dir = std::env::temp_dir().join(format!("ordb-join-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        SpillConfig {
            budget: Some(budget),
            manager: Arc::new(crate::storage::spill::SpillManager::new(dir)),
        }
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
        )))
        .unwrap();
        for budget in [256usize, 1024, 4096] {
            let cfg = spill_config(&format!("grace-{budget}"), budget);
            let manager = cfg.manager.clone();
            let before =
                crate::metrics::ENGINE.join_partitions.load(std::sync::atomic::Ordering::Relaxed);
            let grace = HashJoin::new(
                Box::new(Values::new(l.clone())),
                Box::new(Values::new(r.clone())),
                vec![Expr::col(0)],
                vec![Expr::col(0)],
                None,
                true,
            );
            let grace = collect(Box::new(grace.with_spill(cfg))).unwrap();
            // Grace emits partition by partition, so compare as multisets.
            assert_eq!(sorted(grace), sorted(in_mem.clone()), "budget {budget}");
            let after =
                crate::metrics::ENGINE.join_partitions.load(std::sync::atomic::Ordering::Relaxed);
            assert!(after > before, "budget {budget} should have partitioned");
            assert_eq!(manager.live_files(), 0, "spill files must be gone after the join");
        }
    }

    #[test]
    fn merge_join_with_spill_matches_in_memory() {
        let (l, r) = big_sides();
        let in_mem = collect(Box::new(MergeJoin::new(
            Box::new(Values::new(l.clone())),
            Box::new(Values::new(r.clone())),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
        )))
        .unwrap();
        let cfg = spill_config("merge", 512);
        let manager = cfg.manager.clone();
        let spilled = collect(Box::new(MergeJoin::with_spill(
            Box::new(Values::new(l)),
            Box::new(Values::new(r)),
            vec![Expr::col(0)],
            vec![Expr::col(0)],
            None,
            cfg,
        )))
        .unwrap();
        assert_eq!(spilled, in_mem);
        assert_eq!(manager.live_files(), 0);
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
        );
        let rows = collect(Box::new(j)).unwrap();
        assert_eq!(rows.len(), 2); // b-y and b2-y
    }
}
