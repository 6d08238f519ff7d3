//! Engine observability: plain per-thread counters and per-query snapshots.
//!
//! The paper's evaluation (§4) argues from *where time goes* — join work
//! vs. in-fragment XADT evaluation, buffer-pool behaviour on a small
//! testbed, FENCED vs. NOT FENCED UDF marshalling (Fig. 14). This module
//! provides the measurement layer those arguments need:
//!
//! * [`NodeMetrics`] — per-operator atomics filled in by the
//!   [`Instrumented`] wrapper (`next()` calls,
//!   rows out, inclusive wall time);
//! * [`Profiler`] — collects wrapped plan nodes during planning and
//!   produces a nested [`OperatorProfile`] tree afterwards;
//! * [`Counters`] — plain `u64`s per thread, added to through `count`;
//!   a statement's counts are its thread's set after minus before;
//! * [`MetricsRegistry`] — one per database: query latency plus the
//!   counters its public calls folded in when they ended;
//! * [`QueryMetrics`] — the one record of a statement's time and
//!   counters: rendered by `Database::explain_analyze`, exported as JSON
//!   by the bench harness, and flattened into spans
//!   ([`QueryMetrics::spans`]) for the shell's `\spans` exports.
//!
//! Overhead: a counted event is one add to a thread-local field. The
//! plain `query()` path constructs no [`Instrumented`] wrappers at all
//! (the profiler is disabled), so per-row cost there is zero.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::exec::{BoxOp, Instrumented};
use crate::storage::buffer::PoolStats;
use crate::storage::wal::WalStats;
use crate::trace::SpanRecord;
use crate::txn::TxnStats;

// ---- per-operator metrics ----------------------------------------------

/// Counters for one instrumented plan node. Shared between the executing
/// [`Instrumented`] wrapper and the
/// [`Profiler`] that reads them after execution.
#[derive(Debug)]
pub struct NodeMetrics {
    /// Number of `next()` calls (including the final `None`).
    pub next_calls: AtomicU64,
    /// Rows produced.
    pub rows_out: AtomicU64,
    /// Wall time spent inside `next()`, *inclusive* of children.
    pub elapsed_nanos: AtomicU64,
    /// When the first `next()` call happened, in [`crate::trace::now_ns`]
    /// epoch nanoseconds — anchors the operator's span on the shared
    /// trace timeline. `u64::MAX` until the operator is first pulled.
    pub first_ns: AtomicU64,
}

impl Default for NodeMetrics {
    fn default() -> NodeMetrics {
        NodeMetrics {
            next_calls: AtomicU64::new(0),
            rows_out: AtomicU64::new(0),
            elapsed_nanos: AtomicU64::new(0),
            first_ns: AtomicU64::new(u64::MAX),
        }
    }
}

impl NodeMetrics {
    /// Record one `next()` call.
    pub fn record(&self, elapsed: Duration, produced_row: bool) {
        self.next_calls.fetch_add(1, Ordering::Relaxed);
        self.elapsed_nanos.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if produced_row {
            self.rows_out.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Note the trace-epoch time of the first pull (later calls keep the
    /// earliest value).
    pub fn record_first_pull(&self, now_ns: u64) {
        self.first_ns.fetch_min(now_ns, Ordering::Relaxed);
    }
}

/// A finished operator's stats, nested like the plan tree. Times are
/// inclusive of children (the root's time ≈ total execution time).
#[derive(Debug, Clone, PartialEq)]
pub struct OperatorProfile {
    /// Display label, e.g. `SeqScan speech` or `hash join act`.
    pub label: String,
    /// Number of `next()` calls.
    pub next_calls: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Inclusive wall time.
    pub elapsed: Duration,
    /// Trace-epoch nanoseconds of the first `next()` call; `None` when
    /// the operator was never pulled (see
    /// [`NodeMetrics::record_first_pull`]).
    pub start_ns: Option<u64>,
    /// Child operators.
    pub children: Vec<OperatorProfile>,
}

struct ProfNode {
    label: String,
    children: Vec<usize>,
    metrics: Arc<NodeMetrics>,
}

/// Collects instrumented plan nodes while the planner builds the tree.
///
/// A disabled profiler (the plain `query()` path) makes
/// [`Profiler::wrap`] the identity — no wrapper allocation, no timing.
pub struct Profiler {
    nodes: Option<Vec<ProfNode>>,
}

impl Profiler {
    /// A profiler that records nothing; `wrap` is the identity.
    pub fn disabled() -> Profiler {
        Profiler { nodes: None }
    }

    /// A recording profiler for `explain_analyze`.
    pub fn enabled() -> Profiler {
        Profiler { nodes: Some(Vec::new()) }
    }

    /// Whether this profiler records.
    pub fn is_enabled(&self) -> bool {
        self.nodes.is_some()
    }

    /// Wrap `op` in an [`Instrumented`] node
    /// labelled `label`, registering `children` (ids returned by earlier
    /// `wrap` calls) as its plan children. Returns the (possibly wrapped)
    /// operator and this node's id.
    pub fn wrap(
        &mut self,
        op: BoxOp,
        label: impl Into<String>,
        children: Vec<usize>,
    ) -> (BoxOp, usize) {
        let Some(nodes) = self.nodes.as_mut() else {
            return (op, 0);
        };
        let metrics = Arc::new(NodeMetrics::default());
        nodes.push(ProfNode { label: label.into(), children, metrics: metrics.clone() });
        (Box::new(Instrumented::new(op, metrics)), nodes.len() - 1)
    }

    /// Build the finished profile tree. The planner wraps the plan root
    /// last, so the last registered node is the tree root. `None` when
    /// disabled or nothing was wrapped.
    pub fn finish(self) -> Option<OperatorProfile> {
        let nodes = self.nodes?;
        let root = nodes.len().checked_sub(1)?;
        Some(build_profile(&nodes, root))
    }
}

fn build_profile(nodes: &[ProfNode], ix: usize) -> OperatorProfile {
    let n = &nodes[ix];
    let first = n.metrics.first_ns.load(Ordering::Relaxed);
    OperatorProfile {
        label: n.label.clone(),
        next_calls: n.metrics.next_calls.load(Ordering::Relaxed),
        rows_out: n.metrics.rows_out.load(Ordering::Relaxed),
        elapsed: Duration::from_nanos(n.metrics.elapsed_nanos.load(Ordering::Relaxed)),
        start_ns: (first != u64::MAX).then_some(first),
        children: n.children.iter().map(|&c| build_profile(nodes, c)).collect(),
    }
}

// ---- the thread's counters ----------------------------------------------

/// Engine counts that are not buffer-pool or UDF counts: index probes,
/// sort, spill and `unnest` volume, vacuum work. One of the three parts
/// of a [`Counters`] set.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct EngineSnapshot {
    /// B+Tree descents (one per `scan_from`, which underlies prefix and
    /// range scans and therefore every index probe).
    pub index_probes: u64,
    /// Rows materialized by `Sort` operators.
    pub sort_rows: u64,
    /// Sorted runs spilled to disk by the external merge sort (0 when
    /// every sort fit its memory budget).
    pub sort_spills: u64,
    /// Framed bytes written to spill files by any operator (sort runs,
    /// join partitions, aggregation partitions).
    pub spill_bytes: u64,
    /// Partition files created by Grace hash joins whose build side
    /// exceeded the memory budget.
    pub join_partitions: u64,
    /// Hash aggregation / DISTINCT overflows that switched to
    /// partition-and-retry.
    pub agg_spills: u64,
    /// `unnest` table-function expansions (one per outer row unnested).
    pub unnest_calls: u64,
    /// Bytes of XADT fragment content fed through `unnest` (the table-UDF
    /// analogue of scalar-UDF marshalling bytes).
    pub unnest_bytes: u64,
    /// Dead versions physically reclaimed by vacuum (slot freed, index
    /// entries removed, overflow chain released).
    pub vacuumed_versions: u64,
    /// Heap pages (overflow-chain pages and fully-emptied data pages)
    /// returned to the free-space map for reuse.
    pub freed_pages: u64,
    /// Inserts that landed in a reclaimed slot or reused a freed page
    /// instead of growing the file.
    pub reused_slots: u64,
    /// Always 0; read by `benchmark/src/layers.rs:84`, removed with the
    /// benchmark-only follow-up.
    pub batches: u64,
}

impl EngineSnapshot {
    /// Counter growth since `earlier` (saturating).
    pub fn since(&self, earlier: &EngineSnapshot) -> EngineSnapshot {
        self.zip(earlier, u64::saturating_sub)
    }

    fn zip(&self, o: &EngineSnapshot, f: fn(u64, u64) -> u64) -> EngineSnapshot {
        EngineSnapshot {
            index_probes: f(self.index_probes, o.index_probes),
            sort_rows: f(self.sort_rows, o.sort_rows),
            sort_spills: f(self.sort_spills, o.sort_spills),
            spill_bytes: f(self.spill_bytes, o.spill_bytes),
            join_partitions: f(self.join_partitions, o.join_partitions),
            agg_spills: f(self.agg_spills, o.agg_spills),
            unnest_calls: f(self.unnest_calls, o.unnest_calls),
            unnest_bytes: f(self.unnest_bytes, o.unnest_bytes),
            vacuumed_versions: f(self.vacuumed_versions, o.vacuumed_versions),
            freed_pages: f(self.freed_pages, o.freed_pages),
            reused_slots: f(self.reused_slots, o.reused_slots),
            batches: 0,
        }
    }
}

/// Everything the engine counts, as plain integers. Each thread owns one
/// cumulative set; a statement's [`QueryMetrics`] is its thread's set
/// after minus before, exact under any concurrency because a statement,
/// a vacuum pass and a checkpoint each run on the caller's thread.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counters {
    /// Buffer-pool hits, misses (sequential and random), evictions and
    /// writebacks.
    pub pool: PoolStats,
    /// Index, sort, spill, `unnest` and vacuum counts.
    pub engine: EngineSnapshot,
    /// Transactions begun, committed, aborted and conflicting.
    pub txn: TxnStats,
    /// `[calls, marshalled bytes]` per function, indexed by the
    /// function's registry slot.
    pub udfs: Vec<[u64; 2]>,
}

impl Counters {
    /// Counter growth since `earlier` (saturating).
    pub fn since(&self, earlier: &Counters) -> Counters {
        self.zip(earlier, u64::saturating_sub)
    }

    fn add(&mut self, delta: &Counters) {
        *self = self.zip(delta, u64::saturating_add);
    }

    fn zip(&self, o: &Counters, f: fn(u64, u64) -> u64) -> Counters {
        let slot = |udfs: &[[u64; 2]], i| udfs.get(i).copied().unwrap_or_default();
        let udfs = (0..self.udfs.len().max(o.udfs.len()))
            .map(|i| (slot(&self.udfs, i), slot(&o.udfs, i)))
            .map(|([c, b], [c0, b0])| [f(c, c0), f(b, b0)])
            .collect();
        let (pool, engine) = (self.pool.zip(&o.pool, f), self.engine.zip(&o.engine, f));
        Counters { pool, engine, txn: self.txn.zip(&o.txn, f), udfs }
    }

    /// The `[calls, marshalled bytes]` pair of function-registry `slot`.
    pub(crate) fn udf(&mut self, slot: usize) -> &mut [u64; 2] {
        if self.udfs.len() <= slot {
            self.udfs.resize(slot + 1, [0; 2]);
        }
        &mut self.udfs[slot]
    }
}

thread_local! {
    /// The thread's cumulative counters, and how much of them registries
    /// have taken.
    static THREAD: RefCell<ThreadCounters> = RefCell::default();
}

#[derive(Default)]
struct ThreadCounters {
    total: Counters,
    folded: Counters,
}

/// Add to the calling thread's counters — the one way the engine counts.
pub(crate) fn count(f: impl FnOnce(&mut Counters)) {
    THREAD.with(|t| f(&mut t.borrow_mut().total));
}

/// A copy of the calling thread's cumulative counters. Two readings
/// around work done on this thread bound exactly that work.
pub fn thread_counters() -> Counters {
    THREAD.with(|t| t.borrow().total.clone())
}

/// The part of the calling thread's counters no registry has taken yet,
/// marked taken; `None` when nothing was counted since the last take.
fn take_unfolded() -> Option<Counters> {
    THREAD.with(|t| {
        let t = &mut *t.borrow_mut();
        (t.total != t.folded).then(|| {
            let delta = t.total.since(&t.folded);
            t.folded.clone_from(&t.total);
            delta
        })
    })
}

// ---- latency histograms -------------------------------------------------

/// Sub-buckets per power-of-two segment: each bucket's width is at most
/// 1/16 of its lower bound, so any quantile read is within ~6.25 % of the
/// true value.
const HIST_SUB: usize = 16;
/// Highest bit tracked exactly: values need `msb ≤ HIST_MAX_MSB`. With
/// nanosecond recordings that is < 2^41 ns ≈ 36.6 minutes; anything
/// above lands in the single overflow bucket.
const HIST_MAX_MSB: u32 = 40;
/// Bucket count: 16 exact unit buckets (values 0–15), one 16-wide
/// segment per msb in 4..=HIST_MAX_MSB (37 segments), plus the overflow
/// bucket.
const HIST_BUCKETS: usize = (HIST_MAX_MSB as usize - 2) * HIST_SUB + 1;

/// Largest value the bucket grid resolves; recordings above it are
/// counted in the overflow bucket.
pub const HIST_MAX_TRACKED: u64 = (1u64 << (HIST_MAX_MSB + 1)) - 1;

/// A fixed-bucket log-linear latency histogram — hand-rolled (like the
/// WAL's CRC table), no dependencies, `O(1)` record, mergeable, and
/// diffable for snapshot windows.
///
/// Layout: values 0–15 get exact unit buckets; above that, every
/// power-of-two segment is split into `HIST_SUB` linear sub-buckets,
/// so relative quantile error is bounded by 1/16 at every magnitude.
/// Values above `HIST_MAX_TRACKED` (~36 min in nanoseconds) share one
/// overflow bucket. Quantiles report a bucket's *upper* bound, so they
/// never understate a latency.
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; HIST_BUCKETS]>,
    count: u64,
    sum: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl PartialEq for Histogram {
    fn eq(&self, other: &Histogram) -> bool {
        self.count == other.count && self.sum == other.sum && self.counts[..] == other.counts[..]
    }
}

fn hist_bucket(v: u64) -> usize {
    if v < HIST_SUB as u64 {
        return v as usize;
    }
    if v > HIST_MAX_TRACKED {
        return HIST_BUCKETS - 1;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - 4)) & 0xF) as usize;
    (msb as usize - 3) * HIST_SUB + sub
}

/// Inclusive upper bound of a bucket (what quantiles report).
fn hist_bucket_upper(ix: usize) -> u64 {
    if ix < HIST_SUB {
        return ix as u64;
    }
    if ix >= HIST_BUCKETS - 1 {
        return u64::MAX;
    }
    let seg = ix / HIST_SUB; // = msb − 3 ≥ 1
    let sub = (ix % HIST_SUB) as u64;
    let shift = (seg - 1) as u32;
    ((HIST_SUB as u64 + sub + 1) << shift) - 1
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: Box::new([0; HIST_BUCKETS]), count: 0, sum: 0 }
    }

    /// Record one value (typically nanoseconds).
    pub fn record(&mut self, v: u64) {
        self.counts[hist_bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Record a duration in nanoseconds.
    pub fn record_duration(&mut self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Total recordings.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values; 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Recordings that exceeded [`HIST_MAX_TRACKED`].
    pub fn overflow_count(&self) -> u64 {
        self.counts[HIST_BUCKETS - 1]
    }

    /// The value at quantile `q` ∈ [0, 1]: the upper bound of the bucket
    /// holding the ⌈q·count⌉-th smallest recording (within 1/16 of the
    /// true value; `u64::MAX` if that recording overflowed the grid).
    /// Returns 0 on an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0;
        for (ix, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return hist_bucket_upper(ix);
            }
        }
        hist_bucket_upper(HIST_BUCKETS - 1)
    }

    /// Median (see [`Histogram::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }
    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }
    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Largest recorded bucket bound (0 when empty); exact for values
    /// < 16, otherwise the containing bucket's upper bound.
    pub fn max(&self) -> u64 {
        self.quantile(1.0)
    }

    /// Fold another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// The recordings added since `earlier` was captured (bucket-wise
    /// saturating difference) — the histogram analogue of the counter
    /// snapshots' `since`. `earlier` must be an older snapshot of the
    /// same histogram for the result to be meaningful.
    pub fn since(&self, earlier: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        for (ix, (a, b)) in self.counts.iter().zip(earlier.counts.iter()).enumerate() {
            out.counts[ix] = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(earlier.count);
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Serialize the summary (not the raw buckets) as a JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\
             \"p999\":{},\"max\":{},\"overflow\":{}}}",
            self.count,
            self.sum,
            self.mean(),
            self.p50(),
            self.p90(),
            self.p99(),
            self.p999(),
            self.max(),
            self.overflow_count(),
        )
    }

    /// One-line human summary (the shell's `\hist` row body).
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "(no recordings)".to_string();
        }
        format!(
            "count={} mean={} p50={} p90={} p99={} p999={} max={}",
            self.count,
            fmt_ns(self.mean()),
            fmt_ns(self.p50()),
            fmt_ns(self.p90()),
            fmt_ns(self.p99()),
            fmt_ns(self.p999()),
            fmt_ns(self.max()),
        )
    }
}

// ---- server / wire-protocol counters ------------------------------------

/// Cumulative wire-protocol counters, filled in by `ordb::net`'s server
/// loop. One instance lives inside each [`MetricsRegistry`], so the
/// `serve` bench and the shell's `\metrics` view see server traffic next
/// to engine counters.
#[derive(Debug, Default)]
pub struct NetCounters {
    /// Connections accepted over the lifetime of the registry.
    pub connections: AtomicU64,
    /// Request frames fully decoded.
    pub frames_in: AtomicU64,
    /// Response frames written.
    pub frames_out: AtomicU64,
    /// Payload bytes received (frame bodies, excluding the length prefix).
    pub bytes_in: AtomicU64,
    /// Payload bytes sent (frame bodies, excluding the length prefix).
    pub bytes_out: AtomicU64,
    /// Malformed frames rejected (bad magic, oversized length, garbage
    /// tags…). Each increments once, even when the connection is dropped.
    pub protocol_errors: AtomicU64,
}

impl NetCounters {
    /// Copy the current counter values.
    pub fn snapshot(&self) -> NetSnapshot {
        NetSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`NetCounters`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NetSnapshot {
    /// See [`NetCounters::connections`].
    pub connections: u64,
    /// See [`NetCounters::frames_in`].
    pub frames_in: u64,
    /// See [`NetCounters::frames_out`].
    pub frames_out: u64,
    /// See [`NetCounters::bytes_in`].
    pub bytes_in: u64,
    /// See [`NetCounters::bytes_out`].
    pub bytes_out: u64,
    /// See [`NetCounters::protocol_errors`].
    pub protocol_errors: u64,
}

impl NetSnapshot {
    /// Counter growth since `earlier` (saturating).
    pub fn since(&self, earlier: &NetSnapshot) -> NetSnapshot {
        NetSnapshot {
            connections: self.connections.saturating_sub(earlier.connections),
            frames_in: self.frames_in.saturating_sub(earlier.frames_in),
            frames_out: self.frames_out.saturating_sub(earlier.frames_out),
            bytes_in: self.bytes_in.saturating_sub(earlier.bytes_in),
            bytes_out: self.bytes_out.saturating_sub(earlier.bytes_out),
            protocol_errors: self.protocol_errors.saturating_sub(earlier.protocol_errors),
        }
    }
}

// ---- the metrics registry -----------------------------------------------

/// One registry per [`Database`](crate::db::Database): query latency,
/// the [`Counters`] its calls added, and the wire counters. Every public
/// `Database` or `Session` call that does engine work ends by folding
/// the part of its thread's counters no registry has taken yet into this
/// one, under the lock [`MetricsRegistry::record_query`] takes, so a
/// nested call's part is taken once. Bracket a workload with two
/// [`RegistrySnapshot`]s and [`RegistrySnapshot::since`] to get exactly
/// what it did.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: parking_lot::Mutex<Folded>,
    net: NetCounters,
}

/// What a registry holds: queries completed, their wall-latency
/// histogram, and the counters taken from the threads that ran its calls.
#[derive(Debug, Default, Clone)]
pub struct Folded {
    /// Queries recorded.
    pub queries: u64,
    /// Their end-to-end wall times.
    pub latency: Histogram,
    /// Everything this registry's calls counted.
    pub counters: Counters,
}

impl MetricsRegistry {
    /// Record one finished query's end-to-end wall time, and fold the
    /// calling thread's counters under the same lock.
    pub fn record_query(&self, wall: Duration) {
        let delta = take_unfolded();
        let mut inner = self.inner.lock();
        inner.queries += 1;
        inner.latency.record_duration(wall);
        inner.counters.add(&delta.unwrap_or_default());
    }

    /// Add the part of the calling thread's counters that no registry
    /// has taken yet.
    pub fn fold(&self) {
        if let Some(delta) = take_unfolded() {
            self.inner.lock().counters.add(&delta);
        }
    }

    /// A guard that [folds](MetricsRegistry::fold) when dropped, so a
    /// call's counts land here on every exit path.
    pub(crate) fn folding(&self) -> FoldOnDrop<'_> {
        FoldOnDrop(self)
    }

    /// A copy of everything recorded so far, read under one lock.
    pub fn read(&self) -> Folded {
        self.inner.lock().clone()
    }

    /// The wire-protocol counters, for `ordb::net` to increment.
    pub fn net(&self) -> &NetCounters {
        &self.net
    }
}

/// See [`MetricsRegistry::folding`].
pub(crate) struct FoldOnDrop<'a>(&'a MetricsRegistry);

impl Drop for FoldOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fold();
    }
}

/// A point-in-time capture of every metric surface the engine exposes.
/// Produced by `Database::metrics_snapshot`; subtract two with
/// [`RegistrySnapshot::since`] to scope to a workload window.
#[derive(Debug, Clone, PartialEq)]
pub struct RegistrySnapshot {
    /// Queries completed (plain and instrumented paths).
    pub queries: u64,
    /// Per-query wall-time latency histogram.
    pub latency: Histogram,
    /// Buffer-pool counters folded from this database's calls.
    pub pool: PoolStats,
    /// Cumulative WAL counters (log-wide, see [`QueryMetrics::wal`]).
    pub wal: WalStats,
    /// Engine counters folded from this database's calls.
    pub engine: EngineSnapshot,
    /// Wire-protocol counters (all-zero unless a server is attached).
    pub net: NetSnapshot,
    /// Transaction counters folded from this database's calls.
    pub txn: TxnStats,
    /// Spill temp files on disk at capture time (a gauge, not a counter:
    /// `since` keeps the later value).
    pub spill_files_live: u64,
}

impl RegistrySnapshot {
    /// Growth since `earlier` (counters subtract; gauges keep the later
    /// value).
    pub fn since(&self, earlier: &RegistrySnapshot) -> RegistrySnapshot {
        RegistrySnapshot {
            queries: self.queries.saturating_sub(earlier.queries),
            latency: self.latency.since(&earlier.latency),
            pool: self.pool.since(&earlier.pool),
            wal: self.wal.since(&earlier.wal),
            engine: self.engine.since(&earlier.engine),
            net: self.net.since(&earlier.net),
            txn: self.txn.since(&earlier.txn),
            spill_files_live: self.spill_files_live,
        }
    }

    /// Serialize as a JSON object (hand-rolled, like
    /// [`QueryMetrics::to_json`]).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_kv(&mut s, "queries", self.queries);
        s.push_str(&format!("\"latency\":{},", self.latency.to_json()));
        s.push_str("\"pool\":{");
        push_kv(&mut s, "fetches", self.pool.fetches());
        push_kv(&mut s, "hits", self.pool.hits);
        push_kv(&mut s, "misses", self.pool.misses);
        push_kv(&mut s, "seq_misses", self.pool.seq_misses);
        push_kv(&mut s, "rand_misses", self.pool.rand_misses());
        push_kv(&mut s, "evictions", self.pool.evictions);
        s.push_str(&format!("\"writebacks\":{}}},", self.pool.writebacks));
        s.push_str("\"wal\":{");
        push_kv(&mut s, "appends", self.wal.appends);
        push_kv(&mut s, "bytes", self.wal.bytes);
        push_kv(&mut s, "fsyncs", self.wal.fsyncs);
        push_kv(&mut s, "checkpoints", self.wal.checkpoints);
        push_kv(&mut s, "commit_records", self.wal.commit_records);
        push_kv(&mut s, "group_commits", self.wal.group_commits);
        s.push_str(&format!("\"fsyncs_saved\":{}}},", self.wal.fsyncs_saved));
        s.push_str("\"engine\":{");
        push_kv(&mut s, "index_probes", self.engine.index_probes);
        push_kv(&mut s, "sort_rows", self.engine.sort_rows);
        push_kv(&mut s, "sort_spills", self.engine.sort_spills);
        push_kv(&mut s, "spill_bytes", self.engine.spill_bytes);
        push_kv(&mut s, "join_partitions", self.engine.join_partitions);
        push_kv(&mut s, "agg_spills", self.engine.agg_spills);
        push_kv(&mut s, "unnest_calls", self.engine.unnest_calls);
        push_kv(&mut s, "unnest_bytes", self.engine.unnest_bytes);
        push_kv(&mut s, "vacuumed_versions", self.engine.vacuumed_versions);
        push_kv(&mut s, "freed_pages", self.engine.freed_pages);
        s.push_str(&format!("\"reused_slots\":{}}},", self.engine.reused_slots));
        s.push_str("\"net\":{");
        push_kv(&mut s, "connections", self.net.connections);
        push_kv(&mut s, "frames_in", self.net.frames_in);
        push_kv(&mut s, "frames_out", self.net.frames_out);
        push_kv(&mut s, "bytes_in", self.net.bytes_in);
        push_kv(&mut s, "bytes_out", self.net.bytes_out);
        s.push_str(&format!("\"protocol_errors\":{}}},", self.net.protocol_errors));
        s.push_str("\"txn\":{");
        push_kv(&mut s, "begun", self.txn.begun);
        push_kv(&mut s, "committed", self.txn.committed);
        push_kv(&mut s, "aborted", self.txn.aborted);
        s.push_str(&format!("\"conflicts\":{}}},", self.txn.conflicts));
        s.push_str(&format!("\"spill_files_live\":{}", self.spill_files_live));
        s.push('}');
        s
    }
}

// ---- UDF counters -------------------------------------------------------

/// Cumulative call counters of one registered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdfCounters {
    /// Function name as registered.
    pub name: String,
    /// Total invocations.
    pub calls: u64,
    /// Bytes copied through the UDF call buffer (arguments in + results
    /// out; FENCED mode's second copy is included). 0 for built-ins.
    pub marshalled_bytes: u64,
}

/// Per-function growth between two [`UdfCounters`] snapshots, dropping
/// functions that were not called.
pub fn udf_delta(before: &[UdfCounters], after: &[UdfCounters]) -> Vec<UdfCounters> {
    let mut out = Vec::new();
    for a in after {
        let b = before.iter().find(|b| b.name == a.name);
        let calls = a.calls.saturating_sub(b.map_or(0, |b| b.calls));
        let bytes = a.marshalled_bytes.saturating_sub(b.map_or(0, |b| b.marshalled_bytes));
        if calls > 0 {
            out.push(UdfCounters { name: a.name.clone(), calls, marshalled_bytes: bytes });
        }
    }
    out.sort_by(|a, b| a.name.cmp(&b.name));
    out
}

// ---- the per-query roll-up ---------------------------------------------

/// Everything measured about one query execution — the only place a
/// statement's timing lives.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryMetrics {
    /// When the statement started, on the [`crate::trace::now_ns`]
    /// timeline its operators' [`OperatorProfile::start_ns`] share.
    pub start_ns: u64,
    /// Time in the SQL parser.
    pub parse: Duration,
    /// Time in the planner.
    pub plan: Duration,
    /// Time draining the operator tree.
    pub exec: Duration,
    /// End-to-end wall time (parse + plan + exec + bookkeeping).
    pub wall: Duration,
    /// Rows returned.
    pub rows: u64,
    /// Buffer-pool activity of the statement's thread during execution.
    pub pool: PoolStats,
    /// WAL activity during execution (all-zero for read-only queries).
    /// Unlike every other counter here, the WAL's [`WalStats`] are
    /// log-wide, updated under the WAL mutex: a commit by another session
    /// during this statement's execution is counted too.
    pub wal: WalStats,
    /// Engine counts (index probes, sort volume, unnest), likewise.
    pub engine: EngineSnapshot,
    /// Per-function call/marshalling counts, functions actually called.
    pub udfs: Vec<UdfCounters>,
    /// The annotated operator tree, root first.
    pub root: Option<OperatorProfile>,
}

impl QueryMetrics {
    /// The statement as spans, the input of the [`crate::trace`]
    /// exporters: a `query` root, its `parse`, `plan` and `exec` phases
    /// laid end to end from [`QueryMetrics::start_ns`], and under `exec`
    /// one span per operator, nested like the plan. Operators that were
    /// never pulled (and their subtrees) have no span.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut out = vec![SpanRecord {
            id: 1,
            parent: None,
            name: "query".into(),
            start_ns: self.start_ns,
            dur_ns: self.wall.as_nanos() as u64,
        }];
        let mut at = self.start_ns;
        for (name, phase) in [("parse", self.parse), ("plan", self.plan), ("exec", self.exec)] {
            let dur_ns = phase.as_nanos() as u64;
            let id = out.len() as u64 + 1;
            out.push(SpanRecord { id, parent: Some(1), name: name.into(), start_ns: at, dur_ns });
            at += dur_ns;
        }
        if let Some(root) = &self.root {
            let exec = out.len() as u64;
            push_operator_spans(root, exec, &mut out);
        }
        out
    }

    /// Render the annotated plan tree plus counters, the body of
    /// `EXPLAIN ANALYZE` output.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(root) = &self.root {
            render_node(root, 0, &mut out);
        }
        out.push_str(&format!(
            "phases: parse {} · plan {} · exec {} · wall {}\n",
            fmt_ns(self.parse.as_nanos() as u64),
            fmt_ns(self.plan.as_nanos() as u64),
            fmt_ns(self.exec.as_nanos() as u64),
            fmt_ns(self.wall.as_nanos() as u64),
        ));
        out.push_str(&format!(
            "buffer pool: {} fetches ({} hits, {} misses: {} sequential, {} random; \
             hit ratio {:.1}%), {} evictions, {} reads, {} writes\n",
            self.pool.fetches(),
            self.pool.hits,
            self.pool.misses,
            self.pool.seq_misses,
            self.pool.rand_misses(),
            self.pool.hit_ratio() * 100.0,
            self.pool.evictions,
            self.pool.misses,
            self.pool.writebacks,
        ));
        if self.wal != WalStats::default() {
            out.push_str(&format!(
                "wal: {} appends, {} B, {} fsyncs, {} checkpoints\n",
                self.wal.appends, self.wal.bytes, self.wal.fsyncs, self.wal.checkpoints,
            ));
        }
        out.push_str(&format!(
            "index probes: {} · sort rows: {} (spills: {}) · unnest: {} calls, {} B\n",
            self.engine.index_probes,
            self.engine.sort_rows,
            self.engine.sort_spills,
            self.engine.unnest_calls,
            self.engine.unnest_bytes,
        ));
        if self.engine.spill_bytes > 0 {
            out.push_str(&format!(
                "spill: {} B · join partitions: {} · agg spills: {}\n",
                self.engine.spill_bytes, self.engine.join_partitions, self.engine.agg_spills,
            ));
        }
        if self.engine.vacuumed_versions > 0
            || self.engine.freed_pages > 0
            || self.engine.reused_slots > 0
        {
            out.push_str(&format!(
                "vacuum: {} versions reclaimed · {} pages freed · {} slots reused\n",
                self.engine.vacuumed_versions, self.engine.freed_pages, self.engine.reused_slots,
            ));
        }
        for u in &self.udfs {
            out.push_str(&format!(
                "udf {}: {} calls, {} B marshalled\n",
                u.name, u.calls, u.marshalled_bytes
            ));
        }
        out
    }

    /// Serialize as a JSON object (hand-rolled; no external deps).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        push_kv(&mut s, "parse_ns", self.parse.as_nanos() as u64);
        push_kv(&mut s, "plan_ns", self.plan.as_nanos() as u64);
        push_kv(&mut s, "exec_ns", self.exec.as_nanos() as u64);
        push_kv(&mut s, "wall_ns", self.wall.as_nanos() as u64);
        push_kv(&mut s, "rows", self.rows);
        s.push_str("\"pool\":{");
        push_kv(&mut s, "fetches", self.pool.fetches());
        push_kv(&mut s, "hits", self.pool.hits);
        push_kv(&mut s, "misses", self.pool.misses);
        push_kv(&mut s, "seq_misses", self.pool.seq_misses);
        push_kv(&mut s, "rand_misses", self.pool.rand_misses());
        push_kv(&mut s, "evictions", self.pool.evictions);
        push_kv(&mut s, "reads", self.pool.misses);
        push_kv(&mut s, "writes", self.pool.writebacks);
        s.push_str(&format!("\"hit_ratio\":{:.4}}},", self.pool.hit_ratio()));
        s.push_str("\"wal\":{");
        push_kv(&mut s, "appends", self.wal.appends);
        push_kv(&mut s, "bytes", self.wal.bytes);
        push_kv(&mut s, "fsyncs", self.wal.fsyncs);
        s.push_str(&format!("\"checkpoints\":{}}},", self.wal.checkpoints));
        push_kv(&mut s, "index_probes", self.engine.index_probes);
        push_kv(&mut s, "sort_rows", self.engine.sort_rows);
        push_kv(&mut s, "sort_spills", self.engine.sort_spills);
        push_kv(&mut s, "spill_bytes", self.engine.spill_bytes);
        push_kv(&mut s, "join_partitions", self.engine.join_partitions);
        push_kv(&mut s, "agg_spills", self.engine.agg_spills);
        push_kv(&mut s, "unnest_calls", self.engine.unnest_calls);
        push_kv(&mut s, "unnest_bytes", self.engine.unnest_bytes);
        push_kv(&mut s, "vacuumed_versions", self.engine.vacuumed_versions);
        push_kv(&mut s, "freed_pages", self.engine.freed_pages);
        push_kv(&mut s, "reused_slots", self.engine.reused_slots);
        s.push_str("\"udfs\":[");
        for (i, u) in self.udfs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"name\":{},\"calls\":{},\"marshalled_bytes\":{}}}",
                json_str(&u.name),
                u.calls,
                u.marshalled_bytes
            ));
        }
        s.push_str("],\"plan\":");
        match &self.root {
            Some(root) => json_node(root, &mut s),
            None => s.push_str("null"),
        }
        s.push('}');
        s
    }
}

fn push_operator_spans(n: &OperatorProfile, parent: u64, out: &mut Vec<SpanRecord>) {
    let Some(start_ns) = n.start_ns else { return };
    let id = out.len() as u64 + 1;
    out.push(SpanRecord {
        id,
        parent: Some(parent),
        name: n.label.clone(),
        start_ns,
        dur_ns: n.elapsed.as_nanos() as u64,
    });
    for c in &n.children {
        push_operator_spans(c, id, out);
    }
}

fn render_node(n: &OperatorProfile, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&format!(
        "{indent}{}  [rows={} next={} time={}]\n",
        n.label,
        n.rows_out,
        n.next_calls,
        fmt_ns(n.elapsed.as_nanos() as u64)
    ));
    for c in &n.children {
        render_node(c, depth + 1, out);
    }
}

fn json_node(n: &OperatorProfile, s: &mut String) {
    s.push_str(&format!(
        "{{\"label\":{},\"rows\":{},\"next_calls\":{},\"elapsed_ns\":{},\"children\":[",
        json_str(&n.label),
        n.rows_out,
        n.next_calls,
        n.elapsed.as_nanos()
    ));
    for (i, c) in n.children.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        json_node(c, s);
    }
    s.push_str("]}");
}

fn push_kv(s: &mut String, key: &str, v: u64) {
    s.push_str(&format!("\"{key}\":{v},"));
}

/// Escape a string as a JSON literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A nanosecond count as `ns`/`µs`/`ms`/`s` text; `u64::MAX` (a
/// histogram's overflow bucket) prints as `>36min`.
pub(crate) fn fmt_ns(ns: u64) -> String {
    if ns == u64::MAX {
        ">36min".to_string()
    } else if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Values;
    use crate::types::Value;

    #[test]
    fn disabled_profiler_is_identity() {
        let mut p = Profiler::disabled();
        let op: BoxOp = Box::new(Values::new(vec![vec![Value::Int(1)]]));
        let (op, id) = p.wrap(op, "Values", vec![]);
        assert_eq!(id, 0);
        assert_eq!(op.name(), "Values"); // not wrapped
        assert!(p.finish().is_none());
    }

    #[test]
    fn enabled_profiler_counts_rows_and_nests() {
        let mut p = Profiler::enabled();
        let op: BoxOp = Box::new(Values::new(vec![vec![Value::Int(1)], vec![Value::Int(2)]]));
        let (op, leaf) = p.wrap(op, "Values", vec![]);
        let (op, _root) = p.wrap(op, "Root", vec![leaf]);
        let rows = crate::exec::collect(op).unwrap();
        assert_eq!(rows.len(), 2);
        let prof = p.finish().unwrap();
        assert_eq!(prof.label, "Root");
        assert_eq!(prof.rows_out, 2);
        assert_eq!(prof.next_calls, 3); // 2 rows + final None
        assert_eq!(prof.children.len(), 1);
        assert_eq!(prof.children[0].label, "Values");
        assert_eq!(prof.children[0].rows_out, 2);
    }

    #[test]
    fn udf_delta_drops_uncalled() {
        let before = vec![
            UdfCounters { name: "getElm".into(), calls: 5, marshalled_bytes: 100 },
            UdfCounters { name: "xtext".into(), calls: 2, marshalled_bytes: 8 },
        ];
        let after = vec![
            UdfCounters { name: "getElm".into(), calls: 9, marshalled_bytes: 180 },
            UdfCounters { name: "xtext".into(), calls: 2, marshalled_bytes: 8 },
        ];
        let d = udf_delta(&before, &after);
        assert_eq!(d, vec![UdfCounters { name: "getElm".into(), calls: 4, marshalled_bytes: 80 }]);
    }

    #[test]
    fn json_is_well_formed_enough() {
        let m = QueryMetrics {
            start_ns: 0,
            parse: Duration::from_micros(10),
            plan: Duration::from_micros(20),
            exec: Duration::from_millis(1),
            wall: Duration::from_millis(2),
            rows: 3,
            pool: PoolStats {
                hits: 8,
                misses: 2,
                writebacks: 0,
                evictions: 0,
                ..Default::default()
            },
            wal: WalStats {
                appends: 2,
                bytes: 16448,
                fsyncs: 1,
                checkpoints: 0,
                ..Default::default()
            },
            engine: EngineSnapshot {
                index_probes: 1,
                sort_spills: 2,
                spill_bytes: 4096,
                join_partitions: 8,
                agg_spills: 1,
                ..Default::default()
            },
            udfs: vec![UdfCounters { name: "findKeyInElm".into(), calls: 3, marshalled_bytes: 99 }],
            root: Some(OperatorProfile {
                label: "SeqScan \"t\"".into(),
                next_calls: 4,
                rows_out: 3,
                elapsed: Duration::from_micros(500),
                start_ns: Some(1),
                children: vec![],
            }),
        };
        let j = m.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"hit_ratio\":0.8000"), "{j}");
        assert!(j.contains("\"label\":\"SeqScan \\\"t\\\"\""), "{j}");
        assert!(j.contains("\"udfs\":[{\"name\":\"findKeyInElm\""), "{j}");
        // The spill counters must survive the JSON round into
        // metrics.json, where the CI parse check reads them.
        for kv in [
            "\"sort_spills\":2",
            "\"spill_bytes\":4096",
            "\"join_partitions\":8",
            "\"agg_spills\":1",
        ] {
            assert!(j.contains(kv), "missing {kv} in {j}");
        }
        // Balanced braces/brackets (cheap well-formedness check).
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    // ---- histogram ------------------------------------------------------

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Exact quantile on a sorted vector with the same convention the
    /// histogram uses: the ⌈q·n⌉-th smallest value.
    fn oracle_quantile(sorted: &[u64], q: f64) -> u64 {
        assert!(!sorted.is_empty());
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// The histogram's bound: a reported quantile never understates the
    /// true value and overstates it by at most one sub-bucket (≤ 1/16
    /// relative) — checked at every magnitude the workloads hit.
    fn assert_quantiles_close(h: &Histogram, sorted: &[u64], tag: &str) {
        for q in [0.0, 0.01, 0.25, 0.50, 0.90, 0.99, 0.999, 1.0] {
            let got = h.quantile(q);
            let want = oracle_quantile(sorted, q);
            assert!(got >= want, "{tag} q={q}: histogram {got} understates oracle {want}");
            // Upper bound: the oracle value's own bucket upper bound.
            let bound = super::hist_bucket_upper(super::hist_bucket(want));
            assert!(got <= bound, "{tag} q={q}: histogram {got} > bucket bound {bound} of {want}");
            if want > 0 && want <= HIST_MAX_TRACKED {
                let rel = (got as f64 - want as f64) / want as f64;
                assert!(rel <= 1.0 / 16.0 + 1e-9, "{tag} q={q}: relative error {rel} > 1/16");
            }
        }
    }

    #[test]
    fn histogram_bucket_mapping_is_monotonic_and_bounded() {
        // Exhaustive near the exact range, then spot checks per segment.
        let mut prev = 0;
        for v in 0..4096u64 {
            let b = super::hist_bucket(v);
            assert!(b >= prev, "bucket index must be monotone at v={v}");
            assert!(v <= super::hist_bucket_upper(b), "v={v} above its bucket bound");
            prev = b;
        }
        for shift in 4..=40u32 {
            for v in [1u64 << shift, (1u64 << shift) + 1, (1u64 << (shift + 1)) - 1] {
                if v > HIST_MAX_TRACKED {
                    continue;
                }
                let b = super::hist_bucket(v);
                let upper = super::hist_bucket_upper(b);
                assert!(v <= upper, "v={v} bucket={b} upper={upper}");
                assert!(upper.saturating_sub(v) <= v / 16 + 1, "bucket too wide at {v}");
            }
        }
        assert_eq!(super::hist_bucket(15), 15);
        assert_eq!(super::hist_bucket(16), 16, "first log-linear bucket follows the exact ones");
        assert_eq!(super::hist_bucket(HIST_MAX_TRACKED), HIST_BUCKETS - 2);
        assert_eq!(super::hist_bucket(HIST_MAX_TRACKED + 1), HIST_BUCKETS - 1);
        assert_eq!(super::hist_bucket(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_quantiles_vs_sorted_oracle_uniform() {
        let mut rng = SmallRng::seed_from_u64(6);
        let mut h = Histogram::new();
        let mut values = Vec::new();
        for _ in 0..10_000 {
            let v = rng.gen_range(0..5_000_000u64);
            h.record(v);
            values.push(v);
        }
        values.sort_unstable();
        assert_eq!(h.count(), 10_000);
        assert_eq!(h.sum(), values.iter().sum::<u64>());
        assert_quantiles_close(&h, &values, "uniform");
    }

    #[test]
    fn histogram_quantiles_vs_sorted_oracle_long_tail() {
        // Latency-shaped: mostly fast, a heavy tail across 6 decades.
        let mut rng = SmallRng::seed_from_u64(7);
        let mut h = Histogram::new();
        let mut values = Vec::new();
        for _ in 0..10_000 {
            let magnitude = rng.gen_range(10..36u32);
            let v = (1u64 << magnitude) + rng.gen_range(0..(1u64 << magnitude));
            h.record(v);
            values.push(v);
        }
        values.sort_unstable();
        assert_quantiles_close(&h, &values, "long-tail");
        let mean = h.mean();
        let true_mean = values.iter().sum::<u64>() / values.len() as u64;
        assert_eq!(mean, true_mean, "mean is exact (sum and count are)");
    }

    #[test]
    fn histogram_merge_equals_recording_everything_in_one() {
        let mut rng = SmallRng::seed_from_u64(8);
        let mut all = Histogram::new();
        let mut parts = vec![Histogram::new(), Histogram::new(), Histogram::new()];
        for i in 0..3000 {
            let v = rng.gen_range(0..10_000_000u64);
            all.record(v);
            parts[i % 3].record(v);
        }
        let mut merged = Histogram::new();
        for p in &parts {
            merged.merge(p);
        }
        assert_eq!(merged, all, "merge must be exactly bucket-wise addition");
        assert_eq!(merged.p99(), all.p99());
    }

    #[test]
    fn histogram_since_isolates_a_window() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        let snap = h.clone();
        for v in [1_000u64, 2_000, 4_000] {
            h.record(v);
        }
        let window = h.since(&snap);
        assert_eq!(window.count(), 3);
        assert_eq!(window.sum(), 7_000);
        assert!(window.p50() >= 2_000 && window.p50() <= 2_125, "{}", window.p50());
        // The full histogram still sees all six.
        assert_eq!(h.count(), 6);
    }

    #[test]
    fn histogram_empty_and_overflow_edges() {
        let h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0);
        assert_eq!(h.summary(), "(no recordings)");

        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.p50(), 0, "zero is representable exactly");
        h.record(HIST_MAX_TRACKED + 1);
        h.record(u64::MAX);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), u64::MAX, "overflow bucket reports u64::MAX");
        assert!(h.summary().contains(">36min"), "{}", h.summary());
        // Sum saturates instead of wrapping.
        assert_eq!(h.sum(), u64::MAX);
    }

    #[test]
    fn registry_snapshot_diff_and_json() {
        let reg = MetricsRegistry::default();
        reg.record_query(Duration::from_micros(100));
        reg.record_query(Duration::from_micros(200));
        assert_eq!(reg.read().queries, 2);
        let before = RegistrySnapshot {
            queries: reg.read().queries,
            latency: reg.read().latency,
            pool: PoolStats {
                hits: 10,
                misses: 5,
                writebacks: 1,
                evictions: 0,
                ..Default::default()
            },
            wal: WalStats {
                appends: 3,
                bytes: 100,
                fsyncs: 1,
                checkpoints: 0,
                ..Default::default()
            },
            engine: EngineSnapshot { index_probes: 7, ..Default::default() },
            net: NetSnapshot::default(),
            txn: crate::txn::TxnStats::default(),
            spill_files_live: 0,
        };
        reg.record_query(Duration::from_millis(5));
        let after = RegistrySnapshot {
            queries: reg.read().queries,
            latency: reg.read().latency,
            pool: PoolStats {
                hits: 30,
                misses: 6,
                writebacks: 1,
                evictions: 0,
                ..Default::default()
            },
            wal: WalStats {
                appends: 3,
                bytes: 100,
                fsyncs: 1,
                checkpoints: 0,
                ..Default::default()
            },
            engine: EngineSnapshot { index_probes: 9, ..Default::default() },
            net: NetSnapshot { connections: 2, frames_in: 40, ..Default::default() },
            txn: crate::txn::TxnStats { begun: 4, committed: 3, aborted: 1, conflicts: 1 },
            spill_files_live: 2,
        };
        let d = after.since(&before);
        assert_eq!(d.queries, 1);
        assert_eq!(d.latency.count(), 1);
        assert!(d.latency.p50() >= 5_000_000, "the window holds only the 5 ms query");
        assert_eq!(d.pool.hits, 20);
        assert_eq!(d.engine.index_probes, 2);
        assert_eq!(d.spill_files_live, 2, "gauge keeps the later value");

        let j = after.to_json();
        for needle in [
            "\"queries\":3",
            "\"latency\":{\"count\":3",
            "\"p50\":",
            "\"p999\":",
            "\"pool\":{\"fetches\":36",
            "\"engine\":{\"index_probes\":9",
            "\"net\":{\"connections\":2,\"frames_in\":40",
            "\"spill_files_live\":2",
        ] {
            assert!(j.contains(needle), "missing {needle} in {j}");
        }
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn thread_counts_fold_once_into_the_registry_that_takes_them() {
        // Whatever this thread counted before belongs to neither.
        MetricsRegistry::default().fold();
        let (a, b) = (MetricsRegistry::default(), MetricsRegistry::default());
        count(|c| c.engine.index_probes += 3);
        count(|c| c.udf(2)[0] += 1);
        // Another thread's counts are its own.
        std::thread::spawn(|| count(|c| c.engine.index_probes += 100)).join().unwrap();
        a.record_query(Duration::from_micros(1));
        b.fold();
        let folded = a.read().counters;
        assert_eq!(folded.engine.index_probes, 3);
        let calls: Vec<u64> = folded.udfs.iter().map(|u| u[0]).collect();
        assert_eq!((calls.get(2), calls.iter().sum::<u64>()), (Some(&1), 1));
        assert_eq!(b.read().counters, Counters::default(), "taken once, by the first fold");
        count(|c| c.pool.hits += 1);
        drop(b.folding());
        assert_eq!((a.read().counters.pool.hits, b.read().counters.pool.hits), (0, 1));
    }
}
