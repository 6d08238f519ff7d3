//! The hierarchical span tracer behind `\spans`, `EXPLAIN ANALYZE`'s
//! operator spans and the repo benchmark's traces.
//!
//! A span ([`span`] / [`SpanGuard`]) is a named, monotonic
//! `(start, duration)` interval with a parent link; guards nest through a
//! thread-local, so `span("query") → span("parse")` produces a
//! parent/child pair without any plumbing. Finished spans land in a
//! process-wide fixed-capacity ring buffer ([`spans_enable`]) that
//! overwrites the oldest record, so a long-running process can keep
//! tracing without unbounded memory. Snapshots export as Chrome
//! `trace_event` JSON ([`chrome_trace_json`], load in `chrome://tracing`
//! / Perfetto) or folded-stack text ([`folded_stacks`], feed to
//! `flamegraph.pl`).
//!
//! When span collection is disabled (the default), [`span`] returns an
//! inert guard after a single relaxed atomic load — the hot path pays
//! nothing.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use parking_lot::Mutex;

/// One finished span: a named monotonic interval with a parent link.
/// Timestamps are nanoseconds since the process-wide trace epoch (the
/// first call that needed a clock), so spans from different threads and
/// queries share one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Unique id (process-wide, monotonically assigned).
    pub id: u64,
    /// Enclosing span's id; `None` for a root span.
    pub parent: Option<u64>,
    /// Span name, e.g. `query`, `parse`, `exec`, or an operator label.
    pub name: String,
    /// Start, in nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds (inclusive of child spans).
    pub dur_ns: u64,
}

impl SpanRecord {
    /// End of the span on the epoch timeline.
    pub fn end_ns(&self) -> u64 {
        self.start_ns.saturating_add(self.dur_ns)
    }
}

/// Default ring-buffer capacity used by [`spans_enable`] callers that
/// have no better number (≈ a few hundred queries' worth of spans).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

struct SpanCollector {
    enabled: AtomicBool,
    next_id: AtomicU64,
    ring: Mutex<SpanRing>,
}

struct SpanRing {
    capacity: usize,
    records: VecDeque<SpanRecord>,
    dropped: u64,
}

static COLLECTOR: SpanCollector = SpanCollector {
    enabled: AtomicBool::new(false),
    next_id: AtomicU64::new(1),
    ring: Mutex::new(SpanRing { capacity: 0, records: VecDeque::new(), dropped: 0 }),
};

thread_local! {
    /// The innermost live span on this thread (parent of the next one).
    static CURRENT: Cell<Option<u64>> = const { Cell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Turn span collection on with a ring buffer of `capacity` finished
/// spans (oldest overwritten first). Idempotent; a repeat call resizes
/// the buffer and keeps the newest records that still fit.
pub fn spans_enable(capacity: usize) {
    let capacity = capacity.max(1);
    {
        let mut ring = COLLECTOR.ring.lock();
        ring.capacity = capacity;
        while ring.records.len() > capacity {
            ring.records.pop_front();
            ring.dropped += 1;
        }
    }
    COLLECTOR.enabled.store(true, Ordering::Release);
}

/// Turn span collection off and drop all buffered spans. Guards already
/// live keep recording into the (now cleared) buffer when they close;
/// new [`span`] calls become free no-ops.
pub fn spans_disable() {
    COLLECTOR.enabled.store(false, Ordering::Release);
    let mut ring = COLLECTOR.ring.lock();
    ring.records.clear();
    ring.dropped = 0;
}

/// Whether span collection is currently on.
pub fn spans_enabled() -> bool {
    COLLECTOR.enabled.load(Ordering::Acquire)
}

/// Copy out the buffered spans, oldest first.
pub fn spans_snapshot() -> Vec<SpanRecord> {
    COLLECTOR.ring.lock().records.iter().cloned().collect()
}

/// Drop buffered spans without toggling collection — brackets "the last
/// query" in the shell.
pub fn spans_clear() {
    COLLECTOR.ring.lock().records.clear();
}

/// How many spans the ring has overwritten since it was enabled (a
/// non-zero value means a snapshot is a suffix of the true history).
pub fn spans_dropped() -> u64 {
    COLLECTOR.ring.lock().dropped
}

fn push_record(rec: SpanRecord) {
    let mut ring = COLLECTOR.ring.lock();
    if ring.capacity == 0 {
        return;
    }
    while ring.records.len() >= ring.capacity {
        ring.records.pop_front();
        ring.dropped += 1;
    }
    ring.records.push_back(rec);
}

/// Record an already-measured span (used for operator spans, whose
/// timing comes from the profiler rather than a live guard). Returns the
/// assigned id so callers can parent further spans under it; records
/// nothing and returns 0 when collection is off.
pub fn record_span(
    name: impl Into<String>,
    parent: Option<u64>,
    start_ns: u64,
    dur_ns: u64,
) -> u64 {
    if !spans_enabled() {
        return 0;
    }
    let id = COLLECTOR.next_id.fetch_add(1, Ordering::Relaxed);
    push_record(SpanRecord { id, parent, name: name.into(), start_ns, dur_ns });
    id
}

/// Open a span. The returned guard closes it on drop, recording the
/// elapsed time into the ring buffer; while the guard lives, spans opened
/// on the same thread become its children. When collection is disabled
/// this is one relaxed atomic load and no allocation.
pub fn span(name: impl Into<String>) -> SpanGuard {
    if !spans_enabled() {
        return SpanGuard { live: None };
    }
    let id = COLLECTOR.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = CURRENT.with(|c| c.replace(Some(id)));
    SpanGuard {
        live: Some(LiveSpan {
            id,
            parent,
            name: name.into(),
            start_ns: now_ns(),
            start: Instant::now(),
        }),
    }
}

struct LiveSpan {
    id: u64,
    parent: Option<u64>,
    name: String,
    start_ns: u64,
    start: Instant,
}

/// RAII handle for an open span; see [`span`].
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl SpanGuard {
    /// This span's id (0 for an inert guard) — parent further
    /// [`record_span`] calls under it.
    pub fn id(&self) -> u64 {
        self.live.as_ref().map_or(0, |l| l.id)
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        CURRENT.with(|c| c.set(live.parent));
        push_record(SpanRecord {
            id: live.id,
            parent: live.parent,
            name: live.name,
            start_ns: live.start_ns,
            dur_ns: live.start.elapsed().as_nanos() as u64,
        });
    }
}

// ---- span export --------------------------------------------------------

/// Serialize spans as a Chrome `trace_event` JSON document (one complete
/// `"X"` event per span; open the file in `chrome://tracing` or
/// Perfetto). Timestamps are microseconds on the shared trace epoch.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{},\"parent\":{}}}}}",
            crate::metrics::json_str(&s.name),
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
        ));
    }
    out.push_str("]}");
    out
}

/// Collapse spans into folded-stack lines (`root;child;leaf <self_ns>`),
/// the input format of `flamegraph.pl`. Each line's value is the span's
/// *self* time: its duration minus the duration of its direct children
/// (saturating, since child wall time can exceed the parent's under
/// timer jitter). Spans whose parent is missing from the snapshot (e.g.
/// overwritten by the ring) are treated as roots.
pub fn folded_stacks(spans: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent.filter(|p| by_id.contains_key(p)) {
            *child_ns.entry(p).or_default() += s.dur_ns;
        }
    }
    let mut lines = Vec::with_capacity(spans.len());
    for s in spans {
        let mut path = vec![s.name.as_str()];
        let mut cur = s;
        while let Some(p) = cur.parent.and_then(|p| by_id.get(&p)) {
            path.push(p.name.as_str());
            cur = p;
        }
        path.reverse();
        let self_ns = s.dur_ns.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        lines.push(format!("{} {self_ns}", path.join(";")));
    }
    let mut out = lines.join("\n");
    if !out.is_empty() {
        out.push('\n');
    }
    out
}

/// Render a span snapshot as an indented tree with total and self times
/// (the shell's `\spans` view). Children are nested under their parents
/// in start order; orphans print as roots.
pub fn render_span_tree(spans: &[SpanRecord]) -> String {
    use std::collections::HashMap;
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();
    let mut children: HashMap<u64, Vec<&SpanRecord>> = HashMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for s in spans {
        match s.parent.filter(|p| by_id.contains_key(p)) {
            Some(p) => children.entry(p).or_default().push(s),
            None => roots.push(s),
        }
    }
    for v in children.values_mut() {
        v.sort_by_key(|s| s.start_ns);
    }
    roots.sort_by_key(|s| s.start_ns);
    fn walk(
        s: &SpanRecord,
        depth: usize,
        children: &std::collections::HashMap<u64, Vec<&SpanRecord>>,
        out: &mut String,
    ) {
        let kids = children.get(&s.id);
        let child_ns: u64 = kids.map_or(0, |ks| ks.iter().map(|k| k.dur_ns).sum());
        out.push_str(&format!(
            "{}{}  total {}  self {}\n",
            "  ".repeat(depth),
            s.name,
            fmt_ns(s.dur_ns),
            fmt_ns(s.dur_ns.saturating_sub(child_ns)),
        ));
        if let Some(ks) = kids {
            for k in ks {
                walk(k, depth + 1, children, out);
            }
        }
    }
    let mut out = String::new();
    for r in roots {
        walk(r, 0, &children, &mut out);
    }
    out
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Serializes tests (across modules) that toggle the global span
/// collector, so parallel test threads don't see each other's spans.
#[cfg(test)]
pub(crate) fn span_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
}

#[cfg(test)]
mod span_tests {
    use super::*;

    #[test]
    fn nesting_links_parents_and_disable_clears() {
        let _guard = span_test_lock();
        spans_enable(64);
        spans_clear();
        {
            let root = span("query");
            assert_ne!(root.id(), 0);
            {
                let _parse = span("parse");
            }
            {
                let _exec = span("exec");
                let _op = span("SeqScan t");
            }
        }
        let snap = spans_snapshot();
        // Drop order: parse, op, exec, query.
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["parse", "SeqScan t", "exec", "query"]);
        let by_name = |n: &str| snap.iter().find(|s| s.name == n).unwrap();
        let query = by_name("query");
        assert_eq!(query.parent, None);
        assert_eq!(by_name("parse").parent, Some(query.id));
        assert_eq!(by_name("exec").parent, Some(query.id));
        assert_eq!(by_name("SeqScan t").parent, Some(by_name("exec").id));
        // Children start within the parent's window and ids are unique.
        assert!(by_name("parse").start_ns >= query.start_ns);
        let mut ids: Vec<u64> = snap.iter().map(|s| s.id).collect();
        ids.dedup();
        assert_eq!(ids.len(), snap.len());
        spans_disable();
        assert!(spans_snapshot().is_empty());
        // Disabled spans are inert.
        let g = span("ignored");
        assert_eq!(g.id(), 0);
        drop(g);
        assert!(spans_snapshot().is_empty());
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_drops() {
        let _guard = span_test_lock();
        spans_enable(4);
        spans_clear();
        for i in 0..10 {
            record_span(format!("s{i}"), None, i, 1);
        }
        let snap = spans_snapshot();
        assert_eq!(snap.len(), 4);
        let names: Vec<&str> = snap.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, vec!["s6", "s7", "s8", "s9"], "oldest overwritten first");
        assert!(spans_dropped() >= 6);
        spans_disable();
    }

    #[test]
    fn chrome_json_and_folded_stacks_export() {
        let spans = vec![
            SpanRecord { id: 1, parent: None, name: "query".into(), start_ns: 0, dur_ns: 1000 },
            SpanRecord { id: 2, parent: Some(1), name: "parse".into(), start_ns: 10, dur_ns: 200 },
            SpanRecord {
                id: 3,
                parent: Some(1),
                name: "exec \"t\"".into(),
                start_ns: 300,
                dur_ns: 600,
            },
            SpanRecord { id: 4, parent: Some(3), name: "scan".into(), start_ns: 310, dur_ns: 500 },
        ];
        let j = chrome_trace_json(&spans);
        assert!(j.starts_with('{') && j.ends_with('}'), "{j}");
        assert!(j.contains("\"ph\":\"X\""), "{j}");
        assert!(j.contains("\"name\":\"exec \\\"t\\\"\""), "escaped label: {j}");
        assert!(j.contains("\"parent\":null") && j.contains("\"parent\":1"), "{j}");
        let balance = |open: char, close: char| {
            j.chars().filter(|&c| c == open).count() == j.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));

        let folded = folded_stacks(&spans);
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 4);
        // Self time = total − direct children.
        assert!(lines.contains(&"query 200"), "1000 − 200 − 600: {folded}");
        assert!(lines.contains(&"query;parse 200"), "{folded}");
        assert!(lines.contains(&"query;exec \"t\" 100"), "600 − 500: {folded}");
        assert!(lines.contains(&"query;exec \"t\";scan 500"), "{folded}");
    }

    #[test]
    fn orphan_spans_render_as_roots() {
        // Parent id 99 is not in the snapshot (overwritten by the ring).
        let spans = vec![SpanRecord {
            id: 5,
            parent: Some(99),
            name: "leaf".into(),
            start_ns: 0,
            dur_ns: 10,
        }];
        assert_eq!(folded_stacks(&spans), "leaf 10\n");
        let tree = render_span_tree(&spans);
        assert!(tree.starts_with("leaf"), "{tree}");
    }

    #[test]
    fn span_tree_rendering_nests_and_subtracts_self_time() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: None,
                name: "query".into(),
                start_ns: 0,
                dur_ns: 3_000_000,
            },
            SpanRecord {
                id: 2,
                parent: Some(1),
                name: "parse".into(),
                start_ns: 10,
                dur_ns: 1_000_000,
            },
            SpanRecord {
                id: 3,
                parent: Some(1),
                name: "exec".into(),
                start_ns: 1_000_020,
                dur_ns: 1_500_000,
            },
        ];
        let tree = render_span_tree(&spans);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("query"), "{tree}");
        assert!(lines[1].starts_with("  parse"), "children indented: {tree}");
        assert!(lines[0].contains("total 3.00ms"), "{tree}");
        assert!(lines[0].contains("self 500.0µs"), "3.0 − 2.5 ms: {tree}");
    }
}
