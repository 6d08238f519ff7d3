//! The shared trace clock and the span exporters behind `\spans`.
//!
//! A statement's timing lives in one record,
//! [`QueryMetrics`](crate::metrics::QueryMetrics); its
//! [`spans`](crate::metrics::QueryMetrics::spans) flatten it into
//! [`SpanRecord`]s — the `query` root, its `parse`/`plan`/`exec` phases
//! and one span per operator — which export as Chrome `trace_event` JSON
//! ([`chrome_trace_json`], load in `chrome://tracing` / Perfetto),
//! folded-stack text ([`folded_stacks`], feed to `flamegraph.pl`) or an
//! indented tree ([`render_span_tree`]).
//!
//! [`now_ns`] is the one clock: statements and operators stamp their
//! starts on it, and so does the repo benchmark, so spans from the engine
//! and from the benchmark land on one timeline.

use std::time::Instant;

/// One finished span: a named monotonic interval with a parent link.
/// Timestamps are nanoseconds since the process-wide trace epoch (the
/// first [`now_ns`] call), so spans from different threads and
/// statements share one timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Id, unique within one span list.
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

fn epoch() -> Instant {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process-wide trace epoch (monotonic).
pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
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
/// timer jitter). Spans whose parent is missing from the list are
/// treated as roots.
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

/// Render a span list as an indented tree with total and self times
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
            crate::metrics::fmt_ns(s.dur_ns),
            crate::metrics::fmt_ns(s.dur_ns.saturating_sub(child_ns)),
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

#[cfg(test)]
mod span_tests {
    use super::*;

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
        // Parent id 99 is not in the list.
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
