//! The benchmark's own span recorder: spans are taken around the calls
//! into each layer, kept in memory, and written as Chrome `trace_event`
//! JSON when the run ends (open it in `chrome://tracing` or Perfetto).
//!
//! The clock is `ordb::trace::now_ns()` because the engine stamps
//! `OperatorProfile::start_ns` on it, so operator spans rebuilt from a
//! profile tree land on the same timeline as the spans recorded here.

use std::fmt::Write as _;
use std::path::Path;

use ordb::metrics::OperatorProfile;
use ordb::QueryMetrics;

pub use ordb::trace::now_ns;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<usize>,
    /// Shared by every span of one op (statement or transaction).
    pub op: u64,
    /// Client thread the op ran on (1-based; Chrome's `tid`).
    pub tid: u32,
    /// Layer boundary, e.g. `sql.parse`, `exec`, or an operator label.
    pub name: String,
    /// Start on the `now_ns` timeline.
    pub start_ns: u64,
    /// Inclusive duration.
    pub dur_ns: u64,
}

/// An append-only list of spans; an index into it names a span.
#[derive(Debug, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Record a span and return its index.
    pub fn push(
        &mut self,
        parent: Option<usize>,
        op: u64,
        tid: u32,
        name: impl Into<String>,
        start_ns: u64,
        dur_ns: u64,
    ) -> usize {
        self.0.push(Span { parent, op, tid, name: name.into(), start_ns, dur_ns });
        self.0.len() - 1
    }

    /// `sql.parse`, `plan` and `exec` children of `parent` from
    /// `explain_analyze`'s phase split, laid end to end from `start_ns`;
    /// with `operators`, one span per operator under `exec`.
    pub fn push_phases(&mut self, parent: usize, start_ns: u64, q: &QueryMetrics, operators: bool) {
        let (op, tid) = (self.0[parent].op, self.0[parent].tid);
        let mut at = start_ns;
        for (name, phase) in [("sql.parse", q.parse), ("plan", q.plan), ("exec", q.exec)] {
            let dur = phase.as_nanos() as u64;
            let me = self.push(Some(parent), op, tid, name, at, dur);
            at += dur;
            if let (true, "exec", Some(root)) = (operators, name, &q.root) {
                self.push_operators(me, op, tid, root);
            }
        }
    }

    /// Rebuild one span per executed operator from a profile tree, under
    /// `parent`. Operators that were never pulled are skipped.
    fn push_operators(&mut self, parent: usize, op: u64, tid: u32, node: &OperatorProfile) {
        let Some(start_ns) = node.start_ns else { return };
        let me = self.push(
            Some(parent),
            op,
            tid,
            node.label.as_str(),
            start_ns,
            node.elapsed.as_nanos() as u64,
        );
        for child in &node.children {
            self.push_operators(me, op, tid, child);
        }
    }

    /// Append another recorder's spans (a client thread's), fixing up
    /// their parent indexes.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.0.len();
        self.0.extend(other.0.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every span's self time: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children = vec![0u64; self.0.len()];
        for s in &self.0 {
            if let Some(p) = s.parent {
                children[p] += s.dur_ns;
            }
        }
        self.0.iter().zip(children).map(|(s, c)| s.dur_ns.saturating_sub(c)).collect()
    }

    /// Write the spans as a Chrome `trace_event` document and say where.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        println!("trace: {} spans written to {}", self.0.len(), path.display());
        let self_ns = self.self_ns();
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}}",
                ordb::metrics::json_str(&s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                i,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                self_ns[i] as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut s = Spans::default();
        let op = s.push(None, 1, 1, "op", 0, 100);
        let exec = s.push(Some(op), 1, 1, "exec", 10, 80);
        s.push(Some(exec), 1, 1, "SeqScan t", 10, 50);
        assert_eq!(s.self_ns(), vec![20, 30, 50]);
    }
}
