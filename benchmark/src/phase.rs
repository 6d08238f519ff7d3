//! The timed phase's bookkeeping. Every timing metric is computed once
//! per pass and the run reports the median over passes: the host's
//! effective clock shifts by 10–25 % for seconds at a time (a fixed
//! register-only loop takes 29 ms or 37 ms depending on the moment), and a
//! median over passes ignores such a stretch where a mean over the phase
//! absorbs it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::layers::{set, Metrics};
use crate::stats::{median, quantile};

/// Ops completed by all clients, so that the client that samples CPU
/// time can relate a CPU difference to the ops it paid for.
#[derive(Default)]
pub struct OpCounter(AtomicU64);

/// CPU nanoseconds this process has run, over all its threads, from the
/// scheduler's per-task accounting (ns resolution; `/proc/self/stat`
/// only has 10 ms ticks, which is too coarse for a 20 ms pass).
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else { return 0 };
    tasks
        .flatten()
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// One client's per-pass statistics.
#[derive(Default)]
pub struct Passes {
    /// Ops per second of each pass.
    rate: Vec<f64>,
    p50_ms: Vec<f64>,
    p95_ms: Vec<f64>,
    /// CPU ms per op of each pass window (sampling client only).
    cpu_ms_per_op: Vec<f64>,
    /// Latencies of the pass in flight.
    current: Vec<f64>,
    started: Option<(Instant, u64, u64)>,
    ops: u64,
}

impl Passes {
    /// Start a pass. With `cpu`, sample process CPU time and the shared
    /// op counter (one client does this, the others pass `None`).
    pub fn begin(&mut self, cpu: Option<&OpCounter>) {
        let (cpu_ns, ops) = cpu.map_or((0, 0), |c| (process_cpu_ns(), c.0.load(Ordering::Relaxed)));
        self.current.clear();
        self.started = Some((Instant::now(), cpu_ns, ops));
    }

    /// Record one op's latency.
    pub fn record(&mut self, latency_ms: f64, counter: &OpCounter) {
        self.current.push(latency_ms);
        counter.0.fetch_add(1, Ordering::Relaxed);
    }

    /// End the pass. `busy_s` overrides the pass's wall time with the sum
    /// of its timed intervals (embedded workloads, whose cache drops and
    /// digest checks sit between the intervals).
    pub fn end(&mut self, busy_s: Option<f64>, cpu: Option<&OpCounter>) {
        let (started, cpu0, ops0) = self.started.take().expect("end() follows begin()");
        let wall_s = busy_s.unwrap_or_else(|| started.elapsed().as_secs_f64());
        if let Some(counter) = cpu {
            let ops = counter.0.load(Ordering::Relaxed) - ops0;
            let cpu_ms = (process_cpu_ns() - cpu0) as f64 / 1e6;
            self.cpu_ms_per_op.push(cpu_ms / ops.max(1) as f64);
        }
        self.current.sort_by(f64::total_cmp);
        self.rate.push(self.current.len() as f64 / wall_s);
        self.p50_ms.push(quantile(&self.current, 0.5));
        self.p95_ms.push(quantile(&self.current, 0.95));
        self.ops += self.current.len() as u64;
    }

    /// Passes completed.
    pub fn len(&self) -> usize {
        self.rate.len()
    }

    /// True before the first pass ends.
    pub fn is_empty(&self) -> bool {
        self.rate.is_empty()
    }
}

/// Write `ops_per_s`, `op_p50_ms`, `op_p95_ms` and `cpu_ms_per_op` from
/// every client's passes; returns the ops behind them. Throughput is the
/// sum of the clients' median pass rates; the latency quantiles and CPU
/// per op are medians over all passes.
pub fn summarize(clients: &mut [Passes], m: &mut Metrics) -> u64 {
    let mut all = |f: fn(&mut Passes) -> &mut Vec<f64>| {
        let mut v: Vec<f64> = clients.iter_mut().flat_map(|c| f(c).iter().copied()).collect();
        median(&mut v)
    };
    set(m, "op_p50_ms", all(|c| &mut c.p50_ms));
    set(m, "op_p95_ms", all(|c| &mut c.p95_ms));
    set(m, "cpu_ms_per_op", all(|c| &mut c.cpu_ms_per_op));
    set(m, "ops_per_s", clients.iter_mut().map(|c| median(&mut c.rate)).sum());
    clients.iter().map(|c| c.ops).sum()
}
