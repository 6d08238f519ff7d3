//! # The repo benchmark
//!
//! Five workloads over the XORator/Hybrid engine, each run in a fresh
//! process from a seed: set-up, two warm-up passes, then either a timed
//! phase with tracing off (`--trace 0`: the end-to-end metrics) or a
//! short traced run (`--trace 1`: the per-layer metrics and a Chrome
//! trace). Everything is measured from outside the engine, through its
//! public functions and counter snapshots. See `README.md` beside this
//! package for the workload rationales and the prediction table.

#![warn(missing_docs)]

pub mod analytic;
pub mod churn;
pub mod corpus;
pub mod layers;
pub mod oracle;
pub mod phase;
pub mod report;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod wire;

use std::path::PathBuf;

use layers::Metrics;
use oracle::Tally;
use spec::Workload;

/// Result type of set-up and probe code: any failure there aborts the
/// run with a non-zero exit. Failures of measured operations do not —
/// they are counted into the [`Tally`].
pub type Res<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// One invocation's parameters.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed every input is derived from.
    pub seed: u64,
    /// Length of the timed phase in seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed phase.
    pub trace: bool,
    /// Small, fast variant for the package's own tests.
    pub quick: bool,
    /// Scratch directory for this run's database files.
    pub dir: PathBuf,
}

impl RunArgs {
    /// How many times set-up runs (`setup_s` is their median). The traced
    /// run reports no `setup_s` and quick mode is not for measuring, so
    /// they set up once.
    pub fn setups(&self) -> usize {
        if self.trace || self.quick {
            1
        } else {
            3
        }
    }

    /// Passes of the traced run (and of its untraced baseline).
    pub fn traced_passes(&self) -> u64 {
        if self.quick {
            1
        } else {
            3
        }
    }

    /// Where the traced run writes its Chrome trace.
    pub fn trace_path(&self) -> PathBuf {
        scratch_root().join(format!("trace-{}.json", self.workload))
    }
}

/// What a run produced.
pub struct Outcome {
    /// Attempted and failed operations and checks.
    pub tally: Tally,
    /// The end-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Metrics,
    /// Operations the timing metrics were computed over.
    pub samples: u64,
}

/// `<CARGO_TARGET_DIR or target>/experiments/benchmark-runs`: inside the
/// checkout, ignored by git, where database files and traces go.
pub fn scratch_root() -> PathBuf {
    xorator_bench::scratch_dir("benchmark-runs")
}

/// Set the workload's test bed up `args.setups()` times, each in a
/// clean `args.dir`, tearing the previous one down (untimed) first.
/// Returns the last bed and the median set-up time in seconds.
pub fn repeat_set_up<B>(
    args: &RunArgs,
    mut set_up: impl FnMut() -> Res<B>,
    mut tear_down: impl FnMut(B) -> Res<()>,
) -> Res<(B, f64)> {
    let mut times = Vec::new();
    let mut bed = None;
    for _ in 0..args.setups() {
        if let Some(old) = bed.take() {
            tear_down(old)?;
        }
        let _ = std::fs::remove_dir_all(&args.dir);
        let t = std::time::Instant::now();
        bed = Some(set_up()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((bed.expect("at least one set-up"), stats::median(&mut times)))
}

/// Run one workload.
pub fn run(args: &RunArgs) -> Res<Outcome> {
    let mut outcome = match args.workload {
        Workload::HybridWarm | Workload::XoratorWarm | Workload::PaperCold => analytic::run(args),
        Workload::WirePoint => wire::run(args),
        Workload::WireTxnChurn => churn::run(args),
    }?;
    if !args.trace {
        layers::set(&mut outcome.metrics, "peak_rss_mb", stats::peak_rss_mib());
    }
    Ok(outcome)
}
