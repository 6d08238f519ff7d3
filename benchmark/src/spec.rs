//! The names the benchmark reports: workloads, end-to-end metrics and
//! per-layer metrics, each with its unit. `BENCHMARK.json` at the repo
//! root declares the same names (a test compares the two).

use std::fmt;
use std::str::FromStr;

/// Seed used when none is given; `expected/seed-1.tsv` pins its answers.
pub const DEFAULT_SEED: u64 = 1;

/// The five workloads. Names are fixed: later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// QS/QE/QG queries, Hybrid dialect, embedded, warm pool.
    HybridWarm,
    /// The same queries in the XORator dialect.
    XoratorWarm,
    /// Both dialects, cache dropped before every statement, tiny pool.
    PaperCold,
    /// Point statements over the loopback wire protocol, two clients.
    WirePoint,
    /// Insert/delete transactions over the wire with vacuum and checkpoint.
    WireTxnChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::HybridWarm,
        Workload::XoratorWarm,
        Workload::PaperCold,
        Workload::WirePoint,
        Workload::WireTxnChurn,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HybridWarm => "hybrid_warm",
            Workload::XoratorWarm => "xorator_warm",
            Workload::PaperCold => "paper_cold",
            Workload::WirePoint => "wire_point",
            Workload::WireTxnChurn => "wire_txn_churn",
        }
    }

    /// Buffer-pool frames the workload opens its databases with.
    pub fn pool_frames(self) -> usize {
        match self {
            // 64 × 8 KiB = 512 KiB against ~7–9 MiB of data + index per
            // database: every statement runs the miss and eviction path.
            Workload::PaperCold => 64,
            // 32 MiB: data and indexes fit, hit rate ≈ 1.
            _ => 4096,
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Workload {
    type Err = String;
    fn from_str(s: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == s)
            .ok_or_else(|| format!("unknown workload {s:?}"))
    }
}

/// End-to-end metrics `(name, unit)`, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("space_amp", "ratio"),
];

/// The paper queries the analytic workloads run, in statement order.
pub const QUERY_IDS: [&str; 14] = [
    "QS1", "QS2", "QS3", "QS4", "QS5", "QS6", "QE1", "QE2", "QG1", "QG2", "QG3", "QG4", "QG5",
    "QG6",
];

const LAYER_METRICS: [(&str, &str); 67] = [
    ("sql.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("plan.explain_us", "us"),
    ("exec.exec_ms", "ms"),
    ("exec.scan_self_ms", "ms"),
    ("exec.join_self_ms", "ms"),
    ("exec.sortagg_self_ms", "ms"),
    ("exec.unnest_self_ms", "ms"),
    ("exec.other_self_ms", "ms"),
    ("exec.rows_examined_per_row", "ratio"),
    ("exec.next_calls_per_op", "count"),
    ("exec.batches_per_op", "count"),
    ("udf.calls_per_op", "count"),
    ("udf.marshalled_kb_per_op", "KiB"),
    ("xadt.unnest_calls_per_op", "count"),
    ("xadt.unnest_kb_per_op", "KiB"),
    ("xadt.tokenize_mb_per_s", "MB/s"),
    ("xadt.get_elm_mb_per_s", "MB/s"),
    ("xadt.find_key_mb_per_s", "MB/s"),
    ("xadt.get_elm_index_mb_per_s", "MB/s"),
    ("xadt.unnest_mb_per_s", "MB/s"),
    ("xadt.compress_mb_per_s", "MB/s"),
    ("xadt.decompress_mb_per_s", "MB/s"),
    ("xadt.compressed_frac", "ratio"),
    ("pool.fetches_per_op", "count"),
    ("pool.misses_per_op", "count"),
    ("pool.hit_rate", "ratio"),
    ("pool.evictions_per_op", "count"),
    ("pool.writebacks_per_op", "count"),
    ("heap.scan_mrows_per_s", "Mrow/s"),
    ("heap.data_mb", "MiB"),
    ("index.index_mb", "MiB"),
    ("btree.probes_per_op", "count"),
    ("btree.point_select_us", "us"),
    ("wal.bytes_per_op", "B"),
    ("wal.fsyncs_per_commit", "ratio"),
    ("wal.group_commit_frac", "ratio"),
    ("wal.commit_call_us", "us"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("txn.conflict_frac", "ratio"),
    ("txn.aborts_per_kop", "count"),
    ("vacuum.pass_ms", "ms"),
    ("vacuum.versions_per_pass", "count"),
    ("vacuum.freed_pages", "count"),
    ("vacuum.reused_slots", "count"),
    ("checkpoint.ms", "ms"),
    ("maint.stall_p95_ms", "ms"),
    ("heap.file_growth_frac", "ratio"),
    ("recovery.reopen_ms", "ms"),
    ("recovery.redo_pages", "count"),
    ("net.ping_us", "us"),
    ("net.connect_us", "us"),
    ("net.codec_us", "us"),
    ("net.frames_per_op", "count"),
    ("net.bytes_in_per_op", "B"),
    ("net.bytes_out_per_op", "B"),
    ("net.wire_overhead_us", "us"),
    ("net.op_p99_ms", "ms"),
    ("datagen.gen_ms", "ms"),
    ("load.xml_mb", "MB"),
    ("xmlkit.parse_mb_per_s", "MB/s"),
    ("core.shred_mb_per_s", "MB/s"),
    ("core.load_ms", "ms"),
    ("core.index_build_ms", "ms"),
    ("core.runstats_ms", "ms"),
    ("core.tuples", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer metrics `(name, unit)`, reported with `--trace 1`: one
/// `query.<id>.p50_ms` per paper query, then the layer list above.
pub fn per_layer() -> Vec<(String, &'static str)> {
    QUERY_IDS
        .iter()
        .map(|id| (format!("query.{id}.p50_ms"), "ms"))
        .chain(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)))
        .collect()
}
