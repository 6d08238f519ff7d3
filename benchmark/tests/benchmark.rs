//! The benchmark's own tests: seeded inputs repeat, the emitted result
//! carries exactly the names `BENCHMARK.json` declares, and each workload
//! exercises the layer it was chosen for and bypasses the one it was
//! chosen to bypass.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;
use std::sync::OnceLock;

use xorator_bench::trajectory::{parse_json, Json};
use xorator_benchmark::corpus::Docs;
use xorator_benchmark::spec::{per_layer, Workload, END_TO_END};
use xorator_benchmark::{analytic, wire};

fn spec() -> Json {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    parse_json(&text).expect("BENCHMARK.json parses")
}

fn names(list: &Json) -> Vec<(String, String)> {
    let Json::Arr(items) = list else { panic!("expected a list, got {list:?}") };
    items
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

/// One `--quick` run per (workload, trace mode), shared by the tests:
/// the contract's result object, parsed.
fn quick_runs() -> &'static BTreeMap<(&'static str, u8), Json> {
    static RUNS: OnceLock<BTreeMap<(&'static str, u8), Json>> = OnceLock::new();
    RUNS.get_or_init(|| {
        let mut runs = BTreeMap::new();
        for workload in Workload::ALL {
            for trace in [0u8, 1] {
                let out = Command::new(env!("CARGO_BIN_EXE_xorator-benchmark"))
                    .args(["--workload", workload.name(), "--seed", "1", "--seconds", "1"])
                    .args(["--trace", &trace.to_string(), "--quick"])
                    .output()
                    .expect("the benchmark binary runs");
                let stdout = String::from_utf8_lossy(&out.stdout);
                assert!(out.status.success(), "{workload} --trace {trace}: {stdout}");
                let last = stdout.lines().last().expect("a result line");
                runs.insert((workload.name(), trace), parse_json(last).expect("result parses"));
            }
        }
        runs
    })
}

fn metric(workload: &str, name: &str) -> f64 {
    let trace = u8::from(!END_TO_END.iter().any(|(n, _)| *n == name));
    quick_runs()[&(workload, trace)]
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("{workload} reports no {name}"))
}

#[test]
fn same_seed_same_inputs_other_seed_other_keys() {
    let (a, b, c) = (Docs::generate(3), Docs::generate(3), Docs::generate(4));
    assert_eq!(a.digest(), b.digest());
    assert_ne!(a.digest(), c.digest());

    let sql = |w| analytic::statements(w).into_iter().map(|s| (s.key, s.sql)).collect::<Vec<_>>();
    assert_eq!(sql(Workload::PaperCold), sql(Workload::PaperCold));
    assert_eq!(sql(Workload::PaperCold).len(), 28);
    assert_eq!(sql(Workload::HybridWarm).len(), 14);

    let dir = xorator_benchmark::scratch_root().join(format!("test-keys-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bed = analytic::set_up(Workload::HybridWarm, 3, &dir).expect("set-up");
    let keys = |seed| wire::point_keys(seed, &bed.dbs[0].db).expect("keys");
    assert_eq!(keys(3), keys(3));
    assert_ne!(keys(3), keys(4));
    assert_eq!(wire::statements(&keys(3)), wire::statements(&keys(3)));
    drop(bed);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn benchmark_json_declares_what_the_code_reports() {
    let spec = spec();
    let declared_workloads: Vec<String> =
        names_of(spec.get("workloads").expect("workloads")).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(declared_workloads, ours);

    let pairs = |list: &[(String, &str)]| -> Vec<(String, String)> {
        list.iter().map(|(n, u)| (n.clone(), u.to_string())).collect()
    };
    let end_to_end: Vec<(String, &str)> =
        END_TO_END.iter().map(|(n, u)| (n.to_string(), *u)).collect();
    assert_eq!(names(spec.get("end_to_end").expect("end_to_end")), pairs(&end_to_end));
    assert_eq!(names(spec.get("per_layer").expect("per_layer")), pairs(&per_layer()));
}

fn names_of(list: &Json) -> impl Iterator<Item = String> + '_ {
    let Json::Arr(items) = list else { panic!("expected a list") };
    items.iter().map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
}

#[test]
fn every_run_reports_exactly_the_declared_names_all_finite_and_correct() {
    for ((workload, trace), result) in quick_runs() {
        let what = format!("{workload} --trace {trace}");
        let Json::Obj(fields) = result else { panic!("{what}: not an object") };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"], "{what}");
        assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0), "{what}");
        assert!(result.get("attempted").and_then(Json::as_u64).expect("attempted") >= 1, "{what}");

        let Some(Json::Obj(metrics)) = result.get("metrics") else { panic!("{what}: no metrics") };
        let want: Vec<(String, String)> = if *trace == 1 {
            per_layer().into_iter().map(|(n, u)| (n, u.to_string())).collect()
        } else {
            END_TO_END.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        let got: Vec<(String, String)> = metrics
            .iter()
            .map(|(n, m)| (n.clone(), m.get("unit").and_then(Json::as_str).expect("unit").into()))
            .collect();
        assert_eq!(got, want, "{what}");
        for (name, m) in metrics {
            let v = m.get("value").and_then(Json::as_f64).expect("value");
            assert!(v.is_finite(), "{what}: {name} = {v}");
            if *trace == 0 {
                assert!(v > 0.0, "{what}: end-to-end metric {name} must never be 0");
            }
        }
    }
}

#[test]
fn each_workload_exercises_its_layer_and_bypasses_the_other() {
    // XADT methods and UDF marshalling: XORator only.
    for name in ["udf.calls_per_op", "xadt.unnest_calls_per_op", "exec.unnest_self_ms"] {
        assert_eq!(metric("hybrid_warm", name), 0.0, "{name}");
        assert!(metric("xorator_warm", name) > 0.0, "{name}");
    }
    assert!(metric("xorator_warm", "xadt.get_elm_mb_per_s") > 0.0);
    assert!(
        metric("hybrid_warm", "exec.join_self_ms") > metric("xorator_warm", "exec.join_self_ms")
    );

    // Buffer pool: the warm pair never misses; the cold run always does.
    // (`pool.hit_rate` counts one fetch per tuple access, so even a cold
    // scan hits the page it just read for every further tuple on it: the
    // miss and eviction counts are what separate the two.)
    for warm in ["hybrid_warm", "xorator_warm"] {
        assert!(metric(warm, "pool.hit_rate") >= 0.99, "{warm}");
        assert_eq!(metric(warm, "pool.evictions_per_op"), 0.0, "{warm}");
    }
    assert!(metric("paper_cold", "pool.misses_per_op") > 50.0);
    assert!(metric("paper_cold", "pool.evictions_per_op") > 50.0);
    assert!(metric("paper_cold", "pool.hit_rate") < metric("hybrid_warm", "pool.hit_rate"));

    // WAL: only the churn workload writes.
    for read_only in ["hybrid_warm", "xorator_warm", "paper_cold", "wire_point"] {
        assert_eq!(metric(read_only, "wal.bytes_per_op"), 0.0, "{read_only}");
    }
    assert!(metric("wire_txn_churn", "wal.bytes_per_op") > 0.0);
    assert!(metric("wire_txn_churn", "wal.fsyncs_per_commit") > 0.0);
    assert!(metric("wire_txn_churn", "vacuum.versions_per_pass") > 0.0);
    assert!(metric("wire_txn_churn", "recovery.reopen_ms") > 0.0);

    // Wire protocol: embedded workloads send no frames.
    for embedded in ["hybrid_warm", "xorator_warm", "paper_cold"] {
        assert_eq!(metric(embedded, "net.frames_per_op"), 0.0, "{embedded}");
    }
    assert_eq!(metric("wire_point", "net.frames_per_op"), 2.0);
    assert!(metric("wire_txn_churn", "net.frames_per_op") >= 8.0);
}
