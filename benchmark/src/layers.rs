//! Per-layer measurements, all taken from outside the engine: wall time
//! around calls into public functions, and differences of the public
//! counter snapshots (`metrics_snapshot`, `udf_counters`) and of the
//! `QueryMetrics` that `explain_analyze` returns.

use std::collections::BTreeMap;
use std::time::Instant;

use ordb::metrics::{OperatorProfile, RegistrySnapshot, UdfCounters};
use ordb::net::{Request, Response};
use ordb::QueryMetrics;
use ordb::{Client, Database, QueryResult};
use xadt::{PlainTokenizer, XadtValue};

use crate::corpus::{Corpus, Dialect, Docs, Loaded};
use crate::stats::median;
use crate::Res;

/// Metric name → value. Names not set are reported as 0 (the layer was
/// not exercised by the workload).
pub type Metrics = BTreeMap<String, f64>;

/// Set one metric.
pub fn set(m: &mut Metrics, name: &str, value: f64) {
    m.insert(name.to_string(), value);
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// A counter window over every database of a workload: open it, run the
/// traced passes, close it to get `*_per_op` metrics.
pub struct Window {
    snaps: Vec<RegistrySnapshot>,
    udfs: Vec<Vec<UdfCounters>>,
}

impl Window {
    /// Snapshot every counter now.
    pub fn open(dbs: &[&Database]) -> Window {
        Window {
            snaps: dbs.iter().map(|db| db.metrics_snapshot()).collect(),
            udfs: dbs.iter().map(|db| db.udf_counters()).collect(),
        }
    }

    /// Diff against now and write the per-op counter metrics for `ops`
    /// operations. Engine counters are process-wide, so they are taken
    /// from the first database only; the rest are summed over databases.
    pub fn close(self, dbs: &[&Database], ops: u64, m: &mut Metrics) {
        let per_op = |v: u64| v as f64 / ops.max(1) as f64;
        let ratio = |num: u64, den: u64| if den == 0 { 0.0 } else { num as f64 / den as f64 };
        let deltas: Vec<RegistrySnapshot> =
            dbs.iter().zip(&self.snaps).map(|(db, s)| db.metrics_snapshot().since(s)).collect();
        let sum = |f: &dyn Fn(&RegistrySnapshot) -> u64| deltas.iter().map(f).sum::<u64>();
        let engine = deltas[0].engine;

        let (hits, misses) = (sum(&|d| d.pool.hits), sum(&|d| d.pool.misses));
        set(m, "pool.fetches_per_op", per_op(hits + misses));
        set(m, "pool.misses_per_op", per_op(misses));
        set(m, "pool.hit_rate", ratio(hits, hits + misses));
        set(m, "pool.evictions_per_op", per_op(sum(&|d| d.pool.evictions)));
        set(m, "pool.writebacks_per_op", per_op(sum(&|d| d.pool.writebacks)));

        let commits = sum(&|d| d.wal.commit_records);
        set(m, "wal.bytes_per_op", per_op(sum(&|d| d.wal.bytes)));
        set(m, "wal.fsyncs_per_commit", ratio(sum(&|d| d.wal.fsyncs), commits));
        set(m, "wal.group_commit_frac", ratio(sum(&|d| d.wal.fsyncs_saved), commits));

        let begun = sum(&|d| d.txn.begun);
        set(m, "txn.conflict_frac", ratio(sum(&|d| d.txn.conflicts), begun));
        set(m, "txn.aborts_per_kop", per_op(sum(&|d| d.txn.aborted)) * 1e3);

        set(m, "net.frames_per_op", per_op(sum(&|d| d.net.frames_in + d.net.frames_out)));
        set(m, "net.bytes_in_per_op", per_op(sum(&|d| d.net.bytes_in)));
        set(m, "net.bytes_out_per_op", per_op(sum(&|d| d.net.bytes_out)));

        set(m, "btree.probes_per_op", per_op(engine.index_probes));
        set(m, "exec.batches_per_op", per_op(engine.batches));
        set(m, "xadt.unnest_calls_per_op", per_op(engine.unnest_calls));
        set(m, "xadt.unnest_kb_per_op", per_op(engine.unnest_bytes) / 1024.0);
        set(m, "vacuum.freed_pages", engine.freed_pages as f64);
        set(m, "vacuum.reused_slots", engine.reused_slots as f64);

        let (mut calls, mut bytes) = (0u64, 0u64);
        for (db, before) in dbs.iter().zip(&self.udfs) {
            for d in ordb::metrics::udf_delta(before, &db.udf_counters()) {
                calls += d.calls;
                bytes += d.marshalled_bytes;
            }
        }
        set(m, "udf.calls_per_op", per_op(calls));
        set(m, "udf.marshalled_kb_per_op", per_op(bytes) / 1024.0);
    }
}

/// What `explain_analyze` reported over the traced statements: plan and
/// exec time, operator self time grouped by operator kind, and the row
/// and call counts the `plan.*` and `exec.*` metrics are built from.
#[derive(Debug, Default, Clone)]
pub struct Profile {
    /// `QueryMetrics.plan` of every statement, µs.
    pub plan_us: Vec<f64>,
    /// Sum of `QueryMetrics.exec`, ms.
    pub exec_ms: f64,
    /// Rows the statements returned.
    pub result_rows: u64,
    /// Self time of `SeqScan` / `IndexScan` leaves, ms.
    pub scan_ms: f64,
    /// Self time of every join operator, ms.
    pub join_ms: f64,
    /// Self time of `Sort`, `HashAggregate` and `Distinct`, ms.
    pub sortagg_ms: f64,
    /// Self time of `UnnestScan`, ms.
    pub unnest_ms: f64,
    /// Self time of everything else (`Filter`, `Project`, `Limit`), ms.
    pub other_ms: f64,
    /// Rows produced by leaf operators.
    pub leaf_rows: u64,
    /// `next()` calls over all operators.
    pub next_calls: u64,
}

impl Profile {
    /// Add one statement's `QueryMetrics`.
    pub fn add(&mut self, q: &QueryMetrics) {
        self.plan_us.push(q.plan.as_secs_f64() * 1e6);
        self.exec_ms += ms(q.exec);
        self.result_rows += q.rows;
        if let Some(root) = &q.root {
            self.add_operator(root);
        }
    }

    /// Walk a profile tree, adding each operator's self time (its
    /// inclusive time minus its children's) to its kind's bucket.
    fn add_operator(&mut self, node: &OperatorProfile) {
        let children: std::time::Duration = node.children.iter().map(|c| c.elapsed).sum();
        let self_ms = ms(node.elapsed.saturating_sub(children));
        let label = node.label.as_str();
        let bucket = if label.contains("Join") {
            &mut self.join_ms
        } else if label.contains("Unnest") {
            &mut self.unnest_ms
        } else if label.contains("Scan") {
            &mut self.scan_ms
        } else if ["Sort", "HashAggregate", "Distinct"].iter().any(|k| label.starts_with(k)) {
            &mut self.sortagg_ms
        } else {
            &mut self.other_ms
        };
        *bucket += self_ms;
        self.next_calls += node.next_calls;
        if node.children.is_empty() {
            self.leaf_rows += node.rows_out;
        }
        for c in &node.children {
            self.add_operator(c);
        }
    }

    /// Write the `plan.*` and `exec.*` metrics: times per pass, counts
    /// per op or per result row.
    pub fn write(&mut self, passes: u64, ops: u64, m: &mut Metrics) {
        let per_pass = |v: f64| v / passes.max(1) as f64;
        set(m, "plan.plan_us", median(&mut self.plan_us));
        set(m, "exec.exec_ms", per_pass(self.exec_ms));
        set(m, "exec.scan_self_ms", per_pass(self.scan_ms));
        set(m, "exec.join_self_ms", per_pass(self.join_ms));
        set(m, "exec.sortagg_self_ms", per_pass(self.sortagg_ms));
        set(m, "exec.unnest_self_ms", per_pass(self.unnest_ms));
        set(m, "exec.other_self_ms", per_pass(self.other_ms));
        let examined = self.leaf_rows as f64 / self.result_rows.max(1) as f64;
        set(m, "exec.rows_examined_per_row", examined);
        set(m, "exec.next_calls_per_op", self.next_calls as f64 / ops.max(1) as f64);
    }
}

/// `sql.parse_us`: median over statements of `parse_statement`'s wall
/// time (each statement's own time is its median of 9 parses).
pub fn parse_us<'a>(sqls: impl Iterator<Item = &'a str>) -> f64 {
    let mut per_statement: Vec<f64> = sqls
        .map(|sql| {
            let mut reps: Vec<f64> = (0..9)
                .map(|_| {
                    let t = Instant::now();
                    let _ = std::hint::black_box(ordb::sql::parse_statement(sql));
                    us_since(t)
                })
                .collect();
            median(&mut reps)
        })
        .collect();
    median(&mut per_statement)
}

/// `plan.explain_us`: median wall time of `Database::explain` (parse +
/// plan, no execution) over `(database, sql)` statements.
pub fn explain_us<'a>(stmts: impl Iterator<Item = (&'a Database, &'a str)>) -> f64 {
    let mut times: Vec<f64> = stmts
        .map(|(db, sql)| {
            let t = Instant::now();
            let _ = std::hint::black_box(db.explain(sql));
            us_since(t)
        })
        .collect();
    median(&mut times)
}

/// `heap.data_mb` and `index.index_mb`: file sizes over `dbs`.
pub fn sizes(dbs: &[&Database], m: &mut Metrics) -> Res<()> {
    let (mut data, mut index) = (0u64, 0u64);
    for db in dbs {
        data += db.data_size_bytes()?;
        index += db.index_size_bytes()?;
    }
    set(m, "heap.data_mb", data as f64 / (1 << 20) as f64);
    set(m, "index.index_mb", index as f64 / (1 << 20) as f64);
    Ok(())
}

/// `heap.scan_mrows_per_s`: a warm `COUNT(*)` over the largest table.
pub fn scan_mrows_per_s(db: &Database) -> Res<f64> {
    let mut largest = (0u64, String::new());
    for t in db.table_names() {
        let rows = db.stats_of(&t).map_or(0, |s| s.row_count);
        if rows >= largest.0 {
            largest = (rows, t);
        }
    }
    let sql = format!("SELECT COUNT(*) FROM {}", largest.1);
    db.query(&sql)?;
    let mut rates = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        let rows = db.query(&sql)?.scalar().and_then(|v| v.as_int()).unwrap_or(0);
        rates.push(rows as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    Ok(median(&mut rates))
}

/// `btree.point_select_us`: median embedded latency of point selects.
pub fn point_select_us(db: &Database, sqls: &[String]) -> Res<f64> {
    let mut times = Vec::with_capacity(sqls.len());
    for sql in sqls {
        let t = Instant::now();
        std::hint::black_box(db.query(sql)?);
        times.push(us_since(t));
    }
    Ok(median(&mut times))
}

/// Load-path probes split out of `setup_s`: the set-up's own step
/// timings, plus direct `xmlkit` parse and `core` shred rates over one
/// un-replicated copy of each loaded corpus.
pub fn load_path(docs: &Docs, loaded: &[Loaded], m: &mut Metrics) -> Res<()> {
    let sum = |f: &dyn Fn(&Loaded) -> f64| loaded.iter().map(f).sum::<f64>();
    let xml_bytes = sum(&|l| l.xml_bytes as f64);
    set(m, "datagen.gen_ms", ms(docs.gen));
    set(m, "load.xml_mb", xml_bytes / 1e6);
    set(m, "core.load_ms", sum(&|l| ms(l.load)));
    set(m, "core.index_build_ms", sum(&|l| ms(l.index_build)));
    set(m, "core.runstats_ms", sum(&|l| ms(l.runstats)));
    set(m, "core.tuples", sum(&|l| l.tuples as f64));
    set(m, "wal.bytes_per_user_byte", sum(&|l| l.wal_bytes as f64) / xml_bytes.max(1.0));

    let (mut parse_bytes, mut parse_s, mut shred_bytes, mut shred_s) = (0.0, 0.0, 0.0, 0.0);
    let mut parsed_corpora: Vec<Corpus> = Vec::new();
    for l in loaded {
        let base = &docs.of(l.corpus)[..docs.of(l.corpus).len() / crate::corpus::SCALE];
        let bytes: f64 = base.iter().map(|d| d.len() as f64).sum();
        let t = Instant::now();
        let parsed: Vec<_> =
            base.iter().map(|d| xmlkit::parse_document(d)).collect::<Result<_, _>>()?;
        if !parsed_corpora.contains(&l.corpus) {
            parsed_corpora.push(l.corpus);
            parse_s += t.elapsed().as_secs_f64();
            parse_bytes += bytes;
        }
        let mapping = l.corpus.mapping(l.dialect);
        let mut shredder = xorator::shred::Shredder::new(&mapping, xadt::StorageFormat::Plain);
        let t = Instant::now();
        for doc in &parsed {
            std::hint::black_box(shredder.shred_document(doc)?);
        }
        shred_s += t.elapsed().as_secs_f64();
        shred_bytes += bytes;
    }
    set(m, "xmlkit.parse_mb_per_s", parse_bytes / 1e6 / f64::max(parse_s, 1e-9));
    set(m, "core.shred_mb_per_s", shred_bytes / 1e6 / f64::max(shred_s, 1e-9));
    Ok(())
}

/// The XADT arguments each harvested column is probed with — the ones
/// the paper queries pass to it.
struct XadtProbe {
    sql: &'static str,
    get_elm: (&'static str, &'static str, &'static str),
    find_key: (&'static str, &'static str),
    get_elm_index: (&'static str, &'static str),
    unnest: &'static str,
}

const SHAKESPEARE_PROBE: XadtProbe = XadtProbe {
    sql: "SELECT speech_line FROM speech",
    get_elm: ("LINE", "STAGEDIR", ""),
    find_key: ("LINE", "love"),
    get_elm_index: ("", "LINE"),
    unnest: "LINE",
};

const SIGMOD_PROBE: XadtProbe = XadtProbe {
    sql: "SELECT pp_slist FROM pp",
    get_elm: ("aTuple", "title", "Join"),
    find_key: ("author", "Bird"),
    get_elm_index: ("authors", "author"),
    unnest: "sListTuple",
};

/// Direct-call XADT probes over up to 1000 fragments harvested from the
/// workload's XORator databases (500 per database), in the storage
/// format the load chose. Rates are plain-text MB of input per second.
pub fn xadt_probes(loaded: &[Loaded], limit: usize, m: &mut Metrics) -> Res<()> {
    let mut secs = [0.0f64; 7];
    let (mut plain_bytes, mut stored_bytes) = (0.0f64, 0.0f64);
    for l in loaded.iter().filter(|l| l.dialect == Dialect::Xorator) {
        let probe = match l.corpus {
            Corpus::Shakespeare => &SHAKESPEARE_PROBE,
            Corpus::Sigmod => &SIGMOD_PROBE,
        };
        let frags: Vec<XadtValue> =
            l.db.query(probe.sql)?
                .rows
                .into_iter()
                .filter_map(|mut r| match r.swap_remove(0) {
                    ordb::Value::Xadt(x) => Some(x),
                    _ => None,
                })
                .take(limit)
                .collect();
        let plains: Vec<String> = frags.iter().map(|f| f.to_plain().into_owned()).collect();
        plain_bytes += plains.iter().map(|p| p.len() as f64).sum::<f64>();
        stored_bytes += frags.iter().map(|f| f.storage_len() as f64).sum::<f64>();

        let mut time = |slot: usize, f: &mut dyn FnMut() -> Res<()>| -> Res<()> {
            let t = Instant::now();
            f()?;
            secs[slot] += t.elapsed().as_secs_f64();
            Ok(())
        };
        time(0, &mut || {
            for p in &plains {
                let mut tok = PlainTokenizer::new(p);
                while std::hint::black_box(tok.next()?).is_some() {}
            }
            Ok(())
        })?;
        let (root, elm, key) = probe.get_elm;
        time(1, &mut || {
            for f in &frags {
                std::hint::black_box(xadt::get_elm(f, root, elm, key, None)?);
            }
            Ok(())
        })?;
        time(2, &mut || {
            for f in &frags {
                std::hint::black_box(xadt::find_key_in_elm(f, probe.find_key.0, probe.find_key.1)?);
            }
            Ok(())
        })?;
        let (parent, child) = probe.get_elm_index;
        time(3, &mut || {
            for f in &frags {
                std::hint::black_box(xadt::get_elm_index(f, parent, child, 2, 2)?);
            }
            Ok(())
        })?;
        time(4, &mut || {
            for f in &frags {
                std::hint::black_box(xadt::unnest(f, probe.unnest)?);
            }
            Ok(())
        })?;
        let mut packed = Vec::with_capacity(plains.len());
        time(5, &mut || {
            for p in &plains {
                packed.push(xadt::compress(p)?);
            }
            Ok(())
        })?;
        time(6, &mut || {
            for c in &packed {
                std::hint::black_box(xadt::decompress(c)?);
            }
            Ok(())
        })?;
    }
    let names = [
        "xadt.tokenize_mb_per_s",
        "xadt.get_elm_mb_per_s",
        "xadt.find_key_mb_per_s",
        "xadt.get_elm_index_mb_per_s",
        "xadt.unnest_mb_per_s",
        "xadt.compress_mb_per_s",
        "xadt.decompress_mb_per_s",
    ];
    for (name, s) in names.iter().zip(secs) {
        set(m, name, if s > 0.0 { plain_bytes / 1e6 / s } else { 0.0 });
    }
    set(
        m,
        "xadt.compressed_frac",
        if plain_bytes > 0.0 { stored_bytes / plain_bytes } else { 0.0 },
    );
    Ok(())
}

/// `net.*` probes against a running server: ping round trip, connect +
/// handshake, and a direct encode + decode of `Request`/`Response`
/// bodies of the workload's own statements and results.
pub fn net_probes(
    addr: std::net::SocketAddr,
    codec_samples: &[(String, QueryResult)],
    m: &mut Metrics,
) -> Res<()> {
    let mut client = Client::connect(addr)?;
    let mut pings: Vec<f64> = Vec::new();
    for _ in 0..500 {
        let t = Instant::now();
        client.ping()?;
        pings.push(us_since(t));
    }
    client.close()?;
    set(m, "net.ping_us", median(&mut pings));

    let mut connects = Vec::new();
    for _ in 0..50 {
        let t = Instant::now();
        let c = Client::connect(addr)?;
        connects.push(us_since(t));
        c.close()?;
    }
    set(m, "net.connect_us", median(&mut connects));

    let mut codec = Vec::with_capacity(codec_samples.len());
    for (sql, result) in codec_samples {
        let (request, response) = (Request::Query(sql.clone()), Response::Rows(result.clone()));
        let t = Instant::now();
        std::hint::black_box(Request::decode(&request.encode())?);
        std::hint::black_box(Response::decode(&response.encode())?);
        codec.push(us_since(t));
    }
    set(m, "net.codec_us", median(&mut codec));
    Ok(())
}
