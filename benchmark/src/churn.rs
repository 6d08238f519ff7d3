//! `wire_txn_churn`: two wire connections, each looping
//! `BEGIN; INSERT 4 rows; DELETE the 4 rows it inserted 64 transactions
//! ago; COMMIT` on an indexed 20 000-row table, with `VACUUM` every 256
//! transactions and `Database::checkpoint()` every 1024. Live rows stay
//! constant, so the run is in steady state from the end of warm-up. After
//! the run the database is checkpointed, runs two more passes, is
//! abandoned (no flush) and reopened: every acknowledged commit must be
//! visible, every acknowledged delete gone, and the heap and index paths
//! must count the same rows.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};
use std::time::{Duration, Instant};

use ordb::tuple::encoded_len;
use ordb::{Client, ColumnDef, DataType, Database, DbOptions, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{disk_bytes, mix};
use crate::layers::{self, set, Metrics, Window};
use crate::oracle::{check_expected, hash64, Digest, Tally};
use crate::phase::{summarize, OpCounter, Passes};
use crate::spans::{now_ns, Spans};
use crate::stats::{median, quantile};
use crate::wire::{Served, CLIENTS};
use crate::{Outcome, Res, RunArgs};

/// Rows the table is prefilled with (and holds at every commit).
const PREFILL_ROWS: i64 = 20_000;
/// Rows inserted, and rows deleted, per transaction.
const ROWS_PER_TXN: i64 = 4;
/// A transaction deletes the rows its client inserted this many
/// transactions earlier.
const LAG: usize = 64;

/// Transactions per client between two looks at the stop condition;
/// also the window the per-pass statistics are taken over.
const PASS: usize = 32;

/// How often maintenance runs, in transactions over both clients.
#[derive(Clone, Copy)]
struct Cadence {
    vacuum_every: u64,
    checkpoint_every: u64,
}

/// The seeded inputs: where transaction tags start and the payloads.
struct Inputs {
    /// First tag after the prefilled groups; tags number 4-row groups and
    /// are stored in the `parent` column.
    base_tag: i64,
    /// Payload strings, cycled through by row key.
    payloads: Vec<String>,
}

impl Inputs {
    fn new(seed: u64) -> Inputs {
        let mut rng = SmallRng::seed_from_u64(mix(seed, 4));
        let payloads = (0..257)
            .map(|_| (0..24).map(|_| (b'a' + rng.gen_range(0..26u8)) as char).collect())
            .collect();
        Inputs { base_tag: PREFILL_ROWS / ROWS_PER_TXN + rng.gen_range(0..1_000_000i64), payloads }
    }

    fn row(&self, tag: i64, j: i64) -> (i64, &str) {
        let k = tag * ROWS_PER_TXN + j;
        (k, &self.payloads[(k % self.payloads.len() as i64) as usize])
    }

    fn insert_sql(&self, tag: i64) -> String {
        let rows: Vec<String> = (0..ROWS_PER_TXN)
            .map(|j| {
                let (k, v) = self.row(tag, j);
                format!("({k}, {tag}, '{v}')")
            })
            .collect();
        format!("INSERT INTO churn VALUES {}", rows.join(", "))
    }

    /// Tag of client `c`'s transaction number `i` (unique over clients).
    fn tag(&self, c: usize, i: usize) -> i64 {
        self.base_tag + (i * CLIENTS + c) as i64
    }

    /// The group client `c`'s transaction `i` deletes: a prefilled one
    /// for its first `LAG` transactions, then its own from `LAG` ago.
    fn victim(&self, c: usize, i: usize) -> i64 {
        match i.checked_sub(LAG) {
            Some(earlier) => self.tag(c, earlier),
            None => (i * CLIENTS + c) as i64,
        }
    }
}

/// Create, prefill and index the table; flush. Returns the database.
fn create(dir: &std::path::Path, inputs: &Inputs, pool_frames: usize) -> Res<Database> {
    let db = Database::open_with(dir, DbOptions { pool_frames, ..Default::default() })?;
    db.create_table(
        "churn",
        vec![
            ColumnDef::new("k", DataType::Integer),
            ColumnDef::new("parent", DataType::Integer),
            ColumnDef::new("v", DataType::Varchar),
        ],
    )?;
    let rows = (0..PREFILL_ROWS / ROWS_PER_TXN)
        .flat_map(|tag| (0..ROWS_PER_TXN).map(move |j| (tag, j)))
        .map(|(tag, j)| {
            let (k, v) = inputs.row(tag, j);
            vec![Value::Int(k), Value::Int(tag), Value::str(v)]
        })
        .collect();
    db.insert_rows("churn", rows)?;
    db.create_index("ix_churn_k", "churn", vec!["k".into()])?;
    db.create_index("ix_churn_parent", "churn", vec!["parent".into()])?;
    db.runstats_all()?;
    db.flush()?;
    Ok(db)
}

struct Bed {
    inputs: Inputs,
    served: Served,
    clients: Vec<Client>,
    /// Each client's next transaction number (they drift apart: a phase
    /// ends for each client at its own pass boundary).
    next: [usize; CLIENTS],
}

fn set_up(args: &RunArgs) -> Res<Bed> {
    let inputs = Inputs::new(args.seed);
    let db = create(&args.dir, &inputs, args.workload.pool_frames())?;
    let served = Served::start(std::sync::Arc::new(db))?;
    let clients = served.connect()?;
    Ok(Bed { inputs, served, clients, next: [0; CLIENTS] })
}

impl Bed {
    fn tear_down(self) -> Res<Database> {
        for client in self.clients {
            client.close()?;
        }
        self.served.into_db()
    }
}

/// One maintenance call, for the stall analysis and the trace.
struct Maintenance {
    name: &'static str,
    start_ns: u64,
    dur_ns: u64,
    /// Versions the vacuum pass removed (0 for a checkpoint).
    versions: u64,
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientRun {
    passes: Passes,
    /// `(start ns, latency ns)` per transaction (traced run only).
    txns: Vec<(u64, u64)>,
    commit_us: Vec<f64>,
    maintenance: Vec<Maintenance>,
    /// Tags whose insert was acknowledged by a COMMIT.
    inserted: Vec<i64>,
    /// Tags whose delete was acknowledged by a COMMIT.
    deleted: Vec<i64>,
    tally: Tally,
    spans: Spans,
}

/// State the client threads share across the phases of one run.
struct Shared {
    cadence: Cadence,
    /// Commits over both clients; maintenance triggers on its multiples.
    done: AtomicU64,
    /// Transactions hold this for reading, `checkpoint()` for writing.
    /// The engine's checkpoint truncates the WAL under concurrent
    /// commits: a transaction that logs and is acknowledged between the
    /// checkpoint's page flush and its truncation is lost by a crash
    /// (this workload's post-crash check caught it about once in twenty
    /// runs). Until the engine closes that window the workload keeps
    /// transactions out of it, so that no operation fails.
    gate: RwLock<()>,
    /// Passed through before `gate` is taken for reading and held while
    /// it is taken for writing, so that a client starting transaction
    /// after transaction cannot starve the checkpoint (without it the
    /// checkpoint waited over a second, until the other client happened
    /// to run a `VACUUM`).
    turnstile: Mutex<()>,
    ops: OpCounter,
}

/// Every client runs whole passes of `PASS` transactions until
/// `stop(passes done)` says so. `detail` keeps every transaction's
/// timing and records spans (the traced run).
fn drive(
    bed: &mut Bed,
    shared: &Shared,
    detail: bool,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<ClientRun>, f64) {
    let (inputs, db) = (&bed.inputs, &*bed.served.db);
    let started = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = bed
            .clients
            .iter_mut()
            .zip(bed.next)
            .enumerate()
            .map(|(c, (client, from))| {
                scope.spawn(move || {
                    let mut run = ClientRun::default();
                    let tid = c as u32 + 1;
                    // Client 0 samples the process's CPU time per pass.
                    let cpu = (c == 0).then_some(&shared.ops);
                    let mut pass = 0;
                    while !stop(pass) {
                        run.passes.begin(cpu);
                        for i in from + pass * PASS..from + (pass + 1) * PASS {
                            transaction(client, inputs, shared, c, i, detail, &mut run);
                            maintain(client, db, shared, tid, detail, &mut run);
                        }
                        run.passes.end(None, cpu);
                        pass += 1;
                    }
                    run
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    for (next, run) in bed.next.iter_mut().zip(&runs) {
        *next += run.passes.len() * PASS;
    }
    (runs, elapsed)
}

/// Client `c`'s transaction number `i`: four round trips, one op.
fn transaction(
    client: &mut Client,
    inputs: &Inputs,
    shared: &Shared,
    c: usize,
    i: usize,
    detail: bool,
    run: &mut ClientRun,
) {
    let (tag, victim) = (inputs.tag(c, i), inputs.victim(c, i));
    let (op, tid) = (tag as u64, c as u32 + 1);
    drop(shared.turnstile.lock().expect("no client panics holding the turnstile"));
    let _in_txn = shared.gate.read().expect("no client panics holding the gate");
    let start = now_ns();
    let first_span = run.spans.0.len();
    let mut step = |name: &'static str, sql: &str, want: u64| {
        let t = now_ns();
        let got = client.execute(sql);
        let dur = now_ns() - t;
        if detail {
            run.spans.push(None, op, tid, name, t, dur);
        }
        run.tally.check(got.as_ref().ok() == Some(&want), || {
            format!("txn {tag} {name}: expected {want} rows, got {got:?}")
        });
        (got.is_ok(), dur)
    };
    let mut ok = step("BEGIN", "BEGIN", 0).0;
    ok &= step("INSERT", &inputs.insert_sql(tag), ROWS_PER_TXN as u64).0;
    ok &= step("DELETE", &format!("DELETE FROM churn WHERE parent = {victim}"), 4).0;
    let (committed, commit_ns) = step("wal.commit", "COMMIT", 0);
    let dur = now_ns() - start;
    run.passes.record(dur as f64 / 1e6, &shared.ops);
    if detail {
        run.txns.push((start, dur));
        run.commit_us.push(commit_ns as f64 / 1e3);
        let me = run.spans.push(None, op, tid, format!("op txn {tag}"), start, dur);
        for s in &mut run.spans.0[first_span..me] {
            s.parent = Some(me);
        }
    }
    if ok && committed {
        run.inserted.push(tag);
        run.deleted.push(victim);
    }
}

/// After a commit: `VACUUM` over the wire or `checkpoint()` when the
/// shared commit count crosses the cadence.
fn maintain(
    client: &mut Client,
    db: &Database,
    shared: &Shared,
    tid: u32,
    detail: bool,
    run: &mut ClientRun,
) {
    let n = shared.done.fetch_add(1, Ordering::SeqCst) + 1;
    let (name, start_ns, versions) = if n.is_multiple_of(shared.cadence.checkpoint_every) {
        let _no_new_txn = shared.turnstile.lock().expect("no client panics holding the turnstile");
        let _quiesced = shared.gate.write().expect("no client panics holding the gate");
        let t = now_ns();
        let r = db.checkpoint();
        run.tally.check(r.is_ok(), || format!("checkpoint: {r:?}"));
        ("checkpoint", t, 0)
    } else if n.is_multiple_of(shared.cadence.vacuum_every) {
        let t = now_ns();
        let r = client.execute("VACUUM");
        run.tally.check(r.is_ok(), || format!("VACUUM: {r:?}"));
        ("vacuum", t, r.unwrap_or(0))
    } else {
        return;
    };
    let dur_ns = now_ns() - start_ns;
    if detail {
        run.maintenance.push(Maintenance { name, start_ns, dur_ns, versions });
        run.spans.push(None, n, tid, name, start_ns, dur_ns);
    }
}

/// Fold a phase's acknowledged commits into the model of live tags.
fn settle(live: &mut BTreeSet<i64>, runs: &mut [ClientRun], tally: &mut Tally) {
    for run in runs {
        live.extend(run.inserted.drain(..));
        for tag in run.deleted.drain(..) {
            live.remove(&tag);
        }
        tally.absorb(std::mem::take(&mut run.tally));
    }
}

/// `(k)` digest and count of a set of live tags.
fn model_digest(inputs: &Inputs, live: &BTreeSet<i64>) -> Digest {
    let mut d = Digest::default();
    for &tag in live {
        for j in 0..ROWS_PER_TXN {
            d.rows += 1;
            d.sum = d.sum.wrapping_add(hash64(&inputs.row(tag, j).0.to_le_bytes()));
        }
    }
    d
}

fn table_digest(db: &Database) -> Res<(Digest, u64)> {
    let mut d = Digest::default();
    let mut bytes = 0u64;
    for row in db.query("SELECT k, parent, v FROM churn")?.rows {
        d.rows += 1;
        d.sum = d.sum.wrapping_add(hash64(&row[0].as_int().unwrap_or(-1).to_le_bytes()));
        bytes += encoded_len(&row) as u64;
    }
    Ok((d, bytes))
}

/// Digest of the prefilled table for the `expected` subcommand.
pub fn expected_entries(
    seed: u64,
    dir: &std::path::Path,
    out: &mut crate::oracle::Expected,
) -> Res<()> {
    let db = create(dir, &Inputs::new(seed), 4096)?;
    out.insert("wire_txn_churn/prefill".into(), table_digest(&db)?.0);
    Ok(())
}

/// Run `wire_txn_churn` end to end.
pub fn run(args: &RunArgs) -> Res<Outcome> {
    let mut tally = Tally::default();
    let (mut bed, setup_s) =
        crate::repeat_set_up(args, || set_up(args), |old: Bed| Ok(old.tear_down()?.close()?))?;
    let expected = crate::oracle::load_expected(args.seed);
    let prefill = table_digest(&bed.served.db)?.0;
    check_expected(&mut tally, expected.as_ref(), "wire_txn_churn/prefill", prefill);

    // Maintenance runs four times as often in quick mode so that a
    // one-second run still sees vacuum passes and a checkpoint.
    let cadence = if args.quick {
        Cadence { vacuum_every: 64, checkpoint_every: 256 }
    } else {
        Cadence { vacuum_every: 256, checkpoint_every: 1024 }
    };
    let shared = Shared {
        cadence,
        done: AtomicU64::new(0),
        gate: RwLock::new(()),
        turnstile: Mutex::new(()),
        ops: OpCounter::default(),
    };
    let mut live: BTreeSet<i64> = (0..PREFILL_ROWS / ROWS_PER_TXN).collect();
    let mut settle = |runs: &mut [ClientRun], tally: &mut Tally| settle(&mut live, runs, tally);

    // Warm-up: 256 transactions per client (the first 64 delete prefilled
    // rows, the rest the client's own), two vacuum passes, then a
    // checkpoint. The files' size at this fixed transaction count is
    // `space_amp`'s numerator: the index grows with every transaction
    // (keys only ever increase), so measuring at the end of the timed
    // phase would charge a faster engine for the extra transactions it ran.
    let warm_passes = if args.quick { 2 * LAG / PASS } else { 4 * LAG / PASS };
    let (mut runs, _) = drive(&mut bed, &shared, false, &|p| p >= warm_passes);
    settle(&mut runs, &mut tally);
    let db = bed.served.db.clone();
    let disk_after_warm_up = disk_bytes(&db)?;
    let heap_after_warm_up = db.data_size_bytes()?;

    let mut metrics = Metrics::new();
    let m = &mut metrics;
    let samples;
    if args.trace {
        // The traced run is a fixed number of transactions, 12 passes
        // untraced and 12 traced: with the warm-up's 512 transactions the
        // traced half ends on transaction 2048, so it holds two vacuum
        // passes and one checkpoint (quick: 2 passes, ending on 512).
        let n = if args.quick { 2 } else { 12 };
        let (mut untraced, untraced_s) = drive(&mut bed, &shared, false, &|p| p >= n);
        settle(&mut untraced, &mut tally);
        let window = Window::open(&[&db]);
        let (mut traced, traced_s) = drive(&mut bed, &shared, true, &|p| p >= n);
        settle(&mut traced, &mut tally);
        let ops = (traced.len() * n * PASS) as u64;
        window.close(&[&db], ops, m);
        set(m, "trace.overhead_frac", traced_s / untraced_s - 1.0);

        let mut spans = Spans::default();
        let mut commit_us = Vec::new();
        let (mut vacuum_ms, mut versions, mut checkpoint_ms) = (Vec::new(), Vec::new(), Vec::new());
        let (mut txns, mut calls) = (Vec::new(), Vec::new());
        for run in traced {
            spans.absorb(run.spans);
            commit_us.extend(run.commit_us);
            txns.extend(run.txns);
            for c in run.maintenance {
                let ms = c.dur_ns as f64 / 1e6;
                if c.name == "vacuum" {
                    vacuum_ms.push(ms);
                    versions.push(c.versions as f64);
                } else {
                    checkpoint_ms.push(ms);
                }
                calls.push((c.start_ns, c.start_ns + c.dur_ns));
            }
        }
        set(m, "wal.commit_call_us", median(&mut commit_us));
        set(m, "vacuum.pass_ms", median(&mut vacuum_ms));
        set(m, "vacuum.versions_per_pass", median(&mut versions));
        set(m, "checkpoint.ms", median(&mut checkpoint_ms));
        let mut stalled: Vec<f64> = txns
            .iter()
            .filter(|(s, d)| calls.iter().any(|(cs, ce)| s < ce && *cs < s + d))
            .map(|(_, d)| *d as f64 / 1e6)
            .collect();
        stalled.sort_by(f64::total_cmp);
        set(m, "maint.stall_p95_ms", quantile(&stalled, 0.95));
        let mut all: Vec<f64> = txns.iter().map(|(_, d)| *d as f64 / 1e6).collect();
        all.sort_by(f64::total_cmp);
        set(m, "net.op_p99_ms", quantile(&all, 0.99));

        let statements = [
            "BEGIN".to_string(),
            bed.inputs.insert_sql(bed.inputs.base_tag),
            format!("DELETE FROM churn WHERE parent = {}", bed.inputs.base_tag),
            "COMMIT".to_string(),
        ];
        set(m, "sql.parse_us", layers::parse_us(statements.iter().map(String::as_str)));
        layers::net_probes(bed.served.addr(), &[], m)?;
        set(m, "heap.scan_mrows_per_s", layers::scan_mrows_per_s(&db)?);
        let selects: Vec<String> = live
            .iter()
            .take(256)
            .map(|tag| format!("SELECT v FROM churn WHERE k = {}", bed.inputs.row(*tag, 0).0))
            .collect();
        set(m, "btree.point_select_us", layers::point_select_us(&db, &selects)?);
        layers::sizes(&[&db], m)?;
        set(m, "heap.file_growth_frac", db.data_size_bytes()? as f64 / heap_after_warm_up as f64);
        samples = ops;
        let reopened =
            crash_and_reopen(args, bed, &shared, db, live, &mut tally, Some(&mut spans))?;
        set(m, "recovery.reopen_ms", reopened.reopen_ms);
        set(m, "recovery.redo_pages", reopened.redo_pages);
        spans.write_chrome(&args.trace_path())?;
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let (mut runs, _) = drive(&mut bed, &shared, false, &|_| Instant::now() >= deadline);
        settle(&mut runs, &mut tally);
        let mut passes: Vec<Passes> = runs.into_iter().map(|r| r.passes).collect();
        samples = summarize(&mut passes, m);
        set(m, "setup_s", setup_s);
        let reopened = crash_and_reopen(args, bed, &shared, db, live, &mut tally, None)?;
        set(m, "space_amp", disk_after_warm_up as f64 / reopened.live_bytes);
    }
    Ok(Outcome { tally, metrics, samples })
}

struct Reopened {
    reopen_ms: f64,
    redo_pages: f64,
    live_bytes: f64,
}

/// Checkpoint, run two more passes per client (so that recovery always
/// finds the same amount of log), disconnect, abandon the database
/// without flushing, reopen it (redo + undo recovery), and run the
/// post-run checks against the model.
fn crash_and_reopen(
    args: &RunArgs,
    mut bed: Bed,
    shared: &Shared,
    db: std::sync::Arc<Database>,
    mut live: BTreeSet<i64>,
    tally: &mut Tally,
    spans: Option<&mut Spans>,
) -> Res<Reopened> {
    db.checkpoint()?;
    drop(db);
    let (mut runs, _) = drive(&mut bed, shared, false, &|p| p >= 2);
    settle(&mut live, &mut runs, tally);
    let model = model_digest(&bed.inputs, &live);
    bed.tear_down()?.abandon();

    let start = now_ns();
    let pool_frames = args.workload.pool_frames();
    let db = Database::open_with(&args.dir, DbOptions { pool_frames, ..Default::default() })?;
    let reopen_ns = now_ns() - start;
    if let Some(spans) = spans {
        spans.push(None, 0, 1, "recovery.reopen", start, reopen_ns);
    }
    let redo_pages = db.recovery_report().map_or(0, |r| r.replayed_pages) as f64;

    let (found, live_bytes) = table_digest(&db)?;
    tally.check(found == model, || {
        format!("after reopen the table holds {found:?}, acknowledged commits imply {model:?}")
    });
    let heap_rows = db.row_count("churn")?;
    let index_rows = db
        .query("SELECT COUNT(*) FROM churn WHERE k >= 0")?
        .scalar()
        .and_then(|v| v.as_int())
        .unwrap_or(-1);
    tally.check(heap_rows as i64 == index_rows && heap_rows == model.rows, || {
        format!("heap scan counts {heap_rows} rows, index scan {index_rows}, model {}", model.rows)
    });
    db.close()?;
    Ok(Reopened { reopen_ms: reopen_ns as f64 / 1e6, redo_pages, live_bytes: live_bytes as f64 })
}
