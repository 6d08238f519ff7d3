//! `wire_point`: two `net::Client` connections to an in-process
//! `net::Server` over loopback, each looping over 256 seeded keys × three
//! point statements on the Hybrid Shakespeare database (warm pool).
//! Statements this short are dominated by framing, lexing, parsing,
//! planning and a B+Tree probe rather than by the executor.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ordb::{Client, Database, QueryResult, Server, ServerHandle};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::corpus::{disk_bytes, load, mix, Corpus, Dialect, Docs, Loaded};
use crate::layers::{self, set, Metrics, Profile, Window};
use crate::oracle::{self, check_expected, Digest, Tally};
use crate::phase::{summarize, OpCounter, Passes};
use crate::spans::{now_ns, Spans};
use crate::stats::{median, quantile};
use crate::{Outcome, Res, RunArgs};

/// Client connections (and threads) of both wire workloads.
pub const CLIENTS: usize = 2;

/// The 256 seeded `speechID` values the point statements look up.
pub fn point_keys(seed: u64, db: &Database) -> Res<Vec<i64>> {
    let speeches = db.row_count("speech")? as i64;
    let mut rng = SmallRng::seed_from_u64(mix(seed, 3));
    Ok((0..256).map(|_| rng.gen_range(1..=speeches)).collect())
}

/// Primary-key point select.
pub fn pk_select(key: i64) -> String {
    format!("SELECT speech_parentID, speech_parentCODE FROM speech WHERE speechID = {key}")
}

/// The three statement kinds, in list order.
pub const KINDS: [&str; 3] = ["pk", "parent", "join"];

/// The statement list: every key under each kind, kinds interleaved.
pub fn statements(keys: &[i64]) -> Vec<(usize, String)> {
    keys.iter()
        .flat_map(|&k| {
            [
                (0, pk_select(k)),
                (1, format!("SELECT line_value FROM line WHERE line_parentID = {k}")),
                (
                    2,
                    format!(
                        "SELECT speaker_value FROM speech, speaker \
                         WHERE speechID = {k} AND speaker_parentID = speechID"
                    ),
                ),
            ]
        })
        .collect()
}

/// A database behind a running loopback server.
pub struct Served {
    /// The database, shared with the server's connection threads.
    pub db: Arc<Database>,
    /// The accept loop; stopped on drop.
    pub server: ServerHandle,
}

impl Served {
    /// Bind an ephemeral loopback port and start serving `db`.
    pub fn start(db: Arc<Database>) -> Res<Served> {
        let server = Server::bind(db.clone(), "127.0.0.1:0")?.spawn();
        Ok(Served { db, server })
    }

    /// The server's address.
    pub fn addr(&self) -> SocketAddr {
        self.server.addr()
    }

    /// Open the workload's client connections.
    pub fn connect(&self) -> Res<Vec<Client>> {
        (0..CLIENTS).map(|_| Ok(Client::connect(self.addr())?)).collect()
    }

    /// Stop the server and take the database back once every connection
    /// thread has let go of it (they end when their client disconnects).
    pub fn into_db(self) -> Res<Database> {
        self.server.stop();
        let mut db = self.db;
        for _ in 0..2000 {
            match Arc::try_unwrap(db) {
                Ok(db) => return Ok(db),
                Err(shared) => db = shared,
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server connection threads still hold the database".into())
    }
}

struct Bed {
    docs: Docs,
    loaded: Loaded,
    served: Served,
    clients: Vec<Client>,
    stmts: Vec<(usize, String)>,
}

impl Bed {
    /// Disconnect, stop the server and close the database, so that the
    /// directory can be removed or reused.
    fn tear_down(self) -> Res<()> {
        for client in self.clients {
            client.close()?;
        }
        drop(self.loaded);
        Ok(self.served.into_db()?.close()?)
    }
}

fn set_up(args: &RunArgs) -> Res<Bed> {
    let docs = Docs::generate(args.seed);
    let loaded = load(
        &args.dir,
        Corpus::Shakespeare,
        Dialect::Hybrid,
        &docs.shakespeare,
        args.workload.pool_frames(),
    )?;
    let served = Served::start(loaded.db.clone())?;
    let clients = served.connect()?;
    let stmts = statements(&point_keys(args.seed, &loaded.db)?);
    Ok(Bed { docs, loaded, served, clients, stmts })
}

/// What one client thread brings back from a phase.
#[derive(Default)]
struct ClientRun {
    passes: Passes,
    /// Latency in ms per round trip, in issue order (traced run only).
    samples: Vec<f64>,
    tally: Tally,
    spans: Spans,
}

/// What a phase keeps besides the per-pass statistics.
#[derive(Clone, Copy, PartialEq)]
enum Keep {
    /// Nothing: the timed phase.
    Nothing,
    /// Every sample: the traced run's untraced baseline.
    Samples,
    /// Every sample and one span per round trip: the traced passes.
    Spans,
}

/// Every client loops whole passes over `stmts` from its own staggered
/// start until `stop` says so (checked between passes).
fn drive(
    clients: &mut [Client],
    stmts: &[(usize, String)],
    digests: &[Digest],
    keep: Keep,
    stop: &(dyn Fn(usize) -> bool + Sync),
) -> (Vec<ClientRun>, f64) {
    let counter = OpCounter::default();
    let started = Instant::now();
    let runs = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let counter = &counter;
                scope.spawn(move || {
                    let offset = c * stmts.len() / CLIENTS;
                    let mut run = ClientRun::default();
                    // Client 0 samples the process's CPU time per pass.
                    let cpu = (c == 0).then_some(counter);
                    let mut buf = Vec::new();
                    let mut pass = 0;
                    while !stop(pass) {
                        run.passes.begin(cpu);
                        for j in 0..stmts.len() {
                            let i = (j + offset) % stmts.len();
                            let start = now_ns();
                            let result = client.query(&stmts[i].1);
                            let dur = now_ns() - start;
                            run.passes.record(dur as f64 / 1e6, counter);
                            if keep != Keep::Nothing {
                                run.samples.push(dur as f64 / 1e6);
                            }
                            if keep == Keep::Spans {
                                let op = ((c * 1_000_000 + pass) * stmts.len() + i) as u64;
                                let tid = c as u32 + 1;
                                run.spans.push(None, op, tid, "client.roundtrip", start, dur);
                            }
                            match result {
                                Ok(r) => {
                                    let got = oracle::physical(&r, &mut buf);
                                    run.tally.check(got == digests[i], || {
                                        format!("{}: {got:?}, warm-up {:?}", stmts[i].1, digests[i])
                                    });
                                }
                                Err(e) => run.tally.check(false, || format!("{}: {e}", stmts[i].1)),
                            }
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
    (runs, started.elapsed().as_secs_f64())
}

/// Warm-up: every statement over the wire must equal the embedded
/// `Database::query` answer exactly, twice; fixes the digests the timed
/// phase checks against and holds them against the expected file.
fn warm_up(bed: &mut Bed, seed: u64, tally: &mut Tally) -> Res<(Vec<Digest>, Vec<QueryResult>)> {
    let mut buf = Vec::new();
    let mut digests = Vec::with_capacity(bed.stmts.len());
    let mut results = Vec::with_capacity(bed.stmts.len());
    let mut by_kind = [Digest::default(); 3];
    for (kind, sql) in &bed.stmts {
        let embedded = bed.loaded.db.query(sql)?;
        for client in &mut bed.clients {
            let wire = client.query(sql);
            tally.check(wire.as_ref().ok() == Some(&embedded), || {
                format!("{sql}: wire answer differs from embedded")
            });
        }
        tally.check(!embedded.is_empty(), || format!("{sql}: no rows for a key that exists"));
        by_kind[*kind].add(oracle::logical(&embedded));
        digests.push(oracle::physical(&embedded, &mut buf));
        results.push(embedded);
    }
    let expected = oracle::load_expected(seed);
    for (kind, digest) in KINDS.iter().zip(by_kind) {
        check_expected(tally, expected.as_ref(), &format!("wire_point/{kind}"), digest);
    }
    Ok((digests, results))
}

/// Digest per statement kind for the `expected` subcommand.
pub fn expected_entries(seed: u64, db: &Database, out: &mut oracle::Expected) -> Res<()> {
    let mut by_kind = [Digest::default(); 3];
    for (kind, sql) in statements(&point_keys(seed, db)?) {
        by_kind[kind].add(oracle::logical(&db.query(&sql)?));
    }
    for (kind, digest) in KINDS.iter().zip(by_kind) {
        out.insert(format!("wire_point/{kind}"), digest);
    }
    Ok(())
}

/// Run `wire_point` end to end.
pub fn run(args: &RunArgs) -> Res<Outcome> {
    let mut tally = Tally::default();
    let (mut bed, setup_s) = crate::repeat_set_up(args, || set_up(args), Bed::tear_down)?;
    let (digests, results) = warm_up(&mut bed, args.seed, &mut tally)?;

    let mut metrics = Metrics::new();
    let samples;
    if args.trace {
        samples = layer_metrics(args, &mut bed, &digests, &results, &mut tally, &mut metrics)?;
    } else {
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
        let (runs, _) = drive(&mut bed.clients, &bed.stmts, &digests, Keep::Nothing, &|_| {
            Instant::now() >= deadline
        });
        let mut passes = Vec::new();
        for run in runs {
            tally.absorb(run.tally);
            passes.push(run.passes);
        }
        samples = summarize(&mut passes, &mut metrics);
        set(&mut metrics, "setup_s", setup_s);
        let disk = disk_bytes(&bed.loaded.db)?;
        set(&mut metrics, "space_amp", disk as f64 / bed.loaded.xml_bytes as f64);
    }
    bed.tear_down()?;
    Ok(Outcome { tally, metrics, samples })
}

fn layer_metrics(
    args: &RunArgs,
    bed: &mut Bed,
    digests: &[Digest],
    results: &[QueryResult],
    tally: &mut Tally,
    m: &mut Metrics,
) -> Res<u64> {
    let passes = args.traced_passes() as usize;
    let db = bed.loaded.db.clone();

    let (untraced, untraced_s) =
        drive(&mut bed.clients, &bed.stmts, digests, Keep::Samples, &|pass| pass >= passes);
    let mut wire_ms: Vec<f64> = untraced.iter().flat_map(|r| r.samples.iter().copied()).collect();
    wire_ms.sort_by(f64::total_cmp);
    set(m, "net.op_p99_ms", quantile(&wire_ms, 0.99));

    // Traced pass A: the same wire passes, one span per round trip,
    // inside the counter window.
    let window = Window::open(&[&db]);
    let (traced, traced_s) =
        drive(&mut bed.clients, &bed.stmts, digests, Keep::Spans, &|pass| pass >= passes);
    let ops: u64 = traced.iter().map(|r| r.samples.len() as u64).sum();
    window.close(&[&db], ops, m);
    let mut spans = Spans::default();
    for run in untraced.into_iter().chain(traced) {
        tally.absorb(run.tally);
        spans.absorb(run.spans);
    }

    // Traced pass B: replay every statement embedded through
    // `explain_analyze`; its phases become children of that statement's
    // first round-trip span, re-based to the span's start.
    let replay_started = Instant::now();
    let mut profile = Profile::default();
    let mut embedded_ms = Vec::new();
    // Walking backwards leaves each statement's first round trip.
    let mut first_roundtrip = vec![0; bed.stmts.len()];
    for (ix, s) in spans.0.iter().enumerate().rev() {
        first_roundtrip[(s.op as usize) % bed.stmts.len()] = ix;
    }
    for (i, (_, sql)) in bed.stmts.iter().enumerate() {
        let t = Instant::now();
        let plain = db.query(sql)?;
        embedded_ms.push(t.elapsed().as_secs_f64() * 1e3);
        tally.check(plain == results[i], || format!("{sql}: embedded answer changed"));
        let report = db.explain_analyze(sql)?;
        let parent = first_roundtrip[i];
        spans.push_phases(parent, spans.0[parent].start_ns, &report.metrics, false);
        profile.add(&report.metrics);
    }
    let replay_s = replay_started.elapsed().as_secs_f64();
    profile.write(1, bed.stmts.len() as u64, m);
    set(m, "trace.overhead_frac", (traced_s + replay_s) / untraced_s - 1.0);
    // Both sides pool the same statements, three kinds in equal numbers,
    // so both medians sit inside the middle kind's cluster.
    let overhead_ms = quantile(&wire_ms, 0.5) - median(&mut embedded_ms);
    set(m, "net.wire_overhead_us", overhead_ms * 1e3);

    let codec: Vec<(String, QueryResult)> =
        bed.stmts.iter().map(|(_, sql)| sql.clone()).zip(results.iter().cloned()).collect();
    layers::net_probes(bed.served.addr(), &codec, m)?;
    set(m, "sql.parse_us", layers::parse_us(bed.stmts.iter().map(|(_, s)| s.as_str())));
    set(
        m,
        "plan.explain_us",
        layers::explain_us(bed.stmts.iter().map(|(_, s)| (&*db, s.as_str()))),
    );
    set(m, "heap.scan_mrows_per_s", layers::scan_mrows_per_s(&db)?);
    let selects: Vec<String> =
        bed.stmts.iter().filter(|(k, _)| *k == 0).map(|(_, s)| s.clone()).collect();
    set(m, "btree.point_select_us", layers::point_select_us(&db, &selects)?);
    layers::sizes(&[&db], m)?;
    layers::load_path(&bed.docs, std::slice::from_ref(&bed.loaded), m)?;

    spans.write_chrome(&args.trace_path())?;
    Ok(ops)
}
