//! End-to-end tests for the wire protocol: a real `Server` on an
//! ephemeral port, real `Client`s over loopback TCP.
//!
//! The load-bearing property is *transparency*: a remote query returns
//! byte-identical results to the same query on the embedded handle
//! (same `QueryResult`, and the rows re-encode to the same
//! `encode_row` bytes the server framed them with). The rest is
//! robustness: malformed frames and rude disconnects must never take
//! the server down.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

use ordb::net::{self, Client, Server};
use ordb::tuple::encode_row;
use ordb::{Database, DbError, QueryResult, Result, Session, Value};

fn served_db(tag: &str) -> (Arc<Database>, net::ServerHandle) {
    let dir = std::env::temp_dir().join(format!("ordb-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).unwrap());
    db.execute("CREATE TABLE item (id INTEGER, name VARCHAR, doc XADT)").unwrap();
    db.execute("CREATE TABLE grp (gid INTEGER, title VARCHAR)").unwrap();
    db.execute("CREATE INDEX item_id ON item (id)").unwrap();
    for i in 0..50 {
        db.execute(&format!(
            "INSERT INTO item VALUES ({i}, 'name-{i}', '<DOC><N>{}</N></DOC>')",
            i % 7
        ))
        .unwrap();
    }
    db.execute("INSERT INTO grp VALUES (0, 'alpha'), (1, 'beta'), (2, 'gamma')").unwrap();
    let server = Server::bind(db.clone(), "127.0.0.1:0").unwrap();
    let handle = server.spawn();
    (db, handle)
}

#[test]
fn remote_results_are_byte_identical_to_embedded() {
    let (db, handle) = served_db("ident");
    let queries = [
        "SELECT id, name FROM item WHERE id < 5",
        "SELECT COUNT(*) FROM item",
        "SELECT g.title, COUNT(*) FROM item i, grp g WHERE i.id % 3 = g.gid GROUP BY g.title",
        "SELECT doc FROM item WHERE id = 3",
        "SELECT id FROM item WHERE id = 9999",
    ];
    let mut client = Client::connect(handle.addr()).unwrap();
    for sql in queries {
        let remote = client.query(sql).unwrap();
        let local = db.query(sql).unwrap();
        assert_eq!(remote, local, "{sql}");
        // Byte-level: both row sets re-encode identically.
        let enc = |r: &ordb::QueryResult| {
            let mut out = Vec::new();
            for row in &r.rows {
                encode_row(row, &mut out);
            }
            out
        };
        assert_eq!(enc(&remote), enc(&local), "{sql}");
    }
    client.close().unwrap();
    handle.stop();
}

#[test]
fn multi_client_concurrent_queries_match_embedded() {
    let (db, handle) = served_db("multi");
    let addr = handle.addr();
    std::thread::scope(|s| {
        for t in 0..4 {
            let db = &db;
            s.spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for round in 0..25 {
                    let id = (t * 25 + round) % 50;
                    let sql = format!("SELECT id, name, doc FROM item WHERE id = {id}");
                    let remote = client.query(&sql).unwrap();
                    let local = db.query(&sql).unwrap();
                    assert_eq!(remote, local, "client {t} round {round}");
                }
                client.close().unwrap();
            });
        }
    });
    let snap = db.metrics_snapshot();
    assert!(snap.net.connections >= 4, "{:?}", snap.net);
    assert!(snap.net.frames_in >= 100, "{:?}", snap.net);
    assert_eq!(snap.net.protocol_errors, 0, "{:?}", snap.net);
    handle.stop();
}

#[test]
fn ddl_dml_commit_and_ping_over_the_wire() {
    let (db, handle) = served_db("ddl");
    let mut client = Client::connect(handle.addr()).unwrap();
    client.ping().unwrap();
    assert_eq!(client.execute("CREATE TABLE wire_t (a INTEGER, b VARCHAR)").unwrap(), 0);
    assert_eq!(client.execute("INSERT INTO wire_t VALUES (1, 'x'), (2, 'y')").unwrap(), 2);
    let r = client.query("SELECT a, b FROM wire_t WHERE a = 2").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(2), Value::Str("y".into())]]);
    // The embedded handle sees the same table (same database object).
    assert_eq!(db.query("SELECT COUNT(*) FROM wire_t").unwrap().scalar(), Some(&Value::Int(2)));
    // i64::MIN travels the wire (regression pairing with the parser fix).
    client.execute(&format!("INSERT INTO wire_t VALUES ({}, 'min')", i64::MIN)).unwrap();
    let r = client.query(&format!("SELECT a FROM wire_t WHERE a = {}", i64::MIN)).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(i64::MIN)]]);
    client.close().unwrap();
    handle.stop();
}

#[test]
fn statement_errors_keep_the_connection_alive() {
    let (_db, handle) = served_db("errs");
    let mut client = Client::connect(handle.addr()).unwrap();
    // Parse error comes back as Parse, not a dead socket.
    match client.query("SELEKT 1") {
        Err(DbError::Parse(_)) | Err(DbError::Plan(_)) => {}
        other => panic!("{other:?}"),
    }
    // Unknown table -> Plan/Catalog error.
    assert!(client.query("SELECT x FROM no_such_table").is_err());
    // The same connection still works afterwards.
    let r = client.query("SELECT COUNT(*) FROM item").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(50)));
    client.close().unwrap();
    handle.stop();
}

#[test]
fn session_set_changes_explain_per_connection() {
    let (db, handle) = served_db("sess");
    let join_sql = "SELECT i.name, g.title FROM item i, grp g WHERE i.id = g.gid";
    let mut forced = Client::connect(handle.addr()).unwrap();
    let mut plain = Client::connect(handle.addr()).unwrap();
    forced.set("force_join", "nested").unwrap();
    let forced_plan = forced.explain(join_sql).unwrap().join("\n");
    let plain_plan = plain.explain(join_sql).unwrap().join("\n");
    assert!(forced_plan.contains("forced"), "{forced_plan}");
    assert_ne!(forced_plan, plain_plan, "session forcing must not leak across connections");
    // The unforced session matches the embedded default plan.
    assert_eq!(plain_plan, db.explain(join_sql).unwrap().join("\n"));
    // Same rows either way (order-insensitive).
    let mut a = forced.query(join_sql).unwrap().rows;
    let mut b = plain.query(join_sql).unwrap().rows;
    a.sort();
    b.sort();
    assert_eq!(a, b);
    // Bad option values error but keep the session.
    assert!(forced.set("force_join", "quantum").is_err());
    forced.ping().unwrap();
    forced.close().unwrap();
    plain.close().unwrap();
    handle.stop();
}

/// Raw-socket abuse: every malformed byte stream must be answered (or
/// dropped) without panicking the server, and the server must keep
/// accepting afterwards.
#[test]
fn malformed_frames_never_kill_the_server() {
    let (db, handle) = served_db("malformed");
    let addr = handle.addr();

    let hello: Vec<u8> = {
        let mut h = net::MAGIC.to_vec();
        h.push(net::VERSION);
        h
    };

    // 1. Wrong magic: connection is refused after the handshake read.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf); // server closes without echo
        assert!(buf.is_empty());
    }

    // 2. Oversized frame length: server answers with a protocol error
    //    frame, then closes.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello).unwrap();
        let mut echo = [0u8; 5];
        s.read_exact(&mut echo).unwrap();
        s.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        // Best-effort error frame: length prefix + RESP_ERROR body.
        assert!(buf.len() > 4, "expected an error frame, got {buf:02x?}");
    }

    // 3. Garbage request tag inside a well-formed frame, and tag 0x05,
    //    protocol version 1's commit request: error frame, connection
    //    stays serviceable.
    for request in [&[0xEE, 1, 2, 3][..], &[0x05]] {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello).unwrap();
        let mut echo = [0u8; 5];
        s.read_exact(&mut echo).unwrap();
        net::write_frame(&mut s, request).unwrap();
        let body = net::read_frame(&mut s).unwrap().expect("an error response");
        match net::Response::decode(&body).unwrap() {
            net::Response::Error { code, .. } => assert_eq!(code, 8, "protocol error code"),
            other => panic!("{other:?}"),
        }
        // Same socket still answers a valid request.
        net::write_frame(&mut s, &net::Request::Ping.encode()).unwrap();
        let body = net::read_frame(&mut s).unwrap().unwrap();
        assert_eq!(net::Response::decode(&body).unwrap(), net::Response::Pong);
    }

    // 4. A version 1 client is refused at the handshake: no echo.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&net::MAGIC).unwrap();
        s.write_all(&[1]).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf);
        assert!(buf.is_empty(), "a v1 hello was answered: {buf:02x?}");
    }

    // 5. Disconnect mid-frame: claim 100 bytes, send 3, hang up.
    {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&hello).unwrap();
        let mut echo = [0u8; 5];
        s.read_exact(&mut echo).unwrap();
        s.write_all(&100u32.to_le_bytes()).unwrap();
        s.write_all(&[1, 2, 3]).unwrap();
        drop(s);
    }

    // The server survived all of it: a fresh client works end to end.
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(client.query("SELECT COUNT(*) FROM item").unwrap().scalar(), Some(&Value::Int(50)));
    client.close().unwrap();
    let snap = db.metrics_snapshot();
    assert!(snap.net.protocol_errors >= 5, "{:?}", snap.net);
    handle.stop();
}

#[test]
fn explicit_txn_is_invisible_across_connections_until_commit() {
    let (db, handle) = served_db("txnvis");
    let mut writer = Client::connect(handle.addr()).unwrap();
    let mut reader = Client::connect(handle.addr()).unwrap();

    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO grp VALUES (77, 'phantom')").unwrap();
    // The writer reads its own uncommitted row…
    let own = writer.query("SELECT title FROM grp WHERE gid = 77").unwrap();
    assert_eq!(own.rows, vec![vec![Value::Str("phantom".into())]]);
    // …but no other connection does.
    assert!(reader.query("SELECT title FROM grp WHERE gid = 77").unwrap().is_empty());

    writer.execute("ROLLBACK").unwrap();
    assert!(writer.query("SELECT title FROM grp WHERE gid = 77").unwrap().is_empty());

    // A committed transaction becomes visible everywhere.
    writer.execute("BEGIN").unwrap();
    writer.execute("INSERT INTO grp VALUES (88, 'durable')").unwrap();
    writer.execute("COMMIT").unwrap();
    let seen = reader.query("SELECT title FROM grp WHERE gid = 88").unwrap();
    assert_eq!(seen.rows, vec![vec![Value::Str("durable".into())]]);

    writer.close().unwrap();
    reader.close().unwrap();
    handle.stop();
    drop(db);
}

#[test]
fn write_write_conflict_round_trips_with_stable_code() {
    let (db, handle) = served_db("txnconflict");
    let conflicts_before = db.metrics_snapshot().txn.conflicts;
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    a.execute("BEGIN").unwrap();
    assert_eq!(a.execute("DELETE FROM item WHERE id = 7").unwrap(), 1);

    // First-updater-wins: B's delete of the same row fails immediately
    // with the dedicated conflict variant (wire error code 9), and B's
    // whole transaction is rolled back server-side.
    b.execute("BEGIN").unwrap();
    b.execute("INSERT INTO grp VALUES (99, 'doomed')").unwrap();
    let err = b.execute("DELETE FROM item WHERE id = 7").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict(_)), "got {err:?}");
    assert_eq!(net::error_code(&err), 9);
    assert_eq!(
        db.metrics_snapshot().txn.conflicts,
        conflicts_before + 1,
        "the conflict is counted"
    );
    // B's earlier insert died with the transaction.
    let mut c = Client::connect(handle.addr()).unwrap();
    assert!(c.query("SELECT * FROM grp WHERE gid = 99").unwrap().is_empty());
    // B's slot was cleared: a fresh BEGIN works.
    b.execute("BEGIN").unwrap();
    b.execute("ROLLBACK").unwrap();

    a.execute("COMMIT").unwrap();
    assert!(c.query("SELECT id FROM item WHERE id = 7").unwrap().is_empty());

    a.close().unwrap();
    b.close().unwrap();
    c.close().unwrap();
    handle.stop();
    drop(db);
}

/// Group commit under wire writers: four clients each commit 50 times,
/// every commit the statements `commit` gives for a fresh key, and every
/// commit asks for a durable fsync. Committers that arrive while a leader
/// is flushing must ride its fsync, so the run ends with fewer fsyncs than
/// commit records. The database lives under the target directory, not the
/// system temp directory, which may be a tmpfs where an fsync costs nothing
/// and no committer ever waits behind one.
fn wire_writers_share_fsyncs(tag: &str, commit: fn(u64, u64) -> Vec<String>) {
    const WRITERS: u64 = 4;
    const COMMITS_EACH: u64 = 50;
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("ordb-net-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let db = Arc::new(Database::open(&dir).unwrap());
    db.execute("CREATE TABLE ledger (k INTEGER, v VARCHAR)").unwrap();
    db.execute("INSERT INTO ledger VALUES (0, 'seed')").unwrap();
    let handle = Server::bind(db.clone(), "127.0.0.1:0").unwrap().spawn();
    let addr = handle.addr();

    let before = db.metrics_snapshot();
    std::thread::scope(|s| {
        for w in 0..WRITERS {
            s.spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                for i in 0..COMMITS_EACH {
                    for sql in commit((w + 1) * 1_000_000 + i, w) {
                        c.execute(&sql).unwrap();
                    }
                }
                c.close().unwrap();
            });
        }
    });
    let d = db.metrics_snapshot().since(&before);
    let commits = WRITERS * COMMITS_EACH;
    assert_eq!(d.txn.committed, commits, "every wire commit lands in the counter");
    let visible = db.query("SELECT COUNT(*) FROM ledger").unwrap();
    assert_eq!(visible.scalar(), Some(&Value::Int(commits as i64 + 1)), "committed rows visible");
    assert_eq!(
        d.wal.group_commits + d.wal.fsyncs_saved,
        commits,
        "each durable commit either leads a flush or rides one: {:?}",
        d.wal
    );
    assert!(
        d.wal.fsyncs < d.wal.commit_records,
        "group commit must batch: {} fsyncs for {} commit records",
        d.wal.fsyncs,
        d.wal.commit_records
    );
    handle.stop();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wire_writers_share_fsyncs_through_group_commit() {
    wire_writers_share_fsyncs("group", |k, w| {
        vec!["BEGIN".into(), format!("INSERT INTO ledger VALUES ({k}, 'w{w}')"), "COMMIT".into()]
    });
}

/// The same with bare autocommit INSERTs: an acknowledged statement is
/// committed durably, through the same group commit as `COMMIT`.
#[test]
fn wire_autocommit_writers_share_fsyncs_through_group_commit() {
    wire_writers_share_fsyncs("autogroup", |k, w| {
        vec![format!("INSERT INTO ledger VALUES ({k}, 'w{w}')")]
    });
}

#[test]
fn connection_drop_mid_txn_auto_aborts() {
    let (db, handle) = served_db("txndrop");
    let aborted_before = db.metrics_snapshot().txn.aborted;
    {
        let mut doomed = Client::connect(handle.addr()).unwrap();
        doomed.execute("BEGIN").unwrap();
        doomed.execute("INSERT INTO grp VALUES (55, 'orphan')").unwrap();
        // Dropped without Close: the server sees EOF mid-transaction.
    }
    // The connection thread runs detached; poll until it aborts.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while db.metrics_snapshot().txn.aborted == aborted_before {
        assert!(std::time::Instant::now() < deadline, "auto-abort never happened");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    // The orphaned insert was physically undone.
    assert!(db.query("SELECT * FROM grp WHERE gid = 55").unwrap().is_empty());
    handle.stop();
}

/// What a script step can do, embedded or over the wire.
trait Conn {
    fn set(&mut self, key: &str, value: &str) -> Result<()>;
    fn query(&mut self, sql: &str) -> Result<QueryResult>;
    fn explain(&mut self, sql: &str) -> Result<Vec<String>>;
    fn execute(&mut self, sql: &str) -> Result<u64>;
}

impl Conn for Session<'_> {
    fn set(&mut self, key: &str, value: &str) -> Result<()> {
        Session::set(self, key, value)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult> {
        Session::query(self, sql)
    }
    fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        Session::explain(self, sql)
    }
    fn execute(&mut self, sql: &str) -> Result<u64> {
        Session::execute(self, sql)
    }
}

impl Conn for Client {
    fn set(&mut self, key: &str, value: &str) -> Result<()> {
        Client::set(self, key, value)
    }
    fn query(&mut self, sql: &str) -> Result<QueryResult> {
        Client::query(self, sql)
    }
    fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        Client::explain(self, sql)
    }
    fn execute(&mut self, sql: &str) -> Result<u64> {
        Client::execute(self, sql)
    }
}

/// One step's outcome: the value, or the error's wire code.
fn outcome<T: std::fmt::Debug>(r: Result<T>) -> String {
    match r {
        Ok(v) => format!("ok {v:?}"),
        Err(e) => format!("error {}", net::error_code(&e)),
    }
}

/// A forced, transactional script on `a`, with `b` as the conflicting
/// second session. Every statement it runs is rolled back by its end.
fn session_script(a: &mut dyn Conn, b: &mut dyn Conn) -> Vec<String> {
    vec![
        outcome(a.set("force_access", "seq")),
        outcome(a.execute("BEGIN")),
        outcome(a.execute("INSERT INTO grp VALUES (42, 'own')")),
        outcome(a.query("SELECT gid, title FROM grp WHERE gid = 42")),
        outcome(a.explain("SELECT name FROM item WHERE id = 7")),
        outcome(a.execute("DELETE FROM item WHERE id = 7")),
        outcome(b.execute("BEGIN")),
        outcome(b.execute("DELETE FROM item WHERE id = 7")),
        // The conflict aborted b's transaction: nothing left to roll back.
        outcome(b.execute("ROLLBACK")),
        outcome(a.execute("ROLLBACK")),
        outcome(a.query("SELECT gid, title FROM grp")),
        outcome(a.query("SELECT COUNT(*) FROM item WHERE id = 7")),
    ]
}

#[test]
fn embedded_and_wire_sessions_behave_identically() {
    let (db, handle) = served_db("twins");
    let embedded = session_script(&mut db.session(), &mut db.session());
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let wire = session_script(&mut a, &mut b);
    assert_eq!(embedded, wire);
    // And the script did what it says.
    assert!(embedded[3].contains("own"), "the transaction reads its own insert: {}", embedded[3]);
    assert!(embedded[4].contains("forcing: "), "EXPLAIN shows the forcing: {}", embedded[4]);
    assert_eq!(embedded[5], "ok 1");
    assert_eq!(embedded[7], "error 9", "first-updater-wins conflict");
    assert_eq!(embedded[8], "error 4", "the conflict cleared b's slot");
    assert!(!embedded[10].contains("own"), "ROLLBACK undid the insert: {}", embedded[10]);
    assert!(embedded[11].contains("Int(1)"), "ROLLBACK released the claim: {}", embedded[11]);
    a.close().unwrap();
    b.close().unwrap();
    handle.stop();
}

#[test]
fn session_drop_mid_txn_auto_aborts() {
    let (db, handle) = served_db("sessdrop");
    handle.stop();
    let aborted_before = db.metrics_snapshot().txn.aborted;
    let pinned = {
        let mut doomed = db.session();
        doomed.execute("BEGIN").unwrap();
        doomed.execute("INSERT INTO grp VALUES (55, 'orphan')").unwrap();
        db.vacuum().unwrap().watermark
        // Dropped without ROLLBACK.
    };
    assert_eq!(db.metrics_snapshot().txn.aborted, aborted_before + 1);
    // The orphaned insert was physically undone, and it pins nothing.
    assert!(db.query("SELECT * FROM grp WHERE gid = 55").unwrap().is_empty());
    assert!(db.vacuum().unwrap().watermark > pinned, "the dropped session still pins vacuum");
}
