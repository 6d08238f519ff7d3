//! `xord-server --db DIR [--addr HOST:PORT]` — serve a database over the
//! wire protocol (DESIGN.md §13).
//!
//! Prints `listening on HOST:PORT` once the listener is bound (with the
//! resolved port when `--addr` asked for port 0), so scripts can scrape
//! the ephemeral address — the CI `server-smoke` job does exactly that.
//! Serves until killed. Every statement it acknowledges is durable, so
//! a `kill -9` loses nothing acknowledged: it matches `Database::abandon`,
//! and the WAL replays on the next open.

use std::sync::Arc;

use ordb::net::Server;
use ordb::Database;

fn main() {
    let mut db_dir: Option<String> = None;
    let mut addr = "127.0.0.1:4000".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--db" => db_dir = args.next(),
            "--addr" => {
                if let Some(v) = args.next() {
                    addr = v;
                }
            }
            "--help" | "-h" => {
                println!(
                    "usage: xord-server --db DIR [--addr HOST:PORT]\n\
                     \n\
                     Serves the ordb database in DIR over the XORD wire protocol.\n\
                     --addr defaults to 127.0.0.1:4000; port 0 picks an ephemeral\n\
                     port (printed on the `listening on` line)."
                );
                return;
            }
            other => {
                eprintln!("xord-server: unknown argument {other:?} (try --help)");
                std::process::exit(2);
            }
        }
    }
    let Some(db_dir) = db_dir else {
        eprintln!("usage: xord-server --db DIR [--addr HOST:PORT]");
        std::process::exit(2);
    };

    let db = match Database::open(&db_dir) {
        Ok(db) => Arc::new(db),
        Err(e) => {
            eprintln!("xord-server: cannot open {db_dir}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(report) = db.recovery_report() {
        eprintln!("recovered: {report:?}");
    }
    let server = match Server::bind(db, addr.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("xord-server: cannot bind {addr}: {e}");
            std::process::exit(1);
        }
    };
    // Explicit flush: scripts scrape this line through a pipe, where
    // stdout is block-buffered and a bare println! would sit unsent.
    {
        use std::io::Write;
        let mut out = std::io::stdout();
        let _ = writeln!(out, "listening on {}", server.local_addr());
        let _ = out.flush();
    }
    // The accept loop runs on the spawned thread; park this one forever.
    let handle = server.spawn();
    let _ = handle.addr();
    loop {
        std::thread::park();
    }
}
