//! The TCP server: accept loop + thread-per-connection statement loop.
//!
//! Failure policy, in order of blast radius:
//!
//! * a failed *statement* (parse error, unknown table…) sends a
//!   [`Response::Error`] frame and the connection keeps serving;
//! * a malformed *request body* (garbage tag, truncated payload) also
//!   answers with an error frame — the frame boundary is still intact,
//!   so the stream stays usable;
//! * a broken *frame layer* (oversized length, mid-frame EOF) makes the
//!   stream unparseable: the server sends a best-effort error frame and
//!   drops that one connection. Other connections and the accept loop
//!   are never affected.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::db::Database;
use crate::error::Result;
use crate::session::Session;

use super::frame::{read_frame, server_handshake, write_frame};
use super::{Request, Response};

/// A bound-but-not-yet-serving TCP server over a shared [`Database`].
pub struct Server {
    db: Arc<Database>,
    listener: TcpListener,
    addr: SocketAddr,
}

impl Server {
    /// Bind `addr` (e.g. `127.0.0.1:4000`, or port `0` for an ephemeral
    /// port — read it back with [`Server::local_addr`]).
    pub fn bind(db: Arc<Database>, addr: impl ToSocketAddrs) -> Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Server { db, listener, addr })
    }

    /// The actual bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start accepting connections on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = shutdown.clone();
        let addr = self.addr;
        let join = std::thread::spawn(move || self.accept_loop(&flag));
        ServerHandle { addr, shutdown, join: Some(join) }
    }

    fn accept_loop(self, shutdown: &AtomicBool) {
        for conn in self.listener.incoming() {
            if shutdown.load(Ordering::SeqCst) {
                break;
            }
            let Ok(stream) = conn else { continue };
            let db = self.db.clone();
            db.metrics().net().connections.fetch_add(1, Ordering::Relaxed);
            // Detached: a connection thread holds only its stream and an
            // Arc on the database, both cleaned up when the loop returns.
            std::thread::spawn(move || {
                let _ = serve_connection(&db, stream);
            });
        }
    }
}

/// Handle to a running server; stops it on [`ServerHandle::stop`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The serving address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the accept thread. In-flight connection
    /// threads finish their current statement loop independently (they
    /// end when their client disconnects).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(join) = self.join.take() else { return };
        self.shutdown.store(true, Ordering::SeqCst);
        // `incoming()` blocks in accept(2); a throwaway connection wakes
        // it so it observes the flag.
        let _ = TcpStream::connect(self.addr);
        let _ = join.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// One connection's lifetime: handshake, then a statement loop until the
/// client closes (or the stream breaks).
fn serve_connection(db: &Database, mut stream: TcpStream) -> Result<()> {
    let _ = stream.set_nodelay(true);
    let net = db.metrics().net();
    if let Err(e) = server_handshake(&mut stream) {
        // Port probes and version mismatches land here; the hello bytes
        // never arrived or were wrong, so there is no frame to answer.
        net.protocol_errors.fetch_add(1, Ordering::Relaxed);
        return Err(e);
    }
    // Whatever ends the connection — clean Close, client vanishing
    // mid-transaction, or a broken frame layer — dropping the session
    // aborts its open transaction.
    statement_loop(db, &mut stream, &mut db.session(), net)
}

fn statement_loop(
    db: &Database,
    stream: &mut TcpStream,
    session: &mut Session,
    net: &crate::metrics::NetCounters,
) -> Result<()> {
    loop {
        let body = match read_frame(stream) {
            Ok(Some(b)) => b,
            // Clean EOF between frames: the client just went away.
            Ok(None) => return Ok(()),
            Err(e) => {
                // Frame layer broken (oversized length / truncation):
                // answer best-effort, then drop the connection — the
                // stream position is no longer trustworthy.
                net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = send(stream, db, &Response::from_error(&e));
                return Err(e);
            }
        };
        net.frames_in.fetch_add(1, Ordering::Relaxed);
        net.bytes_in.fetch_add(body.len() as u64, Ordering::Relaxed);
        let req = match Request::decode(&body) {
            Ok(r) => r,
            Err(e) => {
                // The frame boundary held, only the body was garbage:
                // report and keep serving.
                net.protocol_errors.fetch_add(1, Ordering::Relaxed);
                send(stream, db, &Response::from_error(&e))?;
                continue;
            }
        };
        let closing = matches!(req, Request::Close);
        let resp = handle(session, req);
        send(stream, db, &resp)?;
        if closing {
            return Ok(());
        }
    }
}

fn handle(session: &mut Session, req: Request) -> Response {
    let result: Result<Response> = match req {
        Request::Ping => Ok(Response::Pong),
        Request::Query(sql) => session.query(&sql).map(Response::Rows),
        Request::Explain(sql) => session.explain(&sql).map(Response::Plan),
        Request::Execute(sql) => session.execute(&sql).map(Response::Affected),
        Request::Set { key, value } => session.set(&key, &value).map(|()| Response::Ok),
        Request::Close => Ok(Response::Bye),
    };
    result.unwrap_or_else(|e| Response::from_error(&e))
}

fn send(stream: &mut TcpStream, db: &Database, resp: &Response) -> Result<()> {
    let body = resp.encode();
    write_frame(stream, &body)?;
    let net = db.metrics().net();
    net.frames_out.fetch_add(1, Ordering::Relaxed);
    net.bytes_out.fetch_add(body.len() as u64, Ordering::Relaxed);
    Ok(())
}
