//! A small blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection (and thus one server-side
//! [`Session`](crate::session::Session)). Calls are strictly request/response:
//! each method writes one frame, in one `write` from a buffer the
//! connection reuses, and reads one frame through the connection's read
//! buffer, so a small answer costs one `read`. Server-side
//! statement failures come back as the original [`DbError`] variant
//! (reconstructed via [`decode_error`](super::decode_error)), so remote
//! and embedded call sites handle errors identically.

use std::io::BufReader;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::db::QueryResult;
use crate::error::{DbError, Result};

use super::frame::{client_handshake, read_frame, write_frame};
use super::{decode_error, Request, Response};

/// A connected wire-protocol client.
pub struct Client {
    /// The socket behind its read buffer; frames are written to the
    /// socket itself.
    conn: BufReader<TcpStream>,
    /// Reused write buffer: each request is encoded straight into it.
    out: Vec<u8>,
}

impl Client {
    /// Connect and perform the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = BufReader::new(stream);
        client_handshake(&mut conn)?;
        Ok(Client { conn, out: Vec::new() })
    }

    /// Set a read timeout so a stalled server cannot hang the client
    /// forever (`None` blocks indefinitely, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.conn.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        write_frame(self.conn.get_mut(), &mut self.out, |b| req.encode_into(b))?;
        let body = read_frame(&mut self.conn)?.ok_or_else(|| {
            DbError::Protocol("server closed the connection before responding".into())
        })?;
        match Response::decode(&body)? {
            Response::Error { code, message } => Err(decode_error(code, &message)),
            resp => Ok(resp),
        }
    }

    fn unexpected(resp: Response) -> DbError {
        DbError::Protocol(format!("unexpected response {resp:?}"))
    }

    /// Liveness round-trip.
    pub fn ping(&mut self) -> Result<()> {
        match self.roundtrip(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Run a SELECT or an `EXPLAIN [ANALYZE]` remotely; returns the same
    /// [`QueryResult`] the embedded
    /// [`Database::query`](crate::db::Database::query) would.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        match self.roundtrip(&Request::Query(sql.to_string()))? {
            Response::Rows(r) => Ok(r),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Remote DDL/DML, transaction control or `SET`; returns the
    /// affected-row count.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        match self.roundtrip(&Request::Execute(sql.to_string()))? {
            Response::Affected(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Orderly goodbye: waits for the server's `Bye`, then drops the
    /// connection. Simply dropping a `Client` is also fine — the server
    /// treats the EOF as a clean close.
    pub fn close(mut self) -> Result<()> {
        match self.roundtrip(&Request::Close)? {
            Response::Bye => Ok(()),
            other => Err(Self::unexpected(other)),
        }
    }
}
