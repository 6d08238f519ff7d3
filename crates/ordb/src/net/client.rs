//! A small blocking client for the wire protocol.
//!
//! One [`Client`] wraps one TCP connection (and thus one server-side
//! [`Session`](crate::session::Session)). Calls are strictly request/response:
//! each method writes one frame and reads one frame. Server-side
//! statement failures come back as the original [`DbError`] variant
//! (reconstructed via [`decode_error`](super::decode_error)), so remote
//! and embedded call sites handle errors identically.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::db::QueryResult;
use crate::error::{DbError, Result};

use super::frame::{client_handshake, read_frame, write_frame};
use super::{decode_error, Request, Response};

/// A connected wire-protocol client.
pub struct Client {
    stream: TcpStream,
}

impl Client {
    /// Connect and perform the protocol handshake.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client> {
        let mut stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        client_handshake(&mut stream)?;
        Ok(Client { stream })
    }

    /// Set a read timeout so a stalled server cannot hang the client
    /// forever (`None` blocks indefinitely, the default).
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<()> {
        self.stream.set_read_timeout(timeout)?;
        Ok(())
    }

    fn roundtrip(&mut self, req: &Request) -> Result<Response> {
        write_frame(&mut self.stream, &req.encode())?;
        let body = read_frame(&mut self.stream)?.ok_or_else(|| {
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

    /// Run a SELECT remotely; returns the same [`QueryResult`] the
    /// embedded [`Database::query`](crate::db::Database::query) would.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult> {
        match self.roundtrip(&Request::Query(sql.to_string()))? {
            Response::Rows(r) => Ok(r),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Remote EXPLAIN: planner decision lines.
    pub fn explain(&mut self, sql: &str) -> Result<Vec<String>> {
        match self.roundtrip(&Request::Explain(sql.to_string()))? {
            Response::Plan(lines) => Ok(lines),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Remote DDL/DML; returns the affected-row count.
    pub fn execute(&mut self, sql: &str) -> Result<u64> {
        match self.roundtrip(&Request::Execute(sql.to_string()))? {
            Response::Affected(n) => Ok(n),
            other => Err(Self::unexpected(other)),
        }
    }

    /// Set a session option (see
    /// [`Session::set`](crate::session::Session::set)).
    pub fn set(&mut self, key: &str, value: &str) -> Result<()> {
        match self.roundtrip(&Request::Set { key: key.to_string(), value: value.to_string() })? {
            Response::Ok => Ok(()),
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
