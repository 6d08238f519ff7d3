//! Wire protocol, server, and client for serving a
//! [`Database`](crate::Database) over TCP.
//!
//! The client/server boundary turns the embedded engine into something
//! that can serve remote traffic, the deployment model the XML
//! query-processing literature assumes for relational-backed XML
//! stores. Everything is `std::net` + threads —
//! no async runtime — because the engine's operators are blocking and a
//! thread-per-connection model serves the paper's workloads comfortably.
//!
//! Layers (DESIGN.md §13 has the byte-level layout):
//!
//! * `frame` — the 5-byte `XORD` + version handshake, `u32`-LE
//!   length-prefixed frames, and a bounds-checked payload [`Reader`]
//!   that turns every malformed byte sequence into
//!   [`DbError::Protocol`] instead of a panic or hang. A frame costs one
//!   system call each way: [`write_frame`] sends prefix and body in one
//!   `write_all` from a reused per-connection buffer, and [`read_frame`]
//!   reads through the connection's read buffer, which the handshake
//!   shares;
//! * [`Request`] / [`Response`] — the tagged message bodies: a statement
//!   goes as a `Query` (it returns rows: SELECT, `EXPLAIN [ANALYZE]`) or
//!   an `Execute` (anything else, `SET` included). `encode_into` appends
//!   a body straight into a connection's write buffer. Row batches reuse
//!   the storage layer's [`encode_row`] framing, so a value round-trips
//!   the wire in exactly its heap-file representation. An `Error` carries
//!   the variant's bare message, so a remote error prints exactly as the
//!   embedded one;
//! * [`Server`] / [`ServerHandle`] — accept loop plus
//!   thread-per-connection serving, each connection running its
//!   statements through its own [`Session`](crate::session::Session),
//!   counting traffic into the owning
//!   database's [`MetricsRegistry`](crate::metrics::MetricsRegistry);
//! * [`Client`] — a small blocking client, used by `xord-client`, the
//!   bench saturation driver, and the integration tests.

mod client;
mod frame;
mod server;

pub use client::Client;
pub use frame::{
    client_handshake, put_str, read_frame, server_handshake, write_frame, Reader, MAGIC, MAX_FRAME,
    VERSION,
};
pub use server::{Server, ServerHandle};

use crate::db::QueryResult;
use crate::error::{DbError, Result};
use crate::tuple::{decode_row, encode_row};

// ---- request / response tags --------------------------------------------

// Retired tags, never to be reused: requests 0x03, 0x05, 0x06 and
// responses 0x83, 0x85 (DESIGN.md §13).
const REQ_PING: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_EXECUTE: u8 = 0x04;
const REQ_CLOSE: u8 = 0x07;

const RESP_PONG: u8 = 0x81;
const RESP_ROWS: u8 = 0x82;
const RESP_AFFECTED: u8 = 0x84;
const RESP_ERROR: u8 = 0x86;
const RESP_BYE: u8 = 0x87;

/// A client→server message (one frame body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Run a SELECT or an `EXPLAIN [ANALYZE]`; answered with
    /// [`Response::Rows`].
    Query(String),
    /// Run DDL/DML, transaction control or `SET`; answered with
    /// [`Response::Affected`].
    Execute(String),
    /// Orderly goodbye; answered with [`Response::Bye`], then both ends
    /// close.
    Close,
}

impl Request {
    /// Serialize into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the frame body to `out`, e.g. a connection's write buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Query(sql) => {
                out.push(REQ_QUERY);
                put_str(out, sql);
            }
            Request::Execute(sql) => {
                out.push(REQ_EXECUTE);
                put_str(out, sql);
            }
            Request::Close => out.push(REQ_CLOSE),
        }
    }

    /// Parse a frame body. Any malformation is a [`DbError::Protocol`].
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut r = Reader::new(body);
        let tag = r.u8("request tag")?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query(r.str("query sql")?),
            REQ_EXECUTE => Request::Execute(r.str("execute sql")?),
            REQ_CLOSE => Request::Close,
            other => return Err(DbError::Protocol(format!("unknown request tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(req)
    }
}

/// A server→client message (one frame body).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Ping`].
    Pong,
    /// A SELECT's or an EXPLAIN's column names and row batch.
    Rows(QueryResult),
    /// Affected-row count of any other statement.
    Affected(u64),
    /// The statement failed; `code` maps back onto a [`DbError`] variant
    /// (see [`error_code`] / [`decode_error`]).
    Error {
        /// Variant discriminant, see [`error_code`].
        code: u8,
        /// The variant's bare message (no `"parse error: "` prefix).
        message: String,
    },
    /// Answer to [`Request::Close`].
    Bye,
}

impl Response {
    /// Serialize into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Append the frame body to `out`, e.g. a connection's write buffer.
    /// Rows use the storage engine's [`encode_row`] framing: `u16` column
    /// count, the column names, `u32` row count, then each row as a
    /// length-prefixed `encode_row` record of exactly `ncols` fields,
    /// encoded in place and its length patched in after.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::Rows(res) => {
                out.push(RESP_ROWS);
                out.extend_from_slice(&(res.columns.len() as u16).to_le_bytes());
                for c in &res.columns {
                    put_str(out, c);
                }
                out.extend_from_slice(&(res.rows.len() as u32).to_le_bytes());
                for row in &res.rows {
                    let at = out.len();
                    out.extend_from_slice(&[0; 4]);
                    encode_row(row, out);
                    let len = (out.len() - at - 4) as u32;
                    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
                }
            }
            Response::Affected(n) => {
                out.push(RESP_AFFECTED);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(*code);
                put_str(out, message);
            }
            Response::Bye => out.push(RESP_BYE),
        }
    }

    /// Parse a frame body. Any malformation is a [`DbError::Protocol`].
    pub fn decode(body: &[u8]) -> Result<Response> {
        let mut r = Reader::new(body);
        let tag = r.u8("response tag")?;
        let resp = match tag {
            RESP_PONG => Response::Pong,
            RESP_ROWS => {
                let ncols = r.u16("column count")? as usize;
                let mut columns = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    columns.push(r.str("column name")?);
                }
                let nrows = r.u32("row count")? as usize;
                let mut rows = Vec::new();
                for _ in 0..nrows {
                    let rec = r.bytes("row record")?;
                    let row = decode_row(rec, ncols).map_err(|e| {
                        DbError::Protocol(format!("row record failed to decode: {e}"))
                    })?;
                    rows.push(row);
                }
                Response::Rows(QueryResult { columns, rows })
            }
            RESP_AFFECTED => Response::Affected(r.u64("affected count")?),
            RESP_ERROR => {
                let code = r.u8("error code")?;
                Response::Error { code, message: r.str("error message")? }
            }
            RESP_BYE => Response::Bye,
            other => return Err(DbError::Protocol(format!("unknown response tag {other:#04x}"))),
        };
        r.finish()?;
        Ok(resp)
    }

    /// Build the error response for a failed statement. The message is
    /// the variant's own text, without the `"parse error: "`-style prefix
    /// its `Display` adds: [`decode_error`] rebuilds the variant, and the
    /// variant adds the prefix back.
    pub fn from_error(e: &DbError) -> Response {
        let message = match e {
            DbError::Io(e) => e.to_string(),
            DbError::Fragment(e) => e.to_string(),
            DbError::Parse(m)
            | DbError::Plan(m)
            | DbError::Exec(m)
            | DbError::Catalog(m)
            | DbError::Corrupt(m)
            | DbError::Protocol(m)
            | DbError::TxnConflict(m) => m.clone(),
        };
        Response::Error { code: error_code(e), message }
    }
}

// ---- error mapping ------------------------------------------------------

/// Wire discriminant for a [`DbError`] variant.
pub fn error_code(e: &DbError) -> u8 {
    match e {
        DbError::Io(_) => 1,
        DbError::Parse(_) => 2,
        DbError::Plan(_) => 3,
        DbError::Exec(_) => 4,
        DbError::Catalog(_) => 5,
        DbError::Corrupt(_) => 6,
        DbError::Fragment(_) => 7,
        DbError::Protocol(_) => 8,
        DbError::TxnConflict(_) => 9,
    }
}

/// Reconstruct a [`DbError`] from an [`Response::Error`] payload.
/// Structured payloads (`Io`'s source, `Fragment`'s typed error) cannot
/// cross the wire, so those variants come back as message-preserving
/// stand-ins (`Io` wraps the text, `Fragment` becomes `Exec`).
pub fn decode_error(code: u8, message: &str) -> DbError {
    match code {
        1 => DbError::Io(std::io::Error::other(message.to_string())),
        2 => DbError::Parse(message.to_string()),
        3 => DbError::Plan(message.to_string()),
        4 => DbError::Exec(message.to_string()),
        5 => DbError::Catalog(message.to_string()),
        6 => DbError::Corrupt(message.to_string()),
        7 => DbError::Exec(format!("remote fragment error: {message}")),
        8 => DbError::Protocol(message.to_string()),
        9 => DbError::TxnConflict(message.to_string()),
        other => DbError::Protocol(format!("unknown error code {other}: {message}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Value;
    use xadt::XadtValue;

    #[test]
    fn request_codec_round_trips() {
        let reqs = [
            Request::Ping,
            Request::Query("SELECT 1".into()),
            Request::Execute("INSERT INTO t VALUES (1)".into()),
            Request::Close,
        ];
        for req in &reqs {
            let body = req.encode();
            assert_eq!(&Request::decode(&body).unwrap(), req);
        }
    }

    #[test]
    fn response_codec_round_trips() {
        let rows = QueryResult {
            columns: vec!["a".into(), "b".into(), "x".into(), "c".into()],
            rows: vec![
                vec![
                    Value::Int(i64::MIN),
                    Value::Str("héllo".into()),
                    Value::Xadt(XadtValue::Plain("<LINE>adieu</LINE>".into())),
                    Value::Null,
                ],
                vec![
                    Value::Int(7),
                    Value::Str(String::new()),
                    Value::Xadt(XadtValue::Compressed(vec![1, 2, 255, 0].into())),
                    Value::Int(-1),
                ],
            ],
        };
        let resps = [
            Response::Pong,
            Response::Rows(rows),
            Response::Rows(QueryResult { columns: vec![], rows: vec![] }),
            Response::Affected(u64::MAX),
            Response::Error { code: 2, message: "nope".into() },
            Response::Bye,
        ];
        for resp in &resps {
            let body = resp.encode();
            assert_eq!(&Response::decode(&body).unwrap(), resp);
        }
    }

    #[test]
    fn garbage_and_truncated_bodies_are_protocol_errors() {
        assert!(matches!(Request::decode(&[]), Err(DbError::Protocol(_))));
        assert!(matches!(Request::decode(&[0xFF]), Err(DbError::Protocol(_))));
        assert!(matches!(Response::decode(&[0x00]), Err(DbError::Protocol(_))));
        // Trailing garbage after a well-formed request.
        let mut body = Request::Ping.encode();
        body.push(0);
        assert!(matches!(Request::decode(&body), Err(DbError::Protocol(_))));
        // Every truncation of a structured response fails cleanly.
        let full = Response::Rows(QueryResult {
            columns: vec!["a".into()],
            rows: vec![vec![Value::Int(1)], vec![Value::Str("x".into())]],
        })
        .encode();
        for cut in 0..full.len() {
            assert!(
                matches!(Response::decode(&full[..cut]), Err(DbError::Protocol(_))),
                "cut={cut}"
            );
        }
        // A row record whose bytes are not a valid tuple is caught by
        // the decode_row bridge, reported as Protocol.
        let bogus = {
            let mut out = vec![super::RESP_ROWS];
            out.extend_from_slice(&1u16.to_le_bytes());
            put_str(&mut out, "a");
            out.extend_from_slice(&1u32.to_le_bytes());
            out.extend_from_slice(&3u32.to_le_bytes());
            out.extend_from_slice(&[99, 99, 99]); // unknown tuple tag
            out
        };
        assert!(matches!(Response::decode(&bogus), Err(DbError::Protocol(_))));
    }

    #[test]
    fn error_codes_round_trip_per_variant() {
        let errs = [
            DbError::Io(std::io::Error::other("disk gone")),
            DbError::Parse("p".into()),
            DbError::Plan("pl".into()),
            DbError::Exec("e".into()),
            DbError::Catalog("c".into()),
            DbError::Corrupt("co".into()),
            DbError::Protocol("pr".into()),
            DbError::TxnConflict("t".into()),
        ];
        for e in &errs {
            let resp = Response::from_error(e);
            let Response::Error { code, message } = &resp else { panic!() };
            let back = decode_error(*code, message);
            assert_eq!(error_code(&back), *code, "{e} -> {back}");
            // The remote error reads exactly like the local one: one prefix.
            assert_eq!(back.to_string(), e.to_string());
        }
        // Fragment degrades to its documented Exec stand-in but keeps its
        // message.
        let frag = DbError::Fragment(xadt::FragmentError("bad fragment".into()));
        let Response::Error { code, message } = Response::from_error(&frag) else { panic!() };
        assert_eq!((code, message.as_str()), (7, frag.to_string().as_str()));
        let back = decode_error(code, &message);
        assert!(matches!(back, DbError::Exec(ref m) if m.contains(&frag.to_string())), "{back}");
        // Unknown codes never panic.
        assert!(matches!(decode_error(42, "?"), DbError::Protocol(_)));
    }
}
