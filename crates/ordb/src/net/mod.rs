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
//!   [`DbError::Protocol`] instead of a panic or hang;
//! * [`Request`] / [`Response`] — the tagged message bodies. Row batches
//!   reuse the storage layer's [`encode_row`] framing, so a value
//!   round-trips the wire in exactly its heap-file representation;
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

const REQ_PING: u8 = 0x01;
const REQ_QUERY: u8 = 0x02;
const REQ_EXPLAIN: u8 = 0x03;
const REQ_EXECUTE: u8 = 0x04;
const REQ_SET: u8 = 0x06;
const REQ_CLOSE: u8 = 0x07;

const RESP_PONG: u8 = 0x81;
const RESP_ROWS: u8 = 0x82;
const RESP_PLAN: u8 = 0x83;
const RESP_AFFECTED: u8 = 0x84;
const RESP_OK: u8 = 0x85;
const RESP_ERROR: u8 = 0x86;
const RESP_BYE: u8 = 0x87;

/// A client→server message (one frame body).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness check; answered with [`Response::Pong`].
    Ping,
    /// Run a SELECT; answered with [`Response::Rows`].
    Query(String),
    /// Plan a SELECT without executing; answered with [`Response::Plan`].
    Explain(String),
    /// Run DDL/DML; answered with [`Response::Affected`].
    Execute(String),
    /// Set a session option (see
    /// [`Session::set`](crate::session::Session::set)); answered with
    /// [`Response::Ok`].
    Set {
        /// Option name, e.g. `force_join`.
        key: String,
        /// Option value, e.g. `hash`.
        value: String,
    },
    /// Orderly goodbye; answered with [`Response::Bye`], then both ends
    /// close.
    Close,
}

impl Request {
    /// Serialize into a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::Query(sql) => {
                out.push(REQ_QUERY);
                put_str(&mut out, sql);
            }
            Request::Explain(sql) => {
                out.push(REQ_EXPLAIN);
                put_str(&mut out, sql);
            }
            Request::Execute(sql) => {
                out.push(REQ_EXECUTE);
                put_str(&mut out, sql);
            }
            Request::Set { key, value } => {
                out.push(REQ_SET);
                put_str(&mut out, key);
                put_str(&mut out, value);
            }
            Request::Close => out.push(REQ_CLOSE),
        }
        out
    }

    /// Parse a frame body. Any malformation is a [`DbError::Protocol`].
    pub fn decode(body: &[u8]) -> Result<Request> {
        let mut r = Reader::new(body);
        let tag = r.u8("request tag")?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_QUERY => Request::Query(r.str("query sql")?),
            REQ_EXPLAIN => Request::Explain(r.str("explain sql")?),
            REQ_EXECUTE => Request::Execute(r.str("execute sql")?),
            REQ_SET => Request::Set { key: r.str("set key")?, value: r.str("set value")? },
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
    /// A SELECT's column names and row batch.
    Rows(QueryResult),
    /// EXPLAIN output lines.
    Plan(Vec<String>),
    /// Affected-row count of a DDL/DML statement.
    Affected(u64),
    /// Acknowledges a [`Request::Set`].
    Ok,
    /// The statement failed; `code` maps back onto a [`DbError`] variant
    /// (see [`error_code`] / [`decode_error`]).
    Error {
        /// Variant discriminant, see [`error_code`].
        code: u8,
        /// The error's display string.
        message: String,
    },
    /// Answer to [`Request::Close`].
    Bye,
}

impl Response {
    /// Serialize into a frame body. Rows use the storage engine's
    /// [`encode_row`] framing: `u16` column count, the column names,
    /// `u32` row count, then each row as a length-prefixed
    /// `encode_row` record of exactly `ncols` fields.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::Pong => out.push(RESP_PONG),
            Response::Rows(res) => {
                out.push(RESP_ROWS);
                out.extend_from_slice(&(res.columns.len() as u16).to_le_bytes());
                for c in &res.columns {
                    put_str(&mut out, c);
                }
                out.extend_from_slice(&(res.rows.len() as u32).to_le_bytes());
                let mut buf = Vec::new();
                for row in &res.rows {
                    buf.clear();
                    encode_row(row, &mut buf);
                    out.extend_from_slice(&(buf.len() as u32).to_le_bytes());
                    out.extend_from_slice(&buf);
                }
            }
            Response::Plan(lines) => {
                out.push(RESP_PLAN);
                out.extend_from_slice(&(lines.len() as u32).to_le_bytes());
                for l in lines {
                    put_str(&mut out, l);
                }
            }
            Response::Affected(n) => {
                out.push(RESP_AFFECTED);
                out.extend_from_slice(&n.to_le_bytes());
            }
            Response::Ok => out.push(RESP_OK),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                out.push(*code);
                put_str(&mut out, message);
            }
            Response::Bye => out.push(RESP_BYE),
        }
        out
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
            RESP_PLAN => {
                let n = r.u32("plan line count")? as usize;
                let mut lines = Vec::with_capacity(n);
                for _ in 0..n {
                    lines.push(r.str("plan line")?);
                }
                Response::Plan(lines)
            }
            RESP_AFFECTED => Response::Affected(r.u64("affected count")?),
            RESP_OK => Response::Ok,
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

    /// Build the error response for a failed statement.
    pub fn from_error(e: &DbError) -> Response {
        Response::Error { code: error_code(e), message: e.to_string() }
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
            Request::Explain("SELECT * FROM t".into()),
            Request::Execute("INSERT INTO t VALUES (1)".into()),
            Request::Set { key: "force_join".into(), value: "hash".into() },
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
            Response::Plan(vec!["SeqScan t".into(), "  Filter a = 1".into()]),
            Response::Affected(u64::MAX),
            Response::Ok,
            Response::Error { code: 2, message: "parse error: nope".into() },
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
        ];
        for e in &errs {
            let resp = Response::from_error(e);
            let Response::Error { code, message } = &resp else { panic!() };
            let back = decode_error(*code, message);
            assert_eq!(error_code(&back), *code, "{e} -> {back}");
            assert!(back.to_string().contains(message.as_str().split(": ").last().unwrap()));
        }
        // Fragment degrades to Exec but keeps its message.
        let back = decode_error(7, "bad fragment");
        assert!(matches!(back, DbError::Exec(ref m) if m.contains("bad fragment")));
        // Unknown codes never panic.
        assert!(matches!(decode_error(42, "?"), DbError::Protocol(_)));
    }
}
