//! Binary (de)serialization of rows.
//!
//! Format: one record = a sequence of self-describing fields, each
//! `tag: u8` followed by a payload:
//!
//! * `0` NULL — no payload
//! * `1` Int — 8 bytes little-endian
//! * `2` Str — u32 LE length + UTF-8 bytes
//! * `3` Xadt (plain) — u32 LE length + UTF-8 bytes
//! * `4` Xadt (compressed) — u32 LE length + binary token stream
//!
//! The tag distinguishes the two XADT storage formats so a table whose
//! attribute was chosen compressed (paper §4.1) round-trips bit-exactly.

use xadt::XadtValue;

use crate::error::{DbError, Result};
use crate::types::{Row, Value};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_STR: u8 = 2;
const TAG_XADT_PLAIN: u8 = 3;
const TAG_XADT_COMP: u8 = 4;

/// Serialize `row` into `out` (appending).
pub fn encode_row(row: &[Value], out: &mut Vec<u8>) {
    for v in row {
        encode_value(v, out);
    }
}

/// Serialize one field into `out` (appending).
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            out.extend_from_slice(&(s.len() as u32).to_le_bytes());
            out.extend_from_slice(s.as_bytes());
        }
        Value::Xadt(x) => match x {
            XadtValue::Plain(s) => {
                out.push(TAG_XADT_PLAIN);
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
            XadtValue::Compressed(b) => {
                out.push(TAG_XADT_COMP);
                out.extend_from_slice(&(b.len() as u32).to_le_bytes());
                out.extend_from_slice(b);
            }
        },
    }
}

/// Serialized size of `row` in bytes.
pub fn encoded_len(row: &[Value]) -> usize {
    row.iter()
        .map(|v| match v {
            Value::Null => 1,
            Value::Int(_) => 9,
            Value::Str(s) => 5 + s.len(),
            Value::Xadt(x) => 5 + x.storage_len(),
        })
        .sum()
}

/// Decode a row of `arity` fields from `bytes`.
pub fn decode_row(bytes: &[u8], arity: usize) -> Result<Row> {
    let mut row = Vec::with_capacity(arity);
    let mut pos = 0usize;
    for _ in 0..arity {
        let tag =
            *bytes.get(pos).ok_or_else(|| DbError::Corrupt("tuple truncated at tag".into()))?;
        pos += 1;
        match tag {
            TAG_NULL => row.push(Value::Null),
            TAG_INT => {
                let b = bytes
                    .get(pos..pos + 8)
                    .ok_or_else(|| DbError::Corrupt("tuple truncated in int".into()))?;
                row.push(Value::Int(i64::from_le_bytes(b.try_into().unwrap())));
                pos += 8;
            }
            TAG_STR | TAG_XADT_PLAIN | TAG_XADT_COMP => {
                let lb = bytes
                    .get(pos..pos + 4)
                    .ok_or_else(|| DbError::Corrupt("tuple truncated in length".into()))?;
                let len = u32::from_le_bytes(lb.try_into().unwrap()) as usize;
                pos += 4;
                let payload = bytes
                    .get(pos..pos + len)
                    .ok_or_else(|| DbError::Corrupt("tuple truncated in payload".into()))?;
                pos += len;
                match tag {
                    TAG_STR => {
                        let s = std::str::from_utf8(payload)
                            .map_err(|_| DbError::Corrupt("string is not utf-8".into()))?;
                        row.push(Value::Str(s.to_string()));
                    }
                    TAG_XADT_PLAIN => {
                        let s = std::str::from_utf8(payload)
                            .map_err(|_| DbError::Corrupt("xadt is not utf-8".into()))?;
                        row.push(Value::Xadt(XadtValue::plain(s)));
                    }
                    _ => {
                        row.push(Value::Xadt(XadtValue::from_compressed_bytes(payload)));
                    }
                }
            }
            other => {
                return Err(DbError::Corrupt(format!("unknown field tag {other}")));
            }
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        vec![
            Value::Int(42),
            Value::Null,
            Value::str("hello"),
            Value::Xadt(XadtValue::plain("<a>x</a>")),
            Value::Xadt(XadtValue::compressed("<b>y</b><b>z</b>").unwrap()),
        ]
    }

    #[test]
    fn round_trips() {
        let row = sample_row();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        assert_eq!(buf.len(), encoded_len(&row));
        let back = decode_row(&buf, row.len()).unwrap();
        assert_eq!(back, row);
        // Compressed value stays compressed through storage.
        assert!(matches!(&back[4], Value::Xadt(XadtValue::Compressed(_))));
    }

    #[test]
    fn truncation_is_detected() {
        let row = sample_row();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        for cut in [0, 1, 5, 10, buf.len() - 1] {
            assert!(decode_row(&buf[..cut], row.len()).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn empty_row_round_trips() {
        let mut buf = Vec::new();
        encode_row(&[], &mut buf);
        assert!(buf.is_empty());
        assert_eq!(decode_row(&buf, 0).unwrap(), Vec::<Value>::new());
    }

    #[test]
    fn unknown_tag_is_corrupt() {
        assert!(matches!(decode_row(&[99], 1), Err(DbError::Corrupt(_))));
    }
}
