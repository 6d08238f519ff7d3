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
    decode_cols(bytes, 0..arity)
}

/// Decode only the fields at `ordinals` (strictly ascending positions in
/// the stored row), in that order. Fields before a listed one are
/// stepped over by their length: their tag and bounds are checked, their
/// payload is not looked at (a skipped string is not UTF-8 validated).
/// Fields after the last listed one are not read at all.
pub fn decode_cols(bytes: &[u8], ordinals: impl IntoIterator<Item = usize>) -> Result<Row> {
    let ordinals = ordinals.into_iter();
    let mut row = Vec::with_capacity(ordinals.size_hint().0);
    let (mut pos, mut field) = (0usize, 0usize);
    for want in ordinals {
        assert!(want >= field, "decode_cols ordinals must ascend");
        while field < want {
            (_, _, pos) = field_at(bytes, pos)?;
            field += 1;
        }
        let (tag, payload, next) = field_at(bytes, pos)?;
        row.push(match tag {
            TAG_NULL => Value::Null,
            TAG_INT => Value::Int(i64::from_le_bytes(payload.try_into().expect("8 bytes"))),
            TAG_STR => Value::Str(utf8(payload, "string")?.to_string()),
            TAG_XADT_PLAIN => Value::Xadt(XadtValue::plain(utf8(payload, "xadt")?)),
            _ => Value::Xadt(XadtValue::from_compressed_bytes(payload)),
        });
        (pos, field) = (next, field + 1);
    }
    Ok(row)
}

/// The field starting at `pos`: its tag, its payload and the position of
/// the field after it. Every tag this returns is one of the five known.
fn field_at(bytes: &[u8], pos: usize) -> Result<(u8, &[u8], usize)> {
    let truncated = |what: &str| DbError::Corrupt(format!("tuple truncated {what}"));
    let tag = *bytes.get(pos).ok_or_else(|| truncated("at tag"))?;
    let mut start = pos + 1;
    let len = match tag {
        TAG_NULL => 0,
        TAG_INT => 8,
        TAG_STR | TAG_XADT_PLAIN | TAG_XADT_COMP => {
            let lb = bytes.get(start..start + 4).ok_or_else(|| truncated("in length"))?;
            start += 4;
            u32::from_le_bytes(lb.try_into().expect("4 bytes")) as usize
        }
        other => return Err(DbError::Corrupt(format!("unknown field tag {other}"))),
    };
    let end = start.checked_add(len).ok_or_else(|| truncated("in payload"))?;
    let payload = bytes.get(start..end).ok_or_else(|| truncated("in payload"))?;
    Ok((tag, payload, end))
}

fn utf8<'a>(payload: &'a [u8], what: &str) -> Result<&'a str> {
    std::str::from_utf8(payload).map_err(|_| DbError::Corrupt(format!("{what} is not utf-8")))
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
        // ... also in a field that is only stepped over.
        assert!(matches!(decode_cols(&[99, TAG_NULL], [1]), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn skipped_string_is_not_utf8_checked() {
        let buf = [TAG_STR, 1, 0, 0, 0, 0xFF, TAG_INT, 7, 0, 0, 0, 0, 0, 0, 0];
        assert!(decode_row(&buf, 2).is_err());
        assert_eq!(decode_cols(&buf, [1]).unwrap(), vec![Value::Int(7)]);
    }

    /// Seeded property: for random rows over all five tags and random
    /// ordinal subsets, `decode_cols` is `decode_row` then pick; cut
    /// anywhere before the end of the last listed field it errors, cut
    /// after it (the tail is not read) it answers the same.
    #[test]
    fn projected_decode_matches_full_decode_then_pick() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0_15);
        let text = |rng: &mut SmallRng| -> String {
            let n = rng.gen_range(0..6usize);
            (0..n).map(|_| ['a', 'é', '<', 'z'][rng.gen_range(0..4usize)]).collect()
        };
        for case in 0..400 {
            let row: Row = (0..rng.gen_range(0..9usize))
                .map(|_| match rng.gen_range(0..5u32) {
                    0 => Value::Null,
                    1 => Value::Int(rng.next_u64() as i64),
                    2 => Value::Str(text(&mut rng)),
                    3 => {
                        Value::Xadt(XadtValue::plain(format!("<a>{}</a>", rng.gen_range(0..99u32))))
                    }
                    _ => Value::Xadt(
                        XadtValue::compressed(&format!("<b>{}</b><b/>", rng.gen_range(0..99u32)))
                            .unwrap(),
                    ),
                })
                .collect();
            let mut buf = Vec::new();
            encode_row(&row, &mut buf);
            let full = decode_row(&buf, row.len()).unwrap();
            assert_eq!(full, row, "case {case}");
            let ordinals: Vec<usize> = (0..row.len()).filter(|_| rng.gen_bool(0.4)).collect();
            let picked: Row = ordinals.iter().map(|&i| full[i].clone()).collect();
            assert_eq!(decode_cols(&buf, ordinals.iter().copied()).unwrap(), picked, "case {case}");
            // Bytes the projected decode has to walk: through its last field.
            let read = ordinals.last().map_or(0, |&last| encoded_len(&row[..=last]));
            for cut in 0..buf.len() {
                let got = decode_cols(&buf[..cut], ordinals.iter().copied());
                if cut < read {
                    assert!(matches!(got, Err(DbError::Corrupt(_))), "case {case} cut {cut}");
                } else {
                    assert_eq!(got.unwrap(), picked, "case {case} cut {cut}");
                }
            }
        }
    }
}
