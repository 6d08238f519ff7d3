//! The correctness oracle: order-insensitive result digests, the
//! committed expected answers for the default seed, and the tally of
//! attempted and failed operations every check feeds.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ordb::tuple::encode_row;
use ordb::{QueryResult, Value};

/// Word-at-a-time 64-bit hash. Owned here (not `DefaultHasher`) so the
/// committed expected digests cannot change with the toolchain.
pub fn hash64(bytes: &[u8]) -> u64 {
    const K: u64 = 0xFF51_AFD7_ED55_8CCD;
    let mix = |h: u64, w: u64| {
        let h = (h ^ w).wrapping_mul(K);
        h ^ (h >> 32)
    };
    let mut h = 0x9E37_79B9_7F4A_7C15 ^ bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h = mix(h, u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
    }
    let mut tail = [0u8; 8];
    tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
    mix(h, u64::from_le_bytes(tail))
}

/// Row count plus an order-insensitive digest of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    /// Rows returned.
    pub rows: u64,
    /// Wrapping sum of per-row hashes.
    pub sum: u64,
}

impl Digest {
    /// Fold another result's digest into this one.
    pub fn add(&mut self, other: Digest) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// Digest over each row's stored encoding (`encode_row`, the bytes the
/// wire protocol also ships): cheap enough to check on every repetition.
pub fn physical(result: &QueryResult, buf: &mut Vec<u8>) -> Digest {
    let mut sum = 0u64;
    for row in &result.rows {
        buf.clear();
        encode_row(row, buf);
        sum = sum.wrapping_add(hash64(buf));
    }
    Digest { rows: result.rows.len() as u64, sum }
}

/// Digest over each row's logical content — XADT values as plain text —
/// so it survives a change of XADT storage format. This is what the
/// committed expected file pins.
pub fn logical(result: &QueryResult) -> Digest {
    let mut buf = Vec::new();
    let mut sum = 0u64;
    for row in &result.rows {
        buf.clear();
        for v in row {
            match v {
                Value::Null => buf.push(0),
                Value::Int(i) => {
                    buf.push(1);
                    buf.extend_from_slice(&i.to_le_bytes());
                }
                Value::Str(s) => {
                    buf.push(2);
                    buf.extend_from_slice(s.as_bytes());
                }
                Value::Xadt(x) => {
                    buf.push(3);
                    buf.extend_from_slice(x.to_plain().as_bytes());
                }
            }
            buf.push(0xFF);
        }
        sum = sum.wrapping_add(hash64(&buf));
    }
    Digest { rows: result.rows.len() as u64, sum }
}

/// Attempted and failed operations, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Those that errored, were refused, or gave a wrong answer.
    pub failed: u64,
    /// The first failures, for the human-readable report.
    pub messages: Vec<String>,
}

impl Tally {
    /// Count one operation or check; `why` is rendered only on failure.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(why());
            }
        }
    }

    /// Fold a client thread's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
        self.messages.truncate(8);
    }
}

/// Expected `(rows, logical digest)` per statement key for one seed.
pub type Expected = BTreeMap<String, Digest>;

fn expected_path(seed: u64) -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/expected")).join(format!("seed-{seed}.tsv"))
}

/// The committed expected answers for `seed`, when there is a file.
pub fn load_expected(seed: u64) -> Option<Expected> {
    let text = std::fs::read_to_string(expected_path(seed)).ok()?;
    let mut out = Expected::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.is_empty()) {
        let mut f = line.split('\t');
        let (key, rows, sum) = (f.next()?, f.next()?, f.next()?);
        let sum = u64::from_str_radix(sum, 16).ok()?;
        out.insert(key.to_string(), Digest { rows: rows.parse().ok()?, sum });
    }
    Some(out)
}

/// Write `expected` as the committed file for `seed`.
pub fn write_expected(seed: u64, expected: &Expected) -> std::io::Result<PathBuf> {
    let mut text = format!(
        "# statement\trows\tlogical digest — seed {seed}; regenerate with the `expected` subcommand\n"
    );
    for (key, d) in expected {
        text.push_str(&format!("{key}\t{}\t{:016x}\n", d.rows, d.sum));
    }
    let path = expected_path(seed);
    std::fs::create_dir_all(path.parent().expect("expected/ has a parent"))?;
    std::fs::write(&path, text)?;
    Ok(path)
}

/// Check one statement's logical digest against the expected file.
pub fn check_expected(tally: &mut Tally, expected: Option<&Expected>, key: &str, got: Digest) {
    if let Some(expected) = expected {
        let want = expected.get(key).copied();
        tally.check(want == Some(got), || {
            format!("{key}: expected {want:?} from the committed file, got {got:?}")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_ignore_row_order_but_not_content() {
        let r = |rows: Vec<Vec<Value>>| QueryResult { columns: vec!["a".into()], rows };
        let a = r(vec![vec![Value::Int(1)], vec![Value::str("x")]]);
        let b = r(vec![vec![Value::str("x")], vec![Value::Int(1)]]);
        let c = r(vec![vec![Value::str("y")], vec![Value::Int(1)]]);
        let mut buf = Vec::new();
        assert_eq!(physical(&a, &mut buf), physical(&b, &mut buf));
        assert_ne!(physical(&a, &mut buf), physical(&c, &mut buf));
        assert_eq!(logical(&a), logical(&b));
        assert_ne!(logical(&a), logical(&c));
    }
}
