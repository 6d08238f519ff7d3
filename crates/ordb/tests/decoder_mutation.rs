//! Seeded byte-mutation tests at the untrusted-input boundaries this
//! crate decodes: the wire's frame stream, its request and response
//! bodies, and the SQL text the parser reads. Each valid input is mutated
//! by a few byte flips, inserts, deletes and truncations, with a fixed
//! seed so a failure replays. Every decode must return `Ok` or `Err`,
//! never panic.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::{Cell, RefCell};
use std::io::{BufReader, Read};
use std::panic::{catch_unwind, AssertUnwindSafe};

use ordb::net::{read_frame, write_frame, Request, Response, MAX_FRAME};
use ordb::sql::parse_statement;
use ordb::{QueryResult, Value};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xadt::XadtValue;

/// Mutations per decoder: about 20 k in release, fewer in debug.
const ROUNDS: usize = if cfg!(debug_assertions) { 3_000 } else { 20_000 };

/// Bytes an insert draws from half the time: SQL punctuation, digits,
/// letters and the lead byte of a multi-byte UTF-8 character.
const ALPHABET: &[u8] = b"'\"()=<>!,;.*+-/% 0123456789aZ_\t\xc3";

/// One to three byte-level edits of `input`.
fn mutate(rng: &mut SmallRng, input: &[u8]) -> Vec<u8> {
    let mut out = input.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        match rng.gen_range(0..4) {
            0 if !out.is_empty() => {
                let i = rng.gen_range(0..out.len());
                out[i] ^= 1 << rng.gen_range(0..8);
            }
            1 => {
                let byte = if rng.gen_bool(0.5) {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                } else {
                    rng.next_u64() as u8
                };
                out.insert(rng.gen_range(0..=out.len()), byte);
            }
            2 if !out.is_empty() => {
                out.remove(rng.gen_range(0..out.len()));
            }
            _ => out.truncate(rng.gen_range(0..=out.len())),
        }
    }
    out
}

/// Run `ROUNDS` mutations of `corpus` through `decode`; a panic fails the
/// test with the round and the bytes that caused it.
fn mutate_through<T>(seed: u64, corpus: &[Vec<u8>], decode: impl Fn(&[u8]) -> T) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for round in 0..ROUNDS {
        let input = mutate(&mut rng, &corpus[round % corpus.len()]);
        if catch_unwind(AssertUnwindSafe(|| decode(&input))).is_err() {
            panic!("seed {seed} round {round}: the decoder panicked on {input:02x?}");
        }
    }
}

/// The system allocator, noting the largest single request each thread
/// makes, so a test can bound what decoding a hostile stream allocates.
struct PeakAlloc;

thread_local! {
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = PEAK.try_with(|p| p.set(p.get().max(size)));
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: PeakAlloc = PeakAlloc;

/// A socket that hands out 1 to 7 bytes per read, as the seeded `rng`
/// chooses.
struct ShortReads<'a> {
    data: &'a [u8],
    rng: &'a RefCell<SmallRng>,
}

impl Read for ShortReads<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.rng.borrow_mut().gen_range(1..=7).min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

#[test]
fn mutated_requests_decode_or_error() {
    let corpus: Vec<Vec<u8>> = [
        Request::Ping,
        Request::Query("SELECT a, b FROM t WHERE a = 1".into()),
        Request::Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM t".into()),
        Request::Execute("SET force_join hash".into()),
        Request::Execute("INSERT INTO t VALUES (1, 'x')".into()),
        Request::Close,
    ]
    .iter()
    .map(Request::encode)
    .collect();
    for body in &corpus {
        assert!(Request::decode(body).is_ok(), "{body:02x?}");
    }
    mutate_through(0x5EED_0001, &corpus, Request::decode);
}

/// Streams of one to four valid request frames, mutated, read back
/// through the buffered frame reader over a socket that returns short
/// reads. A stream yields some frames and then a clean EOF or an error,
/// exactly as a reference walk of its length prefixes predicts; a length
/// above `MAX_FRAME` is an error, and no read allocates more than a small
/// frame's worth, whatever length the prefix claims.
#[test]
fn mutated_frame_streams_read_or_error() {
    let requests = [
        Request::Ping,
        Request::Query("SELECT a, b FROM t WHERE a = 1".into()),
        Request::Execute("INSERT INTO t VALUES (1, 'x')".into()),
        Request::Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM t".into()),
        Request::Close,
    ];
    let mut buf = Vec::new();
    let corpus: Vec<Vec<u8>> = (0..requests.len())
        .flat_map(|first| (1..=4).map(move |n| (first, n)))
        .map(|(first, n)| {
            let mut stream = Vec::new();
            for req in requests.iter().cycle().skip(first).take(n) {
                write_frame(&mut stream, &mut buf, |b| req.encode_into(b)).unwrap();
            }
            stream
        })
        .collect();
    let rng = RefCell::new(SmallRng::seed_from_u64(0x5EED_0004));
    mutate_through(0x5EED_0005, &corpus, |stream| {
        let mut r = BufReader::new(ShortReads { data: stream, rng: &rng });
        let mut rest = stream;
        loop {
            PEAK.with(|p| p.set(0));
            let got = read_frame(&mut r);
            assert!(
                PEAK.with(Cell::get) <= 64 << 10,
                "a read allocated {} B",
                PEAK.with(Cell::get)
            );
            // What the stream's next length prefix says should happen.
            let len = rest.get(..4).map(|p| u32::from_le_bytes(p.try_into().unwrap()) as usize);
            match (got, len) {
                (Ok(None), None) if rest.is_empty() => return,
                (Err(e), Some(len)) if len > MAX_FRAME => {
                    assert!(e.to_string().contains("MAX_FRAME"), "{len} B prefix: {e}");
                    return;
                }
                (Ok(Some(body)), Some(len)) if rest.len() >= 4 + len => {
                    assert_eq!(body, rest[4..4 + len]);
                    rest = &rest[4 + len..];
                }
                (Err(_), Some(len)) if rest.len() < 4 + len => return,
                (Err(_), None) if !rest.is_empty() => return,
                (got, len) => panic!("read {got:?} where the prefix is {len:?}, {rest:02x?} left"),
            }
        }
    });
}

#[test]
fn mutated_responses_decode_or_error() {
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
    let plan = QueryResult {
        columns: vec!["plan".into()],
        rows: vec![vec![Value::Str("SeqScan t  [rows=2 next=3 time=1µs]".into())]],
    };
    let corpus: Vec<Vec<u8>> = [
        Response::Pong,
        Response::Rows(rows),
        Response::Rows(plan),
        Response::Rows(QueryResult { columns: vec![], rows: vec![] }),
        Response::Affected(u64::MAX),
        Response::Error { code: 2, message: "parse error: nope".into() },
        Response::Bye,
    ]
    .iter()
    .map(Response::encode)
    .collect();
    for body in &corpus {
        assert!(Response::decode(body).is_ok(), "{body:02x?}");
    }
    mutate_through(0x5EED_0002, &corpus, Response::decode);
}

#[test]
fn mutated_statements_parse_or_error() {
    let corpus: Vec<Vec<u8>> = [
        "SELECT a, b FROM t WHERE a = 1",
        "SELECT DISTINCT u.out FROM speakers, TABLE(unnest(speaker, 'speaker')) u",
        "SELECT s.speech_speaker, l.line_value FROM speech s, line l \
         WHERE l.line_parentID = s.speechID AND l.line_value LIKE '%friend%'",
        "SELECT author, COUNT(*), COUNT(DISTINCT s) FROM t GROUP BY author \
         ORDER BY author DESC LIMIT 5",
        "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') FROM speech \
         WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1",
        "SELECT a FROM t WHERE a >= -5 AND b NOT LIKE '%x%' AND c IS NOT NULL",
        "SET force_join hash",
        "SET force_access = seq;",
        "EXPLAIN ANALYZE SELECT a FROM t WHERE a = 7",
        "EXPLAIN DELETE FROM t WHERE a = 1",
        "DELETE FROM churn WHERE parent = 99 AND k <> 3",
        "INSERT INTO t VALUES (-9223372036854775808, 'it''s'), (2, NULL)",
        "CREATE TABLE speech (speechID INTEGER, speech_speaker XADT, note VARCHAR)",
        "CREATE INDEX i ON t (a, b)",
        "DROP INDEX i",
        "BEGIN WORK",
        "ROLLBACK TRANSACTION",
        "VACUUM",
    ]
    .iter()
    .map(|sql| sql.as_bytes().to_vec())
    .collect();
    for sql in &corpus {
        let text = String::from_utf8_lossy(sql);
        assert!(parse_statement(&text).is_ok(), "{text}");
    }
    mutate_through(0x5EED_0003, &corpus, |bytes| parse_statement(&String::from_utf8_lossy(bytes)));
}
