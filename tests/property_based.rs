//! Randomized model tests over the core data structures and invariants:
//!
//! * XML serialize → parse round-trips;
//! * XADT compression round-trips and method agreement across formats;
//! * B+Tree behaves like a sorted map (model test);
//! * tuple codec round-trips;
//! * SQL LIKE matches a reference implementation.
//!
//! These were originally written against `proptest`; the offline build
//! cannot vendor it, so the same invariants are exercised with a seeded
//! [`SmallRng`] generator — fully deterministic per seed, with the seed
//! printed in every assertion message for replay.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use ordb::index::btree::BTree;
use ordb::index::key::encode_key;
use ordb::storage::buffer::BufferPool;
use ordb::storage::heap::Rid;
use ordb::tuple::{decode_row, encode_row};
use ordb::types::Value;
use xadt::XadtValue;
use xmlkit::{parse_document, serialize, Document, NodeId};

const CASES: usize = 64;

// ---- generators --------------------------------------------------------

const NAMES: &[&str] = &["a", "b", "LINE", "SPEAKER", "aTuple", "x1"];

fn arb_name(rng: &mut SmallRng) -> String {
    NAMES[rng.gen_range(0..NAMES.len())].to_string()
}

/// Text without XML-significant characters (escaping is covered by
/// dedicated cases; here we stress structure).
fn arb_text(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(0..20usize);
    (0..n)
        .map(|_| {
            let c = rng.gen_range(b' '..b'~') as char;
            if matches!(c, '<' | '&' | '>') {
                ' '
            } else {
                c
            }
        })
        .collect()
}

fn arb_attr_name(rng: &mut SmallRng) -> String {
    let n = rng.gen_range(1..5usize);
    (0..n).map(|_| rng.gen_range(b'a'..=b'z') as char).collect()
}

#[derive(Debug, Clone)]
enum Tree {
    Text(String),
    Elem { name: String, attrs: Vec<(String, String)>, children: Vec<Tree> },
}

fn arb_attrs(rng: &mut SmallRng) -> Vec<(String, String)> {
    (0..rng.gen_range(0..2usize)).map(|_| (arb_attr_name(rng), arb_text(rng))).collect()
}

/// A random tree of bounded depth and fanout.
fn arb_tree(rng: &mut SmallRng, depth: usize) -> Tree {
    if depth == 0 || rng.gen_bool(0.3) {
        if rng.gen_bool(0.5) {
            Tree::Text(arb_text(rng))
        } else {
            Tree::Elem { name: arb_name(rng), attrs: arb_attrs(rng), children: vec![] }
        }
    } else {
        let children = (0..rng.gen_range(0..4usize)).map(|_| arb_tree(rng, depth - 1)).collect();
        Tree::Elem { name: arb_name(rng), attrs: arb_attrs(rng), children }
    }
}

fn build(doc: &mut Document, parent: NodeId, t: &Tree) {
    match t {
        Tree::Text(s) => {
            if !s.trim().is_empty() {
                doc.add_text(parent, s);
            }
        }
        Tree::Elem { name, attrs, children } => {
            let e = doc.add_element(parent, name.clone());
            for (k, v) in attrs {
                doc.set_attribute(e, k.clone(), v.clone());
            }
            for c in children {
                build(doc, e, c);
            }
        }
    }
}

fn tree_to_doc(t: &Tree) -> Document {
    let mut doc = Document::new("root");
    let root = doc.root();
    build(&mut doc, root, t);
    doc
}

fn root_fragment(doc: &Document) -> String {
    let mut frag = String::new();
    for &c in doc.children(doc.root()) {
        serialize::write_subtree(doc, c, &mut frag);
    }
    frag
}

// ---- invariants --------------------------------------------------------

#[test]
fn xml_serialize_parse_round_trip() {
    for seed in 0..CASES as u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let doc = tree_to_doc(&arb_tree(&mut rng, 4));
        let text = serialize::to_string(&doc);
        let back = parse_document(&text).unwrap();
        assert_eq!(serialize::to_string(&back), text, "seed {seed}");
    }
}

#[test]
fn xadt_compression_round_trip() {
    for seed in 0..CASES as u64 {
        let mut rng = SmallRng::seed_from_u64(1000 + seed);
        let doc = tree_to_doc(&arb_tree(&mut rng, 4));
        let frag = root_fragment(&doc);
        let bytes = xadt::compress(&frag).unwrap();
        // Decompression renders the canonical form (e.g. `<a></a>` rather
        // than `<a/>`): compare canonicalized event streams.
        assert_eq!(xadt::decompress(&bytes).unwrap(), canon(&frag), "seed {seed}");
    }
}

#[test]
fn xadt_methods_agree_across_formats() {
    for seed in 0..CASES as u64 {
        let mut rng = SmallRng::seed_from_u64(2000 + seed);
        let doc = tree_to_doc(&arb_tree(&mut rng, 4));
        let frag = root_fragment(&doc);
        let key: String =
            (0..rng.gen_range(1..4usize)).map(|_| rng.gen_range(b'a'..=b'z') as char).collect();
        let plain = XadtValue::plain(frag.clone());
        let comp = XadtValue::compressed(&frag).unwrap();
        for elm in ["a", "LINE", ""] {
            if elm.is_empty() && key.is_empty() {
                continue;
            }
            let fp = xadt::find_key_in_elm(&plain, elm, &key).unwrap();
            let fc = xadt::find_key_in_elm(&comp, elm, &key).unwrap();
            assert_eq!(fp, fc, "seed {seed}: findKeyInElm({elm}, {key})");
        }
        let gp = xadt::get_elm(&plain, "a", "b", &key, None).unwrap();
        let gc = xadt::get_elm(&comp, "a", "b", &key, None).unwrap();
        assert_eq!(gp.to_plain(), gc.to_plain(), "seed {seed}");
        let up = xadt::unnest(&plain, "a").unwrap().len();
        let uc = xadt::unnest(&comp, "a").unwrap().len();
        assert_eq!(up, uc, "seed {seed}");
    }
}

fn arb_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..4u32) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Str(arb_text(rng)),
        _ => {
            let s: String =
                (0..rng.gen_range(1..7usize)).map(|_| rng.gen_range(b'a'..=b'z') as char).collect();
            Value::Xadt(XadtValue::plain(format!("<e>{s}</e>")))
        }
    }
}

#[test]
fn tuple_codec_round_trips() {
    for seed in 0..CASES as u64 {
        let mut rng = SmallRng::seed_from_u64(3000 + seed);
        let values: Vec<Value> =
            (0..rng.gen_range(0..6usize)).map(|_| arb_value(&mut rng)).collect();
        let mut buf = Vec::new();
        encode_row(&values, &mut buf);
        let back = decode_row(&buf, values.len()).unwrap();
        assert_eq!(back, values, "seed {seed}");
    }
}

#[test]
fn like_matches_reference() {
    let pat_alphabet = [b'a', b'b', b'%', b'_'];
    for seed in 0..(CASES * 4) as u64 {
        let mut rng = SmallRng::seed_from_u64(4000 + seed);
        let pattern: String = (0..rng.gen_range(0..8usize))
            .map(|_| pat_alphabet[rng.gen_range(0..pat_alphabet.len())] as char)
            .collect();
        let text: String =
            (0..rng.gen_range(0..8usize)).map(|_| rng.gen_range(b'a'..=b'b') as char).collect();
        let got = ordb::expr::like_match(pattern.as_bytes(), text.as_bytes());
        let want = like_reference(pattern.as_bytes(), text.as_bytes());
        assert_eq!(got, want, "seed {seed}: pattern={pattern:?} text={text:?}");
    }
}

/// Canonical plain rendering of a fragment: tokenize and re-render every
/// event (collapses `<a/>` to `<a></a>`, normalizes attribute quoting).
fn canon(frag: &str) -> String {
    let mut t = xadt::PlainTokenizer::new(frag);
    let mut out = String::new();
    while let Some(ev) = t.next().unwrap() {
        xadt::compress::write_event(&ev, &mut out);
    }
    out
}

/// Exponential-time reference LIKE matcher.
fn like_reference(p: &[u8], t: &[u8]) -> bool {
    match (p.first(), t.first()) {
        (None, None) => true,
        (None, Some(_)) => false,
        (Some(b'%'), _) => {
            like_reference(&p[1..], t) || (!t.is_empty() && like_reference(p, &t[1..]))
        }
        (Some(b'_'), Some(_)) => like_reference(&p[1..], &t[1..]),
        (Some(c), Some(d)) if c == d => like_reference(&p[1..], &t[1..]),
        _ => false,
    }
}

// ---- B+Tree model test -------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Insert(Value, u64),
    Delete(Value, u64),
    Lookup(Value),
}

fn arb_key(rng: &mut SmallRng) -> Value {
    if rng.gen_bool(0.5) {
        Value::Int(rng.gen_range(0..40i64))
    } else {
        let s: String =
            (0..rng.gen_range(0..4usize)).map(|_| rng.gen_range(b'a'..=b'c') as char).collect();
        Value::Str(s)
    }
}

fn arb_op(rng: &mut SmallRng) -> Op {
    match rng.gen_range(0..3u32) {
        0 => Op::Insert(arb_key(rng), rng.gen_range(0..8u64)),
        1 => Op::Delete(arb_key(rng), rng.gen_range(0..8u64)),
        _ => Op::Lookup(arb_key(rng)),
    }
}

#[test]
fn btree_behaves_like_sorted_map() {
    for seed in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(5000 + seed);
        let ops: Vec<Op> = (0..rng.gen_range(1..150usize)).map(|_| arb_op(&mut rng)).collect();
        let dir =
            std::env::temp_dir().join(format!("xorator-prop-btree-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let pool = Arc::new(BufferPool::new(16));
        pool.register_file(1, dir.join("t.db")).unwrap();
        let tree = BTree::create(pool, 1).unwrap();
        let mut model: std::collections::BTreeSet<(Vec<u8>, u64)> = Default::default();

        for op in &ops {
            match op {
                Op::Insert(k, r) => {
                    let key = encode_key(std::slice::from_ref(k));
                    tree.insert(&key, Rid::from_u64(*r)).unwrap();
                    model.insert((key, *r));
                }
                Op::Delete(k, r) => {
                    let key = encode_key(std::slice::from_ref(k));
                    let existed = tree.delete(&key, Rid::from_u64(*r)).unwrap();
                    assert_eq!(existed, model.remove(&(key, *r)), "seed {seed}");
                }
                Op::Lookup(k) => {
                    let key = encode_key(std::slice::from_ref(k));
                    let mut got = tree.scan_prefix(&key).unwrap();
                    got.sort();
                    let mut want: Vec<Rid> = model
                        .iter()
                        .filter(|(mk, _)| mk.starts_with(&key))
                        .map(|(_, r)| Rid::from_u64(*r))
                        .collect();
                    want.sort();
                    assert_eq!(got, want, "seed {seed}");
                }
            }
        }
        assert_eq!(tree.entry_count().unwrap(), model.len() as u64, "seed {seed}");
        // Full scan is sorted and complete.
        let all = tree.scan_range(None, None, true).unwrap();
        assert_eq!(all.len(), model.len(), "seed {seed}");
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0, "seed {seed}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
