//! Property tests for the XADT layer, all driven by one seeded
//! [`SmallRng`]:
//!
//! * tokenizer round-trip — rendering the event stream of a canonical
//!   fragment reproduces the fragment byte for byte;
//! * `decompress ∘ compress = id` on canonical fragments;
//! * the streaming methods (`getElm`, `findKeyInElm`, `getElmIndex`,
//!   `unnest`, `countElm`, `getAttr`, `textContent`) agree with a naive
//!   recursive DOM walk, over canonical and non-canonical spellings of
//!   the same fragment, in both storage formats.
//!
//! "Canonical" means the form `write_event` produces: attributes escaped
//! with `escape_attr`, text with `escape_text_into`, no adjacent text
//! runs — exactly what the shredder stores, and what every method emits
//! whatever the spelling of its input.

use std::borrow::Cow;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xadt::compress::write_event;
use xadt::{compress, decompress, Event, PlainTokenizer, XadtValue};

const NAMES: [&str; 4] = ["a", "b", "c", "p"];
const ATTRS: [&str; 2] = ["k", "pos"];
const TEXTS: [&str; 8] = ["love", "Rising key", "x", "a&b", "x<y", "  spaced  ", "it's", "a>\"b"];
const VALUES: [&str; 6] = ["v1", "v2", "a&b", "it's", "x<y", "q\"q"];
// "xx" and "xlove" only occur across an inline child's boundary.
const KEYS: [&str; 8] = ["love", "key", "a", "x", "zz", "xx", "xlove", "'s"];

// ---------------------------------------------------------------------
// Naive DOM
// ---------------------------------------------------------------------

enum Child {
    Elem(Node),
    Text(String),
}

struct Node {
    name: &'static str,
    attrs: Vec<(&'static str, String)>,
    children: Vec<Child>,
}

/// Random fragment: a few top-level children (elements and text runs,
/// never two text runs adjacent).
fn gen_fragment(rng: &mut SmallRng) -> Vec<Child> {
    let n = rng.gen_range(1..=4);
    gen_children(rng, n, 0, None)
}

fn gen_children(
    rng: &mut SmallRng,
    n: usize,
    depth: usize,
    parent: Option<&'static str>,
) -> Vec<Child> {
    let mut out = Vec::new();
    let mut last_was_text = false;
    for _ in 0..n {
        if depth < 4 && (last_was_text || rng.gen_bool(0.7)) {
            out.push(Child::Elem(gen_node(rng, depth, parent)));
            last_was_text = false;
        } else if !last_was_text {
            // (At the depth limit a second text in a row is dropped: it
            // would tokenize as one run with the first.)
            out.push(Child::Text(TEXTS[rng.gen_range(0..TEXTS.len())].to_string()));
            last_was_text = true;
        }
    }
    out
}

fn gen_node(rng: &mut SmallRng, depth: usize, parent: Option<&'static str>) -> Node {
    // Recursive DTDs nest an element in one of its own name.
    let name = match parent {
        Some(parent) if rng.gen_bool(0.2) => parent,
        _ => NAMES[rng.gen_range(0..NAMES.len())],
    };
    let mut attrs = Vec::new();
    for attr in ATTRS {
        if rng.gen_bool(0.2) {
            attrs.push((attr, VALUES[rng.gen_range(0..VALUES.len())].to_string()));
        }
    }
    let n = if depth >= 4 { 0 } else { rng.gen_range(0..=3) };
    Node { name, attrs, children: gen_children(rng, n, depth + 1, Some(name)) }
}

/// Canonical rendering through the same `write_event` the engine uses.
fn render(children: &[Child]) -> String {
    let mut out = String::new();
    for c in children {
        render_child(c, &mut out);
    }
    out
}

fn render_child(c: &Child, out: &mut String) {
    match c {
        Child::Text(t) => write_event(&Event::Text(Cow::Borrowed(t)), out),
        Child::Elem(n) => {
            let attrs: Vec<(&str, Cow<'_, str>)> =
                n.attrs.iter().map(|(k, v)| (*k, Cow::Borrowed(v.as_str()))).collect();
            write_event(&Event::Start { name: n.name, attrs }, out);
            for ch in &n.children {
                render_child(ch, out);
            }
            write_event(&Event::End { name: n.name }, out);
        }
    }
}

/// One of the spellings the tokenizer accepts for the same events:
/// `<e/>` for an empty element, `'`-quoted and loosely spaced attributes,
/// `&apos;`/`&quot;`/numeric references, a bare `>` in text, a space
/// before the `>` of an end tag.
fn render_rough(rng: &mut SmallRng, children: &[Child]) -> String {
    let mut out = String::new();
    for c in children {
        rough_child(rng, c, &mut out);
    }
    out
}

fn rough_text(rng: &mut SmallRng, text: &str, quote: Option<char>, out: &mut String) {
    for ch in text.chars() {
        let spellings: &[&str] = match ch {
            '<' => &["&lt;", "&#60;"],
            '&' => &["&amp;", "&#x26;", "&#38;"],
            '>' => &["&gt;", ">"],
            '\'' if quote == Some('\'') => &["&apos;"],
            '\'' => &["'", "&apos;"],
            '"' if quote == Some('"') => &["&quot;"],
            '"' => &["\"", "&quot;"],
            _ => {
                out.push(ch);
                continue;
            }
        };
        out.push_str(spellings[rng.gen_range(0..spellings.len())]);
    }
}

fn rough_child(rng: &mut SmallRng, c: &Child, out: &mut String) {
    let n = match c {
        Child::Text(t) => return rough_text(rng, t, None, out),
        Child::Elem(n) => n,
    };
    out.push('<');
    out.push_str(n.name);
    for (k, v) in &n.attrs {
        out.push_str([" ", "  ", "\t", "\n"][rng.gen_range(0..4)]);
        out.push_str(k);
        out.push_str(["=", " = ", "= "][rng.gen_range(0..3)]);
        let quote = if rng.gen_bool(0.5) { '"' } else { '\'' };
        out.push(quote);
        rough_text(rng, v, Some(quote), out);
        out.push(quote);
    }
    if rng.gen_bool(0.2) {
        out.push(' ');
    }
    if n.children.is_empty() && rng.gen_bool(0.6) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for ch in &n.children {
        rough_child(rng, ch, out);
    }
    out.push_str("</");
    out.push_str(n.name);
    if rng.gen_bool(0.2) {
        out.push(' ');
    }
    out.push('>');
}

fn subtree_text(n: &Node, out: &mut String) {
    for c in &n.children {
        match c {
            Child::Text(t) => out.push_str(t),
            Child::Elem(e) => subtree_text(e, out),
        }
    }
}

// ---------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------

#[test]
fn tokenizer_round_trips_canonical_fragments() {
    let mut rng = SmallRng::seed_from_u64(0xadd);
    for _ in 0..300 {
        let frag = render(&gen_fragment(&mut rng));
        let mut t = PlainTokenizer::new(&frag);
        let mut back = String::new();
        while let Some(ev) = t.next().expect("generated fragments are well-formed") {
            write_event(&ev, &mut back);
        }
        assert_eq!(back, frag, "tokenize→render must be the identity");
    }
}

#[test]
fn rough_spellings_tokenize_to_the_canonical_form() {
    let mut rng = SmallRng::seed_from_u64(0x0dd);
    let mut differing = 0;
    for _ in 0..300 {
        let dom = gen_fragment(&mut rng);
        let (frag, rough) = (render(&dom), render_rough(&mut rng, &dom));
        differing += usize::from(rough != frag);
        let mut t = PlainTokenizer::new(&rough);
        let mut back = String::new();
        while let Some(ev) = t.next().expect("rough fragments are well-formed") {
            write_event(&ev, &mut back);
        }
        assert_eq!(back, frag, "tokenize→render of {rough:?}");
        assert_eq!(decompress(&compress(&rough).unwrap()).unwrap(), frag);
    }
    assert!(differing > 200, "the rough renderer must usually differ: {differing}/300");
}

#[test]
fn decompress_compress_is_identity() {
    let mut rng = SmallRng::seed_from_u64(0xc0de);
    for _ in 0..300 {
        let frag = render(&gen_fragment(&mut rng));
        let bytes = compress(&frag).expect("compress");
        assert_eq!(decompress(&bytes).expect("decompress"), frag);
        // And the compressed value answers queries identically.
        let plain = XadtValue::plain(frag.clone());
        let comp = XadtValue::from_compressed_bytes(bytes);
        for name in NAMES {
            assert_eq!(
                xadt::count_elm(&plain, name).unwrap(),
                xadt::count_elm(&comp, name).unwrap(),
                "countElm must not depend on storage format",
            );
        }
        assert_eq!(xadt::text_content(&plain).unwrap(), xadt::text_content(&comp).unwrap());
    }
}

// ---------------------------------------------------------------------
// Methods vs naive DOM walk
// ---------------------------------------------------------------------

fn count_naive(children: &[Child], elm: &str) -> i64 {
    let mut n = 0;
    for c in children {
        if let Child::Elem(e) = c {
            if e.name == elm {
                n += 1;
            }
            n += count_naive(&e.children, elm);
        }
    }
    n
}

/// `findKeyInElm`: some text *run* inside a `search_elm` subtree (any
/// element with empty `search_elm`, including top-level text) contains
/// the key; with an empty key, any `search_elm` element suffices.
fn find_key_naive(children: &[Child], search_elm: &str, key: &str, in_scope: bool) -> bool {
    for c in children {
        match c {
            Child::Text(t) => {
                if (in_scope || search_elm.is_empty()) && !key.is_empty() && t.contains(key) {
                    return true;
                }
            }
            Child::Elem(e) => {
                let scoped = in_scope || e.name == search_elm;
                if e.name == search_elm && key.is_empty() {
                    return true;
                }
                if find_key_naive(&e.children, search_elm, key, scoped) {
                    return true;
                }
            }
        }
    }
    false
}

/// `getElm`: outermost `root_elm` elements (top-level elements when
/// empty) that have a descendant-or-self `search_elm` within `level`
/// whose concatenated subtree text contains the key.
fn get_elm_naive(
    children: &[Child],
    root_elm: &str,
    search_elm: &str,
    key: &str,
    level: Option<u32>,
    depth: usize,
    out: &mut String,
) {
    for c in children {
        let Child::Elem(e) = c else { continue };
        let is_root = if root_elm.is_empty() { depth == 0 } else { e.name == root_elm };
        if is_root {
            if search_elm.is_empty() || root_has_match(e, search_elm, key, level, 0) {
                render_child(c, out);
            }
        } else {
            get_elm_naive(&e.children, root_elm, search_elm, key, level, depth + 1, out);
        }
    }
}

fn root_has_match(n: &Node, search_elm: &str, key: &str, level: Option<u32>, rel: u32) -> bool {
    if n.name == search_elm && level.is_none_or(|l| rel <= l) {
        if key.is_empty() {
            return true;
        }
        let mut text = String::new();
        subtree_text(n, &mut text);
        if text.contains(key) {
            return true;
        }
    }
    n.children
        .iter()
        .any(|c| matches!(c, Child::Elem(e) if root_has_match(e, search_elm, key, level, rel + 1)))
}

/// `getElmIndex`: the `child_elm` direct children of each `parent_elm`
/// scope (the top level when empty) whose 1-based position among those
/// children is in range. Captured subtrees are copied verbatim — no
/// scopes open inside them.
fn get_elm_index_naive(
    children: &[Child],
    parent_elm: &str,
    child_elm: &str,
    range: (u32, u32),
    counting: bool,
    out: &mut String,
) {
    let mut pos = 0u32;
    for c in children {
        let Child::Elem(e) = c else { continue };
        if counting && e.name == child_elm {
            pos += 1;
            if pos >= range.0 && pos <= range.1 {
                render_child(c, out);
                continue; // verbatim copy: nothing inside opens a scope
            }
        }
        let opens = !parent_elm.is_empty() && e.name == parent_elm;
        get_elm_index_naive(&e.children, parent_elm, child_elm, range, opens, out);
    }
}

/// `unnest`: the outermost `tag` elements anywhere in the fragment (its
/// top-level elements when empty), one canonical rendering each.
fn unnest_naive(children: &[Child], tag: &str, depth: usize, out: &mut Vec<String>) {
    for c in children {
        let Child::Elem(e) = c else { continue };
        if if tag.is_empty() { depth == 0 } else { e.name == tag } {
            let mut row = String::new();
            render_child(c, &mut row);
            out.push(row);
        } else {
            unnest_naive(&e.children, tag, depth + 1, out);
        }
    }
}

/// `getAttr`: `attr` of the first `elm` element, in document order, that
/// has it.
fn get_attr_naive(children: &[Child], elm: &str, attr: &str) -> Option<String> {
    children.iter().find_map(|c| {
        let Child::Elem(e) = c else { return None };
        let own = e.attrs.iter().find(|(k, _)| *k == attr).filter(|_| e.name == elm);
        own.map(|(_, v)| v.clone()).or_else(|| get_attr_naive(&e.children, elm, attr))
    })
}

/// `getElm` concatenates the text of a `searchElm` subtree before looking
/// for the key, `findKeyInElm` looks in one text run at a time: a key
/// that spans an inline child matches the first and not the second.
/// Aligning them can change seed answers, so the difference is pinned.
#[test]
fn key_spanning_an_inline_child_matches_get_elm_only() {
    let frag = "<L>fare<B>well</B></L>";
    for v in [XadtValue::plain(frag), XadtValue::compressed(frag).unwrap()] {
        let got = xadt::get_elm(&v, "L", "L", "farewell", None).unwrap();
        assert_eq!(got.to_plain(), frag);
        assert!(!xadt::find_key_in_elm(&v, "L", "farewell").unwrap());
        assert!(xadt::find_key_in_elm(&v, "L", "fare").unwrap());
        assert!(xadt::find_key_in_elm(&v, "L", "well").unwrap());
    }
}

/// Regression: when `parentElm == childElm`, a captured child used to
/// leave a stale parent scope on the stack (its End event is consumed by
/// the capture branch), silently dropping later siblings from the count.
#[test]
fn get_elm_index_with_recursive_parent_child_name() {
    let v = XadtValue::plain("<p><p>x</p><p>y</p></p>");
    let got = xadt::get_elm_index(&v, "p", "p", 1, 2).unwrap();
    assert_eq!(got.to_plain().into_owned(), "<p>x</p><p>y</p>");
}

#[test]
fn methods_agree_with_naive_dom_walk() {
    let mut rng = SmallRng::seed_from_u64(0x5eed);
    for _ in 0..800 {
        let dom = gen_fragment(&mut rng);
        // Canonical or rough spelling, plain or compressed storage: the
        // answers below are the same for all four.
        let frag = if rng.gen_bool(0.5) { render(&dom) } else { render_rough(&mut rng, &dom) };
        let value = if rng.gen_bool(0.5) {
            XadtValue::plain(frag.clone())
        } else {
            XadtValue::compressed(&frag).unwrap()
        };

        let name = |rng: &mut SmallRng| NAMES[rng.gen_range(0..NAMES.len())];
        let key = KEYS[rng.gen_range(0..KEYS.len())];

        // countElm
        let elm = name(&mut rng);
        assert_eq!(
            xadt::count_elm(&value, elm).unwrap(),
            count_naive(&dom, elm),
            "countElm({elm}) on {frag}",
        );

        // textContent
        let mut text = String::new();
        for c in &dom {
            match c {
                Child::Text(t) => text.push_str(t),
                Child::Elem(e) => subtree_text(e, &mut text),
            }
        }
        assert_eq!(xadt::text_content(&value).unwrap(), text);

        // findKeyInElm (never both empty — the engine rejects that)
        let search = if rng.gen_bool(0.2) { "" } else { name(&mut rng) };
        let k = if search.is_empty() {
            key
        } else if rng.gen_bool(0.3) {
            ""
        } else {
            key
        };
        assert_eq!(
            xadt::find_key_in_elm(&value, search, k).unwrap(),
            find_key_naive(&dom, search, k, false),
            "findKeyInElm({search:?}, {k:?}) on {frag}",
        );

        // getElm, with and without a level bound
        let root = if rng.gen_bool(0.25) { "" } else { name(&mut rng) };
        let search = if rng.gen_bool(0.25) { "" } else { name(&mut rng) };
        let k = if rng.gen_bool(0.4) { "" } else { key };
        let level = if rng.gen_bool(0.5) { None } else { Some(rng.gen_range(0..3u32)) };
        let got = xadt::get_elm(&value, root, search, k, level).unwrap();
        let mut want = String::new();
        get_elm_naive(&dom, root, search, k, level, 0, &mut want);
        assert_eq!(
            got.to_plain().into_owned(),
            want,
            "getElm({root:?}, {search:?}, {k:?}, {level:?}) on {frag}",
        );

        // unnest
        let tag = if rng.gen_bool(0.2) { "" } else { name(&mut rng) };
        let got: Vec<String> = xadt::unnest(&value, tag)
            .unwrap()
            .iter()
            .map(|row| {
                assert!(matches!(row, XadtValue::Plain(_)), "unnest rows are plain-format");
                row.to_plain().into_owned()
            })
            .collect();
        let mut want = Vec::new();
        unnest_naive(&dom, tag, 0, &mut want);
        assert_eq!(got, want, "unnest({tag:?}) on {frag}");

        // getAttr
        let (elm, attr) = (name(&mut rng), ATTRS[rng.gen_range(0..ATTRS.len())]);
        assert_eq!(
            xadt::get_attr(&value, elm, attr).unwrap(),
            get_attr_naive(&dom, elm, attr),
            "getAttr({elm:?}, {attr:?}) on {frag}",
        );

        // getElmIndex (childElm must be non-empty)
        let parent = if rng.gen_bool(0.3) { "" } else { name(&mut rng) };
        let child = name(&mut rng);
        let start = rng.gen_range(1..4u32);
        let end = start + rng.gen_range(0..3u32);
        let got = xadt::get_elm_index(&value, parent, child, start, end).unwrap();
        let mut want = String::new();
        get_elm_index_naive(&dom, parent, child, (start, end), parent.is_empty(), &mut want);
        assert_eq!(
            got.to_plain().into_owned(),
            want,
            "getElmIndex({parent:?}, {child:?}, {start}, {end}) on {frag}",
        );
    }
}

/// Plain input is unchecked (`XadtValue::plain`, a SQL literal), so every
/// method walks it to its end and reports a malformed tail — also when the
/// name or key asked for occurs nowhere, where a byte search could answer
/// without looking. (`findKeyInElm` and `getAttr` stop at their first
/// match, so they are only asked for what is absent.)
#[test]
fn malformed_plain_input_raises_whatever_is_asked_for() {
    let mut rng = SmallRng::seed_from_u64(0xbad);
    for _ in 0..200 {
        let dom = gen_fragment(&mut rng);
        let frag = if rng.gen_bool(0.5) { render(&dom) } else { render_rough(&mut rng, &dom) };
        let tail = ["<zq>", "</a>", "<a", "<a k=v></a>", "<a></b>"][rng.gen_range(0..5)];
        let bad = XadtValue::plain(format!("{frag}{tail}"));
        assert!(XadtValue::compressed(&bad.to_plain()).is_err(), "{tail} is malformed");
        for name in ["zz", NAMES[rng.gen_range(0..NAMES.len())]] {
            assert!(xadt::get_elm(&bad, name, "", "", None).is_err(), "getElm({name}) on {bad:?}");
            assert!(xadt::get_elm(&bad, "", name, "nokey", None).is_err(), "{name} on {bad:?}");
            assert!(xadt::get_elm_index(&bad, "", name, 1, 1).is_err(), "{name} on {bad:?}");
            assert!(xadt::get_elm_index(&bad, name, "zz", 1, 1).is_err(), "{name} on {bad:?}");
            assert!(xadt::unnest(&bad, name).is_err(), "unnest({name}) on {bad:?}");
            assert!(xadt::count_elm(&bad, name).is_err(), "countElm({name}) on {bad:?}");
            assert!(xadt::find_key_in_elm(&bad, name, "nokey").is_err(), "{name} on {bad:?}");
        }
        assert!(xadt::find_key_in_elm(&bad, "zz", "").is_err(), "{bad:?}");
        assert!(xadt::find_key_in_elm(&bad, "", "nokey").is_err(), "{bad:?}");
        assert!(xadt::get_attr(&bad, "zz", "k").is_err(), "{bad:?}");
        assert!(xadt::text_content(&bad).is_err(), "{bad:?}");
    }
}
