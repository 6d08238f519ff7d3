//! The span scanner behind every XADT method.
//!
//! A method call walks its input fragment once as a stream of *tokens
//! without payload*: the scanner only remembers where the current token
//! starts and ends and what its tag name is. Nothing is materialised — no
//! attribute vector, no unescaped text — until a method asks for it, and a
//! matched subtree is emitted by [`Source::render`]ing its byte span, which
//! for plain input already in [`write_event`](crate::compress::write_event)
//! form is one `memcpy`.
//!
//! Both storage formats implement [`Source`]
//! ([`PlainScan`](crate::token::PlainScan) over tagged text,
//! [`CompressedScan`](crate::compress::CompressedScan) over the dictionary
//! coding), so each method has one body, monomorphised per format.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::fragment::XadtValue;
use crate::token::FragmentError;

/// The kind of the token a [`Source`] just stepped over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tok {
    /// A start tag (`<e/>` yields `Start` then a zero-width `End`).
    Start,
    /// An end tag.
    End,
    /// A run of character data.
    Text,
}

/// An element or attribute name a method is looking for, resolved once
/// per call: the plain scanner compares `name`, the compressed scanner
/// the dictionary `code`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wanted<'n> {
    pub(crate) name: &'n str,
    pub(crate) code: usize,
}

/// A fragment being scanned, in either storage format.
///
/// Offsets are positions in the *stored* bytes; a span handed to
/// [`Source::render`] must cover whole subtrees (the methods only ever
/// pass the span from a `Start` token's start to its matching `End`
/// token's end).
pub(crate) trait Source {
    /// Resolve a tag name. `None` means the name provably occurs nowhere
    /// in the fragment, so the caller can answer without scanning.
    fn resolve<'n>(&self, name: &'n str) -> Option<Wanted<'n>>;

    /// Resolve a method argument that may be left empty: `Some(None)` for
    /// the empty name, `None` when a given name occurs nowhere.
    fn resolve_optional<'n>(&self, name: &'n str) -> Option<Option<Wanted<'n>>> {
        if name.is_empty() {
            Some(None)
        } else {
            self.resolve(name).map(Some)
        }
    }

    /// Step over the next token; `Ok(None)` at the end of the fragment.
    fn next(&mut self) -> Result<Option<Tok>, FragmentError>;

    /// Whether the `Start` token just returned is named `name`.
    fn is(&self, name: Wanted<'_>) -> bool;

    /// Offset of the first byte of the token just returned.
    fn start(&self) -> usize;

    /// Offset one past the token just returned.
    fn end(&self) -> usize;

    /// The entity-resolved content of the `Text` token just returned.
    fn text(&self) -> Cow<'_, [u8]>;

    /// `false` only when no single text run of the fragment can contain
    /// `key` — a cheap whole-fragment pre-filter for keyword search. Like
    /// a `None` from [`Source::resolve`] it answers for bytes no walk has
    /// checked, so only the compressed format (written by `compress` from
    /// a walked fragment) offers one.
    fn may_contain_text(&self, _key: &str) -> bool {
        true
    }

    /// The value of attribute `attr` on the `Start` token just returned.
    fn attr(&self, attr: &str) -> Result<Option<String>, FragmentError>;

    /// Append the plain-text rendering of `span` to `out`, byte for byte
    /// what `write_event` would print for its events.
    fn render(&self, span: Range<usize>, out: &mut Vec<u8>) -> Result<(), FragmentError>;

    /// `span` as a plain-format value of its own.
    fn value(&self, span: Range<usize>) -> Result<XadtValue, FragmentError> {
        let mut out = Vec::new();
        self.render(span, &mut out)?;
        plain_value(&out)
    }
}

/// Call `$method(source, $args…)` with the span scanner of `$input`'s
/// storage format as `source`.
macro_rules! with_source {
    ($input:expr, $method:ident($($arg:expr),*)) => {
        match $input {
            $crate::fragment::XadtValue::Plain(text) => {
                $method($crate::token::PlainScan::new(text), $($arg),*)
            }
            $crate::fragment::XadtValue::Compressed(bytes) => {
                $method($crate::compress::CompressedScan::new(bytes)?, $($arg),*)
            }
        }
    };
}
pub(crate) use with_source;

/// Wrap rendered bytes as a plain-format value.
pub(crate) fn plain_value(rendered: &[u8]) -> Result<XadtValue, FragmentError> {
    let s = std::str::from_utf8(rendered).map_err(|_| FragmentError("text not utf-8".into()))?;
    Ok(XadtValue::Plain(Arc::from(s)))
}

/// Collects the subtree spans a method emits, in document order, into one
/// plain-format value. Adjacent spans are merged before rendering, so a
/// run of sibling matches is rendered — for plain input, copied — in one
/// piece, and a result that is a single run never passes through a
/// buffer of its own.
pub(crate) struct Emitter {
    out: Vec<u8>,
    /// Emitted but not yet rendered.
    run: Range<usize>,
}

impl Emitter {
    pub(crate) fn new() -> Self {
        Emitter { out: Vec::new(), run: 0..0 }
    }

    pub(crate) fn emit(
        &mut self,
        src: &impl Source,
        span: Range<usize>,
    ) -> Result<(), FragmentError> {
        if !self.run.is_empty() && span.start == self.run.end {
            self.run.end = span.end;
            return Ok(());
        }
        self.flush(src)?;
        self.run = span;
        Ok(())
    }

    fn flush(&mut self, src: &impl Source) -> Result<(), FragmentError> {
        if !self.run.is_empty() {
            src.render(self.run.clone(), &mut self.out)?;
        }
        Ok(())
    }

    pub(crate) fn finish(mut self, src: &impl Source) -> Result<XadtValue, FragmentError> {
        if self.out.is_empty() && !self.run.is_empty() {
            return src.value(self.run);
        }
        self.flush(src)?;
        plain_value(&self.out)
    }
}

/// Whether the `Start` token `src` just returned, at `depth`, is one a
/// method argument selects: an element of the wanted name, or — for an
/// argument left empty — a top-level element of the fragment.
pub(crate) fn selects(src: &impl Source, wanted: Option<Wanted<'_>>, depth: usize) -> bool {
    match wanted {
        None => depth == 0,
        Some(name) => src.is(name),
    }
}

/// Position of the first `byte` in `hay`, a word at a time: std has this
/// search (`memchr`) for `str` only, and compressed bodies and resolved
/// text runs are byte slices.
fn find_byte(byte: u8, hay: &[u8]) -> Option<usize> {
    const LO: u64 = 0x0101_0101_0101_0101;
    const HI: u64 = 0x8080_8080_8080_8080;
    let mut chunks = hay.chunks_exact(8);
    let mut base = 0;
    for chunk in &mut chunks {
        // Zero exactly the bytes equal to `byte`, then flag the zero bytes:
        // per byte, `(x & 0x7f) + 0x7f | x` has its high bit set iff
        // x != 0, and the sum cannot carry into the next byte.
        let x = u64::from_le_bytes(chunk.try_into().expect("chunk of 8")) ^ (LO * u64::from(byte));
        let hits = !(((x & !HI) + !HI) | x) & HI;
        if hits != 0 {
            return Some(base + hits.trailing_zeros() as usize / 8);
        }
        base += 8;
    }
    chunks.remainder().iter().position(|&b| b == byte).map(|i| base + i)
}

/// Whether `needle` occurs in `hay` — `str::contains` for byte slices.
/// Substring search on bytes equals substring search on characters when
/// both sides are UTF-8.
pub(crate) fn contains_bytes(hay: &[u8], needle: &[u8]) -> bool {
    let Some((&first, rest)) = needle.split_first() else { return true };
    let mut from = 0;
    while let Some(at) = find_byte(first, &hay[from..]) {
        from += at + 1;
        if hay[from..].starts_with(rest) {
            return true;
        }
    }
    false
}

/// Append `raw` with `<`, `&` and — in text — `>`, or — in attribute
/// values — `"` replaced by their entities: the byte-level twin of
/// `xmlkit::serialize::{escape_text_into, escape_attr_into}`.
pub(crate) fn push_escaped(raw: &[u8], in_attr: bool, out: &mut Vec<u8>) {
    let mut run = 0;
    for (i, &b) in raw.iter().enumerate() {
        let entity: &[u8] = match b {
            b'<' => b"&lt;",
            b'&' => b"&amp;",
            b'>' if !in_attr => b"&gt;",
            b'"' if in_attr => b"&quot;",
            _ => continue,
        };
        out.extend_from_slice(&raw[run..i]);
        out.extend_from_slice(entity);
        run = i + 1;
    }
    out.extend_from_slice(&raw[run..]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_byte_agrees_with_position() {
        let hay = b"0123456789abcdef<0123456<<";
        for start in 0..hay.len() {
            for byte in [b'<', b'0', b'f', b'z'] {
                assert_eq!(
                    find_byte(byte, &hay[start..]),
                    hay[start..].iter().position(|&b| b == byte),
                    "byte {byte} from {start}",
                );
            }
        }
        // High-bit bytes must not confuse the zero-byte trick.
        let utf8 = "ééééééééé<".as_bytes();
        assert_eq!(find_byte(b'<', utf8), Some(utf8.len() - 1));
        assert_eq!(find_byte(0xa9, utf8), Some(1));
    }

    #[test]
    fn contains_bytes_agrees_with_str_contains() {
        let hay = "farewell, fair well; far, far away";
        for needle in ["far", "well;", "away", "fare", "x", "", "far away", "ffar", "y"] {
            assert_eq!(
                contains_bytes(hay.as_bytes(), needle.as_bytes()),
                hay.contains(needle),
                "{needle:?}",
            );
        }
        assert!(!contains_bytes(b"ab", b"abc"));
    }

    #[test]
    fn push_escaped_matches_xmlkit() {
        for s in ["plain", "a<b>c&d\"e'f", "<<", "&", "", "x>", "\"q\""] {
            let mut text = Vec::new();
            push_escaped(s.as_bytes(), false, &mut text);
            assert_eq!(text, xmlkit::serialize::escape_text(s).into_bytes());
            let mut attr = Vec::new();
            push_escaped(s.as_bytes(), true, &mut attr);
            assert_eq!(attr, xmlkit::serialize::escape_attr(s).into_bytes());
        }
    }
}
