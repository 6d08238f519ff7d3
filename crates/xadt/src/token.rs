//! Tokenization of XML *fragments*.
//!
//! An XADT value stores a fragment: a sequence of sibling elements (with
//! nested content), e.g. `<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>`.
//! Fragments are produced by the shredder from parsed documents, so they
//! are well-formed; the tokenizer nonetheless reports malformed input as
//! an error rather than panicking.

use std::borrow::Cow;
use std::ops::Range;

use crate::compress::write_event;
use crate::fragment::XadtValue;
use crate::scan::{plain_value, Source, Tok, Wanted};

/// One event produced while scanning a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event<'a> {
    /// `<name attr="v" ...>`.
    Start {
        /// Tag name.
        name: &'a str,
        /// Attributes as (name, entity-resolved value) pairs.
        attrs: Vec<(&'a str, Cow<'a, str>)>,
    },
    /// `</name>` or the implicit end of `<name/>`.
    End {
        /// Tag name of the element being closed.
        name: &'a str,
    },
    /// A run of character data with entities resolved.
    Text(Cow<'a, str>),
}

/// Error produced when a fragment is not well-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentError(pub String);

impl std::fmt::Display for FragmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed XML fragment: {}", self.0)
    }
}

impl std::error::Error for FragmentError {}

/// Span scanner over the plain (tagged-text) fragment format: steps from
/// token to token without building anything, and remembers up to where
/// the input differs from its own
/// [`write_event`](crate::compress::write_event) rendering (`<e/>`,
/// `'`-quoted or loosely spaced attributes, entities `write_event` would
/// not emit, a bare `>` in text) so that every other span can be emitted
/// as a byte copy. [`PlainTokenizer`] is this scanner plus [`Event`]
/// construction.
pub(crate) struct PlainScan<'a> {
    input: &'a str,
    /// First byte of the token just returned.
    start: usize,
    /// One past the token just returned.
    pos: usize,
    /// Tag name of the `Start`/`End` token just returned.
    name: &'a str,
    /// Names of the open elements, to verify nesting.
    open: Vec<&'a str>,
    /// The `Start` just returned was `<e/>`: its `End` comes next.
    self_closed: bool,
    /// The `Text` token just returned contains `&`.
    text_has_entity: bool,
    /// One past the last token not in `write_event` form.
    rough_end: usize,
}

const fn is_tag_space(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\r' | b'\n')
}

/// Which bytes end a start tag's name.
static ENDS_TAG_NAME: [bool; 256] = {
    let mut ends = [false; 256];
    let mut b = 0;
    while b < 256 {
        ends[b] = is_tag_space(b as u8) || b as u8 == b'>' || b as u8 == b'/';
        b += 1;
    }
    ends
};

/// Whether every `&` in `raw` starts one of `entities` (each `name;`).
fn only_entities(raw: &str, entities: &[&str]) -> bool {
    raw.split('&').skip(1).all(|after| entities.iter().any(|e| after.starts_with(e)))
}

impl<'a> PlainScan<'a> {
    pub(crate) fn new(input: &'a str) -> Self {
        PlainScan {
            input,
            start: 0,
            pos: 0,
            name: "",
            open: Vec::new(),
            self_closed: false,
            text_has_entity: false,
            rough_end: 0,
        }
    }

    /// Step over the next token, handing each attribute of a start tag to
    /// `attr` as `(name, raw value)`.
    fn step(
        &mut self,
        attr: &mut impl FnMut(&'a str, &'a str),
    ) -> Result<Option<Tok>, FragmentError> {
        let bytes = self.input.as_bytes();
        self.start = self.pos;
        if self.self_closed {
            self.self_closed = false;
            return Ok(Some(Tok::End));
        }
        let Some(&first) = bytes.get(self.pos) else {
            return match self.open.pop() {
                None => Ok(None),
                Some(open) => Err(FragmentError(format!("unclosed element <{open}>"))),
            };
        };
        if first != b'<' {
            // One pass over the run: its end, and whether it holds `&`, `>`.
            let rest = &bytes[self.pos..];
            let (mut len, mut amp, mut gt) = (0, false, false);
            while len < rest.len() && rest[len] != b'<' {
                amp |= rest[len] == b'&';
                gt |= rest[len] == b'>';
                len += 1;
            }
            let run = &self.input[self.pos..self.pos + len];
            self.pos += len;
            self.text_has_entity = amp;
            if gt || (amp && !only_entities(run, &["lt;", "gt;", "amp;"])) {
                self.rough_end = self.pos;
            }
            return Ok(Some(Tok::Text));
        }
        if bytes.get(self.pos + 1) != Some(&b'/') {
            return self.start_tag(attr);
        }
        let name_at = self.pos + 2;
        if let Some(&open) = self.open.last() {
            // The usual end tag: exactly `</open>`.
            let end = name_at + open.len();
            if bytes.get(end) == Some(&b'>') && &bytes[name_at..end] == open.as_bytes() {
                self.open.pop();
                self.name = open;
                self.pos = end + 1;
                return Ok(Some(Tok::End));
            }
        }
        let len = self.input[name_at..]
            .find('>')
            .ok_or_else(|| FragmentError("unterminated end tag".into()))?;
        let written = &self.input[name_at..name_at + len];
        self.pos = name_at + len + 1;
        let open = self.open.pop();
        if open != Some(written) {
            let name = written.trim_end();
            match open {
                Some(open) if open == name => self.rough_end = self.pos,
                Some(open) => {
                    return Err(FragmentError(format!(
                        "close </{name}> does not match open <{open}>"
                    )))
                }
                None => return Err(FragmentError(format!("close </{name}> with no open tag"))),
            }
        }
        self.name = open.expect("matched above");
        Ok(Some(Tok::End))
    }

    fn start_tag(
        &mut self,
        attr: &mut impl FnMut(&'a str, &'a str),
    ) -> Result<Option<Tok>, FragmentError> {
        let bytes = self.input.as_bytes();
        let name_at = self.pos + 1;
        let mut p = name_at;
        while p < bytes.len() && !ENDS_TAG_NAME[usize::from(bytes[p])] {
            p += 1;
        }
        if p == name_at {
            return Err(FragmentError("empty tag name".into()));
        }
        self.name = &self.input[name_at..p];
        // `write_event` prints `<name`, ` attr="value"` per attribute, `>`.
        let mut rough = false;
        loop {
            let space_at = p;
            while p < bytes.len() && is_tag_space(bytes[p]) {
                p += 1;
            }
            match bytes.get(p) {
                None => return Err(FragmentError("unterminated start tag".into())),
                Some(b'>') => {
                    rough |= p != space_at;
                    self.pos = p + 1;
                    self.open.push(self.name);
                    break;
                }
                Some(b'/') => {
                    if bytes.get(p + 1) != Some(&b'>') {
                        return Err(FragmentError("stray '/' in start tag".into()));
                    }
                    rough = true;
                    self.pos = p + 2;
                    self.self_closed = true;
                    break;
                }
                Some(_) => {
                    rough |= p != space_at + 1 || bytes[space_at] != b' ';
                    let an_at = p;
                    while p < bytes.len() && !matches!(bytes[p], b'=' | b' ' | b'\t' | b'>') {
                        p += 1;
                    }
                    let an = &self.input[an_at..p];
                    let skip_blanks = |mut p: usize| {
                        while p < bytes.len() && matches!(bytes[p], b' ' | b'\t') {
                            p += 1;
                        }
                        p
                    };
                    let eq_at = skip_blanks(p);
                    if bytes.get(eq_at) != Some(&b'=') {
                        return Err(FragmentError(format!("attribute {an:?} missing '='")));
                    }
                    let quote_at = skip_blanks(eq_at + 1);
                    let quote = *bytes
                        .get(quote_at)
                        .filter(|&&b| b == b'"' || b == b'\'')
                        .ok_or_else(|| FragmentError("attribute value must be quoted".into()))?;
                    let value_at = quote_at + 1;
                    let len = self.input[value_at..]
                        .find(char::from(quote))
                        .ok_or_else(|| FragmentError("unterminated attribute value".into()))?;
                    let value = &self.input[value_at..value_at + len];
                    rough |= eq_at != p
                        || quote_at != eq_at + 1
                        || quote != b'"'
                        || value.contains('<')
                        || !only_entities(value, &["lt;", "amp;", "quot;"]);
                    attr(an, value);
                    p = value_at + len + 1;
                }
            }
        }
        if rough {
            self.rough_end = self.pos;
        }
        Ok(Some(Tok::Start))
    }

    /// The `Text` token just returned, entities unresolved.
    fn raw_text(&self) -> &'a str {
        &self.input[self.start..self.pos]
    }
}

impl Source for PlainScan<'_> {
    /// Plain input arrives unchecked (a SQL literal, `XadtValue::plain`),
    /// so no name is ruled out ahead of the walk that finds it malformed.
    fn resolve<'n>(&self, name: &'n str) -> Option<Wanted<'n>> {
        Some(Wanted { name, code: 0 })
    }

    fn next(&mut self) -> Result<Option<Tok>, FragmentError> {
        self.step(&mut |_, _| {})
    }

    fn is(&self, name: Wanted<'_>) -> bool {
        self.name == name.name
    }

    fn start(&self) -> usize {
        self.start
    }

    fn end(&self) -> usize {
        self.pos
    }

    fn text(&self) -> Cow<'_, [u8]> {
        let raw = self.raw_text();
        if !self.text_has_entity {
            return Cow::Borrowed(raw.as_bytes());
        }
        match unescape(raw) {
            Cow::Borrowed(s) => Cow::Borrowed(s.as_bytes()),
            Cow::Owned(s) => Cow::Owned(s.into_bytes()),
        }
    }

    fn attr(&self, attr: &str) -> Result<Option<String>, FragmentError> {
        let mut tag = PlainScan::new(&self.input[self.start..self.pos]);
        let mut found = None;
        tag.step(&mut |name, raw| {
            if found.is_none() && name == attr {
                found = Some(unescape(raw).into_owned());
            }
        })?;
        Ok(found)
    }

    fn render(&self, span: Range<usize>, out: &mut Vec<u8>) -> Result<(), FragmentError> {
        if self.rough_end <= span.start {
            out.extend_from_slice(&self.input.as_bytes()[span]);
            return Ok(());
        }
        let mut events = PlainTokenizer::new(&self.input[span]);
        let mut rendered = String::new();
        while let Some(ev) = events.next()? {
            write_event(&ev, &mut rendered);
        }
        out.extend_from_slice(rendered.as_bytes());
        Ok(())
    }

    fn value(&self, span: Range<usize>) -> Result<XadtValue, FragmentError> {
        if self.rough_end <= span.start {
            return Ok(XadtValue::plain(&self.input[span]));
        }
        let mut out = Vec::new();
        self.render(span, &mut out)?;
        plain_value(&out)
    }
}

/// Streaming tokenizer over the plain (tagged-text) fragment format.
///
/// The tokenizer additionally exposes the byte offset of each event start
/// via [`PlainTokenizer::offset`], which lets callers slice whole subtrees
/// out of the input without re-serializing.
pub struct PlainTokenizer<'a> {
    scan: PlainScan<'a>,
}

impl<'a> PlainTokenizer<'a> {
    /// Tokenize `input`, which must be a fragment (zero or more elements
    /// and text runs).
    pub fn new(input: &'a str) -> Self {
        PlainTokenizer { scan: PlainScan::new(input) }
    }

    /// Byte offset where the *next* event begins.
    pub fn offset(&self) -> usize {
        self.scan.pos
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.scan.open.len()
    }

    /// Produce the next event, `Ok(None)` at end of input.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> Result<Option<Event<'a>>, FragmentError> {
        let mut attrs = Vec::new();
        let tok = self.scan.step(&mut |name, raw| attrs.push((name, unescape(raw))))?;
        Ok(tok.map(|tok| match tok {
            Tok::Start => Event::Start { name: self.scan.name, attrs },
            Tok::End => Event::End { name: self.scan.name },
            Tok::Text if self.scan.text_has_entity => Event::Text(unescape(self.scan.raw_text())),
            Tok::Text => Event::Text(Cow::Borrowed(self.scan.raw_text())),
        }))
    }
}

/// Resolve the predefined entities in `raw`; borrows when nothing to do.
pub fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(idx) = rest.find('&') {
        out.push_str(&rest[..idx]);
        rest = &rest[idx + 1..];
        if let Some(end) = rest.find(';') {
            let name = &rest[..end];
            let replacement = match name {
                "lt" => Some('<'),
                "gt" => Some('>'),
                "amp" => Some('&'),
                "apos" => Some('\''),
                "quot" => Some('"'),
                _ => name
                    .strip_prefix('#')
                    .and_then(|n| {
                        if let Some(h) = n.strip_prefix('x') {
                            u32::from_str_radix(h, 16).ok()
                        } else {
                            n.parse().ok()
                        }
                    })
                    .and_then(char::from_u32),
            };
            match replacement {
                Some(c) => {
                    out.push(c);
                    rest = &rest[end + 1..];
                }
                None => out.push('&'),
            }
        } else {
            out.push('&');
        }
    }
    out.push_str(rest);
    Cow::Owned(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_events(s: &str) -> Vec<Event<'_>> {
        let mut t = PlainTokenizer::new(s);
        let mut out = Vec::new();
        while let Some(e) = t.next().unwrap() {
            out.push(e);
        }
        out
    }

    #[test]
    fn tokenizes_sibling_elements() {
        let ev = all_events("<A>x</A><B/>");
        assert_eq!(ev.len(), 5);
        assert!(matches!(&ev[0], Event::Start { name: "A", .. }));
        assert!(matches!(&ev[1], Event::Text(t) if t == "x"));
        assert!(matches!(&ev[2], Event::End { name: "A" }));
        assert!(matches!(&ev[3], Event::Start { name: "B", .. }));
        assert!(matches!(&ev[4], Event::End { name: "B" }));
    }

    #[test]
    fn tokenizes_attributes() {
        let ev = all_events(r#"<a x="1" y='2&amp;3'>t</a>"#);
        match &ev[0] {
            Event::Start { name, attrs } => {
                assert_eq!(*name, "a");
                assert_eq!(attrs[0], ("x", Cow::Borrowed("1")));
                assert_eq!(attrs[1].1.as_ref(), "2&3");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unescapes_text() {
        let ev = all_events("<a>&lt;hi&gt; &amp; bye</a>");
        assert!(matches!(&ev[1], Event::Text(t) if t == "<hi> & bye"));
    }

    #[test]
    fn rejects_mismatched_nesting() {
        let mut t = PlainTokenizer::new("<a><b></a></b>");
        let mut err = None;
        loop {
            match t.next() {
                Ok(Some(_)) => continue,
                Ok(None) => break,
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        assert!(err.is_some());
    }

    #[test]
    fn rejects_unclosed_element() {
        let mut t = PlainTokenizer::new("<a>");
        assert!(matches!(t.next(), Ok(Some(_))));
        assert!(t.next().is_err());
    }

    #[test]
    fn unescape_leaves_plain_borrowed() {
        assert!(matches!(unescape("plain"), Cow::Borrowed(_)));
    }

    #[test]
    fn offset_tracks_event_starts() {
        let s = "<A>x</A><B>y</B>";
        let mut t = PlainTokenizer::new(s);
        assert_eq!(t.offset(), 0);
        t.next().unwrap(); // <A>
        t.next().unwrap(); // x
        t.next().unwrap(); // </A>
        assert_eq!(t.offset(), 8);
        assert_eq!(&s[8..], "<B>y</B>");
    }
}
