//! XMill-inspired dictionary compression for XADT fragments (paper §3.4.1).
//!
//! Element and attribute names are mapped to small integer codes; a
//! dictionary recording the code → name mapping is stored in front of the
//! token stream, exactly as the paper describes. Text is stored verbatim
//! (unescaped), so repeated tag names — the dominant redundancy in shredded
//! XML fragments — shrink to one or two bytes each.
//!
//! Binary layout (all integers LEB128 varints):
//!
//! ```text
//! u8 version (=1)
//! varint dict_len, then dict_len × { varint byte_len, utf-8 name }
//! events until end of buffer:
//!   0x01 start : varint name_code, varint n_attrs,
//!                n_attrs × { varint name_code, varint len, value bytes }
//!   0x02 end
//!   0x03 text  : varint len, bytes (unescaped)
//! ```

use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Range;

use crate::scan::{contains_bytes, push_escaped, Source, Tok, Wanted};
use crate::token::{Event, FragmentError, PlainTokenizer};

const VERSION: u8 = 1;
const OP_START: u8 = 0x01;
const OP_END: u8 = 0x02;
const OP_TEXT: u8 = 0x03;

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, FragmentError> {
    let mut v: u64 = 0;
    let mut shift = 0;
    loop {
        let b = *bytes.get(*pos).ok_or_else(|| FragmentError("truncated varint".into()))?;
        *pos += 1;
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(FragmentError("varint too long".into()));
        }
    }
}

/// Compress a plain fragment into the dictionary-coded binary form.
pub fn compress(fragment: &str) -> Result<Vec<u8>, FragmentError> {
    let mut dict: Vec<&str> = Vec::new();
    let mut codes: HashMap<&str, u64> = HashMap::new();
    let mut body = Vec::with_capacity(fragment.len() / 2);

    fn code_of<'f>(
        name: &'f str,
        dict: &mut Vec<&'f str>,
        codes: &mut HashMap<&'f str, u64>,
    ) -> u64 {
        *codes.entry(name).or_insert_with(|| {
            dict.push(name);
            (dict.len() - 1) as u64
        })
    }

    let mut t = PlainTokenizer::new(fragment);
    while let Some(ev) = t.next()? {
        match ev {
            Event::Start { name, attrs } => {
                body.push(OP_START);
                let c = code_of(name, &mut dict, &mut codes);
                write_varint(&mut body, c);
                write_varint(&mut body, attrs.len() as u64);
                for (an, av) in attrs {
                    let ac = code_of(an, &mut dict, &mut codes);
                    write_varint(&mut body, ac);
                    write_varint(&mut body, av.len() as u64);
                    body.extend_from_slice(av.as_bytes());
                }
            }
            Event::End { .. } => body.push(OP_END),
            Event::Text(text) => {
                body.push(OP_TEXT);
                write_varint(&mut body, text.len() as u64);
                body.extend_from_slice(text.as_bytes());
            }
        }
    }

    let mut out = Vec::with_capacity(body.len() + 16 * dict.len() + 8);
    out.push(VERSION);
    write_varint(&mut out, dict.len() as u64);
    for name in &dict {
        write_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    out.extend_from_slice(&body);
    Ok(out)
}

/// Bounds-checked read position in a compressed fragment.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn varint(&mut self) -> Result<usize, FragmentError> {
        // Codes, counts and most lengths fit one byte.
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(usize::from(b))
            }
            _ => usize::try_from(read_varint(self.bytes, &mut self.pos)?)
                .map_err(|_| FragmentError("varint exceeds the address space".into())),
        }
    }

    /// The next `len` bytes; `what` names them in the truncation error.
    fn take(&mut self, len: usize, what: &str) -> Result<&'a [u8], FragmentError> {
        let end = self.pos.checked_add(len).filter(|&end| end <= self.bytes.len());
        let end = end.ok_or_else(|| FragmentError(format!("truncated {what}")))?;
        let taken = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(taken)
    }
}

/// Span scanner over the compressed format: steps over opcodes, skipping
/// attribute values and text by their stored length, and renders a span
/// of opcodes to plain text only when a method emits it.
/// [`CompressedReader`] is this scanner plus [`Event`] construction.
pub(crate) struct CompressedScan<'a> {
    cur: Cursor<'a>,
    /// Code → name.
    dict: Vec<&'a str>,
    /// Offset of the first opcode.
    body: usize,
    /// First byte of the token just returned.
    start: usize,
    /// Name code of the `Start`/`End` token just returned.
    code: usize,
    /// Codes of the open elements.
    open: Vec<usize>,
    /// Where the attributes of the `Start` just returned begin, and how
    /// many there are.
    attrs: (usize, usize),
    /// The content of the `Text` token just returned.
    text: &'a [u8],
}

impl<'a> CompressedScan<'a> {
    /// Open a compressed fragment. Fails on version or header corruption.
    pub(crate) fn new(bytes: &'a [u8]) -> Result<Self, FragmentError> {
        let version =
            *bytes.first().ok_or_else(|| FragmentError("empty compressed fragment".into()))?;
        if version != VERSION {
            return Err(FragmentError(format!("unsupported version {version}")));
        }
        let mut cur = Cursor { bytes, pos: 1 };
        let n = cur.varint()?;
        // Every entry takes at least its length byte.
        let mut dict = Vec::with_capacity(n.min(bytes.len()));
        for _ in 0..n {
            let len = cur.varint()?;
            let name = std::str::from_utf8(cur.take(len, "dictionary")?)
                .map_err(|_| FragmentError("dictionary entry is not utf-8".into()))?;
            dict.push(name);
        }
        let body = cur.pos;
        Ok(CompressedScan {
            cur,
            dict,
            body,
            start: body,
            code: 0,
            open: Vec::new(),
            attrs: (body, 0),
            text: &[],
        })
    }

    fn name_of(&self, code: usize) -> Result<&'a str, FragmentError> {
        self.dict
            .get(code)
            .copied()
            .ok_or_else(|| FragmentError(format!("dictionary code {code} out of range")))
    }

    /// The attributes of the `Start` token just returned, as
    /// `(name code, value)`.
    fn attrs(&self) -> impl Iterator<Item = (usize, &'a [u8])> + '_ {
        let mut cur = Cursor { bytes: self.cur.bytes, pos: self.attrs.0 };
        (0..self.attrs.1).map(move |_| {
            // `next` has already stepped over these bytes.
            let code = cur.varint().expect("validated by next");
            let len = cur.varint().expect("validated by next");
            (code, cur.take(len, "attribute").expect("validated by next"))
        })
    }
}

impl Source for CompressedScan<'_> {
    /// Every element name of the fragment is in its dictionary.
    fn resolve<'n>(&self, name: &'n str) -> Option<Wanted<'n>> {
        let code = self.dict.iter().position(|&entry| entry == name)?;
        Some(Wanted { name, code })
    }

    fn next(&mut self) -> Result<Option<Tok>, FragmentError> {
        self.start = self.cur.pos;
        let Some(&op) = self.cur.bytes.get(self.cur.pos) else {
            if !self.open.is_empty() {
                return Err(FragmentError("compressed stream ends inside element".into()));
            }
            return Ok(None);
        };
        self.cur.pos += 1;
        match op {
            OP_START => {
                self.code = self.cur.varint()?;
                self.name_of(self.code)?;
                let n_attrs = self.cur.varint()?;
                self.attrs = (self.cur.pos, n_attrs);
                for _ in 0..n_attrs {
                    let code = self.cur.varint()?;
                    self.name_of(code)?;
                    let len = self.cur.varint()?;
                    self.cur.take(len, "attribute")?;
                }
                self.open.push(self.code);
                Ok(Some(Tok::Start))
            }
            OP_END => {
                self.code = self
                    .open
                    .pop()
                    .ok_or_else(|| FragmentError("end event with no open element".into()))?;
                Ok(Some(Tok::End))
            }
            OP_TEXT => {
                let len = self.cur.varint()?;
                self.text = self.cur.take(len, "text")?;
                Ok(Some(Tok::Text))
            }
            other => Err(FragmentError(format!("unknown opcode {other:#x}"))),
        }
    }

    fn is(&self, name: Wanted<'_>) -> bool {
        self.code == name.code
    }

    fn start(&self) -> usize {
        self.start
    }

    fn end(&self) -> usize {
        self.cur.pos
    }

    /// Text is stored entity-resolved.
    fn text(&self) -> Cow<'_, [u8]> {
        Cow::Borrowed(self.text)
    }

    /// Text runs are stored verbatim and contiguous.
    fn may_contain_text(&self, key: &str) -> bool {
        contains_bytes(&self.cur.bytes[self.body..], key.as_bytes())
    }

    fn attr(&self, attr: &str) -> Result<Option<String>, FragmentError> {
        let Some(wanted) = self.resolve(attr) else { return Ok(None) };
        let Some((_, value)) = self.attrs().find(|&(code, _)| code == wanted.code) else {
            return Ok(None);
        };
        let value = std::str::from_utf8(value)
            .map_err(|_| FragmentError("attribute value not utf-8".into()))?;
        Ok(Some(value.to_string()))
    }

    fn render(&self, span: Range<usize>, out: &mut Vec<u8>) -> Result<(), FragmentError> {
        let mut cur = Cursor { bytes: &self.cur.bytes[..span.end], pos: span.start };
        let mut open: Vec<&str> = Vec::new();
        // Codes grow back into names: the rendering is the longer side.
        out.reserve(2 * span.len());
        while let Some(&op) = cur.bytes.get(cur.pos) {
            cur.pos += 1;
            match op {
                OP_START => {
                    let name = self.name_of(cur.varint()?)?;
                    out.push(b'<');
                    out.extend_from_slice(name.as_bytes());
                    for _ in 0..cur.varint()? {
                        let attr = self.name_of(cur.varint()?)?;
                        let len = cur.varint()?;
                        out.push(b' ');
                        out.extend_from_slice(attr.as_bytes());
                        out.extend_from_slice(b"=\"");
                        push_escaped(cur.take(len, "attribute")?, true, out);
                        out.push(b'"');
                    }
                    out.push(b'>');
                    open.push(name);
                }
                OP_END => {
                    let name = open
                        .pop()
                        .ok_or_else(|| FragmentError("end event with no open element".into()))?;
                    out.extend_from_slice(b"</");
                    out.extend_from_slice(name.as_bytes());
                    out.push(b'>');
                }
                OP_TEXT => {
                    let len = cur.varint()?;
                    push_escaped(cur.take(len, "text")?, false, out);
                }
                other => return Err(FragmentError(format!("unknown opcode {other:#x}"))),
            }
        }
        if !open.is_empty() {
            return Err(FragmentError("compressed stream ends inside element".into()));
        }
        Ok(())
    }
}

/// Reader over a compressed fragment; yields the same [`Event`] stream as
/// [`PlainTokenizer`] does over the plain form.
pub struct CompressedReader<'a> {
    scan: CompressedScan<'a>,
}

impl<'a> CompressedReader<'a> {
    /// Open a compressed fragment. Fails on version or header corruption.
    pub fn new(bytes: &'a [u8]) -> Result<Self, FragmentError> {
        Ok(CompressedReader { scan: CompressedScan::new(bytes)? })
    }

    /// Number of dictionary entries.
    pub fn dict_len(&self) -> usize {
        self.scan.dict.len()
    }

    /// Current element nesting depth.
    pub fn depth(&self) -> usize {
        self.scan.open.len()
    }

    /// Next event, `Ok(None)` at end of stream.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> Result<Option<Event<'a>>, FragmentError> {
        let scan = &mut self.scan;
        let Some(tok) = scan.next()? else { return Ok(None) };
        Ok(Some(match tok {
            Tok::Start => {
                let mut attrs = Vec::with_capacity(scan.attrs.1);
                for (code, value) in scan.attrs() {
                    let value = std::str::from_utf8(value)
                        .map_err(|_| FragmentError("attribute value not utf-8".into()))?;
                    attrs.push((scan.dict[code], Cow::Borrowed(value)));
                }
                Event::Start { name: scan.dict[scan.code], attrs }
            }
            Tok::End => Event::End { name: scan.dict[scan.code] },
            Tok::Text => Event::Text(Cow::Borrowed(
                std::str::from_utf8(scan.text)
                    .map_err(|_| FragmentError("text not utf-8".into()))?,
            )),
        }))
    }
}

/// Decompress back to the plain tagged-text form.
pub fn decompress(bytes: &[u8]) -> Result<String, FragmentError> {
    let scan = CompressedScan::new(bytes)?;
    let mut out = Vec::new();
    scan.render(scan.body..bytes.len(), &mut out)?;
    String::from_utf8(out).map_err(|_| FragmentError("text not utf-8".into()))
}

/// Append the plain-text rendering of one event to `out`.
pub fn write_event(ev: &Event<'_>, out: &mut String) {
    match ev {
        Event::Start { name, attrs } => {
            out.push('<');
            out.push_str(name);
            for (an, av) in attrs {
                out.push(' ');
                out.push_str(an);
                out.push_str("=\"");
                xmlkit::serialize::escape_attr_into(av, out);
                out.push('"');
            }
            out.push('>');
        }
        Event::End { name } => {
            out.push_str("</");
            out.push_str(name);
            out.push('>');
        }
        Event::Text(t) => xmlkit::serialize::escape_text_into(t, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_simple_fragment() {
        let frag = "<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>";
        let c = compress(frag).unwrap();
        assert_eq!(decompress(&c).unwrap(), frag);
    }

    #[test]
    fn round_trips_nested_with_attributes() {
        let frag = r#"<aTuple><title articleCode="c7">On Joins &amp; Scans</title><authors><author AuthorPosition="1">A. B.</author></authors></aTuple>"#;
        let c = compress(frag).unwrap();
        assert_eq!(decompress(&c).unwrap(), frag);
    }

    #[test]
    fn repeated_tags_compress_well() {
        let mut frag = String::new();
        for i in 0..200 {
            frag.push_str(&format!("<LINE>line number {i}</LINE>"));
        }
        let c = compress(&frag).unwrap();
        // The paper's compression threshold is 20 % savings; tag-heavy
        // fragments like this comfortably exceed it.
        assert!(
            c.len() < frag.len() * 80 / 100,
            "expected >20% savings: {} vs {}",
            c.len(),
            frag.len()
        );
    }

    #[test]
    fn tiny_fragment_may_grow() {
        // One unique tag, no repetition: the dictionary is pure overhead
        // relative to... actually codes are shorter than tags, so measure
        // only that both paths stay correct.
        let frag = "<ABCDEFGHIJKLMNOP>x</ABCDEFGHIJKLMNOP>";
        let c = compress(frag).unwrap();
        assert_eq!(decompress(&c).unwrap(), frag);
    }

    #[test]
    fn empty_fragment_round_trips() {
        let c = compress("").unwrap();
        assert_eq!(decompress(&c).unwrap(), "");
    }

    #[test]
    fn bare_text_fragment_round_trips() {
        let c = compress("just text &amp; more").unwrap();
        assert_eq!(decompress(&c).unwrap(), "just text &amp; more");
    }

    #[test]
    fn dictionary_is_shared_across_tags_and_attrs() {
        let frag = r#"<a a="1"/>"#;
        let c = compress(frag).unwrap();
        let r = CompressedReader::new(&c).unwrap();
        assert_eq!(r.dict_len(), 1);
    }

    #[test]
    fn reader_reports_truncation() {
        let frag = "<A>hello world</A>";
        let c = compress(frag).unwrap();
        let truncated = &c[..c.len() - 3];
        let mut r = CompressedReader::new(truncated).unwrap();
        let mut failed = false;
        loop {
            match r.next() {
                Ok(Some(_)) => {}
                Ok(None) => break,
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        assert!(failed);
    }

    #[test]
    fn varint_round_trip() {
        for v in [0u64, 1, 127, 128, 300, 16_383, 16_384, u32::MAX as u64] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn unknown_opcode_is_an_error() {
        let mut c = compress("<a/>").unwrap();
        // Corrupt the first opcode after the header (version + dict of 1).
        let hdr = 1 + 1 + 1 + 1; // version, dict_len=1, len=1, 'a'
        c[hdr] = 0x7f;
        let mut r = CompressedReader::new(&c).unwrap();
        assert!(r.next().is_err());
    }
}
