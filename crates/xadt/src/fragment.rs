//! [`XadtValue`] — the stored representation of an XML fragment.

use std::borrow::Cow;
use std::fmt;

use crate::compress::{compress, decompress, CompressedReader};
use crate::token::{Event, FragmentError, PlainTokenizer};

/// Which of the two storage alternatives (paper §3.4.1) a value uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageFormat {
    /// The raw tagged string.
    Plain,
    /// Dictionary-compressed token stream (XMill-inspired).
    Compressed,
}

/// A value of the XML abstract data type: one XML fragment (a sequence of
/// sibling elements and text), stored either as plain tagged text or in the
/// dictionary-compressed binary form.
///
/// The payload is reference-counted, so cloning a value (rows moving
/// through joins, UDF locators) never copies the fragment bytes — the
/// same property DB2 gets from passing LOB locators.
///
/// Equality and hashing are defined over the *logical* fragment (its plain
/// rendering), so a compressed and a plain value holding the same fragment
/// compare equal — this is what `DISTINCT` over XADT columns requires.
#[derive(Clone)]
pub enum XadtValue {
    /// Plain tagged text.
    Plain(std::sync::Arc<str>),
    /// Compressed token stream.
    Compressed(std::sync::Arc<[u8]>),
}

impl XadtValue {
    /// Wrap an already-serialized fragment without compressing.
    pub fn plain(fragment: impl Into<std::sync::Arc<str>>) -> XadtValue {
        XadtValue::Plain(fragment.into())
    }

    /// Compress `fragment` and store the binary form.
    pub fn compressed(fragment: &str) -> Result<XadtValue, FragmentError> {
        Ok(XadtValue::Compressed(std::sync::Arc::from(compress(fragment)?)))
    }

    /// Wrap raw compressed bytes (as read back from storage).
    pub fn from_compressed_bytes(bytes: impl Into<std::sync::Arc<[u8]>>) -> XadtValue {
        XadtValue::Compressed(bytes.into())
    }

    /// Build a value in the requested format.
    pub fn in_format(fragment: &str, format: StorageFormat) -> Result<XadtValue, FragmentError> {
        match format {
            StorageFormat::Plain => Ok(XadtValue::plain(fragment)),
            StorageFormat::Compressed => XadtValue::compressed(fragment),
        }
    }

    /// The storage format of this value.
    pub fn format(&self) -> StorageFormat {
        match self {
            XadtValue::Plain(_) => StorageFormat::Plain,
            XadtValue::Compressed(_) => StorageFormat::Compressed,
        }
    }

    /// Bytes this value occupies in a stored tuple (payload only).
    pub fn storage_len(&self) -> usize {
        match self {
            XadtValue::Plain(s) => s.len(),
            XadtValue::Compressed(b) => b.len(),
        }
    }

    /// The fragment as plain tagged text (borrowing when already plain).
    pub fn to_plain(&self) -> Cow<'_, str> {
        match self {
            XadtValue::Plain(s) => Cow::Borrowed(s),
            XadtValue::Compressed(b) => {
                Cow::Owned(decompress(b).expect("stored compressed fragment is valid"))
            }
        }
    }

    /// Open a streaming event reader over the fragment.
    pub fn events(&self) -> Result<EventSource<'_>, FragmentError> {
        match self {
            XadtValue::Plain(s) => Ok(EventSource::Plain(PlainTokenizer::new(s))),
            XadtValue::Compressed(b) => Ok(EventSource::Compressed(CompressedReader::new(b)?)),
        }
    }

    /// True if the fragment contains no content at all.
    pub fn is_empty(&self) -> bool {
        match self {
            XadtValue::Plain(s) => s.is_empty(),
            // version byte + zero-length dictionary = 2 bytes of header
            XadtValue::Compressed(b) => b.len() <= 2,
        }
    }
}

impl fmt::Debug for XadtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XadtValue::Plain(s) => write!(f, "Xadt({s:?})"),
            XadtValue::Compressed(b) => {
                write!(f, "XadtCompressed({} bytes, {:?})", b.len(), self.to_plain())
            }
        }
    }
}

impl fmt::Display for XadtValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_plain())
    }
}

impl PartialEq for XadtValue {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (XadtValue::Plain(a), XadtValue::Plain(b)) => a == b,
            (XadtValue::Compressed(a), XadtValue::Compressed(b)) if a == b => true,
            _ => self.to_plain() == other.to_plain(),
        }
    }
}

impl Eq for XadtValue {}

impl std::hash::Hash for XadtValue {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.to_plain().hash(state);
    }
}

impl PartialOrd for XadtValue {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for XadtValue {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.to_plain().cmp(&other.to_plain())
    }
}

/// Unified streaming event source over either storage format.
pub enum EventSource<'a> {
    /// Reading the plain tagged-text form.
    Plain(PlainTokenizer<'a>),
    /// Reading the compressed form.
    Compressed(CompressedReader<'a>),
}

impl<'a> EventSource<'a> {
    /// Next event, `Ok(None)` at end of fragment.
    #[allow(clippy::should_implement_trait)] // fallible iterator
    pub fn next(&mut self) -> Result<Option<Event<'a>>, FragmentError> {
        match self {
            EventSource::Plain(t) => t.next(),
            EventSource::Compressed(r) => r.next(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FRAG: &str = "<SPEAKER>s1</SPEAKER><SPEAKER>s2</SPEAKER>";

    #[test]
    fn plain_and_compressed_render_identically() {
        let p = XadtValue::plain(FRAG);
        let c = XadtValue::compressed(FRAG).unwrap();
        assert_eq!(p.to_plain(), c.to_plain());
    }

    #[test]
    fn equality_is_logical() {
        let p = XadtValue::plain(FRAG);
        let c = XadtValue::compressed(FRAG).unwrap();
        assert_eq!(p, c);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h1 = DefaultHasher::new();
        let mut h2 = DefaultHasher::new();
        p.hash(&mut h1);
        c.hash(&mut h2);
        assert_eq!(h1.finish(), h2.finish());
    }

    #[test]
    fn event_streams_agree() {
        let p = XadtValue::plain(FRAG);
        let c = XadtValue::compressed(FRAG).unwrap();
        let mut ep = p.events().unwrap();
        let mut ec = c.events().unwrap();
        loop {
            let a = ep.next().unwrap();
            let b = ec.next().unwrap();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn empty_detection() {
        assert!(XadtValue::plain("").is_empty());
        assert!(XadtValue::compressed("").unwrap().is_empty());
        assert!(!XadtValue::plain("<a/>").is_empty());
    }

    #[test]
    fn ordering_is_by_plain_text() {
        let a = XadtValue::plain("<a/>");
        let b = XadtValue::compressed("<b/>").unwrap();
        assert!(a < b);
    }
}
