//! Document and subtree serialization.

use crate::dom::{Document, NodeId, NodeKind};

/// Escape character data (`<`, `&`, `>`).
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_text_into(s, &mut out);
    out
}

/// Escape character data into an existing buffer.
pub fn escape_text_into(s: &str, out: &mut String) {
    escape_into(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'>' => Some("&gt;"),
        b'&' => Some("&amp;"),
        _ => None,
    });
}

/// Escape an attribute value quoted with `"`.
pub fn escape_attr(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_attr_into(s, &mut out);
    out
}

/// Escape an attribute value quoted with `"` into an existing buffer.
pub fn escape_attr_into(s: &str, out: &mut String) {
    escape_into(s, out, |b| match b {
        b'<' => Some("&lt;"),
        b'&' => Some("&amp;"),
        b'"' => Some("&quot;"),
        _ => None,
    });
}

/// Append `s`, copying each run of bytes `entity_of` leaves alone in one
/// piece. Only ASCII bytes are ever replaced, so every run boundary is a
/// character boundary.
fn escape_into(s: &str, out: &mut String, entity_of: impl Fn(u8) -> Option<&'static str>) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some(entity) = entity_of(b) {
            out.push_str(&s[run..i]);
            out.push_str(entity);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// Serialize a whole document compactly (no added whitespace).
pub fn to_string(doc: &Document) -> String {
    let mut out = String::new();
    write_subtree(doc, doc.root(), &mut out);
    out
}

/// Serialize the subtree rooted at `id` compactly into `out`.
pub fn write_subtree(doc: &Document, id: NodeId, out: &mut String) {
    match &doc.node(id).kind {
        NodeKind::Text(t) => escape_text_into(t, out),
        NodeKind::Element { name, attributes } => {
            out.push('<');
            out.push_str(name);
            for a in attributes {
                out.push(' ');
                out.push_str(&a.name);
                out.push_str("=\"");
                escape_attr_into(&a.value, out);
                out.push('"');
            }
            let children = doc.children(id);
            if children.is_empty() {
                out.push_str("/>");
            } else {
                out.push('>');
                for &c in children {
                    write_subtree(doc, c, out);
                }
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
        }
    }
}

/// Serialize the subtree rooted at `id` to a new string.
pub fn subtree_to_string(doc: &Document, id: NodeId) -> String {
    let mut out = String::new();
    write_subtree(doc, id, &mut out);
    out
}

/// Serialize a document with two-space indentation, one element per line.
/// Mixed content (elements with text children) is kept on a single line so
/// significant text is not distorted.
pub fn to_pretty_string(doc: &Document) -> String {
    let mut out = String::new();
    write_pretty(doc, doc.root(), 0, &mut out);
    out.push('\n');
    out
}

fn has_element_children_only(doc: &Document, id: NodeId) -> bool {
    let children = doc.children(id);
    !children.is_empty() && children.iter().all(|&c| doc.tag(c).is_some())
}

fn write_pretty(doc: &Document, id: NodeId, depth: usize, out: &mut String) {
    for _ in 0..depth {
        out.push_str("  ");
    }
    if has_element_children_only(doc, id) {
        let name = doc.tag(id).expect("element");
        out.push('<');
        out.push_str(name);
        for a in doc.attributes(id) {
            out.push(' ');
            out.push_str(&a.name);
            out.push_str("=\"");
            escape_attr_into(&a.value, out);
            out.push('"');
        }
        out.push_str(">\n");
        for &c in doc.children(id) {
            write_pretty(doc, c, depth + 1, out);
        }
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str("</");
        out.push_str(name);
        out.push_str(">\n");
    } else {
        write_subtree(doc, id, out);
        out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_document;

    #[test]
    fn round_trips_simple_document() {
        let src = "<PLAY><ACT a=\"1\"><TITLE>Act I &amp; II</TITLE><E/></ACT></PLAY>";
        let doc = parse_document(src).unwrap();
        assert_eq!(to_string(&doc), src);
    }

    #[test]
    fn escapes_attr_quotes() {
        assert_eq!(escape_attr("a\"b<c&d"), "a&quot;b&lt;c&amp;d");
    }

    #[test]
    fn escapes_text() {
        assert_eq!(escape_text("a<b>&c"), "a&lt;b&gt;&amp;c");
    }

    #[test]
    fn subtree_serialization() {
        let doc = parse_document("<a><b>x</b><c/></a>").unwrap();
        let b = doc.elements_named("b").next().unwrap();
        assert_eq!(subtree_to_string(&doc, b), "<b>x</b>");
    }

    #[test]
    fn pretty_keeps_mixed_content_inline() {
        let doc = parse_document("<a><b>hi <i>x</i> there</b></a>").unwrap();
        let pretty = to_pretty_string(&doc);
        assert!(pretty.contains("<b>hi <i>x</i> there</b>"));
    }

    #[test]
    fn parse_serialize_parse_is_stable() {
        let src = "<a x=\"1&quot;2\"><b>t&lt;u</b><c><d/></c>tail</a>";
        let doc = parse_document(src).unwrap();
        let s1 = to_string(&doc);
        let doc2 = parse_document(&s1).unwrap();
        assert_eq!(to_string(&doc2), s1);
    }
}
