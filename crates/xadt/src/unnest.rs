//! The `unnest` table UDF (paper §3.5, Figure 9).
//!
//! `unnest(xadt, 'tag')` views an XADT attribute as a set of XML fragment
//! trees and delivers one row per *outermost* `tag` element found anywhere
//! in the fragment. Each output row carries the serialized subtree
//! (including the `tag` element itself), so the result can feed further
//! XADT method calls — the lateral pattern the SIGMOD queries use.

use crate::fragment::XadtValue;
use crate::scan::{selects, with_source, Source, Tok};
use crate::token::FragmentError;

/// Unnest `input`, producing one fragment per outermost `tag` element.
///
/// An empty `tag` unnests the top-level elements of the fragment.
pub fn unnest(input: &XadtValue, tag: &str) -> Result<Vec<XadtValue>, FragmentError> {
    with_source!(input, unnest_in(tag))
}

fn unnest_in(mut src: impl Source, tag: &str) -> Result<Vec<XadtValue>, FragmentError> {
    let Some(tag) = src.resolve_optional(tag) else { return Ok(Vec::new()) };
    let mut out = Vec::new();
    let mut depth = 0usize;
    // The element being copied: its depth and start offset.
    let mut capture: Option<(usize, usize)> = None;
    while let Some(tok) = src.next()? {
        match tok {
            Tok::Start => {
                if capture.is_none() && selects(&src, tag, depth) {
                    capture = Some((depth, src.start()));
                }
                depth += 1;
            }
            Tok::End => {
                depth -= 1;
                if let Some((_, start)) = capture.filter(|c| c.0 == depth) {
                    out.push(src.value(start..src.end())?);
                    capture = None;
                }
            }
            Tok::Text => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_9_semantics() {
        // Two speech tuples: one with two speakers, one with one.
        let row1 = XadtValue::plain("<speaker>s1</speaker><speaker>s2</speaker>");
        let row2 = XadtValue::plain("<speaker>s1</speaker>");
        let mut all: Vec<String> = Vec::new();
        for row in [&row1, &row2] {
            for v in unnest(row, "speaker").unwrap() {
                all.push(v.to_plain().into_owned());
            }
        }
        assert_eq!(
            all,
            ["<speaker>s1</speaker>", "<speaker>s2</speaker>", "<speaker>s1</speaker>"]
        );
        // DISTINCT over the unnested rows gives two speakers (Fig. 9b).
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn unnests_nested_tag() {
        let v = XadtValue::plain(
            "<sList><sListTuple><sectionName>A</sectionName></sListTuple><sListTuple><sectionName>B</sectionName></sListTuple></sList>",
        );
        let rows = unnest(&v, "sListTuple").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].to_plain(), "<sListTuple><sectionName>A</sectionName></sListTuple>");
    }

    #[test]
    fn outermost_only_for_recursive_tags() {
        let v = XadtValue::plain("<e>a<e>b</e></e><e>c</e>");
        let rows = unnest(&v, "e").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].to_plain(), "<e>a<e>b</e></e>");
        assert_eq!(rows[1].to_plain(), "<e>c</e>");
    }

    #[test]
    fn empty_tag_unnests_top_level() {
        let v = XadtValue::plain("<a>1</a><b>2</b>");
        let rows = unnest(&v, "").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].to_plain(), "<b>2</b>");
    }

    #[test]
    fn absent_tag_yields_no_rows() {
        let v = XadtValue::plain("<a>1</a>");
        assert!(unnest(&v, "zzz").unwrap().is_empty());
    }

    #[test]
    fn works_on_compressed_values() {
        let frag = "<author>X</author><author>Y</author>";
        let v = XadtValue::compressed(frag).unwrap();
        let rows = unnest(&v, "author").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1].to_plain(), "<author>Y</author>");
    }
}
