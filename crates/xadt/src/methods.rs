//! The XADT methods of paper §3.4.2: `getElm`, `findKeyInElm`, and
//! `getElmIndex`.
//!
//! All three are single-pass scans over the stored fragment (plain or
//! compressed) with the crate's span scanner (`scan.rs`) — no DOM and no
//! event stream is materialised. Matching subtrees come out as a
//! plain-format [`XadtValue`], which can feed another method call, exactly
//! the composition the paper uses for complex path queries.

use crate::fragment::XadtValue;
use crate::scan::{contains_bytes, plain_value, selects, with_source, Emitter, Source, Tok};
use crate::token::FragmentError;

/// `getElm(inXML, rootElm, searchElm, searchKey, level)`.
///
/// Returns all *outermost* `root_elm` elements in `input` that contain a
/// `search_elm` descendant within `level` levels below the root element
/// whose text content contains `search_key`. Per the paper:
///
/// * `level = None` — ignore depth;
/// * empty `search_key` — only require that `search_elm` exist;
/// * empty `search_elm` — return every `root_elm` element;
/// * empty `root_elm` — treat each top-level element of the fragment as a
///   root (the paper leaves this case open; this is the natural reading
///   used by the composed SIGMOD queries).
pub fn get_elm(
    input: &XadtValue,
    root_elm: &str,
    search_elm: &str,
    search_key: &str,
    level: Option<u32>,
) -> Result<XadtValue, FragmentError> {
    with_source!(input, get_elm_in(root_elm, search_elm, search_key, level))
}

fn get_elm_in(
    mut src: impl Source,
    root_elm: &str,
    search_elm: &str,
    search_key: &str,
    level: Option<u32>,
) -> Result<XadtValue, FragmentError> {
    // Without a rootElm the top-level elements are the roots; without a
    // searchElm every root qualifies.
    let (Some(root), Some(search)) =
        (src.resolve_optional(root_elm), src.resolve_optional(search_elm))
    else {
        return plain_value(&[]);
    };
    let key = search_key.as_bytes();
    let mut out = Emitter::new();
    let mut depth = 0usize;
    // The root element being scanned — its depth and start offset — and
    // whether it has qualified yet.
    let mut candidate: Option<(usize, usize)> = None;
    let mut qualified = false;
    // The open searchElm scopes still waiting for the key, as (depth,
    // where their text starts in `heard`): scopes nest, so one buffer
    // holds the concatenated text of all of them.
    let mut scopes: Vec<(usize, usize)> = Vec::new();
    let mut heard: Vec<u8> = Vec::new();

    while let Some(tok) = src.next()? {
        match tok {
            Tok::Start => {
                if candidate.is_none() && selects(&src, root, depth) {
                    candidate = Some((depth, src.start()));
                    qualified = search.is_none();
                }
                if let (Some((root_depth, _)), false, Some(search)) = (candidate, qualified, search)
                {
                    // The root itself (zero levels down) is a search scope
                    // when rootElm == searchElm: the paper's QE1 calls
                    // getElm(line, 'LINE', 'LINE', key).
                    let levels_down = depth - root_depth;
                    let within_level =
                        level.is_none_or(|l| u32::try_from(levels_down).is_ok_and(|d| d <= l));
                    if within_level && src.is(search) {
                        if key.is_empty() {
                            qualified = true;
                        } else {
                            scopes.push((depth, heard.len()));
                        }
                    }
                }
                depth += 1;
            }
            Tok::End => {
                depth -= 1;
                while let Some(&(_, from)) = scopes.last().filter(|s| s.0 == depth) {
                    scopes.pop();
                    if contains_bytes(&heard[from..], key) {
                        qualified = true;
                        scopes.clear();
                    }
                }
                if scopes.is_empty() {
                    heard.clear();
                }
                if let Some((_, start)) = candidate.filter(|c| c.0 == depth) {
                    if qualified {
                        out.emit(&src, start..src.end())?;
                    }
                    candidate = None;
                }
            }
            Tok::Text => {
                if !scopes.is_empty() {
                    heard.extend_from_slice(&src.text());
                }
            }
        }
    }
    out.finish(&src)
}

/// `findKeyInElm(inXML, searchElm, searchKey)` — returns `true` as soon as
/// a `search_elm` element whose content contains `search_key` is found.
///
/// * empty `search_key` — any `search_elm` element suffices;
/// * empty `search_elm` — `search_key` may appear in any element content.
///
/// The paper forbids both being empty; this implementation returns an
/// error in that case.
pub fn find_key_in_elm(
    input: &XadtValue,
    search_elm: &str,
    search_key: &str,
) -> Result<bool, FragmentError> {
    if search_elm.is_empty() && search_key.is_empty() {
        return Err(FragmentError(
            "findKeyInElm: searchElm and searchKey cannot both be empty".into(),
        ));
    }
    with_source!(input, find_key_in(search_elm, search_key))
}

fn find_key_in(
    mut src: impl Source,
    search_elm: &str,
    search_key: &str,
) -> Result<bool, FragmentError> {
    // Without a searchElm the whole fragment is in scope.
    let Some(elm) = src.resolve_optional(search_elm) else { return Ok(false) };
    if !search_key.is_empty() && !src.may_contain_text(search_key) {
        return Ok(false);
    }
    let key = search_key.as_bytes();
    let mut depth = 0usize;
    // Depth of the outermost open searchElm (recursive DTDs nest them;
    // the inner ones add nothing to the scope).
    let mut scope: Option<usize> = None;
    while let Some(tok) = src.next()? {
        match tok {
            Tok::Start => {
                if elm.is_some_and(|elm| src.is(elm)) {
                    if key.is_empty() {
                        return Ok(true);
                    }
                    scope.get_or_insert(depth);
                }
                depth += 1;
            }
            Tok::End => {
                depth -= 1;
                if scope == Some(depth) {
                    scope = None;
                }
            }
            Tok::Text => {
                let in_scope = elm.is_none() || scope.is_some();
                if in_scope && !key.is_empty() && contains_bytes(&src.text(), key) {
                    return Ok(true);
                }
            }
        }
    }
    Ok(false)
}

/// `getElmIndex(inXML, parentElm, childElm, startPos, endPos)`.
///
/// Returns the `child_elm` children of each `parent_elm` element whose
/// 1-based sibling position *among the `child_elm` children of that parent*
/// lies in `start_pos..=end_pos`. With an empty `parent_elm` the top level
/// of the fragment is the parent (paper: "childElm is treated as the root
/// element in the XADT"). `child_elm` must be non-empty.
pub fn get_elm_index(
    input: &XadtValue,
    parent_elm: &str,
    child_elm: &str,
    start_pos: u32,
    end_pos: u32,
) -> Result<XadtValue, FragmentError> {
    if child_elm.is_empty() {
        return Err(FragmentError("getElmIndex: childElm cannot be empty".into()));
    }
    with_source!(input, get_elm_index_in(parent_elm, child_elm, start_pos..=end_pos))
}

fn get_elm_index_in(
    mut src: impl Source,
    parent_elm: &str,
    child_elm: &str,
    positions: std::ops::RangeInclusive<u32>,
) -> Result<XadtValue, FragmentError> {
    let (Some(child), Some(parent)) = (src.resolve(child_elm), src.resolve_optional(parent_elm))
    else {
        return plain_value(&[]);
    };
    let mut out = Emitter::new();
    let mut depth = 0usize;
    // The open parentElm scopes, as (depth of their children, childElm
    // children seen so far). Without a parentElm the top level is the one
    // scope.
    let mut scopes: Vec<(usize, u32)> = Vec::new();
    if parent.is_none() {
        scopes.push((0, 0));
    }
    // The matched child being copied: its depth and start offset.
    let mut capture: Option<(usize, usize)> = None;

    while let Some(tok) = src.next()? {
        match tok {
            Tok::Start => {
                if capture.is_none() {
                    if let Some(scope) = scopes.last_mut().filter(|s| s.0 == depth) {
                        if src.is(child) {
                            scope.1 += 1;
                            if positions.contains(&scope.1) {
                                capture = Some((depth, src.start()));
                            }
                        }
                    }
                    // A captured subtree is copied verbatim: elements
                    // inside it are never counted, so a captured element
                    // opens no scope either.
                    if capture.is_none() && parent.is_some_and(|parent| src.is(parent)) {
                        scopes.push((depth + 1, 0));
                    }
                }
                depth += 1;
            }
            Tok::End => {
                depth -= 1;
                match capture {
                    Some((at, start)) => {
                        if depth == at {
                            out.emit(&src, start..src.end())?;
                            capture = None;
                        }
                    }
                    None => {
                        if parent.is_some() && scopes.last().is_some_and(|s| s.0 == depth + 1) {
                            scopes.pop();
                        }
                    }
                }
            }
            Tok::Text => {}
        }
    }
    out.finish(&src)
}

/// Count the elements named `elm` in the fragment (any depth; all
/// occurrences, including nested ones). One of the "more specialized
/// methods" §3.4.2 anticipates.
pub fn count_elm(input: &XadtValue, elm: &str) -> Result<i64, FragmentError> {
    if elm.is_empty() {
        return Err(FragmentError("countElm: elm cannot be empty".into()));
    }
    with_source!(input, count_elm_in(elm))
}

fn count_elm_in(mut src: impl Source, elm: &str) -> Result<i64, FragmentError> {
    let Some(elm) = src.resolve(elm) else { return Ok(0) };
    let mut n = 0;
    while let Some(tok) = src.next()? {
        if tok == Tok::Start && src.is(elm) {
            n += 1;
        }
    }
    Ok(n)
}

/// The value of attribute `attr` on the first `elm` element, if any.
/// Another §3.4.2-style specialized method (e.g. reading
/// `AuthorPosition` without leaving the fragment).
pub fn get_attr(input: &XadtValue, elm: &str, attr: &str) -> Result<Option<String>, FragmentError> {
    if elm.is_empty() || attr.is_empty() {
        return Err(FragmentError("getAttr: elm and attr must be non-empty".into()));
    }
    with_source!(input, get_attr_in(elm, attr))
}

fn get_attr_in(
    mut src: impl Source,
    elm: &str,
    attr: &str,
) -> Result<Option<String>, FragmentError> {
    let Some(elm) = src.resolve(elm) else { return Ok(None) };
    while let Some(tok) = src.next()? {
        if tok == Tok::Start && src.is(elm) {
            if let Some(value) = src.attr(attr)? {
                return Ok(Some(value));
            }
        }
    }
    Ok(None)
}

/// Concatenated text content of the whole fragment. Not in the paper's
/// method list, but §3.4.2 explicitly allows "more specialized methods";
/// the SIGMOD aggregation queries use it to group XADT fragments by their
/// text (mirroring the Hybrid schema's `*_value` columns).
pub fn text_content(input: &XadtValue) -> Result<String, FragmentError> {
    with_source!(input, text_content_in())
}

fn text_content_in(mut src: impl Source) -> Result<String, FragmentError> {
    let mut out = Vec::new();
    while let Some(tok) = src.next()? {
        if tok == Tok::Text {
            out.extend_from_slice(&src.text());
        }
    }
    String::from_utf8(out).map_err(|_| FragmentError("text not utf-8".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(s: &str) -> XadtValue {
        XadtValue::plain(s)
    }

    fn compressed(s: &str) -> XadtValue {
        XadtValue::compressed(s).unwrap()
    }

    const LINES: &str = "<LINE>O my friend</LINE><LINE>farewell <STAGEDIR>Rising</STAGEDIR></LINE><LINE>to arms</LINE>";

    #[test]
    fn get_elm_filters_by_key() {
        for v in [plain(LINES), compressed(LINES)] {
            let r = get_elm(&v, "LINE", "LINE", "friend", None).unwrap();
            assert_eq!(r.to_plain(), "<LINE>O my friend</LINE>");
        }
    }

    #[test]
    fn get_elm_root_equals_search_elm() {
        // The paper's QE1 uses getElm(speech_line, 'LINE', 'LINE', 'friend'):
        // root and search element coincide; the root's own content counts.
        // Our semantics require searchElm strictly below root, so when the
        // names coincide we treat the root itself as its own search scope.
        let v = plain("<LINE>my friend</LINE>");
        let r = get_elm(&v, "LINE", "LINE", "friend", None).unwrap();
        assert_eq!(r.to_plain(), "<LINE>my friend</LINE>");
    }

    #[test]
    fn get_elm_nested_search() {
        let frag = "<SPEECH><SPEAKER>A</SPEAKER><LINE>hello</LINE></SPEECH><SPEECH><SPEAKER>B</SPEAKER></SPEECH>";
        let r = get_elm(&plain(frag), "SPEECH", "LINE", "", None).unwrap();
        assert_eq!(r.to_plain(), "<SPEECH><SPEAKER>A</SPEAKER><LINE>hello</LINE></SPEECH>");
    }

    #[test]
    fn get_elm_empty_search_elm_returns_all_roots() {
        let r = get_elm(&plain(LINES), "LINE", "", "ignored", None).unwrap();
        assert_eq!(r.to_plain(), LINES);
    }

    #[test]
    fn get_elm_respects_level() {
        let frag = "<a><b><c>deep</c></b></a>";
        // c is 2 levels below a.
        let hit = get_elm(&plain(frag), "a", "c", "", Some(2)).unwrap();
        assert_eq!(hit.to_plain(), frag);
        let miss = get_elm(&plain(frag), "a", "c", "", Some(1)).unwrap();
        assert!(miss.to_plain().is_empty());
    }

    #[test]
    fn get_elm_empty_root_uses_top_level() {
        let frag = "<x><y>k</y></x><z>no</z>";
        let r = get_elm(&plain(frag), "", "y", "k", None).unwrap();
        assert_eq!(r.to_plain(), "<x><y>k</y></x>");
    }

    #[test]
    fn get_elm_composes() {
        // QG1 shape: aTuple with matching title, then extract authors.
        let frag = "<aTuple><title>On Joins</title><authors><author>X</author><author>Y</author></authors></aTuple><aTuple><title>Other</title><authors><author>Z</author></authors></aTuple>";
        let tuples = get_elm(&plain(frag), "aTuple", "title", "Join", None).unwrap();
        let authors = get_elm(&tuples, "author", "", "", None).unwrap();
        assert_eq!(authors.to_plain(), "<author>X</author><author>Y</author>");
    }

    #[test]
    fn find_key_in_elm_basic() {
        for v in [plain(LINES), compressed(LINES)] {
            assert!(find_key_in_elm(&v, "LINE", "friend").unwrap());
            assert!(find_key_in_elm(&v, "LINE", "nope").is_ok_and(|b| !b));
            assert!(find_key_in_elm(&v, "STAGEDIR", "Rising").unwrap());
            assert!(find_key_in_elm(&v, "STAGEDIR", "").unwrap());
            assert!(!find_key_in_elm(&v, "NOPE", "").unwrap());
            assert!(find_key_in_elm(&v, "", "arms").unwrap());
        }
    }

    #[test]
    fn find_key_requires_key_inside_element() {
        let frag = "<a>outside</a><b>inside</b>";
        assert!(!find_key_in_elm(&plain(frag), "b", "outside").unwrap());
        assert!(find_key_in_elm(&plain(frag), "b", "inside").unwrap());
    }

    #[test]
    fn find_key_both_empty_is_error() {
        assert!(find_key_in_elm(&plain(LINES), "", "").is_err());
    }

    #[test]
    fn find_key_matches_nested_text() {
        // Key sits inside a nested STAGEDIR but we search LINE content.
        assert!(find_key_in_elm(&plain(LINES), "LINE", "Rising").unwrap());
    }

    #[test]
    fn get_elm_index_top_level() {
        for v in [plain(LINES), compressed(LINES)] {
            let second = get_elm_index(&v, "", "LINE", 2, 2).unwrap();
            assert_eq!(second.to_plain(), "<LINE>farewell <STAGEDIR>Rising</STAGEDIR></LINE>");
            let range = get_elm_index(&v, "", "LINE", 2, 3).unwrap();
            assert!(range.to_plain().ends_with("<LINE>to arms</LINE>"));
        }
    }

    #[test]
    fn get_elm_index_with_parent() {
        let frag = "<authors><author>A</author><author>B</author></authors><authors><author>C</author><author>D</author></authors>";
        let r = get_elm_index(&plain(frag), "authors", "author", 2, 2).unwrap();
        assert_eq!(r.to_plain(), "<author>B</author><author>D</author>");
    }

    #[test]
    fn get_elm_index_counts_only_named_children() {
        let frag = "<p><x/><c>1</c><x/><c>2</c></p>";
        let r = get_elm_index(&plain(frag), "p", "c", 2, 2).unwrap();
        assert_eq!(r.to_plain(), "<c>2</c>");
    }

    #[test]
    fn get_elm_index_ignores_grandchildren() {
        let frag = "<p><w><c>deep</c></w><c>direct</c></p>";
        let r = get_elm_index(&plain(frag), "p", "c", 1, 9).unwrap();
        assert_eq!(r.to_plain(), "<c>direct</c>");
    }

    #[test]
    fn get_elm_index_empty_child_is_error() {
        assert!(get_elm_index(&plain(LINES), "", "", 1, 1).is_err());
    }

    #[test]
    fn text_content_concatenates() {
        assert_eq!(text_content(&plain(LINES)).unwrap(), "O my friendfarewell Risingto arms");
    }

    #[test]
    fn count_elm_counts_all_depths() {
        let frag = "<a><b/><b><b/></b></a><b/>";
        for v in [plain(frag), compressed(frag)] {
            assert_eq!(count_elm(&v, "b").unwrap(), 4);
            assert_eq!(count_elm(&v, "a").unwrap(), 1);
            assert_eq!(count_elm(&v, "z").unwrap(), 0);
        }
        assert!(count_elm(&plain(frag), "").is_err());
    }

    #[test]
    fn get_attr_returns_first_match() {
        let frag = r#"<author AuthorPosition="1">A</author><author AuthorPosition="2">B</author>"#;
        for v in [plain(frag), compressed(frag)] {
            assert_eq!(get_attr(&v, "author", "AuthorPosition").unwrap(), Some("1".to_string()));
            assert_eq!(get_attr(&v, "author", "nope").unwrap(), None);
            assert_eq!(get_attr(&v, "title", "x").unwrap(), None);
        }
    }

    #[test]
    fn methods_preserve_attributes() {
        let frag = r#"<author AuthorPosition="2">Bob</author>"#;
        let r = get_elm(&plain(frag), "author", "", "", None).unwrap();
        assert_eq!(r.to_plain(), frag);
        let c = compressed(frag);
        let r2 = get_elm(&c, "author", "", "", None).unwrap();
        assert_eq!(r2.to_plain(), frag);
    }
}
