//! Cross-crate integration: the full Shakespeare pipeline — generate
//! (datagen) → parse (xmlkit) → map (xorator) → load (ordb) → query both
//! dialects — asserting the two mappings return *equivalent answers*.

use datagen::ShakespeareConfig;
use ordb::{Database, Value};
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;

struct Env {
    hybrid: Database,
    xorator: Database,
}

fn setup() -> Env {
    let docs = datagen::generate_shakespeare(&ShakespeareConfig { plays: 4, ..Default::default() });
    let simple = simplify(&parse_dtd(xorator::dtds::SHAKESPEARE_DTD).unwrap());
    let queries = shakespeare_queries();
    let workload: Vec<&str> = queries.iter().flat_map(|q| [q.hybrid, q.xorator]).collect();
    // Every test of this binary calls setup(), on parallel threads: one
    // directory per call.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xorator-it-shak-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut dbs = Vec::new();
    for (name, mapping) in [("hybrid", map_hybrid(&simple)), ("xorator", map_xorator(&simple))] {
        let db = Database::open(dir.join(name)).unwrap();
        load_corpus(&db, &mapping, &docs, LoadOptions::default()).unwrap();
        advise_and_apply(&db, &mapping, &workload).unwrap();
        db.runstats_all().unwrap();
        dbs.push(db);
    }
    let xorator = dbs.pop().unwrap();
    let hybrid = dbs.pop().unwrap();
    Env { hybrid, xorator }
}

#[test]
fn table_counts_match_paper_table_1() {
    let env = setup();
    assert_eq!(env.hybrid.table_count(), 17);
    assert_eq!(env.xorator.table_count(), 7);
    // Database + index sizes: XORator strictly smaller (paper Table 1).
    let hd = env.hybrid.data_size_bytes().unwrap();
    let xd = env.xorator.data_size_bytes().unwrap();
    assert!(xd < hd, "XORator data {xd} must be < Hybrid {hd}");
    let hi = env.hybrid.index_size_bytes().unwrap();
    let xi = env.xorator.index_size_bytes().unwrap();
    assert!(xi < hi / 2, "XORator index {xi} must be well below Hybrid {hi}");
}

#[test]
fn qs_queries_agree_between_dialects() {
    let env = setup();
    let queries = shakespeare_queries();
    // Row-for-row comparable queries.
    for id in ["QS1", "QS4", "QS5", "QS6"] {
        let q = queries.iter().find(|q| q.id == id).unwrap();
        let h = env.hybrid.query(q.hybrid).unwrap();
        let x = env.xorator.query(q.xorator).unwrap();
        assert_eq!(h.len(), x.len(), "{id} cardinality");
        assert!(!h.is_empty(), "{id} must select something");
    }
}

#[test]
fn qs2_fragment_totals_match_hybrid_rows() {
    // QS2 groups matching lines per speech on the XORator side; the
    // total number of LINE elements across fragments must equal the
    // number of Hybrid result rows.
    let env = setup();
    let q = shakespeare_queries().into_iter().find(|q| q.id == "QS2").unwrap();
    let h = env.hybrid.query(q.hybrid).unwrap();
    let x = env.xorator.query(q.xorator).unwrap();
    let mut total_lines = 0;
    for row in &x.rows {
        let frag = row[0].as_xadt().expect("xadt output");
        total_lines += xadt::unnest(frag, "LINE").unwrap().len();
    }
    assert_eq!(total_lines, h.len(), "QS2 line totals");
}

#[test]
fn qs5_line_contents_identical() {
    let env = setup();
    let q = shakespeare_queries().into_iter().find(|q| q.id == "QS5").unwrap();
    let h = env.hybrid.query(q.hybrid).unwrap();
    let x = env.xorator.query(q.xorator).unwrap();
    // Hybrid returns the line text; XORator the <LINE> fragments. Compare
    // the multisets of text contents.
    let mut hv: Vec<String> = h.rows.iter().map(|r| r[0].as_str().unwrap().to_string()).collect();
    let mut xv: Vec<String> = Vec::new();
    for row in &x.rows {
        let frag = row[0].as_xadt().unwrap();
        for line in xadt::unnest(frag, "LINE").unwrap() {
            xv.push(direct_text(&line));
        }
    }
    hv.sort();
    xv.sort();
    assert_eq!(hv, xv);
}

/// Text directly inside the fragment's root element, excluding nested
/// elements — Hybrid's `line_value` semantics for mixed content (nested
/// STAGEDIR text lives in the stagedir table there).
fn direct_text(frag: &xadt::XadtValue) -> String {
    let mut events = frag.events().unwrap();
    let mut depth = 0usize;
    let mut out = String::new();
    while let Some(ev) = events.next().unwrap() {
        match ev {
            xadt::Event::Start { .. } => depth += 1,
            xadt::Event::End { .. } => depth -= 1,
            xadt::Event::Text(t) => {
                if depth == 1 {
                    out.push_str(&t);
                }
            }
        }
    }
    out
}

#[test]
fn qe_examples_round_trip() {
    let env = setup();
    // QE2 over the full Shakespeare schema: second line of every speech.
    let h = env
        .hybrid
        .query(
            "SELECT line_value FROM speech, line \
             WHERE line_parentID = speechID AND line_childOrder = 2",
        )
        .unwrap();
    let x =
        env.xorator.query("SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech").unwrap();
    // Every XORator row is one speech; non-empty fragments must equal the
    // Hybrid row count.
    let nonempty =
        x.rows.iter().filter(|r| matches!(&r[0], Value::Xadt(f) if !f.is_empty())).count();
    assert_eq!(nonempty, h.len());
}

#[test]
fn distinct_speakers_via_unnest_matches_value_table() {
    let env = setup();
    let h = env.hybrid.query("SELECT DISTINCT speaker_value FROM speaker").unwrap();
    let x = env
        .xorator
        .query(
            "SELECT DISTINCT xtext(u.out) \
             FROM speech, TABLE(unnest(speech_speaker, 'SPEAKER')) u",
        )
        .unwrap();
    let norm = |r: &ordb::QueryResult| {
        let mut v: Vec<String> =
            r.rows.iter().map(|row| row[0].as_str().unwrap().to_string()).collect();
        v.sort();
        v
    };
    assert_eq!(norm(&h), norm(&x));
}
