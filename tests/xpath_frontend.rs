//! End-to-end test of the XPath → SQL frontend (the paper's future-work
//! extension): the same XPath compiled against both schemas must select
//! equivalent answers from loaded databases.

use ordb::Database;
use xmlkit::dtd::parse_dtd;
use xorator::prelude::*;

fn corpus() -> Vec<String> {
    (0..5)
        .map(|i| {
            format!(
                "<PLAY><ACT><SCENE><TITLE>opening</TITLE>\
                 <SPEECH><SPEAKER>ROMEO</SPEAKER>\
                 <LINE>o my love {i}</LINE><LINE>speak again</LINE></SPEECH>\
                 <SPEECH><SPEAKER>JULIET</SPEAKER><LINE>good night {i}</LINE>\
                 <LINE>parting is sorrow</LINE><LINE>my love returns</LINE></SPEECH>\
                 </SCENE>\
                 <TITLE>ACT {i}</TITLE>\
                 <SPEECH><SPEAKER>CHORUS</SPEAKER><LINE>two households</LINE></SPEECH>\
                 </ACT></PLAY>"
            )
        })
        .collect()
}

struct Env {
    hybrid: Database,
    xorator: Database,
    hmap: xorator::schema::Mapping,
    xmap: xorator::schema::Mapping,
}

fn setup() -> Env {
    let simple = simplify(&parse_dtd(xorator::dtds::PLAYS_DTD).unwrap());
    let hmap = map_hybrid(&simple);
    let xmap = map_xorator(&simple);
    // Every test of this binary calls setup(), on parallel threads: one
    // directory per call.
    static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xorator-it-xpath-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let hybrid = Database::open(dir.join("h")).unwrap();
    let xorator = Database::open(dir.join("x")).unwrap();
    let docs = corpus();
    load_corpus(&hybrid, &hmap, &docs, LoadOptions::default()).unwrap();
    load_corpus(&xorator, &xmap, &docs, LoadOptions::default()).unwrap();
    Env { hybrid, xorator, hmap, xmap }
}

/// Count the logical matches of an XPath result: scalar rows count as 1
/// each; XADT fragment rows count their `tag` elements.
fn logical_count(r: &ordb::QueryResult, tag: &str) -> usize {
    let mut n = 0;
    for row in &r.rows {
        match &row[0] {
            ordb::Value::Xadt(f) => n += xadt::unnest(f, tag).unwrap().len(),
            ordb::Value::Null => {}
            _ => n += 1,
        }
    }
    n
}

#[test]
fn same_xpath_same_answers() {
    let env = setup();
    let cases = [
        ("/PLAY/ACT/SCENE/SPEECH[SPEAKER='ROMEO']/LINE[contains(.,'love')]", "LINE"),
        ("/PLAY/ACT/SCENE/SPEECH/LINE[2]", "LINE"),
        ("/PLAY/ACT/TITLE", "TITLE"),
        ("/PLAY/ACT/SCENE/SPEECH[SPEAKER='JULIET']", "SPEECH"),
    ];
    for (path, tag) in cases {
        let ch = compile_xpath(&env.hmap, path).unwrap();
        let cx = compile_xpath(&env.xmap, path).unwrap();
        let h =
            env.hybrid.query(&ch.sql).unwrap_or_else(|e| panic!("{path} hybrid: {e}\n{}", ch.sql));
        let x = env
            .xorator
            .query(&cx.sql)
            .unwrap_or_else(|e| panic!("{path} xorator: {e}\n{}", cx.sql));
        let (hn, xn) = (logical_count(&h, tag), logical_count(&x, tag));
        assert_eq!(hn, xn, "{path}\nhybrid SQL: {}\nxorator SQL: {}", ch.sql, cx.sql);
        assert!(hn > 0, "{path} should match something");
    }
}

#[test]
fn keyword_line_query_matches_hand_written_qe1_shape() {
    let env = setup();
    let path = "/PLAY/ACT/SCENE/SPEECH[SPEAKER='ROMEO']/LINE[contains(.,'love')]";
    let cx = compile_xpath(&env.xmap, path).unwrap();
    // The generated SQL uses the paper's translation patterns.
    assert!(cx.sql.contains("findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1"));
    assert!(cx.sql.contains("getElm("));
    let r = env.xorator.query(&cx.sql).unwrap();
    // 5 plays × ROMEO speech with one 'love' line... plus JULIET's 'my
    // love returns' is not selected (different speaker).
    assert_eq!(logical_count(&r, "LINE"), 5);
}

#[test]
fn positional_xpath_counts_match_schema_semantics() {
    let env = setup();
    let path = "/PLAY/ACT/SCENE/SPEECH/LINE[2]";
    let ch = compile_xpath(&env.hmap, path).unwrap();
    let h = env.hybrid.query(&ch.sql).unwrap();
    // Two speeches with ≥2 lines per scene × 5 plays.
    assert_eq!(h.len(), 10);
}
