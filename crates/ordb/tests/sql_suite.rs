//! Broad SQL conformance suite for the engine: expression semantics,
//! predicate pushdown correctness, joins, aggregation, lateral table
//! functions, NULL handling, and error reporting.

use ordb::{Database, QueryResult, Row, Value};

fn db(tag: &str) -> Database {
    let dir = std::env::temp_dir().join(format!("ordb-suite-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Database::open(&dir).unwrap()
}

fn ints(r: &QueryResult) -> Vec<i64> {
    r.rows.iter().map(|row| row[0].as_int().unwrap()).collect()
}

fn setup_nums(db: &Database) {
    db.execute("CREATE TABLE nums (n INTEGER, s VARCHAR)").unwrap();
    let rows: Vec<Row> = (1..=10)
        .map(|i| {
            vec![Value::Int(i), if i % 3 == 0 { Value::Null } else { Value::str(format!("s{i}")) }]
        })
        .collect();
    db.insert_rows("nums", rows).unwrap();
}

#[test]
fn arithmetic_expressions() {
    let d = db("arith");
    setup_nums(&d);
    let r = d.query("SELECT n * 2 + 1 FROM nums WHERE n <= 3 ORDER BY n").unwrap();
    assert_eq!(ints(&r), [3, 5, 7]);
    // Precedence: 2 + 3 * 4 = 14, (2 + 3) * 4 = 20.
    let r = d.query("SELECT 2 + 3 * 4 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(14)));
    let r = d.query("SELECT (2 + 3) * 4 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(20)));
    // Division, modulo, and their zero errors.
    let r = d.query("SELECT 17 / 5, 17 % 5 FROM nums LIMIT 1").unwrap();
    assert_eq!(r.rows[0], vec![Value::Int(3), Value::Int(2)]);
    assert!(d.query("SELECT 1 / 0 FROM nums LIMIT 1").is_err());
    assert!(d.query("SELECT 1 % 0 FROM nums LIMIT 1").is_err());
    // NULL propagation.
    // n > 5 gives 6..=10; s is NULL at 6 and 9, leaving 7, 8, 10.
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n + 0 > 5 AND s IS NOT NULL").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(3)));
}

#[test]
fn arithmetic_in_predicates_and_aggregates() {
    let d = db("arith2");
    setup_nums(&d);
    let r = d.query("SELECT SUM(n * n) FROM nums").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(385)));
    let r = d.query("SELECT n FROM nums WHERE n % 2 = 0 ORDER BY n DESC").unwrap();
    assert_eq!(ints(&r), [10, 8, 6, 4, 2]);
}

#[test]
fn null_three_valued_logic() {
    let d = db("nulls");
    setup_nums(&d);
    // s = 'x' is UNKNOWN for NULL s: those rows are excluded both ways.
    let eq = d.query("SELECT COUNT(*) FROM nums WHERE s = 's1'").unwrap();
    let ne = d.query("SELECT COUNT(*) FROM nums WHERE NOT s = 's1'").unwrap();
    let (a, b) = (eq.scalar().unwrap().as_int().unwrap(), ne.scalar().unwrap().as_int().unwrap());
    assert_eq!(a, 1);
    assert_eq!(b, 6); // 10 rows - 3 NULLs - 1 match
    let isnull = d.query("SELECT COUNT(*) FROM nums WHERE s IS NULL").unwrap();
    assert_eq!(isnull.scalar(), Some(&Value::Int(3)));
}

#[test]
fn min_max_and_count_distinct() {
    let d = db("minmax");
    d.execute("CREATE TABLE t (g VARCHAR, v INTEGER)").unwrap();
    d.execute("INSERT INTO t VALUES ('a', 3), ('a', 1), ('a', 3), ('b', 7), ('b', NULL)").unwrap();
    let r = d
        .query("SELECT g, MIN(v), MAX(v), COUNT(DISTINCT v) FROM t GROUP BY g ORDER BY g")
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("a"), Value::Int(1), Value::Int(3), Value::Int(2)],
            vec![Value::str("b"), Value::Int(7), Value::Int(7), Value::Int(1)],
        ]
    );
}

#[test]
fn order_by_aggregate_output() {
    let d = db("orderagg");
    d.execute("CREATE TABLE t (g VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES ('x'), ('y'), ('y'), ('z'), ('y'), ('z')").unwrap();
    let r = d.query("SELECT g, COUNT(*) FROM t GROUP BY g ORDER BY COUNT(*) DESC, g").unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("y"), Value::Int(3)],
            vec![Value::str("z"), Value::Int(2)],
            vec![Value::str("x"), Value::Int(1)],
        ]
    );
}

#[test]
fn three_way_join_with_aliases() {
    let d = db("threeway");
    d.execute("CREATE TABLE a (aid INTEGER)").unwrap();
    d.execute("CREATE TABLE b (bid INTEGER, b_a INTEGER)").unwrap();
    d.execute("CREATE TABLE c (cid INTEGER, c_b INTEGER)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2)").unwrap();
    d.execute("INSERT INTO b VALUES (10, 1), (11, 1), (12, 2)").unwrap();
    d.execute("INSERT INTO c VALUES (100, 10), (101, 11), (102, 12), (103, 12)").unwrap();
    let r = d
        .query(
            "SELECT x.aid, z.cid FROM a x, b y, c z \
             WHERE y.b_a = x.aid AND z.c_b = y.bid ORDER BY z.cid",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(1), Value::Int(100)],
            vec![Value::Int(1), Value::Int(101)],
            vec![Value::Int(2), Value::Int(102)],
            vec![Value::Int(2), Value::Int(103)],
        ]
    );
}

#[test]
fn cross_join_without_predicate() {
    let d = db("cross");
    d.execute("CREATE TABLE a (x INTEGER)").unwrap();
    d.execute("CREATE TABLE b (y INTEGER)").unwrap();
    d.execute("INSERT INTO a VALUES (1), (2), (3)").unwrap();
    d.execute("INSERT INTO b VALUES (10), (20)").unwrap();
    let r = d.query("SELECT x, y FROM a, b").unwrap();
    let mut rows = r.rows.clone();
    rows.sort();
    let expected: Vec<Vec<Value>> = [(1, 10), (1, 20), (2, 10), (2, 20), (3, 10), (3, 20)]
        .iter()
        .map(|&(x, y)| vec![Value::Int(x), Value::Int(y)])
        .collect();
    assert_eq!(rows, expected);
}

#[test]
fn self_join_via_aliases() {
    let d = db("selfjoin");
    d.execute("CREATE TABLE e (id INTEGER, boss INTEGER)").unwrap();
    d.execute("INSERT INTO e VALUES (1, NULL), (2, 1), (3, 1), (4, 2)").unwrap();
    let r = d
        .query(
            "SELECT sub.id, sup.id FROM e sub, e sup \
             WHERE sub.boss = sup.id ORDER BY sub.id",
        )
        .unwrap();
    // NULL boss joins nothing; full ordered comparison.
    assert_eq!(
        r.rows,
        vec![
            vec![Value::Int(2), Value::Int(1)],
            vec![Value::Int(3), Value::Int(1)],
            vec![Value::Int(4), Value::Int(2)],
        ]
    );
}

#[test]
fn ambiguous_and_unknown_columns_error() {
    let d = db("errors");
    d.execute("CREATE TABLE a (x INTEGER)").unwrap();
    d.execute("CREATE TABLE b (x INTEGER)").unwrap();
    assert!(d.query("SELECT x FROM a, b").is_err(), "ambiguous");
    assert!(d.query("SELECT nope FROM a").is_err(), "unknown column");
    assert!(d.query("SELECT x FROM nope").is_err(), "unknown table");
    assert!(d.query("SELECT x FROM a, a").is_err(), "duplicate alias");
    assert!(d.query("SELECT unknown_fn(x) FROM a").is_err(), "unknown function");
    assert!(d.execute("CREATE TABLE w (a INTEGER, A VARCHAR)").is_err(), "duplicate column");
    assert!(d.query("SELECT a FROM w").is_err(), "the rejected table was not created");
}

#[test]
fn distinct_over_multiple_columns() {
    let d = db("distinct2");
    d.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES (1,'x'), (1,'x'), (1,'y'), (2,'x')").unwrap();
    let r = d.query("SELECT DISTINCT a, b FROM t").unwrap();
    let mut rows = r.rows.clone();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            vec![Value::Int(1), Value::Str("x".into())],
            vec![Value::Int(1), Value::Str("y".into())],
            vec![Value::Int(2), Value::Str("x".into())],
        ]
    );
}

#[test]
fn lateral_unnest_chains() {
    let d = db("lateral2");
    d.execute("CREATE TABLE docs (body XADT)").unwrap();
    d.execute(
        "INSERT INTO docs VALUES \
         ('<s><p><w>alpha</w><w>beta</w></p><p><w>gamma</w></p></s>')",
    )
    .unwrap();
    // Chain: unnest paragraphs, then words of each paragraph.
    let r = d
        .query(
            "SELECT xtext(w.out) FROM docs, \
             TABLE(unnest(body, 'p')) p, TABLE(unnest(p.out, 'w')) w",
        )
        .unwrap();
    let words: Vec<&str> = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect();
    assert_eq!(words, ["alpha", "beta", "gamma"]);
    // Predicates over lateral outputs apply as filters.
    let r = d
        .query(
            "SELECT COUNT(*) FROM docs, TABLE(unnest(body, 'p')) p \
             WHERE countElm(p.out, 'w') = 2",
        )
        .unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(1)));
}

/// Three sections, the last without any `w`: the lateral-carry fixture.
fn setup_sections(d: &Database) {
    d.execute("CREATE TABLE docs (id INTEGER, body XADT, e VARCHAR, k VARCHAR)").unwrap();
    d.execute(
        "INSERT INTO docs VALUES \
         (1, '<s><n>one</n><w>a</w><w>b</w><w>c</w></s>', 'w', 'a'), \
         (2, '<s><n>two</n><w>d</w></s>', 'w', 'zz'), \
         (3, '<s><n>none</n></s>', '', '')",
    )
    .unwrap();
}

fn udf_calls(d: &Database, name: &str) -> u64 {
    d.udf_counters().iter().find(|c| c.name == name).map_or(0, |c| c.calls)
}

/// QG2's shape: a select-list call over the outer lateral's output only
/// runs once per outer row that has inner rows, not once per inner row.
#[test]
fn lateral_carry_runs_outer_only_calls_once_per_outer_row() {
    let d = db("carry");
    setup_sections(&d);
    let sql = "SELECT id, xtext(w.out), getElm(s.out, 'n', '', '') \
               FROM docs, TABLE(unnest(body, 's')) s, \
                    TABLE(unnest(getElm(s.out, 'w', '', ''), 'w')) w";
    let plan = d.explain(sql).unwrap();
    assert!(
        plan.iter().any(|l| l == "lateral unnest w carrying getElm(s.out, 'n', '', '')"),
        "{plan:?}"
    );
    assert!(plan.iter().any(|l| l == "lateral unnest s"), "{plan:?}");

    let (get_elm, xtext) = (udf_calls(&d, "getElm"), udf_calls(&d, "xtext"));
    let carried = d.query(sql).unwrap();
    // getElm: 3 unnest arguments (one per section) + 2 carried (sections
    // 1 and 2; section 3 has no inner row). Uncarried it would be 3 + 4.
    assert_eq!(udf_calls(&d, "getElm") - get_elm, 3 + 2);
    assert_eq!(udf_calls(&d, "xtext") - xtext, 4);

    // The same rows with every call evaluated right above its own unnest.
    let names = d
        .query("SELECT id, getElm(s.out, 'n', '', '') FROM docs, TABLE(unnest(body, 's')) s")
        .unwrap();
    let words = d.query("SELECT id, xtext(w.out) FROM docs, TABLE(unnest(body, 'w')) w").unwrap();
    let mut want = Vec::new();
    for name in &names.rows {
        for word in words.rows.iter().filter(|word| word[0] == name[0]) {
            want.push(vec![name[0].clone(), word[1].clone(), name[1].clone()]);
        }
    }
    assert_eq!(carried.rows, want);
    assert_eq!(carried.rows.len(), 4);
    assert_eq!(carried.rows[3][2].as_xadt().unwrap().to_plain(), "<n>two</n>");
}

/// The carried call runs where the plan reads it: an outer row that
/// unnests to nothing evaluates — and so raises — nothing.
#[test]
fn lateral_carry_skips_outer_rows_without_inner_rows() {
    let d = db("carry-lazy");
    setup_sections(&d);
    // Row 3 passes two empty strings, which findKeyInElm rejects…
    assert!(d.query("SELECT findKeyInElm(body, e, k) FROM docs").is_err());
    // …but row 3 has no `w`, so the carried call never runs for it.
    let sql = "SELECT xtext(w.out), findKeyInElm(body, e, k) \
               FROM docs, TABLE(unnest(body, 'w')) w";
    assert!(d.explain(sql).unwrap().iter().any(|l| l.contains("carrying findKeyInElm(")));
    let before = udf_calls(&d, "findKeyInElm");
    let r = d.query(sql).unwrap();
    assert_eq!(udf_calls(&d, "findKeyInElm") - before, 2);
    let flags: Vec<i64> = r.rows.iter().map(|row| row[1].as_int().unwrap()).collect();
    assert_eq!(flags, [1, 1, 1, 0]);
}

/// Nor does an outer row whose inner rows a filter on the inner alias
/// (or an empty later unnest) removes: the carried call runs above those,
/// exactly where the uncarried plan ran it, never more often.
#[test]
fn lateral_carry_evaluates_above_inner_filters() {
    let d = db("carry-filter");
    d.execute("CREATE TABLE docs (id INTEGER, body XADT, e VARCHAR, k VARCHAR)").unwrap();
    d.execute(
        "INSERT INTO docs VALUES \
         (1, '<s><w>a</w><w>b</w><w>a</w></s>', 'w', 'a'), \
         (2, '<s><w>d</w></s>', 'w', 'zz'), \
         (3, '<s><w>q</w></s>', '', '')",
    )
    .unwrap();
    // Row 3's arguments make findKeyInElm raise, row 2 has no 'a'.
    let sql = "SELECT xtext(w.out), findKeyInElm(body, e, k) \
               FROM docs, TABLE(unnest(body, 'w')) w WHERE xtext(w.out) = 'a'";
    assert!(d.explain(sql).unwrap().iter().any(|l| l.contains("carrying findKeyInElm(")));
    let before = udf_calls(&d, "findKeyInElm");
    let r = d.query(sql).unwrap();
    // Two surviving rows of one outer row: one call (uncarried: two).
    assert_eq!(udf_calls(&d, "findKeyInElm") - before, 1);
    assert_eq!(r.rows, [[Value::str("a"), Value::Int(1)], [Value::str("a"), Value::Int(1)]]);

    // The same with the filter reading the carried call itself…
    let sql = "SELECT id FROM docs, TABLE(unnest(body, 'w')) w \
               WHERE xtext(w.out) <> 'q' \
                 AND (findKeyInElm(body, e, k) = 1 OR xtext(w.out) = 'd')";
    let before = udf_calls(&d, "findKeyInElm");
    assert_eq!(ints(&d.query(sql).unwrap()), [1, 1, 1, 2]);
    assert_eq!(udf_calls(&d, "findKeyInElm") - before, 2);

    // …and with the inner rows lost to a later unnest that finds nothing.
    let sql = "SELECT findKeyInElm(body, e, k) FROM docs, \
               TABLE(unnest(body, 's')) s, TABLE(unnest(s.out, 'b')) b";
    assert!(d.explain(sql).unwrap().iter().any(|l| l.contains("unnest s carrying findKeyInElm(")));
    let before = udf_calls(&d, "findKeyInElm");
    assert!(d.query(sql).unwrap().rows.is_empty());
    assert_eq!(udf_calls(&d, "findKeyInElm") - before, 0);
}

/// Carried calls serve GROUP BY keys and deferred predicates too, and
/// the ordinal they are memoized on stays invisible to `*`.
#[test]
fn lateral_carry_in_group_by_predicates_and_wildcard() {
    let d = db("carry-shapes");
    setup_sections(&d);
    let before = udf_calls(&d, "getElm");
    let r = d
        .query(
            "SELECT xtext(getElm(s.out, 'n', '', '')), COUNT(*) \
             FROM docs, TABLE(unnest(body, 's')) s, TABLE(unnest(s.out, 'w')) w \
             GROUP BY xtext(getElm(s.out, 'n', '', '')) \
             ORDER BY COUNT(*)",
        )
        .unwrap();
    assert_eq!(
        r.rows,
        [vec![Value::str("two"), Value::Int(1)], vec![Value::str("one"), Value::Int(3)]]
    );
    assert_eq!(udf_calls(&d, "getElm") - before, 2);

    let sql = "SELECT * FROM docs, TABLE(unnest(body, 's')) s, TABLE(unnest(s.out, 'w')) w \
               WHERE xtext(w.out) = k AND xtext(getElm(s.out, 'n', '', '')) <> xtext(w.out)";
    let plan = d.explain(sql).unwrap();
    assert!(
        plan.iter().any(|l| l == "lateral unnest w carrying xtext(getElm(s.out, 'n', '', ''))"),
        "{plan:?}"
    );
    let r = d.query(sql).unwrap();
    assert_eq!(r.columns, ["id", "body", "e", "k", "out", "out"]);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].len(), 6);
    assert_eq!(r.rows[0][5].as_xadt().unwrap().to_plain(), "<w>a</w>");
}

#[test]
fn get_attr_udf_in_sql() {
    let d = db("getattr");
    d.execute("CREATE TABLE t (x XADT)").unwrap();
    d.execute("INSERT INTO t VALUES ('<author AuthorPosition=\"2\">B. Field</author>')").unwrap();
    let r = d.query("SELECT getAttr(x, 'author', 'AuthorPosition') FROM t").unwrap();
    assert_eq!(r.scalar(), Some(&Value::str("2")));
}

#[test]
fn wildcard_projection_and_aliases() {
    let d = db("wildcard");
    d.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    d.execute("INSERT INTO t VALUES (1, 'x')").unwrap();
    let r = d.query("SELECT * FROM t").unwrap();
    assert_eq!(r.columns, vec!["a".to_string(), "b".to_string()]);
    let r = d.query("SELECT a AS alpha, b beta FROM t").unwrap();
    assert_eq!(r.columns, vec!["alpha".to_string(), "beta".to_string()]);
}

#[test]
fn index_scan_with_range_predicates() {
    let d = db("ranges");
    d.execute("CREATE TABLE t (k INTEGER)").unwrap();
    d.insert_rows("t", (0..1000).map(|i| vec![Value::Int(i)]).collect()).unwrap();
    d.execute("CREATE INDEX t_k ON t (k)").unwrap();
    d.runstats("t").unwrap();
    for (sql, expected) in [
        ("SELECT COUNT(*) FROM t WHERE k = 500", 1i64),
        ("SELECT COUNT(*) FROM t WHERE k < 10", 10),
        ("SELECT COUNT(*) FROM t WHERE k <= 10", 11),
        ("SELECT COUNT(*) FROM t WHERE k > 990", 9),
        ("SELECT COUNT(*) FROM t WHERE k >= 990", 10),
        ("SELECT COUNT(*) FROM t WHERE k >= 100 AND k < 200", 100),
    ] {
        let r = d.query(sql).unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(expected)), "{sql}");
    }
}

#[test]
fn like_and_not_like() {
    let d = db("like2");
    setup_nums(&d);
    let r = d.query("SELECT COUNT(*) FROM nums WHERE s LIKE 's1%'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(2))); // s1, s10
    let r = d.query("SELECT COUNT(*) FROM nums WHERE s NOT LIKE 's1%'").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(5))); // 7 non-null - 2
}

#[test]
fn limit_and_order_stability() {
    let d = db("limit2");
    setup_nums(&d);
    let r = d.query("SELECT n FROM nums ORDER BY n LIMIT 3").unwrap();
    assert_eq!(ints(&r), [1, 2, 3]);
    let r = d.query("SELECT n FROM nums ORDER BY n DESC LIMIT 0").unwrap();
    assert!(r.is_empty());
}

#[test]
fn global_aggregate_over_empty_result() {
    let d = db("emptyagg");
    setup_nums(&d);
    let r = d.query("SELECT COUNT(*), SUM(n), MIN(n) FROM nums WHERE n > 999").unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(0), Value::Null, Value::Null]]);
}

#[test]
fn in_and_between_desugar() {
    let d = db("inbetween");
    setup_nums(&d);
    let r = d.query("SELECT n FROM nums WHERE n IN (2, 4, 99) ORDER BY n").unwrap();
    assert_eq!(ints(&r), [2, 4]);
    let r = d.query("SELECT n FROM nums WHERE s IN ('s1', 's5') ORDER BY n").unwrap();
    assert_eq!(ints(&r), [1, 5]);
    let r = d.query("SELECT n FROM nums WHERE n BETWEEN 3 AND 5 ORDER BY n").unwrap();
    assert_eq!(ints(&r), [3, 4, 5]);
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n NOT BETWEEN 3 AND 5").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(7)));
    let r = d.query("SELECT COUNT(*) FROM nums WHERE n NOT IN (1, 2)").unwrap();
    assert_eq!(r.scalar(), Some(&Value::Int(8)));
    assert!(d.query("SELECT n FROM nums WHERE n IN ()").is_err());
}

// ---- scans read what the statement reads ---------------------------------

/// The SIGMOD Hybrid tables QG2 joins, a few rows each; `atuple` is the
/// wide one (13 columns, 2 of them read by QG2).
fn setup_sigmod_hybrid(d: &Database) {
    for ddl in [
        "CREATE TABLE slisttuple (slisttupleID INTEGER, slisttuple_parentID INTEGER, \
         slisttuple_childOrder INTEGER, slisttuple_sectionname VARCHAR, slisttuple_pos VARCHAR)",
        "CREATE TABLE articles (articlesID INTEGER, articles_parentID INTEGER, \
         articles_childOrder INTEGER)",
        "CREATE TABLE atuple (atupleID INTEGER, atuple_parentID INTEGER, \
         atuple_childOrder INTEGER, atuple_title VARCHAR, atuple_title_articlecode VARCHAR, \
         atuple_initpage VARCHAR, atuple_endpage VARCHAR, atuple_toindex_index VARCHAR, \
         atuple_toindex_index_xml_link VARCHAR, atuple_toindex_index_href VARCHAR, \
         atuple_fulltext_size VARCHAR, atuple_fulltext_size_xml_link VARCHAR, \
         atuple_fulltext_size_href VARCHAR)",
        "CREATE TABLE authors (authorsID INTEGER, authors_parentID INTEGER, \
         authors_childOrder INTEGER)",
        "CREATE TABLE author (authorID INTEGER, author_parentID INTEGER, \
         author_childOrder INTEGER, author_authorposition VARCHAR, author_value VARCHAR)",
        "INSERT INTO slisttuple VALUES (1, 1, 1, 'Joins', 'a'), (2, 1, 2, 'Storage', 'b')",
        "INSERT INTO articles VALUES (1, 1, 1), (2, 2, 1)",
        "INSERT INTO atuple VALUES \
         (1, 1, 1, 'Hash Join', 'c1', '1', '9', 'i', 'x', 'h', '10', 'x', 'h'), \
         (2, 2, 1, 'Slotted Pages', 'c2', '10', '19', 'i', 'x', 'h', '11', 'x', 'h')",
        "INSERT INTO authors VALUES (1, 1, 1), (2, 2, 1)",
        "INSERT INTO author VALUES (1, 1, 1, '00', 'Ada'), (2, 1, 2, '01', 'Bo'), \
         (3, 2, 1, '00', 'Cy')",
    ] {
        d.execute(ddl).unwrap();
    }
}

const QG2: &str = "SELECT author_value, slisttuple_sectionname \
     FROM slisttuple, articles, atuple, authors, author \
     WHERE articles_parentID = slisttupleID AND atuple_parentID = articlesID \
       AND authors_parentID = atupleID AND author_parentID = authorsID";

#[test]
fn explain_prints_the_columns_each_scan_decodes() {
    let d = db("live-cols");
    setup_sigmod_hybrid(&d);
    let plan = |sql: &str| d.explain(sql).unwrap().join("\n");
    let has = |sql: &str, line: &str| {
        let plan = plan(sql);
        assert!(plan.lines().any(|l| l.contains(line)), "{sql}: no {line:?} in\n{plan}");
    };
    // Nothing named, nothing decoded.
    has("SELECT COUNT(*) FROM atuple", "scan atuple (atuple) via SeqScan cols 0/13 [");
    // QG2 reads two of atuple's thirteen columns, and every hash join
    // hands on fewer columns than it was given.
    has(QG2, "scan atuple (atuple) via SeqScan cols 2/13: atupleID, atuple_parentID");
    has(QG2, "scan author (author) via SeqScan cols 2/5: author_parentID, author_value");
    let joins: Vec<String> =
        plan(QG2).lines().filter(|l| l.contains("hash join")).map(str::to_string).collect();
    assert_eq!(joins.len(), 4, "{joins:?}");
    assert!(joins.iter().all(|l| l.ends_with("emits 2/4")), "{joins:?}");
    // `*` and `alias.*` keep every column of what they name — and only
    // of that.
    has("SELECT * FROM authors", "cols 3/3: authorsID, authors_parentID, authors_childOrder");
    let star = "SELECT a.* FROM authors a, author b WHERE b.author_parentID = a.authorsID";
    has(star, "scan a (authors) via SeqScan cols 3/3");
    has(star, "scan b (author) via SeqScan cols 1/5: author_parentID");
    // Two aliases of one table, each with its own columns.
    let twins = "SELECT x.authors_childOrder FROM authors x, authors y \
                 WHERE x.authorsID = y.authors_parentID";
    has(twins, "scan x (authors) via SeqScan cols 2/3: authorsID, authors_childOrder");
    has(twins, "scan y (authors) via SeqScan cols 1/3: authors_parentID");
    // A column only the predicate names is decoded; a DML target decodes
    // its predicate's columns and nothing else.
    let filtered = "SELECT authorsID FROM authors WHERE authors_childOrder = 1";
    has(filtered, "cols 2/3: authorsID, authors_childOrder");
    has(
        "DELETE FROM author WHERE author_value = 'Bo'",
        "delete from author via SeqScan cols 1/5: author_value",
    );
    has("DELETE FROM author", "delete from author via SeqScan cols 0/5");

    // The narrow plans answer what the wide ones did.
    let mut qg2: Vec<String> =
        d.query(QG2).unwrap().rows.iter().map(|r| format!("{}/{}", r[0], r[1])).collect();
    qg2.sort();
    assert_eq!(qg2, ["Ada/Joins", "Bo/Joins", "Cy/Storage"]);
    assert_eq!(ints(&d.query(filtered).unwrap()), [1, 2]);
    assert_eq!(
        d.query(star).unwrap().columns,
        ["authorsID", "authors_parentID", "authors_childOrder"]
    );
    assert_eq!(d.query(star).unwrap().len(), 3);
    assert_eq!(ints(&d.query(twins).unwrap()), [1, 1]);
    assert_eq!(d.execute("DELETE FROM author WHERE author_value = 'Bo'").unwrap(), 1);
    assert_eq!(d.query(QG2).unwrap().len(), 2);

    // EXPLAIN ANALYZE carries the same on its operator lines.
    let analyzed = d.explain_analyze(QG2).unwrap().to_string();
    assert!(analyzed.contains("SeqScan atuple cols 2/13: atupleID, atuple_parentID"), "{analyzed}");
    assert!(analyzed.contains("HashJoin author emits 2/4"), "{analyzed}");
}

#[test]
fn star_lists_from_items_in_declaration_order_under_every_join_order() {
    let d = db("star-order");
    setup_sigmod_hybrid(&d);
    // The greedy order starts from the smaller table, the declared order
    // from `author`: the select list is the same.
    let sql = "SELECT * FROM author b, authors a WHERE b.author_parentID = a.authorsID";
    let want = [
        "authorID",
        "author_parentID",
        "author_childOrder",
        "author_authorposition",
        "author_value",
        "authorsID",
        "authors_parentID",
        "authors_childOrder",
    ];
    for declared_order in [false, true] {
        let forcing = PlanForcing { declared_order, ..Default::default() };
        let r = d.session().with_forcing(forcing).query(sql).unwrap();
        assert_eq!(r.columns, want, "declared_order={declared_order}");
        assert!(r.rows.iter().all(|row| row[1] == row[5]), "{:?}", r.rows);
    }
    let r = d
        .query(
            "SELECT a.*, b.author_value FROM author b, authors a \
                     WHERE b.author_parentID = a.authorsID",
        )
        .unwrap();
    assert_eq!(r.columns, ["authorsID", "authors_parentID", "authors_childOrder", "author_value"]);
    assert!(d.query("SELECT z.* FROM authors a").is_err());
}

#[test]
fn seq_scan_costs_a_fetch_per_page_not_per_tuple() {
    let d = db("scan-fetches");
    d.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
    // Small rows over many data pages, and K rows whose body goes to a
    // two-page overflow chain.
    const SMALL: i64 = 4_000;
    const K: u64 = 5;
    let mut rows: Vec<Row> =
        (0..SMALL).map(|i| vec![Value::Int(i), Value::str(format!("row-{i:05}"))]).collect();
    for k in 0..K as usize {
        rows.insert(500 * (k + 1), vec![Value::Int(-1), Value::str("x".repeat(10_000))]);
    }
    d.insert_rows("t", rows).unwrap();
    let pages = d.data_size_bytes().unwrap() / 8192;
    assert!(pages > 10 && pages < 100, "{pages} pages");
    for (sql, rows_out) in
        [("SELECT COUNT(*) FROM t", 1), ("SELECT a, b FROM t", SMALL as usize + 5)]
    {
        let before = d.metrics_snapshot().pool;
        assert_eq!(d.query(sql).unwrap().len(), rows_out);
        let fetches = d.metrics_snapshot().pool.since(&before).fetches();
        // Every page of the file once (a data page to read it, a chain
        // page to tell it is one); per overflow tuple its two chain pages
        // and one look back at the stub.
        assert_eq!(fetches, pages + K * 3, "{sql}");
    }
}

// ---- DELETE through the planner's access paths ---------------------------

use ordb::{ForcedAccess, PlanForcing};

fn forced(access: ForcedAccess) -> PlanForcing {
    PlanForcing { access: Some(access), ..Default::default() }
}

/// `churn(k, parent, v)` with both columns indexed, `groups` four-row
/// groups sharing a `parent` — the table `wire_txn_churn` maintains.
fn setup_churn(d: &Database, groups: i64) {
    d.execute("CREATE TABLE churn (k INTEGER, parent INTEGER, v VARCHAR)").unwrap();
    let rows: Vec<Row> = (0..groups * 4)
        .map(|k| vec![Value::Int(k), Value::Int(k / 4), Value::str(format!("payload-{k}"))])
        .collect();
    d.insert_rows("churn", rows).unwrap();
    d.execute("CREATE INDEX ix_churn_k ON churn (k)").unwrap();
    d.execute("CREATE INDEX ix_churn_parent ON churn (parent)").unwrap();
}

fn plan_text(r: &QueryResult) -> String {
    r.rows.iter().map(|row| row[0].to_string()).collect::<Vec<_>>().join("\n")
}

#[test]
fn explain_delete_prints_the_chosen_access_path() {
    let d = db("explain-delete");
    setup_churn(&d, 50);
    let churn_stmt = "DELETE FROM churn WHERE parent = 7";
    let plan = plan_text(&d.query(&format!("EXPLAIN {churn_stmt}")).unwrap());
    assert!(plan.contains("delete from churn via IndexScan(=)"), "{plan}");
    let seq = d
        .session()
        .with_forcing(forced(ForcedAccess::SeqScan))
        .query(&format!("EXPLAIN {churn_stmt}"))
        .unwrap();
    let seq = plan_text(&seq);
    assert!(seq.contains("via SeqScan") && seq.contains("access=seq"), "{seq}");
    // `explain()` takes the bare statement, like it does for SELECT.
    assert!(d.explain(churn_stmt).unwrap().join("\n").contains("IndexScan(=)"));
    for (predicate, path) in [
        ("WHERE k < 10", "IndexScan(<)"),
        ("WHERE 10 <= k", "IndexScan(>=)"),
        ("WHERE parent = 3 AND v = 'payload-12'", "IndexScan(=)"),
        ("WHERE v = 'payload-12'", "SeqScan"),
        ("WHERE parent = NULL", "SeqScan"),
        ("WHERE parent <> 3", "SeqScan"),
        ("", "SeqScan"),
    ] {
        let plan = d.explain(&format!("DELETE FROM churn {predicate}")).unwrap().join("\n");
        assert!(plan.contains(&format!("via {path}")), "{predicate}: {plan}");
    }
    // Explaining deletes nothing, and what cannot be planned still says so.
    assert_eq!(d.row_count("churn").unwrap(), 200);
    assert!(d.query("EXPLAIN DELETE FROM nowhere").is_err());
    assert!(d.query("EXPLAIN INSERT INTO churn VALUES (1, 1, 'x')").is_err());
}

#[test]
fn delete_on_an_indexed_column_probes_instead_of_scanning() {
    let d = db("delete-probe");
    setup_churn(&d, 2_000);
    // Pool counters are per database: only this database's calls fold
    // into its registry, however many tests run in parallel.
    let run = |sql: &str, forcing: PlanForcing| {
        let before = d.metrics_snapshot().pool;
        let n = d.session().with_forcing(forcing).execute(sql).unwrap();
        (n, d.metrics_snapshot().pool.since(&before).fetches())
    };
    let (n, fetches) = run("DELETE FROM churn WHERE parent = 1234", PlanForcing::default());
    assert_eq!(n, 4);
    assert!(fetches < 40, "an index-driven delete of 4 rows fetched {fetches} pages");
    let (n, fetches) = run("DELETE FROM churn WHERE parent = 1235", forced(ForcedAccess::SeqScan));
    assert_eq!(n, 4);
    let pages = d.data_size_bytes().unwrap() / 8192;
    assert!(
        (pages..pages + 40).contains(&fetches),
        "the forced sequential scan reads each of the {pages} pages once: {fetches}"
    );
    // Deleted is deleted, on either path.
    assert_eq!(run("DELETE FROM churn WHERE parent = 1234", PlanForcing::default()).0, 0);
    assert_eq!(d.row_count("churn").unwrap(), 8_000 - 8);
}

/// One generated `DELETE` predicate over `dml(id, a, c, s)`.
fn gen_delete(rng: &mut impl rand::Rng, ids: i64) -> String {
    let a = rng.gen_range(-2..24i64);
    let c = rng.gen_range(0..10i64);
    let id = rng.gen_range(0..ids);
    let predicate = match rng.gen_range(0..14u32) {
        0 => format!("a = {a}"),
        1 => format!("{a} = a"),
        2 => format!("a < {a}"),
        3 => format!("a <= {a}"),
        4 => format!("a > {}", a + 12),
        5 => format!("{} <= a", a + 12),
        6 => format!("a = {a} AND c < {c}"),
        7 => format!("c = {c} AND a >= {a} AND a < {}", a + 3),
        8 => format!("c = {c} AND id < {id}"),
        9 => format!("id = {id}"),
        10 => format!("id >= {id} AND id < {} AND s LIKE '%7%'", id + 40),
        11 => "a = NULL".to_string(),
        12 => "a IS NULL AND c = 3".to_string(),
        _ => return "DELETE FROM dml".to_string(),
    };
    format!("DELETE FROM dml WHERE {predicate}")
}

#[test]
fn dml_differential_forced_accesses_agree() {
    use rand::{rngs::SmallRng, Rng, SeedableRng};
    let seeds: Vec<u64> = match std::env::var("DML_SEED").ok().and_then(|s| s.parse().ok()) {
        Some(seed) => vec![seed],
        None => vec![1, 2, 3],
    };
    for seed in seeds {
        let mut rng = SmallRng::seed_from_u64(seed);
        // Each twin plans every statement under its own pinned access path.
        let twins: Vec<(Database, PlanForcing)> = [ForcedAccess::IndexScan, ForcedAccess::SeqScan]
            .into_iter()
            .map(|access| {
                let dir = std::env::temp_dir()
                    .join(format!("ordb-suite-dml-{access:?}-{seed}-{}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                let d = Database::open(&dir).unwrap();
                d.execute("CREATE TABLE dml (id INTEGER, a INTEGER, c INTEGER, s VARCHAR)")
                    .unwrap();
                d.execute("CREATE INDEX dml_id ON dml (id)").unwrap();
                d.execute("CREATE INDEX dml_a ON dml (a)").unwrap();
                (d, forced(access))
            })
            .collect();
        let refill = |rng: &mut SmallRng, from: i64, n: i64| -> i64 {
            let rows: Vec<Row> = (from..from + n)
                .map(|id| {
                    let a = match rng.gen_range(0..8u32) {
                        0 => Value::Null,
                        _ => Value::Int(rng.gen_range(0..20i64)),
                    };
                    vec![Value::Int(id), a, Value::Int(id % 10), Value::str(format!("s{id}"))]
                })
                .collect();
            for (d, _) in &twins {
                d.insert_rows("dml", rows.clone()).unwrap();
            }
            from + n
        };
        let mut next_id = refill(&mut rng, 0, 600);
        for step in 0..120 {
            let sql = gen_delete(&mut rng, next_id);
            let affected: Vec<u64> = twins
                .iter()
                .map(|(d, f)| d.session().with_forcing(*f).execute(&sql).unwrap())
                .collect();
            assert_eq!(affected[0], affected[1], "seed {seed} step {step}: {sql}");
            let contents: Vec<Vec<Row>> = twins
                .iter()
                .map(|(d, f)| {
                    let sql = "SELECT id, a, c, s FROM dml ORDER BY id";
                    d.session().with_forcing(*f).query(sql).unwrap().rows
                })
                .collect();
            assert!(contents[0] == contents[1], "seed {seed} step {step}: {sql}: tables differ");
            for (d, _) in &twins {
                // Every live row has a non-null `id`, so the index on it
                // must count what the heap counts — on both twins.
                let by_index = d
                    .session()
                    .with_forcing(forced(ForcedAccess::IndexScan))
                    .query("SELECT COUNT(*) FROM dml WHERE id >= 0")
                    .unwrap();
                assert_eq!(
                    by_index.scalar().and_then(Value::as_int),
                    Some(d.row_count("dml").unwrap() as i64),
                    "seed {seed} step {step}: {sql}: heap and index counts differ"
                );
            }
            // Keep the table populated, and let vacuum take the dead
            // versions' index entries (and emptied leaves) away.
            if contents[0].len() < 300 {
                next_id = refill(&mut rng, next_id, 400);
            }
            if step % 16 == 15 {
                let reclaimed: Vec<u64> =
                    twins.iter().map(|(d, _)| d.vacuum().unwrap().vacuumed_versions).collect();
                assert_eq!(reclaimed[0], reclaimed[1], "seed {seed} step {step}: vacuum");
            }
        }
    }
}

#[test]
fn index_driven_delete_keeps_mvcc_semantics_across_wire_sessions() {
    use ordb::net::error_code;
    use ordb::{Client, DbError, Server};
    let dir = std::env::temp_dir().join(format!("ordb-suite-dml-wire-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let d = std::sync::Arc::new(Database::open(&dir).unwrap());
    setup_churn(&d, 10);
    let handle = Server::bind(d.clone(), "127.0.0.1:0").unwrap().spawn();
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();
    let mut reader = Client::connect(handle.addr()).unwrap();
    assert!(a.explain("DELETE FROM churn WHERE parent = 99").unwrap().join("\n").contains("Index"));

    a.execute("BEGIN").unwrap();
    a.execute("INSERT INTO churn VALUES (396, 99, 'a1'), (397, 99, 'a2')").unwrap();
    a.execute("DELETE FROM churn WHERE parent = 7").unwrap();

    // B does not see A's uncommitted insert: the probe finds the index
    // entries, the snapshot hides the versions behind them.
    b.execute("BEGIN").unwrap();
    assert_eq!(b.execute("DELETE FROM churn WHERE parent = 99").unwrap(), 0);
    // A row A has claimed is a conflict for B, whose transaction dies.
    let err = b.execute("DELETE FROM churn WHERE parent = 7").unwrap_err();
    assert!(matches!(err, DbError::TxnConflict(_)), "got {err:?}");
    assert_eq!(error_code(&err), 9);
    assert!(b.execute("COMMIT").is_err(), "B's transaction is gone");

    // A deletes a row its own transaction inserted, and only that one.
    assert_eq!(a.execute("DELETE FROM churn WHERE k = 396").unwrap(), 1);
    assert_eq!(a.query("SELECT k FROM churn WHERE parent = 99").unwrap().len(), 1);
    // The same statement under a forced sequential scan agrees: the
    // session's SET reaches DML.
    a.set("force_access", "seq").unwrap();
    assert!(a.explain("DELETE FROM churn WHERE parent = 99").unwrap().join("\n").contains("Seq"));
    assert_eq!(a.execute("DELETE FROM churn WHERE parent = 99").unwrap(), 1);
    assert_eq!(a.execute("DELETE FROM churn WHERE parent = 99").unwrap(), 0);

    // ROLLBACK restores all of them, on both access paths.
    a.execute("ROLLBACK").unwrap();
    for access in ["index", "seq"] {
        reader.set("force_access", access).unwrap();
        let count = |c: &mut Client, predicate: &str| {
            c.query(&format!("SELECT COUNT(*) FROM churn WHERE {predicate}"))
                .unwrap()
                .scalar()
                .and_then(Value::as_int)
        };
        assert_eq!(count(&mut reader, "parent = 7"), Some(4), "{access}");
        assert_eq!(count(&mut reader, "parent = 99"), Some(0), "{access}");
        assert_eq!(count(&mut reader, "k >= 0"), Some(40), "{access}");
    }
    for c in [a, b, reader] {
        c.close().unwrap();
    }
    handle.stop();
}
