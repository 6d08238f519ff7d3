//! The paper's query workloads, expressed against both generated schemas.
//!
//! * QS1–QS6 (§4.3) over the Shakespeare DTD;
//! * QG1–QG6 (§4.4) over the SIGMOD Proceedings DTD;
//! * QE1/QE2 (Figures 7/8) over the Figure 1 Plays DTD;
//! * QT1/QT2 (§4.4, Figure 14) — built-in vs. UDF string functions.
//!
//! The paper's extended version carries the exact SQL; these statements
//! are derived from the query descriptions and the schemas of Figures
//! 5/6, using the engine's `getElm`/`findKeyInElm`/`getElmIndex` UDFs and
//! the lateral `TABLE(unnest(...))` of §3.5.

/// One benchmark query in both dialects.
#[derive(Debug, Clone)]
pub struct QueryPair {
    /// Paper identifier (e.g. "QS1").
    pub id: &'static str,
    /// The paper's description.
    pub description: &'static str,
    /// SQL over the Hybrid schema.
    pub hybrid: &'static str,
    /// SQL over the XORator schema.
    pub xorator: &'static str,
}

/// QS1–QS6: the Shakespeare workload (paper §4.3).
pub fn shakespeare_queries() -> Vec<QueryPair> {
    vec![
        QueryPair {
            id: "QS1",
            description: "Flattening: list speakers and the lines that they speak",
            hybrid: "SELECT speaker_value, line_value \
                     FROM speech, speaker, line \
                     WHERE speaker_parentID = speechID AND line_parentID = speechID",
            xorator: "SELECT xtext(u1.out), xtext(u2.out) \
                      FROM speech, TABLE(unnest(speech_speaker, 'SPEAKER')) u1, \
                           TABLE(unnest(speech_line, 'LINE')) u2",
        },
        QueryPair {
            id: "QS2",
            description: "Full path expression: lines that have stage directions",
            hybrid: "SELECT line_value \
                     FROM line, stagedir \
                     WHERE stagedir_parentID = lineID AND stagedir_parentCODE = 'LINE'",
            xorator: "SELECT getElm(speech_line, 'LINE', 'STAGEDIR', '') \
                      FROM speech \
                      WHERE findKeyInElm(speech_line, 'STAGEDIR', '') = 1",
        },
        QueryPair {
            id: "QS3",
            description: "Selection: lines whose stage direction contains 'Rising'",
            hybrid: "SELECT line_value \
                     FROM line, stagedir \
                     WHERE stagedir_parentID = lineID AND stagedir_parentCODE = 'LINE' \
                       AND stagedir_value LIKE '%Rising%'",
            xorator: "SELECT getElm(speech_line, 'LINE', 'STAGEDIR', 'Rising') \
                      FROM speech \
                      WHERE findKeyInElm(speech_line, 'STAGEDIR', 'Rising') = 1",
        },
        QueryPair {
            id: "QS4",
            description: "Multiple selections: speeches by ROMEO in 'Romeo and Juliet'",
            hybrid: "SELECT speechID \
                     FROM play, act, scene, speech, speaker \
                     WHERE play_title = 'Romeo and Juliet' \
                       AND act_parentID = playID \
                       AND scene_parentID = actID AND scene_parentCODE = 'ACT' \
                       AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' \
                       AND speaker_parentID = speechID AND speaker_value = 'ROMEO'",
            xorator: "SELECT speechID \
                      FROM play, act, scene, speech \
                      WHERE play_title = 'Romeo and Juliet' \
                        AND act_parentID = playID \
                        AND scene_parentID = actID AND scene_parentCODE = 'ACT' \
                        AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' \
                        AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1",
        },
        QueryPair {
            id: "QS5",
            description: "Twig with selection: ROMEO's lines containing 'love' \
                          in 'Romeo and Juliet'",
            hybrid: "SELECT line_value \
                     FROM play, act, scene, speech, speaker, line \
                     WHERE play_title = 'Romeo and Juliet' \
                       AND act_parentID = playID \
                       AND scene_parentID = actID AND scene_parentCODE = 'ACT' \
                       AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' \
                       AND speaker_parentID = speechID AND speaker_value = 'ROMEO' \
                       AND line_parentID = speechID AND line_value LIKE '%love%'",
            xorator: "SELECT getElm(speech_line, 'LINE', 'LINE', 'love') \
                      FROM play, act, scene, speech \
                      WHERE play_title = 'Romeo and Juliet' \
                        AND act_parentID = playID \
                        AND scene_parentID = actID AND scene_parentCODE = 'ACT' \
                        AND speech_parentID = sceneID AND speech_parentCODE = 'SCENE' \
                        AND findKeyInElm(speech_speaker, 'SPEAKER', 'ROMEO') = 1 \
                        AND findKeyInElm(speech_line, 'LINE', 'love') = 1",
        },
        QueryPair {
            id: "QS6",
            description: "Order access: the second line of speeches in prologues",
            hybrid: "SELECT line_value \
                     FROM speech, line \
                     WHERE speech_parentCODE = 'PROLOGUE' \
                       AND line_parentID = speechID AND line_childOrder = 2",
            xorator: "SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) \
                      FROM speech \
                      WHERE speech_parentCODE = 'PROLOGUE'",
        },
    ]
}

/// QG1–QG6: the SIGMOD Proceedings workload (paper §4.4).
pub fn sigmod_queries() -> Vec<QueryPair> {
    vec![
        QueryPair {
            id: "QG1",
            description: "Selection and extraction: authors of papers with 'Join' in the title",
            hybrid: "SELECT author_value \
                     FROM atuple, authors, author \
                     WHERE atuple_title LIKE '%Join%' \
                       AND authors_parentID = atupleID \
                       AND author_parentID = authorsID",
            xorator: "SELECT getElm(getElm(pp_slist, 'aTuple', 'title', 'Join'), \
                                    'author', '', '') \
                      FROM pp \
                      WHERE findKeyInElm(pp_slist, 'title', 'Join') = 1",
        },
        QueryPair {
            id: "QG2",
            description: "Flattening: all authors with their proceeding section names",
            hybrid: "SELECT author_value, slisttuple_sectionname \
                     FROM slisttuple, articles, atuple, authors, author \
                     WHERE articles_parentID = slisttupleID \
                       AND atuple_parentID = articlesID \
                       AND authors_parentID = atupleID \
                       AND author_parentID = authorsID",
            xorator: "SELECT xtext(a.out), getElm(s.out, 'sectionName', '', '') \
                      FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s, \
                           TABLE(unnest(getElm(s.out, 'author', '', ''), 'author')) a",
        },
        QueryPair {
            id: "QG3",
            description: "Flattening with selection: section names with papers by \
                          authors matching 'Worthy'",
            hybrid: "SELECT slisttuple_sectionname \
                     FROM slisttuple, articles, atuple, authors, author \
                     WHERE author_value LIKE '%Worthy%' \
                       AND author_parentID = authorsID \
                       AND authors_parentID = atupleID \
                       AND atuple_parentID = articlesID \
                       AND articles_parentID = slisttupleID",
            xorator: "SELECT getElm(getElm(pp_slist, 'sListTuple', 'author', 'Worthy'), \
                                    'sectionName', '', '') \
                      FROM pp \
                      WHERE findKeyInElm(pp_slist, 'author', 'Worthy') = 1",
        },
        QueryPair {
            id: "QG4",
            description: "Aggregation: per author, the number of sections with their papers",
            hybrid: "SELECT author_value, COUNT(DISTINCT slisttupleID) \
                     FROM slisttuple, articles, atuple, authors, author \
                     WHERE articles_parentID = slisttupleID \
                       AND atuple_parentID = articlesID \
                       AND authors_parentID = atupleID \
                       AND author_parentID = authorsID \
                     GROUP BY author_value",
            xorator: "SELECT xtext(a.out), COUNT(DISTINCT s.out) \
                      FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s, \
                           TABLE(unnest(getElm(s.out, 'author', '', ''), 'author')) a \
                      GROUP BY xtext(a.out)",
        },
        QueryPair {
            id: "QG5",
            description: "Aggregation with selection: sections having papers by \
                          authors matching 'Bird'",
            hybrid: "SELECT COUNT(DISTINCT slisttupleID) \
                     FROM slisttuple, articles, atuple, authors, author \
                     WHERE author_value LIKE '%Bird%' \
                       AND author_parentID = authorsID \
                       AND authors_parentID = atupleID \
                       AND atuple_parentID = articlesID \
                       AND articles_parentID = slisttupleID",
            xorator: "SELECT COUNT(*) \
                      FROM pp, TABLE(unnest(pp_slist, 'sListTuple')) s \
                      WHERE findKeyInElm(s.out, 'author', 'Bird') = 1",
        },
        QueryPair {
            id: "QG6",
            description: "Order access with selection: the second author of papers \
                          with 'Join' in the title",
            hybrid: "SELECT author_value \
                     FROM atuple, authors, author \
                     WHERE atuple_title LIKE '%Join%' \
                       AND authors_parentID = atupleID \
                       AND author_parentID = authorsID \
                       AND author_childOrder = 2",
            xorator: "SELECT getElmIndex(getElm(pp_slist, 'aTuple', 'title', 'Join'), \
                                         'authors', 'author', 2, 2) \
                      FROM pp \
                      WHERE findKeyInElm(pp_slist, 'title', 'Join') = 1",
        },
    ]
}

/// QE1/QE2 (Figures 7/8), over the Figure 1 Plays DTD.
pub fn example_queries() -> Vec<QueryPair> {
    vec![
        QueryPair {
            id: "QE1",
            description: "Lines spoken in acts by HAMLET containing 'friend' (Figure 7)",
            hybrid: "SELECT line_value \
                     FROM speech, act, speaker, line \
                     WHERE speech_parentID = actID AND speech_parentCODE = 'ACT' \
                       AND speaker_parentID = speechID AND speaker_value = 'HAMLET' \
                       AND line_parentID = speechID AND line_value LIKE '%friend%'",
            xorator: "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') \
                      FROM speech, act \
                      WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1 \
                        AND findKeyInElm(speech_line, 'LINE', 'friend') = 1 \
                        AND speech_parentID = actID AND speech_parentCODE = 'ACT'",
        },
        QueryPair {
            id: "QE2",
            description: "The second line in each speech (Figure 8)",
            hybrid: "SELECT line_value \
                     FROM speech, line \
                     WHERE line_parentID = speechID AND line_childOrder = 2",
            xorator: "SELECT getElmIndex(speech_line, '', 'LINE', 2, 2) FROM speech",
        },
    ]
}

/// One Figure 14 query: the same string function over the Hybrid
/// Shakespeare `speaker` table, called through each call path.
#[derive(Debug, Clone)]
pub struct UdfOverheadQuery {
    /// Paper identifier (e.g. "QT1").
    pub id: &'static str,
    /// The paper's description.
    pub description: &'static str,
    /// SQL calling the built-in function.
    pub builtin: &'static str,
    /// SQL calling its NOT FENCED UDF twin (the paper's configuration).
    pub udf: &'static str,
    /// SQL calling its FENCED UDF twin (out-of-process marshalling).
    pub fenced: &'static str,
}

/// QT1/QT2 (Figure 14): built-in vs. UDF string functions.
pub fn udf_overhead_queries() -> Vec<UdfOverheadQuery> {
    vec![
        UdfOverheadQuery {
            id: "QT1",
            description: "Return the length of the SPEAKER attribute",
            builtin: "SELECT length(speaker_value) FROM speaker",
            udf: "SELECT udf_length(speaker_value) FROM speaker",
            fenced: "SELECT fenced_length(speaker_value) FROM speaker",
        },
        UdfOverheadQuery {
            id: "QT2",
            description: "Return the substring of SPEAKER from position 5",
            builtin: "SELECT substr(speaker_value, 5) FROM speaker",
            udf: "SELECT udf_substr(speaker_value, 5) FROM speaker",
            fenced: "SELECT fenced_substr(speaker_value, 5) FROM speaker",
        },
    ]
}

/// Every Hybrid + XORator statement in one list (for the index advisor).
pub fn all_workload_sql() -> Vec<&'static str> {
    let mut out = Vec::new();
    for q in shakespeare_queries().iter().chain(&sigmod_queries()).chain(&example_queries()) {
        out.push(q.hybrid);
        out.push(q.xorator);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ordb::sql::parse_statement;

    #[test]
    fn every_query_parses() {
        for q in shakespeare_queries().iter().chain(&sigmod_queries()).chain(&example_queries()) {
            parse_statement(q.hybrid)
                .unwrap_or_else(|e| panic!("{} hybrid: {e}\n{}", q.id, q.hybrid));
            parse_statement(q.xorator)
                .unwrap_or_else(|e| panic!("{} xorator: {e}\n{}", q.id, q.xorator));
        }
        for q in udf_overhead_queries() {
            for (variant, sql) in [("builtin", q.builtin), ("udf", q.udf), ("fenced", q.fenced)] {
                parse_statement(sql).unwrap_or_else(|e| panic!("{} {variant}: {e}", q.id));
            }
        }
    }

    #[test]
    fn xorator_queries_use_fewer_joins() {
        // Count FROM base tables (excluding TABLE(...) laterals): XORator
        // must never use more than Hybrid (the paper's core claim).
        fn base_tables(sql: &str) -> usize {
            match parse_statement(sql).unwrap() {
                ordb::sql::Statement::Select(q) => {
                    q.from.iter().filter(|f| matches!(f, ordb::sql::FromItem::Table { .. })).count()
                }
                _ => 0,
            }
        }
        for q in shakespeare_queries().iter().chain(&sigmod_queries()) {
            assert!(
                base_tables(q.xorator) < base_tables(q.hybrid),
                "{}: xorator should join fewer base tables",
                q.id
            );
        }
    }

    #[test]
    fn workload_sql_collects_everything() {
        assert_eq!(all_workload_sql().len(), (6 + 6 + 2) * 2);
    }
}
