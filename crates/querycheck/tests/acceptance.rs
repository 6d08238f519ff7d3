//! The ISSUE's acceptance gates: seeds 1–3 run clean across the whole
//! oracle × forcing × config matrix, the stream is deterministic per
//! seed, and an intentionally injected executor bug is caught and shrunk
//! to a repro file.

use querycheck::data::Corpus;
use querycheck::gen::{generate, render_select};
use querycheck::runner::{Harness, Mutation};
use querycheck::shrink;
use rand::{rngs::SmallRng, SeedableRng};
use xorator::prelude::Algorithm;

const CORPORA: [Corpus; 2] = [Corpus::Shakespeare, Corpus::Sigmod];
const ALGOS: [Algorithm; 2] = [Algorithm::Hybrid, Algorithm::Xorator];

/// Debug builds are ~10× slower than release; keep the per-pair budget
/// modest so the suite stays in tier-1 time.
const QUERIES_PER_PAIR: usize = 12;

#[test]
fn seeds_1_through_3_agree_everywhere() {
    for seed in 1..=3u64 {
        for corpus in CORPORA {
            for algorithm in ALGOS {
                let harness = Harness::new(corpus, algorithm, seed, "acc").expect("harness setup");
                let mut rng = SmallRng::seed_from_u64(seed);
                for qi in 0..QUERIES_PER_PAIR {
                    let q = generate(&mut rng, &harness.info);
                    let mismatches = harness.check_query(&q, None);
                    assert!(
                        mismatches.is_empty(),
                        "seed {seed} {}/{algorithm:?} query {qi} mismatched: {} | {} | {}\nsql: {}",
                        corpus.name(),
                        mismatches[0].config,
                        mismatches[0].forcing,
                        mismatches[0].detail,
                        mismatches[0].sql,
                    );
                }
            }
        }
    }
}

#[test]
fn query_stream_is_deterministic_per_seed() {
    let harness =
        Harness::new(Corpus::Shakespeare, Algorithm::Hybrid, 7, "det").expect("harness setup");
    let render = |seed: u64| -> Vec<String> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..20).map(|_| render_select(&generate(&mut rng, &harness.info))).collect()
    };
    assert_eq!(render(7), render(7), "same seed must replay identically");
    assert_ne!(render(7), render(8), "different seeds should diverge");
}

/// The shapes that exercise column pruning must actually come out of the
/// generator: a table joined to itself, `alias.*` beside tables read by
/// the column, a GROUP BY key that is not selected, and an `unnest` over
/// a column nothing else names.
#[test]
fn generator_covers_the_column_pruning_shapes() {
    use ordb::sql::ast::{AstExpr, FromItem, SelectItem};
    let harness =
        Harness::new(Corpus::Shakespeare, Algorithm::Xorator, 1, "shapes").expect("harness setup");
    let mut rng = SmallRng::seed_from_u64(1);
    let (mut self_join, mut mixed_star, mut hidden_group, mut lone_unnest) = (0, 0, 0, 0);
    for _ in 0..400 {
        let q = generate(&mut rng, &harness.info);
        let tables: Vec<&String> = q
            .from
            .iter()
            .filter_map(|f| match f {
                FromItem::Table { name, .. } => Some(name),
                FromItem::TableFunction { .. } => None,
            })
            .collect();
        self_join += usize::from((1..tables.len()).any(|i| tables[..i].contains(&tables[i])));
        let stars =
            q.items.iter().filter(|i| matches!(i, SelectItem::QualifiedWildcard(_))).count();
        mixed_star += usize::from(stars > 0 && stars < q.items.len() && tables.len() > 1);
        let selected =
            |g| q.items.iter().any(|i| matches!(i, SelectItem::Expr { expr, .. } if expr == g));
        hidden_group += usize::from(q.group_by.iter().any(|g| !selected(g)));
        let sql = render_select(&q);
        lone_unnest += usize::from(q.from.iter().any(|f| match f {
            FromItem::TableFunction { args, .. } => match &args[0] {
                AstExpr::Column { qualifier: Some(t), name } => {
                    sql.matches(&format!("{t}.{name}")).count() == 1
                }
                _ => false,
            },
            FromItem::Table { .. } => false,
        }));
    }
    for (shape, n) in [
        ("self-join", self_join),
        ("alias.* mixed with columns", mixed_star),
        ("unselected GROUP BY key", hidden_group),
        ("unnest of a column named nowhere else", lone_unnest),
    ] {
        assert!(n >= 5, "only {n} of 400 queries have the shape: {shape}");
    }
}

/// Inject a lost-tuple bug into the engine's results and prove the
/// harness catches it and the shrinker produces a self-contained repro
/// that still reproduces after minimization.
#[test]
fn injected_executor_bug_is_caught_and_shrunk() {
    let seed = 99u64;
    let corpus = Corpus::Sigmod;
    let algorithm = Algorithm::Hybrid;
    let harness = Harness::new(corpus, algorithm, seed, "mut").expect("harness setup");
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut caught = None;
    for _ in 0..40 {
        let q = generate(&mut rng, &harness.info);
        let mismatches = harness.check_query(&q, Some(Mutation::DropLastRow));
        if let Some(m) = mismatches.into_iter().next() {
            caught = Some((q, m));
            break;
        }
    }
    let (q, m) = caught.expect("a dropped-row bug must be detected within 40 queries");
    assert!(m.detail.contains("row count"), "lost tuple shows up as a count diff: {}", m.detail);

    let repro = shrink::shrink_and_report(
        corpus,
        algorithm,
        seed,
        harness.docs.clone(),
        q.clone(),
        &m,
        Some(Mutation::DropLastRow),
    )
    .expect("repro file written");

    // Minimization only ever removes parts, and the result still fails.
    assert!(repro.docs.len() <= harness.docs.len());
    assert!(
        render_select(&repro.query).len() <= render_select(&q).len(),
        "shrunk query should not grow"
    );
    assert!(
        shrink::probe(
            corpus,
            algorithm,
            &repro.docs,
            &repro.query,
            m.engine_config,
            m.plan_forcing,
            Some(Mutation::DropLastRow),
        )
        .is_some(),
        "minimized repro must still reproduce"
    );

    let text = std::fs::read_to_string(&repro.path).expect("repro file exists");
    assert!(text.contains("## Query"), "repro file lists the SQL");
    assert!(text.contains("```xml"), "repro file inlines the documents");
    assert!(text.contains("DropLastRow"), "repro file names the injected mutation");
}
