//! Bulk loading: parse → shred → insert, with the paper's storage-format
//! sampling (§4.1) applied first.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use ordb::{Database, Row, Value};
use xadt::{SampleReport, StorageFormat, DEFAULT_MIN_SAVINGS};
use xmlkit::parse_document;

use crate::error::{CoreError, Result};
use crate::schema::Mapping;
use crate::shred::Shredder;

/// How to choose the XADT storage format for a load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FormatPolicy {
    /// Always plain tagged text.
    Plain,
    /// Always compressed.
    Compressed,
    /// Sample a few documents and compress only if it saves ≥ 20 %
    /// (the paper's policy).
    #[default]
    Auto,
}

/// Tuning for [`load_corpus`].
#[derive(Debug, Clone, Copy)]
pub struct LoadOptions {
    /// Format policy (paper default: sample-based).
    pub policy: FormatPolicy,
    /// How many documents the `Auto` policy samples.
    pub sample_docs: usize,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions { policy: FormatPolicy::Auto, sample_docs: 10 }
    }
}

/// Outcome of a corpus load.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Documents loaded.
    pub documents: usize,
    /// Tuples inserted across all tables.
    pub tuples: u64,
    /// Wall-clock load time (parse + shred + insert + flush).
    pub elapsed: Duration,
    /// The storage format chosen for XADT columns.
    pub format: StorageFormat,
    /// Measured compression savings on the sample (0 when not sampled).
    pub sample_savings: f64,
}

/// Decide the XADT storage format by shredding up to `sample_docs`
/// documents and measuring both representations, per paper §4.1.
pub fn choose_format(
    mapping: &Mapping,
    docs: &[String],
    sample_docs: usize,
) -> Result<(StorageFormat, f64)> {
    if mapping.xadt_columns().is_empty() {
        return Ok((StorageFormat::Plain, 0.0));
    }
    let mut shredder = Shredder::new(mapping, StorageFormat::Plain);
    let mut report = SampleReport { plain_bytes: 0, compressed_bytes: 0, samples: 0 };
    for text in docs.iter().take(sample_docs) {
        let doc = parse_document(text)?;
        for (_, row) in shredder.shred_document(&doc)? {
            for v in row {
                if let Value::Xadt(x) = v {
                    let plain = x.to_plain();
                    report.plain_bytes += plain.len();
                    report.compressed_bytes +=
                        xadt::compress(&plain).map_err(|e| CoreError::Shred(e.to_string()))?.len();
                    report.samples += 1;
                }
            }
        }
    }
    Ok((report.recommend(DEFAULT_MIN_SAVINGS), report.savings()))
}

/// Create the mapping's schema in `db` and load every document.
///
/// Returns the load report; the paper's loading-time rows (Figures 11/13)
/// come from `elapsed`.
pub fn load_corpus(
    db: &Database,
    mapping: &Mapping,
    docs: &[String],
    opts: LoadOptions,
) -> Result<LoadReport> {
    let (format, savings) = match opts.policy {
        FormatPolicy::Plain => (StorageFormat::Plain, 0.0),
        FormatPolicy::Compressed => (StorageFormat::Compressed, 0.0),
        FormatPolicy::Auto => choose_format(mapping, docs, opts.sample_docs)?,
    };

    let start = Instant::now();
    mapping.create_schema(db)?;
    let mut shredder = Shredder::new(mapping, format);
    let mut tuples = 0u64;
    // Batch rows per table to amortize insert overhead.
    let mut batches: HashMap<usize, Vec<Row>> = HashMap::new();
    const BATCH: usize = 4096;
    for text in docs {
        let doc = parse_document(text)?;
        for (table, row) in shredder.shred_document(&doc)? {
            let batch = batches.entry(table).or_default();
            batch.push(row);
            if batch.len() >= BATCH {
                let rows = std::mem::take(batch);
                tuples += db.insert_rows(&mapping.tables[table].name, rows)?;
            }
        }
    }
    for (table, batch) in batches {
        if !batch.is_empty() {
            tuples += db.insert_rows(&mapping.tables[table].name, batch)?;
        }
    }
    db.flush()?;
    Ok(LoadReport {
        documents: docs.len(),
        tuples,
        elapsed: start.elapsed(),
        format,
        sample_savings: savings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtds::PLAYS_DTD;
    use crate::hybrid::map_hybrid;
    use crate::simplify::simplify;
    use crate::xorator::map_xorator;
    use xmlkit::dtd::parse_dtd;

    fn docs() -> Vec<String> {
        (0..4)
            .map(|i| {
                format!(
                    "<PLAY><ACT><SCENE><TITLE>scene {i}</TITLE>\
                     <SPEECH><SPEAKER>HAMLET</SPEAKER><LINE>line one {i}</LINE>\
                     <LINE>my friend {i}</LINE></SPEECH></SCENE>\
                     <TITLE>Act {i}</TITLE>\
                     <SPEECH><SPEAKER>X</SPEAKER><LINE>y</LINE></SPEECH></ACT></PLAY>"
                )
            })
            .collect()
    }

    fn tmp(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("xorator-load-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn loads_both_mappings_and_queries_agree() {
        let dtd = simplify(&parse_dtd(PLAYS_DTD).unwrap());
        let docs = docs();

        let hdb = Database::open(tmp("h")).unwrap();
        let hmap = map_hybrid(&dtd);
        let hrep = load_corpus(&hdb, &hmap, &docs, LoadOptions::default()).unwrap();
        assert_eq!(hrep.documents, 4);

        let xdb = Database::open(tmp("x")).unwrap();
        let xmap = map_xorator(&dtd);
        let xrep = load_corpus(&xdb, &xmap, &docs, LoadOptions::default()).unwrap();

        // XORator inserts far fewer tuples (speakers/lines stay nested).
        assert!(xrep.tuples < hrep.tuples, "{} !< {}", xrep.tuples, hrep.tuples);

        // Same logical content: count lines containing 'friend'.
        let h = hdb.query("SELECT COUNT(*) FROM line WHERE line_value LIKE '%friend%'").unwrap();
        let x = xdb
            .query(
                "SELECT COUNT(*) FROM speech \
                 WHERE findKeyInElm(speech_line, 'LINE', 'friend') = 1",
            )
            .unwrap();
        assert_eq!(h.scalar(), Some(&Value::Int(4)));
        assert_eq!(x.scalar(), Some(&Value::Int(4)));
    }

    #[test]
    fn auto_policy_picks_plain_for_sparse_fragments() {
        // These docs have little tag repetition inside XADT fragments.
        let dtd = simplify(&parse_dtd(PLAYS_DTD).unwrap());
        let xmap = map_xorator(&dtd);
        let (format, _savings) = choose_format(&xmap, &docs(), 10).unwrap();
        // Small fragments with one or two tags each: compression should
        // not reach the 20% threshold here.
        assert_eq!(format, StorageFormat::Plain);
    }

    #[test]
    fn forced_compressed_policy_round_trips() {
        let dtd = simplify(&parse_dtd(PLAYS_DTD).unwrap());
        let xmap = map_xorator(&dtd);
        let db = Database::open(tmp("c")).unwrap();
        let rep = load_corpus(
            &db,
            &xmap,
            &docs(),
            LoadOptions { policy: FormatPolicy::Compressed, sample_docs: 0 },
        )
        .unwrap();
        assert_eq!(rep.format, StorageFormat::Compressed);
        let r = db
            .query(
                "SELECT COUNT(*) FROM speech \
                 WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1",
            )
            .unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(4)));
    }
}
