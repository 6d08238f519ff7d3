//! # xorator — storing and querying XML in an object-relational DBMS
//!
//! Reproduction of Runapongsa & Patel, *"Storing and Querying XML Data in
//! Object-Relational DBMSs"* (EDBT 2002). The crate implements the paper's
//! complete pipeline:
//!
//! 1. [`simplify`] — DTD simplification rules (§3.1, Figure 2);
//! 2. [`graph`] — the DTD graph and its revised, leaf-duplicating variant
//!    (§3.2, Figures 3/4);
//! 3. [`hybrid`] — the Hybrid inlining baseline (Shanmugasundaram et al.),
//!    and [`xorator`] — the paper's XORator mapping with XADT columns
//!    (§3.3, Figures 5/6);
//! 4. [`shred`] / [`load`] — document shredding and bulk loading with the
//!    sample-based XADT storage-format choice (§3.4.1, §4.1);
//! 5. [`advisor`] — a workload-driven index advisor standing in for the
//!    DB2 Index Wizard (§4.2);
//! 6. [`queries`] — the evaluation workloads QS1–QS6, QG1–QG6, QE1/QE2,
//!    QT1/QT2 in both schema dialects (§4.3, §4.4).
//!
//! The substrate crates are [`xmlkit`] (XML + DTD parsing), [`xadt`] (the
//! XML abstract data type), and [`ordb`] (the object-relational engine).
//!
//! ```no_run
//! use xorator::prelude::*;
//!
//! let dtd = xmlkit::dtd::parse_dtd(xorator::dtds::PLAYS_DTD).unwrap();
//! let simple = simplify(&dtd);
//! let mapping = map_xorator(&simple);          // 5 tables (Figure 6)
//! let db = ordb::Database::open("/tmp/xo").unwrap();
//! let docs = vec!["<PLAY>...</PLAY>".to_string()];
//! let report = load_corpus(&db, &mapping, &docs, LoadOptions::default()).unwrap();
//! println!("loaded {} tuples as {:?}", report.tuples, report.format);
//! ```

#![warn(missing_docs)]

pub mod advisor;
pub mod dtds;
pub mod error;
pub mod graph;
pub mod hybrid;
pub mod load;
mod mapbuild;
pub mod queries;
pub mod reconstruct;
pub mod schema;
pub mod shred;
pub mod simplify;
pub mod xorator;
pub mod xpath;

pub use error::{CoreError, Result};

/// Convenient re-exports of the main pipeline entry points.
pub mod prelude {
    pub use crate::advisor::{advise_and_apply, advise_base, advise_for_workload};
    pub use crate::hybrid::map_hybrid;
    pub use crate::load::{choose_format, load_corpus, FormatPolicy, LoadOptions, LoadReport};
    pub use crate::queries::{
        example_queries, shakespeare_queries, sigmod_queries, udf_overhead_queries,
    };
    pub use crate::reconstruct::{canonical, reconstruct_documents};
    pub use crate::schema::{Algorithm, ColumnKind, MappedColumn, MappedTable, Mapping};
    pub use crate::shred::Shredder;
    pub use crate::simplify::{simplify, Occ, SimpleDtd};
    pub use crate::xorator::map_xorator;
    pub use crate::xpath::{compile_xpath, parse_xpath, CompiledXPath};
}
