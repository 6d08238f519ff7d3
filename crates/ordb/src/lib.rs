//! # ordb — a mini object-relational DBMS
//!
//! The DB2-substitute substrate for the XORator reproduction: a compact,
//! from-scratch object-relational engine with
//!
//! * paged storage over real files ([`storage`]): 8 KiB slotted pages, a
//!   bounded LRU buffer pool, heap files with big-record overflow chains;
//! * paged B+Tree secondary indexes with order-preserving composite keys
//!   ([`index`]);
//! * an extensible type system ([`types`]) with `INTEGER`, `VARCHAR`, and
//!   the object-relational `XADT` type (the paper's §3.4 extension);
//! * scalar built-ins and UDFs with a faithful marshalling call path
//!   ([`functions`]) — the basis of the paper's Figure 14 experiment;
//! * a Volcano executor ([`exec`]) with seq/index scans, three join
//!   algorithms, hash aggregation, and lateral table functions (`unnest`);
//! * a SQL subset frontend ([`sql`]) and a statistics-driven planner
//!   ([`plan`]);
//! * durable storage: a physical write-ahead log with page checksums and
//!   LSNs ([`storage::wal`]), redo recovery on open ([`recovery`]), and a
//!   deterministic fault-injection harness ([`storage::fault`]) that the
//!   crash-matrix CI job drives;
//! * the [`Database`] facade ([`db`]) tying it together, including
//!   `runstats`, size accounting, commit/checkpoint/close, and cold-cache
//!   control for experiments;
//! * one way to run a statement ([`session`]): a [`Session`] holds a
//!   caller's plan forcing and open transaction, and every caller — the
//!   wire server, `xorshell`, the test harnesses — runs SQL through one.
//!   Everything a caller asks is a statement, `SET` and
//!   `EXPLAIN ANALYZE` included;
//! * a TCP serving layer ([`net`]): a hand-rolled length-prefixed wire
//!   protocol, a thread-per-connection [`Server`], and a blocking
//!   [`Client`] — the `xord-server` / `xord-client` binaries;
//! * MVCC snapshot-isolation transactions ([`txn`]): `BEGIN` / `COMMIT`
//!   / `ROLLBACK`, per-tuple `xmin`/`xmax` version headers, snapshot
//!   reads threaded through every scan, first-updater-wins write-write
//!   conflicts ([`DbError::TxnConflict`]), and group commit batching
//!   concurrent fsyncs into one.

#![warn(missing_docs)]

pub mod catalog;
pub mod db;
pub mod error;
pub mod exec;
pub mod expr;
pub mod functions;
pub mod index;
pub mod metrics;
pub mod net;
pub mod plan;
pub mod recovery;
pub mod session;
pub mod sql;
pub mod stats;
pub mod storage;
pub mod trace;
pub mod tuple;
pub mod txn;
pub mod types;

pub use catalog::{ColumnDef, IndexDef, TableDef};
pub use db::{AnalyzeReport, Database, DbOptions, QueryResult, VacuumReport};
pub use error::{DbError, Result};
pub use metrics::QueryMetrics;
pub use net::{Client, Server, ServerHandle};
pub use plan::{ForcedAccess, ForcedJoin, PlanForcing};
pub use recovery::RecoveryReport;
pub use session::Session;
pub use storage::fault::{CrashMode, FaultInjector, FaultPlan, FaultScope};
pub use storage::wal::WalStats;
pub use txn::{Snapshot, TxnId, TxnStats};
pub use types::{DataType, Row, Value};
