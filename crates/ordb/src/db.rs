//! The `Database` facade: open a directory, create tables and indexes,
//! load rows, run SQL.

use std::collections::HashMap;
use std::fmt;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::RwLock;

use crate::catalog::{index_row, table_row, Catalog, ColumnDef, IndexDef, TableDef, CATALOG_FILE};
use crate::error::{DbError, Result};
use crate::exec::collect;
use crate::index::btree::BTree;
use crate::index::key::encode_key;
use crate::metrics::{thread_counters, udf_delta, Profiler, QueryMetrics};
use crate::plan::{plan_delete, plan_select, plan_select_profiled, PlanContext, PlanForcing};
use crate::recovery::RecoveryReport;
use crate::sql::ast::{AstExpr, Statement};
use crate::sql::parser::parse_statement;
use crate::stats::{StatsBuilder, TableStats};
use crate::storage::buffer::{BufferPool, FileId, DEFAULT_POOL_FRAMES};
use crate::storage::fault::FaultInjector;
use crate::storage::heap::{ClaimOutcome, HeapFile, PageScan, Rid};
use crate::storage::spill::{SpillConfig, SpillManager};
use crate::storage::wal::{LogScan, Wal, WalStats};
use crate::trace::now_ns;
use crate::tuple::{decode_cols, decode_row, encode_row};
use crate::txn::{Snapshot, TxnId, TxnManager, Undo, TXID_INVALID};
use crate::types::{DataType, Row, Value};

/// Tuning knobs for [`Database::open_with`].
#[derive(Clone)]
pub struct DbOptions {
    /// Buffer pool capacity in frames (default 256 = 2 MiB).
    pub pool_frames: usize,
    /// Deterministic disk-fault injector routed under every page file
    /// and the WAL (crash-matrix tests only; `None` in production).
    pub fault: Option<Arc<FaultInjector>>,
    /// Per-operator memory budget in bytes for blocking operators
    /// (sort, hash join, aggregation, DISTINCT). When a build side or
    /// working set exceeds it, the operator spills to temp files under
    /// `<dir>/spill/` instead of growing. `None` (the default) keeps
    /// the historical unbounded all-in-memory behaviour.
    pub mem_budget: Option<usize>,
}

impl fmt::Debug for DbOptions {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DbOptions")
            .field("pool_frames", &self.pool_frames)
            .field("fault", &self.fault.is_some())
            .field("mem_budget", &self.mem_budget)
            .finish()
    }
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions { pool_frames: DEFAULT_POOL_FRAMES, fault: None, mem_budget: None }
    }
}

struct DbInner {
    catalog: Catalog,
    /// The catalog's own rows, in file [`CATALOG_FILE`].
    catalog_heap: Arc<HeapFile>,
    heaps: HashMap<String, Arc<HeapFile>>,
    indexes: HashMap<String, Arc<BTree>>,
    stats: HashMap<String, TableStats>,
}

/// A database rooted at a directory of page files — the catalog's rows
/// in `f00000.dat`, each table and index in a file of its own — and the
/// write-ahead log `wal.log`.
pub struct Database {
    dir: PathBuf,
    pool: Arc<BufferPool>,
    /// The write-ahead log, also attached to `pool` (which logs page
    /// images to it before writing them back).
    wal: Arc<Wal>,
    inner: RwLock<DbInner>,
    functions: crate::functions::FunctionRegistry,
    /// What the open-time redo pass did (None: no WAL existed).
    recovery: Option<RecoveryReport>,
    /// Memory budget + temp-file manager handed to blocking operators;
    /// `None` without [`DbOptions::mem_budget`].
    spill: Option<SpillConfig>,
    /// Query latency and the counters this database's calls folded in;
    /// unified with WAL and wire counters by [`Database::metrics_snapshot`].
    registry: crate::metrics::MetricsRegistry,
    /// Transaction ids, snapshots, undo lists, and the commit
    /// watermark the checkpoint writes into the log.
    txns: TxnManager,
    /// Serializes vacuum passes (concurrent DML keeps running; a second
    /// caller waits rather than double-reclaiming).
    vacuum_serial: parking_lot::Mutex<()>,
    /// Delete claims since the last vacuum pass — the auto-vacuum hook
    /// on checkpoint skips the pass entirely while this is zero, so
    /// insert-only workloads stay byte-for-byte unaffected.
    reclaim_hint: AtomicU64,
    /// Held shared by everything that changes pages or makes them
    /// durable through the log — a DML statement, a rollback, a commit,
    /// a vacuum pass — and exclusively by a checkpoint from before its
    /// page flush until the WAL is replaced. The checkpoint flushes the
    /// frames it finds and then replaces the log: a commit acknowledged in
    /// between, or a page born in between (a B+Tree split moving
    /// committed entries onto it), would be in neither the data files nor
    /// the log. Never taken twice by one call chain — a reader that
    /// re-enters behind a waiting checkpoint would deadlock.
    write_gate: RwLock<()>,
    /// Set by `close`/`abandon`; makes `Drop` a no-op.
    closed: AtomicBool,
}

// A `Database` is shared across client threads by reference (see the
// concurrent tests and the wire server); this fails to
// compile if any field regresses to a single-threaded type.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Database>();
};

/// The result of a SELECT.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Row>,
}

impl QueryResult {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no rows were returned.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a single-row, single-column result.
    pub fn scalar(&self) -> Option<&Value> {
        match (self.rows.len(), self.columns.len()) {
            (1, 1) => Some(&self.rows[0][0]),
            _ => None,
        }
    }
}

/// The result of [`Session::analyze`](crate::session::Session::analyze)
/// and [`Database::explain_analyze`]: the query's rows plus a
/// full [`QueryMetrics`] snapshot. `Display` renders the annotated plan
/// tree and counters (the classic `EXPLAIN ANALYZE` output).
#[derive(Debug, Clone)]
pub struct AnalyzeReport {
    /// The query result, identical to what `query()` returns.
    pub result: QueryResult,
    /// Per-operator and per-query measurements.
    pub metrics: QueryMetrics,
}

impl fmt::Display for AnalyzeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.metrics.render())
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join(" | "))?;
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            writeln!(f, "{}", cells.join(" | "))?;
        }
        writeln!(f, "{} record(s) selected.", self.rows.len())
    }
}

/// One table's indexes: each one's key-column positions and tree.
type TableIndexes = Vec<(Vec<usize>, Arc<BTree>)>;

/// One table's definition, heap and indexes: what DML needs.
type TableAccess = (TableDef, Arc<HeapFile>, TableIndexes);

/// What one [`Database::vacuum`] pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VacuumReport {
    /// The snapshot boundary the pass ran under: versions whose
    /// committed `xmax` lies below it are invisible to every current
    /// and future snapshot.
    pub watermark: u64,
    /// Dead versions physically removed (slot, index entries, and any
    /// overflow chain).
    pub vacuumed_versions: u64,
    /// Heap pages (overflow-chain pages and fully-emptied data pages)
    /// returned to the free-space map during the pass.
    pub freed_pages: u64,
}

impl Database {
    /// Open (or create) the database at `dir` with default options.
    pub fn open(dir: impl AsRef<Path>) -> Result<Database> {
        Self::open_with(dir, DbOptions::default())
    }

    /// Open (or create) with explicit options.
    ///
    /// When a `wal.log` exists, it is read once and the redo pass runs
    /// *first* — before any file is registered with the pool — so torn or
    /// lost data-page writes from a crash are repaired before anything
    /// reads them. A log this version cannot classify, or an older
    /// version's `catalog.txt`, is refused before any data file is written.
    /// The catalog is then read from its heap — the rows whose creating DDL
    /// committed and whose dropping DDL did not — and every data file no
    /// such row names, which a dropped, failed or crashed DDL left, is
    /// deleted.
    pub fn open_with(dir: impl AsRef<Path>, opts: DbOptions) -> Result<Database> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let old_catalog = dir.join("catalog.txt");
        if old_catalog.exists() {
            let what = "an older version's catalog; this one keeps it in f00000.dat, no migration";
            return Err(DbError::Corrupt(format!("{}: {what}", old_catalog.display())));
        }
        let mut scan = LogScan::read(&dir)?;
        let recovery = scan.as_mut().map(|scan| crate::recovery::redo(&dir, scan)).transpose()?;
        let decided = |t: u64| scan.as_ref().map_or(t != TXID_INVALID, |scan| scan.decided(t));
        let pool = Arc::new(BufferPool::with_fault(opts.pool_frames, opts.fault.clone()));
        let wal = Arc::new(Wal::open(&dir, opts.fault.clone(), scan.as_ref())?);
        pool.set_wal(Some(wal.clone()));
        // A log holding any page image or a torn tail means the last
        // process died mid-flight (a clean shutdown leaves a bare
        // checkpoint record, and every data-file write since the last
        // checkpoint logged its image first): a WAL torn mid-vacuum can
        // leave stubs whose chains were already reclaimed and overflow
        // pages nothing references, and an index page can be durable
        // while the heap page holding its target slot was lost.
        let dirty = recovery
            .as_ref()
            .is_some_and(|r| r.replayed_pages > 0 || r.skipped_pages > 0 || r.torn_tail_bytes > 0);
        pool.register_file(CATALOG_FILE, file_path(&dir, CATALOG_FILE))?;
        let catalog_heap = Arc::new(HeapFile::new(pool.clone(), CATALOG_FILE));
        let catalog =
            Catalog::read(catalog_heap.clone(), |xmin, xmax| decided(xmin) && !decided(xmax))?;
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            let file = name.strip_prefix('f').and_then(|n| n.strip_suffix(".dat")?.parse().ok());
            if file.is_some_and(|f| f != CATALOG_FILE && catalog.row_of(f).is_none()) {
                std::fs::remove_file(path)?;
            }
        }
        // Undo pass: list what transactions the log shows uncommitted wrote.
        let heap_files: Vec<FileId> =
            std::iter::once(CATALOG_FILE).chain(catalog.tables().map(|t| t.file)).collect();
        let undo = scan
            .as_ref()
            .map(|scan| crate::recovery::undo_uncommitted(&dir, &heap_files, scan))
            .transpose()?
            .unwrap_or_default();
        let next = (undo.max_txid + 1).max(crate::txn::TXID_FIRST);
        let txns = TxnManager::new(next);
        let mut heaps = HashMap::new();
        let mut indexes = HashMap::new();
        for t in catalog.tables() {
            pool.register_file(t.file, file_path(&dir, t.file))?;
            heaps
                .insert(t.name.to_ascii_lowercase(), Arc::new(HeapFile::new(pool.clone(), t.file)));
        }
        for i in catalog.indexes() {
            pool.register_file(i.file, file_path(&dir, i.file))?;
            indexes
                .insert(i.name.to_ascii_lowercase(), Arc::new(BTree::open(pool.clone(), i.file)?));
        }
        if dirty {
            for heap in heaps.values().chain([&catalog_heap]) {
                heap.scavenge_after_recovery()?;
            }
        }
        let inner = DbInner { catalog, catalog_heap, heaps, indexes, stats: HashMap::new() };
        inner.undo(undo.undo)?;
        // Purge index entries whose heap slot no longer exists — the
        // stale entry would alias whatever future insert lands there.
        if dirty {
            for t in inner.catalog.tables() {
                let (heap, trees) = inner.access_of(t.file).expect("a catalogued table");
                for (_, tree) in trees {
                    for (key, rid) in tree.scan_range(None, None, true)? {
                        if heap.get_versioned(rid)?.is_none() {
                            tree.delete(&key, rid)?;
                        }
                    }
                }
            }
        }
        // Make the repair durable in the data files, then replace the log
        // (everything redo restored was already fsync'd by the recovery
        // pass). After the repair every surviving on-disk version is
        // committed, so the new watermark is `next`; until the new log
        // lands, the old one still classifies them.
        pool.log_dirty_frames()?;
        wal.sync()?;
        pool.flush_all()?;
        wal.checkpoint(next, next, &[])?;
        let spill = opts
            .mem_budget
            .map(|budget| SpillConfig::new(budget, Arc::new(SpillManager::new(dir.join("spill")))));
        let db = Database {
            dir,
            pool,
            wal,
            inner: RwLock::new(inner),
            functions: crate::functions::FunctionRegistry::with_builtins(),
            recovery,
            spill,
            registry: crate::metrics::MetricsRegistry::default(),
            txns,
            vacuum_serial: parking_lot::Mutex::new(()),
            reclaim_hint: AtomicU64::new(0),
            write_gate: RwLock::new(()),
            closed: AtomicBool::new(false),
        };
        db.registry.fold();
        Ok(db)
    }

    /// Call and marshalling counters for every registered function,
    /// sorted by name: everything this database's calls folded in.
    pub fn udf_counters(&self) -> Vec<crate::metrics::UdfCounters> {
        self.functions.counters(&self.registry.read().counters.udfs)
    }

    /// Create a table: one durable transaction inserting its catalog row.
    pub fn create_table(&self, name: &str, columns: Vec<ColumnDef>) -> Result<()> {
        let _fold = self.registry.folding();
        let _gate = self.write_gate.read();
        let mut inner = self.inner.write();
        if inner.catalog.table(name).is_some() {
            return Err(DbError::Catalog(format!("table {name:?} already exists")));
        }
        for (i, c) in columns.iter().enumerate() {
            if columns[..i].iter().any(|d| d.name.eq_ignore_ascii_case(&c.name)) {
                return Err(DbError::Catalog(format!("column {:?} declared twice", c.name)));
            }
        }
        let def =
            TableDef { name: name.to_string(), columns, file: inner.catalog.allocate_file_id() };
        let rid = self.create_in_catalog(&inner, def.file, table_row(&def), || Ok(()))?.0;
        inner.heaps.insert(
            name.to_ascii_lowercase(),
            Arc::new(HeapFile::new(self.pool.clone(), def.file)),
        );
        inner.catalog.set_row(def.file, rid);
        inner.catalog.add_table(def)
    }

    /// Create an index and backfill it from existing rows, as one durable
    /// transaction inserting its catalog row. The backfill collects every
    /// `(key, rid)` pair, sorts them into stored-key order and inserts
    /// them through [`BTree::insert`]: ascending inserts take the tree's
    /// right-edge split, so every leaf but the last is full.
    pub fn create_index(&self, name: &str, table: &str, columns: Vec<String>) -> Result<()> {
        let _fold = self.registry.folding();
        let _gate = self.write_gate.read();
        let mut inner = self.inner.write();
        if inner.catalog.index(name).is_some() {
            return Err(DbError::Catalog(format!("index {name:?} already exists")));
        }
        let tdef = inner.catalog.existing_table(table)?.clone();
        let mut key_cols = Vec::with_capacity(columns.len());
        for c in &columns {
            key_cols.push(
                tdef.column_index(c)
                    .ok_or_else(|| DbError::Catalog(format!("unknown column {c:?}")))?,
            );
        }
        let file = inner.catalog.allocate_file_id();
        let def = IndexDef { name: name.to_string(), table: tdef.name.clone(), columns, file };
        let heap = inner.heaps[&tdef.name.to_ascii_lowercase()].clone();
        let (rid, tree) = self.create_in_catalog(&inner, file, index_row(&def), || {
            let tree = Arc::new(BTree::create(self.pool.clone(), file)?);
            // Backfill every non-dead version — including ones with an
            // xmax claim, since a snapshot older than the deleter must
            // still find them through this index.
            let ordinals = key_ordinals([&key_cols]);
            let mut scan = PageScan::new(heap);
            let mut keys: Vec<(Vec<u8>, Rid)> = Vec::new();
            while scan.next_page(
                |_, _| true,
                |rid, _, _, body| {
                    let row = decode_cols(body, ordinals.iter().copied())?;
                    keys.push((encode_key(&key_of(&key_cols, &ordinals, &row)), rid));
                    Ok(())
                },
            )? {}
            // Encoded keys of one index are prefix-free and `Rid` orders
            // as its big-endian suffix, so this is stored-key order.
            keys.sort_unstable();
            for (key, rid) in keys {
                tree.insert(&key, rid)?;
            }
            Ok(tree)
        })?;
        inner.indexes.insert(name.to_ascii_lowercase(), tree);
        inner.catalog.set_row(file, rid);
        inner.catalog.add_index(def)
    }

    /// Register the new `file` and, in one DDL transaction, insert its
    /// catalog `row` and `build` its contents; on failure delete it again.
    fn create_in_catalog<T>(
        &self,
        inner: &DbInner,
        file: FileId,
        row: Row,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<(Rid, T)> {
        self.pool.register_file(file, file_path(&self.dir, file))?;
        self.ddl(inner, |txn| {
            let mut body = Vec::new();
            encode_row(&row, &mut body);
            let rid = inner.catalog_heap.insert(&body, txn.0)?;
            self.txns.record_undo(txn, |u| u.remove.push((CATALOG_FILE, rid)))?;
            Ok((rid, build()?))
        })
        .inspect_err(|_| self.unlink(&[file]))
    }

    /// In one DDL transaction, claim the `xmax` of `files`' catalog rows.
    /// The caller unlinks the files only after this returns, so a crash
    /// never leaves a live row naming a missing file.
    fn drop_from_catalog(&self, inner: &DbInner, files: &[FileId]) -> Result<()> {
        self.ddl(inner, |txn| {
            for &file in files {
                let rid = inner.catalog.row_of(file).expect("a catalogued file has a row");
                if inner.catalog_heap.try_claim_xmax(rid, txn.0)? != ClaimOutcome::Claimed {
                    return Err(DbError::Corrupt(format!("catalog row {rid:?} already claimed")));
                }
                self.txns.record_undo(txn, |u| u.clear.push((CATALOG_FILE, rid)))?;
            }
            Ok(())
        })?;
        // Vacuum reclaims the dead rows once no snapshot needs them.
        self.reclaim_hint.fetch_add(files.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// Run `f` as one DDL transaction (the caller holds the write gate and
    /// `inner`), committed durably: a new file's pages reach the log before
    /// the commit record that names them.
    fn ddl<T>(&self, inner: &DbInner, f: impl FnOnce(TxnId) -> Result<T>) -> Result<T> {
        let txn = self.txns.begin();
        let done = f(txn);
        let ended = self.end_gated(txn, done.is_ok(), || inner);
        done.and_then(|v| ended.map(|()| v))
    }

    /// Forget `files` and delete them, best effort: a file left behind is
    /// one no live catalog row names, and the next open deletes it.
    fn unlink(&self, files: &[FileId]) {
        for &file in files {
            let _ = self.pool.unregister_file(file);
            let _ = std::fs::remove_file(file_path(&self.dir, file));
        }
    }

    /// One table's heap, its indexes (key-column positions + trees),
    /// and its definition — the access set every DML statement needs.
    fn table_access(&self, table: &str) -> Result<TableAccess> {
        let inner = self.inner.read();
        let tdef = inner.catalog.existing_table(table)?.clone();
        let (heap, idx_defs) = inner.access_of(tdef.file).expect("a catalogued table");
        Ok((tdef, heap, idx_defs))
    }

    /// Insert rows programmatically (the bulk-load path). Values are
    /// type-checked; `Str` values are coerced into XADT columns as plain
    /// fragments. Runs as one autocommit transaction: on any error the
    /// rows inserted so far are rolled back.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<u64> {
        let _fold = self.registry.folding();
        self.autocommit(|t| self.insert_rows_in(table, rows, t))
    }

    /// Run `f` as one autocommit transaction: committed durably on
    /// success, as [`Database::commit_txn`] commits, so an acknowledged
    /// statement survives a crash; rolled back on error.
    pub(crate) fn autocommit(&self, f: impl FnOnce(TxnId) -> Result<u64>) -> Result<u64> {
        let txn = self.txns.begin();
        let done = f(txn);
        let _gate = self.write_gate.read();
        let ended = self.end_gated(txn, done.is_ok(), || self.inner.read());
        done.and_then(|n| ended.map(|()| n))
    }

    /// Insert rows inside transaction `txn`: each version is stamped
    /// with `txn`'s id as `xmin` and goes on `txn`'s undo list, so
    /// rollback can remove it (and its index entries) physically.
    pub(crate) fn insert_rows_in(&self, table: &str, rows: Vec<Row>, txn: TxnId) -> Result<u64> {
        let _gate = self.write_gate.read();
        let (tdef, heap, idx_defs) = self.table_access(table)?;
        let mut buf = Vec::new();
        let mut n = 0u64;
        for mut row in rows {
            if row.len() != tdef.columns.len() {
                return Err(DbError::Exec(format!(
                    "row arity {} != table arity {}",
                    row.len(),
                    tdef.columns.len()
                )));
            }
            for (v, c) in row.iter_mut().zip(&tdef.columns) {
                coerce(v, c)?;
            }
            buf.clear();
            encode_row(&row, &mut buf);
            let rid = heap.insert(&buf, txn.0)?;
            self.txns.record_undo(txn, |u| u.remove.push((tdef.file, rid)))?;
            for (cols, tree) in &idx_defs {
                let key_vals: Vec<Value> = cols.iter().map(|&i| row[i].clone()).collect();
                tree.insert(&encode_key(&key_vals), rid)?;
            }
            n += 1;
        }
        Ok(n)
    }

    /// What the planner needs from this database for one statement.
    /// `forcing` of `None` means cost-based planning.
    fn plan_ctx<'a>(
        &'a self,
        inner: &'a DbInner,
        forcing: Option<PlanForcing>,
        snapshot: Snapshot,
    ) -> PlanContext<'a> {
        PlanContext {
            catalog: &inner.catalog,
            heaps: &inner.heaps,
            indexes: &inner.indexes,
            stats: &inner.stats,
            functions: &self.functions,
            spill: self.spill.as_ref(),
            forcing: forcing.unwrap_or_default(),
            snapshot,
        }
    }

    /// Run a SELECT, or EXPLAIN a SELECT or a DELETE, over everything
    /// committed so far, through a fresh [`Session`](crate::session::Session).
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.session().query(sql)
    }

    /// `EXPLAIN ANALYZE` a SELECT over everything committed so far,
    /// through a fresh [`Session`](crate::session::Session); see
    /// [`Session::analyze`](crate::session::Session::analyze).
    pub fn explain_analyze(&self, sql: &str) -> Result<AnalyzeReport> {
        self.session().analyze(sql)
    }

    /// The one parse → plan → execute body, under every session query
    /// and [`Session::analyze`](crate::session::Session::analyze). With
    /// `analyze` the statement must be a SELECT, every operator is
    /// profiled, and execution is bracketed with the thread's counters
    /// and the WAL's, returned as [`QueryMetrics`]. Without it, an EXPLAIN
    /// returns its plan lines as rows, and no operator is wrapped.
    pub(crate) fn run_query(
        &self,
        sql: &str,
        forcing: Option<PlanForcing>,
        snapshot: Snapshot,
        analyze: bool,
    ) -> Result<(QueryResult, Option<QueryMetrics>)> {
        let _fold = self.registry.folding();
        // Every phase is timed on the trace clock, so the phases laid end
        // to end from `start_ns` end before the first operator pull.
        let start_ns = now_ns();
        let stmt = parse_statement(sql)?;
        let parsed_ns = now_ns();
        let q = match stmt {
            Statement::Select(q) => q,
            Statement::Explain(inner) if !analyze => {
                let lines = self.explain_stmt(*inner, forcing, snapshot)?;
                let rows = lines.into_iter().map(|l| vec![Value::Str(l)]).collect();
                return Ok((QueryResult { columns: vec!["plan".to_string()], rows }, None));
            }
            _ if analyze => return Err(DbError::Plan("explain_analyze() expects SELECT".into())),
            other => return Err(DbError::Plan(format!("query() expects SELECT, got {other:?}"))),
        };
        let inner = self.inner.read();
        let ctx = self.plan_ctx(&inner, forcing, snapshot);
        let mut prof = if analyze { Profiler::enabled() } else { Profiler::disabled() };
        let plan = plan_select_profiled(&ctx, &q, &mut prof)?;
        let planned_ns = now_ns();

        let before = analyze.then(|| (thread_counters(), self.wal.stats()));
        let exec_ns = now_ns();
        let rows = collect(plan.root)?;
        let end_ns = now_ns();

        let wall = Duration::from_nanos(end_ns - start_ns);
        let metrics = before.map(|(counters0, wal0)| {
            let counted = thread_counters().since(&counters0);
            QueryMetrics {
                start_ns,
                parse: Duration::from_nanos(parsed_ns - start_ns),
                plan: Duration::from_nanos(planned_ns - parsed_ns),
                exec: Duration::from_nanos(end_ns - exec_ns),
                wall,
                rows: rows.len() as u64,
                pool: counted.pool,
                wal: self.wal.stats().since(&wal0),
                engine: counted.engine,
                udfs: udf_delta(&[], &self.functions.counters(&counted.udfs)),
                root: prof.finish(),
            }
        });
        self.registry.record_query(wall);
        Ok((QueryResult { columns: plan.columns, rows }, metrics))
    }

    /// Planner decisions for a SELECT or a DELETE, without executing it,
    /// through a fresh [`Session`](crate::session::Session).
    pub fn explain(&self, sql: &str) -> Result<Vec<String>> {
        self.session().explain(sql)
    }

    pub(crate) fn explain_stmt(
        &self,
        stmt: Statement,
        forcing: Option<PlanForcing>,
        snapshot: Snapshot,
    ) -> Result<Vec<String>> {
        let inner = self.inner.read();
        let ctx = self.plan_ctx(&inner, forcing, snapshot);
        match stmt {
            Statement::Select(q) => Ok(plan_select(&ctx, &q)?.explain),
            Statement::Delete { table, predicate } => {
                Ok(plan_delete(&ctx, &table, predicate.as_ref())?.explain)
            }
            other => Err(DbError::Plan(format!("cannot EXPLAIN {other:?}"))),
        }
    }

    /// Execute DDL / DML with autocommit through a fresh
    /// [`Session`](crate::session::Session); returns affected-row count.
    ///
    /// `BEGIN`/`COMMIT`/`ROLLBACK` are rejected here: an explicit
    /// transaction lives in the session that opened it, so it runs
    /// through one from [`Database::session`].
    pub fn execute(&self, sql: &str) -> Result<u64> {
        match parse_statement(sql)? {
            Statement::Begin | Statement::Commit | Statement::Rollback => Err(DbError::Exec(
                "transaction control needs a session to hold the transaction; \
                 use Database::session()"
                    .into(),
            )),
            stmt => self.session().execute_stmt(stmt),
        }
    }

    /// `DROP INDEX name`: one durable transaction.
    pub(crate) fn drop_index(&self, name: &str) -> Result<()> {
        let _gate = self.write_gate.read();
        let mut inner = self.inner.write();
        let file = inner
            .catalog
            .index(name)
            .ok_or_else(|| DbError::Catalog(format!("unknown index {name:?}")))?
            .file;
        self.drop_from_catalog(&inner, &[file])?;
        inner.catalog.remove_index(name)?;
        inner.indexes.remove(&name.to_ascii_lowercase());
        self.unlink(&[file]);
        Ok(())
    }

    /// `DROP TABLE name`, with its indexes and statistics: one durable
    /// transaction.
    pub(crate) fn drop_table(&self, name: &str) -> Result<()> {
        let _gate = self.write_gate.read();
        let mut inner = self.inner.write();
        let tdef = inner.catalog.existing_table(name)?;
        let files: Vec<FileId> = std::iter::once(tdef.file)
            .chain(inner.catalog.indexes_of(name).iter().map(|i| i.file))
            .collect();
        self.drop_from_catalog(&inner, &files)?;
        let (tdef, indexes) = inner.catalog.remove_table(name)?;
        let key = tdef.name.to_ascii_lowercase();
        inner.heaps.remove(&key);
        inner.stats.remove(&key);
        for ix in indexes {
            inner.indexes.remove(&ix.name.to_ascii_lowercase());
        }
        self.unlink(&files);
        Ok(())
    }

    /// MVCC delete inside `txn`: find the versions `txn`'s snapshot sees
    /// and the predicate accepts through the access path the planner
    /// picks ([`plan_delete`]: an index probe when a conjunct allows one,
    /// a sequential scan otherwise, `forcing` honoured), and claim each
    /// one's `xmax` (first-updater-wins — a live claim by another
    /// transaction fails the statement with [`DbError::TxnConflict`]
    /// immediately, so there is no lock waiting and no deadlock). Heap
    /// slots and index entries stay in place: older snapshots must still
    /// see the row, and readers filter on visibility.
    pub(crate) fn delete_rows_in(
        &self,
        table: &str,
        predicate: Option<AstExpr>,
        forcing: Option<PlanForcing>,
        txn: TxnId,
    ) -> Result<u64> {
        let _gate = self.write_gate.read();
        let snapshot = self.txns.snapshot_of(txn)?;
        let plan = {
            let inner = self.inner.read();
            plan_delete(&self.plan_ctx(&inner, forcing, snapshot), table, predicate.as_ref())?
        };
        // Drain the scan before the first claim: it must not meet its own
        // statement's writes.
        let mut scan = plan.root;
        let mut victims: Vec<Rid> = Vec::new();
        while let Some(row) = scan.next()? {
            victims.push(crate::exec::trailing_rid(&row).expect("DML scans append the rid"));
        }
        let mut n = 0;
        for rid in victims {
            match plan.heap.try_claim_xmax(rid, txn.0)? {
                ClaimOutcome::Claimed => {
                    self.txns.record_undo(txn, |u| u.clear.push((plan.heap.file_id(), rid)))?;
                    // Feed the auto-vacuum hook: if this claim commits,
                    // the version eventually becomes reclaimable.
                    self.reclaim_hint.fetch_add(1, Ordering::Relaxed);
                    n += 1;
                }
                ClaimOutcome::OwnedBySelf | ClaimOutcome::Gone => {}
                ClaimOutcome::Conflict(holder) => {
                    crate::metrics::count(|c| c.txn.conflicts += 1);
                    return Err(DbError::TxnConflict(format!(
                        "row in {:?} already deleted by concurrent transaction {holder}",
                        plan.table
                    )));
                }
            }
        }
        Ok(n)
    }

    /// Open an explicit transaction; pair with [`Database::commit_txn`]
    /// or [`Database::rollback_txn`].
    pub(crate) fn begin_txn(&self) -> TxnId {
        self.txns.begin()
    }

    /// What a statement in `txn` reads: the snapshot captured at its
    /// `BEGIN`, or with `None` everything committed so far.
    pub(crate) fn snapshot_of(&self, txn: Option<TxnId>) -> Result<Snapshot> {
        match txn {
            Some(t) => self.txns.snapshot_of(t),
            None => Ok(self.txns.read_snapshot()),
        }
    }

    /// Durably commit `txn`: flush dirty page images to the WAL, append
    /// its commit record, and group-fsync — concurrent committers share
    /// one `fsync` (the group-commit leader flushes the whole buffer,
    /// so followers find their record already durable). Read-only
    /// transactions skip the log entirely.
    pub(crate) fn commit_txn(&self, txn: TxnId) -> Result<()> {
        let _gate = self.write_gate.read();
        self.end_gated(txn, true, || self.inner.read())
    }

    /// Abort `txn`: undo its writes and drop it from the active set.
    pub(crate) fn rollback_txn(&self, txn: TxnId) -> Result<()> {
        let _gate = self.write_gate.read();
        self.end_gated(txn, false, || self.inner.read())
    }

    /// End `txn` under the write gate: commit it if `commit`, else roll it
    /// back. A commit that wrote (its undo list is non-empty) logs the
    /// dirty page images, then its commit record, and group-fsyncs: it is
    /// durable when this returns. A rollback, or a commit whose log write
    /// fails, applies the undo list through the catalog `inner` returns
    /// ([`DbInner::undo`]).
    fn end_gated<G: Deref<Target = DbInner>>(
        &self,
        txn: TxnId,
        commit: bool,
        inner: impl FnOnce() -> G,
    ) -> Result<()> {
        let undo = self.txns.take_undo(txn)?;
        let logged = if !commit || undo == Undo::default() {
            Ok(())
        } else {
            self.pool
                .log_dirty_frames()
                .and_then(|_| self.wal.sync_group(self.wal.log_commit(txn.0)))
        };
        if commit && logged.is_ok() {
            return self.txns.finish_commit(txn);
        }
        inner().undo(undo)?;
        self.txns.finish_abort(txn);
        logged
    }

    /// Recompute statistics for one table (the paper's `runstats`).
    pub fn runstats(&self, table: &str) -> Result<TableStats> {
        let _fold = self.registry.folding();
        let (tdef, heap, _) = self.table_access(table)?;
        let (arity, key) = (tdef.columns.len(), tdef.name.to_ascii_lowercase());
        let snapshot = self.txns.read_snapshot();
        let mut builder = StatsBuilder::new(arity);
        let mut scan = PageScan::new(heap);
        while scan.next_page(
            |xmin, xmax| snapshot.visible(xmin, xmax),
            |_, _, _, body| {
                builder.add(&decode_row(body, arity)?, body.len());
                Ok(())
            },
        )? {}
        let stats = builder.finish();
        self.inner.write().stats.insert(key, stats.clone());
        Ok(stats)
    }

    /// `runstats` for every table.
    pub fn runstats_all(&self) -> Result<()> {
        let names: Vec<String> =
            self.inner.read().catalog.tables().map(|t| t.name.clone()).collect();
        for n in names {
            self.runstats(&n)?;
        }
        Ok(())
    }

    /// Cached statistics for `table`, if `runstats` has run.
    pub fn stats_of(&self, table: &str) -> Option<TableStats> {
        self.inner.read().stats.get(&table.to_ascii_lowercase()).cloned()
    }

    /// Number of user tables.
    pub fn table_count(&self) -> usize {
        self.inner.read().catalog.table_count()
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut v: Vec<String> =
            self.inner.read().catalog.tables().map(|t| t.name.clone()).collect();
        v.sort();
        v
    }

    /// Table definition by name.
    pub fn table_def(&self, name: &str) -> Option<TableDef> {
        self.inner.read().catalog.table(name).cloned()
    }

    /// Total bytes across table heap files.
    pub fn data_size_bytes(&self) -> Result<u64> {
        self.inner.read().catalog.tables().map(|t| self.pool.file_size(t.file)).sum()
    }

    /// Total bytes across index files.
    pub fn index_size_bytes(&self) -> Result<u64> {
        self.inner.read().catalog.indexes().map(|i| self.pool.file_size(i.file)).sum()
    }

    /// Row count of one table: scans, counting versions visible to a
    /// fresh snapshot (so uncommitted inserts and committed deletes are
    /// excluded).
    pub fn row_count(&self, table: &str) -> Result<u64> {
        let _fold = self.registry.folding();
        let heap = self.table_access(table)?.1;
        let snapshot = self.txns.read_snapshot();
        let mut n = 0u64;
        let mut scan = PageScan::new(heap);
        while scan.next_page(
            |xmin, xmax| snapshot.visible(xmin, xmax),
            |_, _, _, _| {
                n += 1;
                Ok(())
            },
        )? {}
        Ok(n)
    }

    /// Flush everything to disk.
    pub fn flush(&self) -> Result<()> {
        let _fold = self.registry.folding();
        self.pool.flush_all()
    }

    /// Log every dirty page's image to the WAL and fsync it (the caller
    /// holds the write gate): after this, redo rebuilds every page.
    fn log_and_sync(&self) -> Result<()> {
        self.pool.log_dirty_frames()?;
        self.wal.sync()
    }

    /// Physically reclaim every dead version no current or future
    /// snapshot can see: versions whose committed `xmax` lies below
    /// [`TxnManager::vacuum_watermark`]. For each victim the pass
    /// deletes its index entries *first*, then frees the heap slot and
    /// walks its overflow chain back to the free-space map — that
    /// ordering means a revived slot can never alias a stale index
    /// entry, even if the pass crashes halfway (redo replays the logged
    /// prefix; the open-time sweep and a re-run converge the rest).
    ///
    /// Runs under the catalog read lock (concurrent queries and DML
    /// proceed; DDL waits) and a pass-serialization mutex. Finishes
    /// by logging and fsyncing, as a commit does, so the reclamation is
    /// durable when it returns.
    pub fn vacuum(&self) -> Result<VacuumReport> {
        let _fold = self.registry.folding();
        let _serial = self.vacuum_serial.lock();
        let _gate = self.write_gate.read();
        // Reset the hint up front: deletes racing with this pass are
        // counted toward the *next* one.
        self.reclaim_hint.store(0, Ordering::Relaxed);
        let freed0 = thread_counters().engine.freed_pages;
        let watermark = self.txns.vacuum_watermark();
        let mut vacuumed = 0u64;
        let inner = self.inner.read();
        for file in std::iter::once(CATALOG_FILE).chain(inner.catalog.tables().map(|t| t.file)) {
            let (heap, idx_defs) = inner.access_of(file).expect("a catalogued heap");
            // Committed-dead versions below the watermark. A nonzero
            // `xmax` below the watermark is necessarily committed: an
            // active claimant's own id bounds the watermark from above,
            // and aborted claims are cleared before the claimant leaves
            // the active set. Bodies are resolved by the scan *before*
            // any freeing, because the index keys must be recomputed
            // from them — from the key columns, all the pass decodes.
            let ordinals = key_ordinals(idx_defs.iter().map(|(cols, _)| cols));
            let mut victims: Vec<(Rid, Row)> = Vec::new();
            let mut scan = PageScan::new(heap.clone());
            while scan.next_page(
                |_, xmax| xmax != crate::txn::TXID_INVALID && xmax < watermark,
                |rid, _, _, body| {
                    victims.push((rid, decode_cols(body, ordinals.iter().copied())?));
                    Ok(())
                },
            )? {}
            vacuumed += reclaim(&heap, &idx_defs, &ordinals, victims)?;
        }
        drop(inner);
        crate::metrics::count(|c| c.engine.vacuumed_versions += vacuumed);
        // Durability point: log every page the pass touched and fsync,
        // so a crash from here on replays the whole reclamation.
        self.log_and_sync()?;
        let freed = thread_counters().engine.freed_pages - freed0;
        Ok(VacuumReport { watermark, vacuumed_versions: vacuumed, freed_pages: freed })
    }

    /// Checkpoint: commit, write every dirty page to its data file,
    /// fsync the data files, then replace the WAL with a checkpoint
    /// record (plus the commit records an open transaction still needs).
    /// Bounds both recovery time and log size.
    /// When deletes have accumulated since the last pass, a
    /// [`Database::vacuum`] runs first so the checkpointed state is also
    /// compact.
    ///
    /// Writers wait while the pages are flushed and the log replaced (see
    /// `write_gate`): a DML statement, commit or rollback that arrives
    /// meanwhile starts when the checkpoint is done; queries run on. The
    /// vacuum pass runs before the gate is taken, as a writer of its own.
    pub fn checkpoint(&self) -> Result<()> {
        let _fold = self.registry.folding();
        if self.reclaim_hint.load(Ordering::Relaxed) > 0 {
            self.vacuum()?;
        }
        let _gate = self.write_gate.write();
        self.log_and_sync()?;
        self.pool.flush_all()?;
        // The new log's checkpoint record carries the transaction
        // watermark; commits above it (an older transaction still runs)
        // are re-logged after it. The new log replaces the old one whole,
        // so `decided = below-watermark ∪ logged-commits` holds whichever
        // of the two a crash leaves.
        let (watermark, next, relog) = self.txns.checkpoint_info();
        self.wal.checkpoint(watermark, next, &relog)
    }

    /// Orderly shutdown: checkpoint so nothing is left only in memory,
    /// then mark the handle closed so `Drop` does no further I/O. Prefer
    /// this over relying on `Drop`, which cannot report errors.
    pub fn close(self) -> Result<()> {
        self.close_inner()
    }

    fn close_inner(&self) -> Result<()> {
        if self.closed.swap(true, Ordering::SeqCst) {
            return Ok(());
        }
        // Abort stragglers (a dropped connection mid-transaction) so
        // the checkpoint's watermark covers every id ever handed out
        // and the fresh WAL needs no re-logged commit records.
        for id in self.txns.active_ids() {
            let _ = self.rollback_txn(TxnId(id));
        }
        self.checkpoint()
    }

    /// Drop this handle *without* flushing anything — simulates losing
    /// the process image mid-run. In-memory state vanishes; whatever the
    /// WAL and data files already hold is what the next open recovers.
    /// Test/fault-injection use only.
    pub fn abandon(self) {
        self.closed.store(true, Ordering::SeqCst);
    }

    /// The per-database metrics registry: query latency, the counters
    /// this database's calls folded in, and the server's wire counters.
    pub(crate) fn metrics(&self) -> &crate::metrics::MetricsRegistry {
        &self.registry
    }

    /// One unified snapshot of everything this database can measure:
    /// query count + latency histogram, the buffer-pool and engine
    /// counters its calls folded in (see
    /// [`MetricsRegistry`](crate::metrics::MetricsRegistry)), WAL,
    /// transaction and wire counters, and live spill files. Two snapshots
    /// taken around a workload diff with
    /// [`RegistrySnapshot::since`](crate::metrics::RegistrySnapshot::since).
    pub fn metrics_snapshot(&self) -> crate::metrics::RegistrySnapshot {
        let folded = self.registry.read();
        crate::metrics::RegistrySnapshot {
            queries: folded.queries,
            latency: folded.latency,
            pool: folded.counters.pool,
            wal: self.wal.stats(),
            engine: folded.counters.engine,
            net: self.registry.net().snapshot(),
            txn: folded.counters.txn,
            spill_files_live: self.spill_files_live() as u64,
        }
    }

    /// Cumulative WAL counters since open. Always `Some`: every
    /// database opens its log.
    pub fn wal_stats(&self) -> Option<WalStats> {
        Some(self.wal.stats())
    }

    /// Spill temp files currently on disk. Zero between queries: spill
    /// data is owned by operators and deleted when the query's plan is
    /// dropped, on success and on error alike.
    pub fn spill_files_live(&self) -> usize {
        self.spill.as_ref().map_or(0, |s| s.manager.live_files())
    }

    /// What the open-time redo pass did; `None` when no WAL existed.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// Flush and empty the buffer pool — makes the next query run cold,
    /// as in the paper's methodology (§4.2). The flush's writebacks are
    /// *excluded* from the I/O stats (they belong to the workload that
    /// dirtied the pages, not to the cold query measured next), so a
    /// `drop_cache` → query window over [`Database::metrics_snapshot`]'s
    /// `pool` charges the query only its own I/O.
    pub fn drop_cache(&self) -> Result<()> {
        self.pool.drop_cache()
    }
}

impl Drop for Database {
    /// Best-effort shutdown: checkpoint + flush unless [`Database::close`]
    /// or [`Database::abandon`] already ran. Errors (e.g. an injected
    /// crash) are swallowed — `Drop` cannot report them; callers who care
    /// use `close()`.
    fn drop(&mut self) {
        if !self.closed.load(Ordering::SeqCst) {
            let _ = self.close_inner();
        }
    }
}

impl DbInner {
    /// The heap in `file` and its indexes: the catalog's, or a table's.
    fn access_of(&self, file: FileId) -> Option<(Arc<HeapFile>, TableIndexes)> {
        if file == CATALOG_FILE {
            return Some((self.catalog_heap.clone(), Vec::new()));
        }
        let tdef = self.catalog.tables().find(|t| t.file == file)?;
        let indexes = self.catalog.indexes_of(&tdef.name).into_iter().map(|d| {
            let cols = d.columns.iter().map(|c| tdef.column_index(c).expect("index column"));
            (cols.collect(), self.indexes[&d.name.to_ascii_lowercase()].clone())
        });
        Some((self.heaps[&tdef.name.to_ascii_lowercase()].clone(), indexes.collect()))
    }

    /// Undo what `undo` lists: one transaction's writes on rollback, or at
    /// open every write the log does not show committed. Claims are
    /// cleared first — a freed slot may be reused at once — then versions
    /// go through [`reclaim`]. Files of dropped tables are passed over.
    fn undo(&self, mut undo: Undo) -> Result<()> {
        for (file, rid) in undo.clear {
            if let Some((heap, _)) = self.access_of(file) {
                heap.clear_xmax(rid)?;
            }
        }
        undo.remove.sort_unstable();
        for versions in undo.remove.chunk_by(|a, b| a.0 == b.0) {
            let Some((heap, idx_defs)) = self.access_of(versions[0].0) else { continue };
            let ordinals = key_ordinals(idx_defs.iter().map(|(cols, _)| cols));
            let mut victims = Vec::new();
            for &(_, rid) in versions {
                if let Some(v) = heap.get_versioned(rid)? {
                    victims.push((rid, decode_cols(&v.body, ordinals.iter().copied())?));
                }
            }
            reclaim(&heap, &idx_defs, &ordinals, victims)?;
        }
        Ok(())
    }
}

/// How vacuum and every undo take versions out of the heap: for each
/// victim, with its key columns decoded at `ordinals`, delete its index
/// entries first, then its slot and overflow chain — so a revived slot
/// can never alias a stale entry. Returns the number of versions
/// removed.
fn reclaim(
    heap: &HeapFile,
    idx_defs: &[(Vec<usize>, Arc<BTree>)],
    ordinals: &[usize],
    victims: Vec<(Rid, Row)>,
) -> Result<u64> {
    let mut removed = 0;
    for (rid, row) in victims {
        for (cols, tree) in idx_defs {
            tree.delete(&encode_key(&key_of(cols, ordinals, &row)), rid)?;
        }
        if heap.delete(rid)? {
            removed += 1;
        }
    }
    Ok(removed)
}

/// The stored columns the index key lists in `keys` read, ascending.
fn key_ordinals<'a>(keys: impl IntoIterator<Item = &'a Vec<usize>>) -> Vec<usize> {
    let mut ordinals: Vec<usize> = keys.into_iter().flatten().copied().collect();
    ordinals.sort_unstable();
    ordinals.dedup();
    ordinals
}

/// One index's key values, from a `row` decoded at `ordinals`.
fn key_of(key_cols: &[usize], ordinals: &[usize], row: &[Value]) -> Vec<Value> {
    let at = |col: &usize| ordinals.binary_search(col).expect("key column was decoded");
    key_cols.iter().map(|col| row[at(col)].clone()).collect()
}

/// The data file of `file` in the database directory `dir`.
pub(crate) fn file_path(dir: &Path, file: FileId) -> PathBuf {
    dir.join(format!("f{file:05}.dat"))
}

/// Check/coerce a value against a column definition.
fn coerce(v: &mut Value, c: &ColumnDef) -> Result<()> {
    match (&v, c.ty) {
        (Value::Null, _) => Ok(()),
        (Value::Int(_), DataType::Integer) => Ok(()),
        (Value::Str(_), DataType::Varchar) => Ok(()),
        (Value::Xadt(_), DataType::Xadt) => Ok(()),
        (Value::Str(s), DataType::Xadt) => {
            *v = Value::Xadt(xadt::XadtValue::plain(s.clone()));
            Ok(())
        }
        (got, want) => {
            Err(DbError::Exec(format!("column {:?} expects {want}, got {got:?}", c.name)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;

    fn db(tag: &str) -> Database {
        let dir = std::env::temp_dir().join(format!("ordb-db-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Database::open(&dir).unwrap()
    }

    fn setup_speech(db: &Database) {
        db.execute(
            "CREATE TABLE speech (speechID INTEGER, speech_parentID INTEGER, \
             speech_parentCODE VARCHAR, speech_speaker XADT, speech_line XADT)",
        )
        .unwrap();
        db.execute("CREATE TABLE act (actID INTEGER, act_title VARCHAR)").unwrap();
        db.insert_rows(
            "act",
            vec![
                vec![Value::Int(1), Value::str("Act I")],
                vec![Value::Int(2), Value::str("Act II")],
            ],
        )
        .unwrap();
        db.insert_rows(
            "speech",
            vec![
                vec![
                    Value::Int(10),
                    Value::Int(1),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>HAMLET</SPEAKER>"),
                    Value::str("<LINE>my good friend</LINE><LINE>adieu</LINE>"),
                ],
                vec![
                    Value::Int(11),
                    Value::Int(1),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>OPHELIA</SPEAKER>"),
                    Value::str("<LINE>my lord</LINE>"),
                ],
                vec![
                    Value::Int(12),
                    Value::Int(2),
                    Value::str("ACT"),
                    Value::str("<SPEAKER>HAMLET</SPEAKER><SPEAKER>HORATIO</SPEAKER>"),
                    Value::str("<LINE>to arms, friend</LINE>"),
                ],
            ],
        )
        .unwrap();
    }

    #[test]
    fn create_insert_select() {
        let db = db("basic");
        setup_speech(&db);
        let r = db.query("SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn i64_extreme_literals_round_trip() {
        // Regression: `-9223372036854775808` used to fail with `bad
        // number` because the magnitude was parsed as i64 before the
        // unary minus was folded in.
        let db = db("i64min");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute(&format!("INSERT INTO t VALUES ({}), ({}), (0)", i64::MIN, i64::MAX)).unwrap();
        let r = db.query(&format!("SELECT a FROM t WHERE a = {}", i64::MIN)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MIN)]]);
        let r = db.query("SELECT a FROM t WHERE a < 0").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MIN)]]);
        let r = db.query(&format!("SELECT a FROM t WHERE a = {}", i64::MAX)).unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(i64::MAX)]]);
        // One past either end is a parse error, not a panic or wrap.
        assert!(db.query("SELECT a FROM t WHERE a = 9223372036854775808").is_err());
        assert!(db.query("SELECT a FROM t WHERE a = -9223372036854775809").is_err());
    }

    #[test]
    fn sql_insert_and_scalar() {
        let db = db("sqlinsert");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)").unwrap();
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(3)));
        let r = db.query("SELECT COUNT(b) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2)));
    }

    #[test]
    fn xadt_methods_in_sql() {
        let db = db("xadtsql");
        setup_speech(&db);
        // The paper's QE1 shape.
        let r = db
            .query(
                "SELECT getElm(speech_line, 'LINE', 'LINE', 'friend') \
                 FROM speech, act \
                 WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1 \
                 AND findKeyInElm(speech_line, 'LINE', 'friend') = 1 \
                 AND speech_parentID = actID \
                 AND speech_parentCODE = 'ACT'",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
        let frags: Vec<String> =
            r.rows.iter().map(|row| row[0].as_xadt().unwrap().to_plain().into_owned()).collect();
        assert!(frags.contains(&"<LINE>my good friend</LINE>".to_string()));
        assert!(frags.contains(&"<LINE>to arms, friend</LINE>".to_string()));
    }

    #[test]
    fn unnest_in_sql_figure_9() {
        let db = db("unnest9");
        db.execute("CREATE TABLE speakers (speaker XADT)").unwrap();
        db.execute(
            "INSERT INTO speakers VALUES \
             ('<speaker>s1</speaker><speaker>s2</speaker>'), ('<speaker>s1</speaker>')",
        )
        .unwrap();
        let before = db.query("SELECT speaker FROM speakers").unwrap();
        assert_eq!(before.len(), 2);
        let after = db
            .query(
                "SELECT DISTINCT u.out AS SPEAKER \
                 FROM speakers, TABLE(unnest(speaker, 'speaker')) u",
            )
            .unwrap();
        assert_eq!(after.len(), 2, "Figure 9(b): two distinct speakers");
    }

    #[test]
    fn joins_with_index_and_without() {
        let db = db("joins");
        setup_speech(&db);
        let sql = "SELECT act_title, speechID FROM speech, act \
                   WHERE speech_parentID = actID";
        let r1 = db.query(sql).unwrap();
        assert_eq!(r1.len(), 3);
        // With an index present the answer is unchanged (tiny tables may
        // legitimately still plan a hash join under the cost model).
        db.execute("CREATE INDEX speech_parent ON speech (speech_parentID)").unwrap();
        db.runstats_all().unwrap();
        let r2 = db.query(sql).unwrap();
        let norm = |mut r: QueryResult| {
            r.rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            r.rows
        };
        assert_eq!(norm(r1), norm(r2));
    }

    #[test]
    fn cost_model_picks_index_nlj_for_selective_probes() {
        let db = db("costnlj");
        db.execute("CREATE TABLE parent (pid INTEGER, tag VARCHAR)").unwrap();
        db.execute("CREATE TABLE child (cid INTEGER, c_parent INTEGER, payload VARCHAR)").unwrap();
        let parents: Vec<Row> =
            (0..200).map(|i| vec![Value::Int(i), Value::str(format!("tag{i}"))]).collect();
        db.insert_rows("parent", parents).unwrap();
        let children: Vec<Row> = (0..8000)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 200),
                    Value::str(format!("some filler payload text {i}")),
                ]
            })
            .collect();
        db.insert_rows("child", children).unwrap();
        db.execute("CREATE INDEX child_parent ON child (c_parent)").unwrap();
        db.runstats_all().unwrap();
        // One selective parent probing a large indexed child: index NLJ.
        let sql = "SELECT cid FROM parent, child \
                   WHERE tag = 'tag7' AND c_parent = pid";
        let explain = db.explain(sql).unwrap().join("\n");
        assert!(explain.contains("index-nested-loop"), "expected index NLJ in: {explain}");
        let r = db.query(sql).unwrap();
        assert_eq!(r.len(), 40);
        // An unselective outer flips to a hash join.
        let sql_all = "SELECT cid FROM parent, child WHERE c_parent = pid";
        let explain = db.explain(sql_all).unwrap().join("\n");
        assert!(explain.contains("hash join"), "expected hash join in: {explain}");
        assert_eq!(db.query(sql_all).unwrap().len(), 8000);
    }

    #[test]
    fn group_by_and_order() {
        let db = db("groupby");
        setup_speech(&db);
        let r = db
            .query(
                "SELECT speech_parentID, COUNT(*) FROM speech \
                 GROUP BY speech_parentID ORDER BY speech_parentID",
            )
            .unwrap();
        assert_eq!(
            r.rows,
            vec![vec![Value::Int(1), Value::Int(2)], vec![Value::Int(2), Value::Int(1)],]
        );
    }

    #[test]
    fn like_predicate() {
        let db = db("like");
        setup_speech(&db);
        let r = db
            .query("SELECT speechID FROM speech WHERE xtext(speech_line) LIKE '%friend%'")
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn persistence_across_reopen() {
        let dir = std::env::temp_dir().join(format!("ordb-db-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, x XADT)").unwrap();
            db.execute("CREATE INDEX t_a ON t (a)").unwrap();
            db.execute("INSERT INTO t VALUES (7, '<e>seven</e>')").unwrap();
            db.flush().unwrap();
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.table_count(), 1);
            let r = db.query("SELECT x FROM t WHERE a = 7").unwrap();
            assert_eq!(r.len(), 1);
            assert_eq!(r.rows[0][0].as_xadt().unwrap().to_plain(), "<e>seven</e>");
        }
    }

    #[test]
    fn sizes_grow_with_data() {
        let db = db("sizes");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        let d0 = db.data_size_bytes().unwrap();
        let rows: Vec<Row> =
            (0..5000).map(|i| vec![Value::Int(i), Value::str(format!("row number {i}"))]).collect();
        db.insert_rows("t", rows).unwrap();
        db.flush().unwrap();
        assert!(db.data_size_bytes().unwrap() > d0);
        assert!(db.index_size_bytes().unwrap() > 0);
        assert_eq!(db.row_count("t").unwrap(), 5000);
    }

    #[test]
    fn type_checking_on_insert() {
        let db = db("typecheck");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert!(db.insert_rows("t", vec![vec![Value::str("no")]]).is_err());
        assert!(db.insert_rows("t", vec![vec![Value::Int(1), Value::Int(2)]]).is_err());
        assert!(db.insert_rows("t", vec![vec![Value::Null]]).is_ok());
    }

    #[test]
    fn index_backfill_after_load() {
        let db = db("backfill");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..100).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.runstats("t").unwrap();
        let explain = db.explain("SELECT a FROM t WHERE a = 42").unwrap().join("");
        assert!(explain.contains("IndexScan"), "{explain}");
        let r = db.query("SELECT a FROM t WHERE a = 42").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(42)]]);
    }

    #[test]
    fn index_backfill_packs_leaves_whatever_the_heap_order() {
        use crate::storage::page::{Page, PAGE_SIZE};
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        // Three rows to a key, so the order among duplicates counts too.
        let n = 20_000i64;
        let load = |tag: &str, order: &[i64]| {
            let db = db(tag);
            db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
            let rows =
                order.iter().map(|&i| vec![Value::Int(i / 3), Value::str(format!("row {i}"))]);
            db.insert_rows("t", rows.collect()).unwrap();
            db.execute("CREATE INDEX t_a ON t (a)").unwrap();
            db.flush().unwrap();
            let tree = db.inner.read().indexes["t_a"].clone();
            let scan = tree.scan_range(None, None, true).unwrap();
            let keys: Vec<Vec<u8>> = scan.into_iter().map(|(k, _)| k).collect();
            (db.index_size_bytes().unwrap(), keys, tree.height().unwrap())
        };
        let mut order: Vec<i64> = (0..n).collect();
        let (bytes, keys, height) = load("packed-asc", &order);
        let mut rng = SmallRng::seed_from_u64(26);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let (shuffled_bytes, shuffled_keys, _) = load("packed-shuffled", &order);
        assert_eq!(bytes, shuffled_bytes, "the heap order changed the index size");
        assert!(keys == shuffled_keys, "the heap order changed the index contents");
        assert_eq!(keys.len(), n as usize);

        // A leaf entry is a u16 length, the 9-byte integer key and the
        // 8-byte rid. Packed: the meta page, full leaves, and one node on
        // each level above them.
        let mut page = Page::new();
        let per_leaf = std::iter::repeat_with(|| page.insert(&[0u8; 2 + 9 + 8]))
            .take_while(Option::is_some)
            .count() as u64;
        let packed = 1 + (n as u64).div_ceil(per_leaf) + u64::from(height - 1);
        let pages = bytes / PAGE_SIZE as u64;
        assert!(
            pages >= packed && pages - packed <= u64::from(height),
            "{pages} index pages; packed minimum {packed} ({per_leaf} keys to a leaf, height {height})"
        );
    }

    #[test]
    fn cold_queries_after_drop_cache() {
        let db = db("cold");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..2000).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        let before = db.metrics_snapshot().pool;
        let r = db.query("SELECT COUNT(*) FROM t").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(2000)));
        let io = db.metrics_snapshot().pool.since(&before);
        assert!(io.misses > 0, "cold run must read from disk: {io:?}");
    }

    #[test]
    fn lateral_unnest_of_computed_expression() {
        let db = db("lateralexpr");
        db.execute("CREATE TABLE pp (sList XADT)").unwrap();
        db.execute(
            "INSERT INTO pp VALUES ('<sList><sListTuple><sectionName>Query Processing</sectionName><articles><aTuple><title>On Joins</title><authors><author>A</author><author>B</author></authors></aTuple></articles></sListTuple></sList>')",
        )
        .unwrap();
        // QG1 shape: authors of papers with 'Join' in the title.
        let r = db
            .query(
                "SELECT u.out FROM pp, \
                 TABLE(unnest(getElm(sList, 'aTuple', 'title', 'Join'), 'author')) u",
            )
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn delete_with_predicate_maintains_indexes() {
        let db = db("delete");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.insert_rows(
            "t",
            (0..100).map(|i| vec![Value::Int(i), Value::str(format!("r{i}"))]).collect(),
        )
        .unwrap();
        let n = db.execute("DELETE FROM t WHERE a >= 50").unwrap();
        assert_eq!(n, 50);
        assert_eq!(db.row_count("t").unwrap(), 50);
        // Index agrees with the heap after the delete.
        db.runstats("t").unwrap();
        let r = db.query("SELECT COUNT(*) FROM t WHERE a = 75").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(0)));
        let r = db.query("SELECT COUNT(*) FROM t WHERE a = 25").unwrap();
        assert_eq!(r.scalar(), Some(&Value::Int(1)));
        // Unconditional delete empties the table.
        assert_eq!(db.execute("DELETE FROM t").unwrap(), 50);
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn drop_table_and_index() {
        let db = db("drop");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("CREATE INDEX t_a ON t (a)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.execute("DROP INDEX t_a").unwrap();
        assert!(db.query("SELECT a FROM t WHERE a = 1").is_ok());
        db.execute("DROP TABLE t").unwrap();
        assert!(db.query("SELECT a FROM t").is_err());
        // Recreating under the same name works.
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        assert_eq!(db.row_count("t").unwrap(), 0);
    }

    #[test]
    fn explain_statement_returns_plan_rows() {
        let db = db("explainsql");
        setup_speech(&db);
        let r = db.query("EXPLAIN SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        assert_eq!(r.columns, vec!["plan".to_string()]);
        assert!(!r.rows.is_empty());
        let text = r.rows.iter().map(|row| row[0].as_str().unwrap()).collect::<Vec<_>>().join("\n");
        assert!(text.contains("scan speech"), "{text}");
    }

    #[test]
    fn explain_analyze_matches_query_for_join() {
        let db = db("analyzejoin");
        setup_speech(&db);
        let sql = "SELECT act_title, speechID FROM speech, act \
                   WHERE speech_parentID = actID";
        let plain = db.query(sql).unwrap();
        let report = db.explain_analyze(sql).unwrap();
        assert_eq!(report.result.len(), plain.len());
        assert_eq!(report.metrics.rows, plain.len() as u64);
        let root = report.metrics.root.as_ref().expect("profiled plan");
        assert_eq!(root.rows_out, plain.len() as u64, "root emits the result rows");
        // The rendered tree mentions both scans and the join.
        let text = report.metrics.render();
        assert!(text.contains("speech"), "{text}");
        assert!(text.contains("act"), "{text}");
        assert!(text.contains("Join"), "{text}");
    }

    #[test]
    fn explain_analyze_matches_query_for_unnest() {
        let db = db("analyzeunnest");
        db.execute("CREATE TABLE speakers (speaker XADT)").unwrap();
        db.execute(
            "INSERT INTO speakers VALUES \
             ('<s>s1</s><s>s2</s>'), ('<s>s1</s>')",
        )
        .unwrap();
        let sql = "SELECT DISTINCT u.out AS SPEAKER \
                   FROM speakers, TABLE(unnest(speaker, 's')) u";
        let plain = db.query(sql).unwrap();
        let report = db.explain_analyze(sql).unwrap();
        assert_eq!(plain.len(), 2);
        assert_eq!(report.result.len(), plain.len());
        assert_eq!(report.metrics.rows, plain.len() as u64);
        // Two outer rows were unnested, over non-empty fragments.
        assert_eq!(report.metrics.engine.unnest_calls, 2);
        assert!(report.metrics.engine.unnest_bytes > 0);
        let text = report.metrics.render();
        assert!(text.contains("UnnestScan"), "{text}");
        assert!(text.contains("Distinct"), "{text}");
    }

    #[test]
    fn explain_analyze_counts_udf_calls() {
        let db = db("analyzeudf");
        setup_speech(&db);
        let report = db
            .explain_analyze(
                "SELECT speechID FROM speech \
                 WHERE findKeyInElm(speech_speaker, 'SPEAKER', 'HAMLET') = 1",
            )
            .unwrap();
        let fk = report
            .metrics
            .udfs
            .iter()
            .find(|u| u.name == "findKeyInElm")
            .expect("findKeyInElm counted");
        assert_eq!(fk.calls, 3, "called once per speech row");
        assert!(fk.marshalled_bytes > 0, "UDF path marshals scalar args");
    }

    #[test]
    fn warm_scan_improves_hit_ratio() {
        let db = db("warmscan");
        db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
        db.insert_rows(
            "t",
            (0..4000)
                .map(|i| vec![Value::Int(i), Value::str(format!("payload row {i}"))])
                .collect(),
        )
        .unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        let sql = "SELECT COUNT(*) FROM t";
        let cold = db.explain_analyze(sql).unwrap().metrics.pool;
        let warm = db.explain_analyze(sql).unwrap().metrics.pool;
        assert!(cold.misses > 0, "cold scan reads from disk: {cold:?}");
        assert!(
            warm.hit_ratio() > cold.hit_ratio(),
            "warm repeat must hit the pool: cold {cold:?}, warm {warm:?}"
        );
        assert_eq!(warm.misses, 0, "fully cached on the warm run: {warm:?}");
    }

    #[test]
    fn drop_cache_writebacks_not_charged_to_next_window() {
        let db = db("dropchargewindow");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..500).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        // Dirty frames exist now; open a window, then drop the cache.
        let before = db.metrics_snapshot().pool;
        db.drop_cache().unwrap();
        let window = db.metrics_snapshot().pool.since(&before);
        assert_eq!(
            window.writebacks, 0,
            "cache-teardown flushes must not land in the measurement window: {window:?}"
        );
        // An explicit flush IS charged.
        let before = db.metrics_snapshot().pool;
        db.insert_rows("t", vec![vec![Value::Int(9999)]]).unwrap();
        db.flush().unwrap();
        assert!(db.metrics_snapshot().pool.since(&before).writebacks > 0);
    }

    #[test]
    fn order_by_desc_and_limit() {
        let db = db("orderlimit");
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.insert_rows("t", (0..10).map(|i| vec![Value::Int(i)]).collect()).unwrap();
        let r = db.query("SELECT a FROM t ORDER BY a DESC LIMIT 3").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(9)], vec![Value::Int(8)], vec![Value::Int(7)]]);
    }

    #[test]
    fn explain_performs_zero_pool_fetches() {
        // Regression: operator builds used to run at construction time,
        // so EXPLAIN did real heap scans and hash-table builds just to
        // print the plan.
        let db = db("explainnofetch");
        setup_speech(&db);
        db.execute("CREATE INDEX idx_parent ON speech (speech_parentID)").unwrap();
        db.flush().unwrap();
        db.drop_cache().unwrap();
        let before = db.metrics_snapshot().pool;
        for sql in [
            "EXPLAIN SELECT speechID FROM speech WHERE speech_parentID = 1",
            "EXPLAIN SELECT s.speechID, a.act_title FROM speech s, act a \
             WHERE s.speech_parentID = a.actID",
            "EXPLAIN SELECT COUNT(*) FROM speech s, act a \
             WHERE s.speech_parentID = a.actID AND a.act_title = 'Act I'",
        ] {
            let plan = db.query(sql).unwrap();
            assert!(!plan.rows.is_empty(), "plan rows for {sql}");
        }
        let window = db.metrics_snapshot().pool.since(&before);
        assert_eq!(window.fetches(), 0, "EXPLAIN must touch zero pages: {window:?}");
    }

    #[test]
    fn commit_then_crash_recovers_everything() {
        // A load is durable when `insert_rows` returns; then "crash"
        // (abandon the handle so nothing flushes): the data files never
        // saw the committed pages. Reopen must replay them all from the
        // WAL.
        let dir = std::env::temp_dir().join(format!("ordb-db-crashrec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER, b VARCHAR)").unwrap();
            db.execute("CREATE INDEX t_a ON t (a)").unwrap();
            let before = db.wal.stats();
            db.insert_rows(
                "t",
                (0..500).map(|i| vec![Value::Int(i), Value::str(format!("row {i}"))]).collect(),
            )
            .unwrap();
            let logged = db.wal.stats().since(&before);
            assert!(logged.appends > 0, "dirty pages must be logged at commit: {logged:?}");
            assert_eq!((logged.commit_records, logged.fsyncs), (1, 1), "one durable commit");
            db.abandon();
        }
        {
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert!(rec.replayed_pages > 0, "crash lost data pages: {rec:?}");
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(500))
            );
            db.runstats("t").unwrap();
            let r = db.query("SELECT b FROM t WHERE a = 123").unwrap();
            assert_eq!(r.rows, vec![vec![Value::str("row 123")]]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_page_repaired_from_wal_not_served_as_garbage() {
        // Corrupt a data page on disk after a clean close. Because the
        // close checkpoint replaced the WAL, re-log the pages first by
        // committing without checkpointing — then tear. Reopen must
        // restore the page from the log, and the query result must be
        // exactly the pre-corruption answer.
        let dir = std::env::temp_dir().join(format!("ordb-db-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file_id;
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..300).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            file_id = db.table_def("t").unwrap().file;
            // The insert's commit left every page image in the WAL.
            db.flush().unwrap(); // data file holds them too
            db.abandon(); // no checkpoint: the WAL survives
        }
        // Tear the first data page: garbage second half.
        let path = file_path(&dir, file_id);
        let mut raw = std::fs::read(&path).unwrap();
        for b in raw.iter_mut().take(crate::storage::page::PAGE_SIZE).skip(2048) {
            *b = 0xA5;
        }
        std::fs::write(&path, &raw).unwrap();
        {
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert!(rec.replayed_pages >= 1, "torn page must be replayed: {rec:?}");
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(300))
            );
            let r = db.query("SELECT COUNT(*) FROM t WHERE a < 10").unwrap();
            assert_eq!(r.scalar(), Some(&Value::Int(10)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_the_log_cannot_repair_is_detected() {
        // A clean close checkpoints and replaces the log, so no page
        // image is left to repair from: the page checksum alone must turn
        // silent corruption into a hard error.
        let dir = std::env::temp_dir().join(format!("ordb-db-norepair-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let file_id;
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..300).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            file_id = db.table_def("t").unwrap().file;
            db.close().unwrap();
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(
            wal_len,
            crate::storage::wal::record_size(crate::storage::wal::CHECKPOINT_PAYLOAD) as u64,
            "a clean close leaves no page image in the log"
        );
        let path = file_path(&dir, file_id);
        let mut raw = std::fs::read(&path).unwrap();
        raw[777] ^= 0x20;
        std::fs::write(&path, &raw).unwrap();
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(db.recovery_report().expect("wal existed").replayed_pages, 0);
            match db.query("SELECT COUNT(*) FROM t") {
                Err(DbError::Corrupt(_)) => {}
                other => panic!("bit flip must surface as Corrupt, got {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn close_is_idempotent_and_drop_after_close_does_nothing() {
        let dir = std::env::temp_dir().join(format!("ordb-db-close-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..50).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            db.checkpoint().unwrap();
            db.close().unwrap();
            // `close` consumed the handle; `Drop` already saw the closed
            // flag. A clean close leaves a checkpoint-only WAL.
        }
        for absent in ["wal.meta", "txn.meta", "wal.log.tmp"] {
            assert!(!dir.join(absent).exists(), "the log is the only recovery state: {absent}");
        }
        let wal_len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
        assert_eq!(
            wal_len,
            crate::storage::wal::record_size(crate::storage::wal::CHECKPOINT_PAYLOAD) as u64,
            "clean close leaves a single checkpoint record"
        );
        {
            // Reopen after a clean close: nothing to replay.
            let db = Database::open(&dir).unwrap();
            let rec = db.recovery_report().expect("wal existed");
            assert_eq!(rec.replayed_pages, 0, "{rec:?}");
            assert_eq!(db.query("SELECT COUNT(*) FROM t").unwrap().scalar(), Some(&Value::Int(50)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_behind_an_open_transaction_survives_a_crashed_checkpoint() {
        // Transaction A stays open over an insert while B commits after
        // it, so the checkpoint must carry B's commit record into the new
        // log. The crash lands on that rewrite: on reopen B's row is
        // there, A's is not, and the index agrees with the heap.
        use crate::plan::ForcedAccess;
        use crate::storage::fault::{CrashMode, FaultInjector, FaultPlan, FaultScope};
        for (i, mode) in
            [CrashMode::Drop, CrashMode::Tear, CrashMode::BitFlip].into_iter().enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("ordb-db-ckpt-relog-{i}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let inj = FaultInjector::new();
            let db = Database::open_with(
                &dir,
                DbOptions { fault: Some(inj.clone()), ..Default::default() },
            )
            .unwrap();
            db.execute("CREATE TABLE t (id INTEGER)").unwrap();
            db.execute("CREATE INDEX t_id ON t (id)").unwrap();
            let mut open = db.session();
            open.execute("BEGIN").unwrap();
            open.execute("INSERT INTO t VALUES (2)").unwrap();
            let mut committed = db.session();
            committed.execute("BEGIN").unwrap();
            committed.execute("INSERT INTO t VALUES (3)").unwrap();
            committed.execute("COMMIT").unwrap();
            drop(committed);
            inj.arm(FaultPlan { crash_after: 0, mode, scope: FaultScope::Wal, seed: 7 + i as u64 });
            assert!(db.checkpoint().is_err(), "{mode:?}: the log rewrite crashed");
            // The process dies with A open: nothing rolls it back.
            std::mem::forget(open);
            db.abandon();
            inj.disarm();

            let db = Database::open(&dir).unwrap();
            for access in [ForcedAccess::SeqScan, ForcedAccess::IndexScan] {
                let forcing = PlanForcing { access: Some(access), ..Default::default() };
                let rows =
                    db.session().with_forcing(forcing).query("SELECT id FROM t WHERE id >= 0");
                assert_eq!(rows.unwrap().rows, vec![vec![Value::Int(3)]], "{mode:?} {access:?}");
            }
            db.close().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn crash_during_open_repair_leaves_no_index_entry_to_alias_a_later_row() {
        // Open's repair of an uncommitted insert crashes at its first log
        // write. The next open must still take the version out, index
        // entry first: a slot freed later without its entry would be
        // revived by the next insert, and a probe for the dead key would
        // find the new row.
        use crate::plan::ForcedAccess;
        use crate::storage::fault::{CrashMode, FaultInjector, FaultPlan, FaultScope};
        for (i, mode) in
            [CrashMode::Drop, CrashMode::Tear, CrashMode::BitFlip].into_iter().enumerate()
        {
            let dir =
                std::env::temp_dir().join(format!("ordb-db-undo-crash-{i}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let inj = FaultInjector::new();
            let opts = DbOptions { fault: Some(inj.clone()), ..Default::default() };
            let db = Database::open_with(&dir, opts.clone()).unwrap();
            db.execute("CREATE TABLE t (id INTEGER)").unwrap();
            db.execute("CREATE INDEX t_id ON t (id)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            let mut open = db.session();
            open.execute("BEGIN").unwrap();
            open.execute("INSERT INTO t VALUES (2)").unwrap();
            db.checkpoint().unwrap();
            std::mem::forget(open);
            db.abandon();

            inj.arm(FaultPlan {
                crash_after: 0,
                mode,
                scope: FaultScope::Wal,
                seed: 11 + i as u64,
            });
            assert!(Database::open_with(&dir, opts.clone()).is_err(), "{mode:?}: repair crashed");
            inj.disarm();

            let db = Database::open_with(&dir, opts).unwrap();
            db.execute("DELETE FROM t WHERE id = 1").unwrap();
            db.vacuum().unwrap();
            db.execute("INSERT INTO t VALUES (5)").unwrap();
            db.execute("INSERT INTO t VALUES (6)").unwrap();
            let ids = |access: ForcedAccess, sql: &str| -> Vec<Row> {
                let forcing = PlanForcing { access: Some(access), ..Default::default() };
                let mut rows = db.session().with_forcing(forcing).query(sql).unwrap().rows;
                rows.sort_by_key(|r| r[0].as_int());
                rows
            };
            for access in [ForcedAccess::SeqScan, ForcedAccess::IndexScan] {
                let all = ids(access, "SELECT id FROM t WHERE id >= 0");
                assert_eq!(
                    all,
                    vec![vec![Value::Int(5)], vec![Value::Int(6)]],
                    "{mode:?} {access:?}"
                );
                let two = ids(access, "SELECT id FROM t WHERE id = 2");
                assert!(two.is_empty(), "{mode:?} {access:?}: id = 2 found {two:?}");
            }
            // Every index entry resolves to a live version with its key.
            let inner = db.inner.read();
            let (heap, tree) = (&inner.heaps["t"], &inner.indexes["t_id"]);
            for (key, rid) in tree.scan_range(None, None, true).unwrap() {
                let v = heap.get_versioned(rid).unwrap().expect("index entry resolves");
                assert_eq!(v.xmax, 0, "{mode:?}: entry at {rid:?} names a deleted version");
                assert_eq!(encode_key(&decode_row(&v.body, 1).unwrap()), key, "{mode:?} {rid:?}");
            }
            drop(inner);
            db.close().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn drop_flushes_dirty_pages_best_effort() {
        // No explicit flush/close: Drop's checkpoint must still land the
        // rows (the drop_cache-teardown loss mode from the issue).
        let dir = std::env::temp_dir().join(format!("ordb-db-dropflush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..200).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            // db dropped here without flush().
        }
        {
            let db = Database::open(&dir).unwrap();
            assert_eq!(
                db.query("SELECT COUNT(*) FROM t").unwrap().scalar(),
                Some(&Value::Int(200))
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explain_analyze_reports_wal_delta_zero_for_reads() {
        let db = db("walmetrics");
        setup_speech(&db);
        let report = db.explain_analyze("SELECT COUNT(*) FROM speech").unwrap();
        assert_eq!(report.metrics.wal.appends, 0, "read-only query logs nothing");
        let j = report.metrics.to_json();
        assert!(j.contains("\"wal\":{"), "{j}");
    }

    #[test]
    fn concurrent_queries_match_single_threaded_baseline() {
        // N threads fire the same mixed read-only workload at one shared
        // Database; every thread must see exactly the single-threaded
        // results. Run with a tiny pool so eviction churn is constant.
        let dir = std::env::temp_dir().join(format!("ordb-db-concurrent-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db =
            Database::open_with(&dir, DbOptions { pool_frames: 16, ..Default::default() }).unwrap();
        setup_speech(&db);
        db.execute("CREATE INDEX idx_parent ON speech (speech_parentID)").unwrap();
        let workload = [
            "SELECT speechID FROM speech WHERE speech_parentID = 1",
            "SELECT COUNT(*) FROM speech",
            "SELECT s.speechID, a.act_title FROM speech s, act a \
             WHERE s.speech_parentID = a.actID",
            "SELECT speechID FROM speech \
             WHERE xtext(speech_line) LIKE '%friend%'",
            "SELECT a.act_title, COUNT(*) FROM speech s, act a \
             WHERE s.speech_parentID = a.actID GROUP BY a.act_title",
        ];
        let baseline: Vec<_> = workload.iter().map(|sql| db.query(sql).unwrap()).collect();
        std::thread::scope(|s| {
            for t in 0..8 {
                let db = &db;
                let baseline = &baseline;
                s.spawn(move || {
                    for round in 0..10 {
                        // Stagger thread start points so different queries
                        // overlap in the pool and the btree latches.
                        let shift = (t + round) % workload.len();
                        for i in 0..workload.len() {
                            let idx = (i + shift) % workload.len();
                            let got = db.query(workload[idx]).unwrap();
                            let mut got_rows = got.rows;
                            let mut want_rows = baseline[idx].rows.clone();
                            got_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                            want_rows.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
                            assert_eq!(got_rows, want_rows, "query {idx} diverged on thread {t}");
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn analyze_spans_nest_phases_and_pulled_operators() {
        let db = db("spans");
        setup_speech(&db);
        let sql = "SELECT speechID FROM speech WHERE speech_parentID = 1";
        let m = db.explain_analyze(sql).unwrap().metrics;
        let spans = m.spans();
        let roots: Vec<_> = spans.iter().filter(|s| s.parent.is_none()).collect();
        assert_eq!(roots.len(), 1, "one root: {spans:?}");
        let query = roots[0];
        assert_eq!((query.name.as_str(), query.start_ns), ("query", m.start_ns));
        // parse, plan and exec are its children, laid end to end.
        let phases: Vec<_> = spans.iter().filter(|s| s.parent == Some(query.id)).collect();
        let names: Vec<&str> = phases.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["parse", "plan", "exec"]);
        let mut at = m.start_ns;
        for phase in &phases {
            assert_eq!(phase.start_ns, at, "{} starts where the last phase ended", phase.name);
            at = phase.end_ns();
        }
        assert!(at <= query.end_ns(), "phases fit in the statement's wall time");
        // The scan hangs under exec, stamped on the same clock.
        let exec = phases[2];
        let scan = spans.iter().find(|s| s.name.contains("Scan")).expect("an operator span");
        let mut up = scan;
        while let Some(p) = up.parent.filter(|&p| p != exec.id) {
            up = spans.iter().find(|s| s.id == p).expect("parent in the list");
        }
        assert_eq!(up.parent, Some(exec.id), "operator spans sit under exec");
        assert!(scan.start_ns >= exec.start_ns, "the first pull follows the phases");

        // LIMIT 0 never pulls the join below it: the profile has the join,
        // the spans do not.
        let m = db
            .explain_analyze(
                "SELECT s.speechID FROM speech s, act a \
                 WHERE s.speech_parentID = a.actID LIMIT 0",
            )
            .unwrap()
            .metrics;
        let ops: Vec<String> = m.spans().into_iter().skip(4).map(|s| s.name).collect();
        assert_eq!(ops, ["Limit 0"], "only the pulled operator has a span");
        let root = m.root.expect("profiled");
        assert!(root.children[0].start_ns.is_none(), "{root:?}");
    }

    #[test]
    fn metrics_snapshot_diff_counts_queries_and_latency() {
        let db = db("registry");
        setup_speech(&db);
        let before = db.metrics_snapshot();
        db.query("SELECT COUNT(*) FROM speech").unwrap();
        db.query("SELECT speechID FROM speech WHERE speech_parentID = 1").unwrap();
        db.explain_analyze("SELECT COUNT(*) FROM act").unwrap();
        let delta = db.metrics_snapshot().since(&before);
        assert_eq!(delta.queries, 3, "plain and instrumented paths both count");
        assert_eq!(delta.latency.count(), 3);
        assert!(delta.latency.p50() > 0, "latencies are non-zero nanoseconds");
        assert!(delta.latency.p999() >= delta.latency.p50());
        // The unified snapshot carries pool counters from the same window.
        assert!(delta.pool.fetches() > 0, "queries touch the buffer pool");
        let json = delta.to_json();
        assert!(json.contains("\"queries\":3"), "snapshot JSON: {json}");
    }

    fn setup_churn(db: &Database, rows: usize) {
        db.execute("CREATE TABLE churn (id INTEGER, payload VARCHAR)").unwrap();
        db.execute("CREATE INDEX churn_id ON churn (id)").unwrap();
        fill_churn(db, rows);
    }

    fn fill_churn(db: &Database, rows: usize) {
        let batch: Vec<Row> = (0..rows)
            .map(|i| {
                vec![Value::Int(i as i64), Value::str(format!("payload-{i:04}-{}", "x".repeat(80)))]
            })
            .collect();
        db.insert_rows("churn", batch).unwrap();
    }

    #[test]
    fn vacuum_reclaims_deleted_versions_and_footprint_stays_flat() {
        let db = db("vacuum-churn");
        setup_churn(&db, 200);
        // One full cycle first so the file reaches its steady-state size.
        db.execute("DELETE FROM churn").unwrap();
        let report = db.vacuum().unwrap();
        assert!(report.vacuumed_versions >= 200, "first pass reclaims: {report:?}");
        fill_churn(&db, 200);
        let steady = db.data_size_bytes().unwrap();
        for _ in 0..4 {
            db.execute("DELETE FROM churn").unwrap();
            let r = db.vacuum().unwrap();
            assert!(r.vacuumed_versions >= 200, "each pass reclaims the churn: {r:?}");
            fill_churn(&db, 200);
        }
        assert_eq!(
            db.data_size_bytes().unwrap(),
            steady,
            "vacuum + free-space reuse keeps the heap footprint flat under churn"
        );
        // The surviving data is intact and the index still agrees.
        assert_eq!(db.row_count("churn").unwrap(), 200);
        let r = db.query("SELECT payload FROM churn WHERE id = 7").unwrap();
        assert_eq!(r.len(), 1);
        // A second pass with nothing dead reclaims nothing.
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 0);
    }

    #[test]
    fn vacuum_sql_statement_reports_reclaimed_count() {
        let db = db("vacuum-sql");
        setup_speech(&db);
        db.execute("DELETE FROM speech WHERE speech_parentID = 1").unwrap();
        let reclaimed = db.execute("VACUUM").unwrap();
        assert_eq!(reclaimed, 2, "both deleted speeches are reclaimed");
        assert_eq!(db.execute("VACUUM").unwrap(), 0, "second pass finds nothing");
        assert_eq!(db.query("SELECT speechID FROM speech").unwrap().len(), 1);
    }

    #[test]
    fn open_transaction_pins_vacuum_watermark() {
        let db = db("vacuum-pin");
        setup_speech(&db);
        let mut t = db.session();
        t.execute("BEGIN").unwrap();
        db.execute("DELETE FROM speech").unwrap();
        let report = db.vacuum().unwrap();
        assert_eq!(
            report.vacuumed_versions, 0,
            "versions visible to the open snapshot survive: {report:?}"
        );
        let r = t.query("SELECT speechID FROM speech").unwrap();
        assert_eq!(r.len(), 3, "the pinned snapshot still reads the pre-delete rows");
        t.execute("COMMIT").unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 3, "releasing the pin unblocks reclaim");
    }

    #[test]
    fn seq_scan_respects_open_snapshot() {
        // The scan filters whole pages at a time: uncommitted writes and
        // post-snapshot commits stay invisible under a pinned snapshot,
        // and only the uncommitted ones under a fresh autocommit snapshot.
        let db = db("scan-snapshot");
        setup_speech(&db);
        let mut t = db.session();
        t.execute("BEGIN").unwrap();
        // Another connection inserts but never commits...
        let mut other = db.session();
        other.execute("BEGIN").unwrap();
        other
            .execute(
                "INSERT INTO speech VALUES (13, 2, 'ACT', \
                 '<SPEAKER>GHOST</SPEAKER>', '<LINE>mark me</LINE>')",
            )
            .unwrap();
        // ...and an autocommit insert lands after the pinned snapshot.
        db.execute(
            "INSERT INTO speech VALUES (14, 2, 'ACT', \
             '<SPEAKER>MARCELLUS</SPEAKER>', '<LINE>peace, break thee off</LINE>')",
        )
        .unwrap();
        let check = |s: &Session, want: usize, label: &str| {
            let sql = "SELECT speechID, speech_speaker FROM speech";
            assert_eq!(s.query(sql).unwrap().len(), want, "{label}");
        };
        check(&t, 3, "pinned snapshot hides uncommitted and post-BEGIN rows");
        check(&db.session(), 4, "fresh snapshot hides only the uncommitted insert");
        other.execute("ROLLBACK").unwrap();
        t.execute("COMMIT").unwrap();
        check(&db.session(), 4, "rollback leaves the aborted insert invisible");
    }

    #[test]
    fn seq_scan_hides_vacuumed_versions() {
        // Deleted-but-pinned versions survive for the pinned scan, and
        // once vacuum reclaims them the pages read as empty.
        let db = db("scan-vacuum");
        setup_speech(&db);
        let check = |s: &Session, want: usize, label: &str| {
            let sql = "SELECT speechID, speech_line FROM speech";
            assert_eq!(s.query(sql).unwrap().len(), want, "{label}");
        };
        let mut t = db.session();
        t.execute("BEGIN").unwrap();
        db.execute("DELETE FROM speech").unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 0, "open snapshot blocks reclaim");
        check(&t, 3, "pinned snapshot still reads the deleted versions");
        check(&db.session(), 0, "fresh snapshot sees the delete");
        t.execute("COMMIT").unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 3, "commit releases the pin");
        check(&db.session(), 0, "post-vacuum the heap reads as empty");
    }

    /// `t(id, body)` with `n` rows, every tenth body in an overflow chain.
    fn setup_blobby(db: &Database, n: i64) {
        db.execute("CREATE TABLE t (id INTEGER, body VARCHAR)").unwrap();
        let body = |i: i64| if i % 10 == 5 { "x".repeat(9000) } else { format!("row-{i}") };
        db.insert_rows("t", (0..n).map(|i| vec![Value::Int(i), Value::str(body(i))]).collect())
            .unwrap();
    }

    #[test]
    fn scan_paused_mid_file_reads_its_snapshot_through_churn_and_vacuum() {
        let db = db("scan-paused");
        setup_blobby(&db, 600);
        // Dead before the reader begins: vacuum may take these from
        // under a scan that has not reached them yet.
        db.execute("DELETE FROM t WHERE id >= 300 AND id < 330").unwrap();
        let mut reader = db.session();
        reader.execute("BEGIN").unwrap();
        let sql = "SELECT id, body FROM t";
        let want = reader.query(sql).unwrap().rows;
        assert_eq!(want.len(), 570);
        // The same scan, stopped after its first row: one page visited,
        // the rest of the file ahead of it.
        let Statement::Select(q) = parse_statement(sql).unwrap() else { unreachable!() };
        let mut scan = {
            let inner = db.inner.read();
            let ctx = db.plan_ctx(&inner, None, reader.snapshot().unwrap());
            crate::plan::plan_select(&ctx, &q).unwrap().root
        };
        let mut got = vec![scan.next().unwrap().expect("a first row")];
        // Beside it: rows it sees are deleted behind and ahead of it, the
        // dead ones are reclaimed (slots and overflow chains), and new
        // rows — some with chains — move into the space.
        db.execute("DELETE FROM t WHERE id < 10").unwrap();
        db.execute("DELETE FROM t WHERE id >= 400").unwrap();
        assert_eq!(db.vacuum().unwrap().vacuumed_versions, 30, "the reader pins the rest");
        let newer =
            |i: i64| vec![Value::Int(i), Value::str("y".repeat(if i % 7 == 0 { 9000 } else { 9 }))];
        db.insert_rows("t", (1000..1100).map(newer).collect()).unwrap();
        while let Some(row) = scan.next().unwrap() {
            got.push(row);
        }
        assert_eq!(got, want, "the paused scan read something other than its snapshot");
        reader.execute("COMMIT").unwrap();
        assert_eq!(db.row_count("t").unwrap(), 570 - 10 - 200 + 100);
    }

    #[test]
    fn concurrent_scan_beside_churn_rollback_and_vacuum_sees_only_committed_rows() {
        use std::sync::atomic::Ordering::SeqCst;
        let db = db("concurrent-scan-churn");
        setup_blobby(&db, 300);
        let sql = "SELECT id, body FROM t";
        let want = db.query(sql).unwrap().rows;
        let done = AtomicBool::new(false);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            // Every scan takes a fresh snapshot; what the writer commits
            // never changes what a snapshot sees, so each scan must read
            // exactly the base rows whatever it overlaps with.
            let scanner = s.spawn(|| {
                start.wait();
                let mut scans = 0;
                while !done.load(SeqCst) || scans < 10 {
                    assert_eq!(db.query(sql).unwrap().rows, want, "scan {scans}");
                    scans += 1;
                }
            });
            start.wait();
            for round in 0..30i64 {
                let fresh = |n: i64| {
                    let id = 10_000 + round * 100 + n;
                    let body = "z".repeat(if n % 3 == 0 { 9000 } else { 12 });
                    format!("INSERT INTO t VALUES ({id}, '{body}')")
                };
                // Inserted and deleted in one transaction: dead on
                // commit, with chains, for the next vacuum pass.
                let mut txn = db.session();
                txn.execute("BEGIN").unwrap();
                for n in 0..6 {
                    txn.execute(&fresh(n)).unwrap();
                }
                txn.execute("DELETE FROM t WHERE id >= 10000").unwrap();
                txn.execute("COMMIT").unwrap();
                // Inserted and rolled back: slots and chains physically
                // removed, possibly while the scan is reading them.
                txn.execute("BEGIN").unwrap();
                for n in 6..12 {
                    txn.execute(&fresh(n)).unwrap();
                }
                txn.execute("ROLLBACK").unwrap();
                db.vacuum().unwrap();
            }
            done.store(true, SeqCst);
            scanner.join().expect("scanner");
        });
        assert_eq!(db.query(sql).unwrap().rows, want);
    }

    #[test]
    fn auto_vacuum_runs_on_checkpoint_after_deletes() {
        let db = db("vacuum-auto");
        setup_speech(&db);
        db.execute("DELETE FROM speech").unwrap();
        db.checkpoint().unwrap();
        assert_eq!(
            db.vacuum().unwrap().vacuumed_versions,
            0,
            "checkpoint's auto-vacuum already reclaimed the deletes"
        );
    }

    #[test]
    fn vacuum_frees_overflow_chains_and_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("ordb-db-vacuum-reopen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE blobs (id INTEGER, body VARCHAR)").unwrap();
        let big: Vec<Row> =
            (0..8).map(|i| vec![Value::Int(i), Value::str("y".repeat(6000))]).collect();
        db.insert_rows("blobs", big).unwrap();
        db.execute("DELETE FROM blobs WHERE id < 6").unwrap();
        let report = db.vacuum().unwrap();
        assert_eq!(report.vacuumed_versions, 6);
        assert!(report.freed_pages > 0, "overflow chains return whole pages: {report:?}");
        db.close().unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.row_count("blobs").unwrap(), 2);
        let r = db.query("SELECT id FROM blobs").unwrap();
        assert_eq!(r.len(), 2);
        // Freed overflow pages are reused by fresh inserts after reopen.
        let before = db.data_size_bytes().unwrap();
        db.insert_rows("blobs", vec![vec![Value::Int(100), Value::str("z".repeat(6000))]]).unwrap();
        assert_eq!(db.data_size_bytes().unwrap(), before, "reopen rebuilds the free-space map");
    }

    #[test]
    fn explain_analyze_counts_only_its_own_statement_while_another_session_runs() {
        let db = db("analyze-alone");
        db.execute("CREATE TABLE t (id INTEGER, v VARCHAR)").unwrap();
        let rows = (0..2000).map(|i| vec![Value::Int(i), Value::str(format!("v{i}"))]).collect();
        db.insert_rows("t", rows).unwrap();
        db.execute("CREATE INDEX t_id ON t (id)").unwrap();
        db.runstats("t").unwrap();
        let sql = "SELECT COUNT(*) FROM t";
        let solo = db.explain_analyze(sql).unwrap().metrics;
        assert_eq!(solo.engine.index_probes, 0, "a sequential scan probes no index");
        let stop = AtomicBool::new(false);
        let ran = AtomicU64::new(0);
        let runs = std::thread::scope(|s| {
            s.spawn(|| {
                let mut k = 0;
                while !stop.load(Ordering::Relaxed) {
                    let point = format!("SELECT udf_length(v) FROM t WHERE id = {k}");
                    assert_eq!(db.query(&point).unwrap().len(), 1);
                    ran.fetch_add(1, Ordering::Relaxed);
                    k = (k + 7) % 2000;
                }
            });
            while ran.load(Ordering::Relaxed) == 0 {
                std::thread::yield_now();
            }
            let runs: Result<Vec<QueryMetrics>> =
                (0..200).map(|_| db.explain_analyze(sql).map(|r| r.metrics)).collect();
            stop.store(true, Ordering::Relaxed);
            runs
        })
        .unwrap();
        assert!(ran.load(Ordering::Relaxed) > 1, "the point queries ran alongside");
        for (run, m) in runs.iter().enumerate() {
            let seen = (m.engine.index_probes, m.pool.fetches(), &m.udfs);
            assert_eq!(seen, (0, solo.pool.fetches(), &solo.udfs), "run {run}");
        }
    }

    #[test]
    fn concurrent_vacuums_of_two_databases_each_report_their_own_pages() {
        let deleted = |tag: &str| {
            let db = db(tag);
            db.execute("CREATE TABLE blobs (id INTEGER, body VARCHAR)").unwrap();
            let big = (0..20).map(|i| vec![Value::Int(i), Value::str("w".repeat(20_000))]);
            db.insert_rows("blobs", big.collect()).unwrap();
            db.execute("DELETE FROM blobs").unwrap();
            db
        };
        let solo = deleted("vacuum-solo").vacuum().unwrap().freed_pages;
        assert!(solo > 20, "every row's chain comes back: {solo}");
        for round in 0..10 {
            let (a, b) = (deleted("vacuum-pair-a"), deleted("vacuum-pair-b"));
            let start = std::sync::Barrier::new(2);
            let vacuum = |db: &Database| {
                start.wait();
                db.vacuum().unwrap().freed_pages
            };
            let reports = std::thread::scope(|s| {
                let pass = s.spawn(|| vacuum(&a));
                (vacuum(&b), pass.join().unwrap())
            });
            assert_eq!(reports, (solo, solo), "round {round}");
        }
    }

    /// The data files in `dir`, sorted by name.
    fn dat_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.ends_with(".dat"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn ddl_is_durable_when_it_returns() {
        // No commit, no checkpoint: the process dies right after the two
        // statements return, and the next open must find both.
        use crate::plan::ForcedAccess;
        let db = db("ddl-crash-create");
        let dir = db.dir.clone();
        db.execute("CREATE TABLE u (id INTEGER)").unwrap();
        db.execute("CREATE INDEX u_id ON u (id)").unwrap();
        db.abandon();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.table_names(), vec!["u".to_string()]);
        db.execute("INSERT INTO u VALUES (1), (2), (3)").unwrap();
        let forcing = PlanForcing { access: Some(ForcedAccess::IndexScan), ..Default::default() };
        let session = db.session().with_forcing(forcing);
        let sql = "SELECT id FROM u WHERE id >= 2";
        assert!(session.explain(sql).unwrap().iter().any(|l| l.contains("IndexScan")));
        let rows = session.query(sql).unwrap().rows;
        assert_eq!(rows, vec![vec![Value::Int(2)], vec![Value::Int(3)]]);
        drop(session);
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_table_stays_dropped_across_a_crash() {
        let db = db("ddl-crash-drop");
        let dir = db.dir.clone();
        db.execute("CREATE TABLE u (id INTEGER)").unwrap();
        db.execute("INSERT INTO u VALUES (1)").unwrap();
        let file = file_path(&dir, db.table_def("u").unwrap().file);
        assert!(file.exists());
        db.execute("DROP TABLE u").unwrap();
        db.abandon();
        // Redo may write the table's logged pages back; open deletes the
        // file again, since no live catalog row names it.
        let db = Database::open(&dir).unwrap();
        assert!(!file.exists(), "{} survived the crashed drop", file.display());
        assert!(db.table_names().is_empty());
        db.close().unwrap();
        let db = Database::open(&dir).unwrap();
        assert!(!file.exists(), "{} came back after a clean reopen", file.display());
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_ddl_leaves_no_file_behind() {
        let db = db("ddl-failed");
        let dir = db.dir.clone();
        db.execute("CREATE TABLE t (id INTEGER)").unwrap();
        db.create_index("t_id", "t", vec!["id".into()]).unwrap();
        let before = dat_files(&dir);
        assert!(db.create_index("t_id", "t", vec!["id".into()]).is_err(), "duplicate index");
        assert!(db.create_index("t_x", "t", vec!["nope".into()]).is_err(), "unknown column");
        assert!(db.create_index("t_y", "nope", vec!["id".into()]).is_err(), "unknown table");
        assert!(db.create_table("T", vec![]).is_err(), "duplicate table");
        db.checkpoint().unwrap();
        assert_eq!(dat_files(&dir), before);
        let twice =
            vec![ColumnDef::new("a", DataType::Integer), ColumnDef::new("A", DataType::Varchar)];
        assert!(db.create_table("w", twice).is_err(), "duplicate column");
        db.checkpoint().unwrap();
        assert_eq!(dat_files(&dir), before);
        db.close().unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(dat_files(&dir), before);
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_refuses_a_directory_holding_catalog_txt() {
        let db = db("catalog-txt");
        let dir = db.dir.clone();
        db.execute("CREATE TABLE t (a INTEGER)").unwrap();
        db.execute("INSERT INTO t VALUES (1)").unwrap();
        db.close().unwrap();
        // The catalog as an older version kept it, beside the files.
        std::fs::write(dir.join("catalog.txt"), "next_file 2\ntable t 1 1\n  col a INTEGER\n")
            .unwrap();
        let contents = || {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .map(|p| (p.display().to_string(), std::fs::read(&p).unwrap()))
                .collect();
            files.sort();
            files
        };
        let before = contents();
        let err = Database::open(&dir).err().expect("a catalog.txt directory must be refused");
        assert!(err.to_string().contains("catalog.txt"), "the error names the file: {err}");
        assert_eq!(contents(), before, "refused before anything was written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_drop_cycles_keep_the_catalog_heap_flat() {
        let db = db("ddl-cycles");
        let dir = db.dir.clone();
        let catalog = file_path(&dir, CATALOG_FILE);
        let mut sizes = Vec::new();
        for i in 0..60 {
            db.execute(&format!("CREATE TABLE t{i} (id INTEGER, v VARCHAR)")).unwrap();
            db.execute(&format!("CREATE INDEX t{i}_id ON t{i} (id)")).unwrap();
            db.execute(&format!("DROP TABLE t{i}")).unwrap();
            // The drop's dead rows feed checkpoint's vacuum pass.
            db.checkpoint().unwrap();
            sizes.push(std::fs::metadata(&catalog).unwrap().len());
        }
        assert!(sizes.iter().all(|s| *s == sizes[0]), "catalog heap grew: {sizes:?}");
        assert_eq!(db.table_count(), 0);
        assert_eq!(db.data_size_bytes().unwrap(), 0, "the catalog heap is no table's");
        db.close().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
