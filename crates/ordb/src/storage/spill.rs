//! Spill-to-disk temp files for memory-bounded operators.
//!
//! When a blocking operator (sort, hash join, aggregation) exceeds its
//! memory budget it writes intermediate rows into spill files managed
//! here. Spill data is transient by construction — it never outlives the
//! query — so it deliberately bypasses both the buffer pool (caching a
//! sequential one-shot stream would only evict useful pages) and the WAL
//! (a crash discards the query anyway). I/O goes through [`PAGE_SIZE`]-
//! buffered sequential reads and writes on the same page-granular disk
//! layout as the rest of the storage layer.
//!
//! Record format: each row is framed as `u32 LE payload length` followed
//! by the [`crate::tuple::encode_row`] payload, the same self-describing
//! field encoding heap tuples use.
//!
//! Cleanup is RAII: a [`SpillFile`] deletes its backing file on `Drop`,
//! and a [`SpillWriter`] dropped before `finish()` (the error path) does
//! the same. Operators own their spill files, queries own their
//! operators, so dropping a query — normally or on error — removes every
//! temp file it created.
//!
//! The hash operators (join, aggregation, DISTINCT) overflow the same
//! way: a `Partitioner` from `SpillConfig::partitioner` scatters rows by
//! [`partition_of`] their key, and `Partitioned` seals the files and
//! drains each partition through a sub-operator one level deeper.

use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{DbError, Result};
use crate::exec::{BoxOp, Operator};
use crate::storage::page::PAGE_SIZE;
use crate::tuple::{decode_row, encode_row};
use crate::types::{Row, Value};

/// The memory budget a blocking operator runs under, with the spill
/// manager that takes its overflow. An operator with no budget gets no
/// config and holds everything in memory.
///
/// The budget bounds each operator's working set, measured as encoded
/// row bytes via [`crate::tuple::encoded_len`].
#[derive(Debug, Clone)]
pub struct SpillConfig {
    /// Per-operator working-set bound in bytes.
    pub budget: usize,
    /// Where overflow rows go.
    pub manager: Arc<SpillManager>,
    /// Partitioning passes above the operator holding this config (0 for
    /// one the planner built); seeds [`partition_of`].
    depth: usize,
}

impl SpillConfig {
    /// A budget of `budget` bytes for a planner-built operator.
    pub fn new(budget: usize, manager: Arc<SpillManager>) -> SpillConfig {
        SpillConfig { budget, manager, depth: 0 }
    }

    /// True when `bytes` exceeds the budget.
    pub fn over(&self, bytes: usize) -> bool {
        bytes > self.budget
    }

    /// Fan-out writers for one partitioning pass at this config's depth.
    pub(crate) fn partitioner(&self) -> Result<Partitioner> {
        let writers = (0..SPILL_FANOUT).map(|_| self.manager.create()).collect::<Result<_>>()?;
        Ok(Partitioner { writers, depth: self.depth })
    }

    /// The config of a sub-operator over one partition, `None` at
    /// [`MAX_SPILL_DEPTH`].
    fn deeper(&self) -> Option<SpillConfig> {
        let depth = self.depth + 1;
        (depth < MAX_SPILL_DEPTH).then(|| SpillConfig { depth, ..self.clone() })
    }
}

/// Partition fan-out of one spill split (Grace join, aggregation
/// overflow). 8 partitions cut the working set ~8× per level; with
/// [`MAX_SPILL_DEPTH`] that bounds effective partitioning at 8⁴ = 4096.
pub const SPILL_FANOUT: usize = 8;

/// Maximum partition recursion depth. A partition still over budget at
/// this depth (pathological skew — e.g. one key holding most rows,
/// which no hash can split) is processed in memory.
pub const MAX_SPILL_DEPTH: usize = 4;

/// Which partition `key` belongs to. The hash is seeded by the
/// recursion depth so a partition that recurses actually redistributes
/// its keys instead of mapping them all back into one bucket.
pub fn partition_of(key: &[Value], depth: usize) -> usize {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    0x9e37_79b9_7f4a_7c15u64.wrapping_mul(depth as u64 + 1).hash(&mut h);
    key.hash(&mut h);
    h.finish() as usize % SPILL_FANOUT
}

/// One input side of a partitioning pass: [`SPILL_FANOUT`] spill files,
/// a row going to the one [`partition_of`] its key.
pub(crate) struct Partitioner {
    writers: Vec<SpillWriter>,
    depth: usize,
}

impl Partitioner {
    /// Write `row` to the partition of `key`.
    pub(crate) fn add(&mut self, key: &[Value], row: &[Value]) -> Result<()> {
        self.writers[partition_of(key, self.depth)].add(row)
    }
}

/// The partitions of one pass, drained in partition order: partition `i`
/// of every side is replayed through one sub-operator, built by `open`
/// with the config one level down — or with none at [`MAX_SPILL_DEPTH`],
/// where a partition no hash split further is processed in memory.
/// Dropping it deletes every file not yet drained.
pub(crate) struct Partitioned<const N: usize> {
    parts: std::vec::IntoIter<[SpillFile; N]>,
    deeper: Option<SpillConfig>,
    open: Box<dyn FnMut([BoxOp; N], Option<SpillConfig>) -> BoxOp>,
    current: Option<BoxOp>,
}

impl<const N: usize> Partitioned<N> {
    /// Seal the `sides` `spill` partitioned. A partition empty on any
    /// side is dropped at once: it can produce no row.
    pub(crate) fn new(
        spill: &SpillConfig,
        sides: [Partitioner; N],
        open: impl FnMut([BoxOp; N], Option<SpillConfig>) -> BoxOp + 'static,
    ) -> Result<Partitioned<N>> {
        let mut sealed = Vec::with_capacity(N);
        for side in sides {
            let files: Vec<SpillFile> =
                side.writers.into_iter().map(SpillWriter::finish).collect::<Result<_>>()?;
            sealed.push(files.into_iter());
        }
        let parts: Vec<[SpillFile; N]> = (0..SPILL_FANOUT)
            .map(|_| std::array::from_fn(|i| sealed[i].next().expect("a file per partition")))
            .filter(|part: &[SpillFile; N]| part.iter().all(|f| f.rows() > 0))
            .collect();
        Ok(Partitioned {
            parts: parts.into_iter(),
            deeper: spill.deeper(),
            open: Box::new(open),
            current: None,
        })
    }
}

impl<const N: usize> Operator for Partitioned<N> {
    fn next(&mut self) -> Result<Option<Row>> {
        loop {
            if let Some(sub) = &mut self.current {
                if let Some(row) = sub.next()? {
                    return Ok(Some(row));
                }
                self.current = None;
            }
            let Some(part) = self.parts.next() else {
                return Ok(None);
            };
            let inputs = part.map(|file| Box::new(SpillScan { file, reader: None }) as BoxOp);
            self.current = Some((self.open)(inputs, self.deeper.clone()));
        }
    }

    fn name(&self) -> &'static str {
        "Partitioned"
    }
}

/// Replays a sealed spill file as an operator. Owns the file, so the temp
/// data lives exactly as long as the sub-plan reading it.
struct SpillScan {
    file: SpillFile,
    reader: Option<SpillReader>,
}

impl Operator for SpillScan {
    fn next(&mut self) -> Result<Option<Row>> {
        if self.reader.is_none() {
            self.reader = Some(self.file.open()?);
        }
        self.reader.as_mut().expect("opened above").next()
    }

    fn name(&self) -> &'static str {
        "SpillScan"
    }
}

/// Hands out uniquely-named temp files under `<db dir>/spill/`.
///
/// Shared (via `Arc`) by every operator of every query on one database;
/// the directory is created lazily on first spill and file names are
/// drawn from an atomic counter, so concurrent queries never collide.
#[derive(Debug)]
pub struct SpillManager {
    dir: PathBuf,
    next_id: AtomicU64,
}

impl SpillManager {
    /// Manager rooted at `dir` (conventionally `<db dir>/spill`). The
    /// directory is not created until the first file is.
    pub fn new(dir: impl Into<PathBuf>) -> SpillManager {
        SpillManager { dir: dir.into(), next_id: AtomicU64::new(0) }
    }

    /// Start a new spill file. Row arity is latched from the first row
    /// written (all rows of one file must agree).
    pub fn create(self: &Arc<Self>) -> Result<SpillWriter> {
        fs::create_dir_all(&self.dir)?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let path = self.dir.join(format!("spill-{id}.tmp"));
        let file = File::create(&path)?;
        Ok(SpillWriter {
            file: Some(BufWriter::with_capacity(PAGE_SIZE, file)),
            path,
            arity: None,
            rows: 0,
            buf: Vec::new(),
        })
    }

    /// Spill files created so far, deleted ones included.
    #[cfg(test)]
    pub(crate) fn files_created(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Number of spill files currently on disk (tests assert this goes
    /// back to zero after queries finish or fail).
    pub fn live_files(&self) -> usize {
        match fs::read_dir(&self.dir) {
            Ok(rd) => rd.filter_map(|e| e.ok()).count(),
            Err(_) => 0,
        }
    }
}

/// Append-only writer for one spill file. Call [`SpillWriter::finish`]
/// to seal it into a readable [`SpillFile`]; dropping an unfinished
/// writer deletes the partial file.
pub struct SpillWriter {
    file: Option<BufWriter<File>>,
    path: PathBuf,
    arity: Option<usize>,
    rows: u64,
    buf: Vec<u8>,
}

impl SpillWriter {
    /// Append one row. Counts the framed bytes into the thread's
    /// `spill_bytes`.
    pub fn add(&mut self, row: &[Value]) -> Result<()> {
        let arity = *self.arity.get_or_insert(row.len());
        debug_assert_eq!(row.len(), arity, "spill row arity mismatch");
        self.buf.clear();
        encode_row(row, &mut self.buf);
        let file = self.file.as_mut().expect("writer not finished");
        file.write_all(&(self.buf.len() as u32).to_le_bytes())?;
        file.write_all(&self.buf)?;
        self.rows += 1;
        crate::metrics::count(|c| c.engine.spill_bytes += 4 + self.buf.len() as u64);
        Ok(())
    }

    /// Flush and seal into a [`SpillFile`].
    pub fn finish(mut self) -> Result<SpillFile> {
        let file = self.file.take().expect("finish once");
        file.into_inner().map_err(|e| DbError::Io(e.into_error()))?.flush()?;
        let sealed = SpillFile {
            path: std::mem::take(&mut self.path),
            arity: self.arity.unwrap_or(0),
            rows: self.rows,
        };
        // `self.file` is now None and `self.path` empty, so our Drop is a
        // no-op; the sealed handle owns cleanup from here.
        Ok(sealed)
    }
}

impl Drop for SpillWriter {
    fn drop(&mut self) {
        if self.file.take().is_some() {
            // Unfinished (error path): remove the partial file.
            let _ = fs::remove_file(&self.path);
        }
    }
}

/// A sealed spill file. Deleted from disk on `Drop`.
#[derive(Debug)]
pub struct SpillFile {
    path: PathBuf,
    arity: usize,
    rows: u64,
}

impl SpillFile {
    /// Rows in the file.
    pub fn rows(&self) -> u64 {
        self.rows
    }

    /// Open a sequential reader (the file can be read multiple times).
    pub fn open(&self) -> Result<SpillReader> {
        let file = File::open(&self.path)?;
        Ok(SpillReader {
            file: BufReader::with_capacity(PAGE_SIZE, file),
            arity: self.arity,
            remaining: self.rows,
            buf: Vec::new(),
        })
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Sequential reader over a sealed spill file.
pub struct SpillReader {
    file: BufReader<File>,
    arity: usize,
    remaining: u64,
    buf: Vec<u8>,
}

impl SpillReader {
    /// Read the next row, `None` at end of file.
    #[allow(clippy::should_implement_trait)] // fallible iterator, like HeapCursor
    pub fn next(&mut self) -> Result<Option<Row>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        let mut len = [0u8; 4];
        self.file.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        self.buf.resize(len, 0);
        self.file.read_exact(&mut self.buf)?;
        Ok(Some(decode_row(&self.buf, self.arity)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(tag: &str) -> (Arc<SpillManager>, PathBuf) {
        let dir =
            std::env::temp_dir().join(format!("ordb-spill-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        (Arc::new(SpillManager::new(&dir)), dir)
    }

    fn row(i: i64) -> Row {
        vec![Value::Int(i), Value::str(format!("row-{i}"))]
    }

    #[test]
    fn rows_round_trip_in_order() {
        let (m, dir) = manager("roundtrip");
        let mut w = m.create().unwrap();
        for i in 0..100 {
            w.add(&row(i)).unwrap();
        }
        let f = w.finish().unwrap();
        assert_eq!(f.rows(), 100);
        let mut r = f.open().unwrap();
        for i in 0..100 {
            assert_eq!(r.next().unwrap(), Some(row(i)));
        }
        assert_eq!(r.next().unwrap(), None);
        drop(f);
        assert_eq!(m.live_files(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn sealed_file_is_deleted_on_drop() {
        let (m, dir) = manager("drop");
        let mut w = m.create().unwrap();
        w.add(&[Value::Int(7)]).unwrap();
        let f = w.finish().unwrap();
        assert_eq!(m.live_files(), 1);
        drop(f);
        assert_eq!(m.live_files(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn unfinished_writer_cleans_up() {
        let (m, dir) = manager("abort");
        let mut w = m.create().unwrap();
        w.add(&[Value::Int(1)]).unwrap();
        assert_eq!(m.live_files(), 1);
        drop(w); // simulated error path: never finished
        assert_eq!(m.live_files(), 0);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn file_can_be_read_twice() {
        let (m, dir) = manager("reread");
        let mut w = m.create().unwrap();
        w.add(&[Value::str("x")]).unwrap();
        let f = w.finish().unwrap();
        for _ in 0..2 {
            let mut r = f.open().unwrap();
            assert_eq!(r.next().unwrap(), Some(vec![Value::str("x")]));
            assert_eq!(r.next().unwrap(), None);
        }
        let _ = fs::remove_dir_all(dir);
    }
}
