//! Physical write-ahead log.
//!
//! The WAL is a single append-only file (`wal.log`) of CRC32-framed
//! records. Records are full page images (physical redo): simple,
//! idempotent, and immune to logical-replay divergence. Each logged
//! page carries the record's LSN in its trailer, so recovery can skip
//! pages whose on-disk version is already as new as the record.
//!
//! ## Record format
//!
//! ```text
//! [magic u32 = 0x57414C52 "WALR"]
//! [kind  u8] [pad u8;3]
//! [lsn   u64]
//! [file  u32] [pid u32]        (zero for checkpoint and commit records)
//! [len   u32]                  payload length
//! [crc   u32]                  CRC32 over kind..=payload
//! [payload; len]
//! ```
//!
//! `kind` is [`REC_PAGE_IMAGE`] (payload = 8 KiB page image),
//! [`REC_TXN_COMMIT`] (payload = transaction id) or [`REC_CHECKPOINT`]
//! (payload = `[watermark u64][next_txid u64]`). Every log begins with
//! exactly one checkpoint record, and the log is the database's only
//! recovery state besides the data files: the LSN cursor resumes past
//! the highest record, and the checkpoint's transaction watermark and id
//! cursor tell recovery which versions were decided before it.
//!
//! ## Protocol
//!
//! * [`Wal::log_page`] assigns the next LSN, stamps it and a fresh
//!   checksum into the page trailer, and buffers the record; once
//!   256 KiB are buffered it writes them to the file, without an fsync.
//!   Nothing is durable yet.
//! * [`Wal::sync`] writes the buffer and fsyncs — the commit point.
//! * [`Wal::ensure_durable`] is the WAL-before-data gate: the buffer
//!   pool calls it with a page's LSN before writing that page to a data
//!   file, forcing a flush only when the log actually lags.
//! * [`Wal::checkpoint`] runs after all data pages are flushed and
//!   fsync'd: it writes a fresh log — the checkpoint record plus the
//!   commit records still needed above the watermark — to `wal.log.tmp`,
//!   fsyncs it and renames it over `wal.log`. A crash at any point leaves
//!   either the old log or the new one, and each classifies every
//!   version on disk.
//!
//! Recovery reads the log once ([`LogScan::read`]): the scan stops at the
//! first corrupt or torn record (the torn tail) and hands redo its page
//! images, undo its commit set and watermark, and the reopened [`Wal`]
//! its LSN cursor and valid length.
//!
//! ## Vacuum ordering
//!
//! Vacuum needs no record kind of its own: every page it mutates —
//! index leaves losing entries, data pages losing slots, overflow pages
//! reinitialised to the free kind — is logged as an ordinary page
//! image when the pass closes with `log_dirty_frames` + [`Wal::sync`],
//! as a commit does. A crash before that sync replays
//! none-to-some prefix of the pass (whatever `ensure_durable` already
//! forced out); because vacuum deletes index entries *before* freeing
//! the heap slot they point at, any replayed prefix is consistent: a
//! surviving slot may have lost its index entry (re-reclaimed by the
//! next pass), but no index entry ever points at a freed or reused
//! slot. Where the order of two pages' images matters more finely — a
//! B+Tree leaf must not become a free page in the log before its parent
//! has let go of it — the earlier image is appended at once with
//! [`BufferPool::log_frame`] (see `index::btree`).
//!
//! [`BufferPool::log_frame`]: crate::storage::buffer::BufferPool::log_frame

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::error::{DbError, Result};
use crate::storage::disk::{faulted_sync, faulted_write_at};
use crate::storage::fault::{FaultInjector, IoKind};
use crate::storage::page::{crc32_update, Page, PAGE_SIZE};

/// Magic prefix of every WAL record ("WALR").
pub const WAL_MAGIC: u32 = 0x5741_4C52;
/// Record kind: full page image.
pub const REC_PAGE_IMAGE: u8 = 1;
/// Record kind: checkpoint, the first record of every log (payload =
/// [`CHECKPOINT_PAYLOAD`] bytes: LE transaction watermark, then LE next
/// transaction id).
pub const REC_CHECKPOINT: u8 = 2;
/// Record kind: transaction commit (payload = 8-byte LE transaction id).
/// Recovery treats a transaction as committed iff its commit record is
/// in the valid log prefix (or its id is below the checkpoint's
/// watermark); versions of any other transaction are removed on open.
pub const REC_TXN_COMMIT: u8 = 3;
/// Payload length of a [`REC_CHECKPOINT`] record.
pub const CHECKPOINT_PAYLOAD: usize = 16;
/// Fixed record header size in bytes.
pub const REC_HEADER: usize = 28;
/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";
/// Buffered bytes at which [`Wal::log_page`] writes the buffer to the
/// file (without an fsync), so committing a large batch streams its
/// images out instead of growing the buffer to the batch's size.
const BUF_LIMIT: usize = 256 * 1024;

/// Monotonic WAL counters, surfaced in `EXPLAIN ANALYZE` and
/// `metrics.json`. All counts are totals since open; use
/// [`WalStats::since`] for per-query deltas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Page-image records appended.
    pub appends: u64,
    /// Bytes appended (headers + payloads).
    pub bytes: u64,
    /// fsyncs of the log file.
    pub fsyncs: u64,
    /// Checkpoints taken (log replacements).
    pub checkpoints: u64,
    /// Transaction commit records appended.
    pub commit_records: u64,
    /// Group-commit flushes performed by a leader on behalf of a batch.
    pub group_commits: u64,
    /// [`Wal::sync_group`] calls satisfied without their own fsync
    /// (piggybacked on a concurrent leader's flush).
    pub fsyncs_saved: u64,
}

impl WalStats {
    /// Delta of `self` against an earlier snapshot.
    pub fn since(&self, earlier: &WalStats) -> WalStats {
        WalStats {
            appends: self.appends - earlier.appends,
            bytes: self.bytes - earlier.bytes,
            fsyncs: self.fsyncs - earlier.fsyncs,
            checkpoints: self.checkpoints - earlier.checkpoints,
            commit_records: self.commit_records - earlier.commit_records,
            group_commits: self.group_commits - earlier.group_commits,
            fsyncs_saved: self.fsyncs_saved - earlier.fsyncs_saved,
        }
    }
}

struct WalInner {
    file: File,
    /// Buffered records not yet written to the file.
    buf: Vec<u8>,
    /// Byte length including buffered-but-unwritten records.
    len: u64,
}

/// The write-ahead log of one database.
pub struct Wal {
    path: PathBuf,
    inner: Mutex<WalInner>,
    /// Next LSN to assign.
    next_lsn: AtomicU64,
    /// Highest LSN known durable (its record is on disk and fsync'd).
    durable_lsn: AtomicU64,
    fault: Option<Arc<FaultInjector>>,
    appends: AtomicU64,
    bytes: AtomicU64,
    fsyncs: AtomicU64,
    checkpoints: AtomicU64,
    commit_records: AtomicU64,
    group_commits: AtomicU64,
    fsyncs_saved: AtomicU64,
    /// Group-commit leader election (separate from `inner` so followers
    /// can wait without blocking appends). `std::sync` because the
    /// parking_lot shim has no condvar.
    group: std::sync::Mutex<bool>,
    group_cv: std::sync::Condvar,
}

fn encode_header(kind: u8, lsn: u64, file_id: u32, pid: u32, payload: &[u8]) -> [u8; REC_HEADER] {
    let mut h = [0u8; REC_HEADER];
    h[0..4].copy_from_slice(&WAL_MAGIC.to_le_bytes());
    h[4] = kind;
    h[8..16].copy_from_slice(&lsn.to_le_bytes());
    h[16..20].copy_from_slice(&file_id.to_le_bytes());
    h[20..24].copy_from_slice(&pid.to_le_bytes());
    h[24..28].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    h
}

/// CRC over everything after the magic, plus the payload. The CRC field
/// itself lives *after* `len` in serialized form (see below), so the
/// header bytes covered are `[4..28]`.
fn record_crc(header: &[u8], payload: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, &header[4..REC_HEADER]), payload)
}

fn append_record(out: &mut Vec<u8>, kind: u8, lsn: u64, file_id: u32, pid: u32, payload: &[u8]) {
    let header = encode_header(kind, lsn, file_id, pid, payload);
    let crc = record_crc(&header, payload);
    out.extend_from_slice(&header);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
}

/// On-disk size of a record with `payload_len` payload bytes.
pub fn record_size(payload_len: usize) -> usize {
    REC_HEADER + 4 + payload_len
}

impl Wal {
    /// Open the log at `dir/wal.log`, appending after the valid prefix
    /// `scan` found and resuming its LSN cursor. `None` means there is no
    /// log yet: the file is created and LSNs start at 1.
    pub fn open(
        dir: &Path,
        fault: Option<Arc<FaultInjector>>,
        scan: Option<&LogScan>,
    ) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().write(true).create(true).truncate(false).open(&path)?;
        let (next_lsn, valid_len) = scan.map_or((1, 0), |s| (s.next_lsn, s.valid_len));
        Ok(Wal {
            path,
            inner: Mutex::new(WalInner { file, buf: Vec::new(), len: valid_len }),
            next_lsn: AtomicU64::new(next_lsn),
            durable_lsn: AtomicU64::new(next_lsn.saturating_sub(1)),
            fault,
            appends: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            fsyncs: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            commit_records: AtomicU64::new(0),
            group_commits: AtomicU64::new(0),
            fsyncs_saved: AtomicU64::new(0),
            group: std::sync::Mutex::new(false),
            group_cv: std::sync::Condvar::new(),
        })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WalStats {
        WalStats {
            appends: self.appends.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            checkpoints: self.checkpoints.load(Ordering::Relaxed),
            commit_records: self.commit_records.load(Ordering::Relaxed),
            group_commits: self.group_commits.load(Ordering::Relaxed),
            fsyncs_saved: self.fsyncs_saved.load(Ordering::Relaxed),
        }
    }

    /// Log a full image of `page` (about to be identified as `file_id`
    /// page `pid`). Assigns the record's LSN, stamps it and a fresh
    /// checksum into the page trailer, and buffers the record, writing
    /// the buffer out once it holds `BUF_LIMIT` bytes. Returns the LSN.
    /// Call [`Wal::sync`] or rely on [`Wal::ensure_durable`] to make it
    /// durable.
    pub fn log_page(&self, file_id: u32, pid: u32, page: &mut Page) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        page.set_lsn(lsn);
        page.stamp_checksum();
        append_record(&mut inner.buf, REC_PAGE_IMAGE, lsn, file_id, pid, page.bytes());
        inner.len += record_size(PAGE_SIZE) as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(record_size(PAGE_SIZE) as u64, Ordering::Relaxed);
        if inner.buf.len() >= BUF_LIMIT {
            // A failed write leaves the records buffered: the next flush
            // retries it and fails the commit that needs them.
            let _ = self.write_locked(&mut inner);
        }
        lsn
    }

    /// Append a commit record for transaction `txid` and return its
    /// LSN. Buffered only: the commit is durable once
    /// [`Wal::sync_group`] returns for that LSN.
    pub fn log_commit(&self, txid: u64) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        let payload = txid.to_le_bytes();
        append_record(&mut inner.buf, REC_TXN_COMMIT, lsn, 0, 0, &payload);
        inner.len += record_size(payload.len()) as u64;
        self.commit_records.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(record_size(payload.len()) as u64, Ordering::Relaxed);
        lsn
    }

    /// Group commit: make the record at `lsn` durable, batching
    /// concurrent callers into one fsync. The first caller to find no
    /// flush in progress becomes the leader and flushes the whole
    /// buffer (covering every record appended so far, including the
    /// followers' commit records); the rest wait on a condvar and
    /// usually wake already durable.
    pub fn sync_group(&self, lsn: u64) -> Result<()> {
        loop {
            if self.durable_lsn.load(Ordering::SeqCst) >= lsn {
                self.fsyncs_saved.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            let mut flushing = self.group.lock().expect("group commit lock");
            if self.durable_lsn.load(Ordering::SeqCst) >= lsn {
                drop(flushing);
                self.fsyncs_saved.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            }
            if !*flushing {
                *flushing = true;
                drop(flushing);
                let r = self.sync();
                let mut flushing = self.group.lock().expect("group commit lock");
                *flushing = false;
                self.group_cv.notify_all();
                drop(flushing);
                self.group_commits.fetch_add(1, Ordering::Relaxed);
                return r;
            }
            // A leader is flushing: wait for its result, then re-check.
            // (A spurious wakeup just loops; if the leader's flush
            // failed, the next iteration elects a new leader which
            // surfaces the error to its own caller.)
            let _g = self.group_cv.wait(flushing).expect("group commit wait");
        }
    }

    /// Write the buffered records to the file, without an fsync.
    fn write_locked(&self, inner: &mut WalInner) -> Result<()> {
        if !inner.buf.is_empty() {
            let off = inner.len - inner.buf.len() as u64;
            faulted_write_at(&inner.file, self.fault.as_deref(), IoKind::Wal, &inner.buf, off)
                .map_err(DbError::from)?;
            inner.buf.clear();
        }
        Ok(())
    }

    fn flush_locked(&self, inner: &mut WalInner) -> Result<()> {
        self.write_locked(inner)?;
        faulted_sync(&inner.file, self.fault.as_deref()).map_err(DbError::from)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(self.next_lsn.load(Ordering::SeqCst) - 1, Ordering::SeqCst);
        Ok(())
    }

    /// Write all buffered records and fsync. This is the commit point.
    pub fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.flush_locked(&mut inner)
    }

    /// WAL-before-data gate: make the record with `lsn` durable (no-op
    /// if it already is). The buffer pool calls this before writing any
    /// data page whose trailer carries `lsn`.
    pub fn ensure_durable(&self, lsn: u64) -> Result<()> {
        if lsn == 0 || self.durable_lsn.load(Ordering::SeqCst) >= lsn {
            return Ok(());
        }
        let mut inner = self.inner.lock();
        if self.durable_lsn.load(Ordering::SeqCst) >= lsn {
            return Ok(()); // another thread flushed while we waited
        }
        self.flush_locked(&mut inner)
    }

    /// Replace the log with a checkpoint record carrying `watermark` (ids
    /// below it are decided) and `next_txid`, followed by a commit record
    /// for each of `commits` — ids committed at or above the watermark,
    /// whose evidence must survive because an older transaction was still
    /// in flight. The new log is written and fsync'd as `wal.log.tmp`,
    /// then renamed over `wal.log`, so a crash at any point leaves the old
    /// log or the new one; a dead fault injector fails the write or the
    /// fsync before the rename. The caller must have flushed and fsync'd
    /// every data page first — otherwise redo information is lost.
    pub fn checkpoint(&self, watermark: u64, next_txid: u64, commits: &[u64]) -> Result<()> {
        let mut inner = self.inner.lock();
        inner.buf.clear();
        let mut log = Vec::new();
        let mut payload = [0u8; CHECKPOINT_PAYLOAD];
        payload[..8].copy_from_slice(&watermark.to_le_bytes());
        payload[8..].copy_from_slice(&next_txid.to_le_bytes());
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        append_record(&mut log, REC_CHECKPOINT, lsn, 0, 0, &payload);
        for &txid in commits {
            let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
            append_record(&mut log, REC_TXN_COMMIT, lsn, 0, 0, &txid.to_le_bytes());
            self.commit_records.fetch_add(1, Ordering::Relaxed);
        }
        let tmp = self.path.with_extension("log.tmp");
        let file = File::create(&tmp)?;
        faulted_write_at(&file, self.fault.as_deref(), IoKind::Wal, &log, 0)?;
        faulted_sync(&file, self.fault.as_deref())?;
        std::fs::rename(&tmp, &self.path)?;
        // From the rename on, appends must go to the new file whatever
        // the directory fsync below reports.
        inner.file = file;
        inner.len = log.len() as u64;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(self.next_lsn.load(Ordering::SeqCst) - 1, Ordering::SeqCst);
        File::open(self.path.parent().unwrap_or(Path::new(".")))?.sync_all()?;
        Ok(())
    }
}

/// Everything recovery and a reopened [`Wal`] need from the log,
/// gathered in one front-to-back pass by [`LogScan::read`].
#[derive(Debug, Default)]
pub struct LogScan {
    /// The last image logged for each `(file, page)`, with its LSN: the
    /// redo set.
    pub images: HashMap<(u32, u32), (u64, Vec<u8>)>,
    /// Transaction ids with a commit record in the valid prefix.
    pub committed: HashSet<u64>,
    /// The checkpoint's watermark: every id below it was decided then.
    pub watermark: u64,
    /// The checkpoint's next transaction id.
    pub next_txid: u64,
    /// The LSN to hand out next: one past the highest record.
    pub next_lsn: u64,
    /// Valid records, the checkpoint record included.
    pub records: u64,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Bytes past the last valid record (a torn append from a crash).
    pub torn_tail: u64,
}

impl LogScan {
    /// Did transaction `t` commit, as far as this log tells: its id is
    /// below the checkpoint's watermark or has a commit record (never 0).
    pub fn decided(&self, t: u64) -> bool {
        t != crate::txn::TXID_INVALID && (t < self.watermark || self.committed.contains(&t))
    }

    /// Read `dir/wal.log` once. `None` when there is no log or it is
    /// empty (a database that never finished its first open). A log that
    /// does not begin with a checkpoint record carrying the transaction
    /// watermark fails with an error naming the file: it comes from a
    /// version that kept the watermark beside the log, and without it
    /// recovery would remove every checkpointed row.
    pub fn read(dir: &Path) -> Result<Option<LogScan>> {
        let path = dir.join(WAL_FILE);
        let mut reader = WalReader::open(&path)?;
        if reader.remaining() == 0 {
            return Ok(None);
        }
        let Some((lsn, (watermark, next_txid))) =
            reader.next_record().and_then(|rec| Some((rec.lsn, rec.checkpoint()?)))
        else {
            return Err(DbError::Corrupt(format!(
                "{}: the log does not begin with a checkpoint record carrying the \
                 transaction watermark (written by an older version?); refusing to recover",
                path.display()
            )));
        };
        let mut scan =
            LogScan { watermark, next_txid, next_lsn: lsn + 1, records: 1, ..LogScan::default() };
        while let Some(rec) = reader.next_record() {
            scan.records += 1;
            scan.next_lsn = scan.next_lsn.max(rec.lsn + 1);
            if rec.kind == REC_PAGE_IMAGE && rec.payload.len() == PAGE_SIZE {
                // Later images supersede earlier ones.
                scan.images.insert((rec.file_id, rec.pid), (rec.lsn, rec.payload));
            } else if rec.kind == REC_TXN_COMMIT && rec.payload.len() == 8 {
                scan.committed.insert(u64::from_le_bytes(rec.payload[..].try_into().unwrap()));
            }
        }
        scan.valid_len = reader.consumed();
        scan.torn_tail = reader.remaining();
        Ok(Some(scan))
    }
}

/// One decoded WAL record.
pub struct WalRecord {
    /// Record kind ([`REC_PAGE_IMAGE`], [`REC_CHECKPOINT`] or
    /// [`REC_TXN_COMMIT`]).
    pub kind: u8,
    /// Log sequence number.
    pub lsn: u64,
    /// Target data file id (0 for checkpoint and commit records).
    pub file_id: u32,
    /// Target page id (0 for checkpoint and commit records).
    pub pid: u32,
    /// Payload (see the record kinds).
    pub payload: Vec<u8>,
}

impl WalRecord {
    /// `(watermark, next_txid)` if this is a well-formed checkpoint record.
    pub fn checkpoint(&self) -> Option<(u64, u64)> {
        if self.kind != REC_CHECKPOINT || self.payload.len() != CHECKPOINT_PAYLOAD {
            return None;
        }
        let (watermark, next_txid) = self.payload.split_at(8);
        Some((
            u64::from_le_bytes(watermark.try_into().expect("8-byte half")),
            u64::from_le_bytes(next_txid.try_into().expect("8-byte half")),
        ))
    }
}

/// Streaming, CRC-validating scan of a WAL byte stream. Stops cleanly
/// at the first corrupt or incomplete record — the torn tail a crash
/// mid-append leaves behind.
pub struct WalReader {
    data: Vec<u8>,
    pos: usize,
}

impl WalReader {
    /// Read the log at `path` into a reader. A missing file reads as an
    /// empty log.
    pub fn open(path: &Path) -> Result<WalReader> {
        let data = match std::fs::read(path) {
            Ok(d) => d,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        Ok(WalReader { data, pos: 0 })
    }

    /// Bytes consumed by valid records so far.
    pub fn consumed(&self) -> u64 {
        self.pos as u64
    }

    /// Bytes remaining past the last valid record (the torn tail once
    /// `next_record` has returned `None`).
    pub fn remaining(&self) -> u64 {
        (self.data.len() - self.pos) as u64
    }

    /// Decode the next valid record, or `None` at end-of-log / first
    /// corruption.
    pub fn next_record(&mut self) -> Option<WalRecord> {
        let rest = &self.data[self.pos..];
        if rest.len() < REC_HEADER + 4 {
            return None;
        }
        let magic = u32::from_le_bytes(rest[0..4].try_into().unwrap());
        if magic != WAL_MAGIC {
            return None;
        }
        let kind = rest[4];
        let lsn = u64::from_le_bytes(rest[8..16].try_into().unwrap());
        let file_id = u32::from_le_bytes(rest[16..20].try_into().unwrap());
        let pid = u32::from_le_bytes(rest[20..24].try_into().unwrap());
        let len = u32::from_le_bytes(rest[24..28].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(rest[28..32].try_into().unwrap());
        if rest.len() < REC_HEADER + 4 + len {
            return None; // torn tail
        }
        let payload = &rest[REC_HEADER + 4..REC_HEADER + 4 + len];
        if record_crc(rest, payload) != stored_crc {
            return None; // corrupt record: stop here
        }
        let rec = WalRecord { kind, lsn, file_id, pid, payload: payload.to_vec() };
        self.pos += REC_HEADER + 4 + len;
        Some(rec)
    }
}

/// Debug helper: summarize a WAL file as one line per record (used by
/// the crash-matrix CI job's failure artifact).
pub fn dump(path: &Path) -> Result<String> {
    let mut reader = WalReader::open(path)?;
    let mut out = String::new();
    let mut n = 0usize;
    while let Some(rec) = reader.next_record() {
        use std::fmt::Write as _;
        let kind = match rec.kind {
            REC_PAGE_IMAGE => "PAGE",
            REC_CHECKPOINT => "CKPT",
            REC_TXN_COMMIT => "TXNC",
            _ => "????",
        };
        if rec.kind == REC_TXN_COMMIT && rec.payload.len() == 8 {
            let txid = u64::from_le_bytes(rec.payload[..8].try_into().unwrap());
            let _ = writeln!(out, "{n:6} {kind} lsn={} txid={txid}", rec.lsn);
        } else if let Some((watermark, next)) = rec.checkpoint() {
            let _ = writeln!(out, "{n:6} {kind} lsn={} watermark={watermark} next={next}", rec.lsn);
        } else {
            let _ = writeln!(
                out,
                "{n:6} {kind} lsn={} file={} pid={} len={}",
                rec.lsn,
                rec.file_id,
                rec.pid,
                rec.payload.len()
            );
        }
        n += 1;
    }
    if reader.remaining() > 0 {
        use std::fmt::Write as _;
        let _ = writeln!(out, "  torn tail: {} bytes", reader.remaining());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::fault::{CrashMode, FaultPlan, FaultScope};
    use crate::txn::TXID_FIRST;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ordb-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A log as a database leaves it: the checkpoint record first.
    fn fresh(dir: &Path, fault: Option<Arc<FaultInjector>>) -> Wal {
        let wal = Wal::open(dir, fault, None).unwrap();
        wal.checkpoint(TXID_FIRST, TXID_FIRST, &[]).unwrap();
        wal
    }

    /// Reopen from one scan, as `Database::open` does.
    fn reopen(dir: &Path) -> (LogScan, Wal) {
        let scan = LogScan::read(dir).unwrap().expect("a log");
        let wal = Wal::open(dir, None, Some(&scan)).unwrap();
        (scan, wal)
    }

    #[test]
    fn log_sync_read_round_trip() {
        let dir = tmp_dir("rt");
        let wal = Wal::open(&dir, None, None).unwrap();
        let mut p = Page::new();
        p.insert(b"hello wal").unwrap();
        let lsn = wal.log_page(3, 7, &mut p);
        assert_eq!(p.lsn(), lsn);
        assert!(p.checksum_ok());
        wal.sync().unwrap();
        let mut reader = WalReader::open(wal.path()).unwrap();
        let rec = reader.next_record().expect("one record");
        assert_eq!((rec.kind, rec.lsn, rec.file_id, rec.pid), (REC_PAGE_IMAGE, lsn, 3, 7));
        assert_eq!(rec.payload, p.bytes());
        assert!(reader.next_record().is_none());
        assert_eq!(reader.remaining(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lsns_are_monotonic_across_reopen_and_checkpoint() {
        let dir = tmp_dir("mono");
        let mut highest = 0;
        {
            let wal = fresh(&dir, None);
            let mut p = Page::new();
            for _ in 0..5 {
                highest = wal.log_page(1, 1, &mut p);
            }
            wal.sync().unwrap();
        }
        {
            let (_, wal) = reopen(&dir);
            let mut p = Page::new();
            let lsn = wal.log_page(1, 2, &mut p);
            assert!(lsn > highest, "reopen must not reuse LSNs ({lsn} <= {highest})");
            wal.checkpoint(TXID_FIRST, TXID_FIRST, &[]).unwrap();
            highest = lsn;
        }
        {
            let (_, wal) = reopen(&dir);
            let mut p = Page::new();
            let lsn = wal.log_page(1, 3, &mut p);
            assert!(lsn > highest, "checkpoint must carry the cursor forward");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_stops_at_torn_tail() {
        let dir = tmp_dir("tear");
        let wal = fresh(&dir, None);
        let mut p = Page::new();
        wal.log_page(1, 1, &mut p);
        wal.log_page(1, 2, &mut p);
        wal.sync().unwrap();
        // Chop the file mid-second-image.
        let path = wal.path().to_path_buf();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let cut = record_size(CHECKPOINT_PAYLOAD) + record_size(PAGE_SIZE) + 40;
        std::fs::write(&path, &full[..cut]).unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert_eq!(reader.next_record().unwrap().kind, REC_CHECKPOINT);
        assert!(reader.next_record().is_some());
        assert!(reader.next_record().is_none());
        assert_eq!(reader.remaining(), 40);
        // Reopening resumes cleanly past the valid prefix.
        let (scan, wal) = reopen(&dir);
        assert_eq!((scan.records, scan.torn_tail), (2, 40));
        let mut p2 = Page::new();
        wal.log_page(1, 3, &mut p2);
        wal.sync().unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert_eq!(reader.next_record().unwrap().kind, REC_CHECKPOINT);
        assert_eq!(reader.next_record().unwrap().pid, 1);
        assert_eq!(reader.next_record().unwrap().pid, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_stops_at_bit_flip() {
        let dir = tmp_dir("flip");
        let wal = Wal::open(&dir, None, None).unwrap();
        let mut p = Page::new();
        wal.log_page(1, 1, &mut p);
        wal.log_page(1, 2, &mut p);
        wal.sync().unwrap();
        let path = wal.path().to_path_buf();
        drop(wal);
        let mut data = std::fs::read(&path).unwrap();
        // Flip a payload bit in the first record.
        data[100] ^= 0x10;
        std::fs::write(&path, &data).unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert!(reader.next_record().is_none(), "corrupt first record stops the scan");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensure_durable_flushes_only_when_needed() {
        let dir = tmp_dir("dur");
        let wal = Wal::open(&dir, None, None).unwrap();
        let mut p = Page::new();
        let lsn = wal.log_page(1, 1, &mut p);
        let before = wal.stats();
        wal.ensure_durable(lsn).unwrap();
        assert_eq!(wal.stats().since(&before).fsyncs, 1);
        // Already durable: no further fsync.
        wal.ensure_durable(lsn).unwrap();
        assert_eq!(wal.stats().since(&before).fsyncs, 1);
        // LSN 0 (never-logged page) needs nothing.
        wal.ensure_durable(0).unwrap();
        assert_eq!(wal.stats().since(&before).fsyncs, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_to_one_record() {
        let dir = tmp_dir("ckpt");
        let wal = fresh(&dir, None);
        let mut p = Page::new();
        for i in 0..10 {
            wal.log_page(1, i, &mut p);
        }
        wal.sync().unwrap();
        assert!(wal.inner.lock().len > 10 * PAGE_SIZE as u64);
        wal.checkpoint(7, 9, &[]).unwrap();
        assert_eq!(wal.inner.lock().len, record_size(CHECKPOINT_PAYLOAD) as u64);
        let scan = LogScan::read(&dir).unwrap().unwrap();
        assert_eq!((scan.records, scan.watermark, scan.next_txid), (1, 7, 9));
        assert!(scan.images.is_empty());
        assert!(!dir.join("wal.log.tmp").exists(), "the new log was renamed into place");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_records_round_trip_and_survive_checkpoint_relog() {
        let dir = tmp_dir("txnc");
        let wal = fresh(&dir, None);
        let lsn = wal.log_commit(42);
        wal.log_commit(43);
        wal.sync_group(lsn).unwrap();
        let scan = LogScan::read(&dir).unwrap().unwrap();
        assert_eq!(scan.committed, HashSet::from([42, 43]));
        // Checkpoint with a re-log list keeps the commit evidence.
        wal.checkpoint(40, 44, &[42, 43]).unwrap();
        let mut reader = WalReader::open(wal.path()).unwrap();
        assert_eq!(reader.next_record().unwrap().kind, REC_CHECKPOINT);
        let mut relogged = Vec::new();
        while let Some(rec) = reader.next_record() {
            assert_eq!(rec.kind, REC_TXN_COMMIT);
            relogged.push(u64::from_le_bytes(rec.payload[..8].try_into().unwrap()));
        }
        assert_eq!(relogged, vec![42, 43]);
        let scan = LogScan::read(&dir).unwrap().unwrap();
        assert_eq!((scan.watermark, scan.next_txid), (40, 44));
        assert_eq!(scan.committed, HashSet::from([42, 43]));
        // An empty re-log list leaves exactly one record.
        wal.checkpoint(44, 44, &[]).unwrap();
        assert_eq!(wal.inner.lock().len, record_size(CHECKPOINT_PAYLOAD) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_fsyncs() {
        let dir = tmp_dir("group");
        let wal = std::sync::Arc::new(Wal::open(&dir, None, None).unwrap());
        let n_threads = 8;
        let n_commits = 25;
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(n_threads));
        let mut handles = Vec::new();
        for t in 0..n_threads {
            let wal = wal.clone();
            let barrier = barrier.clone();
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                for i in 0..n_commits {
                    let lsn = wal.log_commit((t * n_commits + i) as u64 + 2);
                    wal.sync_group(lsn).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let stats = wal.stats();
        let total = (n_threads * n_commits) as u64;
        assert_eq!(stats.commit_records, total);
        // Every record durable.
        let mut reader = WalReader::open(wal.path()).unwrap();
        let mut seen = 0;
        while let Some(rec) = reader.next_record() {
            assert_eq!(rec.kind, REC_TXN_COMMIT);
            seen += 1;
        }
        assert_eq!(seen, total);
        // Accounting holds: each sync_group either led a flush or was
        // saved one.
        assert_eq!(stats.group_commits + stats.fsyncs_saved, total);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_injector_fails_wal_sync() {
        // One image waits in the buffer for the sync to write it. Enough
        // images to reach the bound are written early, and that write's
        // crash must surface at the sync too, its records kept buffered.
        for images in [1, BUF_LIMIT / record_size(PAGE_SIZE) + 1] {
            let dir = tmp_dir(&format!("crash{images}"));
            let inj = FaultInjector::new();
            let wal = Wal::open(&dir, Some(inj.clone()), None).unwrap();
            inj.arm(FaultPlan {
                crash_after: 0,
                mode: CrashMode::Drop,
                scope: FaultScope::Wal,
                seed: 5,
            });
            let mut p = Page::new();
            for pid in 0..images as u32 {
                wal.log_page(1, pid, &mut p);
            }
            assert_eq!(inj.crashed(), images > 1, "{images} images: the early write ran");
            assert_eq!(wal.inner.lock().buf.len(), images * record_size(PAGE_SIZE));
            assert!(wal.sync().is_err(), "{images} images: crashing WAL write must surface");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn log_buffer_is_bounded_and_only_sync_makes_it_durable() {
        let dir = tmp_dir("bound");
        let wal = fresh(&dir, None);
        let (durable, fsyncs) = (wal.durable_lsn.load(Ordering::SeqCst), wal.stats().fsyncs);
        let mut p = Page::new();
        let images = 2 * BUF_LIMIT / record_size(PAGE_SIZE) + 1;
        let mut last = 0;
        for pid in 0..images as u32 {
            last = wal.log_page(1, pid, &mut p);
        }
        let on_disk = std::fs::metadata(wal.path()).unwrap().len();
        {
            let inner = wal.inner.lock();
            assert!(inner.buf.len() < BUF_LIMIT, "the buffer grew past its bound");
            assert_eq!(on_disk + inner.buf.len() as u64, inner.len, "the file holds the rest");
        }
        let mut reader = WalReader::open(wal.path()).unwrap();
        let mut written = 0;
        while reader.next_record().is_some() {
            written += 1;
        }
        assert_eq!(reader.remaining(), 0);
        assert!(written > BUF_LIMIT / record_size(PAGE_SIZE), "{written} records written");
        assert_eq!(wal.durable_lsn.load(Ordering::SeqCst), durable, "written is not durable");
        assert_eq!(wal.stats().fsyncs, fsyncs);
        wal.sync().unwrap();
        assert_eq!(wal.durable_lsn.load(Ordering::SeqCst), last);
        assert_eq!(LogScan::read(&dir).unwrap().unwrap().records, images as u64 + 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_on_checkpoint_record_does_not_reset_lsns() {
        // Whatever the crash does to the rewrite, the old log must survive
        // whole: its images, its commit records and its cursor. A reset
        // cursor would be silent data loss — recovery skips any page whose
        // on-disk LSN is `>=` the record's, so re-issued low LSNs would
        // make stale disk pages look current.
        for (i, mode) in
            [CrashMode::Drop, CrashMode::Tear, CrashMode::BitFlip].into_iter().enumerate()
        {
            let dir = tmp_dir(&format!("ckptcrash{i}"));
            let inj = FaultInjector::new();
            let wal = fresh(&dir, Some(inj.clone()));
            let mut p = Page::new();
            let mut highest = 0;
            for pid in 0..8 {
                highest = wal.log_page(1, pid, &mut p);
            }
            wal.log_commit(5);
            wal.sync().unwrap();
            let old = std::fs::read(wal.path()).unwrap();
            inj.arm(FaultPlan {
                crash_after: 0,
                mode,
                scope: FaultScope::Wal,
                seed: 11 + i as u64,
            });
            assert!(wal.checkpoint(6, 9, &[5]).is_err(), "{mode:?}: the rewrite crashed");
            drop(wal);
            inj.disarm();
            let path = dir.join(WAL_FILE);
            assert_eq!(std::fs::read(&path).unwrap(), old, "{mode:?}: the old log is intact");
            let tmp = dir.join("wal.log.tmp");
            assert!(tmp.exists(), "{mode:?}: the crash left the new log unrenamed");
            // Open reads the old log, not the leftover, and resumes past it.
            let (scan, wal) = reopen(&dir);
            assert_eq!((scan.watermark, scan.images.len()), (TXID_FIRST, 8), "{mode:?}");
            assert_eq!(scan.committed, HashSet::from([5]), "{mode:?}");
            let lsn = wal.log_page(1, 99, &mut p);
            assert!(lsn > highest, "{mode:?}: cursor reset by the crash ({lsn} <= {highest})");
            // The next checkpoint overwrites the leftover, however long.
            wal.checkpoint(9, 9, &[]).unwrap();
            assert!(!tmp.exists(), "{mode:?}");
            let len = std::fs::metadata(&path).unwrap().len();
            assert_eq!(len, record_size(CHECKPOINT_PAYLOAD) as u64, "{mode:?}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn open_refuses_a_log_whose_checkpoint_lacks_the_watermark() {
        use crate::db::Database;
        use crate::types::Value;
        let dir = tmp_dir("refuse");
        let file_id = {
            let db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (a INTEGER)").unwrap();
            db.insert_rows("t", (0..50).map(|i| vec![Value::Int(i)]).collect()).unwrap();
            let file_id = db.table_def("t").unwrap().file;
            db.close().unwrap();
            file_id
        };
        // A log as an older version wrote it: a checkpoint record with no
        // payload (the watermark lived beside the log), then an image that
        // redo would write over the table's first page.
        let mut log = Vec::new();
        append_record(&mut log, REC_CHECKPOINT, 1, 0, 0, &[]);
        let mut page = Page::new();
        page.insert(b"not the table's page").unwrap();
        append_record(&mut log, REC_PAGE_IMAGE, u64::MAX - 1, file_id, 0, page.bytes());
        std::fs::write(dir.join(WAL_FILE), &log).unwrap();
        let data_files = || {
            let mut files: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "dat"))
                .map(|p| {
                    let bytes = std::fs::read(&p).unwrap();
                    (p, bytes)
                })
                .collect();
            files.sort();
            files
        };
        let before = data_files();
        assert!(!before.is_empty());
        let err = Database::open(&dir).err().expect("the older log must be refused");
        assert!(err.to_string().contains(WAL_FILE), "the error names the log: {err}");
        assert_eq!(data_files(), before, "refused before any data file was written");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_log_page_assigns_unique_lsns() {
        let dir = tmp_dir("conc");
        let wal = std::sync::Arc::new(Wal::open(&dir, None, None).unwrap());
        let mut handles = Vec::new();
        for t in 0..4 {
            let wal = wal.clone();
            handles.push(std::thread::spawn(move || {
                let mut lsns = Vec::new();
                let mut p = Page::new();
                for i in 0..50 {
                    lsns.push(wal.log_page(t, i, &mut p));
                }
                wal.sync().unwrap();
                lsns
            }));
        }
        let mut all: Vec<u64> = handles.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 200, "LSNs must be unique across threads");
        // Every record must be intact on disk.
        let mut reader = WalReader::open(wal.path()).unwrap();
        let mut n = 0;
        while reader.next_record().is_some() {
            n += 1;
        }
        assert_eq!(n, 200);
        assert_eq!(reader.remaining(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
