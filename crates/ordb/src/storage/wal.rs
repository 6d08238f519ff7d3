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
//! [file  u32] [pid u32]        (zero for checkpoint records)
//! [len   u32]                  payload length
//! [crc   u32]                  CRC32 over kind..=payload
//! [payload; len]
//! ```
//!
//! `kind` is [`REC_PAGE_IMAGE`] (payload = 8 KiB page image) or
//! [`REC_CHECKPOINT`] (payload empty; `lsn` = next LSN to hand out).
//!
//! ## Protocol
//!
//! * [`Wal::log_page`] assigns the next LSN, stamps it and a fresh
//!   checksum into the page trailer, and buffers the record. Nothing is
//!   durable yet.
//! * [`Wal::sync`] writes the buffer and fsyncs — the commit point.
//! * [`Wal::ensure_durable`] is the WAL-before-data gate: the buffer
//!   pool calls it with a page's LSN before writing that page to a data
//!   file, forcing a flush only when the log actually lags.
//! * [`Wal::checkpoint_truncate`] runs after all data pages are flushed
//!   and fsync'd: the log is reset to a single checkpoint record
//!   carrying the LSN cursor forward.
//!
//! Recovery ([`crate::recovery`]) scans the log front to back, stops at
//! the first corrupt or torn record (the torn tail), and replays images
//! whose LSN is newer than the on-disk page.
//!
//! ## Vacuum ordering
//!
//! Vacuum needs no record kind of its own: every page it mutates —
//! index leaves losing entries, data pages losing slots, overflow pages
//! reinitialised to the free kind — is logged as an ordinary page
//! image when the pass closes with `log_dirty_frames` + [`Wal::sync`],
//! as [`Database::commit`] does. A crash before that sync replays
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
//! [`Database::commit`]: crate::db::Database::commit
//! [`BufferPool::log_frame`]: crate::storage::buffer::BufferPool::log_frame

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom};
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
/// Record kind: checkpoint (log reset marker carrying the LSN cursor).
pub const REC_CHECKPOINT: u8 = 2;
/// Record kind: transaction commit (payload = 8-byte LE transaction id).
/// Recovery treats a transaction as committed iff its commit record is
/// in the valid log prefix (or its id is below the `txn.meta`
/// watermark); versions of any other transaction are stamped dead.
pub const REC_TXN_COMMIT: u8 = 3;
/// Fixed record header size in bytes.
pub const REC_HEADER: usize = 28;
/// File name of the log inside a database directory.
pub const WAL_FILE: &str = "wal.log";
/// Sidecar holding the LSN cursor across checkpoint truncations: written
/// atomically (temp + rename) *before* the log is truncated, so a crash
/// between the truncation and the new checkpoint record becoming durable
/// can never reset LSNs. A reset would be silent data loss: recovery
/// skips any page whose on-disk LSN is `>=` the record's, so re-issued
/// low LSNs would make stale disk pages look current.
pub const WAL_META: &str = "wal.meta";

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
    /// Checkpoints taken (log truncations).
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
    /// Byte length of the durable (written + fsync'd) prefix.
    durable_len: u64,
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
    /// Open (creating if absent) the log at `dir/wal.log`. Scans the
    /// existing log to resume the LSN cursor past its highest record.
    pub fn open(dir: &Path, fault: Option<Arc<FaultInjector>>) -> Result<Wal> {
        let path = dir.join(WAL_FILE);
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        // Resume the LSN cursor: highest LSN in any valid record + 1.
        let mut next_lsn = 1u64;
        let mut valid_len = 0u64;
        {
            let mut reader = WalReader::from_file(&mut file)?;
            while let Some(rec) = reader.next_record() {
                next_lsn = next_lsn.max(rec.lsn + 1);
                if rec.kind == REC_CHECKPOINT {
                    next_lsn = next_lsn.max(rec.lsn);
                }
                valid_len = reader.consumed();
            }
        }
        // The meta sidecar wins over the log: a crash during checkpoint
        // truncation may leave the log empty (or with a torn checkpoint
        // record) while the sidecar already carries the real cursor.
        if let Ok(text) = std::fs::read_to_string(dir.join(WAL_META)) {
            if let Ok(meta_lsn) = text.trim().parse::<u64>() {
                next_lsn = next_lsn.max(meta_lsn);
            }
        }
        file.seek(SeekFrom::Start(valid_len))?;
        Ok(Wal {
            path,
            inner: Mutex::new(WalInner {
                file,
                buf: Vec::new(),
                durable_len: valid_len,
                len: valid_len,
            }),
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

    /// Current byte length of the log, including buffered records.
    pub fn len_bytes(&self) -> u64 {
        self.inner.lock().len
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
    /// checksum into the page trailer, and buffers the record. Returns
    /// the LSN. Call [`Wal::sync`] or rely on
    /// [`Wal::ensure_durable`] to make it durable.
    pub fn log_page(&self, file_id: u32, pid: u32, page: &mut Page) -> u64 {
        let mut inner = self.inner.lock();
        let lsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
        page.set_lsn(lsn);
        page.stamp_checksum();
        append_record(&mut inner.buf, REC_PAGE_IMAGE, lsn, file_id, pid, page.bytes());
        inner.len += record_size(PAGE_SIZE) as u64;
        self.appends.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(record_size(PAGE_SIZE) as u64, Ordering::Relaxed);
        lsn
    }

    /// Append a commit record for transaction `txid` and return its
    /// LSN. Buffered only — pair with [`Wal::sync_group`] (durable
    /// commit) or leave it to ride along with the next flush (lazy
    /// autocommit, durable at the next `Database::commit`).
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

    fn flush_locked(&self, inner: &mut WalInner) -> Result<()> {
        if !inner.buf.is_empty() {
            let off = inner.len - inner.buf.len() as u64;
            faulted_write_at(&inner.file, self.fault.as_deref(), IoKind::Wal, &inner.buf, off)
                .map_err(DbError::from)?;
            inner.buf.clear();
        }
        faulted_sync(&inner.file, self.fault.as_deref()).map_err(DbError::from)?;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        inner.durable_len = inner.len;
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

    /// Truncate the log to a single checkpoint record. The caller must
    /// have flushed and fsync'd every data page first — otherwise redo
    /// information is lost.
    pub fn checkpoint_truncate(&self) -> Result<()> {
        self.checkpoint_truncate_with(&[])
    }

    /// [`Wal::checkpoint_truncate`] that additionally re-appends commit
    /// records for `commits` — committed transaction ids at or above
    /// the `txn.meta` watermark, whose commit evidence must survive the
    /// truncation because an older transaction was still in flight when
    /// the checkpoint ran.
    pub fn checkpoint_truncate_with(&self, commits: &[u64]) -> Result<()> {
        let mut inner = self.inner.lock();
        if let Some(f) = &self.fault {
            if f.crashed() {
                // A dead process never reaches the truncation; without
                // this guard the set_len below would erase redo records
                // the "crashed" run still needs.
                return Err(DbError::Io(crate::storage::fault::crash_error()));
            }
        }
        inner.buf.clear();
        let lsn = self.next_lsn.load(Ordering::SeqCst);
        // Persist the cursor before destroying the log that carries it;
        // the rename is atomic, so every crash window sees either the old
        // sidecar (log still intact) or the new one.
        let dir = self.path.parent().unwrap_or(Path::new("."));
        let tmp = dir.join("wal.meta.tmp");
        std::fs::write(&tmp, lsn.to_string())?;
        std::fs::rename(&tmp, dir.join(WAL_META))?;
        let mut rec = Vec::new();
        append_record(&mut rec, REC_CHECKPOINT, lsn, 0, 0, &[]);
        for &txid in commits {
            let clsn = self.next_lsn.fetch_add(1, Ordering::SeqCst);
            append_record(&mut rec, REC_TXN_COMMIT, clsn, 0, 0, &txid.to_le_bytes());
            self.commit_records.fetch_add(1, Ordering::Relaxed);
        }
        inner.file.set_len(0)?;
        faulted_write_at(&inner.file, self.fault.as_deref(), IoKind::Wal, &rec, 0)
            .map_err(DbError::from)?;
        faulted_sync(&inner.file, self.fault.as_deref()).map_err(DbError::from)?;
        inner.len = rec.len() as u64;
        inner.durable_len = inner.len;
        self.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.checkpoints.fetch_add(1, Ordering::Relaxed);
        self.durable_lsn.store(self.next_lsn.load(Ordering::SeqCst) - 1, Ordering::SeqCst);
        Ok(())
    }
}

/// One decoded WAL record.
pub struct WalRecord {
    /// Record kind ([`REC_PAGE_IMAGE`] or [`REC_CHECKPOINT`]).
    pub kind: u8,
    /// Log sequence number.
    pub lsn: u64,
    /// Target data file id (0 for checkpoints).
    pub file_id: u32,
    /// Target page id (0 for checkpoints).
    pub pid: u32,
    /// Payload (the page image for [`REC_PAGE_IMAGE`]).
    pub payload: Vec<u8>,
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

    fn from_file(file: &mut File) -> Result<WalReader> {
        let mut data = Vec::new();
        file.seek(SeekFrom::Start(0))?;
        file.read_to_end(&mut data)?;
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

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ordb-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn log_sync_read_round_trip() {
        let dir = tmp_dir("rt");
        let wal = Wal::open(&dir, None).unwrap();
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
            let wal = Wal::open(&dir, None).unwrap();
            let mut p = Page::new();
            for _ in 0..5 {
                highest = wal.log_page(1, 1, &mut p);
            }
            wal.sync().unwrap();
        }
        {
            let wal = Wal::open(&dir, None).unwrap();
            let mut p = Page::new();
            let lsn = wal.log_page(1, 2, &mut p);
            assert!(lsn > highest, "reopen must not reuse LSNs ({lsn} <= {highest})");
            wal.checkpoint_truncate().unwrap();
            highest = lsn;
        }
        {
            let wal = Wal::open(&dir, None).unwrap();
            let mut p = Page::new();
            let lsn = wal.log_page(1, 3, &mut p);
            assert!(lsn > highest, "checkpoint must carry the cursor forward");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_stops_at_torn_tail() {
        let dir = tmp_dir("tear");
        let wal = Wal::open(&dir, None).unwrap();
        let mut p = Page::new();
        wal.log_page(1, 1, &mut p);
        wal.log_page(1, 2, &mut p);
        wal.sync().unwrap();
        // Chop the file mid-second-record.
        let path = wal.path().to_path_buf();
        drop(wal);
        let full = std::fs::read(&path).unwrap();
        let cut = record_size(PAGE_SIZE) + 40;
        std::fs::write(&path, &full[..cut]).unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert!(reader.next_record().is_some());
        assert!(reader.next_record().is_none());
        assert_eq!(reader.remaining(), 40);
        // Reopening resumes cleanly past the valid prefix.
        let wal = Wal::open(&dir, None).unwrap();
        let mut p2 = Page::new();
        wal.log_page(1, 3, &mut p2);
        wal.sync().unwrap();
        let mut reader = WalReader::open(&path).unwrap();
        assert_eq!(reader.next_record().unwrap().pid, 1);
        assert_eq!(reader.next_record().unwrap().pid, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_stops_at_bit_flip() {
        let dir = tmp_dir("flip");
        let wal = Wal::open(&dir, None).unwrap();
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
        let wal = Wal::open(&dir, None).unwrap();
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
        let wal = Wal::open(&dir, None).unwrap();
        let mut p = Page::new();
        for i in 0..10 {
            wal.log_page(1, i, &mut p);
        }
        wal.sync().unwrap();
        assert!(wal.len_bytes() > 10 * PAGE_SIZE as u64);
        wal.checkpoint_truncate().unwrap();
        assert_eq!(wal.len_bytes(), record_size(0) as u64);
        let mut reader = WalReader::open(wal.path()).unwrap();
        let rec = reader.next_record().unwrap();
        assert_eq!(rec.kind, REC_CHECKPOINT);
        assert!(reader.next_record().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn commit_records_round_trip_and_survive_checkpoint_relog() {
        let dir = tmp_dir("txnc");
        let wal = Wal::open(&dir, None).unwrap();
        let lsn = wal.log_commit(42);
        wal.log_commit(43);
        wal.sync_group(lsn).unwrap();
        let mut reader = WalReader::open(wal.path()).unwrap();
        let rec = reader.next_record().unwrap();
        assert_eq!(rec.kind, REC_TXN_COMMIT);
        assert_eq!(u64::from_le_bytes(rec.payload[..8].try_into().unwrap()), 42);
        assert_eq!(reader.next_record().unwrap().kind, REC_TXN_COMMIT);
        // Checkpoint with a re-log list keeps the commit evidence.
        wal.checkpoint_truncate_with(&[42, 43]).unwrap();
        let mut reader = WalReader::open(wal.path()).unwrap();
        assert_eq!(reader.next_record().unwrap().kind, REC_CHECKPOINT);
        let mut relogged = Vec::new();
        while let Some(rec) = reader.next_record() {
            assert_eq!(rec.kind, REC_TXN_COMMIT);
            relogged.push(u64::from_le_bytes(rec.payload[..8].try_into().unwrap()));
        }
        assert_eq!(relogged, vec![42, 43]);
        // An empty re-log list truncates to exactly one record.
        wal.checkpoint_truncate_with(&[]).unwrap();
        assert_eq!(wal.len_bytes(), record_size(0) as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_batches_concurrent_fsyncs() {
        let dir = tmp_dir("group");
        let wal = std::sync::Arc::new(Wal::open(&dir, None).unwrap());
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
        let dir = tmp_dir("crash");
        let inj = FaultInjector::new();
        let wal = Wal::open(&dir, Some(inj.clone())).unwrap();
        let mut p = Page::new();
        wal.log_page(1, 1, &mut p);
        inj.arm(FaultPlan {
            crash_after: 0,
            mode: CrashMode::Drop,
            scope: FaultScope::Wal,
            seed: 5,
        });
        assert!(wal.sync().is_err(), "crashing WAL write must surface");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_on_checkpoint_record_does_not_reset_lsns() {
        // The nasty window: set_len(0) done, checkpoint record lost.
        // Without the meta sidecar the next open would restart at LSN 1
        // and recovery would mistake stale disk pages for current ones.
        let dir = tmp_dir("ckptcrash");
        let inj = FaultInjector::new();
        let mut highest = 0;
        {
            let wal = Wal::open(&dir, Some(inj.clone())).unwrap();
            let mut p = Page::new();
            for i in 0..8 {
                highest = wal.log_page(1, i, &mut p);
            }
            wal.sync().unwrap();
            inj.arm(FaultPlan {
                crash_after: 0,
                mode: CrashMode::Drop,
                scope: FaultScope::Wal,
                seed: 11,
            });
            assert!(wal.checkpoint_truncate().is_err(), "checkpoint write crashed");
        }
        inj.disarm();
        assert_eq!(std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(), 0, "log was truncated");
        let wal = Wal::open(&dir, None).unwrap();
        let mut p = Page::new();
        let lsn = wal.log_page(1, 99, &mut p);
        assert!(lsn > highest, "cursor must survive the crashed truncation ({lsn} <= {highest})");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_log_page_assigns_unique_lsns() {
        let dir = tmp_dir("conc");
        let wal = std::sync::Arc::new(Wal::open(&dir, None).unwrap());
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
