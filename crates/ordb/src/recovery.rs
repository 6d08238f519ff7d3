//! Crash recovery: the redo + undo passes run by [`Database::open`].
//!
//! **Redo** is pure physical replay over the write-ahead log
//! ([`crate::storage::wal`]): scan every valid record front to back,
//! keep the *last* image logged for each `(file, page)`, and write those
//! images over the data files. A page is skipped when its on-disk image
//! already verifies and carries an LSN at least as new as the record —
//! which makes replay idempotent (a crash *during* recovery just means
//! the next open redoes less). A torn or checksum-failed on-disk page
//! never survives: its logged image overwrites it unconditionally.
//!
//! **Undo** ([`undo_uncommitted`]) runs after redo, once the catalog is
//! loaded: it collects the committed-transaction set from the log's
//! `TXNC` records, then sweeps every heap page stamping dead
//! (`xmin := 0`) versions created by transactions that never committed
//! and clearing `xmax` claims they left behind. Transaction ids below
//! the `txn.meta` watermark were decided before the last checkpoint and
//! are trusted without commit records. The sweep is logical-state
//! repair, not log replay — it edits slot headers in place and restamps
//! the page checksum without touching the LSN.
//!
//! **Vacuum interaction.** A crash mid-[`vacuum`] needs no special
//! handling here. Vacuum is WAL-logged like any other mutation: redo
//! replays whatever prefix of the pass reached the log (index deletes,
//! freed slots, pages reinitialised to the free kind, `special0 == 3`),
//! and the undo sweep skips free and overflow pages entirely — it only
//! inspects `special0 == 1` data pages, so a half-reclaimed chain can
//! never be misread as slot headers. Versions the crashed pass did not
//! get to are still dead-below-the-watermark on reopen and the next
//! pass reclaims them; versions it stamped `xmin == 0` are swept up by
//! [`vacuum`]'s stamped-dead scan.
//!
//! Both passes use plain `std::fs` I/O rather than the pool/fault
//! stack: recovery models the clean restart *after* the crash, when the
//! disk is healthy again.
//!
//! [`vacuum`]: crate::db::Database::vacuum
//!
//! [`Database::open`]: crate::db::Database::open

use std::collections::{HashMap, HashSet};
use std::fs::OpenOptions;
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::Result;
use crate::storage::page::{verify_checksum, Page, PAGE_SIZE};
use crate::storage::wal::{WalReader, REC_PAGE_IMAGE, REC_TXN_COMMIT, WAL_FILE};

/// What one recovery pass did. Returned by
/// [`Database::recovery_report`](crate::db::Database::recovery_report)
/// and folded into `metrics.json` by the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid WAL records scanned (page images + checkpoints).
    pub scanned_records: u64,
    /// Pages whose logged image was written back over the data file.
    pub replayed_pages: u64,
    /// Pages skipped because the on-disk image was already current.
    pub skipped_pages: u64,
    /// Bytes past the last valid record (a torn append from the crash).
    pub torn_tail_bytes: u64,
    /// Total WAL bytes on disk at open (valid prefix + torn tail).
    pub wal_bytes: u64,
}

/// Derive the data-file path for WAL file id `file` — must match the
/// naming used by `Database` when it registers files.
fn data_file_path(dir: &Path, file: u32) -> std::path::PathBuf {
    dir.join(format!("f{file:05}.dat"))
}

/// Run the redo pass over `dir/wal.log`. Returns `None` when no log
/// exists (a database opened for the first time).
pub fn recover(dir: &Path) -> Result<Option<RecoveryReport>> {
    let wal_path = dir.join(WAL_FILE);
    if !wal_path.exists() {
        return Ok(None);
    }
    let mut reader = WalReader::open(&wal_path)?;
    // Last image wins per page: later records supersede earlier ones, so
    // each page is written at most once no matter how long the log is.
    let mut latest: HashMap<(u32, u32), (u64, Vec<u8>)> = HashMap::new();
    let mut report = RecoveryReport::default();
    while let Some(rec) = reader.next_record() {
        report.scanned_records += 1;
        if rec.kind == REC_PAGE_IMAGE && rec.payload.len() == PAGE_SIZE {
            latest.insert((rec.file_id, rec.pid), (rec.lsn, rec.payload));
        }
    }
    report.torn_tail_bytes = reader.remaining();
    report.wal_bytes = reader.consumed() + report.torn_tail_bytes;

    // Group by file so each data file opens (and fsyncs) once.
    let mut by_file: HashMap<u32, Vec<(u32, u64, Vec<u8>)>> = HashMap::new();
    for ((file, pid), (lsn, image)) in latest {
        by_file.entry(file).or_default().push((pid, lsn, image));
    }
    for (file_id, mut pages) in by_file {
        pages.sort_by_key(|(pid, _, _)| *pid);
        let path = data_file_path(dir, file_id);
        let f =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut touched = false;
        for (pid, lsn, image) in pages {
            let off = pid as u64 * PAGE_SIZE as u64;
            let mut disk = [0u8; PAGE_SIZE];
            let current = match f.read_exact_at(&mut disk, off) {
                // Readable, verifies, and at least as new as the record.
                Ok(()) => verify_checksum(&disk) && page_lsn(&disk) >= lsn,
                // Short read (crash before the file grew): replay.
                Err(_) => false,
            };
            if current {
                report.skipped_pages += 1;
            } else {
                f.write_all_at(&image, off)?;
                report.replayed_pages += 1;
                touched = true;
            }
        }
        if touched {
            f.sync_data()?;
        }
    }
    Ok(Some(report))
}

fn page_lsn(bytes: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(bytes[PAGE_SIZE - 12..PAGE_SIZE - 4].try_into().unwrap())
}

/// What the undo pass did. Folded into open-time bookkeeping: the
/// transaction manager resumes its id cursor past `max_txid`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UndoReport {
    /// Distinct committed transaction ids found in the log.
    pub committed_txns: u64,
    /// Versions stamped dead (`xmin := 0`) — inserts by transactions
    /// that never committed.
    pub versions_stamped_dead: u64,
    /// Delete claims cleared (`xmax := 0`) — claims by transactions
    /// that never committed.
    pub xmax_cleared: u64,
    /// Highest transaction id seen anywhere (headers, commit records,
    /// `txn.meta`).
    pub max_txid: u64,
}

/// Undo pass: sweep the heap files named by `heap_file_ids`, stamping
/// dead every version whose creator is neither below the `txn.meta`
/// watermark nor in the log's committed set, and clearing `xmax` claims
/// under the same rule. Must run after [`recover`] (so slot headers are
/// as the log left them) and before the WAL is checkpoint-truncated
/// (which discards the commit records).
pub fn undo_uncommitted(dir: &Path, heap_file_ids: &[u32]) -> Result<UndoReport> {
    let (watermark, meta_next) = crate::txn::read_txn_meta(dir);
    let mut committed: HashSet<u64> = HashSet::new();
    let wal_path = dir.join(WAL_FILE);
    if wal_path.exists() {
        let mut reader = WalReader::open(&wal_path)?;
        while let Some(rec) = reader.next_record() {
            if rec.kind == REC_TXN_COMMIT && rec.payload.len() == 8 {
                committed.insert(u64::from_le_bytes(rec.payload[..8].try_into().unwrap()));
            }
        }
    }
    let mut report = UndoReport {
        committed_txns: committed.len() as u64,
        max_txid: meta_next.saturating_sub(1).max(committed.iter().copied().max().unwrap_or(0)),
        ..UndoReport::default()
    };
    let decided = |t: u64| t < watermark || committed.contains(&t);
    for &fid in heap_file_ids {
        let path = data_file_path(dir, fid);
        let Ok(f) = OpenOptions::new().read(true).write(true).open(&path) else {
            continue; // heap file never materialized
        };
        let pages = f.metadata()?.len() / PAGE_SIZE as u64;
        let mut touched_file = false;
        for pid in 0..pages {
            let off = pid * PAGE_SIZE as u64;
            let mut raw = [0u8; PAGE_SIZE];
            if f.read_exact_at(&mut raw, off).is_err() {
                continue; // short tail: never a full page
            }
            // Leave non-verifying pages for the pool's corruption
            // detection — restamping them would bless garbage.
            if !verify_checksum(&raw) {
                continue;
            }
            let mut page = Page::from_bytes(raw);
            if page.special0() != 1 {
                continue; // overflow, vacuumed-free, or fresh page: no slot headers
            }
            let mut touched = false;
            for slot in 0..page.slot_count() {
                let Some(rec) = page.get_mut(slot) else { continue };
                if rec.len() < 16 {
                    continue;
                }
                let xmin = u64::from_le_bytes(rec[0..8].try_into().unwrap());
                let xmax = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                report.max_txid = report.max_txid.max(xmin).max(xmax);
                if xmin != 0 && !decided(xmin) {
                    rec[0..8].copy_from_slice(&0u64.to_le_bytes());
                    report.versions_stamped_dead += 1;
                    touched = true;
                } else if xmax != 0 && !decided(xmax) {
                    rec[8..16].copy_from_slice(&0u64.to_le_bytes());
                    report.xmax_cleared += 1;
                    touched = true;
                }
            }
            if touched {
                // Keep the LSN (redo ordering is untouched); refresh the
                // trailer over the edited headers.
                page.stamp_checksum();
                f.write_all_at(page.bytes(), off)?;
                touched_file = true;
            }
        }
        if touched_file {
            f.sync_data()?;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::page::Page;
    use crate::storage::wal::Wal;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ordb-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn logged_page(wal: &Wal, file: u32, pid: u32, payload: &[u8]) -> Page {
        let mut p = Page::new();
        p.insert(payload).unwrap();
        wal.log_page(file, pid, &mut p);
        p
    }

    #[test]
    fn no_wal_means_no_report() {
        let dir = tmp_dir("nowal");
        assert!(recover(&dir).unwrap().is_none());
    }

    #[test]
    fn replays_missing_and_stale_pages() {
        let dir = tmp_dir("replay");
        let wal = Wal::open(&dir, None).unwrap();
        // Log two pages of file 1 but never write the data file (the
        // "crashed before checkpoint" shape).
        let p0 = logged_page(&wal, 1, 0, b"page zero");
        let p1 = logged_page(&wal, 1, 1, b"page one");
        wal.sync().unwrap();
        drop(wal);
        let report = recover(&dir).unwrap().expect("wal exists");
        assert_eq!(report.replayed_pages, 2);
        assert_eq!(report.skipped_pages, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &p0.bytes()[..]);
        assert_eq!(&raw[PAGE_SIZE..2 * PAGE_SIZE], &p1.bytes()[..]);
        // Second pass: everything current, nothing replayed.
        let again = recover(&dir).unwrap().unwrap();
        assert_eq!(again.replayed_pages, 0);
        assert_eq!(again.skipped_pages, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_image_wins() {
        let dir = tmp_dir("lastwins");
        let wal = Wal::open(&dir, None).unwrap();
        logged_page(&wal, 1, 0, b"old image");
        let newer = logged_page(&wal, 1, 0, b"new image");
        wal.sync().unwrap();
        drop(wal);
        let report = recover(&dir).unwrap().unwrap();
        assert_eq!(report.scanned_records, 2);
        assert_eq!(report.replayed_pages, 1, "one page, latest image only");
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &newer.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_data_page_is_repaired() {
        let dir = tmp_dir("tornpage");
        let wal = Wal::open(&dir, None).unwrap();
        let good = logged_page(&wal, 1, 0, b"the good image");
        wal.sync().unwrap();
        drop(wal);
        // Simulate a torn data-page write: half the image on disk.
        let mut torn = good.bytes().to_vec();
        for b in torn.iter_mut().skip(PAGE_SIZE / 2) {
            *b = 0xFF;
        }
        std::fs::write(data_file_path(&dir, 1), &torn).unwrap();
        let report = recover(&dir).unwrap().unwrap();
        assert_eq!(report.replayed_pages, 1, "torn page must not be skipped");
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &good.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_disk_page_is_kept() {
        let dir = tmp_dir("newer");
        let wal = Wal::open(&dir, None).unwrap();
        logged_page(&wal, 1, 0, b"logged early");
        wal.sync().unwrap();
        // The data file holds a *newer* image (logged later, written by
        // an eviction, but that WAL portion also synced — here we fake it
        // by stamping a higher LSN directly).
        let mut newer = Page::new();
        newer.insert(b"written later").unwrap();
        newer.set_lsn(u64::MAX);
        newer.stamp_checksum();
        std::fs::write(data_file_path(&dir, 1), newer.bytes()).unwrap();
        drop(wal);
        let report = recover(&dir).unwrap().unwrap();
        assert_eq!(report.replayed_pages, 0);
        assert_eq!(report.skipped_pages, 1);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &newer.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_stamps_uncommitted_and_clears_claims() {
        let dir = tmp_dir("undo");
        // The log carries commit evidence for txn 5 only; txn 7 crashed
        // mid-flight. No txn.meta: the watermark defaults to 2, so both
        // ids are judged by the committed set.
        let wal = Wal::open(&dir, None).unwrap();
        wal.log_commit(5);
        wal.sync().unwrap();
        drop(wal);
        let rec = |xmin: u64, xmax: u64, body: &[u8]| {
            let mut r = Vec::new();
            r.extend_from_slice(&xmin.to_le_bytes());
            r.extend_from_slice(&xmax.to_le_bytes());
            r.extend_from_slice(body);
            r
        };
        let mut p = Page::new();
        p.set_special0(1); // data page
        p.insert(&rec(5, 0, b"keep")).unwrap();
        p.insert(&rec(7, 0, b"uncommitted insert")).unwrap();
        p.insert(&rec(5, 7, b"uncommitted delete claim")).unwrap();
        p.stamp_checksum();
        std::fs::write(data_file_path(&dir, 1), p.bytes()).unwrap();

        let report = undo_uncommitted(&dir, &[1]).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.versions_stamped_dead, 1);
        assert_eq!(report.xmax_cleared, 1);
        assert_eq!(report.max_txid, 7);

        let raw: [u8; PAGE_SIZE] =
            std::fs::read(data_file_path(&dir, 1)).unwrap().try_into().unwrap();
        assert!(verify_checksum(&raw), "sweep must restamp the trailer");
        let q = Page::from_bytes(raw);
        let hdr = |slot: usize| {
            let r = q.get(slot).unwrap();
            (
                u64::from_le_bytes(r[0..8].try_into().unwrap()),
                u64::from_le_bytes(r[8..16].try_into().unwrap()),
            )
        };
        assert_eq!(hdr(0), (5, 0), "committed row untouched");
        assert_eq!(hdr(1), (0, 0), "uncommitted insert stamped dead");
        assert_eq!(hdr(2), (5, 0), "uncommitted claim cleared");

        // Idempotent: a second sweep changes nothing.
        let again = undo_uncommitted(&dir, &[1]).unwrap();
        assert_eq!(again.versions_stamped_dead, 0);
        assert_eq!(again.xmax_cleared, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_trusts_ids_below_the_watermark() {
        let dir = tmp_dir("undowm");
        // Empty log (no commit records at all) but a watermark of 10:
        // ids below 10 were decided before the last checkpoint.
        let wal = Wal::open(&dir, None).unwrap();
        wal.sync().unwrap();
        drop(wal);
        crate::txn::write_txn_meta(&dir, 10, 12).unwrap();
        let rec = |xmin: u64, xmax: u64| {
            let mut r = Vec::new();
            r.extend_from_slice(&xmin.to_le_bytes());
            r.extend_from_slice(&xmax.to_le_bytes());
            r.extend_from_slice(b"x");
            r
        };
        let mut p = Page::new();
        p.set_special0(1);
        p.insert(&rec(9, 0)).unwrap(); // below watermark: keep
        p.insert(&rec(11, 0)).unwrap(); // above, no commit record: dead
        p.stamp_checksum();
        std::fs::write(data_file_path(&dir, 1), p.bytes()).unwrap();
        let report = undo_uncommitted(&dir, &[1]).unwrap();
        assert_eq!(report.versions_stamped_dead, 1);
        assert_eq!(report.max_txid, 11);
        let raw: [u8; PAGE_SIZE] =
            std::fs::read(data_file_path(&dir, 1)).unwrap().try_into().unwrap();
        let q = Page::from_bytes(raw);
        assert_eq!(u64::from_le_bytes(q.get(0).unwrap()[0..8].try_into().unwrap()), 9);
        assert_eq!(u64::from_le_bytes(q.get(1).unwrap()[0..8].try_into().unwrap()), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_measured_and_ignored() {
        let dir = tmp_dir("torntail");
        let wal = Wal::open(&dir, None).unwrap();
        let keep = logged_page(&wal, 1, 0, b"kept");
        logged_page(&wal, 1, 1, b"lost to the tear");
        wal.sync().unwrap();
        let wal_path = wal.path().to_path_buf();
        drop(wal);
        let full = std::fs::read(&wal_path).unwrap();
        let cut = crate::storage::wal::record_size(PAGE_SIZE) + 99;
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let report = recover(&dir).unwrap().unwrap();
        assert_eq!(report.scanned_records, 1);
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(report.torn_tail_bytes, 99);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(raw.len(), PAGE_SIZE, "second page never existed");
        assert_eq!(&raw[..PAGE_SIZE], &keep.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
