//! Crash recovery: the redo + undo passes run by [`Database::open`].
//!
//! Both passes take their inputs from one read of the write-ahead log,
//! [`LogScan::read`] ([`crate::storage::wal`]), which also hands the
//! reopened log its LSN cursor.
//!
//! **Redo** ([`redo`]) is pure physical replay: the scan kept the *last*
//! image logged for each `(file, page)`, and those images are written
//! over the data files. A page is skipped when its on-disk image
//! already verifies and carries an LSN at least as new as the record —
//! which makes replay idempotent (a crash *during* recovery just means
//! the next open redoes less). A torn or checksum-failed on-disk page
//! never survives: its logged image overwrites it unconditionally.
//!
//! **Undo** ([`undo_uncommitted`]) runs after redo, once the catalog is
//! loaded, and only reads: it lists the versions created by transactions
//! that never committed and the `xmax` claims they left behind. A
//! transaction committed if its `TXNC` record is in the log or its id is
//! below the watermark carried by the log's checkpoint record (decided
//! before that checkpoint); an `xmin` of zero is never decided, so a
//! version an older build stamped dead in place is listed as well.
//! [`Database::open`] then takes each listed version out through the
//! reclaim that [`vacuum`] uses — index entries first, then the slot and
//! its overflow chain — and clears each listed claim, all through the
//! logged buffer pool. The repair is logged like any other write: a
//! crash during it leaves either the data files as they were, and the
//! next open lists the same versions again, or a log whose images redo
//! replays.
//!
//! **Vacuum interaction.** A crash mid-[`vacuum`] needs no special
//! handling here. Vacuum is WAL-logged like any other mutation: redo
//! replays whatever prefix of the pass reached the log (index deletes,
//! freed slots, pages reinitialised to the free kind, `special0 == 3`),
//! and the undo pass skips free and overflow pages entirely — it only
//! inspects `special0 == 1` data pages, so a half-reclaimed chain can
//! never be misread as slot headers. Versions the crashed pass did not
//! get to are still dead-below-the-watermark on reopen and the next
//! pass reclaims them.
//!
//! Redo writes the data files with plain `std::fs` I/O rather than the
//! pool/fault stack: recovery models the clean restart *after* the
//! crash, when the disk is healthy again. It is the only code here that
//! writes a data file.
//!
//! [`vacuum`]: crate::db::Database::vacuum
//!
//! [`Database::open`]: crate::db::Database::open

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::Path;

use crate::error::Result;
use crate::storage::heap::{rid_slot, Rid};
use crate::storage::page::{verify_checksum, Page, PAGE_SIZE};
use crate::storage::wal::LogScan;
use crate::txn::TXID_INVALID;

/// What one recovery pass did. Returned by
/// [`Database::recovery_report`](crate::db::Database::recovery_report)
/// and folded into `metrics.json` by the bench harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Valid WAL records scanned (the checkpoint, page images, commits).
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

/// Run the redo pass: write the scan's page images (taken out of `scan`)
/// over the data files in `dir` wherever the disk copy is not current.
pub fn redo(dir: &Path, scan: &mut LogScan) -> Result<RecoveryReport> {
    let mut report = RecoveryReport {
        scanned_records: scan.records,
        torn_tail_bytes: scan.torn_tail,
        wal_bytes: scan.valid_len + scan.torn_tail,
        ..RecoveryReport::default()
    };
    // Group by file so each data file opens (and fsyncs) once.
    let mut by_file: HashMap<u32, Vec<(u32, u64, Vec<u8>)>> = HashMap::new();
    for ((file, pid), (lsn, image)) in std::mem::take(&mut scan.images) {
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
    Ok(report)
}

fn page_lsn(bytes: &[u8; PAGE_SIZE]) -> u64 {
    u64::from_le_bytes(bytes[PAGE_SIZE - 12..PAGE_SIZE - 4].try_into().unwrap())
}

/// What the undo pass found: the versions [`Database::open`] must take
/// out of the heap, the claims it must clear, and where the transaction
/// manager resumes its id cursor (past `max_txid`).
///
/// [`Database::open`]: crate::db::Database::open
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UndoReport {
    /// Distinct committed transaction ids found in the log.
    pub committed_txns: u64,
    /// Highest transaction id seen anywhere (headers, commit records,
    /// the checkpoint's id cursor).
    pub max_txid: u64,
    /// `(heap file, rid)` of every version whose creator never
    /// committed: open reclaims each — index entries first, then the
    /// slot — through the logged pool, as vacuum does.
    pub remove: Vec<(u32, Rid)>,
    /// `(heap file, rid)` of every committed version whose `xmax` claim
    /// was left by a transaction that never committed.
    pub clear: Vec<(u32, Rid)>,
}

/// Undo pass: read the heap files named by `heap_file_ids` and list
/// every version whose creator is neither below the scan's checkpoint
/// watermark nor in its committed set (`remove`), and every `xmax`
/// claim under the same rule (`clear`). Must run after [`redo`] (so slot
/// headers are as the log left them). Writes nothing: pages that fail
/// their checksum are passed over, left for the pool's corruption
/// detection.
pub fn undo_uncommitted(dir: &Path, heap_file_ids: &[u32], scan: &LogScan) -> Result<UndoReport> {
    let (watermark, committed) = (scan.watermark, &scan.committed);
    let mut report = UndoReport {
        committed_txns: committed.len() as u64,
        max_txid: scan
            .next_txid
            .saturating_sub(1)
            .max(committed.iter().copied().max().unwrap_or(0)),
        ..UndoReport::default()
    };
    let decided = |t: u64| t != TXID_INVALID && (t < watermark || committed.contains(&t));
    for &fid in heap_file_ids {
        let Ok(f) = File::open(data_file_path(dir, fid)) else {
            continue; // heap file never materialized
        };
        // Page ids are `u32`: pages past that no `Rid` can name.
        let pages = u32::try_from(f.metadata()?.len() / PAGE_SIZE as u64).unwrap_or(u32::MAX);
        for pid in 0..pages {
            let mut raw = [0u8; PAGE_SIZE];
            let off = u64::from(pid) * PAGE_SIZE as u64;
            if f.read_exact_at(&mut raw, off).is_err() || !verify_checksum(&raw) {
                continue;
            }
            let page = Page::from_bytes(raw);
            if page.special0() != 1 {
                continue; // overflow, vacuumed-free, or fresh page: no slot headers
            }
            for slot in 0..page.slot_count() {
                let Some(rec) = page.get(slot) else { continue };
                if rec.len() < 16 {
                    continue;
                }
                let xmin = u64::from_le_bytes(rec[0..8].try_into().unwrap());
                let xmax = u64::from_le_bytes(rec[8..16].try_into().unwrap());
                report.max_txid = report.max_txid.max(xmin).max(xmax);
                let rid = Rid { page: pid, slot: rid_slot(slot)? };
                if !decided(xmin) {
                    report.remove.push((fid, rid));
                } else if xmax != TXID_INVALID && !decided(xmax) {
                    report.clear.push((fid, rid));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::page::Page;
    use crate::storage::wal::{record_size, Wal, CHECKPOINT_PAYLOAD};
    use crate::txn::TXID_FIRST;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ordb-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A log as a database leaves it: the checkpoint record first.
    fn fresh_wal(dir: &Path) -> Wal {
        let wal = Wal::open(dir, None, None).unwrap();
        wal.checkpoint(TXID_FIRST, TXID_FIRST, &[]).unwrap();
        wal
    }

    fn scan(dir: &Path) -> LogScan {
        LogScan::read(dir).unwrap().expect("wal exists")
    }

    fn recover(dir: &Path) -> RecoveryReport {
        redo(dir, &mut scan(dir)).unwrap()
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
        assert!(LogScan::read(&dir).unwrap().is_none());
    }

    #[test]
    fn replays_missing_and_stale_pages() {
        let dir = tmp_dir("replay");
        let wal = fresh_wal(&dir);
        // Log two pages of file 1 but never write the data file (the
        // "crashed before checkpoint" shape).
        let p0 = logged_page(&wal, 1, 0, b"page zero");
        let p1 = logged_page(&wal, 1, 1, b"page one");
        wal.sync().unwrap();
        drop(wal);
        let report = recover(&dir);
        assert_eq!(report.replayed_pages, 2);
        assert_eq!(report.skipped_pages, 0);
        assert_eq!(report.torn_tail_bytes, 0);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &p0.bytes()[..]);
        assert_eq!(&raw[PAGE_SIZE..2 * PAGE_SIZE], &p1.bytes()[..]);
        // Second pass: everything current, nothing replayed.
        let again = recover(&dir);
        assert_eq!(again.replayed_pages, 0);
        assert_eq!(again.skipped_pages, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn last_image_wins() {
        let dir = tmp_dir("lastwins");
        let wal = fresh_wal(&dir);
        logged_page(&wal, 1, 0, b"old image");
        let newer = logged_page(&wal, 1, 0, b"new image");
        wal.sync().unwrap();
        drop(wal);
        let report = recover(&dir);
        assert_eq!(report.scanned_records, 3, "checkpoint + two images");
        assert_eq!(report.replayed_pages, 1, "one page, latest image only");
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &newer.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_data_page_is_repaired() {
        let dir = tmp_dir("tornpage");
        let wal = fresh_wal(&dir);
        let good = logged_page(&wal, 1, 0, b"the good image");
        wal.sync().unwrap();
        drop(wal);
        // Simulate a torn data-page write: half the image on disk.
        let mut torn = good.bytes().to_vec();
        for b in torn.iter_mut().skip(PAGE_SIZE / 2) {
            *b = 0xFF;
        }
        std::fs::write(data_file_path(&dir, 1), &torn).unwrap();
        let report = recover(&dir);
        assert_eq!(report.replayed_pages, 1, "torn page must not be skipped");
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &good.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn newer_disk_page_is_kept() {
        let dir = tmp_dir("newer");
        let wal = fresh_wal(&dir);
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
        let report = recover(&dir);
        assert_eq!(report.replayed_pages, 0);
        assert_eq!(report.skipped_pages, 1);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(&raw[..PAGE_SIZE], &newer.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A slot record: version header, then `body`.
    fn rec(xmin: u64, xmax: u64, body: &[u8]) -> Vec<u8> {
        let mut r = Vec::new();
        r.extend_from_slice(&xmin.to_le_bytes());
        r.extend_from_slice(&xmax.to_le_bytes());
        r.extend_from_slice(body);
        r
    }

    /// Write one data page holding `records` as heap file 1.
    fn write_data_page(dir: &Path, records: &[Vec<u8>]) -> Vec<u8> {
        let mut p = Page::new();
        p.set_special0(1); // data page
        for r in records {
            p.insert(r).unwrap();
        }
        p.stamp_checksum();
        std::fs::write(data_file_path(dir, 1), p.bytes()).unwrap();
        p.bytes().to_vec()
    }

    fn rid(slot: u16) -> (u32, Rid) {
        (1, Rid { page: 0, slot })
    }

    #[test]
    fn undo_lists_uncommitted_versions_and_claims() {
        let dir = tmp_dir("undo");
        // The log carries commit evidence for txn 5 only; txn 7 crashed
        // mid-flight. The checkpoint's watermark is the first id, so both
        // ids are judged by the committed set.
        let wal = fresh_wal(&dir);
        wal.log_commit(5);
        wal.sync().unwrap();
        drop(wal);
        let before = write_data_page(
            &dir,
            &[
                rec(5, 0, b"keep"),
                rec(7, 0, b"uncommitted insert"),
                rec(5, 7, b"uncommitted delete claim"),
                rec(0, 0, b"stamped dead by an older build"),
            ],
        );

        let report = undo_uncommitted(&dir, &[1], &scan(&dir)).unwrap();
        assert_eq!(report.committed_txns, 1);
        assert_eq!(report.max_txid, 7);
        assert_eq!(report.remove, vec![rid(1), rid(3)]);
        assert_eq!(report.clear, vec![rid(2)]);
        assert_eq!(std::fs::read(data_file_path(&dir, 1)).unwrap(), before, "undo only reads");

        // Reading twice finds the same work.
        assert_eq!(undo_uncommitted(&dir, &[1], &scan(&dir)).unwrap(), report);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn undo_trusts_ids_below_the_watermark() {
        let dir = tmp_dir("undowm");
        // No commit records at all, but a checkpoint watermark of 10: ids
        // below 10 were decided before the last checkpoint.
        let wal = Wal::open(&dir, None, None).unwrap();
        wal.checkpoint(10, 12, &[]).unwrap();
        drop(wal);
        // Below the watermark: keep. Above, no commit record: remove.
        let before = write_data_page(&dir, &[rec(9, 0, b"x"), rec(11, 0, b"x")]);
        let report = undo_uncommitted(&dir, &[1], &scan(&dir)).unwrap();
        assert_eq!(report.remove, vec![rid(1)]);
        assert!(report.clear.is_empty());
        assert_eq!(report.max_txid, 11);
        assert_eq!(std::fs::read(data_file_path(&dir, 1)).unwrap(), before, "undo only reads");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_is_measured_and_ignored() {
        let dir = tmp_dir("torntail");
        let wal = fresh_wal(&dir);
        let keep = logged_page(&wal, 1, 0, b"kept");
        logged_page(&wal, 1, 1, b"lost to the tear");
        wal.sync().unwrap();
        let wal_path = wal.path().to_path_buf();
        drop(wal);
        let full = std::fs::read(&wal_path).unwrap();
        let cut = record_size(CHECKPOINT_PAYLOAD) + record_size(PAGE_SIZE) + 99;
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let report = recover(&dir);
        assert_eq!(report.scanned_records, 2, "checkpoint + the image before the tear");
        assert_eq!(report.replayed_pages, 1);
        assert_eq!(report.torn_tail_bytes, 99);
        let raw = std::fs::read(data_file_path(&dir, 1)).unwrap();
        assert_eq!(raw.len(), PAGE_SIZE, "second page never existed");
        assert_eq!(&raw[..PAGE_SIZE], &keep.bytes()[..]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
