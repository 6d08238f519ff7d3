//! Heap files: unordered record storage with big-record overflow chains
//! and per-record MVCC version headers.
//!
//! Every slot record begins with a 16-byte version header —
//! `xmin: u64 LE` (creating transaction) followed by `xmax: u64 LE`
//! (deleting transaction, 0 = live). The header always lives inline in
//! the slot, never in an overflow chain, so visibility checks and
//! `xmax` claims touch exactly one page under its latch.
//!
//! Bodies that fit in a page are stored in slotted pages directly. A
//! body larger than [`OVERFLOW_THRESHOLD`] is written to a chain of
//! dedicated overflow pages and represented after the header by a small
//! stub — XADT fragments (whole XML subtrees, paper §3.3) routinely
//! exceed a page.
//!
//! Dead slots and emptied pages are tracked in an in-memory free-space
//! map (`Fsm`) and reused by later inserts, so steady-state churn does
//! not grow the file. A dead slot only becomes reusable after every
//! index entry pointing at it has been deleted — vacuum, rollback and
//! recovery's undo all remove index entries before killing the slot —
//! so a revived slot can never alias a stale index entry. Freed pages
//! keep their LSN trailer across [`Page::reinit`] so WAL redo ordering
//! still applies when they are recycled.
//!
//! Reading a whole file goes through one loop, [`PageScan`]: a page at a
//! time, one fetch and one latch per page, versions handed to the caller
//! from the page bytes. Every overflow chain — read, freed, or marked
//! reachable — goes through one validating walker, so a chain is acted
//! on only once all of it has checked out.

use std::collections::BTreeSet;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::metrics::count;

use crate::error::{DbError, Result};
use crate::storage::buffer::{BufferPool, FileId, FrameRef};
use crate::storage::page::{Page, PAGE_SIZE, PAGE_TRAILER};

/// Record bodies above this size go to an overflow chain.
pub const OVERFLOW_THRESHOLD: usize = PAGE_SIZE / 2;

/// Bytes of version header (`xmin` + `xmax`) at the start of every slot
/// record.
pub const VERSION_HEADER: usize = 16;

/// Stub marker byte. Tuple encodings start with a field tag (0..=4), so a
/// leading `0xFF` unambiguously identifies a stub.
const STUB_MARK: u8 = 0xFF;
/// Stub layout: marker + first overflow page id + total length.
const STUB_LEN: usize = 1 + 4 + 4;

/// Overflow page layout: `next_page: u32` (`u32::MAX` = end) + `len: u16`
/// + payload bytes.
const OVF_HEADER: usize = 6;
/// Payload bytes per overflow page: the page body (after the 16-byte page
/// header, before the durability trailer) minus the chain header.
const OVF_CAPACITY: usize = PAGE_SIZE - 16 - OVF_HEADER - PAGE_TRAILER;
const OVF_END: u32 = u32::MAX;

/// Identifies a record in a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    /// Page number within the heap file.
    pub page: u32,
    /// Slot index within the page.
    pub slot: u16,
}

impl Rid {
    /// Pack into a u64 (for index payloads).
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    /// Unpack from [`Rid::to_u64`].
    pub fn from_u64(v: u64) -> Rid {
        Rid { page: (v >> 16) as u32, slot: (v & 0xFFFF) as u16 }
    }
}

/// One materialized record version: where it lives, who wrote and
/// deleted it, and its body bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Version {
    /// Slot address.
    pub rid: Rid,
    /// Creating transaction id.
    pub xmin: u64,
    /// Deleting transaction id (0 = live).
    pub xmax: u64,
    /// The record body (overflow chains resolved).
    pub body: Vec<u8>,
}

/// Outcome of [`HeapFile::try_claim_xmax`] (first-updater-wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimOutcome {
    /// `xmax` was unset; it now carries the caller's transaction id.
    Claimed,
    /// The caller had already claimed this version.
    OwnedBySelf,
    /// Another transaction holds the claim — write-write conflict.
    Conflict(u64),
    /// The slot is missing (e.g. a concurrent rollback physically
    /// removed it).
    Gone,
}

/// Checked conversion of a page-local slot index into the `u16` a [`Rid`]
/// carries. A plain `as u16` cast would silently truncate a slot ≥ 65536
/// into a *wrong but valid-looking* `Rid` — today's 8 KiB pages cannot
/// hold that many slots, but the record format must not depend on the
/// page size staying small.
pub(crate) fn rid_slot(slot: usize) -> Result<u16> {
    u16::try_from(slot)
        .map_err(|_| DbError::Exec(format!("slot index {slot} exceeds the Rid slot range")))
}

/// Split a raw slot record into `(xmin, xmax, payload)`.
fn split_version(raw: &[u8]) -> Result<(u64, u64, &[u8])> {
    if raw.len() < VERSION_HEADER {
        return Err(DbError::Corrupt(format!(
            "slot record of {} bytes is shorter than the version header",
            raw.len()
        )));
    }
    let xmin = u64::from_le_bytes(raw[0..8].try_into().unwrap());
    let xmax = u64::from_le_bytes(raw[8..16].try_into().unwrap());
    Ok((xmin, xmax, &raw[VERSION_HEADER..]))
}

fn is_stub(payload: &[u8]) -> bool {
    payload.first() == Some(&STUB_MARK) && payload.len() == STUB_LEN
}

fn stub_target(payload: &[u8]) -> (u32, usize) {
    let first = u32::from_le_bytes(payload[1..5].try_into().unwrap());
    let total = u32::from_le_bytes(payload[5..9].try_into().unwrap()) as usize;
    (first, total)
}

/// In-memory free-space map of one heap file. Rebuilt lazily: the first
/// insert that misses its page hint scans the file's page kinds once, so
/// append-only workloads never pay for it. Deletes and vacuum feed it
/// incrementally afterwards.
struct Fsm {
    /// Whether the one-time page-kind scan has run.
    scanned: bool,
    /// Data pages known to carry at least one dead (reusable) slot.
    data: BTreeSet<u32>,
    /// Fully-freed pages (kind 3), reusable as data or overflow pages.
    free: BTreeSet<u32>,
}

/// A heap file handle. Cheap to clone.
pub struct HeapFile {
    file: FileId,
    pool: Arc<BufferPool>,
    /// Page we last inserted into; inserts try it before allocating.
    insert_hint: Mutex<Option<u32>>,
    /// Free-space map; see [`Fsm`].
    fsm: Mutex<Fsm>,
}

impl HeapFile {
    /// Wrap an already-registered page file.
    pub fn new(pool: Arc<BufferPool>, file: FileId) -> HeapFile {
        HeapFile {
            file,
            pool,
            insert_hint: Mutex::new(None),
            fsm: Mutex::new(Fsm { scanned: false, data: BTreeSet::new(), free: BTreeSet::new() }),
        }
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Pages currently allocated (data + overflow).
    pub fn page_count(&self) -> Result<u32> {
        self.pool.page_count(self.file)
    }

    /// On-disk bytes.
    pub fn size_bytes(&self) -> Result<u64> {
        self.pool.file_size(self.file)
    }

    /// Insert a record body stamped with creating transaction `xmin`
    /// (`xmax` starts unset), returning its [`Rid`].
    pub fn insert(&self, body: &[u8], xmin: u64) -> Result<Rid> {
        if body.len() > OVERFLOW_THRESHOLD {
            return self.insert_overflow(body, xmin);
        }
        let mut record = Vec::with_capacity(VERSION_HEADER + body.len());
        record.extend_from_slice(&xmin.to_le_bytes());
        record.extend_from_slice(&0u64.to_le_bytes());
        record.extend_from_slice(body);
        self.insert_slot(&record)
    }

    /// Place a fully-formed `[xmin][xmax][payload]` record in a slot:
    /// hinted page first, then data pages with reclaimed slots, then
    /// fully-freed pages, and only then a fresh allocation.
    fn insert_slot(&self, record: &[u8]) -> Result<Rid> {
        // Try the hinted page first.
        let hint = *self.insert_hint.lock();
        if let Some(pid) = hint {
            if let Some(rid) = self.try_insert_into(pid, record)? {
                return Ok(rid);
            }
        }
        self.ensure_fsm_scanned()?;
        // Data pages with dead slots. A popped page that turns out too
        // full for this record leaves the map; the next slot death on it
        // re-registers it.
        loop {
            let candidate = self.fsm.lock().data.pop_first();
            let Some(pid) = candidate else { break };
            if let Some(rid) = self.try_insert_into(pid, record)? {
                *self.insert_hint.lock() = Some(pid);
                return Ok(rid);
            }
        }
        // Recycle a fully-freed page as a data page.
        if let Some(pid) = self.fsm.lock().free.pop_first() {
            let frame = self.pool.fetch(self.file, pid)?;
            let mut page = frame.page.lock();
            page.reinit();
            mark_data_page(&mut page);
            let slot = page
                .insert(record)
                .ok_or_else(|| DbError::Exec("record does not fit in an empty page".into()))?;
            frame.mark_dirty();
            count(|c| c.engine.reused_slots += 1);
            *self.insert_hint.lock() = Some(pid);
            return Ok(Rid { page: pid, slot: rid_slot(slot)? });
        }
        // Allocate a new data page.
        let (pid, frame) = self.pool.allocate(self.file)?;
        let mut page = frame.page.lock();
        mark_data_page(&mut page);
        let slot = page
            .insert(record)
            .ok_or_else(|| DbError::Exec("record does not fit in an empty page".into()))?;
        frame.mark_dirty();
        *self.insert_hint.lock() = Some(pid);
        Ok(Rid { page: pid, slot: rid_slot(slot)? })
    }

    fn try_insert_into(&self, pid: u32, record: &[u8]) -> Result<Option<Rid>> {
        let frame = self.pool.fetch(self.file, pid)?;
        let mut page = frame.page.lock();
        if !is_data_page(&page) {
            return Ok(None);
        }
        match page.insert_reusing(record) {
            Some((slot, reused)) => {
                frame.mark_dirty();
                if reused {
                    count(|c| c.engine.reused_slots += 1);
                }
                Ok(Some(Rid { page: pid, slot: rid_slot(slot)? }))
            }
            None => Ok(None),
        }
    }

    /// One-time lazy rebuild of the free-space map from on-disk page
    /// kinds. Runs at most once per handle; incremental updates keep it
    /// current afterwards.
    fn ensure_fsm_scanned(&self) -> Result<()> {
        if self.fsm.lock().scanned {
            return Ok(());
        }
        let pages = self.page_count()?;
        let mut data = Vec::new();
        let mut free = Vec::new();
        for pid in 0..pages {
            let frame = self.pool.fetch(self.file, pid)?;
            let page = frame.page.lock();
            if is_free_page(&page) {
                free.push(pid);
            } else if is_data_page(&page) && page.first_dead_slot().is_some() {
                data.push(pid);
            }
        }
        let mut fsm = self.fsm.lock();
        fsm.scanned = true;
        fsm.data.extend(data);
        fsm.free.extend(free);
        Ok(())
    }

    /// A page for a new overflow chunk: a recycled free page when one is
    /// available, otherwise a fresh allocation.
    fn alloc_overflow_page(&self) -> Result<(u32, FrameRef)> {
        self.ensure_fsm_scanned()?;
        if let Some(pid) = self.fsm.lock().free.pop_first() {
            let frame = self.pool.fetch(self.file, pid)?;
            frame.page.lock().reinit();
            count(|c| c.engine.reused_slots += 1);
            return Ok((pid, frame));
        }
        self.pool.allocate(self.file)
    }

    fn insert_overflow(&self, body: &[u8], xmin: u64) -> Result<Rid> {
        // Write the chain back-to-front so each page knows its successor.
        let mut next = OVF_END;
        let chunks: Vec<&[u8]> = body.chunks(OVF_CAPACITY).collect();
        for chunk in chunks.iter().rev() {
            let (pid, frame) = self.alloc_overflow_page()?;
            let mut page = frame.page.lock();
            mark_overflow_page(&mut page);
            let raw = overflow_body_mut(&mut page);
            raw[0..4].copy_from_slice(&next.to_le_bytes());
            raw[4..6].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
            raw[OVF_HEADER..OVF_HEADER + chunk.len()].copy_from_slice(chunk);
            frame.mark_dirty();
            next = pid;
        }
        let mut record = [0u8; VERSION_HEADER + STUB_LEN];
        record[0..8].copy_from_slice(&xmin.to_le_bytes());
        // xmax stays zero.
        record[VERSION_HEADER] = STUB_MARK;
        record[VERSION_HEADER + 1..VERSION_HEADER + 5].copy_from_slice(&next.to_le_bytes());
        record[VERSION_HEADER + 5..VERSION_HEADER + 9]
            .copy_from_slice(&(body.len() as u32).to_le_bytes());
        self.insert_slot(&record)
    }

    /// Physically delete the record at `rid` (rollback of an insert,
    /// vacuum reclamation and recovery's undo — MVCC deletes go through
    /// [`HeapFile::try_claim_xmax`] instead). A data page whose last live
    /// slot dies is freed whole, and the overflow chain, if any, is
    /// returned to the free-space map once all of it has validated.
    /// Callers must have removed every index entry pointing at `rid`
    /// first — the slot is immediately reusable.
    pub fn delete(&self, rid: Rid) -> Result<bool> {
        let Some(chain) = self.remove_slot(rid)? else { return Ok(false) };
        if let Some((first, total)) = chain {
            self.free_chain(first, total)?;
        }
        Ok(true)
    }

    /// Kill the slot at `rid` under one page latch, from reading its stub
    /// to the kill, and free the page if that was its last live slot.
    /// `None` when there is no such slot; otherwise the overflow chain
    /// the slot's stub pointed at, if it held one. A record too short
    /// for a version header is still removable.
    fn remove_slot(&self, rid: Rid) -> Result<Option<Option<(u32, usize)>>> {
        if rid.page >= self.page_count()? {
            return Ok(None);
        }
        let frame = self.pool.fetch(self.file, rid.page)?;
        let mut page = frame.page.lock();
        if !is_data_page(&page) {
            return Ok(None);
        }
        let Some(raw) = page.get(rid.slot as usize) else {
            return Ok(None);
        };
        let chain = match split_version(raw) {
            Ok((_, _, payload)) if is_stub(payload) => Some(stub_target(payload)),
            _ => None,
        };
        page.delete(rid.slot as usize);
        let emptied = page.live_slots() == 0;
        if emptied {
            page.reinit();
            mark_free_page(&mut page);
        }
        frame.mark_dirty();
        drop(page);
        if emptied {
            self.fsm.lock().free.insert(rid.page);
            count(|c| c.engine.freed_pages += 1);
        } else {
            self.fsm.lock().data.insert(rid.page);
        }
        Ok(Some(chain))
    }

    /// Return the overflow chain from `first` to the free-space map. The
    /// whole chain is walked and validated before the first page is
    /// freed, so a corrupt `next` pointing into another record's chain
    /// fails here with nothing freed.
    fn free_chain(&self, first: u32, total: usize) -> Result<()> {
        let mut pids = Vec::new();
        self.walk_chain(first, total, |pid, _| pids.push(pid))?;
        for &pid in &pids {
            let frame = self.pool.fetch(self.file, pid)?;
            let mut page = frame.page.lock();
            page.reinit();
            mark_free_page(&mut page);
            frame.mark_dirty();
            drop(page);
            self.fsm.lock().free.insert(pid);
        }
        count(|c| c.engine.freed_pages += pids.len() as u64);
        Ok(())
    }

    /// Post-crash convergence pass, run by `Database::open` after a
    /// dirty shutdown. A WAL torn partway through a vacuum storm can
    /// replay an arbitrary subset of the pass's page images, leaving
    /// two kinds of debris this heap file must digest before serving
    /// queries:
    ///
    /// * **torn stubs** — a stub slot survived (its slot-delete image
    ///   fell past the tear) but its overflow chain was already
    ///   reclaimed. The version was dead — vacuum only frees chains of
    ///   dead versions — so the slot is purged; the caller's index
    ///   sweep then drops any entries still pointing at it.
    /// * **orphan overflow pages** — the chain-free images fell past
    ///   the tear for *some* pages of a chain whose head was freed, so
    ///   they are unreachable from every surviving stub. They are
    ///   reinitialised back to the free list (a mark-sweep over the
    ///   file: reachable = union of every valid stub chain).
    ///
    /// Idempotent: a clean file is untouched. Freed pages are counted
    /// like vacuum's.
    pub fn scavenge_after_recovery(&self) -> Result<()> {
        let pages = self.page_count()?;
        // Collect every stub first, latches released, because a corrupt
        // chain could point back into the data page we are scanning.
        let mut stubs: Vec<(Rid, u32, usize)> = Vec::new();
        for pid in 0..pages {
            let frame = self.pool.fetch(self.file, pid)?;
            let page = frame.page.lock();
            if !is_data_page(&page) {
                continue;
            }
            for slot in 0..page.slot_count() {
                let Some(raw) = page.get(slot) else { continue };
                let Ok((_, _, payload)) = split_version(raw) else { continue };
                if is_stub(payload) {
                    let (first, total) = stub_target(payload);
                    stubs.push((Rid { page: pid, slot: rid_slot(slot)? }, first, total));
                }
            }
        }
        let mut reachable: BTreeSet<u32> = BTreeSet::new();
        for (rid, first, total) in stubs {
            let mut pids = Vec::new();
            match self.walk_chain(first, total, |pid, _| pids.push(pid)) {
                Ok(()) => reachable.extend(pids),
                Err(DbError::Corrupt(_)) => {
                    self.remove_slot(rid)?;
                }
                Err(e) => return Err(e),
            }
        }
        for pid in 0..pages {
            if reachable.contains(&pid) {
                continue;
            }
            let frame = self.pool.fetch(self.file, pid)?;
            let mut page = frame.page.lock();
            if !is_overflow_page(&page) {
                continue;
            }
            page.reinit();
            mark_free_page(&mut page);
            frame.mark_dirty();
            drop(page);
            self.fsm.lock().free.insert(pid);
            count(|c| c.engine.freed_pages += 1);
        }
        Ok(())
    }

    /// Read the record body at `rid`, resolving overflow chains.
    /// Errors if the slot is missing — callers that must tolerate
    /// concurrent rollback use [`HeapFile::get_versioned`].
    pub fn get(&self, rid: Rid) -> Result<Vec<u8>> {
        match self.get_versioned(rid)? {
            Some(v) => Ok(v.body),
            None => Err(DbError::Corrupt(format!("no record at {rid:?}"))),
        }
    }

    /// Read the full version at `rid`: `None` if the slot is missing or
    /// dead.
    pub fn get_versioned(&self, rid: Rid) -> Result<Option<Version>> {
        if rid.page >= self.page_count()? {
            return Ok(None);
        }
        let frame = self.pool.fetch(self.file, rid.page)?;
        let page = frame.page.lock();
        if !is_data_page(&page) {
            return Ok(None);
        }
        let Some(raw) = page.get(rid.slot as usize) else {
            return Ok(None);
        };
        let (xmin, xmax, payload) = split_version(raw)?;
        if is_stub(payload) {
            let (first, total) = stub_target(payload);
            drop(page);
            match self.resolve_stub(rid, first, total)? {
                Some(body) => Ok(Some(Version { rid, xmin, xmax, body })),
                None => Ok(None),
            }
        } else {
            Ok(Some(Version { rid, xmin, xmax, body: payload.to_vec() }))
        }
    }

    /// Try to claim the `xmax` of the version at `rid` for transaction
    /// `txid` — the first-updater-wins write-write conflict check, done
    /// atomically under the page latch.
    pub fn try_claim_xmax(&self, rid: Rid, txid: u64) -> Result<ClaimOutcome> {
        if rid.page >= self.page_count()? {
            return Ok(ClaimOutcome::Gone);
        }
        let frame = self.pool.fetch(self.file, rid.page)?;
        let mut page = frame.page.lock();
        let Some(raw) = page.get_mut(rid.slot as usize) else {
            return Ok(ClaimOutcome::Gone);
        };
        if raw.len() < VERSION_HEADER {
            return Err(DbError::Corrupt(format!("slot record at {rid:?} has no version header")));
        }
        let xmax = u64::from_le_bytes(raw[8..16].try_into().unwrap());
        if xmax == 0 {
            raw[8..16].copy_from_slice(&txid.to_le_bytes());
            frame.mark_dirty();
            Ok(ClaimOutcome::Claimed)
        } else if xmax == txid {
            Ok(ClaimOutcome::OwnedBySelf)
        } else {
            Ok(ClaimOutcome::Conflict(xmax))
        }
    }

    /// Clear the `xmax` of the version at `rid` (rollback of a delete
    /// claim). A missing slot is fine — the row may have been inserted
    /// and rolled back by the same transaction.
    pub fn clear_xmax(&self, rid: Rid) -> Result<()> {
        if rid.page >= self.page_count()? {
            return Ok(());
        }
        let frame = self.pool.fetch(self.file, rid.page)?;
        let mut page = frame.page.lock();
        let Some(raw) = page.get_mut(rid.slot as usize) else {
            return Ok(());
        };
        if raw.len() < VERSION_HEADER {
            return Err(DbError::Corrupt(format!("slot record at {rid:?} has no version header")));
        }
        raw[8..16].copy_from_slice(&0u64.to_le_bytes());
        frame.mark_dirty();
        Ok(())
    }

    /// The one overflow-chain walker: hand `each(pid, chunk)` every page
    /// of the chain from `first` in order, with the payload bytes it
    /// holds. `total` comes off disk, so it is checked against the file
    /// size before anything is visited, and the walk is bounded by the
    /// page count it implies — a corrupt `next` forming a cycle ends as
    /// an error instead of walking forever. Every page must be an
    /// overflow page inside the file whose `len` fits its body, and the
    /// chunks must add up to exactly `total`: a caller that acts only on
    /// `Ok` acts on a whole, well-formed chain.
    fn walk_chain(&self, first: u32, total: usize, mut each: impl FnMut(u32, &[u8])) -> Result<()> {
        let pages = self.page_count()?;
        if total > (pages as usize).saturating_mul(OVF_CAPACITY) {
            return Err(DbError::Corrupt(format!(
                "overflow length {total} exceeds what {pages} pages can hold"
            )));
        }
        let max_hops = total.div_ceil(OVF_CAPACITY).max(1);
        let (mut pid, mut hops, mut covered) = (first, 0usize, 0usize);
        while pid != OVF_END {
            hops += 1;
            if hops > max_hops {
                return Err(DbError::Corrupt(format!(
                    "overflow chain from page {first} exceeds the {max_hops} pages implied by \
                     length {total} (cycle?)"
                )));
            }
            if pid >= pages {
                return Err(DbError::Corrupt(format!("overflow page {pid} is past the file end")));
            }
            let frame = self.pool.fetch(self.file, pid)?;
            let page = frame.page.lock();
            if !is_overflow_page(&page) {
                return Err(DbError::Corrupt(format!("page {pid} is not an overflow page")));
            }
            let raw = overflow_body(&page);
            let next = u32::from_le_bytes(raw[0..4].try_into().unwrap());
            let len = u16::from_le_bytes(raw[4..6].try_into().unwrap()) as usize;
            if len > raw.len() - OVF_HEADER {
                return Err(DbError::Corrupt(format!(
                    "overflow page {pid} claims {len} payload bytes, body holds {}",
                    raw.len() - OVF_HEADER
                )));
            }
            if covered + len > total {
                return Err(DbError::Corrupt(format!(
                    "overflow chain from page {first} is longer than its recorded {total} bytes"
                )));
            }
            covered += len;
            each(pid, &raw[OVF_HEADER..OVF_HEADER + len]);
            pid = next;
        }
        if covered != total {
            return Err(DbError::Corrupt(format!(
                "overflow chain length {covered} != recorded {total}"
            )));
        }
        Ok(())
    }

    /// Resolve the overflow body behind the stub at `rid`, tolerating a
    /// concurrent rollback freeing the chain mid-read: after the chain
    /// read completes (or fails as corrupt), the stub is re-checked
    /// under its page latch. If it no longer points at `(first, total)`
    /// the version was physically removed while we read — report it as
    /// gone (`None`) rather than serving garbage or a spurious
    /// corruption error.
    fn resolve_stub(&self, rid: Rid, first: u32, total: usize) -> Result<Option<Vec<u8>>> {
        let mut body = Vec::new();
        // The walker checks `total` before the first chunk arrives, so
        // it is safe to size the buffer from then.
        let read = self
            .walk_chain(first, total, |_, chunk| {
                body.reserve_exact(total - body.len());
                body.extend_from_slice(chunk);
            })
            .map(|()| body);
        let intact = self.stub_matches(rid, first, total)?;
        match read {
            Ok(body) if intact => Ok(Some(body)),
            Err(e @ DbError::Corrupt(_)) if intact => Err(e),
            Ok(_) | Err(DbError::Corrupt(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Whether the slot at `rid` still holds a live stub pointing at
    /// `(first, total)`.
    fn stub_matches(&self, rid: Rid, first: u32, total: usize) -> Result<bool> {
        if rid.page >= self.page_count()? {
            return Ok(false);
        }
        let frame = self.pool.fetch(self.file, rid.page)?;
        let page = frame.page.lock();
        if !is_data_page(&page) {
            return Ok(false);
        }
        let Some(raw) = page.get(rid.slot as usize) else {
            return Ok(false);
        };
        let Ok((_, _, payload)) = split_version(raw) else {
            return Ok(false);
        };
        Ok(is_stub(payload) && stub_target(payload) == (first, total))
    }
}

/// The one iteration loop over a heap file: a cursor that visits one data
/// page per call, costing one buffer-pool fetch and one latch per page.
/// Sequential scans, index backfill, `runstats`, `row_count` and vacuum's
/// victim pass all read through it. Owns its heap handle so operators can
/// store it without self-references; opening one does no I/O.
pub struct PageScan {
    heap: Arc<HeapFile>,
    page: u32,
}

impl PageScan {
    /// Open a cursor at the start of `heap`.
    pub fn new(heap: Arc<HeapFile>) -> PageScan {
        PageScan { heap, page: 0 }
    }

    /// Visit the next data page: `visit(rid, xmin, xmax, body)` for each
    /// version that `wants(xmin, xmax)` accepts, in slot order. Returns `false` at end of file.
    ///
    /// Inline bodies are handed to `visit` straight from the page bytes,
    /// under the page latch — `visit` is to stay off the buffer pool (a
    /// fetch may evict, write back and wait with this page latched). An
    /// overflow chain is read after the latch drops (a chain read pins
    /// other pages, and a corrupt chain may point back at this one), so
    /// from a page's first wanted stub on, the wanted versions are set
    /// aside — inline bodies copied — and visited in slot order once the
    /// page is released. A version physically removed while its chain
    /// was being read (a concurrent rollback) is passed over.
    pub fn next_page(
        &mut self,
        wants: impl Fn(u64, u64) -> bool,
        mut visit: impl FnMut(Rid, u64, u64, &[u8]) -> Result<()>,
    ) -> Result<bool> {
        enum Later {
            Inline(Vec<u8>),
            Stub { first: u32, total: usize },
        }
        let heap = &*self.heap;
        loop {
            if self.page >= heap.page_count()? {
                return Ok(false);
            }
            let pid = self.page;
            self.page += 1;
            let frame = heap.pool.fetch(heap.file, pid)?;
            let page = frame.page.lock();
            if !is_data_page(&page) {
                continue;
            }
            let mut later: Vec<(Rid, u64, u64, Later)> = Vec::new();
            for slot in 0..page.slot_count() {
                let Some(raw) = page.get(slot) else { continue };
                let (xmin, xmax, payload) = split_version(raw)?;
                if !wants(xmin, xmax) {
                    continue;
                }
                let rid = Rid { page: pid, slot: rid_slot(slot)? };
                if is_stub(payload) {
                    let (first, total) = stub_target(payload);
                    later.push((rid, xmin, xmax, Later::Stub { first, total }));
                } else if later.is_empty() {
                    visit(rid, xmin, xmax, payload)?;
                } else {
                    later.push((rid, xmin, xmax, Later::Inline(payload.to_vec())));
                }
            }
            drop(page);
            drop(frame);
            for (rid, xmin, xmax, rec) in later {
                match rec {
                    Later::Inline(body) => visit(rid, xmin, xmax, &body)?,
                    Later::Stub { first, total } => {
                        if let Some(body) = heap.resolve_stub(rid, first, total)? {
                            visit(rid, xmin, xmax, &body)?;
                        }
                    }
                }
            }
            return Ok(true);
        }
    }
}

// Page-kind markers via special0: 0 = fresh/unknown, 1 = data,
// 2 = overflow, 3 = freed (reclaimed by vacuum/rollback, awaiting reuse).
fn mark_data_page(p: &mut Page) {
    p.set_special0(1);
}

fn mark_overflow_page(p: &mut Page) {
    p.set_special0(2);
}

fn mark_free_page(p: &mut Page) {
    p.set_special0(3);
}

fn is_data_page(p: &Page) -> bool {
    p.special0() == 1
}

fn is_overflow_page(p: &Page) -> bool {
    p.special0() == 2
}

fn is_free_page(p: &Page) -> bool {
    p.special0() == 3
}

/// Overflow pages store raw bytes after the 16-byte page header and before
/// the durability trailer; slots are unused. These helpers expose that
/// region.
fn overflow_body(p: &Page) -> &[u8] {
    &p.bytes()[16..PAGE_SIZE - PAGE_TRAILER]
}

fn overflow_body_mut(p: &mut Page) -> &mut [u8] {
    &mut p.bytes_mut()[16..PAGE_SIZE - PAGE_TRAILER]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::thread_counters;

    /// Transaction id used by tests that don't exercise versioning.
    const XMIN: u64 = 2;

    fn heap(tag: &str) -> Arc<HeapFile> {
        let dir = std::env::temp_dir().join(format!("ordb-heap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.db");
        let _ = std::fs::remove_file(&path);
        let pool = Arc::new(BufferPool::new(16));
        pool.register_file(1, path).unwrap();
        Arc::new(HeapFile::new(pool, 1))
    }

    /// Every non-dead version's body in file order, and the data pages
    /// the scan visited.
    fn scan_all(h: &Arc<HeapFile>) -> (Vec<Vec<u8>>, usize) {
        let mut scan = PageScan::new(h.clone());
        let (mut bodies, mut pages) = (Vec::new(), 0);
        while scan
            .next_page(
                |_, _| true,
                |_, _, _, body| {
                    bodies.push(body.to_vec());
                    Ok(())
                },
            )
            .unwrap()
        {
            pages += 1;
        }
        (bodies, pages)
    }

    fn count(h: &Arc<HeapFile>) -> usize {
        scan_all(h).0.len()
    }

    #[test]
    fn insert_get_roundtrip() {
        let h = heap("basic");
        let r1 = h.insert(b"alpha", XMIN).unwrap();
        let r2 = h.insert(b"beta", XMIN).unwrap();
        assert_eq!(h.get(r1).unwrap(), b"alpha");
        assert_eq!(h.get(r2).unwrap(), b"beta");
        let v = h.get_versioned(r1).unwrap().unwrap();
        assert_eq!((v.xmin, v.xmax), (XMIN, 0));
    }

    #[test]
    fn many_records_spill_to_new_pages() {
        let h = heap("spill");
        let rec = vec![9u8; 500];
        let rids: Vec<Rid> = (0..100).map(|_| h.insert(&rec, XMIN).unwrap()).collect();
        assert!(h.page_count().unwrap() > 5);
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap(), rec);
        }
        assert_eq!(count(&h), 100);
    }

    #[test]
    fn overflow_round_trip() {
        let h = heap("ovf");
        let big: Vec<u8> = (0..40_000u32).map(|i| (i % 251) as u8).collect();
        let rid = h.insert(&big, XMIN).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        // Interleave small records and another big one.
        let small = h.insert(b"small", XMIN).unwrap();
        let big2 = vec![1u8; PAGE_SIZE + 17];
        let rid2 = h.insert(&big2, XMIN).unwrap();
        assert_eq!(h.get(small).unwrap(), b"small");
        assert_eq!(h.get(rid2).unwrap(), big2);
        // The version header of an overflow record stays inline.
        let v = h.get_versioned(rid).unwrap().unwrap();
        assert_eq!((v.xmin, v.xmax), (XMIN, 0));
        assert_eq!(v.body, big);
    }

    #[test]
    fn page_scan_visits_every_version_once_in_file_order() {
        let h = heap("pagescan");
        let mut expected = Vec::new();
        for i in 0..200u32 {
            let rec = vec![(i % 251) as u8; 64 + (i as usize % 300)];
            h.insert(&rec, XMIN).unwrap();
            expected.push(rec);
            if i == 100 {
                // An overflow record mid-page: its stub is resolved after
                // the latch drops, and the inline versions behind it on
                // the page still come out in slot order.
                let big = vec![3u8; 25_000];
                h.insert(&big, XMIN).unwrap();
                expected.push(big);
            }
        }
        let before = thread_counters().pool;
        let (seen, pages) = scan_all(&h);
        assert_eq!(seen, expected);
        assert!(pages > 1 && pages < 201, "pages = {pages}");
        // One fetch per page of the file (data pages to visit, chain
        // pages to tell apart), the chain read, and the re-check of the
        // stub — not one per version.
        let chain = 25_000usize.div_ceil(OVF_CAPACITY) as u64;
        let fetches = thread_counters().pool.since(&before).fetches();
        assert_eq!(fetches, u64::from(h.page_count().unwrap()) + chain + 1);
    }

    #[test]
    fn page_scan_hands_over_only_wanted_versions() {
        let h = heap("wanted");
        for xmin in 2..12u64 {
            h.insert(&xmin.to_le_bytes(), xmin).unwrap();
        }
        let big = h.insert(&vec![1u8; 20_000], 40).unwrap();
        let before = thread_counters().pool;
        let mut seen = Vec::new();
        let mut scan = PageScan::new(h.clone());
        while scan
            .next_page(
                |xmin, _| xmin % 2 == 0 && xmin < 40,
                |rid, xmin, xmax, body| {
                    assert_eq!((xmax, body), (0, &xmin.to_le_bytes()[..]));
                    assert_ne!(rid, big);
                    seen.push(xmin);
                    Ok(())
                },
            )
            .unwrap()
        {}
        assert_eq!(seen, [2, 4, 6, 8, 10]);
        // The unwanted overflow version's chain was never read.
        let fetches = thread_counters().pool.since(&before).fetches();
        assert_eq!(fetches, u64::from(h.page_count().unwrap()));
    }

    #[test]
    fn claim_xmax_first_updater_wins() {
        let h = heap("claim");
        let rid = h.insert(b"row", 2).unwrap();
        assert_eq!(h.try_claim_xmax(rid, 5).unwrap(), ClaimOutcome::Claimed);
        assert_eq!(h.try_claim_xmax(rid, 5).unwrap(), ClaimOutcome::OwnedBySelf);
        assert_eq!(h.try_claim_xmax(rid, 6).unwrap(), ClaimOutcome::Conflict(5));
        let v = h.get_versioned(rid).unwrap().unwrap();
        assert_eq!(v.xmax, 5);
        // Rollback of the claim re-opens the version.
        h.clear_xmax(rid).unwrap();
        assert_eq!(h.try_claim_xmax(rid, 6).unwrap(), ClaimOutcome::Claimed);
    }

    #[test]
    fn deleted_and_missing_slots_read_as_gone() {
        let h = heap("gone");
        let rid = h.insert(b"row", 2).unwrap();
        assert!(h.delete(rid).unwrap());
        assert!(h.get_versioned(rid).unwrap().is_none());
        assert_eq!(h.try_claim_xmax(rid, 5).unwrap(), ClaimOutcome::Gone);
        // A rid past the end of the file (never inserted) is also Gone.
        let bogus = Rid { page: 999, slot: 0 };
        assert!(h.get_versioned(bogus).unwrap().is_none());
        assert_eq!(h.try_claim_xmax(bogus, 5).unwrap(), ClaimOutcome::Gone);
        assert!(!h.delete(bogus).unwrap());
    }

    /// Parse the stub in the slot at `rid` (panics if not a stub).
    fn stub_of(h: &HeapFile, rid: Rid) -> (u32, usize) {
        let frame = h.pool.fetch(h.file, rid.page).unwrap();
        let page = frame.page.lock();
        let raw = page.get(rid.slot as usize).unwrap();
        let (_, _, payload) = split_version(raw).unwrap();
        assert!(is_stub(payload), "slot does not hold a stub");
        stub_target(payload)
    }

    #[test]
    fn cyclic_overflow_chain_is_corrupt_not_hang() {
        let h = heap("cycle");
        let big = vec![4u8; 2 * OVF_CAPACITY];
        let rid = h.insert(&big, XMIN).unwrap();
        let (first, _) = stub_of(&h, rid);
        // Point the first chain page back at itself: a cycle that the
        // unbounded walk would follow forever.
        {
            let frame = h.pool.fetch(h.file, first).unwrap();
            let mut page = frame.page.lock();
            page.bytes_mut()[16..20].copy_from_slice(&first.to_le_bytes());
            frame.mark_dirty();
        }
        match h.get(rid) {
            Err(DbError::Corrupt(msg)) => {
                assert!(msg.contains("cycle") || msg.contains("exceeds"), "{msg}")
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn oversized_overflow_len_is_corrupt() {
        let h = heap("ovlen");
        let big = vec![5u8; OVF_CAPACITY + 10];
        let rid = h.insert(&big, XMIN).unwrap();
        let (first, _) = stub_of(&h, rid);
        // An on-page `len` larger than the page body used to drive an
        // out-of-bounds slice (panic); it must be a checked error.
        {
            let frame = h.pool.fetch(h.file, first).unwrap();
            let mut page = frame.page.lock();
            page.bytes_mut()[20..22].copy_from_slice(&u16::MAX.to_le_bytes());
            frame.mark_dirty();
        }
        match h.get(rid) {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("payload bytes"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn lying_stub_total_is_corrupt() {
        let h = heap("ovtotal");
        let big = vec![6u8; 2 * OVF_CAPACITY];
        let rid = h.insert(&big, XMIN).unwrap();
        let set_total = |total: u32| {
            let frame = h.pool.fetch(h.file, rid.page).unwrap();
            let mut page = frame.page.lock();
            let raw = page.get_mut(rid.slot as usize).unwrap();
            raw[VERSION_HEADER + 5..VERSION_HEADER + 9].copy_from_slice(&total.to_le_bytes());
            frame.mark_dirty();
        };
        // A huge `total` must be rejected before it sizes an allocation.
        set_total(u32::MAX);
        match h.get(rid) {
            Err(DbError::Corrupt(msg)) => assert!(msg.contains("exceeds what"), "{msg}"),
            other => panic!("expected Corrupt, got {other:?}"),
        }
        // A `total` shorter than the chain is also corrupt, not a
        // silently-truncated read.
        set_total(OVF_CAPACITY as u32);
        match h.get(rid) {
            Err(DbError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn churn_reuses_slots_and_pages() {
        let h = heap("churn");
        let rec = vec![8u8; 500];
        let mut rids: Vec<Rid> = (0..64).map(|_| h.insert(&rec, XMIN).unwrap()).collect();
        let pages = h.page_count().unwrap();
        for round in 0..5 {
            for rid in &rids {
                assert!(h.delete(*rid).unwrap());
            }
            rids = (0..64).map(|_| h.insert(&rec, XMIN).unwrap()).collect();
            assert_eq!(h.page_count().unwrap(), pages, "file grew on churn round {round}");
        }
        assert_eq!(count(&h), 64);
        for rid in &rids {
            assert_eq!(h.get(*rid).unwrap(), rec);
        }
    }

    #[test]
    fn delete_frees_overflow_chain_for_reuse() {
        let h = heap("ovf-free");
        let big = vec![3u8; 3 * OVF_CAPACITY + 10];
        let rid = h.insert(&big, XMIN).unwrap();
        let pages = h.page_count().unwrap();
        let before = thread_counters().engine;
        assert!(h.delete(rid).unwrap());
        // Four chain pages and the data page the stub emptied.
        assert_eq!(h.fsm.lock().free.len(), 5);
        assert_eq!(thread_counters().engine.since(&before).freed_pages, 5);
        // The whole footprint (chain pages + the emptied data page) is
        // recycled by an identical insert.
        let rid2 = h.insert(&big, XMIN).unwrap();
        assert_eq!(h.page_count().unwrap(), pages, "freed chain pages were not reused");
        assert_eq!(h.get(rid2).unwrap(), big);
    }

    #[test]
    fn fsm_rebuilds_from_disk_after_reopen() {
        let dir = std::env::temp_dir().join(format!("ordb-heap-fsmscan-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("h.db");
        let _ = std::fs::remove_file(&path);
        let pool = Arc::new(BufferPool::new(16));
        pool.register_file(1, path).unwrap();
        let rec = vec![7u8; 600];
        let h = HeapFile::new(pool.clone(), 1);
        let rids: Vec<Rid> = (0..32).map(|_| h.insert(&rec, XMIN).unwrap()).collect();
        let pages = h.page_count().unwrap();
        for rid in &rids {
            assert!(h.delete(*rid).unwrap());
        }
        drop(h);
        // A fresh handle (as after reopen) finds the freed pages by
        // scanning page kinds lazily.
        let h2 = HeapFile::new(pool, 1);
        for _ in 0..32 {
            h2.insert(&rec, XMIN).unwrap();
        }
        assert_eq!(h2.page_count().unwrap(), pages);
    }

    #[test]
    fn delete_walks_a_corrupt_chain_before_freeing_any_of_it() {
        let h = heap("ovf-cross");
        let a_body = vec![1u8; 2 * OVF_CAPACITY];
        let b_body: Vec<u8> = (0..2 * OVF_CAPACITY as u32).map(|i| (i % 241) as u8).collect();
        let a = h.insert(&a_body, XMIN).unwrap();
        let b = h.insert(&b_body, XMIN).unwrap();
        let (a_first, _) = stub_of(&h, a);
        let (b_first, _) = stub_of(&h, b);
        // Point a's first chain page into b's chain.
        {
            let frame = h.pool.fetch(h.file, a_first).unwrap();
            let mut page = frame.page.lock();
            page.bytes_mut()[16..20].copy_from_slice(&b_first.to_le_bytes());
            frame.mark_dirty();
        }
        assert!(matches!(h.delete(a), Err(DbError::Corrupt(_))));
        assert_eq!(h.get(b).unwrap(), b_body, "b's chain must be untouched");
        assert!(h.fsm.lock().free.is_empty(), "no page of a corrupt chain may be freed");
    }

    #[test]
    fn rid_u64_roundtrip() {
        let rid = Rid { page: 123_456, slot: 789 };
        assert_eq!(Rid::from_u64(rid.to_u64()), rid);
    }

    #[test]
    fn rid_u64_roundtrip_full_range() {
        use rand::{Rng, SeedableRng};
        // Corners of the (page, slot) space, then a random sample of the
        // full u32 x u16 range.
        let corners = [0u32, 1, u32::MAX - 1, u32::MAX];
        let slot_corners = [0u16, 1, u16::MAX - 1, u16::MAX];
        for &page in &corners {
            for &slot in &slot_corners {
                let rid = Rid { page, slot };
                assert_eq!(Rid::from_u64(rid.to_u64()), rid, "corner {rid:?}");
            }
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xB0A7);
        for _ in 0..10_000 {
            let bits = rng.next_u64();
            let rid = Rid { page: (bits >> 32) as u32, slot: bits as u16 };
            let packed = rid.to_u64();
            assert_eq!(Rid::from_u64(packed), rid, "random {rid:?}");
            // Packing is injective: page and slot occupy disjoint bit ranges.
            assert_eq!((packed >> 16) as u32, rid.page);
            assert_eq!((packed & 0xFFFF) as u16, rid.slot);
        }
    }

    #[test]
    fn rid_slot_rejects_out_of_range() {
        assert_eq!(rid_slot(0).unwrap(), 0);
        assert_eq!(rid_slot(u16::MAX as usize).unwrap(), u16::MAX);
        for bad in [u16::MAX as usize + 1, 70_000, usize::MAX] {
            match rid_slot(bad) {
                Err(DbError::Exec(msg)) => assert!(msg.contains("slot index"), "{msg}"),
                other => panic!("expected Exec error for slot {bad}, got {other:?}"),
            }
        }
    }
}
