//! A paged B+Tree over the buffer pool.
//!
//! Design:
//!
//! * Page 0 of the index file is the **meta page**: `special1` holds the
//!   root page id, `special2` the head of the free list (`NO_FREE` when
//!   the list is empty). There is no stored entry count:
//!   [`BTree::entry_count`] walks the leaves.
//! * **Leaf pages** (`special0 == 1`) store entries sorted by key;
//!   `special1` is the right-sibling page id (`NO_PAGE` at the right edge).
//!   Entry record: `u16 key_len | key bytes`. The *stored key* is the
//!   logical (column-encoded) key with the 8-byte big-endian RID appended,
//!   which makes every stored key unique — duplicate logical keys are
//!   handled uniformly, and the RID is recovered from the key suffix.
//! * **Internal pages** (`special0 == 2`) hold separator entries
//!   `u16 key_len | key | u32 child`; `special2` is the leftmost child.
//!   A lookup key `k` descends into the child of the rightmost separator
//!   `s ≤ k`, or the leftmost child when every separator exceeds `k`.
//!
//! * **Free pages** (`special0 == 4`) are pages a delete emptied and
//!   unlinked; `special1` is the next free page. Every page a split or a
//!   new root needs comes from `BTree::alloc_page`, which pops this
//!   list before it extends the file, so a tree under steady insert/delete
//!   churn stops growing.
//!
//! Inserts split full nodes bottom-up (recursive); the root splits into a
//! new root. A full leaf splits one of two ways. When the new entry sorts
//! after every entry of the rightmost leaf, the leaf keeps all it holds
//! and the new entry starts a fresh right leaf of its own; the full page
//! changes only its sibling pointer. Ascending inserts — a sorted index
//! backfill, or appends under an ever-growing id — therefore leave every
//! leaf but the last one full. Any other full leaf, and every internal
//! node, splits in the middle, so random inserts keep the 50/50 split
//! (over integer keys a half-full internal page still points at ~150
//! leaves). Deletes do not rebalance, but a leaf that loses its last
//! entry is given back: it is detached from the lowest ancestor that
//! keeps another child (the single-child internal nodes in between go
//! with it), unlinked from the leaf chain, and pushed on the free list; a
//! root left with one child hands the root to that child.
//!
//! Crash consistency. Pages reach the WAL as independent images, a
//! commit logs each dirty page's *latest* image, and a torn log tail
//! replays any prefix of the records. A reachable free page would send a
//! descent or a chain walk into the free list, so a reclamation pins the
//! order of its images with [`BufferPool::log_frame`]: the emptied leaf
//! (still a leaf), then the ancestor without its pointer, then the left
//! sibling relinked past it — and only after those are in the log do the
//! pages turn into free pages and the meta page's list head move, whose
//! images the next commit logs. Every prefix scans correctly and routes
//! later inserts and deletes correctly: an empty leaf, an empty leaf only
//! the chain reaches (scans skip it, nothing can be routed into it, and
//! the reclamation of its right neighbour walks the chain past it and
//! frees it too), an unreachable leaf, a leaked free page, or the
//! finished reclamation. A root shrink logs the meta page with its new
//! root before the old root is freed. A list head whose page is not (yet)
//! a free page on disk is handled at allocation, which trusts the head
//! only if that page really is free and otherwise drops the list and
//! extends the file.
//!
//! Growth follows the same rule — a page is in the log before any page
//! that points to it can be: a split logs the new right page before it
//! rewrites the left one (or, at the right edge, before the left one names
//! it as its sibling), a root split logs the new root before the meta
//! page names it — whenever the pointing page has ever been logged, so
//! that a bulk load into a fresh index adds nothing to the log. (What
//! stays open is the pair left page / parent: a log
//! cut between their two images leaves the right page reachable through
//! the chain only, which scans and lookups survive and a later insert
//! into that key range does not. Closing it needs records that replay
//! several pages atomically.)
//!
//! Concurrency: a tree-level reader/writer latch. Scans and lookups share
//! a read latch; structural mutation (`insert`, `delete`) takes the write
//! latch, so readers never observe a half-split node. The latch is taken
//! once at each public entry point — internal helpers are unlatched to
//! avoid recursive read-lock acquisition (unsafe with a queued writer).

use std::sync::Arc;

use parking_lot::RwLock;

use crate::error::{DbError, Result};
use crate::storage::buffer::{BufferPool, FileId, FrameRef};
use crate::storage::heap::Rid;
use crate::storage::page::Page;

const NO_PAGE: u32 = u32::MAX;
const KIND_LEAF: u32 = 1;
const KIND_INTERNAL: u32 = 2;
const KIND_META: u32 = 3;
const KIND_FREE: u32 = 4;
/// Free-list terminator. Page 0 is the meta page and can never be free.
const NO_FREE: u32 = 0;

/// Longest permissible logical key. Four entries must fit a page.
pub const MAX_KEY_LEN: usize = 1500;

/// Result of inserting into a subtree: the (separator, new right
/// sibling) to push into the parent when the subtree's root split.
type Split = Option<(Vec<u8>, u32)>;

/// One step of a root-to-leaf descent: an internal page and the child
/// pointer taken there (`None`: the leftmost child in `special2`;
/// `Some(i)`: separator `i`'s child).
type Step = (u32, Option<usize>);

/// A B+Tree index handle.
pub struct BTree {
    pool: Arc<BufferPool>,
    file: FileId,
    /// Tree-level reader/writer latch (see module docs).
    latch: RwLock<()>,
}

impl BTree {
    /// Create a fresh tree in an empty registered file.
    pub fn create(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let tree = BTree { pool, file, latch: RwLock::new(()) };
        let (meta_pid, meta) = tree.pool.allocate(file)?;
        debug_assert_eq!(meta_pid, 0);
        let (root_pid, root) = tree.pool.allocate(file)?;
        {
            let mut p = root.page.lock();
            p.set_special0(KIND_LEAF);
            p.set_special1(NO_PAGE);
            root.mark_dirty();
        }
        {
            let mut p = meta.page.lock();
            p.set_special0(KIND_META);
            p.set_special1(root_pid);
            p.set_special2(NO_FREE);
            meta.mark_dirty();
        }
        Ok(tree)
    }

    /// Open an existing tree.
    pub fn open(pool: Arc<BufferPool>, file: FileId) -> Result<BTree> {
        let tree = BTree { pool, file, latch: RwLock::new(()) };
        let meta = tree.pool.fetch(file, 0)?;
        let kind = meta.page.lock().special0();
        if kind != KIND_META {
            return Err(DbError::Corrupt(format!("file {file} is not a B+Tree")));
        }
        Ok(tree)
    }

    /// The underlying file id.
    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// On-disk size in bytes.
    pub fn size_bytes(&self) -> Result<u64> {
        self.pool.file_size(self.file)
    }

    /// Physical entry count: walks every leaf and counts slots. Vacuum's
    /// equivalence checks use this as ground truth that the index shrank
    /// in step with the heap.
    pub fn entry_count(&self) -> Result<u64> {
        let mut n = 0u64;
        self.scan_from(&[], |_, _| {
            n += 1;
            Ok(true)
        })?;
        Ok(n)
    }

    fn root(&self) -> Result<u32> {
        let meta = self.pool.fetch(self.file, 0)?;
        let pid = meta.page.lock().special1();
        Ok(pid)
    }

    /// Point the meta page at a new root. `fresh` is that root when it
    /// was only just built: if the meta page has ever been logged, the new
    /// root goes into the log before the meta page can name it.
    fn set_root(&self, pid: u32, fresh: Option<&FrameRef>) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        let mut m = meta.page.lock();
        if let (Some(root), true) = (fresh, m.lsn() != 0) {
            self.pool.log_frame(root);
        }
        m.set_special1(pid);
        meta.mark_dirty();
        Ok(())
    }

    /// The tree's one allocation entry point: a page off the free list,
    /// or a fresh one at the end of the file. Returns an empty slotted
    /// page with zeroed special words.
    fn alloc_page(&self) -> Result<(u32, FrameRef)> {
        let meta = self.pool.fetch(self.file, 0)?;
        let head = meta.page.lock().special2();
        if head == NO_FREE {
            return self.pool.allocate(self.file);
        }
        // The head is trusted only if it names a free page (see the
        // module docs): anything else drops the list.
        let mut reuse = None;
        if head < self.pool.page_count(self.file)? {
            let frame = self.pool.fetch(self.file, head)?;
            let next = {
                let p = frame.page.lock();
                (p.special0() == KIND_FREE).then(|| p.special1())
            };
            reuse = next.map(|next| (next, frame));
        }
        {
            let mut m = meta.page.lock();
            m.set_special2(reuse.as_ref().map_or(NO_FREE, |(next, _)| *next));
            meta.mark_dirty();
        }
        match reuse {
            Some((_, frame)) => {
                frame.page.lock().reinit();
                Ok((head, frame))
            }
            None => self.pool.allocate(self.file),
        }
    }

    /// Turn `pid` — already unreachable from the root and the leaf chain
    /// — into a free page and make it the head of the free list.
    fn free_page(&self, pid: u32) -> Result<()> {
        let meta = self.pool.fetch(self.file, 0)?;
        let head = meta.page.lock().special2();
        let frame = self.pool.fetch(self.file, pid)?;
        {
            let mut p = frame.page.lock();
            p.reinit();
            p.set_special0(KIND_FREE);
            p.set_special1(head);
            frame.mark_dirty();
        }
        meta.page.lock().set_special2(pid);
        meta.mark_dirty();
        Ok(())
    }

    /// Insert `(key, rid)`. Duplicate logical keys are allowed; the exact
    /// `(key, rid)` pair is stored at most once.
    pub fn insert(&self, key: &[u8], rid: Rid) -> Result<()> {
        if key.len() > MAX_KEY_LEN {
            return Err(DbError::Exec(format!(
                "index key of {} bytes exceeds the {MAX_KEY_LEN}-byte limit",
                key.len()
            )));
        }
        let stored = stored_key(key, rid);
        let _w = self.latch.write();
        let root = self.root()?;
        if let Some((sep, new_pid)) = self.insert_rec(root, &stored)? {
            // Root split: build a new root above.
            let (new_root_pid, frame) = self.alloc_page()?;
            {
                let mut p = frame.page.lock();
                p.set_special0(KIND_INTERNAL);
                p.set_special1(NO_PAGE);
                p.set_special2(root);
                let rec = internal_record(&sep, new_pid);
                p.insert(&rec).expect("two entries fit an empty internal page");
                frame.mark_dirty();
            }
            self.set_root(new_root_pid, Some(&frame))?;
        }
        Ok(())
    }

    fn insert_rec(&self, pid: u32, stored: &[u8]) -> Result<Split> {
        let frame = self.pool.fetch(self.file, pid)?;
        let kind = frame.page.lock().special0();
        match kind {
            KIND_LEAF => self.insert_leaf(&frame, stored),
            KIND_INTERNAL => {
                let (child, _child_idx) = {
                    let p = frame.page.lock();
                    find_child(&p, stored)
                };
                drop(frame);
                let Some((sep, new_pid)) = self.insert_rec(child, stored)? else {
                    return Ok(None);
                };
                let frame = self.pool.fetch(self.file, pid)?;
                self.insert_internal(&frame, &sep, new_pid)
            }
            other => Err(DbError::Corrupt(format!("page {pid} has bad node kind {other}"))),
        }
    }

    fn insert_leaf(&self, frame: &FrameRef, stored: &[u8]) -> Result<Split> {
        let mut p = frame.page.lock();
        let pos = match leaf_position(&p, stored) {
            Ok(_) => return Ok(None), // exact (key, rid) already present
            Err(pos) => pos,
        };
        let rec = leaf_record(stored);
        if p.insert_at(pos, &rec).is_some() {
            frame.mark_dirty();
            return Ok(None);
        }
        let old_sibling = p.special1();
        if pos == p.slot_count() && old_sibling == NO_PAGE {
            // Right-edge split: the full page keeps every record and the
            // new entry starts the next leaf on its own, so ascending
            // inserts leave every leaf but the last one full.
            let right_pid = self.new_right(&p, [KIND_LEAF, NO_PAGE, 0], &[rec])?;
            p.set_special1(right_pid);
            frame.mark_dirty();
            return Ok(Some((stored.to_vec(), right_pid)));
        }
        // Split: gather all records (plus the new one) and redistribute.
        let mut records: Vec<Vec<u8>> =
            (0..p.slot_count()).filter_map(|i| p.get(i).map(<[u8]>::to_vec)).collect();
        records.insert(pos, rec);
        let mid = records.len() / 2;
        let right_records = records.split_off(mid);
        let sep = leaf_key(&right_records[0]).to_vec();
        let right_pid = self.new_right(&p, [KIND_LEAF, old_sibling, 0], &right_records)?;
        fill(&mut p, [KIND_LEAF, right_pid, 0], &records);
        frame.mark_dirty();
        Ok(Some((sep, right_pid)))
    }

    fn insert_internal(&self, frame: &FrameRef, sep: &[u8], new_child: u32) -> Result<Split> {
        let mut p = frame.page.lock();
        // Position: first separator greater than `sep`.
        let n = p.slot_count();
        let mut pos = n;
        for i in 0..n {
            let rec = p.get(i).expect("internal slots are live");
            if internal_key(rec) > sep {
                pos = i;
                break;
            }
        }
        let rec = internal_record(sep, new_child);
        if p.insert_at(pos, &rec).is_some() {
            frame.mark_dirty();
            return Ok(None);
        }
        // Split the internal node; the middle separator moves up.
        let mut records: Vec<Vec<u8>> =
            (0..p.slot_count()).filter_map(|i| p.get(i).map(<[u8]>::to_vec)).collect();
        records.insert(pos, rec);
        let mid = records.len() / 2;
        let promoted_key = internal_key(&records[mid]).to_vec();
        let right_specials = [KIND_INTERNAL, NO_PAGE, internal_child(&records[mid])];
        let right_pid = self.new_right(&p, right_specials, &records[mid + 1..])?;
        let left_specials = [KIND_INTERNAL, NO_PAGE, p.special2()];
        fill(&mut p, left_specials, &records[..mid]);
        frame.mark_dirty();
        Ok(Some((promoted_key, right_pid)))
    }

    /// A split's new right page, holding `records` under `specials`. If
    /// `left` — the page that splits, locked by the caller, which will
    /// name the new page — has ever been logged, the new page goes into
    /// the log first: an image of `left` that names it or lacks the
    /// records it took cannot be logged before that lock is released, and
    /// must never be without it. A page that was never logged has no image
    /// a crash could fall back to, so a bulk load into a fresh index logs
    /// nothing here. `fill` keeps a page's LSN, which is how "ever logged"
    /// is known.
    fn new_right(&self, left: &Page, specials: [u32; 3], records: &[Vec<u8>]) -> Result<u32> {
        // Allocating while holding the left page's lock is safe: neither
        // the pool nor the free list touches that page's contents.
        let (pid, frame) = self.alloc_page()?;
        fill(&mut frame.page.lock(), specials, records);
        frame.mark_dirty();
        if left.lsn() != 0 {
            self.pool.log_frame(&frame);
        }
        Ok(pid)
    }

    /// Remove the exact `(key, rid)` entry. Returns whether it existed.
    /// A leaf that loses its last entry is reclaimed (see the module
    /// docs); the root leaf stays.
    pub fn delete(&self, key: &[u8], rid: Rid) -> Result<bool> {
        let stored = stored_key(key, rid);
        let _w = self.latch.write();
        let mut path: Vec<Step> = Vec::new();
        let (leaf, _) = self.descend(&stored, |pid, slot| path.push((pid, slot)))?;
        let frame = self.pool.fetch(self.file, leaf)?;
        let emptied = {
            let mut p = frame.page.lock();
            let Ok(idx) = leaf_position(&p, &stored) else { return Ok(false) };
            p.remove_slot(idx);
            p.compact();
            frame.mark_dirty();
            p.slot_count() == 0
        };
        if emptied {
            self.reclaim_leaf(&path, &frame)?;
        }
        Ok(true)
    }

    /// Give back the emptied leaf at the end of `path`, in the order the
    /// module docs argue for: detach, unlink, free, shrink the root.
    /// `log_frame` holds each step's image to that order in the log.
    fn reclaim_leaf(&self, path: &[Step], leaf_frame: &FrameRef) -> Result<()> {
        let leaf = leaf_frame.location().1;
        // The lowest ancestor that keeps another child; the single-child
        // internal nodes below it go with the leaf. (No such ancestor: the
        // leaf is the root, which stays.)
        let mut at = path.len();
        loop {
            let Some(up) = at.checked_sub(1) else { return Ok(()) };
            at = up;
            if self.pool.fetch(self.file, path[at].0)?.page.lock().slot_count() > 0 {
                break;
            }
        }
        let left = self.left_leaf(path)?;
        let right = leaf_frame.page.lock().special1();
        self.pool.log_frame(leaf_frame);

        let (pid, slot) = path[at];
        let frame = self.pool.fetch(self.file, pid)?;
        {
            let mut p = frame.page.lock();
            if slot.is_none() {
                // The leftmost child goes: separator 0's child takes its
                // place, and its key range with it.
                let first = internal_child(p.get(0).expect("node keeps another child"));
                p.set_special2(first);
            }
            p.remove_slot(slot.unwrap_or(0));
            p.compact();
            frame.mark_dirty();
        }
        self.pool.log_frame(&frame);
        // Empty leaves only the chain reaches, left between `left` and
        // this one by reclamations a crash cut short: they go along.
        let mut ghosts = Vec::new();
        if let Some(left) = left {
            let frame = self.pool.fetch(self.file, left)?;
            let mut next = frame.page.lock().special1();
            while next != leaf {
                let after = if next == NO_PAGE {
                    None
                } else {
                    let ghost = self.pool.fetch(self.file, next)?;
                    let p = ghost.page.lock();
                    (p.special0() == KIND_LEAF && p.slot_count() == 0).then(|| p.special1())
                };
                let Some(after) = after else {
                    return Err(DbError::Corrupt(format!(
                        "leaf {left} should chain to {leaf}, chains to {next}"
                    )));
                };
                ghosts.push(next);
                next = after;
            }
            {
                let mut p = frame.page.lock();
                p.set_special1(right);
                frame.mark_dirty();
            }
            self.pool.log_frame(&frame);
        }
        for &(pid, _) in &path[at + 1..] {
            self.free_page(pid)?;
        }
        for pid in ghosts {
            self.free_page(pid)?;
        }
        self.free_page(leaf)?;

        loop {
            let root = self.root()?;
            let only_child = {
                let frame = self.pool.fetch(self.file, root)?;
                let p = frame.page.lock();
                (p.special0() == KIND_INTERNAL && p.slot_count() == 0).then(|| p.special2())
            };
            let Some(child) = only_child else { return Ok(()) };
            self.set_root(child, None)?;
            self.pool.log_frame(&self.pool.fetch(self.file, 0)?);
            self.free_page(root)?;
        }
    }

    /// The leaf immediately left of the one `path` leads to: down the
    /// rightmost spine of the child left of the lowest step that did not
    /// take the leftmost pointer. `None` at the left edge of the tree.
    fn left_leaf(&self, path: &[Step]) -> Result<Option<u32>> {
        let Some(&(pid, Some(i))) = path.iter().rev().find(|(_, slot)| slot.is_some()) else {
            return Ok(None);
        };
        let child_of = |p: &Page, i: Option<usize>| match i {
            Some(i) => internal_child(p.get(i).expect("internal slots are live")),
            None => p.special2(),
        };
        let mut pid = child_of(&self.pool.fetch(self.file, pid)?.page.lock(), i.checked_sub(1));
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            match p.special0() {
                KIND_LEAF => return Ok(Some(pid)),
                KIND_INTERNAL => pid = child_of(&p, p.slot_count().checked_sub(1)),
                other => {
                    return Err(DbError::Corrupt(format!("page {pid} has bad node kind {other}")))
                }
            }
        }
    }

    /// Descend to the leaf that would contain `stored`, reporting each
    /// internal page on the way down and the child pointer taken there to
    /// `visit`; returns (leaf pid, entry index of the first entry ≥
    /// `stored`).
    fn descend(
        &self,
        stored: &[u8],
        mut visit: impl FnMut(u32, Option<usize>),
    ) -> Result<(u32, usize)> {
        let mut pid = self.root()?;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            match p.special0() {
                KIND_LEAF => {
                    let idx = match leaf_position(&p, stored) {
                        Ok(i) | Err(i) => i,
                    };
                    return Ok((pid, idx));
                }
                KIND_INTERNAL => {
                    let (child, slot) = find_child(&p, stored);
                    drop(p);
                    visit(pid, slot);
                    pid = child;
                }
                other => {
                    return Err(DbError::Corrupt(format!("page {pid} has bad node kind {other}")))
                }
            }
        }
    }

    /// Scan logical keys in `[lo, ..)`, calling `f(logical_key, rid)` until
    /// it returns `false` or keys are exhausted. The caller terminates the
    /// scan through the callback (e.g. when past an upper bound).
    pub fn scan_from(&self, lo: &[u8], f: impl FnMut(&[u8], Rid) -> Result<bool>) -> Result<()> {
        let _r = self.latch.read();
        self.scan_from_inner(lo, f)
    }

    /// `scan_from` without the latch, for latched callers.
    fn scan_from_inner(
        &self,
        lo: &[u8],
        mut f: impl FnMut(&[u8], Rid) -> Result<bool>,
    ) -> Result<()> {
        // One probe = one descent; prefix and range scans both land here.
        crate::metrics::ENGINE.index_probes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let (mut pid, mut landed) =
            self.descend(lo, |_, _| {}).map(|(pid, idx)| (pid, Some(idx)))?;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            let n = p.slot_count();
            // A leaf entered through the chain starts at or above `lo` —
            // unless the descent landed left of it (a split whose parent
            // entry a crash cut off, see the module docs): enter at `lo`.
            let mut idx = landed.take().unwrap_or_else(|| match p.get(0) {
                Some(first) if leaf_key(first) < lo => leaf_position(&p, lo).unwrap_or_else(|i| i),
                _ => 0,
            });
            while idx < n {
                let rec = p.get(idx).expect("leaf slots are live");
                let stored = leaf_key(rec);
                let (logical, rid) = split_stored(stored);
                if !f(logical, rid)? {
                    return Ok(());
                }
                idx += 1;
            }
            let next = p.special1();
            if next == NO_PAGE {
                return Ok(());
            }
            pid = next;
        }
    }

    /// All rids whose logical key starts with `prefix`, in key order.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Result<Vec<Rid>> {
        let _r = self.latch.read();
        let mut out = Vec::new();
        self.scan_from_inner(prefix, |key, rid| {
            if key.starts_with(prefix) {
                out.push(rid);
                Ok(true)
            } else {
                Ok(false)
            }
        })?;
        Ok(out)
    }

    /// All `(key, rid)` pairs with `lo ≤ key` and `key` within `hi`
    /// according to `hi_inclusive` / prefix semantics (see `plan`).
    pub fn scan_range(
        &self,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        hi_inclusive: bool,
    ) -> Result<Vec<(Vec<u8>, Rid)>> {
        let _r = self.latch.read();
        let lo = lo.unwrap_or(&[]);
        let mut out = Vec::new();
        self.scan_from_inner(lo, |key, rid| {
            if let Some(hi) = hi {
                let within = if hi_inclusive { key <= hi || key.starts_with(hi) } else { key < hi };
                if !within {
                    return Ok(false);
                }
            }
            out.push((key.to_vec(), rid));
            Ok(true)
        })?;
        Ok(out)
    }

    /// Tree height (1 = a single leaf). Diagnostic.
    pub fn height(&self) -> Result<u32> {
        let _r = self.latch.read();
        let mut pid = self.root()?;
        let mut h = 1;
        loop {
            let frame = self.pool.fetch(self.file, pid)?;
            let p = frame.page.lock();
            if p.special0() == KIND_LEAF {
                return Ok(h);
            }
            let leftmost = p.special2();
            drop(p);
            pid = leftmost;
            h += 1;
        }
    }
}

/// Rewrite `p` as an empty node with `specials` holding `records`, which
/// a split has sized to fit. The LSN survives.
fn fill(p: &mut Page, specials: [u32; 3], records: &[Vec<u8>]) {
    p.reinit();
    p.set_special0(specials[0]);
    p.set_special1(specials[1]);
    p.set_special2(specials[2]);
    for r in records {
        p.insert(r).expect("a split's share fits an empty page");
    }
}

// ---- record encodings -------------------------------------------------

/// Stored key = logical key ++ big-endian rid (unique).
fn stored_key(key: &[u8], rid: Rid) -> Vec<u8> {
    let mut v = Vec::with_capacity(key.len() + 8);
    v.extend_from_slice(key);
    v.extend_from_slice(&rid.to_u64().to_be_bytes());
    v
}

fn split_stored(stored: &[u8]) -> (&[u8], Rid) {
    let cut = stored.len() - 8;
    let rid = Rid::from_u64(u64::from_be_bytes(stored[cut..].try_into().unwrap()));
    (&stored[..cut], rid)
}

fn leaf_record(stored: &[u8]) -> Vec<u8> {
    let mut v = Vec::with_capacity(2 + stored.len());
    v.extend_from_slice(&(stored.len() as u16).to_le_bytes());
    v.extend_from_slice(stored);
    v
}

fn leaf_key(rec: &[u8]) -> &[u8] {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    &rec[2..2 + len]
}

fn internal_record(key: &[u8], child: u32) -> Vec<u8> {
    let mut v = Vec::with_capacity(6 + key.len());
    v.extend_from_slice(&(key.len() as u16).to_le_bytes());
    v.extend_from_slice(key);
    v.extend_from_slice(&child.to_le_bytes());
    v
}

fn internal_key(rec: &[u8]) -> &[u8] {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    &rec[2..2 + len]
}

fn internal_child(rec: &[u8]) -> u32 {
    let len = u16::from_le_bytes(rec[0..2].try_into().unwrap()) as usize;
    u32::from_le_bytes(rec[2 + len..2 + len + 4].try_into().unwrap())
}

/// Binary search for `stored` among a leaf's entries.
fn leaf_position(p: &Page, stored: &[u8]) -> std::result::Result<usize, usize> {
    let n = p.slot_count();
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rec = p.get(mid).expect("leaf slots are live");
        match leaf_key(rec).cmp(stored) {
            std::cmp::Ordering::Less => lo = mid + 1,
            std::cmp::Ordering::Greater => hi = mid,
            std::cmp::Ordering::Equal => return Ok(mid),
        }
    }
    Err(lo)
}

/// Child pointer for `stored` in an internal node.
fn find_child(p: &Page, stored: &[u8]) -> (u32, Option<usize>) {
    let n = p.slot_count();
    // Rightmost separator ≤ stored.
    let mut lo = 0usize;
    let mut hi = n;
    while lo < hi {
        let mid = (lo + hi) / 2;
        let rec = p.get(mid).expect("internal slots are live");
        if internal_key(rec) <= stored {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    if lo == 0 {
        (p.special2(), None)
    } else {
        let rec = p.get(lo - 1).expect("internal slots are live");
        (internal_child(rec), Some(lo - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::key::encode_key;
    use crate::types::Value;

    fn tree(tag: &str, frames: usize) -> BTree {
        BTree::create(fresh_pool(&scratch(tag).join("i.db"), frames), 9).unwrap()
    }

    fn rid(i: u64) -> Rid {
        Rid::from_u64(i)
    }

    #[test]
    fn insert_and_prefix_scan() {
        let t = tree("basic", 64);
        for i in 0..100i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        assert_eq!(t.entry_count().unwrap(), 100);
        let hits = t.scan_prefix(&encode_key(&[Value::Int(42)])).unwrap();
        assert_eq!(hits, vec![rid(42)]);
        assert!(t.scan_prefix(&encode_key(&[Value::Int(500)])).unwrap().is_empty());
    }

    #[test]
    fn duplicates_all_returned() {
        let t = tree("dups", 64);
        let k = encode_key(&[Value::str("HAMLET")]);
        for i in 0..50u64 {
            t.insert(&k, rid(i)).unwrap();
        }
        let hits = t.scan_prefix(&k).unwrap();
        assert_eq!(hits.len(), 50);
        // Exactly-equal (key, rid) pairs are deduplicated.
        t.insert(&k, rid(7)).unwrap();
        assert_eq!(t.scan_prefix(&k).unwrap().len(), 50);
    }

    #[test]
    fn many_inserts_split_and_stay_sorted() {
        let t = tree("split", 64);
        // Insert in pseudorandom order with string keys.
        let mut keys: Vec<i64> = (0..2000).collect();
        // Simple LCG shuffle (deterministic, no rand dependency here).
        let mut state = 12345u64;
        for i in (1..keys.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            keys.swap(i, j);
        }
        for &k in &keys {
            let key = encode_key(&[Value::str(format!("key-{k:06}"))]);
            t.insert(&key, rid(k as u64)).unwrap();
        }
        assert!(t.height().unwrap() >= 2, "tree should have split");
        // Full scan in order.
        let all = t.scan_range(None, None, true).unwrap();
        assert_eq!(all.len(), 2000);
        for w in all.windows(2) {
            assert!(w[0].0 <= w[1].0);
        }
        // Point lookups.
        for probe in [0i64, 1, 999, 1999] {
            let key = encode_key(&[Value::str(format!("key-{probe:06}"))]);
            assert_eq!(t.scan_prefix(&key).unwrap(), vec![rid(probe as u64)]);
        }
    }

    #[test]
    fn range_scan_bounds() {
        let t = tree("range", 64);
        for i in 0..100i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        let lo = encode_key(&[Value::Int(10)]);
        let hi = encode_key(&[Value::Int(20)]);
        let inc = t.scan_range(Some(&lo), Some(&hi), true).unwrap();
        assert_eq!(inc.len(), 11);
        let exc = t.scan_range(Some(&lo), Some(&hi), false).unwrap();
        assert_eq!(exc.len(), 10);
    }

    #[test]
    fn delete_removes_exact_pair() {
        let t = tree("del", 64);
        let k = encode_key(&[Value::Int(5)]);
        t.insert(&k, rid(1)).unwrap();
        t.insert(&k, rid(2)).unwrap();
        assert!(t.delete(&k, rid(1)).unwrap());
        assert!(!t.delete(&k, rid(1)).unwrap());
        assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(2)]);
        assert_eq!(t.entry_count().unwrap(), 1);
    }

    #[test]
    fn survives_tiny_buffer_pool() {
        // Pool far smaller than the tree: every descent faults pages in.
        let t = tree("tiny", 8);
        for i in 0..3000i64 {
            t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
        }
        for probe in [0i64, 1234, 2999] {
            let k = encode_key(&[Value::Int(probe)]);
            assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(probe as u64)]);
        }
        assert_eq!(t.entry_count().unwrap(), 3000);
    }

    #[test]
    fn composite_prefix_scan() {
        let t = tree("comp", 64);
        for a in 0..10i64 {
            for b in 0..10i64 {
                let k = encode_key(&[Value::Int(a), Value::Int(b)]);
                t.insert(&k, rid((a * 10 + b) as u64)).unwrap();
            }
        }
        let prefix = encode_key(&[Value::Int(3)]);
        let hits = t.scan_prefix(&prefix).unwrap();
        assert_eq!(hits.len(), 10);
        assert_eq!(hits[0], rid(30));
        assert_eq!(hits[9], rid(39));
    }

    #[test]
    fn oversized_key_rejected() {
        let t = tree("oversize", 16);
        let big = vec![7u8; MAX_KEY_LEN + 1];
        assert!(t.insert(&big, rid(1)).is_err());
    }

    #[test]
    fn reopen_preserves_contents() {
        let dir = std::env::temp_dir().join(format!("ordb-btree-reopen-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("i.db");
        let _ = std::fs::remove_file(&path);
        {
            let pool = Arc::new(BufferPool::new(32));
            pool.register_file(9, path.clone()).unwrap();
            let t = BTree::create(pool.clone(), 9).unwrap();
            for i in 0..500i64 {
                t.insert(&encode_key(&[Value::Int(i)]), rid(i as u64)).unwrap();
            }
            pool.flush_all().unwrap();
        }
        {
            let pool = Arc::new(BufferPool::new(32));
            pool.register_file(9, path).unwrap();
            let t = BTree::open(pool, 9).unwrap();
            assert_eq!(t.entry_count().unwrap(), 500);
            let k = encode_key(&[Value::Int(321)]);
            assert_eq!(t.scan_prefix(&k).unwrap(), vec![rid(321)]);
        }
    }

    // ---- model suite: structure, reclamation, free list -----------------

    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeSet, HashSet};
    use std::path::PathBuf;

    /// ~200-byte keys: a leaf holds ~35, so a few thousand keys make a
    /// three-level tree and every structural path runs in a small test.
    fn wide_key(k: u32) -> Vec<u8> {
        encode_key(&[Value::str(format!("{k:010}{}", "x".repeat(180)))])
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ordb-btree-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn fresh_pool(path: &std::path::Path, frames: usize) -> Arc<BufferPool> {
        let pool = Arc::new(BufferPool::new(frames));
        pool.register_file(9, path.to_path_buf()).unwrap();
        pool
    }

    /// Check every structural invariant of `t` against `model` and return
    /// the file's page count: the leaf chain is sorted and holds exactly
    /// the model; every separator bounds its subtree; no empty leaf is
    /// reachable unless it is the root; the free list holds only free
    /// pages, none of them reachable; reachable + free + meta is the file.
    fn check(t: &BTree, model: &BTreeSet<u32>) -> u32 {
        struct Walk<'a> {
            t: &'a BTree,
            reachable: HashSet<u32>,
            leaves: Vec<u32>,
        }
        impl Walk<'_> {
            fn node(&mut self, pid: u32, lo: Option<&[u8]>, hi: Option<&[u8]>, is_root: bool) {
                assert!(self.reachable.insert(pid), "page {pid} reachable twice");
                let frame = self.t.pool.fetch(self.t.file, pid).unwrap();
                let p = frame.page.lock();
                let within = |k: &[u8]| lo.is_none_or(|lo| k >= lo) && hi.is_none_or(|hi| k < hi);
                match p.special0() {
                    KIND_LEAF => {
                        assert!(p.slot_count() > 0 || is_root, "empty leaf {pid} reachable");
                        let keys: Vec<&[u8]> =
                            (0..p.slot_count()).map(|i| leaf_key(p.get(i).unwrap())).collect();
                        assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf {pid} unsorted");
                        assert!(keys.iter().all(|k| within(k)), "leaf {pid} outside its bounds");
                        self.leaves.push(pid);
                    }
                    KIND_INTERNAL => {
                        let seps: Vec<Vec<u8>> = (0..p.slot_count())
                            .map(|i| internal_key(p.get(i).unwrap()).to_vec())
                            .collect();
                        let kids: Vec<u32> = std::iter::once(p.special2())
                            .chain((0..p.slot_count()).map(|i| internal_child(p.get(i).unwrap())))
                            .collect();
                        assert!(!is_root || !seps.is_empty(), "one-child root {pid}");
                        assert!(seps.windows(2).all(|w| w[0] < w[1]), "node {pid} unsorted");
                        assert!(seps.iter().all(|k| within(k)), "node {pid} outside its bounds");
                        drop(p);
                        for (i, &kid) in kids.iter().enumerate() {
                            let lo = if i == 0 { lo } else { Some(&seps[i - 1][..]) };
                            let hi = seps.get(i).map(|s| &s[..]).or(hi);
                            self.node(kid, lo, hi, false);
                        }
                    }
                    other => panic!("page {pid} reachable with kind {other}"),
                }
            }
        }
        let _r = t.latch.read();
        let root = t.root().unwrap();
        let mut walk = Walk { t, reachable: HashSet::new(), leaves: Vec::new() };
        walk.node(root, None, None, true);

        // The chain visits the same leaves in the same order, and holds
        // exactly the model.
        let (mut chain, mut entries) = (Vec::new(), Vec::new());
        let mut pid = walk.leaves[0];
        while pid != NO_PAGE {
            chain.push(pid);
            let frame = t.pool.fetch(t.file, pid).unwrap();
            let p = frame.page.lock();
            for i in 0..p.slot_count() {
                entries.push(split_stored(leaf_key(p.get(i).unwrap())).0.to_vec());
            }
            pid = p.special1();
        }
        assert_eq!(chain, walk.leaves, "leaf chain differs from the leaves the root reaches");
        let want: Vec<Vec<u8>> = model.iter().map(|&k| wide_key(k)).collect();
        assert!(entries == want, "chain holds {} entries, model {}", entries.len(), want.len());

        let mut free = HashSet::new();
        let mut pid = t.pool.fetch(t.file, 0).unwrap().page.lock().special2();
        while pid != NO_FREE {
            assert!(free.insert(pid), "free list cycles at {pid}");
            assert!(!walk.reachable.contains(&pid), "free page {pid} is reachable");
            let frame = t.pool.fetch(t.file, pid).unwrap();
            let p = frame.page.lock();
            assert_eq!(p.special0(), KIND_FREE, "page {pid} on the free list is not free");
            pid = p.special1();
        }
        let pages = t.pool.page_count(t.file).unwrap();
        assert_eq!(
            walk.reachable.len() + free.len() + 1,
            pages as usize,
            "pages leaked: {} reachable, {} free, {pages} in the file",
            walk.reachable.len(),
            free.len()
        );
        pages
    }

    /// Seeded insert/delete batches against a `BTreeSet`, through an
    /// 8-frame pool, checking after every batch and after a reopen.
    fn churn_against_model(tag: &str, order: impl Fn(&mut SmallRng, &mut Vec<u32>)) {
        let dir = scratch(tag);
        let path = dir.join("i.db");
        let mut rng = SmallRng::seed_from_u64(0xB7EE);
        let mut model = BTreeSet::new();
        let mut next = 0u32;
        let mut pool = fresh_pool(&path, 8);
        let mut t = BTree::create(pool.clone(), 9).unwrap();
        for round in 0..12 {
            // Grow for four rounds, then delete more than is inserted
            // until the tree is empty again.
            let (ins, del) = if round < 4 { (400, 100) } else { (100, 400) };
            let mut fresh: Vec<u32> = (next..next + ins).collect();
            next += ins;
            order(&mut rng, &mut fresh);
            for k in fresh {
                t.insert(&wide_key(k), rid(u64::from(k))).unwrap();
                model.insert(k);
            }
            check(&t, &model);
            let mut victims: Vec<u32> = model.iter().copied().collect();
            order(&mut rng, &mut victims);
            victims.truncate(del.min(victims.len()));
            for k in victims {
                assert!(t.delete(&wide_key(k), rid(u64::from(k))).unwrap());
                model.remove(&k);
            }
            check(&t, &model);
            if round % 3 == 2 {
                pool.flush_all().unwrap();
                pool = fresh_pool(&path, 8);
                t = BTree::open(pool.clone(), 9).unwrap();
                check(&t, &model);
            }
        }
        assert!(model.is_empty(), "the schedule deletes everything it inserted");
        assert_eq!(t.height().unwrap(), 1, "an emptied tree is a single root leaf again");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn model_ascending_keys() {
        churn_against_model("model-asc", |_, keys| keys.sort_unstable());
    }

    #[test]
    fn model_descending_keys() {
        churn_against_model("model-desc", |_, keys| keys.sort_unstable_by(|a, b| b.cmp(a)));
    }

    #[test]
    fn model_random_keys() {
        churn_against_model("model-rand", |rng, keys| shuffle(rng, keys));
    }

    fn shuffle(rng: &mut SmallRng, keys: &mut [u32]) {
        for i in (1..keys.len()).rev() {
            keys.swap(i, rng.gen_range(0..=i));
        }
    }

    #[test]
    fn ascending_inserts_fill_every_leaf_but_the_last() {
        let t = tree("fill", 64);
        let mut page = Page::new();
        let per_leaf = (0u32..)
            .take_while(|&k| page.insert(&leaf_record(&stored_key(&wide_key(k), rid(0)))).is_some())
            .count() as u32;
        let n = 1000u32;
        let model: BTreeSet<u32> = (0..n).collect();
        for &k in &model {
            t.insert(&wide_key(k), rid(u64::from(k))).unwrap();
        }
        check(&t, &model);
        let (mut pid, _) = t.descend(&[], |_, _| {}).unwrap();
        let mut leaves = 0;
        while pid != NO_PAGE {
            leaves += 1;
            pid = t.pool.fetch(t.file, pid).unwrap().page.lock().special1();
        }
        assert_eq!(leaves, n.div_ceil(per_leaf), "{per_leaf} keys to a leaf");
    }

    #[test]
    fn steady_churn_holds_the_file_flat() {
        // Keys only ascend and the oldest are deleted — the shape of a
        // table maintained by an ever-growing id. Emptied leaves on the
        // left must feed the splits on the right.
        let dir = scratch("flat");
        let t = BTree::create(fresh_pool(&dir.join("i.db"), 16), 9).unwrap();
        let mut model = BTreeSet::new();
        let live = 1000u32;
        let mut sizes = Vec::new();
        for k in 0..live * 9 {
            t.insert(&wide_key(k), rid(u64::from(k))).unwrap();
            model.insert(k);
            if k >= live {
                assert!(t.delete(&wide_key(k - live), rid(u64::from(k - live))).unwrap());
                model.remove(&(k - live));
            }
            if k % live == live - 1 {
                sizes.push(check(&t, &model));
            }
        }
        // The first generations fill the file; after that it stays put.
        assert!(sizes[2..].iter().all(|&s| s == sizes[2]), "index file kept growing: {sizes:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_free_list_head_that_is_not_free_is_dropped_not_reused() {
        let dir = scratch("badhead");
        let pool = fresh_pool(&dir.join("i.db"), 32);
        let t = BTree::create(pool.clone(), 9).unwrap();
        let mut model = BTreeSet::new();
        for k in 0..200 {
            t.insert(&wide_key(k), rid(u64::from(k))).unwrap();
            model.insert(k);
        }
        // Point the head at the live root, as a log that captured the
        // meta page without the rest of a reclamation would.
        let root = t.root().unwrap();
        let meta = pool.fetch(9, 0).unwrap();
        meta.page.lock().set_special2(root);
        meta.mark_dirty();
        for k in 200..600 {
            t.insert(&wide_key(k), rid(u64::from(k))).unwrap();
            model.insert(k);
        }
        check(&t, &model);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A tree over a pool with a WAL, for replaying prefixes of what one
    /// operation logged over the data file as it stood before it.
    struct Logged {
        dir: PathBuf,
        pool: Arc<BufferPool>,
        wal: Arc<crate::storage::wal::Wal>,
        tree: BTree,
    }

    impl Logged {
        fn create(tag: &str) -> Logged {
            let dir = scratch(tag);
            let pool = fresh_pool(&dir.join("i.db"), 256);
            let wal = Arc::new(crate::storage::wal::Wal::open(&dir, None, None).unwrap());
            pool.set_wal(Some(wal.clone()));
            let tree = BTree::create(pool.clone(), 9).unwrap();
            Logged { dir, pool, wal, tree }
        }

        /// Run `op` against a flushed data file and an empty log; then, if
        /// it logged at least `min_images` pages, open the tree that each
        /// prefix of those images replays to and hand it to `verify`
        /// (with the prefix length). Returns whether it did.
        fn replay_prefixes(
            &self,
            min_images: usize,
            op: impl FnOnce(&BTree),
            verify: impl Fn(&BTree, usize),
        ) -> bool {
            use crate::storage::page::PAGE_SIZE;
            use crate::storage::wal::{WalReader, REC_PAGE_IMAGE};
            self.pool.flush_all().unwrap();
            self.wal.checkpoint(crate::txn::TXID_FIRST, crate::txn::TXID_FIRST, &[]).unwrap();
            op(&self.tree);
            self.pool.log_dirty_frames().unwrap();
            self.wal.sync().unwrap();
            let mut reader = WalReader::open(self.wal.path()).unwrap();
            let mut images = Vec::new();
            while let Some(rec) = reader.next_record() {
                if rec.kind == REC_PAGE_IMAGE {
                    images.push((rec.pid as usize, rec.payload));
                }
            }
            if images.len() < min_images {
                return false;
            }
            let mut bytes = std::fs::read(self.dir.join("i.db")).unwrap();
            for (cut, (pid, image)) in images.iter().enumerate() {
                bytes.resize(bytes.len().max((pid + 1) * PAGE_SIZE), 0);
                bytes[pid * PAGE_SIZE..(pid + 1) * PAGE_SIZE].copy_from_slice(image);
                let replayed = self.dir.join("replayed.db");
                std::fs::write(&replayed, &bytes).unwrap();
                let pool = Arc::new(BufferPool::new(64));
                pool.register_file(9, replayed).unwrap();
                verify(&BTree::open(pool, 9).unwrap(), cut + 1);
            }
            true
        }
    }

    impl Drop for Logged {
        fn drop(&mut self) {
            self.pool.set_wal(None);
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    fn scanned(t: &BTree) -> Vec<Vec<u8>> {
        t.scan_range(None, None, true).unwrap().into_iter().map(|(k, _)| k).collect()
    }

    #[test]
    fn every_logged_prefix_of_a_reclamation_replays_to_a_tree_that_scans() {
        let bed = Logged::create("prefix-reclaim");
        // Shuffled, so that middle splits leave the leaves part full and
        // 1 300 keys make a three-level tree (ascending ones would pack
        // into two levels).
        let n = 1300u32;
        let mut keys: Vec<u32> = (0..n).collect();
        shuffle(&mut SmallRng::seed_from_u64(0x5EED), &mut keys);
        for k in keys {
            bed.tree.insert(&wide_key(k), rid(u64::from(k))).unwrap();
        }
        assert!(bed.tree.height().unwrap() >= 3, "internal nodes must be in play");
        let mut model: BTreeSet<u32> = (0..n).collect();
        let mut reclamations = 0;
        // Empty leaves at the left edge (ascending), at the right edge
        // (descending), in the middle (all but every 50th key), and then
        // the stragglers, so the root shrinks down to a single leaf.
        let middle = n / 2..n * 3 / 4;
        let victims: Vec<u32> = (0..n / 2)
            .chain((n * 3 / 4..n).rev())
            .chain(middle.clone().filter(|k| k % 50 != 0))
            .chain(middle.filter(|k| k % 50 == 0))
            .collect();
        for k in victims {
            model.remove(&k);
            let want: Vec<Vec<u8>> = model.iter().map(|&k| wide_key(k)).collect();
            // An ordinary delete logs its one leaf; more is a reclamation.
            reclamations += usize::from(bed.replay_prefixes(
                2,
                |t| assert!(t.delete(&wide_key(k), rid(u64::from(k))).unwrap()),
                |t, cut| {
                    assert!(scanned(t) == want, "delete {k}, {cut} images: scan differs");
                    // Descents: every key around the reclaimed leaf, and
                    // a sample of the rest.
                    for &m in model.iter().filter(|&&m| m.abs_diff(k) < 80 || m % 16 == 0) {
                        let hit = t.scan_prefix(&wide_key(m)).unwrap();
                        assert_eq!(hit, vec![rid(u64::from(m))], "delete {k}, cut {cut}: {m}");
                    }
                    // And it takes what comes next: every key deleted —
                    // the leaves around whatever the cut left behind are
                    // reclaimed in their turn — and inserted again.
                    let mut keys: Vec<u32> = model.iter().copied().collect();
                    if cut % 2 == 0 {
                        keys.reverse();
                    }
                    for &m in &keys {
                        assert!(
                            t.delete(&wide_key(m), rid(u64::from(m))).unwrap(),
                            "{k}/{cut}/{m}"
                        );
                    }
                    assert!(scanned(t).is_empty(), "delete {k}, cut {cut}: entries left behind");
                    for &m in &keys {
                        t.insert(&wide_key(m), rid(u64::from(m))).unwrap();
                    }
                    assert!(scanned(t) == want, "delete {k}, cut {cut}: scan after the refill");
                },
            ));
        }
        assert!(reclamations > 40, "the schedule must reclaim many leaves: {reclamations}");
        assert_eq!(bed.tree.height().unwrap(), 1, "and shrink the tree back to its root leaf");
    }

    #[test]
    fn every_logged_prefix_of_a_split_keeps_the_entries_it_moved() {
        // Even keys first; then batches of odd keys, several to a leaf, so
        // that the leaf a split halves is already dirty when it splits —
        // the order in which a commit's pass would otherwise log it ahead
        // of the page that took the other half.
        let bed = Logged::create("prefix-split");
        let n = 400u32;
        for k in 0..n {
            bed.tree.insert(&wide_key(2 * k), rid(u64::from(2 * k))).unwrap();
        }
        let mut model: BTreeSet<u32> = (0..n).map(|k| 2 * k).collect();
        let insert = |t: &BTree, keys: &[u32]| {
            keys.iter().for_each(|&k| t.insert(&wide_key(k), rid(u64::from(k))).unwrap())
        };
        let probe = |t: &BTree, cut: usize, m: u32| {
            let hit = t.scan_prefix(&wide_key(m)).unwrap();
            assert_eq!(hit, vec![rid(u64::from(m))], "cut {cut}: probe {m}");
        };
        // Of a batch, any part may be there; of what was there before it,
        // everything, in order, and findable by a descent (every key near
        // the batch, a sample of the rest).
        let keeps = |t: &BTree, cut: usize, older: &BTreeSet<u32>, batch: u32| {
            let keys = scanned(t);
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "cut {cut}: scan unsorted");
            for &m in older {
                assert!(keys.binary_search(&wide_key(m)).is_ok(), "cut {cut}: {m} gone");
            }
            for &m in older.iter().filter(|&&m| m.abs_diff(batch) < 90 || m % 16 == 0) {
                probe(t, cut, m);
            }
        };
        let mut splits = 0;
        for batch in (0..n).collect::<Vec<_>>().chunks(8) {
            let fresh: Vec<u32> = batch.iter().map(|k| 2 * k + 1).collect();
            let older = model.clone();
            // Three images or more: a leaf, its new sibling, the parent.
            splits += usize::from(bed.replay_prefixes(
                3,
                |t| insert(t, &fresh),
                |t, cut| keeps(t, cut, &older, fresh[0]),
            ));
            model.extend(fresh);
        }
        assert!(splits > 10, "the schedule must split many leaves: {splits}");

        // Then ascending batches past the largest key, into pages that are
        // all in the log: every split is a right-edge split of a logged
        // leaf. Whatever prefix survives also takes the keys that come
        // next and finds each of them. (Older keys a cut left reachable
        // through the chain only are the open left page / parent gap of
        // the module docs: such an insert can route past them.)
        let mut edge_splits = 0;
        let next: Vec<u32> = (3 * n..3 * n + 40).collect();
        for batch in (2 * n..3 * n).collect::<Vec<_>>().chunks(8) {
            let older = model.clone();
            edge_splits += usize::from(bed.replay_prefixes(
                3,
                |t| insert(t, batch),
                |t, cut| {
                    keeps(t, cut, &older, batch[0]);
                    insert(t, &next);
                    next.iter().for_each(|&m| probe(t, cut, m));
                },
            ));
            model.extend(batch);
        }
        assert!(edge_splits > 5, "the schedule must split the right edge: {edge_splits}");
    }
}
