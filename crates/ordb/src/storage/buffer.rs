//! Buffer pool: a bounded, **thread-safe** cache of page frames over the
//! registered page files, with second-chance (clock) replacement and
//! write-back of dirty frames.
//!
//! The pool is the reason the DSx1→DSx8 scaling experiments show genuine
//! locality effects: once the working set exceeds the pool, scans and
//! index probes pay real file I/O, as on the paper's 256 MB testbed.
//!
//! # Concurrency design
//!
//! The pool is sharded: each `(file, page)` key hashes to one of
//! [`POOL_SHARDS`] shards, each with its own latch. The hot path (a cache
//! hit) takes exactly one shard latch, does two hash-map/atomic
//! operations, and releases — no O(n) LRU list scan (replacement is a
//! clock/second-chance queue whose per-hit cost is a single relaxed
//! atomic store of the frame's reference bit).
//!
//! Pinning is an explicit per-frame count maintained by the [`FrameRef`]
//! guard: minting a new guard from the shard map happens under the shard
//! latch, cloning an existing guard only ever moves the count from n > 0
//! to n + 1, so a frame observed at zero pins under the latch can never
//! gain a reference once it has been unmapped — the racy
//! `Arc::strong_count` eviction test is gone.
//!
//! Slow-path I/O — disk reads and dirty-victim write-backs — happens
//! **outside** the shard latch. An in-flight table per shard makes that
//! safe: a miss claims the key with an `Inflight` marker before
//! releasing the latch, concurrent fetches of the same page wait on the
//! marker and then retry (so a page is never read from disk twice
//! concurrently), and a dirty eviction victim is marked in-flight until
//! its write-back lands (so a re-fetch can never read the stale on-disk
//! image — the lost-update hazard of the old single-lock pool).
//!
//! Lock order: a page lock may be taken before the WAL mutex and the
//! file-table lock (write-backs do); the shard latch is never held
//! across page locks or file I/O.
//!
//! # Counters
//!
//! Hits, misses, evictions and writebacks are added to the calling
//! thread's [`crate::metrics::Counters`], never to a shared counter: the
//! thread that fetches is the thread whose statement asked. A miss is
//! classified sequential when it reads the page the same thread read
//! last or the one after it (the OS readahead window), random otherwise.
//!
//! # Durability hooks
//!
//! When a [`Wal`] is attached, the pool enforces **WAL-before-data**: a
//! dirty frame whose image has not been logged since its last mutation
//! (the `unlogged` bit, set by [`FrameRef::mark_dirty`]) is logged at
//! write-back time, and [`Wal::ensure_durable`] forces the log to disk
//! before the data page goes out. A frame whose bit goes from clear to
//! set is also remembered in the pool's unlogged list, which is all
//! [`BufferPool::log_dirty_frames`] visits: a commit costs the frames
//! dirtied since the last one, whatever the pool holds, and never locks
//! a clean page. Whether or not a WAL is attached,
//! every image is checksum-stamped before it is written and verified
//! when it is read back, so torn or bit-flipped on-disk pages surface
//! as [`DbError::Corrupt`] instead of garbage rows.

use std::collections::{HashMap, VecDeque};
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, Weak};

use parking_lot::{Mutex, RwLock};

use crate::error::{DbError, Result};
use crate::metrics::count;
use crate::storage::disk::PageFile;
use crate::storage::fault::FaultInjector;
use crate::storage::page::{verify_checksum, Page, PAGE_SIZE};
use crate::storage::wal::Wal;

/// Identifies a registered page file.
pub type FileId = u32;

/// Default pool capacity in frames (256 × 8 KiB = 2 MiB).
pub const DEFAULT_POOL_FRAMES: usize = 256;

/// Number of lock-striped shards. Keys hash across shards, so concurrent
/// fetches of different pages rarely contend on the same latch.
pub const POOL_SHARDS: usize = 8;

/// One cached page. Obtained (pinned) from [`BufferPool::fetch`] as a
/// [`FrameRef`]; the frame cannot be evicted while any ref is alive.
pub struct Frame {
    /// The page image. Lock, mutate, then call [`FrameRef::mark_dirty`].
    pub page: Mutex<Page>,
    dirty: AtomicBool,
    /// Set by `mark_dirty`, cleared when the image is logged to the WAL.
    /// A dirty frame with this bit set must be logged before its page
    /// can be written to a data file (WAL-before-data).
    unlogged: AtomicBool,
    /// The owning pool's list of frames whose `unlogged` bit was set.
    tracker: Arc<UnloggedFrames>,
    /// Live [`FrameRef`] count. Non-zero pins veto eviction.
    pins: AtomicU32,
    /// Clock reference bit: set on every hit, cleared by the sweep hand.
    referenced: AtomicBool,
    file: FileId,
    pid: u32,
}

impl Frame {
    /// The (file, page) this frame caches.
    pub fn location(&self) -> (FileId, u32) {
        (self.file, self.pid)
    }
}

/// A pinned reference to a cached frame. Dropping the ref unpins the
/// frame; cloning pins it again. Derefs to [`Frame`], so call sites use
/// `frame.page.lock()` / `frame.mark_dirty()` exactly as before.
pub struct FrameRef {
    frame: Arc<Frame>,
}

impl FrameRef {
    /// Pin `frame` (called under the owning shard's latch, or from an
    /// existing ref via `clone`).
    fn pin(frame: &Arc<Frame>) -> FrameRef {
        frame.pins.fetch_add(1, Ordering::AcqRel);
        FrameRef { frame: frame.clone() }
    }

    /// Record that the page image was modified. Call with the page lock
    /// held, after the mutation: a concurrent
    /// [`BufferPool::log_dirty_frames`] then either logs the new image
    /// or finds the frame in the list again next time.
    pub fn mark_dirty(&self) {
        self.frame.dirty.store(true, Ordering::Release);
        if !self.frame.unlogged.swap(true, Ordering::AcqRel) {
            self.frame.tracker.push(&self.frame);
        }
    }

    /// Whether two refs pin the same frame object.
    pub fn same_frame(a: &FrameRef, b: &FrameRef) -> bool {
        Arc::ptr_eq(&a.frame, &b.frame)
    }
}

impl Clone for FrameRef {
    fn clone(&self) -> FrameRef {
        FrameRef::pin(&self.frame)
    }
}

impl Deref for FrameRef {
    type Target = Frame;

    fn deref(&self) -> &Frame {
        &self.frame
    }
}

impl Drop for FrameRef {
    fn drop(&mut self) {
        self.frame.pins.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Frames whose `unlogged` bit went from clear to set since
/// [`BufferPool::log_dirty_frames`] last drained the list. Entries are
/// weak, and an entry may be stale (the frame was logged by a write-back,
/// or evicted): the drain re-checks the bit, and `push` drops stale
/// entries whenever the vector is about to grow, so the list stays
/// within a constant factor of the resident unlogged frames even when
/// nothing ever drains it (a bulk load, or a pool without a log).
#[derive(Default)]
struct UnloggedFrames(Mutex<Vec<Weak<Frame>>>);

impl UnloggedFrames {
    fn push(&self, frame: &Arc<Frame>) {
        let mut list = self.0.lock();
        if list.len() == list.capacity() && list.len() >= 64 {
            list.retain(|w| w.upgrade().is_some_and(|f| f.unlogged.load(Ordering::Acquire)));
        }
        list.push(Arc::downgrade(frame));
    }

    fn take(&self) -> Vec<Weak<Frame>> {
        std::mem::take(&mut *self.0.lock())
    }
}

/// I/O counters, one part of a [`crate::metrics::Counters`] set; two
/// readings and [`PoolStats::since`] bound a measurement window.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches satisfied from the cache.
    pub hits: u64,
    /// Fetches that read from disk, sequential and random.
    pub misses: u64,
    /// Misses that continued the reading thread's previous read (the
    /// same page or the next one); the rest are
    /// [random](PoolStats::rand_misses).
    pub seq_misses: u64,
    /// Dirty frames written back.
    pub writebacks: u64,
    /// Frames evicted to make room (clean or dirty).
    pub evictions: u64,
}

impl PoolStats {
    /// Total fetches (hits + misses).
    pub fn fetches(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of fetches served from the cache; 0.0 with no fetches.
    pub fn hit_ratio(&self) -> f64 {
        let f = self.fetches();
        if f == 0 {
            0.0
        } else {
            self.hits as f64 / f as f64
        }
    }

    /// Misses that had to seek: [`PoolStats::misses`] less
    /// [`PoolStats::seq_misses`].
    pub fn rand_misses(&self) -> u64 {
        self.misses.saturating_sub(self.seq_misses)
    }

    /// Counter growth since `earlier` (saturating).
    pub fn since(&self, earlier: &PoolStats) -> PoolStats {
        self.zip(earlier, u64::saturating_sub)
    }

    pub(crate) fn zip(&self, o: &PoolStats, f: fn(u64, u64) -> u64) -> PoolStats {
        PoolStats {
            hits: f(self.hits, o.hits),
            misses: f(self.misses, o.misses),
            seq_misses: f(self.seq_misses, o.seq_misses),
            writebacks: f(self.writebacks, o.writebacks),
            evictions: f(self.evictions, o.evictions),
        }
    }
}

/// Completion marker for an in-flight disk read or victim write-back.
/// Waiters block until `finish`, then retry their fetch from the top.
struct Inflight {
    done: StdMutex<bool>,
    cv: Condvar,
}

impl Inflight {
    fn new() -> Inflight {
        Inflight { done: StdMutex::new(false), cv: Condvar::new() }
    }

    fn wait(&self) {
        let mut done = self.done.lock().unwrap_or_else(|e| e.into_inner());
        while !*done {
            done = self.cv.wait(done).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn finish(&self) {
        *self.done.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

/// RAII completion of an `Inflight` marker — waiters are released even
/// if the I/O path errors or panics.
struct FinishOnDrop(Arc<Inflight>);

impl Drop for FinishOnDrop {
    fn drop(&mut self) {
        self.0.finish();
    }
}

/// One lock stripe: its slice of the frame map, the clock queue, and the
/// in-flight table.
struct Shard {
    frames: HashMap<(FileId, u32), Arc<Frame>>,
    /// Second-chance queue, oldest at the front. Entries are weak so a
    /// frame removed by `drop_cache`/`unregister_file` leaves only a
    /// cheap tombstone that the sweep hand discards.
    clock: VecDeque<Weak<Frame>>,
    /// Keys with a disk read or dirty-victim write-back in progress.
    inflight: HashMap<(FileId, u32), Arc<Inflight>>,
    capacity: usize,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard { frames: HashMap::new(), clock: VecDeque::new(), inflight: HashMap::new(), capacity }
    }
}

/// Sentinel for "no previous read" in the sequential-read detector.
const NO_LAST_READ: u64 = u64::MAX;

fn encode_loc(file: FileId, pid: u32) -> u64 {
    (u64::from(file) << 32) | u64::from(pid)
}

thread_local! {
    /// Per-thread sequential-read detector: the last (file, page) this
    /// thread read from disk. Per-thread (not pool-global) because OS
    /// readahead tracks each client *stream* — with a global detector,
    /// concurrent scans interleave and every read looks random, counting
    /// N well-behaved sequential clients as seeking.
    static LAST_READ: std::cell::Cell<u64> = const { std::cell::Cell::new(NO_LAST_READ) };
}

/// The buffer pool. All storage structures (heaps, B+Trees) go through
/// it; it is safe to share across threads (`&BufferPool` is `Sync`).
pub struct BufferPool {
    shards: Vec<Mutex<Shard>>,
    files: RwLock<HashMap<FileId, PageFile>>,
    /// Attached write-ahead log; when present, write-backs enforce
    /// WAL-before-data.
    wal: RwLock<Option<Arc<Wal>>>,
    /// Fault injector handed to every [`PageFile`] this pool opens.
    fault: Option<Arc<FaultInjector>>,
    /// See [`UnloggedFrames`].
    unlogged: Arc<UnloggedFrames>,
    /// Held for the whole of one [`BufferPool::log_dirty_frames`] pass.
    /// A pass owns the entries it drained until it has logged them; a
    /// second committer that found the list empty meanwhile must not
    /// fsync and acknowledge before those images are in the log.
    log_pass: Mutex<()>,
    /// Test-only read barrier: `[waiting, hold]` — a miss holds its read
    /// until `waiting` (fetches blocked on an in-flight read) reaches `hold`.
    #[cfg(test)]
    read_gate: [std::sync::atomic::AtomicUsize; 2],
}

impl BufferPool {
    /// A pool holding at most ~`capacity` frames (split evenly across
    /// [`POOL_SHARDS`] shards; pinned frames can over-subscribe a shard).
    pub fn new(capacity: usize) -> BufferPool {
        BufferPool::with_fault(capacity, None)
    }

    /// A pool whose page files route writes through `fault` (tests only;
    /// production opens pass `None`).
    pub fn with_fault(capacity: usize, fault: Option<Arc<FaultInjector>>) -> BufferPool {
        let capacity = capacity.max(8);
        let per_shard = capacity.div_ceil(POOL_SHARDS).max(1);
        BufferPool {
            shards: (0..POOL_SHARDS).map(|_| Mutex::new(Shard::new(per_shard))).collect(),
            files: RwLock::new(HashMap::new()),
            wal: RwLock::new(None),
            fault,
            unlogged: Arc::default(),
            log_pass: Mutex::new(()),
            #[cfg(test)]
            read_gate: Default::default(),
        }
    }

    /// Attach (or detach) the write-ahead log used for WAL-before-data
    /// enforcement on write-backs.
    pub fn set_wal(&self, wal: Option<Arc<Wal>>) {
        *self.wal.write() = wal;
    }

    fn shard(&self, file: FileId, pid: u32) -> &Mutex<Shard> {
        // Fibonacci hash of the packed key; pages of one file spread
        // across shards so a sequential scan does not hammer one latch.
        let h = encode_loc(file, pid).wrapping_mul(0x9E3779B97F4A7C15);
        &self.shards[(h >> 56) as usize % self.shards.len()]
    }

    /// Register (open or create) a page file under `id`.
    pub fn register_file(&self, id: FileId, path: PathBuf) -> Result<()> {
        let mut files = self.files.write();
        if files.contains_key(&id) {
            return Err(DbError::Catalog(format!("file id {id} already registered")));
        }
        files.insert(id, PageFile::open_faulted(path, self.fault.clone())?);
        Ok(())
    }

    /// Forget a file (flushing its frames first).
    pub fn unregister_file(&self, id: FileId) -> Result<()> {
        self.flush_file(id)?;
        for shard in &self.shards {
            shard.lock().frames.retain(|(f, _), _| *f != id);
            // Clock entries for the dropped frames become dead weak
            // tombstones; the sweep hand discards them.
        }
        self.files.write().remove(&id);
        Ok(())
    }

    /// Number of pages in file `id`.
    pub fn page_count(&self, id: FileId) -> Result<u32> {
        let files = self.files.read();
        Ok(file_of(&files, id)?.page_count())
    }

    /// On-disk size of file `id` in bytes.
    pub fn file_size(&self, id: FileId) -> Result<u64> {
        let files = self.files.read();
        Ok(file_of(&files, id)?.size_bytes())
    }

    /// Allocate a fresh page in file `id`, returning a pinned frame for it.
    pub fn allocate(&self, id: FileId) -> Result<(u32, FrameRef)> {
        let pid = {
            let mut files = self.files.write();
            let f = files
                .get_mut(&id)
                .ok_or_else(|| DbError::Catalog(format!("file id {id} not registered")))?;
            f.allocate()?
        };
        let frame = self.fetch(id, pid)?;
        Ok((pid, frame))
    }

    /// Fetch page `pid` of file `id`, reading it from disk on a miss.
    ///
    /// Hits take one shard latch. Misses claim the key in the shard's
    /// in-flight table, then read with no latch held; concurrent fetches
    /// of the same page wait for that one read instead of issuing their
    /// own.
    pub fn fetch(&self, id: FileId, pid: u32) -> Result<FrameRef> {
        let key = (id, pid);
        let shard = self.shard(id, pid);
        loop {
            let inflight = {
                let mut guard = shard.lock();
                if let Some(frame) = guard.frames.get(&key) {
                    count(|c| c.pool.hits += 1);
                    frame.referenced.store(true, Ordering::Relaxed);
                    return Ok(FrameRef::pin(frame));
                }
                match guard.inflight.get(&key) {
                    Some(marker) => marker.clone(),
                    None => {
                        // Claim the read and proceed to the miss path.
                        let marker = Arc::new(Inflight::new());
                        guard.inflight.insert(key, marker.clone());
                        drop(guard);
                        return self.read_and_install(shard, key, marker);
                    }
                }
            };
            // Someone else is reading (or writing back) this page: wait
            // without any latch, then retry from the top.
            #[cfg(test)]
            self.read_gate[0].fetch_add(1, Ordering::AcqRel);
            inflight.wait();
        }
    }

    /// Miss path: count and classify the miss, read outside the latch,
    /// then insert (evicting to capacity) and release waiters.
    fn read_and_install(
        &self,
        shard: &Mutex<Shard>,
        key: (FileId, u32),
        marker: Arc<Inflight>,
    ) -> Result<FrameRef> {
        // Release waiters no matter how this path exits; on error they
        // retry, find no frame and no marker, and issue their own read.
        let release = FinishOnDrop(marker);
        let unclaim = |e: DbError| {
            shard.lock().inflight.remove(&key);
            e
        };

        let cur = encode_loc(key.0, key.1);
        let prev = LAST_READ.with(|c| c.replace(cur));
        // Same page (head already there) or the next page (readahead
        // window) counts as sequential; anything else pays a seek.
        let sequential = prev != NO_LAST_READ && (cur == prev || cur == prev.wrapping_add(1));
        count(|c| {
            c.pool.misses += 1;
            c.pool.seq_misses += u64::from(sequential);
        });
        #[cfg(test)]
        while self.read_gate[0].load(Ordering::Acquire) < self.read_gate[1].load(Ordering::Acquire)
        {
            std::thread::yield_now();
        }

        let mut buf = [0u8; PAGE_SIZE];
        {
            let files = self.files.read();
            file_of(&files, key.0).map_err(unclaim)?.read_page(key.1, &mut buf).map_err(unclaim)?;
        }
        if !verify_checksum(&buf) {
            return Err(unclaim(DbError::Corrupt(format!(
                "page checksum mismatch: file {} page {} (torn write or media corruption)",
                key.0, key.1
            ))));
        }
        let frame = Arc::new(Frame {
            page: Mutex::new(Page::from_bytes(buf)),
            dirty: AtomicBool::new(false),
            unlogged: AtomicBool::new(false),
            tracker: self.unlogged.clone(),
            pins: AtomicU32::new(0),
            referenced: AtomicBool::new(false),
            file: key.0,
            pid: key.1,
        });

        let (handle, victims) = {
            let mut guard = shard.lock();
            let victims = self.evict_to_capacity(&mut guard);
            let handle = FrameRef::pin(&frame);
            guard.frames.insert(key, frame.clone());
            guard.clock.push_back(Arc::downgrade(&frame));
            guard.inflight.remove(&key);
            (handle, victims)
        };
        drop(release); // frame is visible; release waiters into the hit path

        self.write_back_victims(shard, victims)?;
        Ok(handle)
    }

    /// Evict unpinned frames until the shard is below capacity, using the
    /// second-chance clock. Victims are unmapped here (under the latch);
    /// dirty ones get an in-flight marker and are written back by the
    /// caller *after* the latch drops. Returns the dirty victims.
    ///
    /// A frame is only selected at zero pins, and once unmapped no new
    /// pin can be minted, so a victim is guaranteed unreferenced: nothing
    /// can re-dirty it between the dirty-flag read and the write-back.
    fn evict_to_capacity(&self, shard: &mut Shard) -> Vec<(Arc<Frame>, Arc<Inflight>)> {
        let mut dirty_victims = Vec::new();
        let mut passes = 0usize;
        while shard.frames.len() >= shard.capacity {
            let Some(weak) = shard.clock.pop_front() else { break };
            let Some(frame) = weak.upgrade() else { continue }; // tombstone
            let key = frame.location();
            // Stale entry (frame was dropped and the page re-fetched)?
            match shard.frames.get(&key) {
                Some(cur) if Arc::ptr_eq(cur, &frame) => {}
                _ => continue,
            }
            if frame.pins.load(Ordering::Acquire) > 0
                || frame.referenced.swap(false, Ordering::AcqRel)
            {
                shard.clock.push_back(weak);
                passes += 1;
                if passes > 2 * shard.clock.len() + 2 {
                    // Everything pinned; allow temporary over-subscription.
                    break;
                }
                continue;
            }
            shard.frames.remove(&key);
            count(|c| c.pool.evictions += 1);
            if frame.dirty.load(Ordering::Acquire) {
                let marker = Arc::new(Inflight::new());
                shard.inflight.insert(key, marker.clone());
                dirty_victims.push((frame, marker));
            }
        }
        dirty_victims
    }

    /// Write one frame's current image to its data file, honouring the
    /// durability protocol: log the image first if it is dirty-unlogged,
    /// force the WAL through the frame's LSN, and (always) stamp the
    /// trailer checksum. Caller holds the page lock (`page` is the
    /// guard's target) and has already claimed/cleared the dirty flag.
    fn prepare_and_write(&self, frame: &Frame, page: &mut Page) -> Result<()> {
        let (file, pid) = frame.location();
        if let Some(wal) = self.wal.read().clone() {
            if frame.unlogged.swap(false, Ordering::AcqRel) {
                wal.log_page(file, pid, page);
            }
            wal.ensure_durable(page.lsn())?;
        } else {
            page.stamp_checksum();
        }
        let files = self.files.read();
        file_of(&files, file)?.write_page(pid, page.bytes())?;
        Ok(())
    }

    /// Write dirty eviction victims back to disk (no shard latch held)
    /// and release any fetches waiting on their in-flight markers.
    fn write_back_victims(
        &self,
        shard: &Mutex<Shard>,
        victims: Vec<(Arc<Frame>, Arc<Inflight>)>,
    ) -> Result<()> {
        let mut first_err = None;
        for (frame, marker) in victims {
            let release = FinishOnDrop(marker);
            let key = frame.location();
            let res = (|| -> Result<()> {
                let mut page = frame.page.lock();
                self.prepare_and_write(&frame, &mut page)?;
                count(|c| c.pool.writebacks += 1);
                Ok(())
            })();
            shard.lock().inflight.remove(&key);
            drop(release);
            if let Err(e) = res {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Write back every dirty frame of file `id` (frames stay cached).
    pub fn flush_file(&self, id: FileId) -> Result<()> {
        let frames = self.collect_frames(|k| k.0 == id);
        self.flush_frames(&frames, true)?;
        let files = self.files.read();
        file_of(&files, id)?.sync()?;
        Ok(())
    }

    /// Write back every dirty frame of every file.
    pub fn flush_all(&self) -> Result<()> {
        let frames = self.collect_frames(|_| true);
        self.flush_frames(&frames, true)?;
        for f in self.files.read().values() {
            f.sync()?;
        }
        Ok(())
    }

    /// Snapshot matching frames from every shard (latches held only
    /// briefly, never across page locks or I/O).
    fn collect_frames(&self, keep: impl Fn(&(FileId, u32)) -> bool) -> Vec<Arc<Frame>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let guard = shard.lock();
            out.extend(guard.frames.iter().filter(|(k, _)| keep(k)).map(|(_, f)| f.clone()));
        }
        out
    }

    /// Write back each dirty frame in `frames`. The page lock is held
    /// across the dirty-flag clear and the write, so a concurrent
    /// mutation is either fully included in the write or re-dirties the
    /// frame for the next flush — never lost.
    fn flush_frames(&self, frames: &[Arc<Frame>], counted: bool) -> Result<()> {
        for frame in frames {
            let mut page = frame.page.lock();
            if frame.dirty.swap(false, Ordering::AcqRel) {
                if let Err(e) = self.prepare_and_write(frame, &mut page) {
                    // The update is still in memory; restore the flag so
                    // a later flush retries instead of losing it.
                    frame.dirty.store(true, Ordering::Release);
                    return Err(e);
                }
                if counted {
                    count(|c| c.pool.writebacks += 1);
                }
            }
        }
        Ok(())
    }

    /// Log the current image of every dirty-unlogged frame to the WAL
    /// without writing any data page. Returns the number of images
    /// logged. The caller makes them durable with [`Wal::sync`] — this
    /// is the cheap half of `commit` (one batched fsync, zero data-page
    /// I/O).
    pub fn log_dirty_frames(&self) -> Result<u64> {
        let Some(wal) = self.wal.read().clone() else { return Ok(0) };
        let _pass = self.log_pass.lock();
        let mut logged = 0u64;
        for frame in self.unlogged.take().iter().filter_map(Weak::upgrade) {
            let mut page = frame.page.lock();
            if frame.dirty.load(Ordering::Acquire) && frame.unlogged.swap(false, Ordering::AcqRel) {
                let (file, pid) = frame.location();
                wal.log_page(file, pid, &mut page);
                logged += 1;
            }
        }
        Ok(logged)
    }

    /// Log `frame`'s current image now if it has not been logged since
    /// its last mutation (no-op without a WAL). WAL records replay in
    /// append order and a torn tail cuts them at any point, so a
    /// structure whose pages must not reach the log in the wrong order
    /// (a B+Tree leaf turning into a free page before its parent has let
    /// go of it) pins the order by logging the earlier image here.
    pub fn log_frame(&self, frame: &FrameRef) {
        let Some(wal) = self.wal.read().clone() else { return };
        let mut page = frame.page.lock();
        if frame.unlogged.swap(false, Ordering::AcqRel) {
            let (file, pid) = frame.location();
            wal.log_page(file, pid, &mut page);
        }
    }

    /// Flush and drop every cached frame — the harness's "cold run" switch
    /// (the paper reports cold numbers, §4.2).
    ///
    /// The flush's writebacks are **not** counted in the I/O stats: they
    /// belong to whatever workload dirtied the pages, not to the cold
    /// query measured next. The calling thread's sequential-read detector
    /// is also reset so its first post-drop read counts as random.
    pub fn drop_cache(&self) -> Result<()> {
        let frames = self.collect_frames(|_| true);
        self.flush_frames(&frames, false)?;
        for f in self.files.read().values() {
            f.sync()?;
        }
        for shard in &self.shards {
            let mut guard = shard.lock();
            guard.frames.clear();
            guard.clock.clear();
        }
        LAST_READ.with(|c| c.set(NO_LAST_READ));
        Ok(())
    }

    /// Currently cached frame count.
    pub fn cached_frames(&self) -> usize {
        self.shards.iter().map(|s| s.lock().frames.len()).sum()
    }
}

fn file_of(files: &HashMap<FileId, PageFile>, id: FileId) -> Result<&PageFile> {
    files.get(&id).ok_or_else(|| DbError::Catalog(format!("file id {id} not registered")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::thread_counters;

    /// The calling thread's pool counters.
    fn stats() -> PoolStats {
        thread_counters().pool
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("ordb-buf-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fetch_reads_what_was_written() {
        let dir = temp_dir("rw");
        let pool = BufferPool::new(16);
        pool.register_file(1, dir.join("a.db")).unwrap();
        let (pid, frame) = pool.allocate(1).unwrap();
        frame.page.lock().insert(b"data").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.flush_all().unwrap();
        pool.drop_cache().unwrap();
        let before = stats();
        let frame = pool.fetch(1, pid).unwrap();
        assert_eq!(frame.page.lock().get(0), Some(b"data" as &[u8]));
        let stats = stats().since(&before);
        assert_eq!((stats.misses, stats.hits), (1, 0));
    }

    #[test]
    fn a_miss_is_sequential_when_it_continues_the_threads_last_read() {
        let dir = temp_dir("seqrand");
        let pool = BufferPool::new(64);
        pool.register_file(1, dir.join("s.db")).unwrap();
        for _ in 0..12 {
            pool.allocate(1).unwrap();
        }
        pool.drop_cache().unwrap();
        let before = stats();
        for pid in [0, 1, 2, 9, 10, 4] {
            pool.fetch(1, pid).unwrap();
        }
        let io = stats().since(&before);
        assert_eq!((io.misses, io.seq_misses, io.rand_misses()), (6, 3, 3), "{io:?}");
    }

    #[test]
    fn lru_evicts_and_preserves_data() {
        let dir = temp_dir("lru");
        let pool = BufferPool::new(8);
        pool.register_file(1, dir.join("b.db")).unwrap();
        let mut pids = Vec::new();
        for i in 0..32u32 {
            let (pid, frame) = pool.allocate(1).unwrap();
            frame.page.lock().insert(&i.to_le_bytes()).unwrap();
            frame.mark_dirty();
            pids.push(pid);
        }
        assert!(pool.cached_frames() <= 16, "capacity ~8 split across shards");
        // Everything still readable despite evictions.
        for (i, pid) in pids.iter().enumerate() {
            let frame = pool.fetch(1, *pid).unwrap();
            let page = frame.page.lock();
            assert_eq!(page.get(0), Some(&(i as u32).to_le_bytes()[..]));
        }
    }

    #[test]
    fn pinned_frames_survive_eviction_pressure() {
        let dir = temp_dir("pin");
        let pool = BufferPool::new(8);
        pool.register_file(1, dir.join("c.db")).unwrap();
        let (pid0, pinned) = pool.allocate(1).unwrap();
        pinned.page.lock().insert(b"pinned").unwrap();
        pinned.mark_dirty();
        for _ in 0..32 {
            let (_, f) = pool.allocate(1).unwrap();
            f.page.lock().insert(b"x").unwrap();
            f.mark_dirty();
        }
        // The pinned frame must still be the same object.
        let again = pool.fetch(1, pid0).unwrap();
        assert!(FrameRef::same_frame(&pinned, &again));
        assert_eq!(again.page.lock().get(0), Some(b"pinned" as &[u8]));
    }

    #[test]
    fn duplicate_registration_fails() {
        let dir = temp_dir("dup");
        let pool = BufferPool::new(8);
        pool.register_file(7, dir.join("d.db")).unwrap();
        assert!(pool.register_file(7, dir.join("d2.db")).is_err());
    }

    #[test]
    fn file_size_tracks_allocation() {
        let dir = temp_dir("size");
        let pool = BufferPool::new(8);
        pool.register_file(1, dir.join("e.db")).unwrap();
        assert_eq!(pool.file_size(1).unwrap(), 0);
        pool.allocate(1).unwrap();
        pool.allocate(1).unwrap();
        assert_eq!(pool.file_size(1).unwrap(), 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn concurrent_fetches_of_one_cold_page_read_disk_once() {
        let dir = temp_dir("inflight");
        let pool = Arc::new(BufferPool::new(64));
        pool.register_file(1, dir.join("f.db")).unwrap();
        let (pid, frame) = pool.allocate(1).unwrap();
        frame.page.lock().insert(b"shared").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.drop_cache().unwrap();
        // The one read is held until the other seven fetches wait on it.
        pool.read_gate[1].store(7, Ordering::Release);
        let stats = std::thread::scope(|s| {
            let fetchers: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let before = stats();
                        let f = pool.fetch(1, pid).unwrap();
                        assert_eq!(f.page.lock().get(0), Some(b"shared" as &[u8]));
                        stats().since(&before)
                    })
                })
                .collect();
            fetchers.into_iter().fold(PoolStats::default(), |sum, f| {
                sum.zip(&f.join().unwrap(), u64::saturating_add)
            })
        });
        assert_eq!(stats.misses, 1, "in-flight table must dedupe the read: {stats:?}");
        assert_eq!(stats.hits, 7, "waiters retry into the hit path: {stats:?}");
    }

    #[test]
    fn concurrent_writers_lose_no_updates_under_eviction() {
        // Tiny pool + many writer threads: evictions and write-backs run
        // constantly while records are still being inserted. Every record
        // must survive with its exact contents (the old pool could drop a
        // frame between its dirty-flag snapshot and the write-back).
        let dir = temp_dir("stress");
        let pool = Arc::new(BufferPool::new(8));
        pool.register_file(1, dir.join("g.db")).unwrap();
        const THREADS: u32 = 4;
        const PAGES_PER_THREAD: u32 = 24;
        let mut all: Vec<(u32, Vec<u8>)> = Vec::new();
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..THREADS {
                let pool = pool.clone();
                handles.push(s.spawn(move || {
                    let mut written = Vec::new();
                    for i in 0..PAGES_PER_THREAD {
                        let payload = format!("thread{t}-rec{i}").into_bytes();
                        let (pid, frame) = pool.allocate(1).unwrap();
                        frame.page.lock().insert(&payload).unwrap();
                        frame.mark_dirty();
                        written.push((pid, payload));
                        // Re-read an earlier page to mix reads into the
                        // eviction pressure.
                        if let Some((old_pid, old_payload)) = written.first() {
                            let f = pool.fetch(1, *old_pid).unwrap();
                            assert_eq!(f.page.lock().get(0), Some(&old_payload[..]));
                        }
                    }
                    written
                }));
            }
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        pool.flush_all().unwrap();
        pool.drop_cache().unwrap();
        for (pid, payload) in &all {
            let f = pool.fetch(1, *pid).unwrap();
            assert_eq!(f.page.lock().get(0), Some(&payload[..]), "page {pid} lost its update");
        }
    }

    #[test]
    fn checksum_mismatch_surfaces_as_corrupt() {
        let dir = temp_dir("crc");
        let path = dir.join("crc.db");
        let _ = std::fs::remove_file(&path);
        let pool = BufferPool::new(16);
        pool.register_file(1, path.clone()).unwrap();
        let (pid, frame) = pool.allocate(1).unwrap();
        frame.page.lock().insert(b"soon garbage").unwrap();
        frame.mark_dirty();
        drop(frame);
        pool.drop_cache().unwrap();
        // Flip a bit in the on-disk image behind the pool's back.
        let mut raw = std::fs::read(&path).unwrap();
        raw[pid as usize * PAGE_SIZE + 40] ^= 0x01;
        std::fs::write(&path, &raw).unwrap();
        match pool.fetch(1, pid) {
            Err(DbError::Corrupt(_)) => {}
            Err(other) => panic!("expected Corrupt, got {other:?}"),
            Ok(_) => panic!("corrupt page served as a valid frame"),
        }
    }

    #[test]
    fn wal_before_data_under_concurrent_eviction() {
        // Tiny pool + attached WAL + concurrent writers: evictions force
        // write-backs mid-workload, each of which must log its image and
        // make the log durable first. Afterwards every on-disk page
        // carries a valid checksum and an LSN the log actually contains.
        let dir = temp_dir("walconc");
        let pool = Arc::new(BufferPool::new(8));
        pool.register_file(1, dir.join("w.db")).unwrap();
        let wal = Arc::new(crate::storage::wal::Wal::open(&dir, None, None).unwrap());
        pool.set_wal(Some(wal.clone()));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let pool = pool.clone();
                s.spawn(move || {
                    for i in 0..24u32 {
                        let (pid, frame) = pool.allocate(1).unwrap();
                        frame.page.lock().insert(format!("t{t}p{i}").as_bytes()).unwrap();
                        frame.mark_dirty();
                        let _ = pid;
                    }
                });
            }
        });
        pool.flush_all().unwrap();
        wal.sync().unwrap();
        let appends = wal.stats().appends;
        assert!(appends >= 96, "every dirty page logged once: {appends}");
        // All on-disk images verify.
        pool.drop_cache().unwrap();
        let n = pool.page_count(1).unwrap();
        for pid in 0..n {
            let f = pool.fetch(1, pid).unwrap();
            assert!(f.page.lock().checksum_ok() || f.page.lock().lsn() == 0);
        }
        pool.set_wal(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_logging_visits_only_frames_dirtied_since_the_last_pass() {
        let dir = temp_dir("unlogged");
        let _ = std::fs::remove_file(dir.join(crate::storage::wal::WAL_FILE));
        let pool = BufferPool::new(256);
        pool.register_file(1, dir.join("u.db")).unwrap();
        let wal = Arc::new(crate::storage::wal::Wal::open(&dir, None, None).unwrap());
        pool.set_wal(Some(wal.clone()));
        let frames: Vec<FrameRef> = (0..100)
            .map(|i: u32| {
                let (_, frame) = pool.allocate(1).unwrap();
                frame.page.lock().insert(&i.to_le_bytes()).unwrap();
                frame.mark_dirty();
                frame
            })
            .collect();
        assert_eq!(pool.log_dirty_frames().unwrap(), 100);
        assert_eq!(pool.log_dirty_frames().unwrap(), 0, "nothing dirtied since");

        // Dirty three frames (one of them twice) and hold the page lock of
        // every other frame: a pass that so much as looked at a clean
        // page would block here forever.
        for &i in &[7usize, 42, 42, 99] {
            frames[i].page.lock().insert(b"again").unwrap();
            frames[i].mark_dirty();
        }
        let held: Vec<_> = frames
            .iter()
            .enumerate()
            .filter(|(i, _)| ![7, 42, 99].contains(i))
            .map(|(_, f)| f.page.lock())
            .collect();
        let before = wal.stats();
        assert_eq!(pool.log_dirty_frames().unwrap(), 3);
        drop(held);
        assert_eq!(wal.stats().since(&before).appends, 3);

        // A frame logged on its own is not logged again by the pass, and
        // a write-back clears it the same way.
        frames[5].page.lock().insert(b"early").unwrap();
        frames[5].mark_dirty();
        pool.log_frame(&frames[5]);
        frames[6].page.lock().insert(b"flushed").unwrap();
        frames[6].mark_dirty();
        pool.flush_all().unwrap();
        assert_eq!(pool.log_dirty_frames().unwrap(), 0);
        pool.set_wal(None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unlogged_list_stays_bounded_when_nothing_drains_it() {
        // No WAL: nothing ever calls `log_dirty_frames`. Streaming far
        // more pages than the pool holds must not grow the list with it.
        let dir = temp_dir("unlogged-bound");
        let pool = BufferPool::new(16);
        pool.register_file(1, dir.join("b.db")).unwrap();
        for i in 0..4000u32 {
            let (_, frame) = pool.allocate(1).unwrap();
            frame.page.lock().insert(&i.to_le_bytes()).unwrap();
            frame.mark_dirty();
        }
        let listed = pool.unlogged.0.lock().len();
        assert!(listed <= 256, "list holds {listed} entries for a 16-frame pool");
    }

    #[test]
    fn clock_prefers_unreferenced_frames() {
        let dir = temp_dir("clock");
        // Capacity 64 over 8 shards = 8 frames per shard; the working set
        // below exceeds that, so every shard sees steady eviction.
        let pool = BufferPool::new(64);
        pool.register_file(1, dir.join("h.db")).unwrap();
        let mut pids = Vec::new();
        for i in 0..88u32 {
            let (pid, frame) = pool.allocate(1).unwrap();
            frame.page.lock().insert(&i.to_le_bytes()).unwrap();
            frame.mark_dirty();
            pids.push(pid);
        }
        let hot = &pids[..8];
        for pid in hot {
            pool.fetch(1, *pid).unwrap();
        }
        // Stream the cold pages through while re-touching the hot set
        // after every cold fetch: hot reference bits stay set, cold
        // frames (untouched since insertion) are the eviction victims.
        for pass in 0..2 {
            let _ = pass;
            for pid in &pids[8..] {
                pool.fetch(1, *pid).unwrap();
                for h in hot {
                    pool.fetch(1, *h).unwrap();
                }
            }
        }
        let before = stats();
        for (i, pid) in hot.iter().enumerate() {
            let f = pool.fetch(1, *pid).unwrap();
            assert_eq!(f.page.lock().get(0), Some(&(i as u32).to_le_bytes()[..]));
        }
        assert_eq!(stats().since(&before).misses, 0, "hot pages must all still be cached");
    }
}
