//! Transaction manager: MVCC snapshot isolation.
//!
//! Every tuple in a heap file carries a 16-byte version header
//! (`xmin`/`xmax`, see [`crate::storage::heap`]). This module owns the
//! transaction-id space and hands out [`Snapshot`]s that decide which
//! versions a statement can see:
//!
//! - a version is **visible** to a snapshot iff its `xmin` is the
//!   snapshot's own transaction or a transaction that committed before
//!   the snapshot was taken, *and* its `xmax` is unset or set by a
//!   transaction the snapshot does not see as committed;
//! - no version is created with `xmin == 0` ([`TXID_INVALID`]): no
//!   snapshot sees that id, and the open-time undo removes any version
//!   found carrying it.
//!
//! "Committed before" is decided without a commit log: transaction ids
//! are handed out under the same lock that maintains the active set, so
//! any id below the snapshot's `horizon` that was not active when the
//! snapshot was taken must have finished — and aborted transactions
//! physically undo their effects *before* leaving the active set (a
//! transaction the process died in is undone by the next open before
//! anything reads), so "finished" implies "committed" for every version
//! still reachable.
//!
//! Write-write conflicts are first-updater-wins: deleting a row claims
//! its `xmax` under the page latch; a second claimant gets
//! [`crate::DbError::TxnConflict`] immediately (no lock waiting, hence
//! no deadlocks).
//!
//! Durability bookkeeping lives here too: the manager tracks a
//! *watermark* (oldest transaction id that could still be undecided on
//! disk) and the set of recently committed ids at or above it. A
//! checkpoint writes the watermark and the id cursor into the new log's
//! checkpoint record and re-logs the committed ids after it, so crash
//! recovery can always classify every version it finds.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Mutex;

use crate::error::{DbError, Result};
use crate::metrics::count;
use crate::storage::buffer::FileId;
use crate::storage::heap::Rid;

/// The reserved "no transaction" id: an `xmax` of zero means "not
/// deleted". No version is created with it as its `xmin`; no snapshot
/// sees it, and the open-time undo removes a version that carries it.
pub const TXID_INVALID: u64 = 0;

/// The first transaction id ever handed out (0 is invalid, 1 is
/// reserved as the pre-MVCC bootstrap id).
pub const TXID_FIRST: u64 = 2;

/// Opaque handle for an open transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxnId(pub u64);

impl std::fmt::Display for TxnId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "txn {}", self.0)
    }
}

/// Registered read-snapshot visibility boundaries, keyed by a
/// registration id. Shared between the manager and the RAII pins held
/// by live snapshots.
type Readers = Arc<Mutex<HashMap<u64, u64>>>;

/// RAII registration of a read snapshot. While any clone of the owning
/// [`Snapshot`] is alive, [`TxnManager::vacuum_watermark`] stays at or
/// below the snapshot's visibility boundary, so vacuum cannot reclaim a
/// version the snapshot can still see. Dropping the last clone
/// deregisters.
#[derive(Debug)]
struct ReaderPin {
    readers: Readers,
    id: u64,
}

impl Drop for ReaderPin {
    fn drop(&mut self) {
        self.readers.lock().expect("reader registry poisoned").remove(&self.id);
    }
}

/// An immutable view of the transaction state at one instant, used to
/// filter tuple versions during scans.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The observing transaction's own id (its writes are visible to
    /// itself).
    pub txid: u64,
    /// One past the newest transaction id that existed when the
    /// snapshot was taken; ids at or above it are invisible.
    pub horizon: u64,
    /// Transactions that were in flight when the snapshot was taken
    /// (excluding `txid` itself); their writes are invisible.
    pub active: Arc<HashSet<u64>>,
    /// Watermark registration shared by all clones; `None` for snapshots
    /// whose lifetime is covered some other way (active transactions pin
    /// the watermark through the active set; maintenance snapshots run
    /// under locks that exclude vacuum).
    pin: Option<Arc<ReaderPin>>,
}

/// The oldest transaction id whose effects `s` might *not* see as
/// decided: anything below it is visible-if-committed to `s`, so a
/// version whose committed `xmax` is below every live boundary is
/// invisible to every current and future snapshot.
fn snapshot_boundary(s: &Snapshot) -> u64 {
    let mut b = s.horizon;
    if s.txid != TXID_INVALID {
        b = b.min(s.txid);
    }
    for &a in s.active.iter() {
        b = b.min(a);
    }
    b
}

impl Snapshot {
    /// Does this snapshot consider transaction `t` committed-or-self?
    fn sees(&self, t: u64) -> bool {
        t != TXID_INVALID && (t == self.txid || (t < self.horizon && !self.active.contains(&t)))
    }

    /// Is a version with this `xmin`/`xmax` pair visible?
    pub fn visible(&self, xmin: u64, xmax: u64) -> bool {
        if !self.sees(xmin) {
            return false;
        }
        xmax == TXID_INVALID || !self.sees(xmax)
    }
}

/// What undoing writes takes, as `(heap file, rid)` pairs: `xmax` claims
/// to clear and versions to remove. A transaction builds one as it
/// writes; open's recovery builds one for every transaction the log does
/// not show committed. Rollback and open apply it the same way.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Undo {
    /// Versions whose `xmax` claim goes.
    pub clear: Vec<(FileId, Rid)>,
    /// Versions that go.
    pub remove: Vec<(FileId, Rid)>,
}

struct TxnState {
    snapshot: Snapshot,
    undo: Undo,
}

struct Tables {
    active: HashMap<u64, TxnState>,
    /// Committed ids >= `watermark` (everything below it is decided).
    committed_recent: BTreeSet<u64>,
    watermark: u64,
}

/// Transaction counts, one part of a [`crate::metrics::Counters`] set:
/// added by the thread that begins, commits, aborts or conflicts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnStats {
    /// Transactions begun (including per-statement autocommit ones).
    pub begun: u64,
    /// Transactions committed.
    pub committed: u64,
    /// Transactions rolled back (explicitly or by auto-abort).
    pub aborted: u64,
    /// Write-write conflicts raised (first-updater-wins losers).
    pub conflicts: u64,
}

impl TxnStats {
    /// Delta between two snapshots of the counters.
    pub fn since(&self, base: &TxnStats) -> TxnStats {
        self.zip(base, u64::saturating_sub)
    }

    pub(crate) fn zip(&self, o: &TxnStats, f: fn(u64, u64) -> u64) -> TxnStats {
        TxnStats {
            begun: f(self.begun, o.begun),
            committed: f(self.committed, o.committed),
            aborted: f(self.aborted, o.aborted),
            conflicts: f(self.conflicts, o.conflicts),
        }
    }
}

/// Hands out transaction ids and snapshots; tracks active transactions,
/// their undo lists, and the recently-committed set the checkpoint
/// needs.
pub struct TxnManager {
    next: AtomicU64,
    tables: Mutex<Tables>,
    /// Live read-snapshot boundaries (see [`ReaderPin`]). Lock order:
    /// `tables` before `readers`.
    readers: Readers,
    next_reader: AtomicU64,
}

impl TxnManager {
    /// Create a manager whose next transaction id is `next` (at least
    /// [`TXID_FIRST`]). Everything below `next` is treated as decided.
    pub fn new(next: u64) -> TxnManager {
        let next = next.max(TXID_FIRST);
        TxnManager {
            next: AtomicU64::new(next),
            tables: Mutex::new(Tables {
                active: HashMap::new(),
                committed_recent: BTreeSet::new(),
                watermark: next,
            }),
            readers: Arc::new(Mutex::new(HashMap::new())),
            next_reader: AtomicU64::new(0),
        }
    }

    /// Start a transaction: allocate an id and capture its snapshot.
    /// Allocation and registration happen under one lock so a snapshot's
    /// `horizon`/`active` pair is always consistent.
    pub fn begin(&self) -> TxnId {
        let mut t = self.tables.lock().expect("txn tables poisoned");
        let txid = self.next.fetch_add(1, Ordering::SeqCst);
        let active: HashSet<u64> = t.active.keys().copied().collect();
        let snapshot = Snapshot { txid, horizon: txid + 1, active: Arc::new(active), pin: None };
        t.active.insert(txid, TxnState { snapshot: snapshot.clone(), undo: Undo::default() });
        count(|c| c.txn.begun += 1);
        TxnId(txid)
    }

    /// A fresh read-only snapshot for an autocommit statement: sees
    /// everything committed so far, nothing in flight, and is not
    /// itself registered as a transaction. It *is* registered as a
    /// reader (via an RAII pin shared by all clones) so
    /// [`TxnManager::vacuum_watermark`] cannot pass it while it lives;
    /// registration happens under the tables lock, before any vacuum
    /// pass can observe a watermark above this snapshot's boundary.
    pub fn read_snapshot(&self) -> Snapshot {
        let t = self.tables.lock().expect("txn tables poisoned");
        let horizon = self.next.load(Ordering::SeqCst);
        let active: HashSet<u64> = t.active.keys().copied().collect();
        let mut snap =
            Snapshot { txid: TXID_INVALID, horizon, active: Arc::new(active), pin: None };
        let boundary = snapshot_boundary(&snap);
        let id = self.next_reader.fetch_add(1, Ordering::Relaxed);
        self.readers.lock().expect("reader registry poisoned").insert(id, boundary);
        snap.pin = Some(Arc::new(ReaderPin { readers: Arc::clone(&self.readers), id }));
        snap
    }

    /// The oldest visibility boundary any live snapshot could use: the
    /// minimum over active transactions' snapshots and registered
    /// readers, or `next` when fully idle. A version whose committed
    /// `xmax` lies below this value is invisible to every current and
    /// future snapshot and safe for vacuum to reclaim physically.
    pub fn vacuum_watermark(&self) -> u64 {
        let t = self.tables.lock().expect("txn tables poisoned");
        let mut wm = self.next.load(Ordering::SeqCst);
        for st in t.active.values() {
            wm = wm.min(snapshot_boundary(&st.snapshot));
        }
        for &b in self.readers.lock().expect("reader registry poisoned").values() {
            wm = wm.min(b);
        }
        wm
    }

    /// Run `f` on `txn`'s state under the tables lock.
    fn with_active<R>(&self, txn: TxnId, f: impl FnOnce(&mut TxnState) -> R) -> Result<R> {
        let mut t = self.tables.lock().expect("txn tables poisoned");
        let st = t
            .active
            .get_mut(&txn.0)
            .ok_or_else(|| DbError::Exec(format!("no active transaction {}", txn.0)))?;
        Ok(f(st))
    }

    /// The snapshot captured when `txn` began.
    pub fn snapshot_of(&self, txn: TxnId) -> Result<Snapshot> {
        self.with_active(txn, |st| st.snapshot.clone())
    }

    /// Add to `txn`'s undo list.
    pub fn record_undo(&self, txn: TxnId, add: impl FnOnce(&mut Undo)) -> Result<()> {
        self.with_active(txn, |st| add(&mut st.undo))
    }

    /// Take `txn`'s undo list, to commit or roll back. The transaction
    /// stays in the active set until [`TxnManager::finish_commit`] or
    /// [`TxnManager::finish_abort`], so no concurrent snapshot mistakes
    /// it for committed mid-undo.
    pub fn take_undo(&self, txn: TxnId) -> Result<Undo> {
        self.with_active(txn, |st| std::mem::take(&mut st.undo))
    }

    /// Mark `txn` committed: remove it from the active set and remember
    /// its id for the next checkpoint's re-log.
    pub fn finish_commit(&self, txn: TxnId) -> Result<()> {
        let mut t = self.tables.lock().expect("txn tables poisoned");
        if t.active.remove(&txn.0).is_none() {
            return Err(DbError::Exec(format!("no active transaction {}", txn.0)));
        }
        t.committed_recent.insert(txn.0);
        count(|c| c.txn.committed += 1);
        Ok(())
    }

    /// Remove an aborted `txn` from the active set (after its undo list
    /// has been applied).
    pub fn finish_abort(&self, txn: TxnId) {
        let mut t = self.tables.lock().expect("txn tables poisoned");
        if t.active.remove(&txn.0).is_some() {
            count(|c| c.txn.aborted += 1);
        }
    }

    /// Checkpoint bookkeeping: advance the watermark to the oldest
    /// still-active id (or `next` if idle), prune the committed set
    /// below it, and return `(watermark, next, committed ids to re-log
    /// into the fresh WAL)`. With no transactions in flight the re-log
    /// list is empty and the WAL stays minimal.
    pub fn checkpoint_info(&self) -> (u64, u64, Vec<u64>) {
        let mut t = self.tables.lock().expect("txn tables poisoned");
        let next = self.next.load(Ordering::SeqCst);
        let watermark = t.active.keys().copied().min().unwrap_or(next);
        t.watermark = watermark;
        t.committed_recent = t.committed_recent.split_off(&watermark);
        let relog: Vec<u64> = t.committed_recent.iter().copied().collect();
        (watermark, next, relog)
    }

    /// Ids of all currently active transactions (used by close to
    /// auto-abort stragglers).
    pub fn active_ids(&self) -> Vec<u64> {
        let t = self.tables.lock().expect("txn tables poisoned");
        t.active.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_writes_visible_concurrent_invisible() {
        let m = TxnManager::new(TXID_FIRST);
        let a = m.begin();
        let b = m.begin();
        let sa = m.snapshot_of(a).unwrap();
        let sb = m.snapshot_of(b).unwrap();
        // Each sees its own insert, not the other's.
        assert!(sa.visible(a.0, 0));
        assert!(!sa.visible(b.0, 0));
        assert!(sb.visible(b.0, 0));
        assert!(!sb.visible(a.0, 0));
        // A row deleted by self is invisible to self.
        assert!(!sa.visible(a.0, a.0));
        // Dead versions are invisible to everyone.
        assert!(!sa.visible(TXID_INVALID, 0));
    }

    #[test]
    fn committed_before_snapshot_is_visible() {
        let m = TxnManager::new(TXID_FIRST);
        let a = m.begin();
        m.finish_commit(a).unwrap();
        let b = m.begin();
        let sb = m.snapshot_of(b).unwrap();
        assert!(sb.visible(a.0, 0));
        // A delete committed by `a` hides the row from `b`.
        assert!(!sb.visible(a.0, a.0.max(TXID_FIRST)));
    }

    #[test]
    fn commit_after_snapshot_stays_invisible() {
        let m = TxnManager::new(TXID_FIRST);
        let a = m.begin();
        let b = m.begin();
        let sb = m.snapshot_of(b).unwrap();
        m.finish_commit(a).unwrap();
        // `b`'s snapshot predates `a`'s commit.
        assert!(!sb.visible(a.0, 0));
        // A later transaction sees it.
        let c = m.begin();
        assert!(m.snapshot_of(c).unwrap().visible(a.0, 0));
    }

    #[test]
    fn checkpoint_watermark_advances_when_idle() {
        let m = TxnManager::new(10);
        // An older active txn pins the watermark, so a younger commit
        // stays above it and must be kept in the re-log set.
        let b = m.begin();
        let a = m.begin();
        m.finish_commit(a).unwrap();
        let (wm, _, relog) = m.checkpoint_info();
        assert_eq!(wm, b.0);
        assert!(relog.contains(&a.0));
        m.finish_abort(b);
        // Idle: watermark catches up and the re-log set drains.
        let (wm, next, relog) = m.checkpoint_info();
        assert_eq!(wm, next);
        assert!(relog.is_empty());
    }

    #[test]
    fn vacuum_watermark_tracks_readers_and_txns() {
        let m = TxnManager::new(10);
        assert_eq!(m.vacuum_watermark(), 10, "idle manager reports next");
        let snap = m.read_snapshot();
        assert_eq!(m.vacuum_watermark(), 10);
        let a = m.begin(); // id 10, next now 11
        assert_eq!(m.vacuum_watermark(), 10, "active txn pins its own id");
        m.finish_commit(a).unwrap();
        // The reader's snapshot predates nothing here, but its boundary
        // (10) still holds the watermark down until it drops.
        assert_eq!(m.vacuum_watermark(), 10);
        drop(snap);
        assert_eq!(m.vacuum_watermark(), 11);
    }

    #[test]
    fn snapshot_clone_shares_reader_pin() {
        let m = TxnManager::new(5);
        let s1 = m.read_snapshot(); // boundary 5
        let a = m.begin(); // id 5, next 6
        m.finish_commit(a).unwrap();
        let s2 = s1.clone();
        drop(s1);
        assert_eq!(m.vacuum_watermark(), 5, "surviving clone keeps the pin");
        drop(s2);
        assert_eq!(m.vacuum_watermark(), 6, "last clone releases the pin");
    }

    #[test]
    fn older_snapshot_of_active_txn_pins_watermark() {
        let m = TxnManager::new(TXID_FIRST);
        let a = m.begin(); // 2
        let b = m.begin(); // 3, snapshot active = {2}
        m.finish_commit(a).unwrap();
        // b's snapshot predates a's commit: versions deleted by a are
        // still visible to b and must not be reclaimed.
        assert_eq!(m.vacuum_watermark(), a.0);
        m.finish_abort(b);
        assert_eq!(m.vacuum_watermark(), 4);
    }
}
