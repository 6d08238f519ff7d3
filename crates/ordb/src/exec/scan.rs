//! Table access: sequential scans and index scans.
//!
//! Both operators filter tuple versions through an MVCC
//! [`Snapshot`]: versions invisible to the reading transaction are
//! skipped, and index entries pointing at missing slots (left dangling
//! by a rolled-back insert) are skipped rather than treated as
//! corruption. Both decode only the columns the planner lists
//! ([`decode_cols`]): a row is as wide as what the statement reads of the
//! table, not as wide as the table.
//!
//! A sequential scan reads through the heap's one iteration loop,
//! [`PageScan`]: one pool fetch and one latch per page, visibility and
//! decode straight from the page bytes.
//!
//! Either scan can append the version's [`Rid`] to each row as a trailing
//! integer column ([`SeqScan::with_rid`], [`IndexScan::with_rid`]): DML
//! draws its victims from the same scans `SELECT` reads through, and
//! needs to know where each one lives.

use std::sync::Arc;

use crate::error::Result;
use crate::exec::Operator;
use crate::index::btree::BTree;
use crate::storage::heap::{HeapFile, PageScan, Rid};
use crate::tuple::decode_cols;
use crate::txn::Snapshot;
use crate::types::{Row, Value};

/// Decode the listed columns of a visible version, appending its rid when
/// the scan carries it.
fn emit(body: &[u8], cols: &[usize], rid: Option<Rid>) -> Result<Row> {
    let mut row = decode_cols(body, cols.iter().copied())?;
    if let Some(rid) = rid {
        row.push(Value::Int(rid.to_u64() as i64));
    }
    Ok(row)
}

/// The rid a `with_rid` scan appended to `row`.
pub fn trailing_rid(row: &Row) -> Option<Rid> {
    row.last().and_then(Value::as_int).map(|v| Rid::from_u64(v as u64))
}

/// Full-file scan of a heap in physical order.
pub struct SeqScan {
    pages: PageScan,
    /// Ordinals of the stored columns to decode, ascending.
    cols: Vec<usize>,
    snapshot: Snapshot,
    with_rid: bool,
    /// Rows of the page last visited; `buf[next..]` are still to emit.
    buf: Vec<Row>,
    next: usize,
}

impl SeqScan {
    /// Scan `heap`, decoding the columns at `cols` (ascending ordinals)
    /// of the rows visible to `snapshot`. No I/O before the first
    /// `next()`.
    pub fn new(heap: Arc<HeapFile>, cols: Vec<usize>, snapshot: Snapshot) -> SeqScan {
        SeqScan {
            pages: PageScan::new(heap),
            cols,
            snapshot,
            with_rid: false,
            buf: Vec::new(),
            next: 0,
        }
    }

    /// Append each row's rid as a trailing column (see [`trailing_rid`]).
    pub fn with_rid(mut self) -> SeqScan {
        self.with_rid = true;
        self
    }
}

impl Operator for SeqScan {
    fn next(&mut self) -> Result<Option<Row>> {
        while self.next == self.buf.len() {
            self.buf.clear();
            self.next = 0;
            let SeqScan { pages, cols, snapshot, with_rid, buf, .. } = self;
            let more = pages.next_page(
                |xmin, xmax| snapshot.visible(xmin, xmax),
                |rid, _, _, body| {
                    buf.push(emit(body, cols, with_rid.then_some(rid))?);
                    Ok(())
                },
            )?;
            if !more {
                return Ok(None);
            }
        }
        self.next += 1;
        Ok(Some(std::mem::take(&mut self.buf[self.next - 1])))
    }

    fn name(&self) -> &'static str {
        "SeqScan"
    }
}

/// Index scan: probe a B+Tree for a key range, then fetch matching heap
/// rows. The probe runs on the first `next()` call (so `EXPLAIN` does no
/// I/O); the RID list is then materialized (the paper's workloads probe
/// with selective predicates, so RID lists are short relative to the
/// table).
pub struct IndexScan {
    heap: Arc<HeapFile>,
    /// Ordinals of the stored columns to decode, ascending.
    cols: Vec<usize>,
    snapshot: Snapshot,
    /// Deferred probe; taken and resolved on first `next()`.
    probe: Option<IndexProbe>,
    rids: std::vec::IntoIter<Rid>,
    with_rid: bool,
}

/// A deferred B+Tree probe.
struct IndexProbe {
    index: Arc<BTree>,
    kind: ProbeKind,
}

enum ProbeKind {
    Prefix(Vec<u8>),
    Range { lo: Option<Vec<u8>>, hi: Option<Vec<u8>>, hi_inclusive: bool },
}

impl IndexScan {
    /// Scan `index` for logical keys starting with `prefix`, decoding the
    /// columns at `cols` of the rows found.
    pub fn prefix(
        heap: Arc<HeapFile>,
        index: Arc<BTree>,
        prefix: &[u8],
        cols: Vec<usize>,
        snapshot: Snapshot,
    ) -> IndexScan {
        let kind = ProbeKind::Prefix(prefix.to_vec());
        IndexScan::new(heap, IndexProbe { index, kind }, cols, snapshot)
    }

    fn new(
        heap: Arc<HeapFile>,
        probe: IndexProbe,
        cols: Vec<usize>,
        snapshot: Snapshot,
    ) -> IndexScan {
        let rids = Vec::new().into_iter();
        IndexScan { heap, cols, snapshot, probe: Some(probe), rids, with_rid: false }
    }

    /// Append each row's rid as a trailing column (see [`trailing_rid`]).
    pub fn with_rid(mut self) -> IndexScan {
        self.with_rid = true;
        self
    }

    /// Scan `index` for keys in `[lo, hi]`, bounds as in
    /// [`BTree::scan_range`].
    pub fn range(
        heap: Arc<HeapFile>,
        index: Arc<BTree>,
        lo: Option<&[u8]>,
        hi: Option<&[u8]>,
        hi_inclusive: bool,
        cols: Vec<usize>,
        snapshot: Snapshot,
    ) -> IndexScan {
        let kind = ProbeKind::Range {
            lo: lo.map(<[u8]>::to_vec),
            hi: hi.map(<[u8]>::to_vec),
            hi_inclusive,
        };
        IndexScan::new(heap, IndexProbe { index, kind }, cols, snapshot)
    }
}

impl Operator for IndexScan {
    fn next(&mut self) -> Result<Option<Row>> {
        if let Some(IndexProbe { index, kind }) = self.probe.take() {
            let rids: Vec<Rid> = match kind {
                ProbeKind::Prefix(prefix) => index.scan_prefix(&prefix)?,
                ProbeKind::Range { lo, hi, hi_inclusive } => {
                    let mut rids = Vec::new();
                    index.scan_from(lo.as_deref().unwrap_or(&[]), |key, rid| {
                        let within = hi.as_deref().is_none_or(|hi| {
                            if hi_inclusive {
                                key <= hi || key.starts_with(hi)
                            } else {
                                key < hi
                            }
                        });
                        if within {
                            rids.push(rid);
                        }
                        Ok(within)
                    })?;
                    rids
                }
            };
            self.rids = rids.into_iter();
        }
        for rid in self.rids.by_ref() {
            let Some(v) = self.heap.get_versioned(rid)? else {
                continue; // dangling entry from a rolled-back insert
            };
            if !self.snapshot.visible(v.xmin, v.xmax) {
                continue;
            }
            return emit(&v.body, &self.cols, self.with_rid.then_some(rid)).map(Some);
        }
        Ok(None)
    }

    fn name(&self) -> &'static str {
        "IndexScan"
    }
}
