//! Slotted pages.
//!
//! Every page is [`PAGE_SIZE`] bytes with the layout:
//!
//! ```text
//! 0..2   n_slots  (u16)
//! 2..4   free_off (u16)  — start of the record area (records grow down)
//! 4..8   special0 (u32)  — owner-defined (B+Tree: node kind / level)
//! 8..12  special1 (u32)  — owner-defined (B+Tree: right sibling)
//! 12..16 special2 (u32)  — owner-defined
//! 16..   slot array, 4 bytes per slot: offset u16, len u16
//! ...    free space
//! ...    records, packed at the end of the record area
//! -12..-4  page LSN (u64) — WAL record that last logged this page
//! -4..     CRC32 of bytes [0, PAGE_SIZE-4) — stamped on every disk write
//! ```
//!
//! A slot length of `DEAD` (`u16::MAX`) marks a deleted record. The slot *array order*
//! is logical order — the B+Tree keeps entries sorted by inserting slots in
//! the middle of the array, without moving record bytes.
//!
//! The last [`PAGE_TRAILER`] bytes are the durability trailer: a page LSN
//! linking the image to the WAL record that last captured it, and a CRC32
//! over the rest of the page. The buffer pool stamps the trailer on every
//! write-back and verifies the checksum on every read, so a torn or
//! bit-flipped on-disk page is *detected* (never served as garbage rows)
//! and, when its image is still in the WAL, repaired by the redo pass.

/// Size of every page, matching the paper's 8 KiB DB2 configuration.
pub const PAGE_SIZE: usize = 8192;

/// Bytes reserved at the end of every page: LSN (u64) + CRC32 (u32).
pub const PAGE_TRAILER: usize = 12;

const HEADER: usize = 16;
const SLOT_SIZE: usize = 4;
const LSN_OFF: usize = PAGE_SIZE - PAGE_TRAILER;
const CRC_OFF: usize = PAGE_SIZE - 4;

/// Slot length marking a deleted record.
const DEAD: u16 = u16::MAX;

/// An in-memory page image.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// A zeroed page with an empty slot array.
    pub fn new() -> Page {
        let mut p = Page { data: vec![0u8; PAGE_SIZE].into_boxed_slice().try_into().unwrap() };
        p.set_free_off((PAGE_SIZE - PAGE_TRAILER) as u16);
        p
    }

    /// Wrap raw bytes read from disk. A freshly-allocated (all-zero) page
    /// has `free_off == 0`, which is impossible for an initialized page
    /// (records live above the 16-byte header), so it is normalized to an
    /// empty slotted page.
    pub fn from_bytes(bytes: [u8; PAGE_SIZE]) -> Page {
        let mut p = Page { data: Box::new(bytes) };
        if p.free_off() == 0 {
            p.set_free_off((PAGE_SIZE - PAGE_TRAILER) as u16);
        }
        p
    }

    /// The raw page image (for writing to disk).
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        &self.data
    }

    /// Mutable raw page image. Owners using a page as raw storage (heap
    /// overflow pages) write through this; slotted-page invariants are then
    /// the owner's responsibility.
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        &mut self.data
    }

    fn read_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.data[at], self.data[at + 1]])
    }

    fn write_u16(&mut self, at: usize, v: u16) {
        self.data[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn read_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.data[at..at + 4].try_into().unwrap())
    }

    fn write_u32(&mut self, at: usize, v: u32) {
        self.data[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Number of slots (including dead ones).
    pub fn slot_count(&self) -> usize {
        self.read_u16(0) as usize
    }

    fn set_slot_count(&mut self, n: usize) {
        self.write_u16(0, n as u16);
    }

    fn free_off(&self) -> usize {
        self.read_u16(2) as usize
    }

    fn set_free_off(&mut self, v: u16) {
        self.write_u16(2, v);
    }

    /// Owner-defined header word 0.
    pub fn special0(&self) -> u32 {
        self.read_u32(4)
    }

    /// Set owner-defined header word 0.
    pub fn set_special0(&mut self, v: u32) {
        self.write_u32(4, v);
    }

    /// Owner-defined header word 1.
    pub fn special1(&self) -> u32 {
        self.read_u32(8)
    }

    /// Set owner-defined header word 1.
    pub fn set_special1(&mut self, v: u32) {
        self.write_u32(8, v);
    }

    /// Owner-defined header word 2.
    pub fn special2(&self) -> u32 {
        self.read_u32(12)
    }

    /// Set owner-defined header word 2.
    pub fn set_special2(&mut self, v: u32) {
        self.write_u32(12, v);
    }

    /// The LSN of the WAL record that last logged this page image (0 =
    /// never logged).
    pub fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.data[LSN_OFF..LSN_OFF + 8].try_into().unwrap())
    }

    /// Set the page LSN (done by the WAL when the image is logged).
    pub fn set_lsn(&mut self, lsn: u64) {
        self.data[LSN_OFF..LSN_OFF + 8].copy_from_slice(&lsn.to_le_bytes());
    }

    /// Compute and store the trailer CRC32. Must be the last mutation
    /// before the image goes to disk (or into a WAL record).
    pub fn stamp_checksum(&mut self) {
        let crc = crc32(&self.data[..CRC_OFF]);
        self.data[CRC_OFF..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Whether this in-memory image carries a valid trailer checksum.
    pub fn checksum_ok(&self) -> bool {
        verify_checksum(&self.data)
    }

    fn slot(&self, idx: usize) -> (usize, u16) {
        let at = HEADER + idx * SLOT_SIZE;
        (self.read_u16(at) as usize, self.read_u16(at + 2))
    }

    fn set_slot(&mut self, idx: usize, offset: usize, len: u16) {
        let at = HEADER + idx * SLOT_SIZE;
        self.write_u16(at, offset as u16);
        self.write_u16(at + 2, len);
    }

    /// Contiguous free bytes available for one more record + slot.
    pub fn free_space(&self) -> usize {
        let slots_end = HEADER + self.slot_count() * SLOT_SIZE;
        self.free_off().saturating_sub(slots_end).saturating_sub(SLOT_SIZE)
    }

    /// Append a record at the end of the slot array. Returns the slot
    /// index, or `None` if it does not fit (caller allocates a new page).
    pub fn insert(&mut self, record: &[u8]) -> Option<usize> {
        let idx = self.slot_count();
        self.insert_at(idx, record)
    }

    /// Index of the first dead slot, if any.
    pub fn first_dead_slot(&self) -> Option<usize> {
        (0..self.slot_count()).find(|&i| {
            let (_, len) = self.slot(i);
            len == DEAD
        })
    }

    /// Number of live (non-dead) slots.
    pub fn live_slots(&self) -> usize {
        (0..self.slot_count())
            .filter(|&i| {
                let (_, len) = self.slot(i);
                len != DEAD
            })
            .count()
    }

    /// Insert a record, re-targeting a dead slot when one exists so the
    /// slot array does not grow without bound under churn. Returns
    /// `(slot, reused)` where `reused` is true when a dead slot was
    /// revived, or `None` if the record does not fit even after
    /// compaction. Callers are responsible for the aliasing hazard: a
    /// dead slot must only be revived once no index entry can still
    /// point at it (vacuum and rollback both delete index entries
    /// before the slot dies).
    pub fn insert_reusing(&mut self, record: &[u8]) -> Option<(usize, bool)> {
        if record.len() > u16::MAX as usize - 1 {
            return None;
        }
        let Some(idx) = self.first_dead_slot() else {
            return self.insert(record).map(|i| (i, false));
        };
        // A revived slot needs no new slot-array entry, only record bytes.
        let slots_end = HEADER + self.slot_count() * SLOT_SIZE;
        if self.free_off().saturating_sub(slots_end) < record.len() {
            self.compact();
        }
        if self.free_off().saturating_sub(slots_end) < record.len() {
            return None;
        }
        let new_off = self.free_off() - record.len();
        self.data[new_off..new_off + record.len()].copy_from_slice(record);
        self.set_free_off(new_off as u16);
        self.set_slot(idx, new_off, record.len() as u16);
        Some((idx, true))
    }

    /// Reset to an empty slotted page (no slots, full record area, zeroed
    /// special words), preserving the durability trailer: the page LSN
    /// must survive so WAL redo ordering still applies when a reclaimed
    /// page is reused for new data.
    pub fn reinit(&mut self) {
        self.data[..LSN_OFF].fill(0);
        self.set_free_off((PAGE_SIZE - PAGE_TRAILER) as u16);
    }

    /// Insert a record so that it occupies slot index `idx`, shifting later
    /// slots up by one. Used by the B+Tree to keep entries sorted.
    pub fn insert_at(&mut self, idx: usize, record: &[u8]) -> Option<usize> {
        assert!(idx <= self.slot_count(), "slot index out of range");
        if record.len() > u16::MAX as usize - 1 {
            return None;
        }
        if self.free_space() < record.len() {
            return None;
        }
        let n = self.slot_count();
        // Shift the slot array entries [idx..n) up one position.
        for i in (idx..n).rev() {
            let (off, len) = self.slot(i);
            self.set_slot(i + 1, off, len);
        }
        let new_off = self.free_off() - record.len();
        self.data[new_off..new_off + record.len()].copy_from_slice(record);
        self.set_free_off(new_off as u16);
        self.set_slot(idx, new_off, record.len() as u16);
        self.set_slot_count(n + 1);
        Some(idx)
    }

    /// The record in slot `idx`, `None` if the slot is dead or out of range.
    pub fn get(&self, idx: usize) -> Option<&[u8]> {
        if idx >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(idx);
        if len == DEAD {
            return None;
        }
        Some(&self.data[off..off + len as usize])
    }

    /// Mutable view of the record in slot `idx` for in-place rewrites
    /// that keep the length (the heap uses this to stamp `xmin`/`xmax`
    /// version headers under the page latch).
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut [u8]> {
        if idx >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(idx);
        if len == DEAD {
            return None;
        }
        Some(&mut self.data[off..off + len as usize])
    }

    /// Mark slot `idx` dead. The record bytes become reclaimable garbage
    /// removed by the next [`Page::compact`].
    pub fn delete(&mut self, idx: usize) {
        if idx < self.slot_count() {
            let (off, _) = self.slot(idx);
            self.set_slot(idx, off, DEAD);
        }
    }

    /// Remove slot `idx` entirely, shifting later slots down (B+Tree use).
    pub fn remove_slot(&mut self, idx: usize) {
        let n = self.slot_count();
        assert!(idx < n, "slot index out of range");
        for i in idx..n - 1 {
            let (off, len) = self.slot(i + 1);
            self.set_slot(i, off, len);
        }
        self.set_slot_count(n - 1);
    }

    /// Rewrite the record area dropping dead-record garbage, preserving
    /// slot indexes of live records.
    pub fn compact(&mut self) {
        let n = self.slot_count();
        let mut records: Vec<(usize, Vec<u8>)> = Vec::with_capacity(n);
        for i in 0..n {
            if let Some(r) = self.get(i) {
                records.push((i, r.to_vec()));
            }
        }
        let mut off = PAGE_SIZE - PAGE_TRAILER;
        for (i, r) in &records {
            off -= r.len();
            self.data[off..off + r.len()].copy_from_slice(r);
            self.set_slot(*i, off, r.len() as u16);
        }
        self.set_free_off(off as u16);
    }

    /// Replace the record in slot `idx`. Returns false if the new record
    /// does not fit even after compaction.
    pub fn replace(&mut self, idx: usize, record: &[u8]) -> bool {
        assert!(idx < self.slot_count());
        let (off, len) = self.slot(idx);
        if len != DEAD && record.len() <= len as usize {
            // Fits in place (possibly leaving a gap at the front of the
            // old record — tracked as garbage until compaction).
            let start = off + (len as usize - record.len());
            self.data[start..start + record.len()].copy_from_slice(record);
            self.set_slot(idx, start, record.len() as u16);
            return true;
        }
        self.set_slot(idx, off, DEAD);
        self.compact();
        if self.free_space() + SLOT_SIZE < record.len() {
            return false;
        }
        let new_off = self.free_off() - record.len();
        self.data[new_off..new_off + record.len()].copy_from_slice(record);
        self.set_free_off(new_off as u16);
        self.set_slot(idx, new_off, record.len() as u16);
        true
    }

    /// Maximum record size a fresh page can hold.
    pub fn max_record_len() -> usize {
        PAGE_SIZE - HEADER - SLOT_SIZE - PAGE_TRAILER
    }
}

// ---- checksums ----------------------------------------------------------

/// CRC32 (IEEE, reflected polynomial `0xEDB88320`) slicing-by-8 tables,
/// built at compile time. `CRC32_TABLES[0]` is the classic byte-at-a-time
/// table; `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k`
/// zero bytes, which lets eight input bytes fold into the state with
/// eight independent lookups.
static CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// Fold `bytes` into a running CRC32 state (start from `!0`, finish with
/// `!state`; [`crc32`] does both). Lets a checksum cover several slices
/// without concatenating them first.
pub fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

/// CRC32 (IEEE 802.3) of `bytes`. Used for both page trailers and WAL
/// record checksums — no external dependency.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// Verify the trailer checksum of a raw on-disk image. An all-zero page
/// (freshly allocated, never written) is valid by definition — it decodes
/// as an empty slotted page.
pub fn verify_checksum(bytes: &[u8; PAGE_SIZE]) -> bool {
    let stored = u32::from_le_bytes(bytes[CRC_OFF..].try_into().unwrap());
    if crc32(&bytes[..CRC_OFF]) == stored {
        return true;
    }
    stored == 0 && bytes.iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let a = p.insert(b"hello").unwrap();
        let b = p.insert(b"world!").unwrap();
        assert_eq!(p.get(a), Some(&b"hello"[..]));
        assert_eq!(p.get(b), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
    }

    #[test]
    fn fills_up_and_rejects() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // 8192 - 16 header; each record costs 104 bytes.
        assert!((77..=79).contains(&n), "n = {n}");
        assert!(p.free_space() < 104);
    }

    #[test]
    fn delete_and_compact() {
        let mut p = Page::new();
        let a = p.insert(&[1u8; 1000]).unwrap();
        let b = p.insert(&[2u8; 1000]).unwrap();
        let before = p.free_space();
        p.delete(a);
        assert_eq!(p.get(a), None);
        assert_eq!(p.get(b), Some(&[2u8; 1000][..]));
        p.compact();
        assert!(p.free_space() >= before + 1000);
        assert_eq!(p.get(b), Some(&[2u8; 1000][..]));
    }

    #[test]
    fn insert_at_keeps_order() {
        let mut p = Page::new();
        p.insert(b"a").unwrap();
        p.insert(b"c").unwrap();
        p.insert_at(1, b"b").unwrap();
        let all: Vec<&[u8]> = (0..3).map(|i| p.get(i).unwrap()).collect();
        assert_eq!(all, [b"a" as &[u8], b"b", b"c"]);
    }

    #[test]
    fn remove_slot_shifts_down() {
        let mut p = Page::new();
        for s in [b"a" as &[u8], b"b", b"c"] {
            p.insert(s).unwrap();
        }
        p.remove_slot(1);
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.get(0), Some(b"a" as &[u8]));
        assert_eq!(p.get(1), Some(b"c" as &[u8]));
    }

    #[test]
    fn replace_in_place_and_grow() {
        let mut p = Page::new();
        let i = p.insert(b"aaaa").unwrap();
        assert!(p.replace(i, b"bb"));
        assert_eq!(p.get(i), Some(b"bb" as &[u8]));
        assert!(p.replace(i, b"cccccccccc"));
        assert_eq!(p.get(i), Some(b"cccccccccc" as &[u8]));
    }

    #[test]
    fn specials_round_trip() {
        let mut p = Page::new();
        p.set_special0(11);
        p.set_special1(22);
        p.set_special2(33);
        let q = Page::from_bytes(*p.bytes());
        assert_eq!((q.special0(), q.special1(), q.special2()), (11, 22, 33));
    }

    #[test]
    fn round_trip_through_bytes() {
        let mut p = Page::new();
        p.insert(b"persisted").unwrap();
        let q = Page::from_bytes(*p.bytes());
        assert_eq!(q.get(0), Some(b"persisted" as &[u8]));
    }

    #[test]
    fn lsn_round_trips_and_survives_compaction() {
        let mut p = Page::new();
        p.set_lsn(0xDEAD_BEEF_0042);
        let a = p.insert(&[1u8; 700]).unwrap();
        p.insert(&[2u8; 700]).unwrap();
        p.delete(a);
        p.compact();
        assert_eq!(p.lsn(), 0xDEAD_BEEF_0042);
        assert_eq!(p.get(1), Some(&[2u8; 700][..]));
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut p = Page::new();
        p.insert(b"guarded").unwrap();
        p.set_lsn(7);
        p.stamp_checksum();
        assert!(p.checksum_ok());
        // Any flipped bit in the body invalidates the stamp.
        let mut torn = *p.bytes();
        torn[100] ^= 0x40;
        assert!(!verify_checksum(&torn));
        // A fresh (all-zero) on-disk page is valid without a stamp.
        assert!(verify_checksum(&[0u8; PAGE_SIZE]));
        let mut zeros = [0u8; PAGE_SIZE];
        zeros[9] = 1;
        assert!(!verify_checksum(&zeros), "non-zero unstamped page must fail");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC32 of "123456789" is 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop the sliced implementation replaced, kept
    /// as the differential reference.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_sliced_equals_bytewise_at_every_length_and_alignment() {
        // Seeded xorshift fill; one buffer, every length 0..=8200 at a
        // start offset that cycles through all eight alignments.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..8200 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for len in 0..=8200usize {
            let start = len % 8;
            let slice = &buf[start..start + len];
            assert_eq!(crc32(slice), crc32_bytewise(slice), "len {len} start {start}");
        }
        // Split anywhere, the running state carries across the seam.
        let whole = crc32(&buf);
        for cut in [0, 1, 7, 8, 9, 4099, buf.len()] {
            let (a, b) = buf.split_at(cut);
            assert_eq!(!crc32_update(crc32_update(!0, a), b), whole, "cut {cut}");
        }
    }

    #[test]
    fn insert_reusing_revives_dead_slots() {
        let mut p = Page::new();
        let a = p.insert(&[1u8; 200]).unwrap();
        let b = p.insert(&[2u8; 200]).unwrap();
        p.delete(a);
        assert_eq!(p.first_dead_slot(), Some(a));
        assert_eq!(p.live_slots(), 1);
        let (idx, reused) = p.insert_reusing(&[9u8; 150]).unwrap();
        assert!(reused);
        assert_eq!(idx, a, "dead slot revived in place");
        assert_eq!(p.slot_count(), 2, "slot array did not grow");
        assert_eq!(p.get(a), Some(&[9u8; 150][..]));
        assert_eq!(p.get(b), Some(&[2u8; 200][..]));
        // With no dead slot left, it falls back to appending.
        let (idx2, reused2) = p.insert_reusing(b"tail").unwrap();
        assert!(!reused2);
        assert_eq!(idx2, 2);
    }

    #[test]
    fn insert_reusing_compacts_to_fit() {
        let mut p = Page::new();
        // Fill the page, then kill every other record: plenty of total
        // space but little contiguous space until compaction runs.
        let mut slots = Vec::new();
        while let Some(i) = p.insert(&[5u8; 256]) {
            slots.push(i);
        }
        for &i in slots.iter().step_by(2) {
            p.delete(i);
        }
        let (idx, reused) = p.insert_reusing(&[6u8; 256]).unwrap();
        assert!(reused);
        assert_eq!(p.get(idx), Some(&[6u8; 256][..]));
        // Untouched survivors are intact after the internal compaction.
        assert_eq!(p.get(slots[1]), Some(&[5u8; 256][..]));
    }

    #[test]
    fn reinit_clears_body_preserves_lsn() {
        let mut p = Page::new();
        p.insert(b"doomed").unwrap();
        p.set_special0(2);
        p.set_special1(77);
        p.set_lsn(0xABCD);
        p.reinit();
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.special0(), 0);
        assert_eq!(p.special1(), 0);
        assert_eq!(p.lsn(), 0xABCD, "LSN trailer must survive reinit");
        assert_eq!(p.free_space(), Page::max_record_len());
        let i = p.insert(b"fresh").unwrap();
        assert_eq!(p.get(i), Some(b"fresh" as &[u8]));
    }

    #[test]
    fn records_never_overlap_trailer() {
        let mut p = Page::new();
        p.set_lsn(u64::MAX);
        p.stamp_checksum();
        let trailer = p.bytes()[PAGE_SIZE - PAGE_TRAILER..].to_vec();
        while p.insert(&[3u8; 64]).is_some() {}
        p.compact();
        assert_eq!(
            &p.bytes()[PAGE_SIZE - PAGE_TRAILER..],
            &trailer[..],
            "records clobbered trailer"
        );
    }
}
