//! Private shadow deltas for delta-merge replay.
//!
//! CAS-per-access replay pays one synchronizing atomic op per monitored
//! access; under heavy inter-thread sharing that is cache-line ping-pong on
//! the shared metadata. Delta-merge replay instead buffers a worker's
//! metadata writes in a *private* overlay and publishes them into the shared
//! [`AtomicShadow`]/[`PackedWordTable`](crate::PackedWordTable) only at the
//! points where the §5.2 ordering machinery already forces synchronization
//! (dependence-arc waits, ConflictAlert gates, version produce points,
//! batch boundaries). Reads that cross an unmet arc consult merged state by
//! construction, so the overlay is invisible to every other thread's
//! ordered view.
//!
//! Two overlay shapes live here:
//!
//! * [`ShadowDelta`] — a sparse, chunk-indexed byte overlay over an
//!   [`AtomicShadow`], tracking exactly which bytes the owner wrote (a
//!   written bitmask per chunk) so unwritten bytes still read through to
//!   the shared shadow;
//! * [`WordDelta`] — a sorted `key → V` map for word-granular analyses
//!   (LockSet) whose per-location delta state is analysis-defined.
//!
//! Both are single-owner types: the replay worker that owns a delta is the
//! only mutator, so no interior atomics are needed. Publishing is the
//! owner's job (see [`ShadowDelta::flush_into`]).

use crate::atomic::AtomicShadow;
use std::cell::UnsafeCell;

/// A per-lane slot for one replay worker's private delta state.
///
/// Delta-merge state is single-owner by protocol: only the worker currently
/// replaying thread `t` touches slot `t`, and lane hand-off between pool
/// threads is ordered by the backend's own synchronization. A `Mutex` here
/// costs two locked RMW ops per record on x86 — more than the plain-mov
/// shadow stores the overlay exists to batch — so the slot is an
/// [`UnsafeCell`] with the ownership contract on [`with`](Self::with),
/// checked at runtime in debug builds.
#[derive(Debug, Default)]
pub struct LaneCell<T> {
    value: UnsafeCell<T>,
    #[cfg(debug_assertions)]
    entered: std::sync::atomic::AtomicBool,
}

// SAFETY: cross-thread access is confined to one owner at a time by the
// delta-merge protocol (see `with`); the cell itself adds no sharing.
unsafe impl<T: Send> Sync for LaneCell<T> {}

impl<T> LaneCell<T> {
    /// Wraps `value` in a lane slot.
    pub fn new(value: T) -> Self {
        LaneCell {
            value: UnsafeCell::new(value),
            #[cfg(debug_assertions)]
            entered: std::sync::atomic::AtomicBool::new(false),
        }
    }

    /// Runs `f` with exclusive access to the slot.
    ///
    /// # Safety
    ///
    /// The caller must be the slot's current owner: no other call to `with`
    /// on this slot may overlap this one, and any hand-off of ownership
    /// between threads must happen-before the new owner's first call. The
    /// replay backends uphold this by construction (one worker or lane per
    /// replayed thread; migrations ordered by the scheduler).
    pub unsafe fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        #[cfg(debug_assertions)]
        {
            use std::sync::atomic::Ordering;
            assert!(
                !self.entered.swap(true, Ordering::Acquire),
                "LaneCell entered concurrently — single-owner contract violated"
            );
        }
        // SAFETY: exclusivity is the caller's contract, stated above.
        let out = f(unsafe { &mut *self.value.get() });
        #[cfg(debug_assertions)]
        self.entered
            .store(false, std::sync::atomic::Ordering::Release);
        out
    }
}

/// Application bytes per delta chunk. Smaller than `AtomicShadow`'s 64 KiB
/// chunks: a delta holds one batch's write footprint, not a whole address
/// space.
const DELTA_CHUNK: u64 = 4096;
const MASK_WORDS: usize = (DELTA_CHUNK / 64) as usize;

/// One materialized delta chunk: a written-byte bitmask plus the bytes.
struct DeltaChunk {
    written: [u64; MASK_WORDS],
    data: [u8; DELTA_CHUNK as usize],
}

impl DeltaChunk {
    fn new() -> Box<DeltaChunk> {
        Box::new(DeltaChunk {
            written: [0; MASK_WORDS],
            data: [0; DELTA_CHUNK as usize],
        })
    }

    #[inline]
    fn is_written(&self, off: usize) -> bool {
        self.written[off / 64] & (1u64 << (off % 64)) != 0
    }

    /// One `u64` covering bits `lo..hi` of a mask word (`hi <= 64`).
    #[inline]
    fn word_mask(lo: usize, hi: usize) -> u64 {
        debug_assert!(lo <= hi && hi <= 64);
        if hi - lo == 64 {
            !0
        } else {
            ((1u64 << (hi - lo)) - 1) << lo
        }
    }

    /// Applies `f(word index, bit mask)` for each mask word overlapping
    /// byte offsets `lo..hi`. An aligned 8-byte access touches exactly one
    /// word, so the common shape is a single masked `u64` op.
    #[inline]
    fn for_mask_words(lo: usize, hi: usize, mut f: impl FnMut(usize, u64)) {
        debug_assert!(lo < hi && hi <= DELTA_CHUNK as usize);
        let (w0, w1) = (lo / 64, (hi - 1) / 64);
        if w0 == w1 {
            f(w0, Self::word_mask(lo % 64, (hi - 1) % 64 + 1));
            return;
        }
        f(w0, Self::word_mask(lo % 64, 64));
        for w in w0 + 1..w1 {
            f(w, !0);
        }
        f(w1, Self::word_mask(0, (hi - 1) % 64 + 1));
    }

    /// Marks byte offsets `lo..hi` written (word-wide ORs).
    #[inline]
    fn mark_written(&mut self, lo: usize, hi: usize) {
        Self::for_mask_words(lo, hi, |w, m| self.written[w] |= m);
    }

    /// Whether every byte offset in `lo..hi` is written.
    #[inline]
    fn all_written(&self, lo: usize, hi: usize) -> bool {
        let mut all = true;
        Self::for_mask_words(lo, hi, |w, m| all &= self.written[w] & m == m);
        all
    }

    /// Whether no byte offset in `lo..hi` is written.
    #[inline]
    fn none_written(&self, lo: usize, hi: usize) -> bool {
        let mut none = true;
        Self::for_mask_words(lo, hi, |w, m| none &= self.written[w] & m == 0);
        none
    }
}

impl std::fmt::Debug for DeltaChunk {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let bytes: u32 = self.written.iter().map(|w| w.count_ones()).sum();
        f.debug_struct("DeltaChunk")
            .field("written_bytes", &bytes)
            .finish()
    }
}

/// A private byte-granular write overlay over an [`AtomicShadow`].
///
/// The owner records metadata stores with [`set_range`](Self::set_range)
/// and resolves reads with [`get`](Self::get) /
/// [`join_over`](Self::join_over) (own pending writes win; unwritten bytes
/// read through to the shared shadow). At a flush point,
/// [`flush_into`](Self::flush_into) publishes the overlay as coalesced
/// equal-value runs via [`AtomicShadow::fill_range`] and empties it.
///
/// Last-writer-wins semantics: the overlay keeps only the newest value per
/// byte, which is sound exactly because conflicting cross-thread writes are
/// ordered by dependence arcs — within one thread's unflushed window there
/// is no concurrent writer to merge against.
///
/// This sits on the replay worker's per-access hot path, so the chunk set
/// is a flat vector fronted by a small direct-mapped slot cache, not a
/// search tree: a window's writes hit a handful of chunks, each found with
/// one hash and one comparison. Mask maintenance is word-wide (one `u64`
/// OR covers a whole aligned access), and the all-written read fast path
/// folds the span without touching the shared shadow at all — the point
/// where the overlay becomes cheaper than the 8 atomic byte ops it
/// replaces.
#[derive(Debug)]
pub struct ShadowDelta {
    /// `(chunk index, chunk)` in insertion order (stable, so `map` slots
    /// stay valid). Flush sorts by index so publishing still walks
    /// ascending addresses. Chunks are *retained* across flushes with only
    /// their masks cleared: a window's footprint repeats, and re-zeroing
    /// 4 KiB of data (plus the allocator round-trip) per chunk per window
    /// costs more than the whole publish.
    chunks: Vec<(u64, Box<DeltaChunk>)>,
    /// Direct-mapped cache: Fibonacci hash of chunk index → position+1 in
    /// `chunks` (0 = empty). A collision merely falls back to the linear
    /// scan.
    map: [u16; CHUNK_MAP_WAYS],
    /// Whether any byte is pending since the last flush/clear.
    pending: bool,
}

/// Slot-cache ways (power of two; indexed by the top bits of a Fibonacci
/// hash of the chunk index).
const CHUNK_MAP_WAYS: usize = 32;

/// Retained-chunk cap: a footprint larger than this drops its overlay
/// storage wholesale at the next flush instead of retaining it, bounding
/// idle memory at ~[`DELTA_CHUNK`]·64 per worker.
const MAX_RETAINED_CHUNKS: usize = 64;

impl Default for ShadowDelta {
    fn default() -> Self {
        ShadowDelta {
            chunks: Vec::new(),
            map: [0; CHUNK_MAP_WAYS],
            pending: false,
        }
    }
}

impl ShadowDelta {
    /// An empty overlay.
    pub fn new() -> Self {
        ShadowDelta::default()
    }

    /// Whether the overlay holds no pending writes.
    pub fn is_empty(&self) -> bool {
        !self.pending
    }

    /// Clears every retained chunk's written mask (data bytes may stay
    /// stale — unwritten offsets are never read); an oversized footprint
    /// is dropped wholesale instead.
    fn reset(&mut self) {
        if self.chunks.len() > MAX_RETAINED_CHUNKS {
            self.chunks.clear();
            self.map = [0; CHUNK_MAP_WAYS];
        } else {
            for (_, chunk) in &mut self.chunks {
                chunk.written = [0; MASK_WORDS];
            }
        }
        self.pending = false;
    }

    /// Slot-cache index for a chunk index.
    #[inline]
    fn map_slot(ci: u64) -> usize {
        debug_assert!(CHUNK_MAP_WAYS.is_power_of_two());
        (ci.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - CHUNK_MAP_WAYS.trailing_zeros())) as usize
    }

    /// The chunk for index `ci` (created if absent).
    #[inline]
    fn chunk_mut(&mut self, ci: u64) -> &mut DeltaChunk {
        let h = Self::map_slot(ci);
        let cached = self.map[h] as usize;
        if cached != 0 && self.chunks[cached - 1].0 == ci {
            return &mut self.chunks[cached - 1].1;
        }
        let pos = match self.chunks.iter().position(|(i, _)| *i == ci) {
            Some(pos) => pos,
            None => {
                self.chunks.push((ci, DeltaChunk::new()));
                self.chunks.len() - 1
            }
        };
        if pos < u16::MAX as usize {
            self.map[h] = (pos + 1) as u16;
        }
        &mut self.chunks[pos].1
    }

    /// The chunk for index `ci`, if materialized.
    #[inline]
    fn chunk(&self, ci: u64) -> Option<&DeltaChunk> {
        let cached = self.map[Self::map_slot(ci)] as usize;
        if cached != 0 && self.chunks[cached - 1].0 == ci {
            return Some(&self.chunks[cached - 1].1);
        }
        self.chunks
            .iter()
            .find_map(|(i, c)| (*i == ci).then_some(&**c))
    }

    /// Records a store of `v` over every byte of `addr..addr+len`.
    pub fn set_range(&mut self, addr: u64, len: u64, v: u8) {
        if len == 0 {
            return;
        }
        self.pending = true;
        // Fast path: the span sits inside one 64-byte mask word (every
        // aligned access up to 8 bytes does) — one chunk lookup, one data
        // write, one mask OR, no segment loop.
        if addr >> 6 == (addr + len - 1) >> 6 {
            let lo = (addr % DELTA_CHUNK) as usize;
            let mask = (!0u64 >> (64 - len)) << (lo % 64);
            let chunk = self.chunk_mut(addr / DELTA_CHUNK);
            if len == 8 {
                chunk.data[lo..lo + 8].copy_from_slice(&[v; 8]);
            } else {
                chunk.data[lo..lo + len as usize].fill(v);
            }
            chunk.written[lo / 64] |= mask;
            return;
        }
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / DELTA_CHUNK + 1) * DELTA_CHUNK);
            let lo = (a % DELTA_CHUNK) as usize;
            let hi = lo + (seg_end - a) as usize;
            let chunk = self.chunk_mut(a / DELTA_CHUNK);
            if hi - lo == 8 {
                // Constant-length copy: one unaligned 8-byte store instead
                // of a runtime-length memset call (most accesses are words).
                chunk.data[lo..hi].copy_from_slice(&[v; 8]);
            } else {
                chunk.data[lo..hi].fill(v);
            }
            chunk.mark_written(lo, hi);
            a = seg_end;
        }
    }

    /// The pending value for one byte, if the owner wrote it.
    pub fn get(&self, addr: u64) -> Option<u8> {
        if !self.pending {
            return None;
        }
        let chunk = self.chunk(addr / DELTA_CHUNK)?;
        let off = (addr % DELTA_CHUNK) as usize;
        chunk.is_written(off).then(|| chunk.data[off])
    }

    /// Bitwise-OR join over a range, with pending bytes taking precedence
    /// over `shared`. Equivalent to flushing and then calling
    /// [`AtomicShadow::join_range`], without publishing anything.
    pub fn join_over(&self, addr: u64, len: u64, shared: &AtomicShadow) -> u8 {
        if !self.pending || len == 0 {
            return shared.join_range(addr, len);
        }
        // Fast path mirroring `set_range`: a span inside one mask word
        // resolves with one lookup and one mask test — all-pending folds
        // the owner's bytes, none-pending reads straight through, and only
        // the rare mixed case falls to the general walk.
        if addr >> 6 == (addr + len - 1) >> 6 {
            let Some(chunk) = self.chunk(addr / DELTA_CHUNK) else {
                return shared.join_range(addr, len);
            };
            let lo = (addr % DELTA_CHUNK) as usize;
            let mask = (!0u64 >> (64 - len)) << (lo % 64);
            let written = chunk.written[lo / 64] & mask;
            if written == 0 {
                return shared.join_range(addr, len);
            }
            if written == mask {
                return if len == 8 {
                    let w =
                        u64::from_ne_bytes(chunk.data[lo..lo + 8].try_into().expect("8-byte span"));
                    let w = w | (w >> 32);
                    let w = w | (w >> 16);
                    (w | (w >> 8)) as u8
                } else {
                    chunk.data[lo..lo + len as usize]
                        .iter()
                        .fold(0, |x, b| x | b)
                };
            }
        }
        let mut acc = 0u8;
        let mut a = addr;
        let end = addr + len;
        while a < end {
            let seg_end = end.min((a / DELTA_CHUNK + 1) * DELTA_CHUNK);
            match self.chunk(a / DELTA_CHUNK) {
                None => acc |= shared.join_range(a, seg_end - a),
                Some(chunk) => {
                    let lo = (a % DELTA_CHUNK) as usize;
                    let hi = lo + (seg_end - a) as usize;
                    if chunk.none_written(lo, hi) {
                        // Retained chunk with nothing pending in this span:
                        // pure read-through, one shared walk.
                        acc |= shared.join_range(a, seg_end - a);
                        a = seg_end;
                        continue;
                    }
                    if chunk.all_written(lo, hi) {
                        // Fully-pending span: fold the owner's bytes and
                        // skip the shared shadow entirely — the hot case
                        // once a window has touched its working set.
                        acc |= if hi - lo == 8 {
                            let w = u64::from_ne_bytes(
                                chunk.data[lo..hi].try_into().expect("8-byte span"),
                            );
                            let w = w | (w >> 32);
                            let w = w | (w >> 16);
                            (w | (w >> 8)) as u8
                        } else {
                            chunk.data[lo..hi].iter().fold(0, |x, b| x | b)
                        };
                        a = seg_end;
                        continue;
                    }
                    // Coalesce read-through bytes into runs so the shared
                    // shadow is walked per run, not per byte.
                    let mut through_start = None;
                    for b in a..seg_end {
                        let off = (b % DELTA_CHUNK) as usize;
                        if chunk.is_written(off) {
                            if let Some(start) = through_start.take() {
                                acc |= shared.join_range(start, b - start);
                            }
                            acc |= chunk.data[off];
                        } else if through_start.is_none() {
                            through_start = Some(b);
                        }
                    }
                    if let Some(start) = through_start {
                        acc |= shared.join_range(start, seg_end - start);
                    }
                }
            }
            a = seg_end;
        }
        acc
    }

    /// Calls `f(addr, len, v)` for every maximal run of pending bytes that
    /// share one value, in ascending address order. Runs never span chunk
    /// boundaries (two calls at a seam are harmless — the consumer is
    /// [`AtomicShadow::fill_range`]).
    pub fn for_each_run(&self, mut f: impl FnMut(u64, u64, u8)) {
        if !self.pending {
            return;
        }
        let mut order: Vec<&(u64, Box<DeltaChunk>)> = self.chunks.iter().collect();
        order.sort_unstable_by_key(|(i, _)| *i);
        for &(ci, ref chunk) in order {
            let base = ci * DELTA_CHUNK;
            let mut run: Option<(u64, u64, u8)> = None;
            let mut off = 0usize;
            while off < DELTA_CHUNK as usize {
                // Skip whole untouched 64-byte mask words.
                if off.is_multiple_of(64) && chunk.written[off / 64] == 0 {
                    if let Some((start, len, v)) = run.take() {
                        f(start, len, v);
                    }
                    off += 64;
                    continue;
                }
                if !chunk.is_written(off) {
                    if let Some((start, len, v)) = run.take() {
                        f(start, len, v);
                    }
                    off += 1;
                    continue;
                }
                let v = chunk.data[off];
                match &mut run {
                    Some((start, len, rv)) if *rv == v && *start + *len == base + off as u64 => {
                        *len += 1;
                    }
                    other => {
                        if let Some((start, len, rv)) = other.take() {
                            f(start, len, rv);
                        }
                        run = Some((base + off as u64, 1, v));
                    }
                }
                off += 1;
            }
            if let Some((start, len, v)) = run {
                f(start, len, v);
            }
        }
    }

    /// Publishes every pending byte into `shared` (release stores via
    /// [`AtomicShadow::fill_range`], one call per equal-value run) and
    /// empties the overlay.
    pub fn flush_into(&mut self, shared: &AtomicShadow) {
        if !self.pending {
            return;
        }
        // Publish maximal written *spans*, extracted from the mask words by
        // bit scanning — no per-byte value inspection. Adjacent runs merge
        // across mask-word boundaries, so a densely written region (the hot
        // head of a skewed footprint is contiguous) publishes as one bulk
        // store.
        let mut order: Vec<&(u64, Box<DeltaChunk>)> = self.chunks.iter().collect();
        order.sort_unstable_by_key(|(i, _)| *i);
        for &(ci, ref chunk) in order {
            let base = ci * DELTA_CHUNK;
            let mut span: Option<(usize, usize)> = None;
            for (w, &word) in chunk.written.iter().enumerate() {
                let mut m = word;
                while m != 0 {
                    let start = m.trailing_zeros() as usize;
                    let run = (m >> start).trailing_ones() as usize;
                    let off = w * 64 + start;
                    span = match span {
                        Some((so, sl)) if so + sl == off => Some((so, sl + run)),
                        Some((so, sl)) => {
                            shared.store_range(base + so as u64, &chunk.data[so..so + sl]);
                            Some((off, run))
                        }
                        None => Some((off, run)),
                    };
                    if start + run == 64 {
                        break;
                    }
                    m &= !(((1u64 << run) - 1) << start);
                }
            }
            if let Some((so, sl)) = span {
                shared.store_range(base + so as u64, &chunk.data[so..so + sl]);
            }
        }
        self.reset();
    }

    /// Drops every pending write without publishing.
    pub fn clear(&mut self) {
        self.reset();
    }
}

/// A private word-granular delta map for analyses whose per-location state
/// does not fit a shadow byte (LockSet). The value type is analysis-defined;
/// this is just the single-owner buffer with the same accumulate-then-drain
/// shape as [`ShadowDelta`].
///
/// Like the byte overlay, lookups sit on the per-access hot path, so the
/// backing store is an open-addressed Fibonacci-hashed table with linear
/// probing (entries are never removed between drains, so a probe can stop
/// at the first empty slot). The ascending-key drain contract is preserved
/// by sorting at drain time — ordering is only needed once per window, not
/// once per access.
#[derive(Debug)]
pub struct WordDelta<V> {
    /// Power-of-two slot table (empty until the first insert). Slots are
    /// `None` or a live `(key, state)` pair; there are no tombstones.
    slots: Vec<Option<(u64, V)>>,
    len: usize,
}

impl<V> Default for WordDelta<V> {
    fn default() -> Self {
        WordDelta {
            slots: Vec::new(),
            len: 0,
        }
    }
}

impl<V> WordDelta<V> {
    /// An empty delta.
    pub fn new() -> Self {
        WordDelta::default()
    }

    /// Whether no keys are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pending key count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Home slot for `key` (Fibonacci hashing: multiply and keep the high
    /// bits, which a power-of-two table indexes directly).
    #[inline]
    fn bucket(slots: usize, key: u64) -> usize {
        debug_assert!(slots.is_power_of_two());
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - slots.trailing_zeros())) as usize
    }

    /// The slot holding `key`, or the empty slot where it would go.
    #[inline]
    fn probe(&self, key: u64) -> usize {
        let n = self.slots.len();
        let mut i = Self::bucket(n, key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k != key => i = (i + 1) & (n - 1),
                _ => return i,
            }
        }
    }

    /// Grows (or first allocates) the table, rehashing live entries.
    #[cold]
    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(64);
        let old = std::mem::take(&mut self.slots);
        self.slots.resize_with(new_cap, || None);
        for entry in old.into_iter().flatten() {
            let i = self.probe(entry.0);
            self.slots[i] = Some(entry);
        }
    }

    /// The pending state for `key`, if any.
    pub fn get(&self, key: u64) -> Option<&V> {
        if self.len == 0 {
            return None;
        }
        self.slots[self.probe(key)].as_ref().map(|(_, v)| v)
    }

    /// Mutable pending state for `key`, if any.
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        if self.len == 0 {
            return None;
        }
        let i = self.probe(key);
        self.slots[i].as_mut().map(|(_, v)| v)
    }

    /// The pending state for `key`, created via `init` on first touch.
    pub fn get_or_insert_with(&mut self, key: u64, init: impl FnOnce() -> V) -> &mut V {
        // Keep load below 7/8 so probe chains stay short.
        if self.slots.len() < (self.len + 1) * 8 / 7 + 1 {
            self.grow();
        }
        let i = self.probe(key);
        let slot = &mut self.slots[i];
        if slot.is_none() {
            *slot = Some((key, init()));
            self.len += 1;
        }
        slot.as_mut().map(|(_, v)| v).expect("slot just filled")
    }

    /// Drains every pending `(key, state)` pair in ascending key order.
    /// The slot table keeps its capacity for the next window.
    pub fn drain(&mut self) -> impl Iterator<Item = (u64, V)> + '_ {
        let mut pairs: Vec<(u64, V)> = self.slots.iter_mut().filter_map(Option::take).collect();
        pairs.sort_unstable_by_key(|(k, _)| *k);
        self.len = 0;
        pairs.into_iter()
    }

    /// Drops every pending entry.
    pub fn clear(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = None);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlay_wins_over_shared_and_reads_through_elsewhere() {
        let shared = AtomicShadow::new();
        shared.fill_range(0x1000, 8, 0b10);
        let mut delta = ShadowDelta::new();
        assert_eq!(delta.join_over(0x1000, 8, &shared), 0b10);
        delta.set_range(0x1002, 2, 0b01);
        assert_eq!(delta.get(0x1002), Some(0b01));
        assert_eq!(delta.get(0x1004), None);
        // Pending bytes mask the shared value; the rest reads through.
        assert_eq!(delta.join_over(0x1002, 2, &shared), 0b01);
        assert_eq!(delta.join_over(0x1000, 8, &shared), 0b11);
        // A pending zero masks shared state too (last-writer-wins).
        delta.set_range(0x1000, 8, 0);
        assert_eq!(delta.join_over(0x1000, 8, &shared), 0);
    }

    #[test]
    fn flush_publishes_runs_and_empties() {
        let shared = AtomicShadow::new();
        shared.fill_range(0x2000, 16, 3);
        let mut delta = ShadowDelta::new();
        delta.set_range(0x2000, 4, 1);
        delta.set_range(0x2008, 4, 0);
        let mut runs = Vec::new();
        delta.for_each_run(|a, l, v| runs.push((a, l, v)));
        assert_eq!(runs, vec![(0x2000, 4, 1), (0x2008, 4, 0)]);
        delta.flush_into(&shared);
        assert!(delta.is_empty());
        assert_eq!(shared.snapshot(0x2000, 16), {
            let mut want = vec![3u8; 16];
            want[..4].fill(1);
            want[8..12].fill(0);
            want
        });
    }

    #[test]
    fn runs_split_on_value_change_and_chunk_seams() {
        let mut delta = ShadowDelta::new();
        let seam = DELTA_CHUNK * 3;
        delta.set_range(seam - 2, 4, 7);
        delta.set_range(0x100, 2, 1);
        delta.set_range(0x102, 2, 2);
        let mut runs = Vec::new();
        delta.for_each_run(|a, l, v| runs.push((a, l, v)));
        assert_eq!(
            runs,
            vec![(0x100, 2, 1), (0x102, 2, 2), (seam - 2, 2, 7), (seam, 2, 7),]
        );
    }

    #[test]
    fn flush_equals_join_over_for_random_interleavings() {
        let shared = AtomicShadow::new();
        let mut delta = ShadowDelta::new();
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200 {
            let addr = 0x3000 + step() % 512;
            let len = 1 + step() % 9;
            let v = (step() % 4) as u8;
            if step() % 3 == 0 {
                shared.fill_range(addr, len, v);
            } else {
                delta.set_range(addr, len, v);
            }
        }
        let want: Vec<u8> = (0..600)
            .map(|i| {
                let a = 0x3000 + i;
                delta.get(a).unwrap_or_else(|| shared.join_range(a, 1))
            })
            .collect();
        for w in 0..600 - 8 {
            let expect = want[w as usize..w as usize + 8]
                .iter()
                .fold(0, |a, b| a | b);
            assert_eq!(delta.join_over(0x3000 + w, 8, &shared), expect, "at {w}");
        }
        delta.flush_into(&shared);
        for (i, w) in want.iter().enumerate() {
            assert_eq!(shared.join_range(0x3000 + i as u64, 1), *w);
        }
    }

    #[test]
    fn word_delta_accumulates_and_drains_sorted() {
        let mut d: WordDelta<u32> = WordDelta::new();
        assert!(d.is_empty());
        *d.get_or_insert_with(9, || 0) += 1;
        *d.get_or_insert_with(4, || 10) += 1;
        *d.get_or_insert_with(9, || 0) += 1;
        assert_eq!(d.len(), 2);
        assert_eq!(d.get(9), Some(&2));
        assert_eq!(d.get_mut(4).map(|v| *v), Some(11));
        let drained: Vec<_> = d.drain().collect();
        assert_eq!(drained, vec![(4, 11), (9, 2)]);
        assert!(d.is_empty());
    }
}
