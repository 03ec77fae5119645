//! Generic wide-metadata word table: packed fast path + interned wide tier.
//!
//! [`AtomicShadow`](crate::AtomicShadow) covers analyses whose per-byte
//! state fits a shadow byte. One rung up, analyses like LOCKSET pack their
//! whole per-variable state into a single CAS-able `u64`. The next rung —
//! a happens-before race detector whose per-variable read state is a
//! *vector clock* — does not fit any fixed-width word at all. This module
//! generalizes the word substrate for that whole family:
//!
//! * [`PackedWordTable`] — the lock-free `key → AtomicU64` table (lazily
//!   materialized chunks, CAS publication). The **fast path**: analyses
//!   encode their common-case state directly in the word.
//! * [`WideInterner<V>`] — reference-counted, epoch-reclaimed interning of
//!   arbitrary wide values `V`. The **slow path**: when a state outgrows
//!   the packed encoding, the analysis interns the wide value and packs the
//!   returned dense id into the word instead.
//! * [`WordTable<V>`] — both halves under one roof, constructed together so
//!   the id lifecycle and the word lifecycle share one worker-quiescence
//!   clock.
//!
//! # The ref-transfer contract
//!
//! A table word that embeds a wide id *holds one reference* on that id.
//! Publishing a transition therefore follows a strict order: acquire the
//! new id ([`WideInterner::intern_acquire`]) **before** the CAS, release
//! the displaced id ([`WideInterner::release`]) **after** the CAS succeeds
//! (or release the acquired id if it fails). The CAS's release ordering is
//! what publishes the interned value to other workers: the value is written
//! into its slot before the id ever escapes the intern mutex, so a reader
//! that acquire-loads a word containing the id also observes the value.
//!
//! # Reclamation and quiescence
//!
//! Freed ids are reused, which makes slot rewrites possible while lock-free
//! readers exist. Safety comes from the same epoch discipline the rest of
//! the §5.3 machinery uses: a worker only dereferences ids obtained from
//! words it loaded *during its current batch*, and an id is only recycled
//! once every live worker has crossed a batch boundary
//! ([`WideInterner::boundary`]) after the release. Threads outside the
//! worker protocol (tests, end-of-run fingerprints) must use the
//! mutex-taking [`WideInterner::value_locked`] instead.
//!
//! On id exhaustion the interner **saturates**: it hands out the permanent
//! id 0, pre-interned to [`MetaWord::saturated`] — each analysis' "know
//! nothing, over-approximate" value. Degradation is latched for the
//! session-event surface; it can change precision, never soundness.

use crate::chunks::ChunkDir;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;

/// Keys per chunk (8192 × 8 bytes = 64 KiB per chunk).
const WORDS_PER_CHUNK: u64 = 1 << 13;

/// Dense span: 2^18 chunks × 2^13 keys = 2^31 keys — a 4-byte granule
/// index over the same 8 GiB application span `AtomicShadow`'s dense tier
/// covers. Keys beyond it take the spill lock (rare sentinel ranges only).
const DENSE_CHUNKS: u64 = 1 << 18;

/// Distinct wide values live at once per interner. Real workloads stay far
/// below this (lockset masks are intersections of ≤ 64-lock sets; read
/// vector clocks collapse back to epochs on every write); adversarial ones
/// saturate gracefully instead of dying.
pub const MAX_WIDE_IDS: usize = 1 << 16;

/// A value storable in a [`WordTable`]'s wide tier.
///
/// `Eq + Hash` drive interning (structurally equal values share an id).
/// [`saturated`](Self::saturated) is the conservative value the interner
/// degrades to when its id space is exhausted: it must over-approximate
/// every other value in whatever direction keeps the analysis sound
/// (LOCKSET: the full candidate mask, which can only *suppress* reports;
/// happens-before: the unknown-order sentinel, which can only *add* them).
pub trait MetaWord: Clone + Eq + Hash + fmt::Debug + Send + Sync + 'static {
    /// The sound over-approximation handed out on id exhaustion.
    fn saturated() -> Self;
}

/// Lock masks (LOCKSET's wide value): the full set over-approximates every
/// candidate set and can only suppress reports — sound for a detector whose
/// alarm condition is "candidates empty".
impl MetaWord for u64 {
    fn saturated() -> Self {
        u64::MAX
    }
}

/// A lock-free `key → AtomicU64` table with lazily materialized chunks.
///
/// Untouched keys read as 0. The hot path after first touch is two array
/// indexes plus one atomic access — no hashing, no locks. Writers publish new
/// values with [`compare_exchange`](Self::compare_exchange) (acquire/release
/// ordering), so a reader that observes a packed word also observes
/// everything the writer published before it. The all-zero word is reserved
/// for "never touched", so packed encodings keep 0 out of their live states.
#[derive(Debug)]
pub struct PackedWordTable {
    chunks: ChunkDir<AtomicU64>,
}

impl Default for PackedWordTable {
    fn default() -> Self {
        PackedWordTable::new()
    }
}

impl PackedWordTable {
    /// An empty table; chunks materialize on first non-zero write.
    pub fn new() -> Self {
        PackedWordTable {
            chunks: ChunkDir::new(DENSE_CHUNKS, WORDS_PER_CHUNK as usize),
        }
    }

    /// Load-acquire of one key; untouched keys read 0 without allocating.
    pub fn load(&self, key: u64) -> u64 {
        self.chunks
            .with(key / WORDS_PER_CHUNK, false, |c| {
                c[(key % WORDS_PER_CHUNK) as usize].load(Ordering::Acquire)
            })
            .unwrap_or(0)
    }

    /// CAS-exchange on one key: publishes `new` iff the key still holds
    /// `current`. `Ok(current)` on success, `Err(actual)` on a lost race —
    /// the caller re-reads and recomputes its transition.
    ///
    /// Storing a non-zero value into an untouched chunk materializes it;
    /// the degenerate `0 → 0` exchange succeeds without allocating.
    pub fn compare_exchange(&self, key: u64, current: u64, new: u64) -> Result<u64, u64> {
        let create = current == 0 && new != 0;
        match self.chunks.with(key / WORDS_PER_CHUNK, create, |c| {
            c[(key % WORDS_PER_CHUNK) as usize].compare_exchange(
                current,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
        }) {
            Some(result) => result,
            // Chunk untouched and nothing to write: the key reads 0.
            None if current == 0 => Ok(0),
            None => Err(0),
        }
    }

    /// Calls `f(key, value)` for every key holding a non-zero word, in
    /// ascending chunk order (dense tier first, then spill).
    pub fn for_each_nonzero(&self, mut f: impl FnMut(u64, u64)) {
        self.chunks.for_each(|ci, chunk| {
            let base = ci * WORDS_PER_CHUNK;
            for (off, word) in chunk.iter().enumerate() {
                let v = word.load(Ordering::Acquire);
                if v != 0 {
                    f(base + off as u64, v);
                }
            }
        });
    }
}

/// Interns wide metadata values into dense u32 ids so one packed
/// [`PackedWordTable`] word can reference state that outgrew it.
///
/// Interning is the §5.3 **slow path** — it runs only when an access
/// actually produces a new wide value (a metadata write) — while `id →
/// value` resolution ([`value`](Self::value)) is a lock-free read the fast
/// path may take on every access. Id 0 is pre-interned to
/// [`MetaWord::saturated`], permanent and never refcounted.
///
/// # Reclamation and degradation (unbounded uptime)
///
/// Ids are **reference-counted and reusable**: every table entry embedding
/// an id holds one reference, moved by the entry CAS (acquire the new id
/// before publishing, release the old one after). An id whose count reaches
/// zero is queued, stamped with the current epoch, and freed only once
/// every live worker has crossed a later batch boundary
/// ([`boundary`](Self::boundary)) — the quiescence gate that makes id reuse
/// safe against mid-record readers holding a stale entry word: such a
/// reader's slot cannot be rewritten under it, and its CAS necessarily
/// fails anyway (the entry changed when the id was released). Acquisition
/// happens *inside* the intern mutex, so the free-time `refs == 0` re-check
/// cannot race a revival.
///
/// # The `unsafe` argument
///
/// This protocol is the only thing in the workspace that needs `unsafe`
/// (every other crate root forbids it; this crate and `paralog-lifeguards`
/// deny it outside the items named here). A slot is *written* only under
/// the `state` mutex: before the interner is shared (`new`), for an id
/// that is fresh or came off the free list (`intern_acquire`), and when a
/// fully quiesced id is freed (`process_pending`). A slot is *read* either
/// under that mutex ([`value_locked`](Self::value_locked)) or lock-free
/// through [`value`](Self::value), whose callers — the four
/// `wide().value(id)` sites in `lockset.rs` and `happensbefore.rs` —
/// resolve only an id they hold a reference on or one read from an entry
/// word since their lane's last [`boundary`](Self::boundary); neither can
/// reach the free list while they do, by the paragraph above.
///
/// When the id space is genuinely full — [`MAX_WIDE_IDS`] values all still
/// referenced — [`intern_acquire`](Self::intern_acquire) **saturates** to
/// id 0 instead of failing. The degradation is latched
/// ([`is_saturated`](Self::is_saturated)) for the session-event surface.
pub struct WideInterner<V: MetaWord> {
    /// id → value; valid while the id is live, rewritten on reuse. Written
    /// only under the state mutex; read lock-free under the quiescence
    /// contract (see [`value`](Self::value)).
    slots: Box<[UnsafeCell<Option<V>>]>,
    /// id → number of table entries currently holding the id. Id 0 is
    /// permanent and never counted.
    refs: Box<[AtomicU32]>,
    /// value → id map, allocation state, and the pending-free queue, behind
    /// the slow-path lock.
    state: Mutex<InternerState<V>>,
    /// The global quiescence clock, bumped by every worker boundary.
    epoch: AtomicU64,
    /// Per-worker epoch at its last batch boundary (`u64::MAX` once the
    /// worker's stream ended: it holds no stale reads and must not gate
    /// frees forever).
    worker_epochs: Box<[AtomicU64]>,
    /// Latched on first saturation; read by the session-event surface.
    saturated: AtomicBool,
}

// SAFETY: the `UnsafeCell` slots are written only under the `state` mutex,
// and cross-thread reads are governed by the happens-before edges the
// module docs lay out (release-CAS of the embedding word before a reader's
// acquire-load; worker-epoch release/acquire before a slot rewrite). `V` is
// `Send + Sync` by the `MetaWord` bound.
#[allow(unsafe_code)]
unsafe impl<V: MetaWord> Sync for WideInterner<V> {}

impl<V: MetaWord> fmt::Debug for WideInterner<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WideInterner")
            .field("workers", &self.worker_epochs.len())
            .field("saturated", &self.saturated)
            .finish_non_exhaustive()
    }
}

#[derive(Debug)]
struct InternerState<V> {
    map: HashMap<V, u32>,
    /// Next never-used id; allocation prefers the free list.
    next: u32,
    free: Vec<u32>,
    /// (id, epoch it was queued in): freeable once every live worker's
    /// epoch exceeds the stamp and the count is still zero.
    pending: Vec<(u32, u64)>,
    /// id → already in `pending` (bounds queue growth under churn).
    queued: Vec<bool>,
    /// High-water mark of live ids (soak diagnostics).
    peak_live: usize,
}

#[allow(unsafe_code)]
impl<V: MetaWord> WideInterner<V> {
    /// An interner gated by `workers` replay lanes (at least one).
    pub fn new(workers: usize) -> Self {
        let mut map = HashMap::new();
        map.insert(V::saturated(), 0u32);
        let slots: Box<[UnsafeCell<Option<V>>]> =
            (0..MAX_WIDE_IDS).map(|_| UnsafeCell::new(None)).collect();
        // SAFETY: slot 0 is written before the interner is shared: no
        // readers yet.
        unsafe { *slots[0].get() = Some(V::saturated()) };
        WideInterner {
            slots,
            refs: (0..MAX_WIDE_IDS).map(|_| AtomicU32::new(0)).collect(),
            state: Mutex::new(InternerState {
                map,
                next: 1,
                free: Vec::new(),
                pending: Vec::new(),
                queued: vec![false; MAX_WIDE_IDS],
                peak_live: 1,
            }),
            epoch: AtomicU64::new(0),
            worker_epochs: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
            saturated: AtomicBool::new(false),
        }
    }

    /// The value behind a live id, read lock-free.
    ///
    /// # Safety
    ///
    /// The caller must be a replay worker inside the quiescence protocol,
    /// resolving an id it obtained from a word it acquire-loaded during its
    /// current batch (between [`boundary`](Self::boundary) calls on its own
    /// lane). That is what guarantees the slot is not rewritten mid-read:
    /// reuse requires a release *plus* a later boundary on every live lane.
    /// Any thread outside the worker protocol must use
    /// [`value_locked`](Self::value_locked).
    pub unsafe fn value(&self, id: u32) -> V {
        (*self.slots[id as usize].get())
            .as_ref()
            .expect("live id has a value")
            .clone()
    }

    /// The value behind a live id, taking the intern mutex — safe from any
    /// thread (fingerprints, status surfaces, tests), at slow-path cost.
    pub fn value_locked(&self, id: u32) -> V {
        let _state = self.state.lock().expect("poisoned");
        // SAFETY: slot writes only happen under the mutex we hold.
        unsafe {
            (*self.slots[id as usize].get())
                .as_ref()
                .expect("live id has a value")
                .clone()
        }
    }

    /// The id for `value` with one reference acquired for the caller, who
    /// must either publish it into a table entry or
    /// [`release`](Self::release) it. Interns the value if new; saturates
    /// to id 0 when the id space is exhausted.
    pub fn intern_acquire(&self, value: V) -> u32 {
        let mut state = self.state.lock().expect("poisoned");
        if let Some(&id) = state.map.get(&value) {
            if id != 0 {
                self.refs[id as usize].fetch_add(1, Ordering::Relaxed);
                // A revival voids the queued free and its stamp: lanes may
                // read the id again from here on, so the next release to
                // zero must be stamped with the epoch current *then*.
                if std::mem::take(&mut state.queued[id as usize]) {
                    state.pending.retain(|&(queued, _)| queued != id);
                }
            }
            return id;
        }
        let Some(id) = state.free.pop().or_else(|| {
            ((state.next as usize) < MAX_WIDE_IDS).then(|| {
                state.next += 1;
                state.next - 1
            })
        }) else {
            // Exhausted: over-approximate with the saturated value. Sound
            // by the `MetaWord` contract, latched for the session-event
            // surface.
            self.saturated.store(true, Ordering::Release);
            return 0;
        };
        // Write the slot *before* the id escapes the lock; the caller's
        // release-CAS of the embedding word is the publication edge that
        // makes this write visible to lock-free `value()` readers.
        // SAFETY: we hold the mutex; the id is fresh or fully quiesced
        // (freed ids reach `free` only via `process_pending`).
        unsafe { *self.slots[id as usize].get() = Some(value.clone()) };
        self.refs[id as usize].store(1, Ordering::Relaxed);
        state.map.insert(value, id);
        state.peak_live = state.peak_live.max(state.map.len());
        id
    }

    /// Drops one reference on `id`; a count that reaches zero queues the id
    /// for an epoch-gated free.
    pub fn release(&self, id: u32) {
        if id == 0 {
            return;
        }
        if self.refs[id as usize].fetch_sub(1, Ordering::Release) != 1 {
            return;
        }
        let mut state = self.state.lock().expect("poisoned");
        // Re-check under the mutex: a concurrent intern_acquire may have
        // revived the id between our decrement and the lock.
        if !state.queued[id as usize] && self.refs[id as usize].load(Ordering::Relaxed) == 0 {
            state.queued[id as usize] = true;
            let epoch = self.epoch.load(Ordering::Relaxed);
            state.pending.push((id, epoch));
        }
    }

    /// Worker `w` crossed a stream batch boundary: no record application is
    /// in flight on it, so any entry word it read earlier is stale by
    /// contract. Advances the quiescence clock and frees every pending id
    /// all live workers have quiesced past.
    pub fn boundary(&self, w: usize) {
        let now = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        if let Some(slot) = self.worker_epochs.get(w) {
            slot.store(now, Ordering::Release);
        }
        self.process_pending();
    }

    /// Worker `w`'s stream ended: it will never read another entry, so it
    /// must not gate reclamation.
    pub fn retire_worker(&self, w: usize) {
        if let Some(slot) = self.worker_epochs.get(w) {
            slot.store(u64::MAX, Ordering::Release);
        }
        self.process_pending();
    }

    fn process_pending(&self) {
        let min_active = self
            .worker_epochs
            .iter()
            .map(|e| e.load(Ordering::Acquire))
            .min()
            .unwrap_or(u64::MAX);
        let mut state = self.state.lock().expect("poisoned");
        let mut keep = Vec::new();
        for (id, stamped) in std::mem::take(&mut state.pending) {
            if stamped >= min_active {
                keep.push((id, stamped));
                continue;
            }
            state.queued[id as usize] = false;
            if self.refs[id as usize].load(Ordering::Acquire) == 0 {
                // SAFETY: mutex held; every lane quiesced past the release,
                // so no lock-free reader can still hold this id.
                let value = unsafe {
                    (*self.slots[id as usize].get())
                        .take()
                        .expect("pending id had a value")
                };
                let removed = state.map.remove(&value);
                debug_assert_eq!(removed, Some(id), "map/slot coherence");
                state.free.push(id);
            }
            // A non-zero count means the id was revived through the map; it
            // re-queues if it ever drops to zero again.
        }
        state.pending = keep;
    }

    /// Live interned values (including the permanent saturated one).
    pub fn live(&self) -> usize {
        self.state.lock().expect("poisoned").map.len()
    }

    /// High-water mark of [`live`](Self::live).
    pub fn peak_live(&self) -> usize {
        self.state.lock().expect("poisoned").peak_live
    }

    /// Whether the id space ever saturated.
    pub fn is_saturated(&self) -> bool {
        self.saturated.load(Ordering::Acquire)
    }
}

/// Packed fast path and interned wide tier under one roof: the metadata
/// substrate for word-granular concurrent lifeguards.
///
/// The packed half behaves exactly like a bare [`PackedWordTable`]; the
/// analysis owns the bit layout and decides when a state spills to the wide
/// tier (packing the interned id into the word under the ref-transfer
/// contract in the module docs). Constructing both together ties the id
/// lifecycle to the worker-quiescence clock the embedding words are read
/// under.
#[derive(Debug)]
pub struct WordTable<V: MetaWord> {
    packed: PackedWordTable,
    wide: WideInterner<V>,
}

impl<V: MetaWord> WordTable<V> {
    /// An empty table whose wide tier is gated by `workers` replay lanes.
    pub fn new(workers: usize) -> Self {
        WordTable {
            packed: PackedWordTable::new(),
            wide: WideInterner::new(workers),
        }
    }

    /// Load-acquire of one key; untouched keys read 0 without allocating.
    pub fn load(&self, key: u64) -> u64 {
        self.packed.load(key)
    }

    /// CAS-exchange on one key (see [`PackedWordTable::compare_exchange`]).
    pub fn compare_exchange(&self, key: u64, current: u64, new: u64) -> Result<u64, u64> {
        self.packed.compare_exchange(key, current, new)
    }

    /// Calls `f(key, value)` for every key holding a non-zero word.
    pub fn for_each_nonzero(&self, f: impl FnMut(u64, u64)) {
        self.packed.for_each_nonzero(f)
    }

    /// The wide tier.
    pub fn wide(&self) -> &WideInterner<V> {
        &self.wide
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_keys_read_zero_without_allocating() {
        let t = PackedWordTable::new();
        assert_eq!(t.load(0x1234), 0);
        assert!(!t.chunks.is_materialized(0x1234 / WORDS_PER_CHUNK));
        // The degenerate 0 → 0 exchange also stays allocation-free.
        assert_eq!(t.compare_exchange(0x1234, 0, 0), Ok(0));
        assert!(!t.chunks.is_materialized(0x1234 / WORDS_PER_CHUNK));
    }

    #[test]
    fn cas_publishes_and_detects_races() {
        let t = PackedWordTable::new();
        assert_eq!(t.compare_exchange(7, 0, 42), Ok(0));
        assert_eq!(t.load(7), 42);
        // Stale expectation loses and reports the actual value.
        assert_eq!(t.compare_exchange(7, 0, 99), Err(42));
        assert_eq!(t.compare_exchange(7, 42, 99), Ok(42));
        assert_eq!(t.load(7), 99);
        // A non-zero expectation against an untouched chunk loses as 0.
        assert_eq!(t.compare_exchange(WORDS_PER_CHUNK * 50, 5, 6), Err(0));
    }

    #[test]
    fn spill_tier_covers_far_keys() {
        let t = PackedWordTable::new();
        let far = DENSE_CHUNKS * WORDS_PER_CHUNK + 17;
        assert_eq!(t.load(far), 0);
        assert_eq!(t.compare_exchange(far, 0, 3), Ok(0));
        assert_eq!(t.load(far), 3);
        let mut seen = Vec::new();
        t.for_each_nonzero(|k, v| seen.push((k, v)));
        assert_eq!(seen, vec![(far, 3)]);
    }

    #[test]
    fn concurrent_cas_exactly_one_winner_per_transition() {
        let t = PackedWordTable::new();
        let wins: Vec<u64> = std::thread::scope(|scope| {
            (0..4u64)
                .map(|me| {
                    let t = &t;
                    scope.spawn(move || {
                        let mut won = 0u64;
                        for _ in 0..256 {
                            loop {
                                let cur = t.load(9);
                                match t.compare_exchange(9, cur, cur + (1 << me)) {
                                    Ok(_) => {
                                        won += 1;
                                        break;
                                    }
                                    Err(_) => continue,
                                }
                            }
                        }
                        won
                    })
                })
                .collect::<Vec<_>>()
                .into_iter()
                .map(|h| h.join().expect("no panic"))
                .collect()
        });
        // Every increment landed exactly once despite the races.
        assert_eq!(wins, vec![256; 4]);
        assert_eq!(t.load(9), 256 * 0b1111);
    }

    /// A toy wide value exercising the non-`u64` path (vector-clock shaped).
    #[derive(Clone, PartialEq, Eq, Hash, Debug)]
    struct Vc(Vec<(u16, u32)>);

    impl MetaWord for Vc {
        fn saturated() -> Self {
            Vc(vec![(u16::MAX, u32::MAX)])
        }
    }

    #[test]
    fn interner_dedups_and_recycles_after_quiescence() {
        let it: WideInterner<Vc> = WideInterner::new(2);
        let a = it.intern_acquire(Vc(vec![(0, 1)]));
        let b = it.intern_acquire(Vc(vec![(0, 1)]));
        assert_eq!(a, b, "structural equality shares an id");
        assert_ne!(a, 0);
        assert_eq!(it.value_locked(a), Vc(vec![(0, 1)]));
        let c = it.intern_acquire(Vc(vec![(1, 7)]));
        assert_ne!(c, a);
        assert_eq!(it.live(), 3);

        // Two releases drop `a` to zero; it frees only after both lanes
        // cross a boundary past the release.
        it.release(a);
        it.release(b);
        assert_eq!(it.live(), 3, "queued, not yet freed");
        it.boundary(0);
        assert_eq!(it.live(), 3, "one lane still unquiesced");
        it.boundary(1);
        it.boundary(0);
        assert_eq!(it.live(), 2, "freed after full quiescence");

        // The freed id is reused for a fresh value.
        let d = it.intern_acquire(Vc(vec![(2, 9)]));
        assert_eq!(d, a, "free list reuses the quiesced id");
        assert_eq!(it.value_locked(d), Vc(vec![(2, 9)]));
        assert_eq!(it.peak_live(), 3);
        assert!(!it.is_saturated());
    }

    #[test]
    fn interner_saturates_to_id_zero_when_full() {
        let it: WideInterner<u64> = WideInterner::new(1);
        assert_eq!(it.value_locked(0), u64::MAX, "id 0 is the saturated value");
        for v in 0..(MAX_WIDE_IDS as u64 - 1) {
            assert_ne!(it.intern_acquire(v), 0, "distinct live values get ids");
        }
        assert!(!it.is_saturated());
        let overflow = it.intern_acquire(u64::MAX - 1);
        assert_eq!(overflow, 0, "exhaustion saturates to id 0");
        assert!(it.is_saturated());
        // Releasing the saturated id is a no-op.
        it.release(0);
        assert_eq!(it.value_locked(0), u64::MAX);
    }

    #[test]
    fn revived_id_is_not_freed() {
        let it: WideInterner<u64> = WideInterner::new(1);
        let a = it.intern_acquire(42);
        it.release(a);
        // Revive through the map before quiescence.
        let b = it.intern_acquire(42);
        assert_eq!(a, b);
        it.boundary(0);
        it.boundary(0);
        assert_eq!(it.live(), 2, "revived id survives the pending sweep");
        assert_eq!(it.value_locked(b), 42);
    }

    #[test]
    fn revived_id_is_restamped_by_its_next_release() {
        let it: WideInterner<u64> = WideInterner::new(2);
        let x = it.intern_acquire(42);
        it.release(x);
        it.boundary(0);
        // Revived after lane 0's boundary: lane 0 may read the id again, so
        // the stamp of the first release must not free it.
        assert_eq!(it.intern_acquire(42), x);
        it.release(x);
        it.boundary(1);
        assert_eq!(it.value_locked(x), 42, "lane 0 has not quiesced since");
    }

    #[test]
    fn word_table_combines_packed_and_wide_tiers() {
        let t: WordTable<Vc> = WordTable::new(1);
        let id = t.wide().intern_acquire(Vc(vec![(3, 5)]));
        assert_eq!(t.compare_exchange(11, 0, u64::from(id) << 32 | 1), Ok(0));
        let word = t.load(11);
        assert_eq!(t.wide().value_locked((word >> 32) as u32), Vc(vec![(3, 5)]));
        t.wide().retire_worker(0);
    }
}
