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
//! * the wide tier — reference-counted interning of arbitrary wide values
//!   `V` behind one mutex. The **slow path**: when a state outgrows the
//!   packed encoding, the analysis interns the wide value and packs the
//!   returned dense id into the word instead.
//! * [`WordTable<V>`] — both halves under one roof, with the one method
//!   ([`WordTable::update`]) that moves a word from one state to the next.
//!
//! # The one rule
//!
//! A table word that embeds a wide id *holds one reference* on that id, and
//! **a transition whose current or next word embeds a wide id runs entirely
//! under the tier's mutex**: load the word, resolve its id, intern the
//! successor's value, CAS, move the reference. Two things follow. An id is
//! freed — and reusable — the moment its count reaches zero, because nobody
//! can be looking at it: whoever resolves an id holds the lock, and the word
//! it came from cannot change under a lock holder. And a resolved value is
//! always the word's *current* one, never a stale read. Transitions between
//! two words that embed no id (which bits of a word are the id is the
//! caller's to say) never take the mutex: they stay one load-acquire plus
//! at most one CAS.
//!
//! On id exhaustion the tier **saturates**: it hands out the permanent
//! id 0, which stands for [`MetaWord::saturated`] — each analysis' "know
//! nothing, over-approximate" value — and is never counted or stored.
//! Degradation is latched for the session-event surface; it can change
//! precision, never soundness.

use crate::chunks::ChunkDir;
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
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

/// The wide tier's bookkeeping, all of it behind the one mutex.
#[derive(Debug)]
struct TierState<V> {
    /// value → id, for the live values only.
    map: HashMap<V, u32>,
    /// id `n` lives in `slab[n - 1]`: its value and the number of table
    /// words embedding it. `None` is a vacant id on the free list. Grows
    /// with the live set; id 0 (saturated, permanent) is never stored.
    slab: Vec<Option<(V, u32)>>,
    free: Vec<u32>,
    /// High-water mark of live values, the saturated one included.
    peak_live: usize,
}

impl<V: MetaWord> TierState<V> {
    /// The value behind a counted id (never 0, which is not stored).
    fn value(&self, id: u32) -> V {
        match self.slab.get(id as usize - 1) {
            Some(Some((value, _))) => value.clone(),
            _ => panic!("wide id {id} resolved while vacant"),
        }
    }

    /// The id for `value` with one reference taken on it, or `None` when
    /// [`MAX_WIDE_IDS`] values are live already.
    fn acquire(&mut self, value: V) -> Option<u32> {
        if value == V::saturated() {
            return Some(0);
        }
        if let Some(&id) = self.map.get(&value) {
            let (_, refs) = self.slab[id as usize - 1]
                .as_mut()
                .expect("mapped id is live");
            *refs += 1;
            return Some(id);
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None if self.slab.len() + 1 < MAX_WIDE_IDS => {
                self.slab.push(None);
                self.slab.len() as u32
            }
            None => return None,
        };
        self.slab[id as usize - 1] = Some((value.clone(), 1));
        self.map.insert(value, id);
        self.peak_live = self.peak_live.max(self.map.len() + 1);
        Some(id)
    }

    /// Drops one reference on `id`; at zero the id is vacant and reusable
    /// at once. A live id's count is never zero, so releasing one nobody
    /// holds finds it vacant and panics rather than wrap a count.
    fn release(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let slot = self.slab.get_mut(id as usize - 1);
        let Some((value, refs)) = slot.and_then(Option::as_mut) else {
            panic!("wide id {id} released with no reference outstanding");
        };
        *refs -= 1;
        if *refs == 0 {
            let removed = self.map.remove(value);
            debug_assert_eq!(removed, Some(id), "map/slab coherence");
            self.slab[id as usize - 1] = None;
            self.free.push(id);
        }
    }
}

/// Interns wide metadata values into dense u32 ids so one packed
/// [`PackedWordTable`] word can reference state that outgrew it: one mutex
/// over a slab of the live values, sized by them — a session's peak is a
/// few dozen lock masks or a few thousand read vector clocks, and a fresh
/// tier allocates nothing.
#[derive(Debug)]
struct WideTier<V> {
    state: Mutex<TierState<V>>,
    /// Latched on first saturation; read by the session-event surface.
    saturated: AtomicBool,
}

impl<V: MetaWord> WideTier<V> {
    fn new() -> Self {
        WideTier {
            state: Mutex::new(TierState {
                map: HashMap::new(),
                slab: Vec::new(),
                free: Vec::new(),
                peak_live: 1,
            }),
            saturated: AtomicBool::new(false),
        }
    }

    fn lock(&self) -> MutexGuard<'_, TierState<V>> {
        self.state.lock().expect("poisoned")
    }
}

/// The wide tier as one [`WordTable::update`] sees it: the mutex is taken
/// the first time the transition needs it and held until the update
/// returns.
#[derive(Debug)]
pub struct WideGuard<'a, V: MetaWord> {
    tier: &'a WideTier<V>,
    state: Option<MutexGuard<'a, TierState<V>>>,
    /// The id this attempt interned (0: none): published with the word or
    /// released by [`WordTable::update`].
    acquired: u32,
}

impl<V: MetaWord> WideGuard<'_, V> {
    fn state(&mut self) -> &mut TierState<V> {
        self.state.get_or_insert_with(|| self.tier.lock())
    }

    /// The value behind the id the current word embeds, or behind one this
    /// attempt interned. Id 0 is [`MetaWord::saturated`] and takes no lock.
    #[inline]
    pub fn value(&mut self, id: u32) -> V {
        if id == 0 {
            return V::saturated();
        }
        self.state().value(id)
    }

    /// The id for `value`, to be embedded in the step's successor word;
    /// interns the value if new, saturates to id 0 (and latches the
    /// degradation) when [`MAX_WIDE_IDS`] values are live. One id per
    /// attempt: a second call drops the first one's reference.
    pub fn intern(&mut self, value: V) -> u32 {
        let previous = self.acquired;
        let state = self.state();
        state.release(previous);
        let id = state.acquire(value);
        if id.is_none() {
            // Exhausted: over-approximate with the saturated value. Sound
            // by the `MetaWord` contract.
            self.tier.saturated.store(true, Ordering::Release);
        }
        self.acquired = id.unwrap_or(0);
        self.acquired
    }

    #[inline]
    fn release(&mut self, id: u32) {
        if id != 0 {
            self.state().release(id);
        }
    }
}

/// Packed fast path and interned wide tier under one roof: the metadata
/// substrate for word-granular concurrent lifeguards.
///
/// The analysis owns the bit layout and decides when a state spills to the
/// wide tier; every transition goes through [`update`](Self::update), which
/// keeps the module's one rule.
#[derive(Debug)]
pub struct WordTable<V: MetaWord> {
    packed: PackedWordTable,
    wide: WideTier<V>,
}

impl<V: MetaWord> Default for WordTable<V> {
    fn default() -> Self {
        WordTable::new()
    }
}

impl<V: MetaWord> WordTable<V> {
    /// An empty table: no chunk and no per-id storage until first use.
    pub fn new() -> Self {
        WordTable {
            packed: PackedWordTable::new(),
            wide: WideTier::new(),
        }
    }

    /// Load-acquire of one key; untouched keys read 0 without allocating.
    pub fn load(&self, key: u64) -> u64 {
        self.packed.load(key)
    }

    /// Moves `key`'s word through one transition. `step` maps the current
    /// word to its successor (plus whatever the caller wants back),
    /// resolving and interning wide values through the [`WideGuard`];
    /// `id_of` names the wide id a word embeds (0: none). The successor is
    /// CAS-published, `step` re-run from a fresh load on a lost race, and
    /// the result of the attempt that landed — or found nothing to change —
    /// returned.
    ///
    /// This is the one place references move: the successor's id is
    /// acquired (by [`WideGuard::intern`]) before the CAS; after it the
    /// displaced word's id is released on success, the acquired one on
    /// failure or when the word kept its id. Per the module's rule the
    /// mutex is held across all of it whenever either word embeds an id,
    /// and never taken otherwise.
    #[inline]
    pub fn update<R>(
        &self,
        key: u64,
        id_of: impl Fn(u64) -> u32,
        mut step: impl FnMut(u64, &mut WideGuard<'_, V>) -> (u64, R),
    ) -> R {
        let mut wide = WideGuard {
            tier: &self.wide,
            state: None,
            acquired: 0,
        };
        loop {
            let mut cur = self.packed.load(key);
            if id_of(cur) != 0 && wide.state.is_none() {
                // Words that embed an id change only under the lock: take
                // it, then read the word this attempt will work from.
                wide.state();
                cur = self.packed.load(key);
            }
            let (next, out) = step(cur, &mut wide);
            let acquired = std::mem::take(&mut wide.acquired);
            if next == cur {
                wide.release(acquired);
                return out; // §5.3 fast path: one load-acquire, no store
            }
            match self.packed.compare_exchange(key, cur, next) {
                Ok(_) => {
                    let (old, new) = (id_of(cur), id_of(next));
                    if old != new {
                        // The word owns the acquired reference now; the
                        // displaced id lost the word's.
                        debug_assert!(new == acquired, "a word embeds the id its step interned");
                        wide.release(old);
                    } else {
                        wide.release(acquired);
                    }
                    return out;
                }
                // Lost to a concurrent (arc-unordered) access of the same
                // key: recompute from its published state.
                Err(_) => wide.release(acquired),
            }
        }
    }

    /// Calls `f(key, word, wide)` for every key holding a non-zero word,
    /// `wide` being the value behind the id the word embeds (`None` when
    /// `id_of` says it embeds none). The mutex is taken per wide word, not
    /// across the walk, so a status scrape of a live session never stalls
    /// its lanes for longer than one lookup.
    pub fn for_each_nonzero(
        &self,
        id_of: impl Fn(u64) -> u32,
        mut f: impl FnMut(u64, u64, Option<V>),
    ) {
        self.packed.for_each_nonzero(|key, mut word| {
            let mut wide = None;
            if id_of(word) != 0 {
                let state = self.wide.lock();
                word = self.packed.load(key);
                wide = Some(id_of(word))
                    .filter(|&id| id != 0)
                    .map(|id| state.value(id));
            }
            f(key, word, wide);
        });
    }

    /// Live interned values (including the permanent saturated one).
    pub fn live(&self) -> usize {
        self.wide.lock().map.len() + 1
    }

    /// High-water mark of [`live`](Self::live).
    pub fn peak_live(&self) -> usize {
        self.wide.lock().peak_live
    }

    /// Whether the wide tier ever saturated.
    pub fn is_saturated(&self) -> bool {
        self.wide.saturated.load(Ordering::Acquire)
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

    /// The tests' word layout: bit 0 set on every stored word, bit 1 marks
    /// a wide word whose id sits in bits 32–63, packed words count in
    /// bits 2–31.
    const WIDE: u64 = 0b11;

    fn wide_word(id: u32) -> u64 {
        u64::from(id) << 32 | WIDE
    }

    fn id_of(word: u64) -> u32 {
        if word & WIDE == WIDE {
            (word >> 32) as u32
        } else {
            0
        }
    }

    fn tier<V: MetaWord>() -> TierState<V> {
        WideTier::new().state.into_inner().expect("fresh")
    }

    #[test]
    fn interner_dedups_and_recycles_immediately() {
        let mut it = tier::<Vc>();
        let a = it.acquire(Vc(vec![(0, 1)])).unwrap();
        let b = it.acquire(Vc(vec![(0, 1)])).unwrap();
        assert_eq!(a, b, "structural equality shares an id");
        assert_ne!(a, 0);
        assert_eq!(it.value(a), Vc(vec![(0, 1)]));
        let c = it.acquire(Vc(vec![(1, 7)])).unwrap();
        assert_ne!(c, a);
        assert_eq!(it.map.len(), 2);

        // Two references, two releases: the id is vacant the moment the
        // second one lands, with no boundary to wait for.
        it.release(a);
        assert_eq!(it.map.len(), 2, "one reference still out");
        it.release(b);
        assert_eq!(it.map.len(), 1, "freed at zero");

        // The freed id is reused for a fresh value.
        let d = it.acquire(Vc(vec![(2, 9)])).unwrap();
        assert_eq!(d, a, "free list reuses the id");
        assert_eq!(it.value(d), Vc(vec![(2, 9)]));
        assert_eq!(it.peak_live, 3, "two values and the saturated one");
        assert_eq!(it.slab.len(), 2, "the slab never outgrew the live set");
    }

    #[test]
    fn interner_saturates_to_id_zero_when_full() {
        let t: WordTable<u64> = WordTable::new();
        let mut wide = WideGuard {
            tier: &t.wide,
            state: None,
            acquired: 0,
        };
        assert_eq!(wide.value(0), u64::MAX, "id 0 is the saturated value");
        assert!(wide.state.is_none(), "and resolving it takes no lock");
        assert_eq!(wide.intern(u64::MAX), 0, "interning it stores nothing");
        for v in 0..(MAX_WIDE_IDS as u64 - 1) {
            assert_ne!(wide.intern(v), 0, "distinct live values get ids");
            wide.acquired = 0; // as if a word had published it
        }
        assert!(!t.is_saturated());
        assert_eq!(wide.intern(u64::MAX - 1), 0, "exhaustion saturates to id 0");
        assert!(t.is_saturated());
        // Releasing the saturated id is a no-op, and one freed id is one
        // more value the tier can hold: the cap is on *live* values.
        wide.release(0);
        wide.release(7);
        assert_ne!(wide.intern(u64::MAX - 1), 0);
        drop(wide);
        assert_eq!(t.live(), MAX_WIDE_IDS);
        assert_eq!(t.peak_live(), MAX_WIDE_IDS);
    }

    #[test]
    fn released_value_revives_through_the_map() {
        let mut it = tier::<u64>();
        let a = it.acquire(42).unwrap();
        assert_eq!(it.acquire(42), Some(a));
        it.release(a);
        // One reference left: the value is still mapped, and a new holder
        // finds the same id.
        assert_eq!(it.acquire(42), Some(a));
        assert_eq!(it.value(a), 42);
        it.release(a);
        it.release(a);
        assert!(it.map.is_empty(), "the last release frees");
        // Gone is gone: the next holder interns afresh, with its own count.
        let b = it.acquire(42).unwrap();
        assert_eq!(it.value(b), 42);
        it.release(b);
        assert!(it.map.is_empty());
    }

    #[test]
    #[should_panic(expected = "wide id 3 released with no reference outstanding")]
    fn release_of_a_never_interned_id_panics() {
        let mut it = tier::<u64>();
        it.acquire(1).unwrap();
        it.release(3);
    }

    #[test]
    #[should_panic(expected = "wide id 1 released with no reference outstanding")]
    fn release_past_zero_panics_instead_of_wrapping() {
        let mut it = tier::<u64>();
        let a = it.acquire(42).unwrap();
        assert_eq!(a, 1);
        it.release(a);
        it.release(a);
    }

    #[test]
    fn fresh_table_allocates_no_per_id_storage() {
        let t: WordTable<Vc> = WordTable::new();
        {
            let state = t.wide.lock();
            assert_eq!(
                (
                    state.map.capacity(),
                    state.slab.capacity(),
                    state.free.capacity()
                ),
                (0, 0, 0)
            );
        }
        assert_eq!((t.live(), t.peak_live()), (1, 1));
        t.update(5, id_of, |_, wide| {
            (wide_word(wide.intern(Vc(vec![(1, 1)]))), ())
        });
        assert_eq!(t.wide.lock().slab.len(), 1, "one slot for one live value");
    }

    #[test]
    fn word_table_combines_packed_and_wide_tiers() {
        let t: WordTable<Vc> = WordTable::new();
        // Packed → packed: the tier is never locked.
        t.update(11, id_of, |cur, wide| {
            assert_eq!(cur, 0);
            assert!(wide.state.is_none());
            (0b101, ())
        });
        assert!(t.update(11, id_of, |cur, wide| (cur, wide.state.is_none())));
        // Packed → wide: locked by the intern, reference held by the word.
        t.update(11, id_of, |_, wide| {
            (wide_word(wide.intern(Vc(vec![(3, 5)]))), ())
        });
        let id = id_of(t.load(11));
        assert_ne!(id, 0);
        assert_eq!(t.live(), 2);
        // Wide → wide on the same value: locked before the step runs, the
        // surplus reference dropped, the word's kept.
        t.update(11, id_of, |cur, wide| {
            assert!(wide.state.is_some(), "a wide word is read under the lock");
            assert_eq!(wide.value(id_of(cur)), Vc(vec![(3, 5)]));
            (wide_word(wide.intern(Vc(vec![(3, 5)]))), ())
        });
        assert_eq!(
            t.wide.lock().slab[id as usize - 1],
            Some((Vc(vec![(3, 5)]), 1))
        );
        let mut seen = Vec::new();
        t.for_each_nonzero(id_of, |key, word, wide| seen.push((key, word, wide)));
        assert_eq!(seen, vec![(11, wide_word(id), Some(Vc(vec![(3, 5)])))]);
        // Wide → packed: the displaced id is gone right away.
        t.update(11, id_of, |_, _| (0b1001, ()));
        assert_eq!((t.live(), t.peak_live()), (1, 2));
    }

    #[test]
    fn wide_words_resolve_in_the_spill_tier_too() {
        // The walk re-reads each wide word under the tier's lock, which
        // for a far key goes back through the spill map: the directory
        // must not be holding that map's lock across the callback.
        let t: WordTable<Vc> = WordTable::new();
        let far = DENSE_CHUNKS * WORDS_PER_CHUNK + 17;
        t.update(far, id_of, |_, wide| {
            (wide_word(wide.intern(Vc(vec![(4, 4)]))), ())
        });
        let mut seen = Vec::new();
        t.for_each_nonzero(id_of, |key, _, wide| seen.push((key, wide)));
        assert_eq!(seen, vec![(far, Some(Vc(vec![(4, 4)])))]);
    }

    /// Four threads push 8 keys through packed and wide states drawn from a
    /// 16-value pool, so ids free and recycle constantly and CASes are lost
    /// all the time. Afterwards the books must balance: every live id's
    /// count is the number of words embedding it, and nothing else is live.
    /// A leaked reference shows up as a surplus count, a double release as
    /// a panic or a missing one.
    #[test]
    fn racing_churn_leaves_every_count_equal_to_its_embedding_words() {
        const KEYS: u64 = 8;
        const POOL: u64 = 16;
        let pool = |n: u64| Vc(vec![(n as u16, n as u32 * 7 + 1)]);
        let t: WordTable<Vc> = WordTable::new();
        std::thread::scope(|scope| {
            for seed in 1..=4u64 {
                let t = &t;
                scope.spawn(move || {
                    let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let mut draw = move || {
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        rng
                    };
                    for _ in 0..25_000 {
                        let (key, pick, decoy) =
                            (draw() % KEYS, draw() % (POOL + 4), draw() % POOL);
                        t.update(key, id_of, |cur, wide| {
                            if id_of(cur) != 0 {
                                // Resolves to a pool value, never a vacant
                                // or recycled-under-us slot.
                                let Vc(v) = wide.value(id_of(cur));
                                assert_eq!(v[0].1, u32::from(v[0].0) * 7 + 1);
                            }
                            if pick >= POOL {
                                return (((cur & !WIDE & 0xFFFF_FFFF) + 0b100) | 1, ());
                            }
                            if decoy % 4 == 0 {
                                wide.intern(pool(decoy)); // dropped by the next intern
                            }
                            (wide_word(wide.intern(pool(pick))), ())
                        });
                    }
                });
            }
        });

        let mut embedding = HashMap::new();
        for key in 0..KEYS {
            let id = id_of(t.load(key));
            if id != 0 {
                *embedding.entry(id).or_insert(0u32) += 1;
            }
        }
        let state = t.wide.lock();
        let counts: HashMap<u32, u32> = state
            .slab
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|(_, refs)| (i as u32 + 1, *refs)))
            .collect();
        assert_eq!(counts, embedding, "refcounts vs. words embedding each id");
        assert_eq!(state.map.len(), embedding.len());
        assert_eq!(state.free.len() + counts.len(), state.slab.len());
        assert!(
            state.peak_live <= KEYS as usize + 4 + 1,
            "live set is the words plus one attempt per thread"
        );
        drop(state);
        assert_eq!(t.live(), embedding.len() + 1, "exactly that set plus id 0");
        assert!(!t.is_saturated());
    }
}
