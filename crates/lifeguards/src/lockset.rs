//! LOCKSET: Eraser-style data-race detection (Savage et al.), the paper's
//! example of a lifeguard that *violates* §5.3 condition 2.
//!
//! LockSet maintains, per shared variable, the candidate set of locks that
//! consistently protected it. Because a mere application *read* can shrink
//! the candidate set, read handlers perform metadata **writes** — enforced
//! arcs alone no longer guarantee atomicity. Following §5.3, the
//! implementation splits read handlers into a *synchronization-free fast
//! path* (pure candidate-set check, no state change needed) and a locked
//! *slow path* (single metadata write under a lock); the platform charges
//! [`CostModel::slow_path_sync`](crate::cost::CostModel::slow_path_sync) when
//! [`HandlerCtx::slow_path`] is set.

use crate::factory::{ConcurrentLifeguard, DegradationNotice, VersionedMeta};
use crate::lifeguard::{
    EventView, Fingerprint, HandlerCtx, Lifeguard, LifeguardSpec, Violation, ViolationKind,
    ViolationLog,
};
use paralog_events::{
    check_view, AddrRange, CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, MetaOp,
    Rid, ThreadId,
};
use paralog_meta::{MetaWord, WideGuard, WordTable, MAX_WIDE_IDS};
use paralog_order::CaPolicy;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

/// Eraser's per-variable state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VarState {
    /// Never accessed.
    Virgin,
    /// Accessed by a single thread so far.
    Exclusive(ThreadId),
    /// Read-shared by multiple threads, never written after sharing.
    Shared,
    /// Written by multiple threads — candidate-set emptiness is a race.
    SharedModified,
}

#[derive(Debug, Clone)]
struct VarEntry {
    state: VarState,
    /// Candidate lock set as a bitmask over lock ids (< 64).
    candidates: u64,
    reported: bool,
}

/// Analysis-wide shared state: per-variable lockset table.
#[derive(Debug, Default)]
pub struct LockSetShared {
    vars: HashMap<u64, VarEntry>,
}

impl LockSetShared {
    /// Fresh state.
    pub fn new() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(LockSetShared::default()))
    }
}

/// One lifeguard thread of the parallel LOCKSET.
#[derive(Debug)]
pub struct LockSet {
    shared: Rc<RefCell<LockSetShared>>,
    /// Locks currently held by the monitored thread (bitmask).
    held: u64,
    tid: ThreadId,
    spec: LifeguardSpec,
}

/// Word granularity of race detection (4 bytes, like Eraser).
const GRANULE: u64 = 4;

/// Start of the synchronization-object address space. Accesses to lock and
/// barrier words are synchronization, not data — Eraser excludes them.
/// Mirrors `paralog_sim::sync::SYNC_BASE` (asserted equal in the
/// integration tests to avoid a dependency cycle).
pub const SYNC_SPACE_START: u64 = 0xF000_0000;

impl LockSet {
    /// Creates the lifeguard thread monitoring application thread `tid`.
    pub fn new(shared: Rc<RefCell<LockSetShared>>, tid: ThreadId) -> Self {
        LockSet {
            shared,
            held: 0,
            tid,
            spec: LifeguardSpec {
                name: "LockSet",
                view: EventView::Check,
                uses_it: false,
                uses_if: false,
                uses_mtlb: true,
                ca_policy: CaPolicy::new(),
                bits_per_byte: 8,
            },
        }
    }

    /// The monitored thread's currently held locks (bitmask; diagnostic).
    pub fn held(&self) -> u64 {
        self.held
    }

    fn check_granule(&mut self, word: u64, writes: bool, rid: Rid, ctx: &mut HandlerCtx) {
        let mut shared = self.shared.borrow_mut();
        let entry = shared.vars.entry(word).or_insert(VarEntry {
            state: VarState::Virgin,
            candidates: u64::MAX,
            reported: false,
        });
        let held = self.held;
        let (new_state, new_candidates) = match entry.state {
            VarState::Virgin => (VarState::Exclusive(self.tid), entry.candidates),
            VarState::Exclusive(owner) if owner == self.tid => {
                // Fast path: no metadata change.
                (entry.state, entry.candidates)
            }
            VarState::Exclusive(_) => {
                let next = if writes {
                    VarState::SharedModified
                } else {
                    VarState::Shared
                };
                (next, held)
            }
            VarState::Shared => {
                let next = if writes {
                    VarState::SharedModified
                } else {
                    VarState::Shared
                };
                (next, entry.candidates & held)
            }
            VarState::SharedModified => (VarState::SharedModified, entry.candidates & held),
        };
        let changed = new_state != entry.state || new_candidates != entry.candidates;
        if changed && !writes {
            // §5.3: a metadata write in a read handler is the slow path.
            ctx.slow_path = true;
        }
        entry.state = new_state;
        entry.candidates = new_candidates;
        if entry.state == VarState::SharedModified && entry.candidates == 0 && !entry.reported {
            entry.reported = true;
            ctx.report(Violation {
                tid: self.tid,
                rid,
                kind: ViolationKind::DataRace,
                addr: Some(word),
            });
        }
    }
}

impl Lifeguard for LockSet {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        let (mem, kind) = match *op {
            MetaOp::CheckAccess { mem, kind } => (mem, kind),
            // Lock words themselves are not subject to lockset analysis.
            MetaOp::RmwOp { .. } => return,
            _ => return,
        };
        if mem.addr >= SYNC_SPACE_START {
            // Synchronization objects (lock words, barrier slots/flags) are
            // accessed racily by construction.
            return;
        }
        let first = mem.addr / GRANULE;
        let last = (mem.addr + mem.size as u64 - 1) / GRANULE;
        for word in first..=last {
            ctx.touch_read(AddrRange::new(0x6000_0000_0000 + word * 8, 8));
            self.check_granule(word * GRANULE, kind.writes(), rid, ctx);
        }
    }

    fn handle_ca(&mut self, ca: &CaRecord, own: bool, _rid: Rid, _ctx: &mut HandlerCtx) {
        if !own {
            return;
        }
        match ca.what {
            HighLevelKind::Lock(lock) if ca.phase == CaPhase::End => {
                self.held |= 1u64 << (lock.0 % 64);
            }
            HighLevelKind::Unlock(lock) if ca.phase == CaPhase::Begin => {
                self.held &= !(1u64 << (lock.0 % 64));
            }
            _ => {}
        }
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        // Lockset state is not byte-shadow metadata; versioning does not
        // apply (LockSet is evaluated under SC only).
        vec![0; range.len as usize]
    }

    fn fingerprint(&self) -> u64 {
        let shared = self.shared.borrow();
        let mut fp = Fingerprint::new();
        for (word, entry) in &shared.vars {
            let state_code = match entry.state {
                VarState::Virgin => 0u64,
                VarState::Exclusive(t) => 1 + u64::from(t.0),
                VarState::Shared => 1 << 32,
                VarState::SharedModified => 2 << 32,
            };
            fp.mix(*word, state_code ^ entry.candidates);
        }
        fp.finish()
    }
}

/// Packed-entry state codes for the concurrent form (bits 0–1 of the
/// packed [`WordTable`] word). The all-zero word is reserved for
/// never-touched keys, so `Virgin` *is* 0 and every real state is non-zero.
const S_VIRGIN: u64 = 0;
const S_EXCLUSIVE: u64 = 1;
const S_SHARED: u64 = 2;
const S_SHARED_MOD: u64 = 3;
/// Bit 2: the once-per-variable race report fired.
const REPORTED_BIT: u64 = 1 << 2;
/// Bits 16–31: owner thread (Exclusive state only).
const OWNER_SHIFT: u64 = 16;
/// Bits 32–63: interned candidate-lockset id.
const SET_SHIFT: u64 = 32;

fn pack(state: u64, owner: u16, set_id: u32, reported: bool) -> u64 {
    state
        | if reported { REPORTED_BIT } else { 0 }
        | (u64::from(owner) << OWNER_SHIFT)
        | (u64::from(set_id) << SET_SHIFT)
}

/// The interned candidate-set id a word embeds (0, the never-counted full
/// set, in `Virgin` and `Exclusive` states).
fn set_id(word: u64) -> u32 {
    (word >> SET_SHIFT) as u32
}

/// The `Send + Sync` replay form of LOCKSET driven by the real-thread
/// backend: the §5.3 **fast-path/slow-path split** made concrete for the
/// paper's canonical condition-2 violator.
///
/// Each variable's whole Eraser state — state machine code, owning thread,
/// `reported` flag and an *interned* candidate-lockset id — packs into one
/// fast-path word of a [`WordTable`], with the masks themselves interned
/// into its wide tier. The common case (a same-thread re-access in
/// `Exclusive` state) is a single load-acquire: no store, no lock, nothing
/// for another worker to contend on. A transition that must write metadata
/// publishes the recomputed word with a CAS-exchange, retrying from a fresh
/// read on a lost race; the only mutex anywhere is the wide tier's, held
/// across an access to a variable that is — or is becoming — shared, the
/// structural slow path (0.005–0.09 such accesses per record on the
/// bundled captures). Per-variable transitions are confluent under the
/// enforced arcs (intersection is commutative; writes are always
/// arc-ordered), so the CAS linearization reproduces the deterministic
/// backend's final metadata, and the `reported` bit makes the
/// once-per-variable race report exact even when unordered reads race to
/// observe the empty set.
pub struct LockSetConcurrent {
    /// word-granule index → packed Eraser state, with candidate masks
    /// interned into the wide tier (`u64` wide values: the mask *is* the
    /// wide state).
    words: WordTable<u64>,
    /// Locks currently held per monitored thread. Thread-private by the
    /// backend's contract (each stream's records are applied only by the
    /// worker owning it), so relaxed atomics suffice — no lock on the
    /// per-access read.
    held: Vec<std::sync::atomic::AtomicU64>,
    violations: ViolationLog,
    /// Tells a live feed's observer, once, when saturation first latches.
    notice: DegradationNotice,
}

impl std::fmt::Debug for LockSetConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The word table is a directory of 64 KiB chunks; a compact
        // summary beats the derived dump.
        f.debug_struct("LockSetConcurrent")
            .field("threads", &self.held.len())
            .finish_non_exhaustive()
    }
}

impl LockSetConcurrent {
    /// A fresh concurrent LOCKSET for `threads` replayed streams. The word
    /// table grows lazily as accesses arrive, so streams may be ingested
    /// incrementally — no footprint pre-scan.
    pub fn new(threads: usize) -> Self {
        LockSetConcurrent {
            words: WordTable::new(),
            held: (0..threads)
                .map(|_| std::sync::atomic::AtomicU64::new(0))
                .collect(),
            violations: ViolationLog::new(),
            notice: DegradationNotice::default(),
        }
    }

    /// The once-per-session degradation notice (shared by the end-of-run
    /// [`session_events`](ConcurrentLifeguard::session_events) sweep and the
    /// incremental observer path).
    fn degraded_event() -> crate::SessionEvent {
        crate::SessionEvent::DegradedPrecision {
            lifeguard: "LockSet",
            detail: format!(
                "mask interner exhausted ({MAX_WIDE_IDS} live candidate masks); \
                 further refinements saturate to the full set (reports stay \
                 sound, some races may go unreported)"
            ),
        }
    }

    /// One Eraser transition from entry word `cur` — the state machine
    /// [`check_granule`] hands to [`WordTable::update`].
    ///
    /// Returns the successor word (without the report bit) and the mask
    /// behind its candidate set; sets `interned` when it asked the tier for
    /// an id (the only place saturation can newly occur).
    ///
    /// [`check_granule`]: Self::check_granule
    fn step_word(
        cur: u64,
        writes: bool,
        held: u64,
        tid: ThreadId,
        wide: &mut WideGuard<'_, u64>,
        interned: &mut bool,
    ) -> (u64, u64) {
        let state = cur & 0b11;
        let owner = ((cur >> OWNER_SHIFT) & 0xFFFF) as u16;
        let reported = cur & REPORTED_BIT != 0;
        match state {
            S_VIRGIN => (pack(S_EXCLUSIVE, tid.0, 0, false), u64::MAX),
            S_EXCLUSIVE if owner == tid.0 => (cur, u64::MAX), // pure fast path
            S_EXCLUSIVE => {
                let next = if writes { S_SHARED_MOD } else { S_SHARED };
                *interned = true;
                let id = wide.intern(held);
                (pack(next, 0, id, reported), wide.value(id)) // saturation may widen held
            }
            S_SHARED | S_SHARED_MOD => {
                let next = if writes || state == S_SHARED_MOD {
                    S_SHARED_MOD
                } else {
                    S_SHARED
                };
                let candidates = wide.value(set_id(cur));
                let refined = candidates & held;
                if refined == candidates {
                    // No refinement: nothing to store when the state holds too.
                    (pack(next, 0, set_id(cur), reported), candidates)
                } else {
                    *interned = true;
                    let id = wide.intern(refined);
                    (pack(next, 0, id, reported), wide.value(id))
                }
            }
            _ => unreachable!("2-bit state"),
        }
    }

    /// One granule's state transition — the concurrent mirror of
    /// [`LockSet::check_granule`]'s match, CAS-published by
    /// [`WordTable::update`], which also moves the entry's one reference
    /// from the displaced set id to the new one.
    fn check_granule(&self, word: u64, writes: bool, held: u64, tid: ThreadId, rid: Rid) {
        let mut interned = false;
        let report = self.words.update(word / GRANULE, set_id, |cur, wide| {
            let (next, next_mask) = Self::step_word(cur, writes, held, tid, wide, &mut interned);
            // Once-per-variable race report: empty candidate set on a
            // written-shared variable, not yet reported.
            let report = next & 0b11 == S_SHARED_MOD && next & REPORTED_BIT == 0 && next_mask == 0;
            (if report { next | REPORTED_BIT } else { next }, report)
        });
        // The tier's lock is dropped: tell a live feed's observer, the
        // first time saturation latches.
        if interned {
            self.notice
                .note(self.words.is_saturated(), Self::degraded_event);
        }
        if report {
            // The CAS winner owns the report: exactly one per variable,
            // however many readers raced it.
            self.violations.push(Violation {
                tid,
                rid,
                kind: ViolationKind::DataRace,
                addr: Some(word),
            });
        }
    }

    /// Interned candidate masks currently live (soak/bench diagnostic).
    pub fn interned_masks(&self) -> usize {
        self.words.live()
    }

    /// High-water mark of [`interned_masks`](Self::interned_masks).
    pub fn peak_interned_masks(&self) -> usize {
        self.words.peak_live()
    }

    /// Whether the interner has saturated to the conservative full set at
    /// least once this session.
    pub fn degraded(&self) -> bool {
        self.words.is_saturated()
    }
}

impl ConcurrentLifeguard for LockSetConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, _versioned: Option<&VersionedMeta>) {
        match &rec.payload {
            EventPayload::Instr(instr) => {
                let Some(MetaOp::CheckAccess { mem, kind }) = check_view(instr) else {
                    return;
                };
                if mem.addr >= SYNC_SPACE_START {
                    // Synchronization objects are accessed racily by
                    // construction; Eraser excludes them.
                    return;
                }
                let held = self.held[tid.index()].load(std::sync::atomic::Ordering::Relaxed);
                let first = mem.addr / GRANULE;
                let last = (mem.addr + u64::from(mem.size) - 1) / GRANULE;
                for word in first..=last {
                    self.check_granule(word * GRANULE, kind.writes(), held, tid, rec.rid);
                }
            }
            EventPayload::Ca(ca) => {
                // Lock ownership is per-thread state: only the issuer's own
                // stream copy updates it (remote copies order).
                if ca.issuer != tid {
                    return;
                }
                use std::sync::atomic::Ordering;
                let held = &self.held[tid.index()];
                match ca.what {
                    HighLevelKind::Lock(lock) if ca.phase == CaPhase::End => {
                        held.fetch_or(1u64 << (lock.0 % 64), Ordering::Relaxed);
                    }
                    HighLevelKind::Unlock(lock) if ca.phase == CaPhase::Begin => {
                        held.fetch_and(!(1u64 << (lock.0 % 64)), Ordering::Relaxed);
                    }
                    _ => {}
                }
            }
        }
    }

    fn ca_policy(&self) -> CaPolicy {
        // Mirrors the sequential spec: LOCKSET orders entirely through
        // dependence arcs; no CA subscriptions, no §5.4 range tracking.
        CaPolicy::new()
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        // Lockset state is not byte-shadow metadata; §5.5 versioning does
        // not apply (identical to the sequential form's all-clean answer).
        vec![0; range.len as usize]
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        self.words
            .for_each_nonzero(set_id, |key, entry, candidates| {
                let owner = ((entry >> OWNER_SHIFT) & 0xFFFF) as u16;
                let state_code = match entry & 0b11 {
                    S_EXCLUSIVE => 1 + u64::from(owner),
                    S_SHARED => 1 << 32,
                    S_SHARED_MOD => 2 << 32,
                    _ => unreachable!("stored entries are never virgin"),
                };
                let candidates = candidates.unwrap_or_else(u64::saturated);
                fp.mix(key * GRANULE, state_code ^ candidates);
            });
        fp.finish()
    }

    fn violations(&self) -> Vec<Violation> {
        self.violations.snapshot()
    }

    fn violations_since(&self, from: usize) -> Vec<Violation> {
        self.violations.since(from)
    }

    fn session_events(&self) -> Vec<crate::SessionEvent> {
        self.notice
            .events(self.words.is_saturated(), Self::degraded_event)
    }

    fn set_event_observer(&self, observer: crate::SessionEventObserver) {
        self.notice.set_observer(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SessionEvent;
    use paralog_events::{AccessKind, LockId, MemRef};

    fn lock_ca(id: u32, phase: CaPhase, what_lock: bool) -> CaRecord {
        CaRecord {
            what: if what_lock {
                HighLevelKind::Lock(LockId(id))
            } else {
                HighLevelKind::Unlock(LockId(id))
            },
            phase,
            range: None,
            issuer: ThreadId(0),
            issuer_rid: Rid(1),
            seq: 0,
        }
    }

    fn access(addr: u64, write: bool) -> MetaOp {
        MetaOp::CheckAccess {
            mem: MemRef::new(addr, 4),
            kind: if write {
                AccessKind::Write
            } else {
                AccessKind::Read
            },
        }
    }

    fn two_threads() -> (LockSet, LockSet) {
        let shared = LockSetShared::new();
        (
            LockSet::new(Rc::clone(&shared), ThreadId(0)),
            LockSet::new(Rc::clone(&shared), ThreadId(1)),
        )
    }

    #[test]
    fn consistent_locking_is_silent() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle_ca(&lock_ca(1, CaPhase::End, true), true, Rid(1), &mut ctx);
        a.handle(&access(0x100, true), Rid(2), &mut ctx);
        a.handle_ca(&lock_ca(1, CaPhase::Begin, false), true, Rid(3), &mut ctx);
        b.handle_ca(&lock_ca(1, CaPhase::End, true), true, Rid(1), &mut ctx);
        b.handle(&access(0x100, true), Rid(2), &mut ctx);
        b.handle_ca(&lock_ca(1, CaPhase::Begin, false), true, Rid(3), &mut ctx);
        assert!(ctx.violations.is_empty());
    }

    #[test]
    fn unprotected_sharing_reports_race_once() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x100, true), Rid(1), &mut ctx);
        b.handle(&access(0x100, true), Rid(1), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(ctx.violations[0].kind, ViolationKind::DataRace);
        // Further accesses do not re-report.
        a.handle(&access(0x100, true), Rid(2), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
    }

    #[test]
    fn read_sharing_without_writes_is_not_a_race() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x100, false), Rid(1), &mut ctx);
        b.handle(&access(0x100, false), Rid(1), &mut ctx);
        assert!(ctx.violations.is_empty());
    }

    #[test]
    fn exclusive_fast_path_sets_no_slow_flag() {
        let (mut a, _b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x100, false), Rid(1), &mut ctx); // Virgin -> Exclusive (write-ish transition but read)
        let mut ctx2 = HandlerCtx::new();
        a.handle(&access(0x100, false), Rid(2), &mut ctx2);
        assert!(!ctx2.slow_path, "same-thread re-read is the fast path");
    }

    #[test]
    fn cross_thread_read_takes_slow_path() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x100, false), Rid(1), &mut ctx);
        let mut ctx2 = HandlerCtx::new();
        b.handle(&access(0x100, false), Rid(1), &mut ctx2);
        assert!(
            ctx2.slow_path,
            "state transition on read = metadata write = slow path"
        );
    }

    #[test]
    fn lock_tracking_follows_ca_records() {
        let (mut a, _b) = two_threads();
        let mut ctx = HandlerCtx::new();
        assert_eq!(a.held(), 0);
        a.handle_ca(&lock_ca(3, CaPhase::End, true), true, Rid(1), &mut ctx);
        assert_eq!(a.held(), 1 << 3);
        a.handle_ca(&lock_ca(3, CaPhase::Begin, false), true, Rid(2), &mut ctx);
        assert_eq!(a.held(), 0);
        // Remote lock CAs do not change our held set.
        a.handle_ca(&lock_ca(5, CaPhase::End, true), false, Rid(3), &mut ctx);
        assert_eq!(a.held(), 0);
    }

    fn rec_access(rid: u64, addr: u64, write: bool) -> EventRecord {
        use paralog_events::{Instr, Reg};
        let mem = MemRef::new(addr, 4);
        EventRecord::instr(
            Rid(rid),
            if write {
                Instr::Store {
                    dst: mem,
                    src: Reg::new(0),
                }
            } else {
                Instr::Load {
                    dst: Reg::new(0),
                    src: mem,
                }
            },
        )
    }

    fn rec_lock(rid: u64, tid: u16, id: u32, acquire: bool) -> EventRecord {
        EventRecord::ca(
            Rid(rid),
            CaRecord {
                what: if acquire {
                    HighLevelKind::Lock(LockId(id))
                } else {
                    HighLevelKind::Unlock(LockId(id))
                },
                phase: if acquire {
                    CaPhase::End
                } else {
                    CaPhase::Begin
                },
                range: None,
                issuer: ThreadId(tid),
                issuer_rid: Rid(rid),
                seq: u64::MAX,
            },
        )
    }

    #[test]
    fn concurrent_form_matches_sequential_transitions() {
        // Consistent locking is silent; unprotected write sharing reports
        // exactly once; the final fingerprint tracks the sequential family
        // through the same access sequence.
        let conc = LockSetConcurrent::new(2);
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();

        // Lock-disciplined accesses to 0x100 from both threads.
        conc.apply(ThreadId(0), &rec_lock(1, 0, 1, true), None);
        conc.apply(ThreadId(0), &rec_access(2, 0x100, true), None);
        conc.apply(ThreadId(0), &rec_lock(3, 0, 1, false), None);
        conc.apply(ThreadId(1), &rec_lock(1, 1, 1, true), None);
        conc.apply(ThreadId(1), &rec_access(2, 0x100, true), None);
        conc.apply(ThreadId(1), &rec_lock(3, 1, 1, false), None);
        a.handle_ca(&lock_ca(1, CaPhase::End, true), true, Rid(1), &mut ctx);
        a.handle(&access(0x100, true), Rid(2), &mut ctx);
        a.handle_ca(&lock_ca(1, CaPhase::Begin, false), true, Rid(3), &mut ctx);
        b.handle_ca(&lock_ca(1, CaPhase::End, true), true, Rid(1), &mut ctx);
        b.handle(&access(0x100, true), Rid(2), &mut ctx);
        b.handle_ca(&lock_ca(1, CaPhase::Begin, false), true, Rid(3), &mut ctx);
        assert!(conc.violations().is_empty(), "lock 1 protects 0x100");
        assert_eq!(conc.fingerprint(), a.fingerprint(), "disciplined state");

        // Unprotected write sharing on 0x200: one race, reported once.
        conc.apply(ThreadId(0), &rec_access(4, 0x200, true), None);
        conc.apply(ThreadId(1), &rec_access(4, 0x200, true), None);
        conc.apply(ThreadId(0), &rec_access(5, 0x200, true), None);
        a.handle(&access(0x200, true), Rid(4), &mut ctx);
        b.handle(&access(0x200, true), Rid(4), &mut ctx);
        a.handle(&access(0x200, true), Rid(5), &mut ctx);
        assert_eq!(conc.violations().len(), 1);
        assert_eq!(conc.violations()[0].kind, ViolationKind::DataRace);
        assert_eq!(conc.violations()[0].addr, Some(0x200));
        assert_eq!(ctx.violations.len(), 1, "sequential agrees");
        assert_eq!(conc.fingerprint(), a.fingerprint(), "post-race state");
    }

    #[test]
    fn concurrent_form_ignores_sync_space_and_remote_lock_cas() {
        let conc = LockSetConcurrent::new(2);
        // Sync-space accesses are not subject to lockset analysis.
        conc.apply(
            ThreadId(0),
            &rec_access(1, SYNC_SPACE_START + 8, true),
            None,
        );
        conc.apply(
            ThreadId(1),
            &rec_access(1, SYNC_SPACE_START + 8, true),
            None,
        );
        assert!(conc.violations().is_empty());
        // A remote thread's lock CA must not change our held set: thread 1
        // never really acquired lock 2, so its write shares 0x300 unlocked.
        conc.apply(ThreadId(1), &rec_lock(2, 0, 2, true), None); // issuer 0!
        conc.apply(ThreadId(0), &rec_lock(2, 0, 2, true), None);
        conc.apply(ThreadId(0), &rec_access(3, 0x300, true), None);
        conc.apply(ThreadId(1), &rec_access(3, 0x300, true), None);
        assert_eq!(conc.violations().len(), 1, "remote CA gave no protection");
    }

    #[test]
    fn concurrent_racing_readers_report_exactly_once() {
        // Many real threads hammer the same unprotected variable: the CAS
        // loop must converge and the `reported` bit must keep the report
        // unique — the invariant the TSan job races.
        let conc = LockSetConcurrent::new(4);
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let conc = &conc;
                scope.spawn(move || {
                    for i in 0..64u64 {
                        conc.apply(ThreadId(t), &rec_access(i + 1, 0x400, true), None);
                    }
                });
            }
        });
        assert_eq!(conc.violations().len(), 1, "exactly one DataRace report");
        // And the candidate set converged to empty SharedModified state.
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x400, true), Rid(1), &mut ctx);
        b.handle(&access(0x400, true), Rid(1), &mut ctx);
        // (Sequential fingerprint differs only if candidates/state differ;
        // both are SharedModified with empty candidates here.)
        assert_eq!(conc.fingerprint(), a.fingerprint());
    }

    #[test]
    fn interner_reclaims_unreferenced_masks_at_once() {
        // Churn distinct first-share masks that are immediately refined
        // away: each combo id loses its only reference to the refinement
        // and must be gone right after that access, not some boundaries
        // later.
        let conc = LockSetConcurrent::new(2);
        let base = conc.interned_masks();
        for i in 0..200u64 {
            let addr = 0x1000 + i * GRANULE;
            // Thread 0 claims the var; thread 1 shares it under a unique
            // 3-lock combo (interned), then re-reads it with no locks
            // (refines to the empty mask, releasing the combo id).
            conc.apply(ThreadId(0), &rec_access(1, addr, false), None);
            for bit in [i % 19, 19 + i % 17, 36 + i % 13] {
                conc.apply(ThreadId(1), &rec_lock(2, 1, bit as u32, true), None);
            }
            conc.apply(ThreadId(1), &rec_access(3, addr, false), None);
            assert_eq!(
                conc.interned_masks(),
                base + 1 + usize::from(i > 0),
                "the combo, and the empty mask earlier variables settled on"
            );
            for bit in [i % 19, 19 + i % 17, 36 + i % 13] {
                conc.apply(ThreadId(1), &rec_lock(4, 1, bit as u32, false), None);
            }
            conc.apply(ThreadId(1), &rec_access(5, addr, false), None);
            assert_eq!(
                conc.interned_masks(),
                base + 1,
                "iteration {i}: the displaced combo id outlived its last word"
            );
        }
        assert_eq!(conc.peak_interned_masks(), base + 2);
        assert!(!conc.degraded());
        assert!(conc.violations().is_empty(), "reads only: no races");
    }

    #[test]
    fn interner_exhaustion_saturates_soundly_past_two_to_the_sixteen() {
        // An adversarial workload pins more than 2^16 *distinct* candidate
        // masks live at once (every shared var keeps its combo referenced,
        // and a referenced id is never freed). The interner must
        // saturate to the conservative full set — completing the session
        // with zero false reports and one DegradedPrecision event — where
        // it previously died on an assert.
        let conc = LockSetConcurrent::new(2);

        // A genuine unprotected race first, while precision is intact.
        conc.apply(ThreadId(0), &rec_access(1, 0xFF_0000, true), None);
        conc.apply(ThreadId(1), &rec_access(1, 0xFF_0000, true), None);
        assert_eq!(conc.violations().len(), 1, "pre-saturation race reports");

        // Walk 17 lock bits in Gray-code order: one lock CA toggles per
        // step, and every step's held set is a distinct non-empty mask.
        // Each step shares a fresh variable under that set, pinning the
        // mask's id for good. 66_000 > 2^16 steps exhaust the id space.
        let mut held: u64 = 0;
        let mut rid = [2u64, 2u64];
        for i in 1u64..=66_000 {
            let bit = i.trailing_zeros();
            let acquire = held & (1 << bit) == 0;
            held ^= 1 << bit;
            for t in 0..2u16 {
                conc.apply(
                    ThreadId(t),
                    &rec_lock(rid[t as usize], t, bit, acquire),
                    None,
                );
                rid[t as usize] += 1;
            }
            let addr = 0x100_0000 + i * GRANULE;
            for t in 0..2u16 {
                conc.apply(ThreadId(t), &rec_access(rid[t as usize], addr, true), None);
                rid[t as usize] += 1;
            }
        }

        assert!(conc.degraded(), "66k live masks must exhaust 2^16 ids");
        let events = conc.session_events();
        assert_eq!(events.len(), 1, "one diagnostic per session");
        let SessionEvent::DegradedPrecision { lifeguard, detail } = &events[0];
        assert_eq!(*lifeguard, "LockSet");
        assert!(detail.contains("mask interner"), "got: {detail}");
        // Soundness: every walked set was non-empty and consistently held
        // by both threads, and saturation only widens candidate sets — so
        // the genuine race stays the *only* report.
        assert_eq!(
            conc.violations().len(),
            1,
            "saturation must not fabricate race reports"
        );
    }

    #[test]
    fn partial_candidate_overlap_survives() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        // Thread 0 holds {1,2}, thread 1 holds {2}: candidate set ends {2}.
        a.handle_ca(&lock_ca(1, CaPhase::End, true), true, Rid(1), &mut ctx);
        a.handle_ca(&lock_ca(2, CaPhase::End, true), true, Rid(2), &mut ctx);
        a.handle(&access(0x200, true), Rid(3), &mut ctx);
        b.handle_ca(&lock_ca(2, CaPhase::End, true), true, Rid(1), &mut ctx);
        b.handle(&access(0x200, true), Rid(2), &mut ctx);
        assert!(ctx.violations.is_empty(), "lock 2 consistently protects");
    }
}
