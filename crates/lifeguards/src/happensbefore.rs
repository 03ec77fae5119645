//! HAPPENSBEFORE: FastTrack-style happens-before data-race detection
//! (Flanagan & Freund), the second race lifeguard and the first analysis on
//! the generic wide-metadata [`WordTable`] tier.
//!
//! Where LOCKSET checks a locking *discipline*, HAPPENSBEFORE checks the
//! *ordering* itself: an access races iff it is not ordered, by the
//! happens-before relation, after every conflicting access. Per-thread
//! vector clocks advance on synchronization; per-word state records the
//! last write as a FastTrack *epoch* — a `(thread, clock)` pair that packs
//! into half a metadata word — and the reads-since-last-write as either a
//! second packed epoch or a read vector clock spilled to the interned wide
//! tier.
//!
//! # Clock advancement: sync-space accesses, not CA records
//!
//! The monitored application's synchronization is visible to the lifeguard
//! as ordinary accesses to the synchronization-object address space
//! (`addr >= SYNC_SPACE_START`, mirroring `paralog_sim::sync::SYNC_BASE`):
//! a lock acquire is an `Rmw` of the lock word, a release is a `Store` to
//! it, barriers are slot stores/loads plus a flag store/loads. Each sync
//! word carries the vector clock its last releaser published:
//!
//! * a **read** of a sync word joins that clock into the reader's
//!   (`C_t ⊔= L_a`) — acquire semantics;
//! * a **write** publishes the writer's clock (`L_a := C_t`) and then bumps
//!   the writer's own component (`C_t[t] += 1`) — release semantics;
//! * an **rmw** does both: join, publish the joined clock, bump.
//!
//! No new capture format is needed: the dependence-arc stream already
//! orders conflicting sync-word accesses, so clock joins replay
//! deterministically. ConflictAlert records carry no ordering information
//! for this analysis — the §5.4 policy is empty ([`CaPolicy::new`]), like
//! LOCKSET's, because every happens-before edge rides the sync words.
//!
//! # §5.5 versioned reads
//!
//! HAPPENSBEFORE keeps no byte-shadow metadata, so produce/consume
//! snapshots carry nothing ([`snapshot_meta`](Lifeguard::snapshot_meta) is
//! all-zero) — what matters is that the versioning machinery *delivers* the
//! producing store's record before the consuming read's on every backend,
//! which keeps the race check's view of the word table deterministic. One
//! precision caveat is inherited from reversal itself: a version-reversed
//! read race-checks against the post-reversing-store table state, so it is
//! checked against that store's epoch rather than the pre-store one; the
//! race is still detected (and the REPORTED bit still dedups it).
//!
//! # Determinism
//!
//! Replay applies same-granule conflicting accesses in captured order
//! (arcs) and same-thread accesses in stream order, so the only unordered
//! same-word pairs are read/read. Read state is maintained as a per-thread
//! slot merge — thread `t`'s slot holds its latest read clock — which is
//! commutative across unordered reads, making the final metadata (and the
//! fingerprint) backend-independent by construction.
//!
//! One more rule makes it *schedule*-independent even on racing words: a
//! detected race **poisons** the word to the absorbing unknown-order
//! sentinel (and sets its REPORTED bit, so each word reports at most
//! once). FastTrack's post-race state is last-writer-wins — order-sensitive
//! exactly when the accesses race — so instead of carrying an
//! order-dependent epoch forward, every form converges on the same
//! sentinel however the racing accesses interleave.

use crate::factory::{ConcurrentLifeguard, DegradationNotice, VersionedMeta};
use crate::lifeguard::{
    EventView, Fingerprint, HandlerCtx, Lifeguard, LifeguardSpec, Violation, ViolationKind,
    ViolationLog,
};
use crate::lockset::SYNC_SPACE_START;
use paralog_events::{
    check_view, AccessKind, AddrRange, CaRecord, EventPayload, EventRecord, MetaOp, Rid, ThreadId,
};
use paralog_meta::{MetaWord, WideGuard, WordTable, MAX_WIDE_IDS};
use paralog_order::CaPolicy;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};

/// Word granularity of race detection (4 bytes, matching LOCKSET).
const GRANULE: u64 = 4;

/// A FastTrack epoch: `(thread, clock)`. Clock 0 is ⊥ — "no such event" —
/// and per-thread clocks start at 1, so ⊥ happens-before everything.
type Epoch = (u16, u32);

/// The poisoned/unknown-order write epoch (see module docs): ⊤, ordered
/// after nothing, installed when a word races. Matches
/// [`HbWide::saturated`] so the sequential and concurrent forms mix
/// identical fingerprint payloads for raced words.
const POISON: Epoch = (u16::MAX, u32::MAX);

/// Whether event `e` happens-before a thread whose clock reads `clock(u)`
/// for thread `u`. Both forms run the one state machine below; they differ
/// only in where a clock component lives ([`dense`], [`lane`]).
fn epoch_hb(e: Epoch, clock: impl Fn(u16) -> u32) -> bool {
    e.1 <= clock(e.0) || e.1 == 0
}

/// Reads a sequential-form clock (a component never set is ⊥).
fn dense(clock: &[u32]) -> impl Fn(u16) -> u32 + Copy + '_ {
    |t| clock.get(usize::from(t)).copied().unwrap_or(0)
}

/// Reads a concurrent-form lane clock.
fn lane(clock: &[AtomicU32]) -> impl Fn(u16) -> u32 + Copy + '_ {
    |t| clock.get(usize::from(t)).map_or(0, |c| c.load(Relaxed))
}

/// Sets thread `t`'s slot of a sparse, tid-sorted vector clock.
fn set_slot(vc: &mut Vec<Epoch>, t: u16, c: u32) {
    match vc.binary_search_by_key(&t, |&(u, _)| u) {
        Ok(i) => vc[i].1 = c,
        Err(i) => vc.insert(i, (t, c)),
    }
}

/// Joins a sparse vector clock into a dense per-thread clock.
fn join_clock(clock: &mut Vec<u32>, vc: &[Epoch]) {
    for &(t, c) in vc {
        let t = usize::from(t);
        if clock.len() <= t {
            clock.resize(t + 1, 0);
        }
        clock[t] = clock[t].max(c);
    }
}

/// The sparse, tid-sorted form of a dense clock (what a release publishes).
fn clock_vc(clock: impl Iterator<Item = u32>) -> Vec<Epoch> {
    clock
        .enumerate()
        .filter(|&(_, c)| c > 0)
        .map(|(t, c)| (t as u16, c))
        .collect()
}

/// One FastTrack transition of a data word's abstract state — the single
/// state machine behind the sequential form and the concurrent CAS loop.
/// Returns `None` when the access is a same-epoch no-op, otherwise
/// `Some(race)` with the state updated: a write installs its epoch and
/// clears the read state; a read merges its epoch into its thread's read
/// slot.
fn step_access(
    write: &mut Epoch,
    reads: &mut Vec<Epoch>,
    writes: bool,
    t: u16,
    clock: impl Fn(u16) -> u32 + Copy,
) -> Option<bool> {
    let c = clock(t);
    if writes {
        if *write == (t, c) {
            return None; // write-same-epoch
        }
        let race = !epoch_hb(*write, clock) || reads.iter().any(|&r| !epoch_hb(r, clock));
        *write = (t, c);
        reads.clear();
        Some(race)
    } else {
        if reads.contains(&(t, c)) {
            return None; // read-same-epoch
        }
        let race = !epoch_hb(*write, clock);
        set_slot(reads, t, c);
        Some(race)
    }
}

/// Canonical fingerprint payload of one word's abstract state: depends on
/// the last-write epoch and the tid-sorted read set only — never on the
/// packed/wide representation, an interner id, or the REPORTED bit — so
/// sequential and concurrent forms mix identical values.
fn canon_word(write: Epoch, reads: &[Epoch]) -> u64 {
    let mut v = (u64::from(write.0) << 32) | u64::from(write.1);
    for &(t, c) in reads {
        v = v.rotate_left(9) ^ (u64::from(t) << 32) ^ u64::from(c) ^ (1 << 63);
    }
    v
}

/// Per-word state of one data granule in the sequential form.
#[derive(Debug, Clone)]
struct DataWord {
    write: Epoch,
    reads: Vec<Epoch>,
    reported: bool,
}

/// Analysis-wide shared state of the sequential form: per-thread vector
/// clocks, published sync-word clocks, and per-granule FastTrack state.
#[derive(Debug, Default)]
pub struct HbShared {
    clocks: Vec<Vec<u32>>,
    sync: HashMap<u64, Vec<Epoch>>,
    data: HashMap<u64, DataWord>,
}

impl HbShared {
    /// Fresh state.
    pub fn new() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(HbShared::default()))
    }

    fn clock_mut(&mut self, t: u16) -> &mut Vec<u32> {
        let t = usize::from(t);
        if self.clocks.len() <= t {
            self.clocks.resize(t + 1, Vec::new());
        }
        let clock = &mut self.clocks[t];
        if clock.len() <= t {
            clock.resize(t + 1, 0);
        }
        if clock[t] == 0 {
            clock[t] = 1; // clocks start at 1; 0 is ⊥
        }
        clock
    }
}

/// One lifeguard thread of the parallel HAPPENSBEFORE.
#[derive(Debug)]
pub struct HappensBefore {
    shared: Rc<RefCell<HbShared>>,
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl HappensBefore {
    /// Creates the lifeguard thread monitoring application thread `tid`.
    pub fn new(shared: Rc<RefCell<HbShared>>, tid: ThreadId) -> Self {
        HappensBefore {
            shared,
            tid,
            spec: LifeguardSpec {
                name: "HappensBefore",
                view: EventView::Check,
                uses_it: false,
                uses_if: false,
                uses_mtlb: true,
                // Every happens-before edge rides the sync words; CA records
                // carry nothing for this analysis (see module docs).
                ca_policy: CaPolicy::new(),
                bits_per_byte: 8,
            },
        }
    }

    fn sync_access(&mut self, addr: u64, kind: AccessKind) {
        let mut shared = self.shared.borrow_mut();
        let t = self.tid.0;
        if kind.reads() {
            if let Some(vc) = shared.sync.get(&addr).cloned() {
                join_clock(shared.clock_mut(t), &vc);
            } else {
                shared.clock_mut(t); // materialize the clock anyway
            }
        }
        if kind.writes() {
            let vc = clock_vc(shared.clock_mut(t).iter().copied());
            shared.sync.insert(addr, vc);
            let t = usize::from(t);
            shared.clocks[t][t] += 1; // release: next epoch starts here
        }
    }

    fn data_access(&mut self, key: u64, writes: bool, rid: Rid, ctx: &mut HandlerCtx) {
        let mut shared = self.shared.borrow_mut();
        let t = self.tid.0;
        let clock = shared.clock_mut(t).clone();
        let entry = shared.data.entry(key).or_insert(DataWord {
            write: (0, 0),
            reads: Vec::new(),
            reported: false,
        });
        if entry.write == POISON {
            return; // raced words are absorbing (and already reported)
        }
        let Some(race) = step_access(&mut entry.write, &mut entry.reads, writes, t, dense(&clock))
        else {
            return;
        };
        if !writes {
            // §5.3: a metadata write in a read handler is the slow path.
            ctx.slow_path = true;
        }
        if race {
            entry.write = POISON;
            entry.reads.clear();
            if !entry.reported {
                entry.reported = true;
                ctx.report(Violation {
                    tid: self.tid,
                    rid,
                    kind: ViolationKind::DataRace,
                    addr: Some(key * GRANULE),
                });
            }
        }
    }
}

impl Lifeguard for HappensBefore {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        let (mem, kind) = match *op {
            MetaOp::CheckAccess { mem, kind } => (mem, kind),
            // Defensive: under EventView::Check rmws arrive as CheckAccess,
            // but an rmw delivered raw is still a sync (or data) access.
            MetaOp::RmwOp { mem, .. } => (mem, AccessKind::Rmw),
            _ => return,
        };
        if mem.addr >= SYNC_SPACE_START {
            self.sync_access(mem.addr, kind);
            return;
        }
        let first = mem.addr / GRANULE;
        let last = (mem.addr + u64::from(mem.size) - 1) / GRANULE;
        for key in first..=last {
            ctx.touch_read(AddrRange::new(0x6400_0000_0000 + key * 8, 8));
            self.data_access(key, kind.writes(), rid, ctx);
        }
    }

    fn handle_ca(&mut self, _ca: &CaRecord, _own: bool, _rid: Rid, _ctx: &mut HandlerCtx) {
        // Ordering rides the sync words (module docs); CAs carry nothing.
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        // No byte-shadow metadata; §5.5 versioning gates record delivery but
        // snapshots nothing (identical to LockSet's all-clean answer).
        vec![0; range.len as usize]
    }

    fn fingerprint(&self) -> u64 {
        let shared = self.shared.borrow();
        let mut fp = Fingerprint::new();
        for (key, entry) in &shared.data {
            fp.mix(key * GRANULE, canon_word(entry.write, &entry.reads));
        }
        for (addr, vc) in &shared.sync {
            fp.mix(*addr, canon_word((0, 0), vc));
        }
        fp.finish()
    }
}

// --- concurrent form -------------------------------------------------------

/// Word formats (bits 0–1). The all-zero word is reserved for never-touched
/// keys, so `F_VIRGIN` *is* 0 and every real state is non-zero.
const FMT_MASK: u64 = 0b11;
const F_PACKED: u64 = 1;
const F_WIDE: u64 = 2;
/// Bit 2: the once-per-word race report fired.
const REPORTED_BIT: u64 = 1 << 2;
/// Bit 3: the packed read epoch is populated.
const READ_VALID_BIT: u64 = 1 << 3;
/// Bits 4–31: packed last-write epoch (tid 6 bits, clock 22 bits).
const W_SHIFT: u32 = 4;
/// Bits 32–59: packed read epoch (same layout).
const R_SHIFT: u32 = 32;
/// Wide format: bits 32–63 carry the interned [`HbWide`] id.
const ID_SHIFT: u32 = 32;
const EPOCH_MASK: u64 = (1 << 28) - 1;

fn pack_epoch((t, c): Epoch) -> Option<u64> {
    (t < 64 && c < (1 << 22)).then(|| u64::from(t) | (u64::from(c) << 6))
}

fn unpack_epoch(bits: u64) -> Epoch {
    ((bits & 63) as u16, (bits >> 6) as u32)
}

/// The interned id a word carries, or 0 (the never-counted sentinel) when
/// it carries none.
fn wide_id(word: u64) -> u32 {
    if word & FMT_MASK == F_WIDE {
        (word >> ID_SHIFT) as u32
    } else {
        0
    }
}

/// Wide-tier value of one word: the last-write epoch plus the full read
/// vector clock (tid-sorted). Sync words store the published vector clock
/// in `reads` with a ⊥ write — the keyspaces are disjoint, so the
/// interpretation is contextual.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HbWide {
    write: Epoch,
    reads: Vec<Epoch>,
}

impl MetaWord for HbWide {
    /// The unknown-order sentinel (interner id 0): history for this word is
    /// lost, so every later access conservatively reports — races are never
    /// missed, some reports may be spurious.
    fn saturated() -> Self {
        HbWide {
            write: (u16::MAX, u32::MAX),
            reads: Vec::new(),
        }
    }
}

/// A decoded word: what the race check actually runs on.
#[derive(Debug)]
enum HbView {
    Virgin,
    Known {
        write: Epoch,
        reads: Vec<Epoch>,
    },
    /// The unknown-order sentinel (wide id 0).
    Saturated,
}

fn decode(word: u64, resolve: impl FnOnce(u32) -> HbWide) -> HbView {
    match word & FMT_MASK {
        0 => HbView::Virgin,
        F_PACKED => HbView::Known {
            write: unpack_epoch((word >> W_SHIFT) & EPOCH_MASK),
            reads: if word & READ_VALID_BIT != 0 {
                vec![unpack_epoch((word >> R_SHIFT) & EPOCH_MASK)]
            } else {
                Vec::new()
            },
        },
        F_WIDE => {
            let id = (word >> ID_SHIFT) as u32;
            if id == 0 {
                HbView::Saturated
            } else {
                let wide = resolve(id);
                HbView::Known {
                    write: wide.write,
                    reads: wide.reads,
                }
            }
        }
        _ => unreachable!("2-bit format"),
    }
}

/// The `Send + Sync` replay form of HAPPENSBEFORE driven by the real-thread
/// backend: FastTrack's fast paths made lock-free on the generic
/// [`WordTable`] substrate.
///
/// The common cases — write-same-epoch, read-same-epoch, an ordered
/// re-access whose state packs into one word — are a load-acquire plus at
/// most one CAS; the wide tier's mutex is held across an access only while
/// the word's read set has outgrown a single epoch (read-share inflation),
/// when an epoch outgrows the packed field, or when a sync word carries a
/// published clock — the rare structural slow paths (0.001–0.03 such
/// accesses per record on the bundled captures). Per-thread clocks are worker-private lanes (the
/// backend applies each stream's records on its owning worker only), so
/// clock joins and bumps are relaxed loads and stores.
pub struct HappensBeforeConcurrent {
    /// granule/sync-word key → packed epoch word or interned wide id.
    words: WordTable<HbWide>,
    /// Per-thread vector clocks (dense, `threads` components each).
    /// Thread-private by the backend's contract (each stream's records are
    /// applied only by the worker owning it), so relaxed atomics suffice,
    /// as for LOCKSET's `held` — two callers passing one `tid` get a wrong
    /// answer, never a data race.
    clocks: Vec<Box<[AtomicU32]>>,
    violations: ViolationLog,
    /// Tells a live feed's observer, once, when saturation first latches.
    notice: DegradationNotice,
}

impl std::fmt::Debug for HappensBeforeConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HappensBeforeConcurrent")
            .field("threads", &self.clocks.len())
            .finish_non_exhaustive()
    }
}

impl HappensBeforeConcurrent {
    /// A fresh concurrent HAPPENSBEFORE for `threads` replayed streams.
    pub fn new(threads: usize) -> Self {
        HappensBeforeConcurrent {
            words: WordTable::new(),
            clocks: (0..threads)
                .map(|t| {
                    // Clocks start at 1; 0 is ⊥.
                    (0..threads)
                        .map(|u| AtomicU32::new((u == t).into()))
                        .collect()
                })
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
            lifeguard: "HappensBefore",
            detail: format!(
                "vector-clock interner exhausted ({MAX_WIDE_IDS} live wide \
                 words); affected words degrade to unknown-order and every \
                 later access on them reports (races are never missed, some \
                 reports may be spurious)"
            ),
        }
    }

    /// Encodes abstract state, packing when it fits and interning into the
    /// wide tier otherwise (setting `interned`: the only place saturation
    /// can newly occur). `flags` carries the REPORTED bit to preserve.
    fn encode(
        write: Epoch,
        reads: Vec<Epoch>,
        flags: u64,
        wide: &mut WideGuard<'_, HbWide>,
        interned: &mut bool,
    ) -> u64 {
        if reads.len() <= 1 {
            if let Some(wbits) = pack_epoch(write) {
                match reads.first() {
                    None => return F_PACKED | flags | (wbits << W_SHIFT),
                    Some(&r) => {
                        if let Some(rbits) = pack_epoch(r) {
                            return F_PACKED
                                | flags
                                | READ_VALID_BIT
                                | (wbits << W_SHIFT)
                                | (rbits << R_SHIFT);
                        }
                    }
                }
            }
        }
        *interned = true;
        let id = wide.intern(HbWide { write, reads });
        F_WIDE | flags | (u64::from(id) << ID_SHIFT)
    }

    /// Tells a live feed's observer, the first time saturation latches.
    /// Called after an update that interned, once the tier's lock is gone.
    fn note_saturation(&self) {
        self.notice
            .note(self.words.is_saturated(), Self::degraded_event);
    }

    /// CAS-per-access path for one data granule: one FastTrack transition —
    /// the concurrent mirror of the sequential [`step_access`] on the
    /// packed/wide representation, poisoning on race (module docs) —
    /// published by [`WordTable::update`], which moves the word's wide-id
    /// reference exactly as it does LOCKSET's set ids.
    fn data_access_cas(
        &self,
        key: u64,
        writes: bool,
        tid: ThreadId,
        clock: &[AtomicU32],
        rid: Rid,
    ) {
        let mut interned = false;
        let report = self.words.update(key, wide_id, |cur, wide| {
            let reported = cur & REPORTED_BIT;
            let (mut write, mut reads) = match decode(cur, |id| wide.value(id)) {
                // Unknown order: always a race, the sentinel absorbs.
                HbView::Saturated => return (cur | REPORTED_BIT, reported == 0),
                HbView::Virgin => ((0, 0), Vec::new()),
                HbView::Known { write, reads } => (write, reads),
            };
            match step_access(&mut write, &mut reads, writes, tid.0, lane(clock)) {
                None => (cur, false), // fast path: one load-acquire, no store
                // Race: converge on the sentinel (id 0, nothing interned).
                Some(true) => (F_WIDE | REPORTED_BIT, reported == 0),
                Some(false) => {
                    let next = Self::encode(write, reads, reported, wide, &mut interned);
                    (next, false)
                }
            }
        });
        if interned {
            self.note_saturation();
        }
        if report {
            // The CAS winner owns the report: exactly one per word, however
            // many accesses raced it.
            self.violations.push(Violation {
                tid,
                rid,
                kind: ViolationKind::DataRace,
                addr: Some(key * GRANULE),
            });
        }
    }

    /// CAS-per-access path for one sync word: join on read, publish-and-bump
    /// on write (module docs). Conflicting sync accesses are arc-ordered, so
    /// the CAS loop converges immediately in practice.
    fn sync_access_cas(&self, key: u64, kind: AccessKind, tid: ThreadId, clock: &[AtomicU32]) {
        let mut interned = false;
        self.words.update(key, wide_id, |cur, wide| {
            if kind.reads() {
                if let HbView::Known { reads, .. } = decode(cur, |id| wide.value(id)) {
                    // Every published clock came from a lane of this
                    // instance, so its components index within `threads`.
                    for (t, c) in reads {
                        let slot = &clock[usize::from(t)];
                        slot.store(slot.load(Relaxed).max(c), Relaxed);
                    }
                }
            }
            if !kind.writes() {
                return (cur, ());
            }
            let vc = clock_vc(clock.iter().map(|c| c.load(Relaxed)));
            let flags = cur & REPORTED_BIT;
            (Self::encode((0, 0), vc, flags, wide, &mut interned), ())
        });
        if interned {
            self.note_saturation();
        }
        if kind.writes() {
            // Release: the next epoch starts after the publish.
            let own = &clock[tid.index()];
            own.store(own.load(Relaxed) + 1, Relaxed);
        }
    }

    /// Live interned wide words (soak/bench diagnostic).
    pub fn interned_vcs(&self) -> usize {
        self.words.live()
    }

    /// High-water mark of [`interned_vcs`](Self::interned_vcs).
    pub fn peak_interned_vcs(&self) -> usize {
        self.words.peak_live()
    }

    /// Whether the interner has saturated to the unknown-order sentinel at
    /// least once this session.
    pub fn degraded(&self) -> bool {
        self.words.is_saturated()
    }
}

impl ConcurrentLifeguard for HappensBeforeConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, _versioned: Option<&VersionedMeta>) {
        match &rec.payload {
            EventPayload::Instr(instr) => {
                let Some(MetaOp::CheckAccess { mem, kind }) = check_view(instr) else {
                    return;
                };
                let clock = &self.clocks[tid.index()];
                if mem.addr >= SYNC_SPACE_START {
                    self.sync_access_cas(mem.addr / GRANULE, kind, tid, clock);
                } else {
                    let first = mem.addr / GRANULE;
                    let last = (mem.addr + u64::from(mem.size) - 1) / GRANULE;
                    for key in first..=last {
                        self.data_access_cas(key, kind.writes(), tid, clock, rec.rid);
                    }
                }
            }
            EventPayload::Ca(_) => {
                // Ordering rides the sync words (module docs); CAs carry
                // nothing for this analysis.
            }
        }
    }

    fn ca_policy(&self) -> CaPolicy {
        // Mirrors the sequential spec: no CA subscriptions, no §5.4 ranges.
        CaPolicy::new()
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        vec![0; range.len as usize]
    }

    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        self.words.for_each_nonzero(wide_id, |key, word, wide| {
            let view = decode(word, |_| wide.expect("a wide word resolves"));
            let (write, reads) = match view {
                HbView::Virgin => unreachable!("stored words are never virgin"),
                HbView::Known { write, reads } => (write, reads),
                HbView::Saturated => {
                    let s = HbWide::saturated();
                    (s.write, s.reads)
                }
            };
            fp.mix(key * GRANULE, canon_word(write, &reads));
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
    use paralog_events::{Instr, MemRef, Reg};

    const LOCK0: u64 = SYNC_SPACE_START; // paralog_sim::sync::lock_word(0)

    fn access(addr: u64, kind: AccessKind) -> MetaOp {
        MetaOp::CheckAccess {
            mem: MemRef::new(addr, if addr >= SYNC_SPACE_START { 8 } else { 4 }),
            kind,
        }
    }

    fn rec(rid: u64, addr: u64, kind: AccessKind) -> EventRecord {
        let mem = MemRef::new(addr, if addr >= SYNC_SPACE_START { 8 } else { 4 });
        EventRecord::instr(
            Rid(rid),
            match kind {
                AccessKind::Read => Instr::Load {
                    dst: Reg::new(0),
                    src: mem,
                },
                AccessKind::Write => Instr::Store {
                    dst: mem,
                    src: Reg::new(0),
                },
                AccessKind::Rmw => Instr::Rmw {
                    mem,
                    reg: Reg::new(0),
                },
            },
        )
    }

    fn two_threads() -> (HappensBefore, HappensBefore) {
        let shared = HbShared::new();
        (
            HappensBefore::new(Rc::clone(&shared), ThreadId(0)),
            HappensBefore::new(Rc::clone(&shared), ThreadId(1)),
        )
    }

    /// t0 writes under the lock, hands it to t1, t1 writes — ordered.
    fn locked_handoff(run: &mut dyn FnMut(u16, u64, AccessKind)) {
        run(0, LOCK0, AccessKind::Rmw); // t0 acquire
        run(0, 0x100, AccessKind::Write);
        run(0, LOCK0, AccessKind::Write); // t0 release
        run(1, LOCK0, AccessKind::Rmw); // t1 acquire (joins t0's clock)
        run(1, 0x100, AccessKind::Write);
        run(1, LOCK0, AccessKind::Write); // t1 release
    }

    #[test]
    fn sequential_lock_discipline_is_silent() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        let mut rid = 0;
        locked_handoff(&mut |t, addr, kind| {
            rid += 1;
            let lg: &mut HappensBefore = if t == 0 { &mut a } else { &mut b };
            lg.handle(&access(addr, kind), Rid(rid), &mut ctx);
        });
        assert!(ctx.violations.is_empty(), "hb-ordered writes never race");
    }

    #[test]
    fn sequential_unordered_writes_race_once() {
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        a.handle(&access(0x100, AccessKind::Write), Rid(1), &mut ctx);
        b.handle(&access(0x100, AccessKind::Write), Rid(2), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(ctx.violations[0].kind, ViolationKind::DataRace);
        assert_eq!(ctx.violations[0].addr, Some(0x100));
        // Further racing accesses do not re-report the same word.
        a.handle(&access(0x100, AccessKind::Write), Rid(3), &mut ctx);
        b.handle(&access(0x100, AccessKind::Read), Rid(4), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
    }

    #[test]
    fn sequential_read_shared_then_unordered_write_races() {
        let shared = HbShared::new();
        let mut lgs: Vec<_> = (0..3)
            .map(|t| HappensBefore::new(Rc::clone(&shared), ThreadId(t)))
            .collect();
        let mut ctx = HandlerCtx::new();
        // Three unordered readers share the word silently (reads never
        // conflict), then an unordered writer races all of them.
        for lg in &mut lgs {
            lg.handle(&access(0x200, AccessKind::Read), Rid(1), &mut ctx);
        }
        assert!(ctx.violations.is_empty(), "concurrent reads are no race");
        lgs[0].handle(&access(0x200, AccessKind::Write), Rid(2), &mut ctx);
        assert_eq!(ctx.violations.len(), 1, "write races the unordered reads");
    }

    #[test]
    fn concurrent_form_matches_sequential_transitions() {
        let conc = HappensBeforeConcurrent::new(2);
        let (mut a, mut b) = two_threads();
        let mut ctx = HandlerCtx::new();
        let mut rid = 0;
        locked_handoff(&mut |t, addr, kind| {
            rid += 1;
            let lg: &mut HappensBefore = if t == 0 { &mut a } else { &mut b };
            lg.handle(&access(addr, kind), Rid(rid), &mut ctx);
            conc.apply(ThreadId(t), &rec(rid, addr, kind), None);
        });
        // A genuine race on a second word, from both forms.
        for (t, r) in [(0u16, 90u64), (1, 91)] {
            let lg: &mut HappensBefore = if t == 0 { &mut a } else { &mut b };
            lg.handle(&access(0x400, AccessKind::Write), Rid(r), &mut ctx);
            conc.apply(ThreadId(t), &rec(r, 0x400, AccessKind::Write), None);
        }
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(conc.violations().len(), 1);
        assert_eq!(conc.violations()[0].addr, Some(0x400));
        assert_eq!(conc.fingerprint(), a.fingerprint());
    }

    #[test]
    fn unpackable_epochs_spill_to_the_wide_tier() {
        // Thread 65 cannot pack into the 6-bit epoch tid field: its write
        // epoch must spill to an interned wide word and still behave.
        let conc = HappensBeforeConcurrent::new(70);
        let base = conc.interned_vcs();
        conc.apply(ThreadId(65), &rec(1, 0x100, AccessKind::Write), None);
        assert_eq!(conc.interned_vcs(), base + 1, "wide spill interned");
        // Same-epoch re-write is still the fast path (no duplicate intern).
        conc.apply(ThreadId(65), &rec(2, 0x100, AccessKind::Write), None);
        assert_eq!(conc.interned_vcs(), base + 1);
        assert!(conc.violations().is_empty());
        assert!(!conc.degraded());
    }

    #[test]
    fn read_vc_inflation_interns_and_reclaims() {
        let conc = HappensBeforeConcurrent::new(3);
        let base = conc.interned_vcs();
        // Three unordered readers inflate the word to a wide read VC...
        for t in 0..3u16 {
            conc.apply(ThreadId(t), &rec(1, 0x300, AccessKind::Read), None);
        }
        assert!(conc.interned_vcs() > base, "3-reader VC cannot pack");
        assert!(conc.violations().is_empty());
        // ...and an (unordered, racing) write poisons the word to the
        // sentinel: the wide id lost its only word and is gone with it.
        conc.apply(ThreadId(0), &rec(2, 0x300, AccessKind::Write), None);
        assert_eq!(conc.violations().len(), 1, "write races the read VC");
        assert_eq!(conc.interned_vcs(), base, "collapsed VC reclaimed");
    }

    #[test]
    fn sync_clock_vcs_join_across_threads() {
        // Barrier-style: both threads publish, both join both publications.
        let conc = HappensBeforeConcurrent::new(2);
        let slot0 = SYNC_SPACE_START + 0x10_0000;
        let slot1 = slot0 + 64;
        let flag = SYNC_SPACE_START + 0x20_0000;
        conc.apply(ThreadId(0), &rec(1, 0x500, AccessKind::Write), None);
        conc.apply(ThreadId(1), &rec(1, 0x600, AccessKind::Write), None);
        // Arrivals.
        conc.apply(ThreadId(0), &rec(2, slot0, AccessKind::Write), None);
        conc.apply(ThreadId(1), &rec(2, slot1, AccessKind::Write), None);
        // t1 releases: joins both slots, publishes the flag.
        conc.apply(ThreadId(1), &rec(3, slot0, AccessKind::Read), None);
        conc.apply(ThreadId(1), &rec(4, slot1, AccessKind::Read), None);
        conc.apply(ThreadId(1), &rec(5, flag, AccessKind::Write), None);
        // t0 waits on the flag, then touches t1's pre-barrier word: ordered.
        conc.apply(ThreadId(0), &rec(6, flag, AccessKind::Read), None);
        conc.apply(ThreadId(0), &rec(7, 0x600, AccessKind::Write), None);
        conc.apply(ThreadId(1), &rec(8, flag, AccessKind::Read), None);
        conc.apply(ThreadId(1), &rec(9, 0x500, AccessKind::Write), None);
        assert!(
            conc.violations().is_empty(),
            "barrier orders the cross-thread writes: {:?}",
            conc.violations()
        );
    }

    /// `apply` is a safe method, so two callers passing one `tid` must get
    /// at worst a wrong answer. Four threads share lane 0 over disjoint
    /// slabs (data accesses read its clock, sync accesses join and bump
    /// it); the test asserts only that this returns and leaves the
    /// instance usable.
    #[test]
    fn apply_from_four_threads_on_one_tid_returns() {
        let conc = HappensBeforeConcurrent::new(4);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for slab in 0..4u64 {
                let (conc, start) = (&conc, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..4_000u64 {
                        let (addr, kind) = match i % 8 {
                            0 => (LOCK0 + slab * 64, AccessKind::Rmw),
                            n if n % 2 == 0 => {
                                (0x10_0000 * (slab + 1) + i % 256 * 4, AccessKind::Write)
                            }
                            _ => (0x10_0000 * (slab + 1) + i % 256 * 4, AccessKind::Read),
                        };
                        conc.apply(ThreadId(0), &rec(i + 1, addr, kind), None);
                    }
                });
            }
        });
        let _ = (conc.violations(), conc.fingerprint());
    }
}
