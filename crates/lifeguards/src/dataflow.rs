//! The one dataflow engine behind TAINTCHECK and MEMCHECK.
//!
//! §4.1 describes MEMCHECK as "like TAINTCHECK, but with the lattice
//! inverted", and that is all the difference there is: both keep one
//! metadata byte per application byte plus per-register state, both move it
//! along loads, stores and ALU ops by the same transfer function, and both
//! report a *use* (indirect jump, checked syscall argument) of a value
//! carrying their bad bit. So each analysis is a [`Rules`] table —
//! [`taintcheck::RULES`](crate::taintcheck::RULES) and
//! [`memcheck::RULES`](crate::memcheck::RULES) — and this module holds
//! everything the tables parameterise, written once:
//!
//! * [`propagate`], the transfer function, generic over a two-method
//!   [`Port`] to the shadow;
//! * the issuer's ConflictAlert update ([`Rules::issue_ca`]) and the §5.4
//!   race reaction ([`Rules::syscall_race`]);
//! * the two lifeguard forms that drive them: [`Dataflow`], the sequential
//!   per-thread handle whose port also reports each metadata access to the
//!   lifeguard-core cache model, and [`DataflowConcurrent`], the
//!   `Send + Sync` form the lanes replay, whose port reads through the
//!   consumed §5.5 snapshot.
//!
//! Both forms sit on the same [`AtomicShadow`], so a form-against-form
//! comparison checks neither the rules nor the container. The oracle that
//! does is `paralog_core::Reference`, which shares no code with this module:
//! it folds `Instr`s in global order over a `BTreeMap`
//! (`tests/session.rs::both_forms_match_the_oracle_across_shadow_seams`
//! feeds every [`dataflow_view`] arm to it and to both forms;
//! `tests/prop_equivalence.rs` does the same with random programs).

use crate::factory::{ConcurrentLifeguard, LifeguardFamily};
use crate::lifeguard::{
    join_atomic_shadow, EventView, HandlerCtx, Lifeguard, LifeguardSpec, VersionedMeta, Violation,
    ViolationKind, ViolationLog,
};
use paralog_events::{
    dataflow_view, AddrRange, CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, MetaOp,
    Rid, ThreadId, NUM_REGS,
};
use paralog_meta::AtomicShadow;
use paralog_order::{CaPolicy, CachePadded, RangeEntry};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What the issuer of a ConflictAlert does with the shadow of its range.
#[derive(Debug)]
pub(crate) enum CaUpdate {
    /// Not an event this analysis reacts to.
    Ignore,
    /// The event rewrites the whole range to this value.
    Fill(u8),
    /// The event *uses* the range: report this kind if any byte of it
    /// carries [`Rules::bad`].
    Check(ViolationKind),
}

/// One byte-shadow dataflow analysis: everything that distinguishes
/// TAINTCHECK from MEMCHECK.
#[derive(Debug)]
pub(crate) struct Rules {
    /// Registry and [`LifeguardSpec`] name.
    pub(crate) name: &'static str,
    /// The lattice bit a checked use must not carry.
    pub(crate) bad: u8,
    /// What an indirect jump through a register carrying it is reported as.
    pub(crate) jump: ViolationKind,
    /// ConflictAlert subscriptions (the backends derive §5.4 gating and
    /// range tracking from them).
    pub(crate) ca_policy: fn() -> CaPolicy,
    /// The issuer's metadata update for a high-level event at a phase.
    pub(crate) ca_update: fn(HighLevelKind, CaPhase) -> CaUpdate,
    /// §5.4: what an access racing an in-flight system call conservatively
    /// becomes (reported as [`ViolationKind::SyscallRace`]); `None` for an
    /// analysis that tracks no syscall ranges.
    pub(crate) race_fill: Option<u8>,
}

/// How [`propagate`] reaches the shadow. Exactly two implementations: the
/// lanes' ([`LanePort`]) and the sequential handler's ([`HandlerPort`]).
pub(crate) trait Port {
    /// Joins (bitwise-ORs) the metadata of `range`.
    fn join(&mut self, range: AddrRange) -> u8;
    /// Sets the metadata of every byte of `range`.
    fn fill(&mut self, range: AddrRange, value: u8);
}

/// The transfer function of both analyses: moves metadata the way `op`
/// moved data. Returns the metadata of a checked jump's target register,
/// `None` for every other op.
#[inline]
pub(crate) fn propagate(op: MetaOp, regs: &mut [u8; NUM_REGS], port: &mut impl Port) -> Option<u8> {
    match op {
        MetaOp::MemToReg { dst, src } => regs[dst.index()] = port.join(src.range()),
        MetaOp::RegToMem { dst, src } => port.fill(dst.range(), regs[src.index()]),
        MetaOp::RegToReg { dst, src } => regs[dst.index()] = regs[src.index()],
        // Immediates are clean (untainted, defined).
        MetaOp::ImmToReg { dst } => regs[dst.index()] = 0,
        MetaOp::ImmToMem { dst } => port.fill(dst.range(), 0),
        // The coalesced IT event: copy metadata memory-to-memory.
        MetaOp::MemToMem { dst, src } => {
            let v = port.join(src.range());
            port.fill(dst.range(), v);
        }
        MetaOp::AluRR { dst, a, b } => {
            regs[dst.index()] = regs[a.index()] | b.map_or(0, |b| regs[b.index()]);
        }
        MetaOp::AluRM { dst, a, src } => {
            regs[dst.index()] = regs[a.index()] | port.join(src.range());
        }
        MetaOp::CheckJmp { target } => return Some(regs[target.index()]),
        // Not part of the dataflow view; nothing to do.
        MetaOp::CheckAccess { .. } => {}
        // xchg: metadata swaps between register and memory.
        MetaOp::RmwOp { mem, reg } => {
            let m = port.join(mem.range());
            port.fill(mem.range(), regs[reg.index()]);
            regs[reg.index()] = m;
        }
    }
    None
}

impl Rules {
    /// Applies one delivered op of thread `tid`; the violation, if `op` is a
    /// jump through a register carrying the bad bit.
    #[inline]
    fn apply_op(
        &self,
        op: MetaOp,
        regs: &mut [u8; NUM_REGS],
        port: &mut impl Port,
        tid: ThreadId,
        rid: Rid,
    ) -> Option<Violation> {
        let target = propagate(op, regs, port)?;
        (target & self.bad != 0).then_some(Violation {
            tid,
            rid,
            kind: self.jump,
            addr: None,
        })
    }

    /// Applies the issuer's side of ConflictAlert `ca` (remote copies only
    /// order; the caller filters them out).
    fn issue_ca(
        &self,
        ca: &CaRecord,
        port: &mut impl Port,
        tid: ThreadId,
        rid: Rid,
    ) -> Option<Violation> {
        let range = ca.range?;
        match (self.ca_update)(ca.what, ca.phase) {
            CaUpdate::Ignore => None,
            CaUpdate::Fill(value) => {
                port.fill(range, value);
                None
            }
            CaUpdate::Check(kind) => (port.join(range) & self.bad != 0).then_some(Violation {
                tid,
                rid,
                kind,
                addr: Some(range.start),
            }),
        }
    }

    /// §5.4: thread `tid`'s access raced an in-flight system call. Resolved
    /// conservatively — the accessed bytes take [`Rules::race_fill`] and the
    /// race is reported. The rewrite is not charged to the cache model.
    fn syscall_race(
        &self,
        shadow: &AtomicShadow,
        access: AddrRange,
        tid: ThreadId,
        rid: Rid,
    ) -> Option<Violation> {
        shadow.fill_range(access.start, access.len, self.race_fill?);
        Some(Violation {
            tid,
            rid,
            kind: ViolationKind::SyscallRace,
            addr: Some(access.start),
        })
    }
}

/// The sequential handler's port: the shared shadow read through the
/// injected §5.5 snapshot, every access also reported to the lifeguard-core
/// cache model. (The footprints cannot be derived from the op's
/// `mem_src`/`mem_dst` afterwards: an `RmwOp` writes what it reads.)
struct HandlerPort<'a> {
    shadow: &'a AtomicShadow,
    spec: &'a LifeguardSpec,
    ctx: &'a mut HandlerCtx,
}

impl Port for HandlerPort<'_> {
    fn join(&mut self, range: AddrRange) -> u8 {
        self.ctx.touch_read(self.spec.meta_footprint(range));
        self.ctx.join_shadow(self.shadow, range)
    }

    fn fill(&mut self, range: AddrRange, value: u8) {
        self.ctx.touch_write(self.spec.meta_footprint(range));
        self.shadow.fill_range(range.start, range.len, value);
    }
}

/// The lanes' port: the shared shadow, reads honoring the §5.5 snapshot the
/// record consumed.
struct LanePort<'a> {
    shadow: &'a AtomicShadow,
    versioned: Option<&'a VersionedMeta>,
}

impl Port for LanePort<'_> {
    #[inline]
    fn join(&mut self, range: AddrRange) -> u8 {
        join_atomic_shadow(self.shadow, range, self.versioned)
    }

    #[inline]
    fn fill(&mut self, range: AddrRange, value: u8) {
        self.shadow.fill_range(range.start, range.len, value);
    }
}

/// One lifeguard thread of a sequential dataflow analysis.
#[derive(Debug)]
pub(crate) struct Dataflow {
    rules: &'static Rules,
    /// The analysis-wide shadow of Figure 2 (2 bits per byte in the
    /// modelled machine), shared by the family's threads.
    shadow: Rc<AtomicShadow>,
    /// Metadata of the monitored thread's registers (thread-private).
    regs: [u8; NUM_REGS],
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl Dataflow {
    /// The lifeguard thread of analysis `rules` monitoring application
    /// thread `tid` over `shadow`.
    pub(crate) fn new(rules: &'static Rules, shadow: Rc<AtomicShadow>, tid: ThreadId) -> Self {
        Dataflow {
            rules,
            shadow,
            regs: [0; NUM_REGS],
            tid,
            spec: LifeguardSpec {
                name: rules.name,
                view: EventView::Dataflow,
                uses_it: true,
                uses_if: false,
                uses_mtlb: true,
                ca_policy: (rules.ca_policy)(),
                bits_per_byte: 2,
            },
        }
    }

    /// A fresh family of analysis `rules`: one clean shadow under every
    /// thread it hands out.
    pub(crate) fn family(rules: &'static Rules) -> LifeguardFamily {
        let shadow = Rc::new(AtomicShadow::new());
        LifeguardFamily::from_constructor(rules.name, move |tid| {
            Box::new(Dataflow::new(rules, Rc::clone(&shadow), tid))
        })
    }

    #[cfg(test)]
    pub(crate) fn reg(&self, reg: usize) -> u8 {
        self.regs[reg]
    }

    #[cfg(test)]
    pub(crate) fn set_reg(&mut self, reg: usize, value: u8) {
        self.regs[reg] = value;
    }
}

impl Lifeguard for Dataflow {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        let mut port = HandlerPort {
            shadow: &self.shadow,
            spec: &self.spec,
            ctx,
        };
        let violation = self
            .rules
            .apply_op(*op, &mut self.regs, &mut port, self.tid, rid);
        ctx.violations.extend(violation);
    }

    fn handle_ca(&mut self, ca: &CaRecord, own: bool, rid: Rid, ctx: &mut HandlerCtx) {
        if !own {
            return;
        }
        let mut port = HandlerPort {
            shadow: &self.shadow,
            spec: &self.spec,
            ctx,
        };
        let violation = self.rules.issue_ca(ca, &mut port, self.tid, rid);
        ctx.violations.extend(violation);
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shadow.snapshot(range.start, range.len)
    }

    fn on_syscall_race(
        &mut self,
        access: AddrRange,
        _entry: &RangeEntry,
        rid: Rid,
        ctx: &mut HandlerCtx,
    ) {
        let violation = self.rules.syscall_race(&self.shadow, access, self.tid, rid);
        ctx.violations.extend(violation);
    }

    fn fingerprint(&self) -> u64 {
        self.shadow.fingerprint()
    }
}

/// The `Send + Sync` replay form of a dataflow analysis: the §5.3
/// **fast-path/slow-path split** made concrete.
///
/// The common case — propagation through loads, stores and ALU ops — runs
/// synchronization-free over the lock-free [`AtomicShadow`]: application
/// reads map to metadata reads, writes to writes, and the enforced arcs
/// carry the release/acquire edges. The rare structural events — an
/// issuer's ConflictAlert rewriting a whole `malloc`/`free`/`read()` range —
/// take a mutex-guarded slow path so two issuers' wholesale updates never
/// interleave mid-range; the CA arcs already order every *access* against
/// them, so the propagation path never needs that lock. Register metadata
/// is thread-private (§5.3), so each stream's [`RegSlot`] takes no lock
/// either.
pub(crate) struct DataflowConcurrent {
    rules: &'static Rules,
    shadow: AtomicShadow,
    /// Per-stream register metadata, each slot on a cache line of its own.
    regs: Vec<RegSlot>,
    /// §5.3 slow path: serializes the issuers' wholesale rewrites against
    /// each other.
    structural: Mutex<()>,
    violations: ViolationLog,
}

impl std::fmt::Debug for DataflowConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The derived dump would print every materialized 64 KiB chunk; a
        // compact summary beats it.
        f.debug_struct("DataflowConcurrent")
            .field("analysis", &self.rules.name)
            .field("threads", &self.regs.len())
            .finish_non_exhaustive()
    }
}

impl DataflowConcurrent {
    /// A fresh concurrent form of analysis `rules` for `threads` replayed
    /// streams. The shadow grows lazily as events arrive, so streams may be
    /// ingested incrementally — no footprint pre-scan.
    pub(crate) fn new(rules: &'static Rules, threads: usize) -> Self {
        DataflowConcurrent {
            rules,
            shadow: AtomicShadow::new(),
            regs: (0..threads).map(|_| RegSlot::default()).collect(),
            structural: Mutex::new(()),
            violations: ViolationLog::new(),
        }
    }
}

/// One stream's register metadata: `NUM_REGS` bytes packed into `u64`
/// words, so a record loads and stores two words. A byte per atomic took
/// sixteen of each, which cost more than the mutex it replaced.
///
/// `Relaxed` suffices: only the one worker replaying a stream touches its
/// slot (the contract `ConcurrentLifeguard::apply` states, which
/// `LockSetConcurrent::held` relies on too), and a lane changing hands
/// between workers is ordered by the lane's own mutex.
#[derive(Debug, Default)]
struct RegSlot(CachePadded<[AtomicU64; NUM_REGS / 8]>);

const _: () = assert!(NUM_REGS.is_multiple_of(8), "whole words");

impl RegSlot {
    fn load(&self) -> [u8; NUM_REGS] {
        let mut regs = [0; NUM_REGS];
        for (bytes, word) in regs.chunks_exact_mut(8).zip(self.0.iter()) {
            bytes.copy_from_slice(&word.load(Ordering::Relaxed).to_le_bytes());
        }
        regs
    }

    fn store(&self, regs: &[u8; NUM_REGS]) {
        for (bytes, word) in regs.chunks_exact(8).zip(self.0.iter()) {
            let bytes = bytes.try_into().expect("a word of registers");
            word.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
    }
}

impl ConcurrentLifeguard for DataflowConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        let shadow = &self.shadow;
        let violation = match &rec.payload {
            EventPayload::Instr(instr) => {
                let Some(op) = dataflow_view(instr) else {
                    return;
                };
                let slot = &self.regs[tid.index()];
                let mut regs = slot.load();
                let mut port = LanePort { shadow, versioned };
                let violation = self.rules.apply_op(op, &mut regs, &mut port, tid, rec.rid);
                slot.store(&regs);
                violation
            }
            // Only the issuer updates metadata (remote copies order), and a
            // ConflictAlert reads and writes the live shadow only.
            EventPayload::Ca(ca) if ca.issuer == tid => {
                let _slow = self.structural.lock().expect("poisoned");
                let mut port = LanePort {
                    shadow,
                    versioned: None,
                };
                self.rules.issue_ca(ca, &mut port, tid, rec.rid)
            }
            EventPayload::Ca(_) => None,
        };
        if let Some(violation) = violation {
            self.violations.push(violation);
        }
    }

    fn ca_policy(&self) -> CaPolicy {
        (self.rules.ca_policy)()
    }

    fn on_syscall_race(&self, tid: ThreadId, access: AddrRange, _entry: &RangeEntry, rid: Rid) {
        if let Some(violation) = self.rules.syscall_race(&self.shadow, access, tid, rid) {
            self.violations.push(violation);
        }
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shadow.snapshot(range.start, range.len)
    }

    fn fingerprint(&self) -> u64 {
        self.shadow.fingerprint()
    }

    fn violations(&self) -> Vec<Violation> {
        self.violations.snapshot()
    }

    fn violations_since(&self, from: usize) -> Vec<Violation> {
        self.violations.since(from)
    }
}
