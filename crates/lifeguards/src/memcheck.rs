//! MEMCHECK-style initialized-ness tracking.
//!
//! §4.1 names MEMCHECK as the example of a lifeguard whose Inheritance
//! Tracking state conflicts with *high-level* events: it tracks the
//! propagation of initialized states of memory (like TAINTCHECK, but with
//! the lattice inverted — fresh memory is *undefined* and stores make
//! destinations defined), so a `malloc`/`free` changes metadata wholesale and
//! must flush the IT table via ConflictAlert.
//!
//! Reporting policy follows Memcheck: copying undefined data is fine;
//! *using* it (indirect jump, checked syscall argument) is a violation.

use crate::factory::{ConcurrentLifeguard, VersionedMeta};
use crate::lifeguard::{
    join_atomic_shadow, AtomicityClass, EventView, HandlerCtx, Lifeguard, LifeguardSpec, Violation,
    ViolationKind, ViolationLog,
};
use paralog_events::{
    dataflow_view, AddrRange, CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, MemRef,
    MetaOp, Rid, ThreadId, NUM_REGS,
};
use paralog_meta::AtomicShadow;
use paralog_order::{CaActions, CaPolicy};
use std::rc::Rc;
use std::sync::Mutex;

/// Metadata value for "undefined" (bit 0 set). The inverted encoding keeps
/// never-touched memory — shadow value 0 — *defined*, so only heap memory
/// between `malloc` and first initialization trips the check, mirroring how
/// Memcheck treats non-heap memory it has no allocation information for.
pub const UNDEFINED: u8 = 0b01;

/// Analysis-wide shared state.
#[derive(Debug)]
pub struct MemShared {
    /// The definedness shadow (bit 0: undefined; 2 bits per byte in the
    /// modelled machine).
    pub state: AtomicShadow,
}

impl MemShared {
    /// Fresh state.
    pub fn new() -> Rc<Self> {
        Rc::new(MemShared {
            state: AtomicShadow::new(),
        })
    }
}

/// One lifeguard thread of the parallel MEMCHECK.
#[derive(Debug)]
pub struct MemCheck {
    shared: Rc<MemShared>,
    regs: [u8; NUM_REGS],
    tid: ThreadId,
    spec: LifeguardSpec,
}

/// MEMCHECK's ConflictAlert subscriptions, shared by the sequential spec and
/// the concurrent replay form (the backends derive §5.4 gating and range
/// tracking from it, so the two must never drift apart). §4.1: MEMCHECK
/// requires IT flushes on high-level events; the policy requests `flush_it`
/// (with the conservative barrier) on both malloc and free.
fn memcheck_ca_policy() -> CaPolicy {
    let flush = CaActions {
        flush_it: true,
        flush_if: false,
        flush_mtlb: true,
        barrier: true,
        track_range: false,
    };
    CaPolicy::new()
        .on(HighLevelKind::Malloc, CaPhase::End, flush)
        .on(HighLevelKind::Free, CaPhase::Begin, flush)
}

impl MemCheck {
    /// Creates the lifeguard thread monitoring application thread `tid`.
    pub fn new(shared: Rc<MemShared>, tid: ThreadId) -> Self {
        MemCheck {
            shared,
            regs: [0; NUM_REGS],
            tid,
            spec: LifeguardSpec {
                name: "MemCheck",
                view: EventView::Dataflow,
                uses_it: true,
                uses_if: false,
                uses_mtlb: true,
                ca_policy: memcheck_ca_policy(),
                bits_per_byte: 2,
                atomicity: AtomicityClass::SyncFree,
            },
        }
    }

    /// Definedness of a register (test/diagnostic aid).
    pub fn reg_state(&self, reg: usize) -> u8 {
        self.regs[reg]
    }

    fn mem_state(&self, src: MemRef, ctx: &mut HandlerCtx) -> u8 {
        ctx.touch_read(self.spec.meta_footprint(src.range()));
        ctx.join_shadow(&self.shared.state, src.range())
    }

    fn set_range_state(&self, range: AddrRange, value: u8, ctx: &mut HandlerCtx) {
        ctx.touch_write(self.spec.meta_footprint(range));
        self.shared.state.fill_range(range.start, range.len, value);
    }
}

impl Lifeguard for MemCheck {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        match *op {
            MetaOp::MemToReg { dst, src } => {
                self.regs[dst.index()] = self.mem_state(src, ctx);
            }
            MetaOp::RegToMem { dst, src } => {
                self.set_range_state(dst.range(), self.regs[src.index()], ctx);
            }
            MetaOp::RegToReg { dst, src } => {
                self.regs[dst.index()] = self.regs[src.index()];
            }
            MetaOp::ImmToReg { dst } => {
                self.regs[dst.index()] = 0; // immediates are defined
            }
            MetaOp::ImmToMem { dst } => {
                self.set_range_state(dst.range(), 0, ctx);
            }
            MetaOp::MemToMem { dst, src } => {
                let v = self.mem_state(src, ctx);
                self.set_range_state(dst.range(), v, ctx);
            }
            MetaOp::AluRR { dst, a, b } => {
                let mut v = self.regs[a.index()];
                if let Some(b) = b {
                    v |= self.regs[b.index()];
                }
                self.regs[dst.index()] = v;
            }
            MetaOp::AluRM { dst, a, src } => {
                self.regs[dst.index()] = self.regs[a.index()] | self.mem_state(src, ctx);
            }
            MetaOp::CheckJmp { target } => {
                if self.regs[target.index()] & UNDEFINED != 0 {
                    ctx.report(Violation {
                        tid: self.tid,
                        rid,
                        kind: ViolationKind::UndefinedUse,
                        addr: None,
                    });
                }
            }
            MetaOp::CheckAccess { .. } => {}
            MetaOp::RmwOp { mem, reg } => {
                let m = self.mem_state(mem, ctx);
                let r = self.regs[reg.index()];
                self.set_range_state(mem.range(), r, ctx);
                self.regs[reg.index()] = m;
            }
        }
    }

    fn handle_ca(&mut self, ca: &CaRecord, own: bool, _rid: Rid, ctx: &mut HandlerCtx) {
        if !own {
            return;
        }
        // Fresh heap memory is undefined until first written; freed memory
        // immediately reverts to undefined.
        if let (HighLevelKind::Malloc, CaPhase::End, Some(range))
        | (HighLevelKind::Free, CaPhase::Begin, Some(range)) = (ca.what, ca.phase, ca.range)
        {
            self.set_range_state(range, UNDEFINED, ctx);
        }
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shared.state.snapshot(range.start, range.len)
    }

    fn fingerprint(&self) -> u64 {
        self.shared.state.fingerprint()
    }
}

/// The `Send + Sync` replay form of MEMCHECK driven by the real-thread
/// backend: the §5.3 **fast-path/slow-path split** made concrete.
///
/// The common case — dataflow propagation of definedness through loads,
/// stores and ALU ops — runs synchronization-free over a lock-free
/// [`AtomicShadow`] (application reads map to metadata reads, writes to
/// writes, and the enforced arcs carry the release/acquire edges), exactly
/// like [`TaintConcurrent`](crate::TaintConcurrent) with the lattice
/// inverted. The rare structural events — `malloc`/`free` ConflictAlerts
/// rewriting whole allocations to [`UNDEFINED`] — take a mutex-guarded slow
/// path so two issuers' wholesale updates never interleave mid-range; the
/// CA barrier arcs already order every *access* against them, so the check
/// path never needs that lock. Register definedness is thread-private, so
/// each worker's slot is uncontended.
pub struct MemCheckConcurrent {
    /// 2-bit-per-byte definedness shadow (bit 0: undefined), lock-free.
    state: AtomicShadow,
    /// Per-worker register definedness (thread-private; uncontended locks).
    regs: Vec<Mutex<[u8; NUM_REGS]>>,
    /// §5.3 slow path: serializes the rare wholesale metadata rewrites
    /// (malloc/free ConflictAlerts) against each other.
    structural: Mutex<()>,
    violations: ViolationLog,
}

impl std::fmt::Debug for MemCheckConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The derived dump would print every materialized 64 KiB chunk; a
        // compact summary beats it.
        f.debug_struct("MemCheckConcurrent")
            .field("threads", &self.regs.len())
            .finish_non_exhaustive()
    }
}

impl MemCheckConcurrent {
    /// A fresh concurrent MEMCHECK for `threads` replayed streams. The
    /// atomic shadow grows lazily as events arrive, so streams may be
    /// ingested incrementally — no footprint pre-scan.
    pub fn new(threads: usize) -> Self {
        MemCheckConcurrent {
            state: AtomicShadow::new(),
            regs: (0..threads).map(|_| Mutex::new([0; NUM_REGS])).collect(),
            structural: Mutex::new(()),
            violations: ViolationLog::new(),
        }
    }

    /// Propagates one dataflow op against the shared shadow — the routing
    /// of [`TaintConcurrent`](crate::TaintConcurrent) with the lattice
    /// inverted.
    fn apply_op(
        &self,
        op: MetaOp,
        regs: &mut [u8; NUM_REGS],
        tid: ThreadId,
        rid: Rid,
        versioned: Option<&VersionedMeta>,
    ) {
        let join = |range: AddrRange| join_atomic_shadow(&self.state, range, versioned);
        let fill = |range: AddrRange, v: u8| self.state.fill_range(range.start, range.len, v);
        match op {
            MetaOp::MemToReg { dst, src } => regs[dst.index()] = join(src.range()),
            MetaOp::RegToMem { dst, src } => fill(dst.range(), regs[src.index()]),
            MetaOp::RegToReg { dst, src } => regs[dst.index()] = regs[src.index()],
            MetaOp::ImmToReg { dst } => regs[dst.index()] = 0, // immediates are defined
            MetaOp::ImmToMem { dst } => fill(dst.range(), 0),
            MetaOp::MemToMem { dst, src } => fill(dst.range(), join(src.range())),
            MetaOp::AluRR { dst, a, b } => {
                regs[dst.index()] = regs[a.index()] | b.map(|b| regs[b.index()]).unwrap_or(0);
            }
            MetaOp::AluRM { dst, a, src } => {
                regs[dst.index()] = regs[a.index()] | join(src.range());
            }
            MetaOp::CheckJmp { target } => {
                if regs[target.index()] & UNDEFINED != 0 {
                    self.violations.push(Violation {
                        tid,
                        rid,
                        kind: ViolationKind::UndefinedUse,
                        addr: None,
                    });
                }
            }
            MetaOp::CheckAccess { .. } => {}
            MetaOp::RmwOp { mem, reg } => {
                let m = join(mem.range());
                fill(mem.range(), regs[reg.index()]);
                regs[reg.index()] = m;
            }
        }
    }
}

impl ConcurrentLifeguard for MemCheckConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        match &rec.payload {
            EventPayload::Instr(instr) => {
                if let Some(op) = dataflow_view(instr) {
                    let mut regs = self.regs[tid.index()].lock().expect("poisoned");
                    self.apply_op(op, &mut regs, tid, rec.rid, versioned);
                }
            }
            EventPayload::Ca(ca) => {
                // Only the issuer updates metadata (remote copies order).
                if ca.issuer != tid {
                    return;
                }
                match (ca.what, ca.phase, ca.range) {
                    // Fresh heap memory is undefined until first written;
                    // freed memory immediately reverts to undefined. The
                    // wholesale rewrite is the §5.3 slow path: serialized so
                    // two issuers' structural updates never interleave.
                    (HighLevelKind::Malloc, CaPhase::End, Some(range))
                    | (HighLevelKind::Free, CaPhase::Begin, Some(range)) => {
                        let _slow = self.structural.lock().expect("poisoned");
                        self.state.fill_range(range.start, range.len, UNDEFINED);
                    }
                    _ => {}
                }
            }
        }
    }

    fn ca_policy(&self) -> CaPolicy {
        memcheck_ca_policy()
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.state.snapshot(range.start, range.len)
    }

    fn fingerprint(&self) -> u64 {
        self.state.fingerprint()
    }

    fn violations(&self) -> Vec<Violation> {
        self.violations.snapshot()
    }

    fn violations_since(&self, from: usize) -> Vec<Violation> {
        self.violations.since(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::Reg;

    fn setup() -> (Rc<MemShared>, MemCheck) {
        let shared = MemShared::new();
        let lg = MemCheck::new(Rc::clone(&shared), ThreadId(0));
        (shared, lg)
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 4)
    }

    fn malloc_ca(range: AddrRange) -> CaRecord {
        CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: Rid(1),
            seq: 0,
        }
    }

    #[test]
    fn malloc_marks_undefined_store_defines() {
        let (shared, mut lg) = setup();
        let range = AddrRange::new(0x1000, 16);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        assert_eq!(shared.state.join_range(range.start, range.len), UNDEFINED);
        // Store a defined register into the first word.
        let mut ctx = HandlerCtx::new();
        lg.handle(
            &MetaOp::RegToMem {
                dst: m(0x1000),
                src: r(0),
            },
            Rid(2),
            &mut ctx,
        );
        assert_eq!(shared.state.join_range(0x1000, 4), 0);
        assert_eq!(shared.state.join_range(0x1004, 4), UNDEFINED);
    }

    #[test]
    fn copying_undefined_is_silent_using_it_reports() {
        let (_shared, mut lg) = setup();
        let range = AddrRange::new(0x1000, 16);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        let mut ctx = HandlerCtx::new();
        // Load undefined memory: silent.
        lg.handle(
            &MetaOp::MemToReg {
                dst: r(0),
                src: m(0x1000),
            },
            Rid(2),
            &mut ctx,
        );
        assert!(ctx.violations.is_empty());
        assert_eq!(lg.reg_state(0), UNDEFINED);
        // Use it as a jump target: violation.
        lg.handle(&MetaOp::CheckJmp { target: r(0) }, Rid(3), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::UndefinedUse);
    }

    #[test]
    fn spec_requests_it_flush_on_malloc_and_free() {
        let (_shared, lg) = setup();
        let spec = lg.spec();
        assert!(spec.uses_it);
        assert!(
            spec.ca_policy
                .actions(HighLevelKind::Malloc, CaPhase::End)
                .flush_it
        );
        assert!(
            spec.ca_policy
                .actions(HighLevelKind::Free, CaPhase::Begin)
                .flush_it
        );
    }

    #[test]
    fn immediates_are_defined() {
        let (_shared, mut lg) = setup();
        lg.regs[2] = UNDEFINED;
        lg.handle(
            &MetaOp::ImmToReg { dst: r(2) },
            Rid(1),
            &mut HandlerCtx::new(),
        );
        assert_eq!(lg.reg_state(2), 0);
    }

    #[test]
    fn concurrent_form_matches_sequential_lattice() {
        use paralog_events::Instr;
        let conc = MemCheckConcurrent::new(2);
        let (shared, mut seq) = setup();
        let range = AddrRange::new(0x1000, 16);
        // Malloc marks undefined on both forms (issuer's copy only).
        let ca = EventRecord::ca(Rid(1), malloc_ca(range));
        conc.apply(ThreadId(0), &ca, None);
        conc.apply(ThreadId(1), &ca, None); // remote copy: no update
        seq.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        assert_eq!(conc.fingerprint(), seq.fingerprint(), "post-malloc state");
        // Load undefined memory: silent on both; using it as a jump target
        // reports on both.
        let load = EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: r(0),
                src: m(0x1000),
            },
        );
        conc.apply(ThreadId(0), &load, None);
        assert!(conc.violations().is_empty(), "copying undefined is silent");
        let jmp = EventRecord::instr(Rid(3), Instr::JmpReg { target: r(0) });
        conc.apply(ThreadId(0), &jmp, None);
        assert_eq!(conc.violations().len(), 1);
        assert_eq!(conc.violations()[0].kind, ViolationKind::UndefinedUse);
        // A defined store then re-synchronizes the shadows.
        let store = EventRecord::instr(
            Rid(4),
            Instr::Store {
                dst: m(0x1000),
                src: r(1),
            },
        );
        conc.apply(ThreadId(1), &store, None);
        let mut ctx = HandlerCtx::new();
        seq.handle(
            &MetaOp::RegToMem {
                dst: m(0x1000),
                src: r(1),
            },
            Rid(4),
            &mut ctx,
        );
        assert_eq!(conc.fingerprint(), seq.fingerprint(), "post-store state");
        let _ = shared;
    }

    #[test]
    fn concurrent_reads_honor_versioned_snapshots() {
        use paralog_events::Instr;
        let conc = MemCheckConcurrent::new(1);
        // Live shadow: defined. §5.5 snapshot: the producer's pre-store
        // (undefined) bytes must win, and the undefinedness must flow to
        // the register.
        let load = EventRecord::instr(
            Rid(1),
            Instr::Load {
                dst: r(0),
                src: m(0x100),
            },
        );
        let versioned = (AddrRange::new(0x100, 4), vec![UNDEFINED; 4]);
        conc.apply(ThreadId(0), &load, Some(&versioned));
        let jmp = EventRecord::instr(Rid(2), Instr::JmpReg { target: r(0) });
        conc.apply(ThreadId(0), &jmp, None);
        assert_eq!(conc.violations().len(), 1, "versioned undefinedness flows");
    }

    #[test]
    fn concurrent_policy_matches_sequential_spec() {
        let (_shared, seq) = setup();
        let conc = MemCheckConcurrent::new(1);
        for (what, phase) in [
            (HighLevelKind::Malloc, CaPhase::End),
            (HighLevelKind::Free, CaPhase::Begin),
        ] {
            assert_eq!(
                conc.ca_policy().actions(what, phase),
                seq.spec().ca_policy.actions(what, phase),
                "CA policy drift between sequential and concurrent MEMCHECK"
            );
        }
    }
}
