//! TAINTCHECK: dynamic taint analysis (Newsome & Song), the paper's primary
//! lifeguard.
//!
//! Maintains 2 metadata bits per application byte (§6: sized so the frequent
//! word-sized cases cost one metadata byte/word access) plus per-register
//! taint. Unverified input — `read()`-style system calls — taints its buffer;
//! taint propagates through dataflow; using tainted data as an indirect jump
//! target or a checked syscall argument is a violation.
//!
//! TAINTCHECK maps application reads to metadata reads and writes to writes
//! (§5.3 condition 2 holds), so the enforced dependence arcs alone make its
//! metadata accesses atomic — no locks anywhere ([`AtomicityClass::SyncFree`]).

use crate::lifeguard::{
    join_atomic_shadow, AtomicityClass, EventView, HandlerCtx, Lifeguard, LifeguardSpec, Violation,
    ViolationKind, ViolationLog,
};
use paralog_events::{
    AddrRange, CaPhase, CaRecord, HighLevelKind, MemRef, MetaOp, Rid, SyscallKind, ThreadId,
    NUM_REGS,
};
use paralog_meta::AtomicShadow;
use paralog_order::{CaPolicy, RangeEntry};
use std::rc::Rc;
use std::sync::Mutex;

/// Taint lattice value for "tainted" (bit 0 of the 2-bit metadata).
pub const TAINTED: u8 = 0b01;

/// Analysis-wide shared state: the global taint shadow of Figure 2.
#[derive(Debug)]
pub struct TaintShared {
    /// The taint shadow (2 bits per byte in the modelled machine).
    pub mem: AtomicShadow,
}

impl TaintShared {
    /// Fresh, fully-untainted state.
    pub fn new() -> Rc<Self> {
        Rc::new(TaintShared {
            mem: AtomicShadow::new(),
        })
    }
}

/// One lifeguard thread of the parallel TAINTCHECK.
#[derive(Debug)]
pub struct TaintCheck {
    shared: Rc<TaintShared>,
    /// Taint of the monitored thread's registers (thread-private metadata).
    regs: [u8; NUM_REGS],
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl TaintCheck {
    /// Creates the lifeguard thread monitoring application thread `tid`.
    pub fn new(shared: Rc<TaintShared>, tid: ThreadId) -> Self {
        TaintCheck {
            shared,
            regs: [0; NUM_REGS],
            tid,
            spec: LifeguardSpec {
                name: "TaintCheck",
                view: EventView::Dataflow,
                uses_it: true,
                uses_if: false,
                uses_mtlb: true,
                ca_policy: CaPolicy::taintcheck(),
                bits_per_byte: 2,
                atomicity: AtomicityClass::SyncFree,
            },
        }
    }

    /// Current taint of a register (test/diagnostic aid).
    pub fn reg_taint(&self, reg: usize) -> u8 {
        self.regs[reg]
    }

    fn mem_taint(&self, src: MemRef, ctx: &mut HandlerCtx) -> u8 {
        // TSO: versioned bytes read the snapshot the writer produced;
        // everything else reads the (arc-ordered) current shadow.
        ctx.touch_read(self.spec.meta_footprint(src.range()));
        ctx.join_shadow(&self.shared.mem, src.range())
    }

    fn set_range_taint(&self, range: AddrRange, value: u8, ctx: &mut HandlerCtx) {
        ctx.touch_write(self.spec.meta_footprint(range));
        self.shared.mem.fill_range(range.start, range.len, value);
    }
}

impl Lifeguard for TaintCheck {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        match *op {
            MetaOp::MemToReg { dst, src } => {
                self.regs[dst.index()] = self.mem_taint(src, ctx);
            }
            MetaOp::RegToMem { dst, src } => {
                self.set_range_taint(dst.range(), self.regs[src.index()], ctx);
            }
            MetaOp::RegToReg { dst, src } => {
                self.regs[dst.index()] = self.regs[src.index()];
            }
            MetaOp::ImmToReg { dst } => {
                self.regs[dst.index()] = 0;
            }
            MetaOp::ImmToMem { dst } => {
                self.set_range_taint(dst.range(), 0, ctx);
            }
            MetaOp::MemToMem { dst, src } => {
                // The coalesced IT event: copy metadata memory-to-memory.
                let v = self.mem_taint(src, ctx);
                self.set_range_taint(dst.range(), v, ctx);
            }
            MetaOp::AluRR { dst, a, b } => {
                let mut v = self.regs[a.index()];
                if let Some(b) = b {
                    v |= self.regs[b.index()];
                }
                self.regs[dst.index()] = v;
            }
            MetaOp::AluRM { dst, a, src } => {
                self.regs[dst.index()] = self.regs[a.index()] | self.mem_taint(src, ctx);
            }
            MetaOp::CheckJmp { target } => {
                if self.regs[target.index()] & TAINTED != 0 {
                    ctx.report(Violation {
                        tid: self.tid,
                        rid,
                        kind: ViolationKind::TaintedJump,
                        addr: None,
                    });
                }
            }
            MetaOp::CheckAccess { .. } => {
                // Not part of the dataflow view; nothing to do.
            }
            MetaOp::RmwOp { mem, reg } => {
                // xchg: taint swaps between register and memory.
                let mem_v = self.mem_taint(mem, ctx);
                let reg_v = self.regs[reg.index()];
                self.set_range_taint(mem.range(), reg_v, ctx);
                self.regs[reg.index()] = mem_v;
            }
        }
    }

    fn handle_ca(&mut self, ca: &CaRecord, own: bool, rid: Rid, ctx: &mut HandlerCtx) {
        if !own {
            // Remote CA records only order/flush; the issuer updates metadata.
            return;
        }
        match (ca.what, ca.phase) {
            (HighLevelKind::Malloc, CaPhase::End) => {
                if let Some(range) = ca.range {
                    // Fresh allocations are untainted.
                    self.set_range_taint(range, 0, ctx);
                }
            }
            (HighLevelKind::Syscall(SyscallKind::ReadInput), CaPhase::End) => {
                if let Some(range) = ca.range {
                    // Unverified input: taint the whole buffer (§2).
                    self.set_range_taint(range, TAINTED, ctx);
                }
            }
            (HighLevelKind::Syscall(SyscallKind::WriteOutput), CaPhase::Begin) => {
                if let Some(range) = ca.range {
                    ctx.touch_read(self.spec.meta_footprint(range));
                    if self.shared.mem.join_range(range.start, range.len) & TAINTED != 0 {
                        ctx.report(Violation {
                            tid: self.tid,
                            rid,
                            kind: ViolationKind::TaintedSyscallArg,
                            addr: Some(range.start),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shared.mem.snapshot(range.start, range.len)
    }

    fn on_syscall_race(
        &mut self,
        access: AddrRange,
        _entry: &RangeEntry,
        rid: Rid,
        ctx: &mut HandlerCtx,
    ) {
        // §5.4: an access concurrent with a read() syscall is resolved
        // conservatively — taint the destination and warn.
        ctx.report(Violation {
            tid: self.tid,
            rid,
            kind: ViolationKind::SyscallRace,
            addr: Some(access.start),
        });
        self.shared
            .mem
            .fill_range(access.start, access.len, TAINTED);
    }

    fn fingerprint(&self) -> u64 {
        self.shared.mem.fingerprint()
    }
}

/// The `Send + Sync` replay form of TAINTCHECK driven by the real-thread
/// backend: the same analysis over a lock-free [`AtomicShadow`], valid
/// because TaintCheck is in the §5.3 synchronization-free class (application
/// reads map to metadata reads; the enforced arcs carry the release/acquire
/// edges). Register taint is thread-private, so each worker's slot is
/// uncontended.
pub struct TaintConcurrent {
    shadow: AtomicShadow,
    regs: Vec<Mutex<[u8; NUM_REGS]>>,
    violations: ViolationLog,
}

impl std::fmt::Debug for TaintConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The derived dump would print every materialized 64 KiB chunk; a
        // compact summary beats it.
        f.debug_struct("TaintConcurrent")
            .field("threads", &self.regs.len())
            .finish_non_exhaustive()
    }
}

impl TaintConcurrent {
    /// A fresh concurrent TaintCheck for `threads` replayed streams. The
    /// atomic shadow grows lazily as events arrive, so streams may be
    /// ingested incrementally — no footprint pre-scan.
    pub fn new(threads: usize) -> Self {
        TaintConcurrent {
            shadow: AtomicShadow::new(),
            regs: (0..threads).map(|_| Mutex::new([0; NUM_REGS])).collect(),
            violations: ViolationLog::new(),
        }
    }

    /// Propagates one dataflow op against the shared shadow. Reads honor an
    /// injected §5.5 versioned snapshot through [`join_atomic_shadow`].
    fn apply_op(
        &self,
        op: MetaOp,
        regs: &mut [u8; NUM_REGS],
        tid: ThreadId,
        rid: Rid,
        versioned: Option<&crate::factory::VersionedMeta>,
    ) {
        let join = |range: AddrRange| join_atomic_shadow(&self.shadow, range, versioned);
        let fill = |range: AddrRange, v: u8| self.shadow.fill_range(range.start, range.len, v);
        match op {
            MetaOp::MemToReg { dst, src } => regs[dst.index()] = join(src.range()),
            MetaOp::RegToMem { dst, src } => fill(dst.range(), regs[src.index()]),
            MetaOp::RegToReg { dst, src } => regs[dst.index()] = regs[src.index()],
            MetaOp::ImmToReg { dst } => regs[dst.index()] = 0,
            MetaOp::ImmToMem { dst } => fill(dst.range(), 0),
            MetaOp::MemToMem { dst, src } => fill(dst.range(), join(src.range())),
            MetaOp::AluRR { dst, a, b } => {
                regs[dst.index()] = regs[a.index()] | b.map(|b| regs[b.index()]).unwrap_or(0);
            }
            MetaOp::AluRM { dst, a, src } => {
                regs[dst.index()] = regs[a.index()] | join(src.range());
            }
            MetaOp::CheckJmp { target } => {
                if regs[target.index()] & TAINTED != 0 {
                    self.violations.push(Violation {
                        tid,
                        rid,
                        kind: ViolationKind::TaintedJump,
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

    fn apply_ca(&self, ca: &CaRecord, tid: ThreadId, rid: Rid) {
        let Some(range) = ca.range else { return };
        // Ranges can exceed MemRef's 255-byte width; fill them directly.
        match (ca.what, ca.phase) {
            (HighLevelKind::Malloc, CaPhase::End) => {
                self.shadow.fill_range(range.start, range.len, 0);
            }
            (HighLevelKind::Syscall(SyscallKind::ReadInput), CaPhase::End) => {
                self.shadow.fill_range(range.start, range.len, TAINTED);
            }
            (HighLevelKind::Syscall(SyscallKind::WriteOutput), CaPhase::Begin)
                if self.shadow.join_range(range.start, range.len) & TAINTED != 0 =>
            {
                self.violations.push(Violation {
                    tid,
                    rid,
                    kind: ViolationKind::TaintedSyscallArg,
                    addr: Some(range.start),
                });
            }
            _ => {}
        }
    }
}

impl crate::factory::ConcurrentLifeguard for TaintConcurrent {
    fn ca_policy(&self) -> CaPolicy {
        CaPolicy::taintcheck()
    }

    fn on_syscall_race(&self, tid: ThreadId, access: AddrRange, _entry: &RangeEntry, rid: Rid) {
        // §5.4: an access concurrent with a read() syscall is resolved
        // conservatively — taint the destination and warn (the concurrent
        // mirror of the sequential handler above).
        self.violations.push(Violation {
            tid,
            rid,
            kind: ViolationKind::SyscallRace,
            addr: Some(access.start),
        });
        self.shadow.fill_range(access.start, access.len, TAINTED);
    }

    fn apply(
        &self,
        tid: ThreadId,
        rec: &paralog_events::EventRecord,
        versioned: Option<&crate::factory::VersionedMeta>,
    ) {
        match &rec.payload {
            paralog_events::EventPayload::Instr(instr) => {
                if let Some(op) = paralog_events::dataflow_view(instr) {
                    let mut regs = self.regs[tid.index()].lock().expect("poisoned");
                    self.apply_op(op, &mut regs, tid, rec.rid, versioned);
                }
            }
            paralog_events::EventPayload::Ca(ca) => {
                // Only the issuer updates metadata (remote copies order).
                if ca.issuer == tid {
                    self.apply_ca(ca, tid, rec.rid);
                }
            }
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

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::Reg;

    fn setup() -> (Rc<TaintShared>, TaintCheck) {
        let shared = TaintShared::new();
        let lg = TaintCheck::new(Rc::clone(&shared), ThreadId(0));
        (shared, lg)
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 4)
    }

    #[test]
    fn propagation_chain_mem_to_mem() {
        let (shared, mut lg) = setup();
        shared.mem.fill_range(0x100, 4, TAINTED);
        let mut ctx = HandlerCtx::new();
        lg.handle(
            &MetaOp::MemToReg {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(lg.reg_taint(0), TAINTED);
        lg.handle(
            &MetaOp::RegToReg {
                dst: r(1),
                src: r(0),
            },
            Rid(2),
            &mut ctx,
        );
        lg.handle(
            &MetaOp::RegToMem {
                dst: m(0x200),
                src: r(1),
            },
            Rid(3),
            &mut ctx,
        );
        assert_eq!(shared.mem.join_range(0x200, 4), TAINTED);
    }

    #[test]
    fn immediate_clears_taint() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.regs[3] = TAINTED;
        lg.handle(&MetaOp::ImmToReg { dst: r(3) }, Rid(1), &mut ctx);
        assert_eq!(lg.reg_taint(3), 0);
    }

    #[test]
    fn alu_joins_taint() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.regs[0] = 0;
        lg.regs[1] = TAINTED;
        lg.handle(
            &MetaOp::AluRR {
                dst: r(2),
                a: r(0),
                b: Some(r(1)),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(lg.reg_taint(2), TAINTED);
    }

    #[test]
    fn tainted_jump_detected() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.regs[5] = TAINTED;
        lg.handle(&MetaOp::CheckJmp { target: r(5) }, Rid(9), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(ctx.violations[0].kind, ViolationKind::TaintedJump);
        assert_eq!(ctx.violations[0].rid, Rid(9));
    }

    #[test]
    fn clean_jump_passes() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(&MetaOp::CheckJmp { target: r(5) }, Rid(9), &mut ctx);
        assert!(ctx.violations.is_empty());
    }

    #[test]
    fn read_syscall_taints_buffer_on_own_ca_end() {
        let (shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        let buf = AddrRange::new(0x1000, 16);
        let ca = CaRecord {
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase: CaPhase::End,
            range: Some(buf),
            issuer: ThreadId(0),
            issuer_rid: Rid(5),
            seq: 0,
        };
        lg.handle_ca(&ca, true, Rid(5), &mut ctx);
        assert_eq!(shared.mem.join_range(buf.start, buf.len), TAINTED);
        // Remote lifeguards do not re-apply the update.
        let mut ctx2 = HandlerCtx::new();
        let mut remote = TaintCheck::new(Rc::clone(&shared), ThreadId(1));
        shared.mem.fill_range(buf.start, buf.len, 0);
        remote.handle_ca(&ca, false, Rid(2), &mut ctx2);
        assert_eq!(shared.mem.join_range(buf.start, buf.len), 0);
    }

    #[test]
    fn malloc_untaints_fresh_memory() {
        let (shared, mut lg) = setup();
        let range = AddrRange::new(0x2000, 32);
        shared.mem.fill_range(range.start, range.len, TAINTED);
        let ca = CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: Rid(5),
            seq: 0,
        };
        lg.handle_ca(&ca, true, Rid(5), &mut HandlerCtx::new());
        assert_eq!(shared.mem.join_range(range.start, range.len), 0);
    }

    #[test]
    fn write_syscall_checks_taint() {
        let (shared, mut lg) = setup();
        let buf = AddrRange::new(0x3000, 8);
        shared.mem.fill_range(buf.start, buf.len, TAINTED);
        let ca = CaRecord {
            what: HighLevelKind::Syscall(SyscallKind::WriteOutput),
            phase: CaPhase::Begin,
            range: Some(buf),
            issuer: ThreadId(0),
            issuer_rid: Rid(5),
            seq: 0,
        };
        let mut ctx = HandlerCtx::new();
        lg.handle_ca(&ca, true, Rid(5), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::TaintedSyscallArg);
    }

    #[test]
    fn versioned_read_overrides_current_state() {
        let (shared, mut lg) = setup();
        // Current state: tainted. Versioned snapshot: clean.
        shared.mem.fill_range(0x100, 4, TAINTED);
        let mut ctx = HandlerCtx::new();
        ctx.versioned = Some((AddrRange::new(0x100, 4), vec![0, 0, 0, 0]));
        lg.handle(
            &MetaOp::MemToReg {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(
            lg.reg_taint(0),
            0,
            "reads the pre-write (versioned) metadata"
        );
    }

    #[test]
    fn syscall_race_taints_conservatively() {
        let (shared, mut lg) = setup();
        let access = AddrRange::new(0x100, 4);
        let entry = RangeEntry {
            issuer: ThreadId(1),
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            range: AddrRange::new(0x0, 0x1000),
        };
        let mut ctx = HandlerCtx::new();
        lg.on_syscall_race(access, &entry, Rid(4), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::SyscallRace);
        assert_eq!(shared.mem.join_range(access.start, access.len), TAINTED);
    }

    #[test]
    fn fingerprint_reflects_metadata() {
        let (shared, lg) = setup();
        let before = lg.fingerprint();
        shared.mem.fill_range(0x100, 1, TAINTED);
        assert_ne!(lg.fingerprint(), before);
        shared.mem.fill_range(0x100, 1, 0);
        assert_eq!(lg.fingerprint(), before, "zero values do not contribute");
    }

    #[test]
    fn meta_touches_are_recorded() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(
            &MetaOp::MemToReg {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(ctx.meta_touches.len(), 1);
        assert!(!ctx.meta_touches[0].1, "a load touches metadata read-only");
    }
}
