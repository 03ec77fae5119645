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
//! propagation atomic. The propagation itself, and both lifeguard forms, are
//! the shared crate-private `dataflow` engine; this file is the rule
//! table that makes it TAINTCHECK.

use crate::dataflow::{CaUpdate, Rules};
use crate::lifeguard::ViolationKind;
use paralog_events::{CaPhase, HighLevelKind, SyscallKind};
use paralog_order::CaPolicy;

/// Taint lattice value for "tainted" (bit 0 of the 2-bit metadata).
pub const TAINTED: u8 = 0b01;

/// TAINTCHECK as an instance of the dataflow engine.
pub(crate) static RULES: Rules = Rules {
    name: "TaintCheck",
    bad: TAINTED,
    jump: ViolationKind::TaintedJump,
    ca_policy: CaPolicy::taintcheck,
    ca_update: |what, phase| match (what, phase) {
        // Fresh allocations are untainted.
        (HighLevelKind::Malloc, CaPhase::End) => CaUpdate::Fill(0),
        // Unverified input: taint the whole buffer (§2).
        (HighLevelKind::Syscall(SyscallKind::ReadInput), CaPhase::End) => CaUpdate::Fill(TAINTED),
        (HighLevelKind::Syscall(SyscallKind::WriteOutput), CaPhase::Begin) => {
            CaUpdate::Check(ViolationKind::TaintedSyscallArg)
        }
        _ => CaUpdate::Ignore,
    },
    // §5.4: an access concurrent with a read() syscall is resolved
    // conservatively — taint the destination and warn.
    race_fill: Some(TAINTED),
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::Dataflow;
    use crate::lifeguard::{HandlerCtx, Lifeguard};
    use paralog_events::{AddrRange, CaRecord, MemRef, MetaOp, Reg, Rid, ThreadId};
    use paralog_meta::AtomicShadow;
    use paralog_order::RangeEntry;
    use std::rc::Rc;

    fn setup() -> (Rc<AtomicShadow>, Dataflow) {
        let shadow = Rc::new(AtomicShadow::new());
        let lg = Dataflow::new(&RULES, Rc::clone(&shadow), ThreadId(0));
        (shadow, lg)
    }

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 4)
    }

    #[test]
    fn propagation_chain_mem_to_mem() {
        let (shadow, mut lg) = setup();
        shadow.fill_range(0x100, 4, TAINTED);
        let mut ctx = HandlerCtx::new();
        lg.handle(
            &MetaOp::MemToReg {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(lg.reg(0), TAINTED);
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
        assert_eq!(shadow.join_range(0x200, 4), TAINTED);
    }

    #[test]
    fn immediate_clears_taint() {
        let (_shadow, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.set_reg(3, TAINTED);
        lg.handle(&MetaOp::ImmToReg { dst: r(3) }, Rid(1), &mut ctx);
        assert_eq!(lg.reg(3), 0);
    }

    #[test]
    fn alu_joins_taint() {
        let (_shadow, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.set_reg(0, 0);
        lg.set_reg(1, TAINTED);
        lg.handle(
            &MetaOp::AluRR {
                dst: r(2),
                a: r(0),
                b: Some(r(1)),
            },
            Rid(1),
            &mut ctx,
        );
        assert_eq!(lg.reg(2), TAINTED);
    }

    #[test]
    fn tainted_jump_detected() {
        let (_shadow, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.set_reg(5, TAINTED);
        lg.handle(&MetaOp::CheckJmp { target: r(5) }, Rid(9), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
        assert_eq!(ctx.violations[0].kind, ViolationKind::TaintedJump);
        assert_eq!(ctx.violations[0].rid, Rid(9));
    }

    #[test]
    fn clean_jump_passes() {
        let (_shadow, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(&MetaOp::CheckJmp { target: r(5) }, Rid(9), &mut ctx);
        assert!(ctx.violations.is_empty());
    }

    #[test]
    fn read_syscall_taints_buffer_on_own_ca_end() {
        let (shadow, mut lg) = setup();
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
        assert_eq!(shadow.join_range(buf.start, buf.len), TAINTED);
        // Remote lifeguards do not re-apply the update.
        let mut ctx2 = HandlerCtx::new();
        let mut remote = Dataflow::new(&RULES, Rc::clone(&shadow), ThreadId(1));
        shadow.fill_range(buf.start, buf.len, 0);
        remote.handle_ca(&ca, false, Rid(2), &mut ctx2);
        assert_eq!(shadow.join_range(buf.start, buf.len), 0);
    }

    #[test]
    fn malloc_untaints_fresh_memory() {
        let (shadow, mut lg) = setup();
        let range = AddrRange::new(0x2000, 32);
        shadow.fill_range(range.start, range.len, TAINTED);
        let ca = CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: Rid(5),
            seq: 0,
        };
        lg.handle_ca(&ca, true, Rid(5), &mut HandlerCtx::new());
        assert_eq!(shadow.join_range(range.start, range.len), 0);
    }

    #[test]
    fn write_syscall_checks_taint() {
        let (shadow, mut lg) = setup();
        let buf = AddrRange::new(0x3000, 8);
        shadow.fill_range(buf.start, buf.len, TAINTED);
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
        let (shadow, mut lg) = setup();
        // Current state: tainted. Versioned snapshot: clean.
        shadow.fill_range(0x100, 4, TAINTED);
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
        assert_eq!(lg.reg(0), 0, "reads the pre-write (versioned) metadata");
    }

    #[test]
    fn syscall_race_taints_conservatively() {
        let (shadow, mut lg) = setup();
        let access = AddrRange::new(0x100, 4);
        let entry = RangeEntry {
            issuer: ThreadId(1),
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            range: AddrRange::new(0x0, 0x1000),
        };
        let mut ctx = HandlerCtx::new();
        lg.on_syscall_race(access, &entry, Rid(4), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::SyscallRace);
        assert_eq!(shadow.join_range(access.start, access.len), TAINTED);
    }

    #[test]
    fn fingerprint_reflects_metadata() {
        let (shadow, lg) = setup();
        let before = lg.fingerprint();
        shadow.fill_range(0x100, 1, TAINTED);
        assert_ne!(lg.fingerprint(), before);
        shadow.fill_range(0x100, 1, 0);
        assert_eq!(lg.fingerprint(), before, "zero values do not contribute");
    }

    #[test]
    fn meta_touches_are_recorded() {
        let (_shadow, mut lg) = setup();
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
