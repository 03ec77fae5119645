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
//! *using* it (an indirect jump) is a violation. The propagation itself, and
//! both lifeguard forms, are the shared crate-private `dataflow` engine;
//! this file is the rule table that makes it MEMCHECK.

use crate::dataflow::{CaUpdate, Rules};
use crate::lifeguard::ViolationKind;
use paralog_events::{CaPhase, HighLevelKind};
use paralog_order::{CaActions, CaPolicy};

/// Metadata value for "undefined" (bit 0 set). The inverted encoding keeps
/// never-touched memory — shadow value 0 — *defined*, so only heap memory
/// between `malloc` and first initialization trips the check, mirroring how
/// Memcheck treats non-heap memory it has no allocation information for.
pub const UNDEFINED: u8 = 0b01;

/// MEMCHECK's ConflictAlert subscriptions. §4.1: MEMCHECK requires IT
/// flushes on high-level events; the policy requests `flush_it` (with the
/// conservative barrier) on both malloc and free.
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

/// MEMCHECK as an instance of the dataflow engine.
pub(crate) static RULES: Rules = Rules {
    name: "MemCheck",
    bad: UNDEFINED,
    jump: ViolationKind::UndefinedUse,
    ca_policy: memcheck_ca_policy,
    ca_update: |what, phase| match (what, phase) {
        // Fresh heap memory is undefined until first written; freed memory
        // immediately reverts to undefined.
        (HighLevelKind::Malloc, CaPhase::End) | (HighLevelKind::Free, CaPhase::Begin) => {
            CaUpdate::Fill(UNDEFINED)
        }
        _ => CaUpdate::Ignore,
    },
    race_fill: None,
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataflow::{Dataflow, DataflowConcurrent};
    use crate::factory::ConcurrentLifeguard;
    use crate::lifeguard::{HandlerCtx, Lifeguard};
    use paralog_events::{AddrRange, CaRecord, EventRecord, MemRef, MetaOp, Reg, Rid, ThreadId};
    use paralog_meta::AtomicShadow;
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
        let (shadow, mut lg) = setup();
        let range = AddrRange::new(0x1000, 16);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        assert_eq!(shadow.join_range(range.start, range.len), UNDEFINED);
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
        assert_eq!(shadow.join_range(0x1000, 4), 0);
        assert_eq!(shadow.join_range(0x1004, 4), UNDEFINED);
    }

    #[test]
    fn copying_undefined_is_silent_using_it_reports() {
        let (_shadow, mut lg) = setup();
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
        assert_eq!(lg.reg(0), UNDEFINED);
        // Use it as a jump target: violation.
        lg.handle(&MetaOp::CheckJmp { target: r(0) }, Rid(3), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::UndefinedUse);
    }

    #[test]
    fn spec_requests_it_flush_on_malloc_and_free() {
        let (_shadow, lg) = setup();
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
        let (_shadow, mut lg) = setup();
        lg.set_reg(2, UNDEFINED);
        lg.handle(
            &MetaOp::ImmToReg { dst: r(2) },
            Rid(1),
            &mut HandlerCtx::new(),
        );
        assert_eq!(lg.reg(2), 0);
    }

    #[test]
    fn concurrent_form_matches_sequential_lattice() {
        use paralog_events::Instr;
        let conc = DataflowConcurrent::new(&RULES, 2);
        let (_shadow, mut seq) = setup();
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
    }

    #[test]
    fn concurrent_reads_honor_versioned_snapshots() {
        use paralog_events::Instr;
        let conc = DataflowConcurrent::new(&RULES, 1);
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
}
