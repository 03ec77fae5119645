//! Property tests on the ordering substrate (DESIGN.md §5.2):
//!
//! **Arc soundness** — for any random access sequence, every pair of
//! conflicting accesses (same block, at least one write, different threads)
//! must be ordered by the transitive closure of *recorded* arcs plus program
//! order, for every capture policy × reduction level. Reduction may only
//! drop arcs that are already implied.
//!
//! Plus a codec roundtrip property.

use paralog::events::codec::{decode, encode};
use paralog::events::{
    AccessKind, ArcKind, DependenceArc, EventRecord, Instr, MemRef, Reg, Rid, ThreadId,
};
use paralog::order::{CapturePolicy, OrderCapture, Reduction};
use paralog::sim::{MachineConfig, MemorySystem};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Access {
    thread: usize,
    slot: u64,
    write: bool,
}

fn access_strategy(threads: usize) -> impl Strategy<Value = Access> {
    (0..threads, 0u64..12, any::<bool>()).prop_map(|(thread, slot, write)| Access {
        thread,
        slot,
        write,
    })
}

/// Replays the accesses through the memory system + order capture, then
/// verifies happened-before coverage of every conflict via vector clocks.
fn verify_arc_soundness(
    accesses: &[Access],
    threads: usize,
    policy: CapturePolicy,
    reduction: Reduction,
) -> Result<(), TestCaseError> {
    let mut mem = MemorySystem::new(&MachineConfig::paper(threads));
    let mut capture = OrderCapture::new(threads, policy, reduction);
    let mut rid = vec![Rid::ZERO; threads];
    // Per event: (thread, rid, block, write, arcs).
    let mut events: Vec<(usize, Rid, u64, bool, Vec<DependenceArc>)> = Vec::new();

    for a in accesses {
        let r = rid[a.thread].next();
        rid[a.thread] = r;
        mem.set_core_rid(a.thread, r);
        let addr = 0x1000 + a.slot * 64; // one block per slot
        let kind = if a.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let res = mem.access(a.thread, r, addr, 8, kind);
        let mut arcs = Vec::new();
        for t in &res.touches {
            let src = ThreadId(t.remote_core as u16);
            if let Some(arc) = capture.on_touch(ThreadId(a.thread as u16), r, src, t) {
                arcs.push(arc);
            }
        }
        events.push((a.thread, r, a.slot, a.write, arcs));
    }

    // Vector clocks over recorded arcs + program order.
    let mut vc_of: HashMap<(usize, u64), Vec<u64>> = HashMap::new();
    let mut last_vc: Vec<Vec<u64>> = vec![vec![0; threads]; threads];
    for (t, r, _, _, arcs) in &events {
        let mut vc = last_vc[*t].clone();
        vc[*t] = r.0;
        for arc in arcs {
            // An arc (s, i) means s's event i happened before: join s's
            // clock *at i* (all its events ≤ i are ordered before us).
            let src = arc.src.index();
            if let Some(src_vc) = vc_of.get(&(src, arc.src_rid.0)) {
                for (k, v) in src_vc.iter().enumerate() {
                    vc[k] = vc[k].max(*v);
                }
            }
            vc[src] = vc[src].max(arc.src_rid.0);
        }
        vc_of.insert((*t, r.0), vc.clone());
        last_vc[*t] = vc;
    }

    // Every conflicting pair must be ordered.
    for i in 0..events.len() {
        for j in (i + 1)..events.len() {
            let (ti, ri, bi, wi, _) = &events[i];
            let (tj, rj, bj, wj, _) = &events[j];
            if ti == tj || bi != bj || !(*wi || *wj) {
                continue;
            }
            let vc_j = &vc_of[&(*tj, rj.0)];
            prop_assert!(
                vc_j[*ti] >= ri.0,
                "{policy:?}/{reduction:?}: conflict ({ti},{ri}) -> ({tj},{rj}) on block {bi} \
                 not covered (vc_j[{ti}]={})",
                vc_j[*ti]
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn arcs_cover_all_conflicts(
        accesses in proptest::collection::vec(access_strategy(3), 1..120),
    ) {
        for policy in [CapturePolicy::PerBlock, CapturePolicy::PerCore] {
            for reduction in [Reduction::None, Reduction::Direct, Reduction::Transitive] {
                verify_arc_soundness(&accesses, 3, policy, reduction)?;
            }
        }
    }

    #[test]
    fn reduction_only_removes_implied_arcs(
        accesses in proptest::collection::vec(access_strategy(4), 1..100),
    ) {
        // Stronger reduction must never record *more* arcs.
        let count = |reduction| {
            let mut mem = MemorySystem::new(&MachineConfig::paper(4));
            let mut capture = OrderCapture::new(4, CapturePolicy::PerBlock, reduction);
            let mut rid = [Rid::ZERO; 4];
            for a in &accesses {
                let r = rid[a.thread].next();
                rid[a.thread] = r;
                mem.set_core_rid(a.thread, r);
                let kind = if a.write { AccessKind::Write } else { AccessKind::Read };
                let res = mem.access(a.thread, r, 0x1000 + a.slot * 64, 8, kind);
                for t in &res.touches {
                    let src = ThreadId(t.remote_core as u16);
                    let _ = capture.on_touch(ThreadId(a.thread as u16), r, src, t);
                }
            }
            capture.stats().recorded
        };
        let none = count(Reduction::None);
        let direct = count(Reduction::Direct);
        let transitive = count(Reduction::Transitive);
        prop_assert!(direct <= none);
        prop_assert!(transitive <= direct);
    }

    #[test]
    fn codec_roundtrips_arbitrary_records(
        specs in proptest::collection::vec(
            (0u8..9, 0u64..0x10000, 0u8..16, 0u8..16,
             proptest::collection::vec((0u16..8, 0u64..1000), 0..3)),
            1..80,
        )
    ) {
        let mut records = Vec::new();
        for (i, (op, addr, r1, r2, arcs)) in specs.into_iter().enumerate() {
            let addr = addr & !7;
            let m = MemRef::new(addr, 4);
            let instr = match op {
                0 => Instr::Load { dst: Reg(r1), src: m },
                1 => Instr::Store { dst: m, src: Reg(r1) },
                2 => Instr::MovRR { dst: Reg(r1), src: Reg(r2) },
                3 => Instr::MovRI { dst: Reg(r1) },
                4 => Instr::Alu1 { dst: Reg(r1), a: Reg(r2) },
                5 => Instr::Alu2 { dst: Reg(r1), a: Reg(r2), b: Reg(r1) },
                6 => Instr::AluMem { dst: Reg(r1), a: Reg(r2), src: m },
                7 => Instr::JmpReg { target: Reg(r1) },
                _ => Instr::Nop,
            };
            let mut rec = EventRecord::instr(Rid(i as u64 + 1), instr);
            for (t, r) in arcs {
                rec.arcs.push(DependenceArc::new(ThreadId(t), Rid(r), ArcKind::Raw));
            }
            records.push(rec);
        }
        let bytes = encode(&records);
        let back = decode(&bytes).expect("well-formed stream");
        prop_assert_eq!(back, records);
    }
}
