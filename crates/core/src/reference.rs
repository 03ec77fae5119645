//! The in-line sequential reference analysis.
//!
//! Correctness invariant #1 (DESIGN.md): parallel monitoring — arcs, delayed
//! advertising, ConflictAlert barriers, TSO versioning and all — must leave
//! the *same final metadata* as a sequential analysis applied in the
//! application's global retirement/visibility order. This module is that
//! oracle: an independent, accelerator-free implementation of the bundled
//! dataflow/check analyses, driven directly by the simulator's global event
//! order (not by the lifeguard pipeline), producing a fingerprint compatible
//! with [`Lifeguard::fingerprint`](paralog_lifeguards::Lifeguard). It shares
//! no metadata container with the lifeguards it checks: its shadow is a
//! plain `BTreeMap` of the non-clean bytes.
//!
//! Under TSO a store's metadata becomes globally visible at *drain* time,
//! while a forwarded load must take the pending store's metadata — the
//! reference stashes per-store metadata in a mirror of the store buffer.
//!
//! The race lifeguards are excluded: LockSet's state machine is
//! order-sensitive between unordered (non-conflicting) accesses, so
//! equivalent legal schedules may legitimately differ; HappensBefore keeps
//! word-table metadata (epochs and vector clocks) with no byte-shadow
//! form for this oracle to mirror — its cross-backend determinism is
//! checked by the parity table's race rows instead
//! (`tests/common/parity.rs`).

use paralog_events::{Addr, AddrRange, HighLevelKind, Instr, MemRef, Rid, SyscallKind, NUM_REGS};
use paralog_lifeguards::{Fingerprint, LifeguardKind, TAINTED, UNDEFINED};
use std::collections::{BTreeMap, VecDeque};

/// The reference engine.
#[derive(Debug)]
pub struct Reference {
    kind: LifeguardKind,
    /// Metadata of every non-clean application byte (absent = clean).
    mem: BTreeMap<Addr, u8>,
    regs: Vec<[u8; NUM_REGS]>,
    /// TSO mirror of each store buffer: `(rid, target, metadata value)`.
    pending: Vec<VecDeque<(Rid, MemRef, u8)>>,
    tso: bool,
}

impl Reference {
    /// Creates a reference for `kind` over `threads` application threads.
    ///
    /// # Panics
    ///
    /// Panics for the race lifeguards ([`LifeguardKind::LockSet`],
    /// [`LifeguardKind::HappensBefore`] — see module docs).
    pub fn new(kind: LifeguardKind, threads: usize, tso: bool) -> Self {
        assert!(
            kind != LifeguardKind::LockSet && kind != LifeguardKind::HappensBefore,
            "race lifeguards have no byte-shadow sequential reference"
        );
        Reference {
            kind,
            mem: BTreeMap::new(),
            regs: vec![[0; NUM_REGS]; threads],
            pending: (0..threads).map(|_| VecDeque::new()).collect(),
            tso,
        }
    }

    fn mem_value(&self, tid: usize, src: MemRef) -> u8 {
        if self.tso {
            // Store-to-load forwarding: youngest fully-covering pending store.
            if let Some((_, _, v)) = self.pending[tid].iter().rev().find(|(_, m, _)| {
                m.addr <= src.addr && src.addr + u64::from(src.size) <= m.addr + u64::from(m.size)
            }) {
                return *v;
            }
        }
        self.join_range(src.range())
    }

    fn join_range(&self, range: AddrRange) -> u8 {
        self.mem
            .range(range.start..range.end())
            .fold(0, |acc, (_, v)| acc | v)
    }

    fn set_range(&mut self, range: AddrRange, value: u8) {
        if value == 0 {
            let dirty: Vec<Addr> = self
                .mem
                .range(range.start..range.end())
                .map(|(&a, _)| a)
                .collect();
            for a in dirty {
                self.mem.remove(&a);
            }
        } else {
            self.mem
                .extend((range.start..range.end()).map(|a| (a, value)));
        }
    }

    /// Applies one retired instruction of thread `tid` (call in global
    /// retirement order).
    pub fn on_instr(&mut self, tid: usize, rid: Rid, instr: &Instr) {
        match self.kind {
            LifeguardKind::TaintCheck | LifeguardKind::MemCheck => {
                self.dataflow_instr(tid, rid, instr)
            }
            LifeguardKind::AddrCheck => { /* checks do not mutate metadata */ }
            LifeguardKind::LockSet | LifeguardKind::HappensBefore => unreachable!(),
        }
    }

    fn dataflow_instr(&mut self, tid: usize, rid: Rid, instr: &Instr) {
        match *instr {
            Instr::Load { dst, src } => {
                self.regs[tid][dst.index()] = self.mem_value(tid, src);
            }
            Instr::Store { dst, src } => {
                let v = self.regs[tid][src.index()];
                if self.tso {
                    self.pending[tid].push_back((rid, dst, v));
                } else {
                    self.set_range(dst.range(), v);
                }
            }
            Instr::MovRR { dst, src } | Instr::Alu1 { dst, a: src } => {
                self.regs[tid][dst.index()] = self.regs[tid][src.index()];
            }
            Instr::MovRI { dst } => self.regs[tid][dst.index()] = 0,
            Instr::Alu2 { dst, a, b } => {
                self.regs[tid][dst.index()] = self.regs[tid][a.index()] | self.regs[tid][b.index()];
            }
            Instr::AluMem { dst, a, src } => {
                self.regs[tid][dst.index()] = self.regs[tid][a.index()] | self.mem_value(tid, src);
            }
            Instr::JmpReg { .. } | Instr::Nop => {}
            Instr::Rmw { mem, reg } => {
                let m = self.mem_value(tid, mem);
                let r = self.regs[tid][reg.index()];
                if self.tso {
                    // RMW drains the buffer (fence) before executing.
                    self.drain_all(tid);
                    self.set_range(mem.range(), r);
                } else {
                    self.set_range(mem.range(), r);
                }
                self.regs[tid][reg.index()] = m;
            }
        }
    }

    /// Applies the metadata effect of thread `tid`'s store `rid` draining to
    /// the cache (TSO only; call in global drain order).
    pub fn on_store_drain(&mut self, tid: usize, rid: Rid) {
        debug_assert!(self.tso, "drains only exist under TSO");
        if self.kind == LifeguardKind::AddrCheck {
            return;
        }
        // FIFO drains: the front entry must be `rid`.
        if let Some((front_rid, mem, v)) = self.pending[tid].pop_front() {
            debug_assert_eq!(front_rid, rid, "stores drain in order");
            self.set_range(mem.range(), v);
        }
    }

    /// Drains every pending store of `tid` (fences, thread end).
    pub fn drain_all(&mut self, tid: usize) {
        while let Some((_, mem, v)) = self.pending[tid].pop_front() {
            self.set_range(mem.range(), v);
        }
    }

    /// Applies a high-level event's metadata effect at its global-order
    /// point (the issuer's broadcast step). Updates fire at the phase the
    /// lifeguards apply them: malloc at End, free at Begin, `read()` at End.
    pub fn on_high_level(
        &mut self,
        what: HighLevelKind,
        phase: paralog_events::CaPhase,
        range: Option<AddrRange>,
    ) {
        use paralog_events::CaPhase;
        let Some(range) = range else { return };
        match (self.kind, what, phase) {
            (LifeguardKind::TaintCheck, HighLevelKind::Malloc, CaPhase::End) => {
                self.set_range(range, 0);
            }
            (
                LifeguardKind::TaintCheck,
                HighLevelKind::Syscall(SyscallKind::ReadInput),
                CaPhase::End,
            ) => {
                self.set_range(range, TAINTED);
            }
            (LifeguardKind::MemCheck, HighLevelKind::Malloc, CaPhase::End)
            | (LifeguardKind::MemCheck, HighLevelKind::Free, CaPhase::Begin) => {
                self.set_range(range, UNDEFINED);
            }
            (LifeguardKind::AddrCheck, HighLevelKind::Malloc, CaPhase::End) => {
                self.set_range(range, 1);
            }
            (LifeguardKind::AddrCheck, HighLevelKind::Free, CaPhase::Begin) => {
                self.set_range(range, 0);
            }
            _ => {}
        }
    }

    /// Fingerprint compatible with the lifeguards' (memory shadow only).
    pub fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        for (&addr, &v) in &self.mem {
            fp.mix(addr, u64::from(v));
        }
        fp.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::Reg;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn sc_taint_propagation_matches_lifeguard_semantics() {
        let mut rf = Reference::new(LifeguardKind::TaintCheck, 1, false);
        rf.on_high_level(
            HighLevelKind::Syscall(SyscallKind::ReadInput),
            paralog_events::CaPhase::End,
            Some(AddrRange::new(0x100, 8)),
        );
        rf.on_instr(
            0,
            Rid(1),
            &Instr::Load {
                dst: r(0),
                src: MemRef::new(0x100, 4),
            },
        );
        rf.on_instr(
            0,
            Rid(2),
            &Instr::Store {
                dst: MemRef::new(0x200, 4),
                src: r(0),
            },
        );
        assert_eq!(rf.join_range(AddrRange::new(0x200, 4)), TAINTED);
    }

    #[test]
    fn tso_store_defers_until_drain() {
        let mut rf = Reference::new(LifeguardKind::TaintCheck, 2, true);
        rf.set_range(AddrRange::new(0x100, 4), TAINTED);
        rf.on_instr(
            0,
            Rid(1),
            &Instr::Load {
                dst: r(0),
                src: MemRef::new(0x100, 4),
            },
        );
        rf.on_instr(
            0,
            Rid(2),
            &Instr::Store {
                dst: MemRef::new(0x200, 4),
                src: r(0),
            },
        );
        // Thread 1 reads before the drain: old (clean) metadata.
        rf.on_instr(
            1,
            Rid(1),
            &Instr::Load {
                dst: r(1),
                src: MemRef::new(0x200, 4),
            },
        );
        assert_eq!(rf.regs[1][1], 0);
        rf.on_store_drain(0, Rid(2));
        rf.on_instr(
            1,
            Rid(2),
            &Instr::Load {
                dst: r(1),
                src: MemRef::new(0x200, 4),
            },
        );
        assert_eq!(rf.regs[1][1], TAINTED);
    }

    #[test]
    fn tso_forwarding_sees_own_pending_store() {
        let mut rf = Reference::new(LifeguardKind::TaintCheck, 1, true);
        rf.set_range(AddrRange::new(0x100, 4), TAINTED);
        rf.on_instr(
            0,
            Rid(1),
            &Instr::Load {
                dst: r(0),
                src: MemRef::new(0x100, 4),
            },
        );
        rf.on_instr(
            0,
            Rid(2),
            &Instr::Store {
                dst: MemRef::new(0x200, 4),
                src: r(0),
            },
        );
        // Load of own pending store forwards the tainted value.
        rf.on_instr(
            0,
            Rid(3),
            &Instr::Load {
                dst: r(2),
                src: MemRef::new(0x200, 4),
            },
        );
        assert_eq!(
            rf.regs[0][2], TAINTED,
            "forwarded load takes pending metadata"
        );
    }

    #[test]
    fn addrcheck_reference_tracks_allocation_only() {
        let mut rf = Reference::new(LifeguardKind::AddrCheck, 1, false);
        let range = AddrRange::new(0x1000, 64);
        rf.on_high_level(
            HighLevelKind::Malloc,
            paralog_events::CaPhase::End,
            Some(range),
        );
        let before = rf.fingerprint();
        // Instructions do not change AddrCheck metadata.
        rf.on_instr(
            0,
            Rid(1),
            &Instr::Store {
                dst: MemRef::new(0x1000, 4),
                src: r(0),
            },
        );
        assert_eq!(rf.fingerprint(), before);
        rf.on_high_level(
            HighLevelKind::Free,
            paralog_events::CaPhase::Begin,
            Some(range),
        );
        assert_ne!(rf.fingerprint(), before);
    }

    #[test]
    #[should_panic(expected = "race lifeguards")]
    fn lockset_reference_rejected() {
        let _ = Reference::new(LifeguardKind::LockSet, 1, false);
    }

    #[test]
    #[should_panic(expected = "race lifeguards")]
    fn happensbefore_reference_rejected() {
        let _ = Reference::new(LifeguardKind::HappensBefore, 1, false);
    }
}
