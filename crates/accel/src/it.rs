//! Inheritance Tracking (IT) with delayed advertising (§4.1–§4.2, Figure 3).
//!
//! IT tracks, in hardware, the *inherits-from* memory address of each
//! application register. Propagation chains like
//! `load r0←A; mov r1←r0; store B←r1` collapse into a single delivered
//! `mem_to_mem(B, A)` event instead of three handler invocations.
//!
//! Holding a row `(reg → A)` means the lifeguard's read of `metadata(A)` has
//! been *deferred*; anything that may change `metadata(A)` before delivery is
//! a **conflict**:
//!
//! * *Local conflicts* (a store of this thread overwrites A) are detected by
//!   checking every store against the table and flushing affected rows first
//!   — same as the sequential design.
//! * *Remote conflicts* (another thread's store, Figure 3's event `j`) cannot
//!   be seen locally. **Delayed advertising** closes the hole: the thread's
//!   advertised progress is `min(rid held in the table) - 1`, so the remote
//!   lifeguard's arc check keeps the conflicting write gated until every
//!   deferred read has been delivered.
//! * *High-level conflicts* (e.g. a `free` in MEMCHECK-style lifeguards)
//!   arrive as ConflictAlert records and flush the whole table.

use paralog_events::{Instr, MemRef, MetaOp, Reg, Rid, NUM_REGS};

/// What a register's deferred metadata state is inherited from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItSource {
    /// A memory location: the lifeguard's read of `metadata(addr)` is
    /// deferred — remote writes to it are conflicts, and delayed
    /// advertising must cover the row's record id.
    Mem(MemRef),
    /// An immediate (or a chain of immediates): the metadata value is known
    /// clean. No memory read is deferred, so clean rows neither conflict
    /// with remote events nor hold back advertised progress.
    Clean,
}

/// One IT table row: where the register's metadata is inherited from, and
/// the record id of the deferring event (the RID field added in §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItEntry {
    /// The inherits-from source.
    pub src: ItSource,
    /// Record id of the event that created (or propagated) the inheritance.
    pub rid: Rid,
}

impl ItEntry {
    /// The deferred memory operand, if this row inherits from memory.
    pub fn mem(&self) -> Option<MemRef> {
        match self.src {
            ItSource::Mem(m) => Some(m),
            ItSource::Clean => None,
        }
    }
}

/// Reasons the table (or part of it) was flushed — each is a distinct
/// mechanism in the paper and is counted separately.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// A local event conflicted with rows.
    LocalConflict,
    /// A dependence stall flushed everything to publish accurate progress
    /// (the no-deadlock rule of §4.2).
    DependenceStall,
    /// A ConflictAlert record flushed everything (§4.3).
    ConflictAlert,
    /// The advertising-lag threshold forced a refresh (§4.2).
    Threshold,
    /// A TSO versioned access required materializing same-address rows
    /// (§5.5, "Hardware Accelerators Revisited").
    Versioned,
    /// Timesliced monitoring switched application threads: IT rows describe
    /// the *previous* thread's registers and must be materialized.
    ContextSwitch,
}

/// IT statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItStats {
    /// Events absorbed without delivery.
    pub absorbed: u64,
    /// Metadata ops delivered to the lifeguard.
    pub delivered: u64,
    /// Rows flushed due to local conflicts.
    pub local_conflict_flushes: u64,
    /// Full-table flushes on dependence stalls.
    pub stall_flushes: u64,
    /// Full-table flushes on ConflictAlerts.
    pub ca_flushes: u64,
    /// Threshold-forced flushes.
    pub threshold_flushes: u64,
}

/// The Inheritance Tracking accelerator for one lifeguard thread.
#[derive(Debug)]
pub struct InheritanceTracker {
    rows: [Option<ItEntry>; NUM_REGS],
    /// Per row, the rid of a memory-inheriting row and [`NO_MEM_ROW`]
    /// otherwise: the fold [`advertisable_progress`] takes, kept beside
    /// `rows` by [`set_row`] and [`take_row`], the only two writers of
    /// either array.
    ///
    /// [`advertisable_progress`]: InheritanceTracker::advertisable_progress
    /// [`set_row`]: InheritanceTracker::set_row
    /// [`take_row`]: InheritanceTracker::take_row
    mem_rids: [u64; NUM_REGS],
    /// Record id of the last event processed through the tracker.
    last_processed: Rid,
    /// Optional bound on `last_processed - advertised progress` (§4.2).
    threshold: Option<u64>,
    stats: ItStats,
}

/// [`InheritanceTracker::mem_rids`]'s entry for a row that defers no
/// memory read; above every real rid, so it never wins the minimum.
const NO_MEM_ROW: u64 = u64::MAX;

impl InheritanceTracker {
    /// Creates an empty tracker with the given advertising-lag threshold
    /// (`None` disables threshold flushes).
    pub fn new(threshold: Option<u64>) -> Self {
        InheritanceTracker {
            rows: [None; NUM_REGS],
            mem_rids: [NO_MEM_ROW; NUM_REGS],
            last_processed: Rid::ZERO,
            threshold,
            stats: ItStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ItStats {
        self.stats
    }

    /// The row currently held for `reg` (diagnostic).
    pub fn row(&self, reg: Reg) -> Option<ItEntry> {
        self.rows[reg.index()]
    }

    /// Number of live rows.
    pub fn live_rows(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// Number of rows deferring a memory read (the ones flushes target).
    pub fn live_mem_rows(&self) -> usize {
        self.mem_rids.iter().filter(|&&r| r != NO_MEM_ROW).count()
    }

    /// The progress this lifeguard may advertise: the youngest record id such
    /// that *all* work at or before it is complete. Holding a row for rid `m`
    /// caps progress at `m - 1` (delayed advertising, §4.2).
    pub fn advertisable_progress(&self) -> Rid {
        // Only memory-inheriting rows defer a metadata read; clean rows hold
        // no remote-visible state and do not delay advertising.
        match self.mem_rids.iter().copied().min() {
            Some(min_held) if min_held != NO_MEM_ROW => {
                Rid(min_held.saturating_sub(1)).min(self.last_processed)
            }
            _ => self.last_processed,
        }
    }

    /// Writes row `idx`, keeping [`InheritanceTracker::mem_rids`] in step.
    fn set_row(&mut self, idx: usize, row: Option<ItEntry>) {
        self.mem_rids[idx] = match row {
            Some(ItEntry {
                src: ItSource::Mem(_),
                rid,
            }) => rid.0,
            _ => NO_MEM_ROW,
        };
        self.rows[idx] = row;
    }

    /// Empties row `idx`, returning what it held.
    fn take_row(&mut self, idx: usize) -> Option<ItEntry> {
        self.mem_rids[idx] = NO_MEM_ROW;
        self.rows[idx].take()
    }

    /// Processes one instruction event, appending the metadata ops to
    /// deliver to the lifeguard to `out`, in order (flushes first); appending
    /// nothing means the event was fully absorbed into the table.
    pub fn process(&mut self, instr: &Instr, rid: Rid, out: &mut Vec<MetaOp>) {
        let start = out.len();
        // Local-conflict detection: a memory write may overwrite an
        // inherits-from location; affected rows must be delivered *before*
        // the write's own metadata effect (Figure 3's sequential rule).
        if let Some((mem, kind)) = instr.mem_access() {
            if kind.writes() {
                self.flush_overlapping(mem, out, FlushReason::LocalConflict);
            }
        }
        match *instr {
            Instr::Load { dst, src } => {
                self.set_row(
                    dst.index(),
                    Some(ItEntry {
                        src: ItSource::Mem(src),
                        rid,
                    }),
                );
                self.stats.absorbed += 1;
            }
            Instr::MovRR { dst, src } | Instr::Alu1 { dst, a: src } => {
                match self.rows[src.index()] {
                    Some(entry) => {
                        // Copy the row, RID included (Figure 3, event i+1).
                        self.set_row(dst.index(), Some(entry));
                        self.stats.absorbed += 1;
                    }
                    None => {
                        self.take_row(dst.index());
                        out.push(MetaOp::RegToReg { dst, src });
                    }
                }
            }
            Instr::MovRI { dst } => {
                // Immediates are clean sources: absorb (deliver lazily).
                self.set_row(
                    dst.index(),
                    Some(ItEntry {
                        src: ItSource::Clean,
                        rid,
                    }),
                );
                self.stats.absorbed += 1;
            }
            Instr::Alu2 { dst, a, b } => {
                // join(clean, x) = x, so single-inheritance still covers
                // every combination with at most one memory source; only
                // mem⊔mem (rare in real code) needs materialization.
                let ra = self.rows[a.index()];
                let rb = self.rows[b.index()];
                match (ra.map(|e| e.src), rb.map(|e| e.src)) {
                    (Some(ItSource::Clean), Some(ItSource::Clean)) => {
                        self.set_row(
                            dst.index(),
                            Some(ItEntry {
                                src: ItSource::Clean,
                                rid,
                            }),
                        );
                        self.stats.absorbed += 1;
                    }
                    (Some(ItSource::Mem(_)), Some(ItSource::Clean)) => {
                        self.set_row(dst.index(), ra);
                        self.stats.absorbed += 1;
                    }
                    (Some(ItSource::Clean), Some(ItSource::Mem(_))) => {
                        self.set_row(dst.index(), rb);
                        self.stats.absorbed += 1;
                    }
                    (Some(ItSource::Clean), None) => {
                        self.take_row(dst.index());
                        out.push(MetaOp::RegToReg { dst, src: b });
                    }
                    (None, Some(ItSource::Clean)) => {
                        self.take_row(dst.index());
                        out.push(MetaOp::RegToReg { dst, src: a });
                    }
                    _ => {
                        self.flush_reg(a, out);
                        self.flush_reg(b, out);
                        self.take_row(dst.index());
                        out.push(MetaOp::AluRR { dst, a, b: Some(b) });
                    }
                }
            }
            Instr::AluMem { dst, a, src } => {
                match self.rows[a.index()].map(|e| e.src) {
                    Some(ItSource::Clean) => {
                        // clean ⊔ mem = mem: behaves like a load of `src`.
                        self.set_row(
                            dst.index(),
                            Some(ItEntry {
                                src: ItSource::Mem(src),
                                rid,
                            }),
                        );
                        self.stats.absorbed += 1;
                    }
                    _ => {
                        self.flush_reg(a, out);
                        self.take_row(dst.index());
                        out.push(MetaOp::AluRM { dst, a, src });
                    }
                }
            }
            Instr::Store { dst, src } => {
                match self.rows[src.index()].map(|e| e.src) {
                    Some(ItSource::Mem(from)) => {
                        // The coalesced event IT exists for (Figure 3, i+2).
                        out.push(MetaOp::MemToMem { dst, src: from });
                        // The row stays: later stores of the same register
                        // keep propagating from the original address.
                    }
                    Some(ItSource::Clean) => out.push(MetaOp::ImmToMem { dst }),
                    None => out.push(MetaOp::RegToMem { dst, src }),
                }
            }
            Instr::JmpReg { target } => {
                match self.rows[target.index()].map(|e| e.src) {
                    Some(ItSource::Clean) => {
                        // A provably-clean target cannot trip the check.
                        self.stats.absorbed += 1;
                    }
                    Some(ItSource::Mem(_)) => {
                        self.flush_reg(target, out);
                        out.push(MetaOp::CheckJmp { target });
                    }
                    None => out.push(MetaOp::CheckJmp { target }),
                }
            }
            Instr::Rmw { mem, reg } => {
                self.flush_reg(reg, out);
                out.push(MetaOp::RmwOp { mem, reg });
            }
            Instr::Nop => {}
        }
        self.last_processed = rid;
        self.stats.delivered += (out.len() - start) as u64;
        // Threshold rule: never let advertising lag exceed the bound.
        if let Some(limit) = self.threshold {
            if self.last_processed.0 - self.advertisable_progress().0 > limit {
                self.flush_all(FlushReason::Threshold, out);
            }
        }
    }

    /// Flushes deferred rows, appending each deferred load to `out` as an
    /// explicit `MemToReg`. Used on dependence stalls, ConflictAlerts and
    /// threshold overruns.
    ///
    /// Clean rows hold no deferred *memory* state — they neither conflict
    /// with remote events nor delay advertised progress — so they survive
    /// every flush except a context switch (where the physical registers
    /// change identity and the rows must be materialized for the old
    /// thread's lifeguard).
    pub fn flush_all(&mut self, reason: FlushReason, out: &mut Vec<MetaOp>) {
        let flush_clean = reason == FlushReason::ContextSwitch;
        let start = out.len();
        for idx in 0..NUM_REGS {
            let keep_clean = matches!(
                self.rows[idx],
                Some(ItEntry {
                    src: ItSource::Clean,
                    ..
                })
            ) && !flush_clean;
            if keep_clean {
                continue;
            }
            if let Some(entry) = self.take_row(idx) {
                out.push(match entry.src {
                    ItSource::Mem(src) => MetaOp::MemToReg {
                        dst: Reg(idx as u8),
                        src,
                    },
                    ItSource::Clean => MetaOp::ImmToReg {
                        dst: Reg(idx as u8),
                    },
                });
            }
        }
        match reason {
            FlushReason::DependenceStall => self.stats.stall_flushes += 1,
            FlushReason::ConflictAlert => self.stats.ca_flushes += 1,
            FlushReason::Threshold => self.stats.threshold_flushes += 1,
            FlushReason::LocalConflict | FlushReason::Versioned | FlushReason::ContextSwitch => {}
        }
        self.stats.delivered += (out.len() - start) as u64;
    }

    /// Notes that record `rid` was processed outside [`process`]
    /// (ConflictAlert records, filtered checks) so that advertised progress
    /// keeps advancing.
    ///
    /// [`process`]: InheritanceTracker::process
    pub fn note_processed(&mut self, rid: Rid) {
        self.last_processed = self.last_processed.max(rid);
    }

    /// Drops the row for `reg` without delivering it — used when an event
    /// bypasses [`process`] but overwrites the register (TSO versioned
    /// deliveries, §5.5), making any held inheritance stale.
    ///
    /// [`process`]: InheritanceTracker::process
    pub fn clear_reg(&mut self, reg: Reg) {
        self.take_row(reg.index());
    }

    /// Materializes `reg`'s row (if any) as an op appended to `out` — used
    /// by events that bypass [`process`] but read the register, whose
    /// lifeguard-side state is stale while a row is held (§5.5).
    ///
    /// [`process`]: InheritanceTracker::process
    pub fn flush_reg_public(&mut self, reg: Reg, out: &mut Vec<MetaOp>) {
        let start = out.len();
        self.flush_reg(reg, out);
        self.stats.delivered += (out.len() - start) as u64;
    }

    /// Flushes rows whose inherits-from operand overlaps `mem` into `out`
    /// (TSO versioned accesses and selective CA ranges).
    pub fn flush_overlapping_public(&mut self, mem: MemRef, out: &mut Vec<MetaOp>) {
        let start = out.len();
        self.flush_overlapping(mem, out, FlushReason::Versioned);
        self.stats.delivered += (out.len() - start) as u64;
    }

    fn flush_overlapping(&mut self, mem: MemRef, out: &mut Vec<MetaOp>, reason: FlushReason) {
        let range = mem.range();
        for idx in 0..NUM_REGS {
            if let Some(entry) = self.rows[idx] {
                let Some(src) = entry.mem() else { continue };
                if src.range().overlaps(&range) {
                    self.take_row(idx);
                    out.push(MetaOp::MemToReg {
                        dst: Reg(idx as u8),
                        src,
                    });
                    if reason == FlushReason::LocalConflict {
                        self.stats.local_conflict_flushes += 1;
                    }
                }
            }
        }
    }

    fn flush_reg(&mut self, reg: Reg, out: &mut Vec<MetaOp>) {
        if let Some(entry) = self.take_row(reg.index()) {
            out.push(match entry.src {
                ItSource::Mem(src) => MetaOp::MemToReg { dst: reg, src },
                ItSource::Clean => MetaOp::ImmToReg { dst: reg },
            });
        }
    }
}

impl Default for InheritanceTracker {
    fn default() -> Self {
        InheritanceTracker::new(Some(4096))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(i: u8) -> Reg {
        Reg::new(i)
    }

    fn m(addr: u64) -> MemRef {
        MemRef::new(addr, 4)
    }

    fn process(it: &mut InheritanceTracker, instr: &Instr, rid: Rid) -> Vec<MetaOp> {
        let mut out = Vec::new();
        it.process(instr, rid, &mut out);
        out
    }

    fn flush_all(it: &mut InheritanceTracker, reason: FlushReason) -> Vec<MetaOp> {
        let mut out = Vec::new();
        it.flush_all(reason, &mut out);
        out
    }

    fn flush_overlapping(it: &mut InheritanceTracker, mem: MemRef) -> Vec<MetaOp> {
        let mut out = Vec::new();
        it.flush_overlapping_public(mem, &mut out);
        out
    }

    #[test]
    fn figure3_coalescing_chain() {
        // i:   mov r0 <- A      (absorbed)
        // i+1: mov r1 <- r0     (absorbed, row copied with RID)
        // i+2: mov B  <- r1     (delivers mem_to_mem(B, A))
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        let b = m(0x200);
        assert!(process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(10)).is_empty());
        assert!(process(
            &mut it,
            &Instr::MovRR {
                dst: r(1),
                src: r(0)
            },
            Rid(11)
        )
        .is_empty());
        assert_eq!(
            it.row(r(1)),
            Some(ItEntry {
                src: ItSource::Mem(a),
                rid: Rid(10)
            })
        );
        let ops = process(&mut it, &Instr::Store { dst: b, src: r(1) }, Rid(12));
        assert_eq!(ops, vec![MetaOp::MemToMem { dst: b, src: a }]);
        // Row survives the store (Figure 3 keeps %ebx = (A, i)).
        assert_eq!(
            it.row(r(1)),
            Some(ItEntry {
                src: ItSource::Mem(a),
                rid: Rid(10)
            })
        );
    }

    #[test]
    fn figure3_delayed_advertising_progress() {
        // Reproduces the progress values of Figure 3(b).
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        let c = m(0x300);
        let d = m(0x400);
        let i = 10u64;
        process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(i)); // i
        assert_eq!(it.advertisable_progress(), Rid(i - 1));
        process(
            &mut it,
            &Instr::MovRR {
                dst: r(1),
                src: r(0),
            },
            Rid(i + 1),
        ); // i+1
        assert_eq!(it.advertisable_progress(), Rid(i - 1));
        process(
            &mut it,
            &Instr::Store {
                dst: m(0x200),
                src: r(1),
            },
            Rid(i + 2),
        ); // i+2
        assert_eq!(
            it.advertisable_progress(),
            Rid(i - 1),
            "rows still hold rid i"
        );
        process(&mut it, &Instr::Load { dst: r(0), src: c }, Rid(i + 3)); // i+3 overwrites r0
        assert_eq!(
            it.advertisable_progress(),
            Rid(i - 1),
            "r1 still holds rid i"
        );
        process(&mut it, &Instr::Load { dst: r(1), src: d }, Rid(i + 4)); // i+4 overwrites r1
                                                                          // Now the oldest held rid is i+3 → progress = i+2 >= i, so the remote
                                                                          // write j to A may finally be delivered.
        assert_eq!(it.advertisable_progress(), Rid(i + 2));
    }

    #[test]
    fn local_conflict_flushes_before_store() {
        // Sequential rule: store to A flushes rows inheriting from A first.
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(1));
        let ops = process(&mut it, &Instr::Store { dst: a, src: r(5) }, Rid(2));
        assert_eq!(
            ops,
            vec![
                MetaOp::MemToReg { dst: r(0), src: a },
                MetaOp::RegToMem { dst: a, src: r(5) },
            ],
            "flush precedes the store's own effect"
        );
        assert_eq!(it.row(r(0)), None);
        assert_eq!(it.stats().local_conflict_flushes, 1);
    }

    #[test]
    fn partial_overlap_also_conflicts() {
        let mut it = InheritanceTracker::new(None);
        process(
            &mut it,
            &Instr::Load {
                dst: r(0),
                src: MemRef::new(0x100, 8),
            },
            Rid(1),
        );
        let ops = process(
            &mut it,
            &Instr::Store {
                dst: MemRef::new(0x104, 4),
                src: r(2),
            },
            Rid(2),
        );
        assert_eq!(ops.len(), 2);
        assert!(matches!(ops[0], MetaOp::MemToReg { .. }));
    }

    #[test]
    fn two_source_alu_materializes_sources() {
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        let b = m(0x200);
        process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(1));
        process(&mut it, &Instr::Load { dst: r(1), src: b }, Rid(2));
        let ops = process(
            &mut it,
            &Instr::Alu2 {
                dst: r(2),
                a: r(0),
                b: r(1),
            },
            Rid(3),
        );
        assert_eq!(
            ops,
            vec![
                MetaOp::MemToReg { dst: r(0), src: a },
                MetaOp::MemToReg { dst: r(1), src: b },
                MetaOp::AluRR {
                    dst: r(2),
                    a: r(0),
                    b: Some(r(1))
                },
            ]
        );
        assert_eq!(it.live_rows(), 0);
    }

    #[test]
    fn unary_alu_absorbs_like_mov() {
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(1));
        assert!(process(&mut it, &Instr::Alu1 { dst: r(3), a: r(0) }, Rid(2)).is_empty());
        assert_eq!(
            it.row(r(3)),
            Some(ItEntry {
                src: ItSource::Mem(a),
                rid: Rid(1)
            })
        );
    }

    #[test]
    fn mov_from_untracked_reg_delivers() {
        let mut it = InheritanceTracker::new(None);
        let ops = process(
            &mut it,
            &Instr::MovRR {
                dst: r(1),
                src: r(0),
            },
            Rid(1),
        );
        assert_eq!(
            ops,
            vec![MetaOp::RegToReg {
                dst: r(1),
                src: r(0)
            }]
        );
    }

    #[test]
    fn jmp_materializes_target_then_checks() {
        let mut it = InheritanceTracker::new(None);
        let a = m(0x100);
        process(&mut it, &Instr::Load { dst: r(0), src: a }, Rid(1));
        let ops = process(&mut it, &Instr::JmpReg { target: r(0) }, Rid(2));
        assert_eq!(
            ops,
            vec![
                MetaOp::MemToReg { dst: r(0), src: a },
                MetaOp::CheckJmp { target: r(0) },
            ]
        );
    }

    #[test]
    fn flush_all_delivers_every_row() {
        let mut it = InheritanceTracker::new(None);
        process(
            &mut it,
            &Instr::Load {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
        );
        process(
            &mut it,
            &Instr::Load {
                dst: r(1),
                src: m(0x200),
            },
            Rid(2),
        );
        let ops = flush_all(&mut it, FlushReason::DependenceStall);
        assert_eq!(ops.len(), 2);
        assert_eq!(it.live_rows(), 0);
        assert_eq!(it.stats().stall_flushes, 1);
        assert_eq!(it.advertisable_progress(), Rid(2), "accurate after flush");
    }

    #[test]
    fn threshold_forces_refresh() {
        let mut it = InheritanceTracker::new(Some(5));
        process(
            &mut it,
            &Instr::Load {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
        );
        for i in 2..=5u64 {
            assert!(
                process(&mut it, &Instr::Nop, Rid(i)).is_empty(),
                "lag within threshold at {i}"
            );
        }
        // At rid 6 the lag is 6 - 0 = 6 > 5: the event triggers a flush.
        let ops = process(&mut it, &Instr::Nop, Rid(6));
        assert_eq!(ops.len(), 1);
        assert_eq!(it.stats().threshold_flushes, 1);
        assert_eq!(it.advertisable_progress(), Rid(6));
    }

    #[test]
    fn versioned_flush_targets_one_address() {
        let mut it = InheritanceTracker::new(None);
        process(
            &mut it,
            &Instr::Load {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
        );
        process(
            &mut it,
            &Instr::Load {
                dst: r(1),
                src: m(0x200),
            },
            Rid(2),
        );
        let ops = flush_overlapping(&mut it, m(0x100));
        assert_eq!(
            ops,
            vec![MetaOp::MemToReg {
                dst: r(0),
                src: m(0x100)
            }]
        );
        assert_eq!(it.live_rows(), 1);
    }

    #[test]
    fn absorbed_and_delivered_counters() {
        let mut it = InheritanceTracker::new(None);
        process(
            &mut it,
            &Instr::Load {
                dst: r(0),
                src: m(0x100),
            },
            Rid(1),
        );
        process(
            &mut it,
            &Instr::Store {
                dst: m(0x200),
                src: r(0),
            },
            Rid(2),
        );
        let s = it.stats();
        assert_eq!(s.absorbed, 1);
        assert_eq!(s.delivered, 1);
    }

    /// One step of the property below: `kind` 0–9 an instruction through
    /// `process`, 10–14 one of the entry points that bypass it.
    type Step = (u8, u8, u8, u8, u64);

    fn step_instr((kind, d, a, b, slot): Step) -> Instr {
        // Operands 2 bytes apart and 4 wide, so stores partly overlap rows.
        let mem = MemRef::new(0x100 + slot * 2, 4);
        let (dst, a, b) = (r(d), r(a), r(b));
        match kind {
            0 => Instr::Load { dst, src: mem },
            1 => Instr::Store { dst: mem, src: a },
            2 => Instr::MovRR { dst, src: a },
            3 => Instr::MovRI { dst },
            4 => Instr::Alu1 { dst, a },
            5 => Instr::Alu2 { dst, a, b },
            6 => Instr::AluMem { dst, a, src: mem },
            7 => Instr::JmpReg { target: a },
            8 => Instr::Rmw { mem, reg: a },
            _ => Instr::Nop,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The per-row rid array answers exactly what folding the rows
        /// answered before it existed, after every kind of row write.
        #[test]
        fn advertisable_progress_equals_the_row_fold(
            steps in proptest::collection::vec(
                (0u8..15, 0u8..16, 0u8..16, 0u8..16, 0u64..6),
                1..200,
            ),
            threshold in 0usize..3,
        ) {
            let mut it = InheritanceTracker::new([None, Some(4), Some(16)][threshold]);
            let mut last_processed = Rid::ZERO;
            let mut out = Vec::new();
            for (i, &step) in steps.iter().enumerate() {
                let rid = Rid(i as u64 + 1);
                let (kind, d, a, _, slot) = step;
                match kind {
                    0..=9 => {
                        it.process(&step_instr(step), rid, &mut out);
                        last_processed = rid;
                    }
                    10 => it.flush_all(FlushReason::DependenceStall, &mut out),
                    11 => it.flush_all(FlushReason::ContextSwitch, &mut out),
                    12 => it.clear_reg(r(d)),
                    13 => it.flush_reg_public(r(a), &mut out),
                    _ => {
                        it.flush_overlapping_public(MemRef::new(0x100 + slot * 2, 4), &mut out);
                        it.note_processed(rid);
                        last_processed = last_processed.max(rid);
                    }
                }
                let rows: Vec<ItEntry> = (0..NUM_REGS as u8).filter_map(|i| it.row(r(i))).collect();
                let held = rows.iter().filter(|e| e.mem().is_some());
                let fold = match held.clone().map(|e| e.rid).min() {
                    Some(min_held) => Rid(min_held.0.saturating_sub(1)).min(last_processed),
                    None => last_processed,
                };
                proptest::prop_assert_eq!(it.advertisable_progress(), fold);
                proptest::prop_assert_eq!(it.live_mem_rows(), held.count());
            }
        }
    }
}
