//! The workload generator engine.
//!
//! Turns a [`WorkloadSpec`] into deterministic per-thread operation streams.
//! Generation works in *idiom slots*: each slot emits a short dataflow idiom
//! (load-compute-store, copy, pointer chase, ...) so register dependences
//! look like compiled code — which is what gives Inheritance Tracking
//! realistic absorption opportunities — plus the benchmark's high-level
//! events (locks, barriers, malloc/free pairs, syscalls) at their configured
//! rates.
//!
//! All SPLASH-2/PARSEC data lives on the heap (the real programs allocate
//! their grids and trees with `malloc` at startup), so each thread opens with
//! a setup `malloc` covering its private region and thread 0 additionally
//! allocates the shared region: AddrCheck therefore checks every data access,
//! as in the paper.

use crate::spec::{Benchmark, WorkloadSpec};
use paralog_events::{AddrRange, BarrierId, Instr, LockId, MemRef, Op, Reg, SyscallKind};
use paralog_sim::heap::{HEAP_BASE, HEAP_SIZE};
use paralog_sim::sync::lock_word;
use paralog_sim::Heap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// A fully generated workload, ready for the platform.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// Benchmark identity, if any.
    pub benchmark: Option<Benchmark>,
    /// Per-thread operation streams.
    pub threads: Vec<Vec<Op>>,
    /// The heap region (spans setup allocations and the dynamic heap).
    pub heap: AddrRange,
    /// Number of locks used.
    pub locks: u32,
}

impl Workload {
    /// Total operations across all threads.
    pub fn total_ops(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Number of application threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Count of high-level (non-instruction) operations.
    pub fn high_level_ops(&self) -> usize {
        self.threads
            .iter()
            .flat_map(|t| t.iter())
            .filter(|op| op.is_high_level())
            .count()
    }
}

impl WorkloadSpec {
    /// Generates the workload. Deterministic: equal specs (including seed)
    /// produce identical streams.
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn build(&self) -> Workload {
        assert!(self.threads > 0, "workload needs at least one thread");
        let mut threads = Vec::with_capacity(self.threads);
        for tid in 0..self.threads {
            threads.push(ThreadGen::new(self, tid).run());
        }
        // The checked heap is the *dynamic* allocator arena: SPLASH-2/PARSEC
        // setup arrays are allocated once and never freed, so (as in the
        // paper, §7) AddrCheck's work concentrates on the malloc/free
        // traffic, leaving its lifeguard mostly waiting for the application.
        Workload {
            name: self.name.clone(),
            benchmark: self.benchmark,
            threads,
            heap: AddrRange::new(HEAP_BASE, HEAP_SIZE),
            locks: self.locks,
        }
    }
}

/// Working registers used by idioms: r0–r5 are short-lived data registers,
/// r6/r7 hold long-lived constants (loop-invariant scalars — set once by an
/// immediate, then used as the second ALU source, the way compiled loops
/// keep strides and scale factors in registers). r8 is the pointer-chase
/// register, r12 the jump-target register.
const DATA_REGS: [u8; 6] = [0, 1, 2, 3, 4, 5];
const CONST_REGS: [u8; 2] = [6, 7];
const CHASE_REG: u8 = 8;
const JUMP_REG: u8 = 12;

struct ThreadGen<'a> {
    spec: &'a WorkloadSpec,
    tid: usize,
    rng: StdRng,
    ops: Vec<Op>,
    /// Dynamic-heap allocator for this thread's arena slice.
    heap: Heap,
    /// Live dynamic allocations (oldest first).
    live: VecDeque<AddrRange>,
    /// The last freed range (for use-after-free injection).
    last_freed: Option<AddrRange>,
    /// The most recent `read()` buffer (tainted data source).
    tainted_zone: Option<AddrRange>,
    /// Sequential cursor into the private region.
    private_cursor: u64,
    /// Cumulative Zipf weights over shared-region word ranks, present only
    /// when the spec skews shared addressing (`zipf_theta`).
    zipf_cdf: Option<Vec<f64>>,
    /// Recently issued addresses, re-accessed for temporal locality.
    recent: VecDeque<MemRef>,
    next_barrier: u32,
    next_lock_slot: usize,
    next_malloc_slot: usize,
    next_syscall_slot: usize,
}

impl<'a> ThreadGen<'a> {
    fn new(spec: &'a WorkloadSpec, tid: usize) -> Self {
        let arena = HEAP_SIZE / spec.threads as u64;
        let heap = Heap::with_region(AddrRange::new(HEAP_BASE + tid as u64 * arena, arena));
        let mut rng = StdRng::seed_from_u64(
            spec.seed ^ (0x9e37_79b9_7f4a_7c15u64.wrapping_mul(tid as u64 + 1)),
        );
        let next_lock_slot = spec
            .lock_every
            .map(|n| jittered(&mut rng, n))
            .unwrap_or(usize::MAX);
        let next_malloc_slot = spec
            .malloc_every
            .map(|n| jittered(&mut rng, n))
            .unwrap_or(usize::MAX);
        let next_syscall_slot = spec
            .syscall_every
            .map(|n| jittered(&mut rng, n))
            .unwrap_or(usize::MAX);
        let zipf_cdf = spec.zipf_theta.map(|theta| {
            let mut cdf = Vec::with_capacity(spec.shared_words as usize);
            let mut total = 0.0f64;
            for rank in 0..spec.shared_words {
                total += 1.0 / ((rank + 1) as f64).powf(theta);
                cdf.push(total);
            }
            cdf
        });
        ThreadGen {
            spec,
            tid,
            rng,
            zipf_cdf,
            ops: Vec::with_capacity(spec.ops_per_thread * 2),
            heap,
            live: VecDeque::new(),
            recent: VecDeque::new(),
            last_freed: None,
            tainted_zone: None,
            private_cursor: 0,
            next_barrier: 0,
            next_lock_slot,
            next_malloc_slot,
            next_syscall_slot,
        }
    }

    fn run(mut self) -> Vec<Op> {
        self.setup_allocations();
        for slot in 0..self.spec.ops_per_thread {
            if let Some(every) = self.spec.barrier_every {
                if slot > 0 && slot % every == 0 {
                    self.ops.push(Op::Barrier {
                        barrier: BarrierId(self.next_barrier),
                    });
                    self.next_barrier += 1;
                }
            }
            if slot >= self.next_malloc_slot {
                self.malloc_free_pair();
                let every = self.spec.malloc_every.expect("guarded by slot schedule");
                self.next_malloc_slot = slot + jittered(&mut self.rng, every).max(1);
            }
            if slot >= self.next_syscall_slot {
                self.syscall();
                let every = self.spec.syscall_every.expect("guarded by slot schedule");
                self.next_syscall_slot = slot + jittered(&mut self.rng, every).max(1);
            }
            if slot >= self.next_lock_slot {
                self.critical_section();
                let every = self.spec.lock_every.expect("guarded by slot schedule");
                self.next_lock_slot = slot + jittered(&mut self.rng, every).max(1);
            }
            // Injection layers: each is gated on its `Option` so a `None`
            // spec draws nothing from the RNG and the historical stream
            // stays byte-identical.
            if let Some(rate) = self.spec.syscall_rate {
                if self.rng.gen_bool(rate) {
                    self.syscall();
                }
            }
            if let Some(rate) = self.spec.race_rate {
                if self.rng.gen_bool(rate) {
                    self.racy_write();
                }
            }
            self.idiom();
        }
        // Close the parallel phase with one final barrier when phased.
        if self.spec.barrier_every.is_some() {
            self.ops.push(Op::Barrier {
                barrier: BarrierId(u32::MAX),
            });
        }
        self.ops
    }

    /// Startup: initialize the constant registers.
    fn setup_allocations(&mut self) {
        for c in CONST_REGS {
            self.ops.push(Op::Instr(Instr::MovRI { dst: Reg(c) }));
        }
    }

    /// A long-lived constant register (second ALU source).
    fn const_reg(&mut self) -> Reg {
        Reg(CONST_REGS[self.rng.gen_range(0..CONST_REGS.len())])
    }

    fn idiom(&mut self) {
        let mix = &self.spec.mix;
        let mut pick = self.rng.gen::<f64>() * mix.total();
        pick -= mix.load_compute_store;
        if pick < 0.0 {
            return self.load_compute_store();
        }
        pick -= mix.copy;
        if pick < 0.0 {
            return self.copy_idiom();
        }
        pick -= mix.compute;
        if pick < 0.0 {
            return self.compute_idiom();
        }
        pick -= mix.pointer_chase;
        if pick < 0.0 {
            return self.pointer_chase();
        }
        pick -= mix.load_use;
        if pick < 0.0 {
            return self.load_use();
        }
        self.indirect_jump();
    }

    fn reg(&mut self) -> Reg {
        Reg(DATA_REGS[self.rng.gen_range(0..DATA_REGS.len())])
    }

    /// A deliberately unprotected write into the racy window at the head of
    /// the shared region: every injecting thread targets the same few words
    /// with no lock held and no ordering sync, so LOCKSET sees inconsistent
    /// discipline and HAPPENSBEFORE sees unordered writes.
    fn racy_write(&mut self) {
        let words = self
            .spec
            .shared_words
            .clamp(1, crate::spec::RACY_WINDOW_WORDS);
        let idx = self.rng.gen_range(0..words);
        let mem = MemRef::new(crate::spec::SHARED_BASE + idx * 8, 8);
        let r = self.reg();
        self.ops.push(Op::Instr(Instr::MovRI { dst: r }));
        self.ops.push(Op::Instr(Instr::Store { dst: mem, src: r }));
    }

    /// Picks a data address: shared region with `shared_fraction`
    /// probability, otherwise private (with a bias toward live dynamic
    /// allocations when churn is configured). A quarter of accesses revisit
    /// a recent address — the temporal reuse (hot fields, stack slots) that
    /// both caches and Idempotent Filters exploit in real programs.
    fn data_addr(&mut self, write_intent: bool) -> (MemRef, bool) {
        if !self.recent.is_empty() && self.rng.gen_bool(0.25) {
            let idx = self.rng.gen_range(0..self.recent.len());
            return (self.recent[idx], write_intent);
        }
        let picked = self.fresh_data_addr(write_intent);
        self.recent.push_back(picked.0);
        if self.recent.len() > 16 {
            self.recent.pop_front();
        }
        picked
    }

    fn fresh_data_addr(&mut self, write_intent: bool) -> (MemRef, bool) {
        let size = if self.rng.gen_bool(0.7) { 4u8 } else { 8u8 };
        if self.rng.gen_bool(self.spec.shared_fraction) {
            let words = self.spec.shared_words;
            let partition = (words / self.spec.threads as u64).max(1);
            let idx = if let Some(cdf) = &self.zipf_cdf {
                // Zipf-skewed rank draw: every thread hammers the same hot
                // head of the shared region, so contention scales with
                // theta rather than with the partitioning below. A `None`
                // theta never reaches this arm and keeps the historical
                // RNG draw sequence byte-identical.
                let total = *cdf.last().expect("shared region is non-empty");
                let u = self.rng.gen::<f64>() * total;
                cdf.partition_point(|&c| c < u).min(words as usize - 1) as u64
            } else if self.rng.gen_bool(0.5) {
                // Own partition (plus neighbour boundary spill-over).
                let base = partition * self.tid as u64;
                (base + self.rng.gen_range(0..partition + 4)) % words
            } else {
                self.rng.gen_range(0..words)
            };
            let is_write = write_intent && self.rng.gen_bool(self.spec.shared_write_fraction * 2.0);
            (
                MemRef::new(crate::spec::SHARED_BASE + idx * 8, size),
                is_write,
            )
        } else if !self.live.is_empty() && self.rng.gen_bool(0.5) {
            let alloc = self.live[self.rng.gen_range(0..self.live.len())];
            let max_off = alloc.len.saturating_sub(8).max(1);
            let off = self.rng.gen_range(0..max_off) & !7;
            (MemRef::new(alloc.start + off, size), write_intent)
        } else if let Some(freed) = self
            .last_freed
            .filter(|_| self.spec.inject_bugs && self.rng.gen_bool(0.02))
        {
            // Use-after-free: touch a freed range.
            (MemRef::new(freed.start, size), write_intent)
        } else {
            // Private region: streaming through a hot window with rare far
            // jumps — the locality real array codes exhibit.
            let region = self.spec.private_region(self.tid);
            let addr = if let Some(zone) = self.tainted_zone.filter(|_| self.rng.gen_bool(0.05)) {
                zone.start + (self.rng.gen_range(0..zone.len.max(8) / 8)) * 8
            } else if self.rng.gen_bool(0.93) {
                self.private_cursor =
                    (self.private_cursor + 8) % region.len.saturating_sub(8).max(8);
                region.start + self.private_cursor
            } else {
                // Far jump restarts the stream elsewhere.
                self.private_cursor = (self.rng.gen_range(0..region.len / 8)) * 8;
                region.start + self.private_cursor
            };
            (MemRef::new(addr & !7, size), write_intent)
        }
    }

    fn load_compute_store(&mut self) {
        let (src, _) = self.data_addr(false);
        let (dst, _) = self.data_addr(true);
        let r1 = self.reg();
        let r2 = self.const_reg();
        let r3 = self.reg();
        self.ops.push(Op::Instr(Instr::Load { dst: r1, src }));
        self.ops.push(Op::Instr(Instr::Alu2 {
            dst: r3,
            a: r1,
            b: r2,
        }));
        self.ops.push(Op::Instr(Instr::Store { dst, src: r3 }));
    }

    fn copy_idiom(&mut self) {
        let (src, _) = self.data_addr(false);
        let (dst, _) = self.data_addr(true);
        let r1 = self.reg();
        self.ops.push(Op::Instr(Instr::Load { dst: r1, src }));
        self.ops.push(Op::Instr(Instr::Store { dst, src: r1 }));
    }

    fn compute_idiom(&mut self) {
        let r1 = self.reg();
        let r2 = self.reg();
        if self.rng.gen_bool(0.3) {
            self.ops.push(Op::Instr(Instr::MovRI { dst: r1 }));
        }
        self.ops.push(Op::Instr(Instr::Alu1 { dst: r2, a: r2 }));
        if self.rng.gen_bool(0.4) {
            let c = self.const_reg();
            self.ops.push(Op::Instr(Instr::Alu2 {
                dst: r2,
                a: r2,
                b: c,
            }));
        } else {
            self.ops.push(Op::Instr(Instr::Alu1 { dst: r1, a: r1 }));
        }
    }

    fn pointer_chase(&mut self) {
        // Dependent loads through the chase register: each load's address
        // comes from the previous load's value. Dataflow-wise these are
        // plain loads (absorbed by IT); the final use materializes one.
        let depth = self.rng.gen_range(2..=4);
        for _ in 0..depth {
            let (next, _) = self.data_addr(false);
            self.ops.push(Op::Instr(Instr::Load {
                dst: Reg(CHASE_REG),
                src: next,
            }));
        }
        let r = self.reg();
        self.ops.push(Op::Instr(Instr::Alu1 {
            dst: r,
            a: Reg(CHASE_REG),
        }));
    }

    fn load_use(&mut self) {
        let (src, _) = self.data_addr(false);
        let r1 = self.reg();
        let r2 = self.reg();
        self.ops.push(Op::Instr(Instr::Load { dst: r1, src }));
        if self.rng.gen_bool(0.7) {
            self.ops.push(Op::Instr(Instr::Alu1 { dst: r2, a: r1 }));
        } else {
            let c = self.const_reg();
            self.ops.push(Op::Instr(Instr::Alu2 {
                dst: r2,
                a: r1,
                b: c,
            }));
        }
    }

    fn indirect_jump(&mut self) {
        if let Some(zone) = self
            .tainted_zone
            .filter(|_| self.spec.inject_bugs && self.rng.gen_bool(0.3))
        {
            // Bug: jump through a register loaded from unverified input.
            self.ops.push(Op::Instr(Instr::Load {
                dst: Reg(JUMP_REG),
                src: MemRef::new(zone.start, 8),
            }));
        } else {
            self.ops
                .push(Op::Instr(Instr::MovRI { dst: Reg(JUMP_REG) }));
        }
        self.ops.push(Op::Instr(Instr::JmpReg {
            target: Reg(JUMP_REG),
        }));
    }

    fn malloc_free_pair(&mut self) {
        // §7 SWAPTIONS size distribution: 1/3 of allocations at most one
        // cache block (<= 64B), the rest at most 32 blocks (<= 2KB), none
        // beyond 128 blocks.
        let size = if self.rng.gen_bool(1.0 / 3.0) {
            self.rng.gen_range(8..=64)
        } else if self.rng.gen_bool(0.97) {
            self.rng.gen_range(65..=2048)
        } else {
            self.rng.gen_range(2049..=8192)
        };
        if let Ok(range) = self.heap.alloc(size) {
            self.ops.push(Op::Malloc { range });
            // Touch the fresh allocation.
            let r = self.reg();
            self.ops.push(Op::Instr(Instr::MovRI { dst: r }));
            self.ops.push(Op::Instr(Instr::Store {
                dst: MemRef::new(range.start, 4),
                src: r,
            }));
            self.live.push_back(range);
        }
        // Keep at most a handful live: free the oldest.
        if self.live.len() > 3 {
            let oldest = self.live.pop_front().expect("non-empty");
            self.ops.push(Op::Free { range: oldest });
            self.heap.free(oldest).expect("tracked allocation");
            // Drop stale reuse candidates: re-issuing them would be a
            // use-after-free the *clean* workload must not contain.
            self.recent.retain(|m| !oldest.overlaps(&m.range()));
            self.last_freed = Some(oldest);
        }
    }

    fn syscall(&mut self) {
        // read() into a private buffer: the canonical taint source.
        let region = self.spec.private_region(self.tid);
        let len = 64u64;
        let start = region.start + (self.rng.gen_range(0..region.len.saturating_sub(len) / 8)) * 8;
        let buf = AddrRange::new(start, len);
        self.ops.push(Op::Syscall {
            kind: SyscallKind::ReadInput,
            buf: Some(buf),
        });
        self.tainted_zone = Some(buf);
        // Consume some of the input.
        let r = self.reg();
        self.ops.push(Op::Instr(Instr::Load {
            dst: r,
            src: MemRef::new(buf.start, 4),
        }));
        // Occasionally write results out.
        if self.rng.gen_bool(0.3) {
            self.ops.push(Op::Syscall {
                kind: SyscallKind::WriteOutput,
                buf: Some(AddrRange::new(region.start, 32)),
            });
        }
    }

    fn critical_section(&mut self) {
        // Locks partition the shared region: lock i protects slice i, so the
        // locking discipline is consistent (no LockSet false positives from
        // the workload itself).
        let lock_count = self.spec.locks.max(1);
        let lock = LockId(self.rng.gen_range(0..lock_count));
        let addr = lock_word(lock);
        self.ops.push(Op::Lock { lock, addr });
        let words = self.spec.shared_words;
        let slice = (words / u64::from(lock_count)).max(1);
        let body = self.rng.gen_range(1..=3);
        for _ in 0..body {
            let idx = u64::from(lock.0) * slice + self.rng.gen_range(0..slice);
            let mem = MemRef::new(crate::spec::SHARED_BASE + (idx % words) * 8, 8);
            let r = self.reg();
            if self.rng.gen_bool(0.6) {
                self.ops.push(Op::Instr(Instr::Load { dst: r, src: mem }));
                self.ops.push(Op::Instr(Instr::Store { dst: mem, src: r }));
            } else {
                self.ops.push(Op::Instr(Instr::MovRI { dst: r }));
                self.ops.push(Op::Instr(Instr::Store { dst: mem, src: r }));
            }
        }
        self.ops.push(Op::Unlock { lock, addr });
    }
}

fn jittered(rng: &mut StdRng, base: usize) -> usize {
    let lo = (base * 3 / 4).max(1);
    let hi = (base * 5 / 4).max(lo + 1);
    rng.gen_range(lo..hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::Op;

    #[test]
    fn generation_is_deterministic() {
        let a = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
            .scale(0.05)
            .build();
        let b = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
            .scale(0.05)
            .build();
        assert_eq!(a.threads, b.threads);
    }

    #[test]
    fn different_seeds_differ() {
        let a = WorkloadSpec::benchmark(Benchmark::Lu, 2)
            .scale(0.05)
            .seed(1)
            .build();
        let b = WorkloadSpec::benchmark(Benchmark::Lu, 2)
            .scale(0.05)
            .seed(2)
            .build();
        assert_ne!(a.threads, b.threads);
    }

    #[test]
    fn thread_count_and_setup() {
        let w = WorkloadSpec::benchmark(Benchmark::Ocean, 4)
            .scale(0.02)
            .build();
        assert_eq!(w.thread_count(), 4);
        // Every thread starts by initializing its long-lived constant
        // registers (the second ALU sources).
        for (tid, ops) in w.threads.iter().enumerate() {
            assert!(
                matches!(ops[0], Op::Instr(Instr::MovRI { .. })),
                "thread {tid} must start with constant-register setup"
            );
            assert!(matches!(ops[1], Op::Instr(Instr::MovRI { .. })));
        }
        // The checked heap is the dynamic arena only.
        assert_eq!(w.heap.start, HEAP_BASE);
        assert_eq!(w.heap.len, HEAP_SIZE);
    }

    #[test]
    fn barriers_align_across_threads() {
        let w = WorkloadSpec::benchmark(Benchmark::Lu, 4).scale(0.3).build();
        let barrier_ids = |ops: &[Op]| -> Vec<u32> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Barrier { barrier } => Some(barrier.0),
                    _ => None,
                })
                .collect()
        };
        let first = barrier_ids(&w.threads[0]);
        assert!(!first.is_empty(), "LU is phased");
        for t in &w.threads[1..] {
            assert_eq!(barrier_ids(t), first, "same barrier sequence everywhere");
        }
    }

    #[test]
    fn swaptions_churns_allocations() {
        let w = WorkloadSpec::benchmark(Benchmark::Swaptions, 2)
            .scale(0.5)
            .build();
        let mallocs = w.threads[0]
            .iter()
            .filter(|op| matches!(op, Op::Malloc { .. }))
            .count();
        let frees = w.threads[0]
            .iter()
            .filter(|op| matches!(op, Op::Free { .. }))
            .count();
        assert!(
            mallocs > 20,
            "swaptions allocates constantly, got {mallocs}"
        );
        assert!(frees > 10);
        // LU does not allocate dynamically (setup allocations only).
        let lu = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.5).build();
        let lu_mallocs = lu.threads[0]
            .iter()
            .filter(|op| matches!(op, Op::Malloc { .. }))
            .count();
        assert!(lu_mallocs <= 2);
    }

    #[test]
    fn swaptions_allocation_size_distribution() {
        let w = WorkloadSpec::benchmark(Benchmark::Swaptions, 1)
            .scale(2.0)
            .build();
        let sizes: Vec<u64> = w.threads[0]
            .iter()
            .skip(1) // setup malloc
            .filter_map(|op| match op {
                Op::Malloc { range } => Some(range.len),
                _ => None,
            })
            .collect();
        assert!(sizes.len() > 50);
        let small = sizes.iter().filter(|s| **s <= 64).count() as f64 / sizes.len() as f64;
        assert!(
            small > 0.2 && small < 0.5,
            "≈1/3 small allocations, got {small}"
        );
        assert!(
            sizes.iter().all(|s| *s <= 128 * 64),
            "none above 128 blocks"
        );
    }

    #[test]
    fn locked_benchmarks_emit_balanced_lock_pairs() {
        let w = WorkloadSpec::benchmark(Benchmark::Fluidanimate, 4)
            .scale(0.3)
            .build();
        for ops in &w.threads {
            let mut depth = 0i64;
            for op in ops {
                match op {
                    Op::Lock { .. } => depth += 1,
                    Op::Unlock { .. } => depth -= 1,
                    _ => {}
                }
                assert!(
                    (0..=1).contains(&depth),
                    "locks never nest in our workloads"
                );
            }
            assert_eq!(depth, 0, "every lock released");
        }
    }

    #[test]
    fn syscalls_present_with_buffers() {
        let w = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
            .scale(1.0)
            .build();
        let has_read = w.threads.iter().flatten().any(|op| {
            matches!(
                op,
                Op::Syscall {
                    kind: SyscallKind::ReadInput,
                    buf: Some(_)
                }
            )
        });
        assert!(has_read, "read() syscalls feed TaintCheck");
    }

    #[test]
    fn bug_injection_adds_uaf_or_tainted_jumps() {
        let clean = WorkloadSpec::benchmark(Benchmark::Swaptions, 2)
            .scale(1.0)
            .build();
        let buggy = WorkloadSpec::benchmark(Benchmark::Swaptions, 2)
            .scale(1.0)
            .inject_bugs(true)
            .build();
        assert_eq!(clean.thread_count(), buggy.thread_count());
        // (Behavioural difference is asserted end-to-end in integration
        // tests; here we only require generation to succeed and differ.)
        assert_ne!(clean.threads, buggy.threads);
    }

    #[test]
    fn zipf_theta_concentrates_shared_accesses() {
        use std::collections::HashMap;
        let shared_histogram = |w: &Workload| -> HashMap<u64, usize> {
            let mut hist = HashMap::new();
            for ops in &w.threads {
                for op in ops {
                    let mem = match op {
                        Op::Instr(Instr::Load { src, .. }) => Some(src),
                        Op::Instr(Instr::Store { dst, .. }) => Some(dst),
                        _ => None,
                    };
                    if let Some(m) = mem {
                        if m.addr >= crate::spec::SHARED_BASE {
                            *hist
                                .entry((m.addr - crate::spec::SHARED_BASE) / 8)
                                .or_default() += 1;
                        }
                    }
                }
            }
            hist
        };
        let head_share = |w: &Workload| -> f64 {
            let hist = shared_histogram(w);
            let total: usize = hist.values().sum();
            let head: usize = hist
                .iter()
                .filter(|(idx, _)| **idx < 16)
                .map(|(_, n)| n)
                .sum();
            head as f64 / total.max(1) as f64
        };
        let uniform = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
            .scale(0.3)
            .build();
        let skewed = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
            .scale(0.3)
            .zipf(0.99)
            .build();
        assert!(
            head_share(&skewed) > 5.0 * head_share(&uniform),
            "theta=0.99 must concentrate accesses on the head: skewed {} vs uniform {}",
            head_share(&skewed),
            head_share(&uniform)
        );
        // theta monotonicity: hotter theta, hotter head.
        let hotter = WorkloadSpec::benchmark(Benchmark::Barnes, 4)
            .scale(0.3)
            .zipf(1.4)
            .build();
        assert!(head_share(&hotter) > head_share(&skewed));
    }

    #[test]
    fn zipf_generation_is_deterministic() {
        let a = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
            .scale(0.1)
            .zipf(0.99)
            .build();
        let b = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
            .scale(0.1)
            .zipf(0.99)
            .build();
        assert_eq!(a.threads, b.threads);
        // And the skew genuinely changes the stream relative to uniform.
        let plain = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
            .scale(0.1)
            .build();
        assert_ne!(a.threads, plain.threads);
    }

    #[test]
    fn syscall_rate_injects_taint_sources() {
        let base = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.2);
        let reads = |w: &Workload| {
            w.threads
                .iter()
                .flatten()
                .filter(|op| {
                    matches!(
                        op,
                        Op::Syscall {
                            kind: SyscallKind::ReadInput,
                            ..
                        }
                    )
                })
                .count()
        };
        let plain = base.clone().build();
        let injected = base.clone().syscall_rate(0.05).build();
        assert!(
            reads(&injected) > reads(&plain) + 20,
            "rate 0.05 over {} slots must add syscalls: {} vs {}",
            2 * base.ops_per_thread,
            reads(&injected),
            reads(&plain)
        );
    }

    #[test]
    fn race_rate_targets_the_racy_window() {
        use crate::spec::{RACY_WINDOW_WORDS, SHARED_BASE};
        let window_end = SHARED_BASE + RACY_WINDOW_WORDS * 8;
        let window_writes = |w: &Workload| {
            w.threads
                .iter()
                .flatten()
                .filter(|op| match op {
                    Op::Instr(Instr::Store { dst, .. }) => {
                        dst.addr >= SHARED_BASE && dst.addr < window_end
                    }
                    _ => false,
                })
                .count()
        };
        // Blackscholes barely touches shared memory on its own, so window
        // writes are attributable to the injection.
        let base = WorkloadSpec::benchmark(Benchmark::Blackscholes, 4).scale(0.2);
        let plain = base.clone().build();
        let racy = base.race_rate(0.02).build();
        assert!(
            window_writes(&racy) > window_writes(&plain) + 20,
            "race injection must hammer the racy window: {} vs {}",
            window_writes(&racy),
            window_writes(&plain)
        );
    }

    #[test]
    fn injection_layers_are_deterministic() {
        let spec = || {
            WorkloadSpec::benchmark(Benchmark::Barnes, 4)
                .scale(0.1)
                .syscall_rate(0.01)
                .race_rate(0.01)
                .zipf(0.9)
        };
        assert_eq!(spec().build().threads, spec().build().threads);
        // And every layer genuinely changes the stream.
        let plain = WorkloadSpec::benchmark(Benchmark::Barnes, 4).scale(0.1);
        assert_ne!(spec().build().threads, plain.build().threads);
    }

    #[test]
    fn heap_region_covers_all_data() {
        let w = WorkloadSpec::benchmark(Benchmark::Radiosity, 4)
            .scale(0.1)
            .build();
        for ops in &w.threads {
            for op in ops {
                if let Op::Malloc { range } | Op::Free { range } = op {
                    assert!(w.heap.contains(range.start), "allocation inside heap span");
                }
            }
        }
    }
}
