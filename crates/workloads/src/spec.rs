//! Workload specifications: the knobs that make one synthetic benchmark
//! behave like BARNES and another like SWAPTIONS.
//!
//! We cannot run the real SPLASH-2/PARSEC binaries (no x86 frontend, no OS),
//! so each benchmark is modeled by the four properties that drive the
//! paper's evaluation shape (see DESIGN.md §2):
//!
//! 1. **instruction mix** — how much lifeguard work per instruction
//!    (BARNES's pointer chasing invokes more expensive TAINTCHECK handlers
//!    than LU/OCEAN's matrix streaming, §7);
//! 2. **sharing pattern** — density of inter-thread dependence arcs
//!    (SWAPTIONS' conflicts cause the dependence stalls of Figure 7);
//! 3. **working-set size** — cache behaviour of application and lifeguard;
//! 4. **high-level event rate** — SWAPTIONS performs ~450 K malloc/free
//!    pairs, each a ConflictAlert barrier (§7).

use paralog_events::AddrRange;
use std::fmt;

/// Base of per-thread private data regions.
pub const PRIVATE_BASE: u64 = 0x2000_0000;

/// Stride between per-thread private regions (1 GB of headroom each).
pub const PRIVATE_STRIDE: u64 = 0x0100_0000;

/// Base of the shared data region.
pub const SHARED_BASE: u64 = 0x6000_0000;

/// The eight benchmarks of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Benchmark {
    /// SPLASH-2 Barnes-Hut N-body: pointer chasing, irregular sharing.
    Barnes,
    /// SPLASH-2 LU decomposition: blocked matrix, barrier phases.
    Lu,
    /// SPLASH-2 Ocean: grid stencil, neighbour-row sharing.
    Ocean,
    /// SPLASH-2 FMM: tree + math mix.
    Fmm,
    /// SPLASH-2 Radiosity: lock-protected task queue.
    Radiosity,
    /// PARSEC Blackscholes: embarrassingly parallel option pricing.
    Blackscholes,
    /// PARSEC Fluidanimate: fine-grained neighbour locking.
    Fluidanimate,
    /// PARSEC Swaptions: private compute with heavy malloc/free churn.
    Swaptions,
}

impl Benchmark {
    /// All benchmarks, in the paper's figure order.
    pub fn all() -> [Benchmark; 8] {
        [
            Benchmark::Barnes,
            Benchmark::Lu,
            Benchmark::Ocean,
            Benchmark::Blackscholes,
            Benchmark::Fluidanimate,
            Benchmark::Swaptions,
            Benchmark::Fmm,
            Benchmark::Radiosity,
        ]
    }

    /// Upper-case display name used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Benchmark::Barnes => "BARNES",
            Benchmark::Lu => "LU",
            Benchmark::Ocean => "OCEAN",
            Benchmark::Fmm => "FMM",
            Benchmark::Radiosity => "RADIOSITY",
            Benchmark::Blackscholes => "BLACKSCH.",
            Benchmark::Fluidanimate => "FLUIDANIM.",
            Benchmark::Swaptions => "SWAPTIONS",
        }
    }

    /// The paper's input description (Table 1), for the Table 1 harness.
    pub fn paper_input(&self) -> &'static str {
        match self {
            Benchmark::Barnes => "16K bodies",
            Benchmark::Lu => "Matrix size: 1024 x 1024",
            Benchmark::Ocean => "Grid size: 258 x 258",
            Benchmark::Fmm => "32768 particles",
            Benchmark::Radiosity => "Base problem: -room",
            Benchmark::Blackscholes => "simlarge",
            Benchmark::Fluidanimate => "simlarge",
            Benchmark::Swaptions => "simlarge",
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Relative weights of instruction idioms (normalized by the generator).
///
/// Idioms, not single instructions, are generated, so that dataflow chains
/// look like compiled code and Inheritance Tracking sees realistic
/// absorption opportunities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstrMix {
    /// `load; alu; store` read-modify-write chains.
    pub load_compute_store: f64,
    /// `load; store` copy chains (IT coalesces these into one event).
    pub copy: f64,
    /// Pure register computation (`movri`/`alu` chains).
    pub compute: f64,
    /// Dependent-load pointer chasing (BARNES).
    pub pointer_chase: f64,
    /// Plain load into a register that is then consumed by computation.
    pub load_use: f64,
    /// Indirect jumps through a register (TAINTCHECK's critical use).
    pub indirect_jump: f64,
}

impl InstrMix {
    /// Matrix-streaming mix (LU/OCEAN/BLACKSCHOLES-like).
    pub fn streaming() -> Self {
        InstrMix {
            load_compute_store: 0.18,
            copy: 0.20,
            compute: 0.47,
            pointer_chase: 0.02,
            load_use: 0.12,
            indirect_jump: 0.01,
        }
    }

    /// Pointer-chasing mix (BARNES-like).
    pub fn pointer_heavy() -> Self {
        InstrMix {
            load_compute_store: 0.24,
            copy: 0.18,
            compute: 0.12,
            pointer_chase: 0.32,
            load_use: 0.12,
            indirect_jump: 0.02,
        }
    }

    /// Balanced mix (FMM/RADIOSITY/FLUIDANIMATE-like).
    pub fn balanced() -> Self {
        InstrMix {
            load_compute_store: 0.22,
            copy: 0.20,
            compute: 0.32,
            pointer_chase: 0.12,
            load_use: 0.13,
            indirect_jump: 0.01,
        }
    }

    /// Total weight (for normalization).
    pub fn total(&self) -> f64 {
        self.load_compute_store
            + self.copy
            + self.compute
            + self.pointer_chase
            + self.load_use
            + self.indirect_jump
    }
}

/// Full generator parameterization for one benchmark run.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Benchmark identity (for labels); `None` for custom workloads.
    pub benchmark: Option<Benchmark>,
    /// Display name.
    pub name: String,
    /// Application thread count.
    pub threads: usize,
    /// Instruction-idiom slots per thread (before scaling).
    pub ops_per_thread: usize,
    /// RNG seed; equal seeds give byte-identical workloads.
    pub seed: u64,
    /// Instruction mix.
    pub mix: InstrMix,
    /// Per-thread private working set in bytes.
    pub private_bytes: u64,
    /// Shared-region size in 8-byte words.
    pub shared_words: u64,
    /// Fraction of memory accesses aimed at the shared region.
    pub shared_fraction: f64,
    /// Fraction of shared accesses that write.
    pub shared_write_fraction: f64,
    /// Number of application locks (0 = lock-free benchmark).
    pub locks: u32,
    /// Average idiom slots between lock-protected critical sections.
    pub lock_every: Option<usize>,
    /// Idiom slots between all-thread barriers (`None` = no phases).
    pub barrier_every: Option<usize>,
    /// Average idiom slots between malloc/free pairs (`None` = none).
    pub malloc_every: Option<usize>,
    /// Average idiom slots between `read()` syscalls (`None` = none).
    pub syscall_every: Option<usize>,
    /// Inject monitoring-visible bugs (use-after-free, tainted jumps).
    pub inject_bugs: bool,
    /// Zipf skew of *shared-region* address selection. `None` keeps the
    /// historical uniform draw (byte-identical RNG sequence to older
    /// captures); `Some(theta)` with `theta > 0` concentrates accesses on
    /// a hot head of the shared region — the contention knob
    /// (`theta ≈ 0.6` mild, `0.99` classic YCSB-style skew).
    pub zipf_theta: Option<f64>,
    /// Per-slot probability of injecting a `read()` syscall (the canonical
    /// taint source) *in addition to* the `syscall_every` schedule. `None`
    /// draws nothing and keeps the historical RNG sequence.
    pub syscall_rate: Option<f64>,
    /// Per-slot probability of injecting an *unprotected* shared write into
    /// the racy window (the first [`RACY_WINDOW_WORDS`] words of the shared
    /// region), deliberately bypassing the lock discipline so LOCKSET and
    /// HAPPENSBEFORE have genuine races to find. `None` draws nothing and
    /// keeps the historical RNG sequence.
    pub race_rate: Option<f64>,
}

/// Size (in 8-byte words) of the racy window at the head of the shared
/// region that `race_rate` injection targets: small enough that racing
/// threads genuinely collide.
pub const RACY_WINDOW_WORDS: u64 = 8;

impl WorkloadSpec {
    /// The calibrated spec for `bench` at `threads` application threads.
    pub fn benchmark(bench: Benchmark, threads: usize) -> Self {
        let base = WorkloadSpec {
            benchmark: Some(bench),
            name: bench.label().to_string(),
            threads,
            ops_per_thread: 12_000,
            seed: 0x5eed_0000 + bench as u64,
            mix: InstrMix::balanced(),
            private_bytes: 128 * 1024,
            shared_words: 8 * 1024,
            shared_fraction: 0.10,
            shared_write_fraction: 0.25,
            locks: 0,
            lock_every: None,
            barrier_every: None,
            malloc_every: None,
            syscall_every: Some(6000),
            inject_bugs: false,
            zipf_theta: None,
            syscall_rate: None,
            race_rate: None,
        };
        match bench {
            Benchmark::Lu => WorkloadSpec {
                mix: InstrMix::streaming(),
                private_bytes: 256 * 1024,
                shared_words: 4 * 1024,
                shared_fraction: 0.02,
                shared_write_fraction: 0.30,
                barrier_every: Some(3000),
                ..base
            },
            Benchmark::Ocean => WorkloadSpec {
                mix: InstrMix::streaming(),
                private_bytes: 384 * 1024,
                shared_words: 8 * 1024,
                shared_fraction: 0.04,
                shared_write_fraction: 0.35,
                barrier_every: Some(2000),
                ..base
            },
            Benchmark::Barnes => WorkloadSpec {
                mix: InstrMix::pointer_heavy(),
                private_bytes: 128 * 1024,
                shared_words: 32 * 1024,
                shared_fraction: 0.22,
                shared_write_fraction: 0.12,
                locks: 8,
                lock_every: Some(700),
                barrier_every: Some(6000),
                ..base
            },
            Benchmark::Fmm => WorkloadSpec {
                private_bytes: 256 * 1024,
                shared_words: 16 * 1024,
                shared_fraction: 0.10,
                shared_write_fraction: 0.18,
                locks: 4,
                lock_every: Some(1500),
                barrier_every: Some(4000),
                ..base
            },
            Benchmark::Radiosity => WorkloadSpec {
                private_bytes: 128 * 1024,
                shared_words: 16 * 1024,
                shared_fraction: 0.18,
                shared_write_fraction: 0.35,
                locks: 16,
                lock_every: Some(400),
                malloc_every: Some(2500),
                ..base
            },
            Benchmark::Blackscholes => WorkloadSpec {
                mix: InstrMix::streaming(),
                private_bytes: 128 * 1024,
                shared_words: 512,
                shared_fraction: 0.004,
                shared_write_fraction: 0.10,
                barrier_every: Some(6000),
                ..base
            },
            Benchmark::Fluidanimate => WorkloadSpec {
                private_bytes: 256 * 1024,
                shared_words: 24 * 1024,
                shared_fraction: 0.13,
                shared_write_fraction: 0.30,
                locks: 32,
                lock_every: Some(500),
                barrier_every: Some(2500),
                ..base
            },
            Benchmark::Swaptions => WorkloadSpec {
                mix: InstrMix::streaming(),
                private_bytes: 64 * 1024,
                shared_words: 512,
                shared_fraction: 0.01,
                shared_write_fraction: 0.20,
                // §7: ~450K alloc/free pairs over the parallel section —
                // relative to instruction count, one pair every ~100 slots.
                malloc_every: Some(110),
                ..base
            },
        }
    }

    /// Scales the run *duration* by `factor` (figures use small factors to
    /// keep simulation budgets sane). Working-set sizes are part of the
    /// benchmark's character and stay fixed.
    #[must_use]
    pub fn scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "scale factor must be positive");
        self.ops_per_thread = ((self.ops_per_thread as f64 * factor) as usize).max(100);
        self
    }

    /// Overrides the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables bug injection (use-after-free, tainted indirect jumps).
    #[must_use]
    pub fn inject_bugs(mut self, inject: bool) -> Self {
        self.inject_bugs = inject;
        self
    }

    /// Skews shared-region address selection by a Zipf distribution with
    /// exponent `theta` (0 = uniform; larger = hotter head).
    ///
    /// # Panics
    ///
    /// Panics on a non-finite or negative `theta`.
    #[must_use]
    pub fn zipf(mut self, theta: f64) -> Self {
        assert!(
            theta.is_finite() && theta >= 0.0,
            "zipf theta must be finite and non-negative"
        );
        self.zipf_theta = Some(theta);
        self
    }

    /// Injects `read()` syscalls with per-slot probability `rate`, in
    /// addition to any `syscall_every` schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn syscall_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "syscall rate must be a probability in [0, 1]"
        );
        self.syscall_rate = Some(rate);
        self
    }

    /// Injects unprotected racy shared writes with per-slot probability
    /// `rate` (see [`RACY_WINDOW_WORDS`]).
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= rate <= 1.0`.
    #[must_use]
    pub fn race_rate(mut self, rate: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&rate),
            "race rate must be a probability in [0, 1]"
        );
        self.race_rate = Some(rate);
        self
    }

    /// Per-thread private region.
    pub fn private_region(&self, tid: usize) -> AddrRange {
        AddrRange::new(
            PRIVATE_BASE + tid as u64 * PRIVATE_STRIDE,
            self.private_bytes,
        )
    }

    /// The shared region.
    pub fn shared_region(&self) -> AddrRange {
        AddrRange::new(SHARED_BASE, self.shared_words * 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benchmarks_have_specs() {
        for b in Benchmark::all() {
            let s = WorkloadSpec::benchmark(b, 4);
            assert_eq!(s.threads, 4);
            assert!(s.ops_per_thread > 0);
            assert!(
                s.mix.total() > 0.99 && s.mix.total() < 1.01,
                "{b}: mix normalized"
            );
        }
    }

    #[test]
    fn swaptions_has_malloc_churn() {
        let s = WorkloadSpec::benchmark(Benchmark::Swaptions, 8);
        assert!(s.malloc_every.unwrap() < 200, "heavy allocation churn");
        assert!(WorkloadSpec::benchmark(Benchmark::Lu, 8)
            .malloc_every
            .is_none());
    }

    #[test]
    fn barnes_is_pointer_heavy_and_shares() {
        let b = WorkloadSpec::benchmark(Benchmark::Barnes, 8);
        let lu = WorkloadSpec::benchmark(Benchmark::Lu, 8);
        assert!(b.mix.pointer_chase > lu.mix.pointer_chase * 5.0);
        assert!(b.shared_fraction > lu.shared_fraction * 3.0);
    }

    #[test]
    fn scale_shrinks_work() {
        let s = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.1);
        assert_eq!(s.ops_per_thread, 1200);
        assert!(s.private_bytes >= 4096);
    }

    #[test]
    fn private_regions_are_disjoint() {
        let s = WorkloadSpec::benchmark(Benchmark::Ocean, 8);
        for a in 0..8 {
            for b in (a + 1)..8 {
                assert!(!s.private_region(a).overlaps(&s.private_region(b)));
            }
        }
        for t in 0..8 {
            assert!(!s.private_region(t).overlaps(&s.shared_region()));
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_scale_rejected() {
        let _ = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.0);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_syscall_rate_rejected() {
        let _ = WorkloadSpec::benchmark(Benchmark::Lu, 2).syscall_rate(1.5);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn out_of_range_race_rate_rejected() {
        let _ = WorkloadSpec::benchmark(Benchmark::Lu, 2).race_rate(-0.1);
    }

    #[test]
    fn injection_knobs_default_off() {
        for b in Benchmark::all() {
            let s = WorkloadSpec::benchmark(b, 4);
            assert!(s.syscall_rate.is_none());
            assert!(s.race_rate.is_none());
        }
    }
}
