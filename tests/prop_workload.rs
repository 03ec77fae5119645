//! Property test for the workload engine's purity contract: generation is
//! a pure function of (spec, seed). Two `build()` calls on an equal spec —
//! across every injection-rate corner, Zipf setting, and bug-injection
//! flag — must produce identical per-thread operation
//! streams, and replaying those streams must land on identical monitoring
//! fingerprints. The captured-stream replay path (and every checked-in
//! bench baseline) depends on this: a generator that consulted ambient
//! state would make "same spec" captures incomparable.

use paralog::core::{MonitorConfig, MonitoringMode, Platform};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, WorkloadSpec};
use proptest::prelude::*;

/// Keep generated programs small: purity does not depend on length, and
/// the platform replay below runs once per case.
const SCALE: f64 = 0.02;

fn benchmark_strategy() -> impl Strategy<Value = Benchmark> {
    prop_oneof![
        Just(Benchmark::Barnes),
        Just(Benchmark::Fmm),
        Just(Benchmark::Swaptions),
        Just(Benchmark::Fluidanimate),
    ]
}

/// Injection-rate corners: absent, never, always, and arbitrary.
fn rate_strategy() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(0.0)),
        Just(Some(1.0)),
        (0.0f64..=1.0).prop_map(Some),
    ]
}

#[derive(Debug, Clone)]
struct SpecParams {
    benchmark: Benchmark,
    threads: usize,
    seed: u64,
    syscall_rate: Option<f64>,
    race_rate: Option<f64>,
    zipf: Option<f64>,
    inject_bugs: bool,
}

fn spec_strategy() -> impl Strategy<Value = SpecParams> {
    (
        benchmark_strategy(),
        1usize..=4,
        any::<u64>(),
        rate_strategy(),
        rate_strategy(),
        prop_oneof![Just(None), (0.0f64..1.5).prop_map(Some)],
        any::<bool>(),
    )
        .prop_map(
            |(benchmark, threads, seed, syscall_rate, race_rate, zipf, inject_bugs)| SpecParams {
                benchmark,
                threads,
                seed,
                syscall_rate,
                race_rate,
                zipf,
                inject_bugs,
            },
        )
}

fn build_spec(p: &SpecParams) -> WorkloadSpec {
    let mut spec = WorkloadSpec::benchmark(p.benchmark, p.threads)
        .scale(SCALE)
        .seed(p.seed)
        .inject_bugs(p.inject_bugs);
    if let Some(rate) = p.syscall_rate {
        spec = spec.syscall_rate(rate);
    }
    if let Some(rate) = p.race_rate {
        spec = spec.race_rate(rate);
    }
    if let Some(theta) = p.zipf {
        spec = spec.zipf(theta);
    }
    spec
}

fn fingerprint(w: &paralog::workloads::Workload) -> u64 {
    let cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    Platform::run(w, &cfg).metrics.fingerprint
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn generation_is_a_pure_function_of_spec_and_seed(p in spec_strategy()) {
        let a = build_spec(&p).build();
        let b = build_spec(&p).build();
        prop_assert_eq!(&a.threads, &b.threads, "streams diverged for {:?}", p);
        prop_assert_eq!(a.heap, b.heap);
        prop_assert_eq!(a.locks, b.locks);
        prop_assert!(a.total_ops() > 0, "generated an empty workload");
        prop_assert_eq!(
            fingerprint(&a),
            fingerprint(&b),
            "replay fingerprints diverged for {:?}", p
        );
    }

    #[test]
    fn distinct_seeds_actually_move_the_stream(p in spec_strategy()) {
        // The inverse guard: if the generator ignored the seed, the purity
        // property above would pass vacuously.
        let a = build_spec(&p).build();
        let mut q = p.clone();
        q.seed = p.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let b = build_spec(&q).build();
        prop_assert_ne!(&a.threads, &b.threads, "seed had no effect for {:?}", p);
    }
}

/// The enumerated corner grid, kept outside proptest so every corner runs
/// on every test invocation: each injection-rate corner builds twice to
/// identical streams, and the always-inject corners demonstrably inject.
#[test]
fn every_op_mix_and_rate_corner_is_deterministic() {
    use paralog::events::Op;
    for syscall_rate in [None, Some(0.0), Some(1.0)] {
        for race_rate in [None, Some(0.0), Some(1.0)] {
            let p = SpecParams {
                benchmark: Benchmark::Swaptions,
                threads: 2,
                seed: 7,
                syscall_rate,
                race_rate,
                zipf: None,
                inject_bugs: false,
            };
            let a = build_spec(&p).build();
            let b = build_spec(&p).build();
            assert_eq!(a.threads, b.threads, "corner {p:?} is not deterministic");
            if syscall_rate == Some(1.0) {
                let syscalls = a.threads[0]
                    .iter()
                    .filter(|op| matches!(op, Op::Syscall { .. }))
                    .count();
                assert!(
                    syscalls > 1,
                    "always-inject syscall corner emitted no injected syscalls"
                );
            }
        }
    }
}
