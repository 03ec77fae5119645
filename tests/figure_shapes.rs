//! The evaluation's qualitative *shapes* as assertions:
//! who wins, in which direction, and where the bottlenecks sit. These run at
//! reduced scale so the whole file stays fast, but every relation asserted
//! here also holds in the full-scale figure outputs.

use paralog::core::experiment::{figure6, figure7, figure8};
use paralog::core::{MonitorConfig, MonitoringMode, Platform};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, WorkloadSpec};

const SCALE: f64 = 0.08;

#[test]
fn parallel_beats_timesliced_everywhere_above_one_thread() {
    for kind in [LifeguardKind::TaintCheck, LifeguardKind::AddrCheck] {
        for bench in [Benchmark::Barnes, Benchmark::Lu, Benchmark::Swaptions] {
            let cells = figure6(kind, &[bench], SCALE);
            for c in cells.iter().filter(|c| c.threads >= 2) {
                assert!(
                    c.parallel < c.timesliced,
                    "{kind} {bench} k={}: parallel ({}) must beat timesliced ({})",
                    c.threads,
                    c.parallel,
                    c.timesliced
                );
            }
        }
    }
}

#[test]
fn timesliced_gap_grows_with_thread_count() {
    let cells = figure6(LifeguardKind::TaintCheck, &[Benchmark::Blackscholes], SCALE);
    let spdup: Vec<f64> = cells.iter().map(|c| c.parallel_speedup()).collect();
    assert!(
        spdup.windows(2).all(|w| w[1] > w[0] * 0.9),
        "speedup over timeslicing must grow (roughly) with threads: {spdup:?}"
    );
    assert!(
        spdup.last().unwrap() > &3.0,
        "8-thread gap must be substantial"
    );
}

#[test]
fn addrcheck_is_cheaper_than_taintcheck() {
    for bench in [Benchmark::Lu, Benchmark::Barnes, Benchmark::Fmm] {
        let w = WorkloadSpec::benchmark(bench, 4).scale(SCALE).build();
        let taint = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck),
        );
        let addr = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::AddrCheck),
        );
        assert!(
            addr.metrics.execution_cycles() <= taint.metrics.execution_cycles(),
            "{bench}: AddrCheck must not exceed TaintCheck"
        );
    }
}

#[test]
fn accelerators_help_both_lifeguards_with_taint_gaining_more() {
    let taint = figure8(LifeguardKind::TaintCheck, &[Benchmark::Barnes], SCALE);
    let addr = figure8(LifeguardKind::AddrCheck, &[Benchmark::Barnes], SCALE);
    assert!(
        taint[0].accelerator_speedup() > 1.2,
        "IT must pay off on BARNES"
    );
    assert!(addr[0].accelerator_speedup() > 1.0, "IF/M-TLB must pay off");
    assert!(
        taint[0].accelerator_speedup() > addr[0].accelerator_speedup(),
        "the paper's 2-9X (taint) vs 1.13-3.4X (addr) ordering"
    );
}

#[test]
fn limited_capture_sits_between_none_and_aggressive() {
    // Figure 8's middle bar: per-core capture costs something relative to
    // per-block + transitive reduction, but far less than no accelerators.
    let groups = figure8(LifeguardKind::TaintCheck, &[Benchmark::Barnes], SCALE);
    let g = &groups[0];
    assert!(g.accelerated_limited >= g.accelerated_aggressive * 0.95);
    assert!(g.accelerated_limited <= g.not_accelerated);
}

#[test]
fn swaptions_dependence_waits_dominate_for_addrcheck() {
    // §7: SWAPTIONS' malloc/free ConflictAlert barriers are the bottleneck.
    let bars = figure7(
        LifeguardKind::AddrCheck,
        &[Benchmark::Swaptions, Benchmark::Lu],
        SCALE,
    );
    let swap8 = bars
        .iter()
        .find(|b| b.benchmark == Benchmark::Swaptions && b.threads == 8)
        .expect("swaptions k=8");
    let lu8 = bars
        .iter()
        .find(|b| b.benchmark == Benchmark::Lu && b.threads == 8)
        .expect("lu k=8");
    assert!(
        swap8.wait_dependence_fraction > lu8.wait_dependence_fraction,
        "swaptions ({:.2}) must out-wait LU ({:.2}) on dependences",
        swap8.wait_dependence_fraction,
        lu8.wait_dependence_fraction
    );
}

#[test]
fn addrcheck_is_cheap_and_dependence_free_on_clean_benchmarks() {
    // §7's qualitative point: allocation-free benchmarks barely burden
    // ADDRCHECK. In our calibration the lifeguard stays busier than the
    // paper's (its per-check cost is closer to the application's CPI), but
    // the observable shape holds: small slowdown and negligible
    // dependence-wait time.
    let bars = figure7(LifeguardKind::AddrCheck, &[Benchmark::Blackscholes], SCALE);
    let k8 = bars.iter().find(|b| b.threads == 8).expect("k=8");
    assert!(
        k8.slowdown < 1.6,
        "AddrCheck on BLACKSCHOLES must stay cheap, got {:.2}x",
        k8.slowdown
    );
    assert!(
        k8.wait_dependence_fraction < 0.15,
        "no allocation churn means no CA-barrier waits, got {:.2}",
        k8.wait_dependence_fraction
    );
}

#[test]
fn single_thread_overheads_land_in_the_paper_band() {
    // Paper: accelerated single-threaded monitoring costs 1.02-1.5X; allow a
    // modest margin for our substrate's different constants.
    for bench in [Benchmark::Lu, Benchmark::Swaptions] {
        let w = WorkloadSpec::benchmark(bench, 1).scale(0.3).build();
        let base = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::None, LifeguardKind::AddrCheck),
        );
        let addr = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::AddrCheck),
        );
        let slowdown = addr.metrics.slowdown_vs(base.metrics.execution_cycles());
        assert!(
            slowdown < 1.6,
            "{bench}: 1-thread accelerated AddrCheck at {slowdown:.2}X"
        );
    }
}

#[test]
fn memcheck_and_lockset_run_the_full_pipeline() {
    // The two qualitative lifeguards also execute end-to-end on a sharing
    // and allocation heavy benchmark.
    let w = WorkloadSpec::benchmark(Benchmark::Radiosity, 4)
        .scale(SCALE)
        .build();
    for kind in [LifeguardKind::MemCheck, LifeguardKind::LockSet] {
        let out = Platform::run(&w, &MonitorConfig::new(MonitoringMode::Parallel, kind));
        assert!(out.metrics.execution_cycles() > 0);
        assert!(out.metrics.delivered_ops > 0, "{kind} must see events");
    }
}
