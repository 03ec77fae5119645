//! The evaluation harness: regenerates every table and figure of §7.
//!
//! Each `figure*` function runs the corresponding sweep and returns
//! structured rows; `render_*` turns them into the text tables the
//! `paralog-bench` binaries print. Absolute cycle counts differ from the
//! paper's Simics testbed; the claims under test are the *shapes*
//! (`tests/figure_shapes.rs` asserts them).

use crate::config::{MonitorConfig, MonitoringMode};
use crate::platform::Platform;
use paralog_lifeguards::LifeguardKind;
use paralog_order::{CapturePolicy, Reduction};
use paralog_sim::MachineConfig;
use paralog_workloads::{Benchmark, WorkloadSpec};
use std::fmt::Write as _;

/// Thread counts used throughout the evaluation (Figure 6's x-axis).
pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One benchmark × thread-count cell of Figure 6.
#[derive(Debug, Clone)]
pub struct Figure6Cell {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Application thread count.
    pub threads: usize,
    /// NO MONITORING execution cycles (k threads on 2k cores).
    pub no_monitoring: u64,
    /// TIMESLICED MONITORING execution cycles (2 cores).
    pub timesliced: u64,
    /// PARALLEL MONITORING execution cycles (2k cores).
    pub parallel: u64,
}

impl Figure6Cell {
    /// Execution time normalized to the 1-thread unmonitored run.
    pub fn normalized(&self, sequential_baseline: u64) -> (f64, f64, f64) {
        let b = sequential_baseline as f64;
        (
            self.no_monitoring as f64 / b,
            self.timesliced as f64 / b,
            self.parallel as f64 / b,
        )
    }

    /// Speedup of parallel over timesliced monitoring — the headline
    /// 5–126X claim.
    pub fn parallel_speedup(&self) -> f64 {
        self.timesliced as f64 / self.parallel as f64
    }
}

/// Figure 6 for one lifeguard: normalized execution time of the three
/// schemes across thread counts.
pub fn figure6(lifeguard: LifeguardKind, benchmarks: &[Benchmark], scale: f64) -> Vec<Figure6Cell> {
    let mut out = Vec::new();
    for &bench in benchmarks {
        for &k in &THREAD_COUNTS {
            let w = WorkloadSpec::benchmark(bench, k).scale(scale).build();
            let base = Platform::run(&w, &MonitorConfig::new(MonitoringMode::None, lifeguard));
            let ts = Platform::run(
                &w,
                &MonitorConfig::new(MonitoringMode::Timesliced, lifeguard),
            );
            let par = Platform::run(&w, &MonitorConfig::new(MonitoringMode::Parallel, lifeguard));
            out.push(Figure6Cell {
                benchmark: bench,
                threads: k,
                no_monitoring: base.metrics.execution_cycles(),
                timesliced: ts.metrics.execution_cycles(),
                parallel: par.metrics.execution_cycles(),
            });
        }
    }
    out
}

/// Renders Figure 6 rows as the paper's normalized series.
pub fn render_figure6(lifeguard: LifeguardKind, cells: &[Figure6Cell]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 6 ({lifeguard}): execution time normalized to 1-thread NO MONITORING"
    );
    let _ = writeln!(
        s,
        "{:<11} {:>3} | {:>12} {:>12} {:>12} | {:>9}",
        "benchmark", "k", "no-monitor", "timesliced", "parallel", "par-spdup"
    );
    let mut seq_base = 0;
    for c in cells {
        if c.threads == 1 {
            seq_base = c.no_monitoring;
            let _ = writeln!(s, "{:-<70}", "");
        }
        let (n, t, p) = c.normalized(seq_base);
        let _ = writeln!(
            s,
            "{:<11} {:>3} | {:>12.3} {:>12.3} {:>12.3} | {:>8.1}x",
            c.benchmark.label(),
            c.threads,
            n,
            t,
            p,
            c.parallel_speedup()
        );
    }
    s
}

/// One bar of Figure 7: slowdown vs. the same-thread-count unmonitored run,
/// decomposed into the three lifeguard time buckets.
#[derive(Debug, Clone)]
pub struct Figure7Bar {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Application thread count.
    pub threads: usize,
    /// Total slowdown (PARALLEL / NO-MONITORING at equal threads).
    pub slowdown: f64,
    /// Fraction of lifeguard time doing useful work.
    pub useful_fraction: f64,
    /// Fraction waiting on dependences (arcs, CA barriers, versions).
    pub wait_dependence_fraction: f64,
    /// Fraction waiting for the application to produce events.
    pub wait_application_fraction: f64,
}

/// Figure 7 for one lifeguard.
pub fn figure7(lifeguard: LifeguardKind, benchmarks: &[Benchmark], scale: f64) -> Vec<Figure7Bar> {
    let mut out = Vec::new();
    for &bench in benchmarks {
        for &k in &THREAD_COUNTS {
            let w = WorkloadSpec::benchmark(bench, k).scale(scale).build();
            let base = Platform::run(&w, &MonitorConfig::new(MonitoringMode::None, lifeguard));
            let par = Platform::run(&w, &MonitorConfig::new(MonitoringMode::Parallel, lifeguard));
            let buckets = par.metrics.lifeguard_totals();
            let total = buckets.total().max(1) as f64;
            out.push(Figure7Bar {
                benchmark: bench,
                threads: k,
                slowdown: par.metrics.slowdown_vs(base.metrics.execution_cycles()),
                useful_fraction: buckets.useful as f64 / total,
                wait_dependence_fraction: buckets.wait_dependence as f64 / total,
                wait_application_fraction: buckets.wait_application as f64 / total,
            });
        }
    }
    out
}

/// Renders Figure 7 bars.
pub fn render_figure7(lifeguard: LifeguardKind, bars: &[Figure7Bar]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 7 ({lifeguard}): slowdown vs same-thread-count application, with lifeguard time decomposition"
    );
    let _ = writeln!(
        s,
        "{:<11} {:>3} | {:>9} | {:>8} {:>9} {:>9}",
        "benchmark", "k", "slowdown", "useful", "wait-dep", "wait-app"
    );
    for b in bars {
        if b.threads == 1 {
            let _ = writeln!(s, "{:-<60}", "");
        }
        let _ = writeln!(
            s,
            "{:<11} {:>3} | {:>8.2}x | {:>7.1}% {:>8.1}% {:>8.1}%",
            b.benchmark.label(),
            b.threads,
            b.slowdown,
            b.useful_fraction * 100.0,
            b.wait_dependence_fraction * 100.0,
            b.wait_application_fraction * 100.0
        );
    }
    s
}

/// One benchmark group of Figure 8 (8 application threads).
#[derive(Debug, Clone)]
pub struct Figure8Group {
    /// Benchmark.
    pub benchmark: Benchmark,
    /// Slowdown without accelerators (aggressive dependence reduction).
    pub not_accelerated: f64,
    /// Slowdown with accelerators but the reduced-hardware per-core capture
    /// ("limited reduction"; TaintCheck only in the paper).
    pub accelerated_limited: f64,
    /// Slowdown with accelerators and per-block capture + transitive
    /// reduction ("aggressive reduction").
    pub accelerated_aggressive: f64,
}

impl Figure8Group {
    /// Speedup delivered by the accelerators (not-accelerated over
    /// accelerated-aggressive) — the 2–9X / 1.13–3.4X claims.
    pub fn accelerator_speedup(&self) -> f64 {
        self.not_accelerated / self.accelerated_aggressive
    }
}

/// Figure 8 for one lifeguard at 8 application threads.
pub fn figure8(
    lifeguard: LifeguardKind,
    benchmarks: &[Benchmark],
    scale: f64,
) -> Vec<Figure8Group> {
    let k = 8;
    let mut out = Vec::new();
    for &bench in benchmarks {
        let w = WorkloadSpec::benchmark(bench, k).scale(scale).build();
        let base = Platform::run(&w, &MonitorConfig::new(MonitoringMode::None, lifeguard));
        let b = base.metrics.execution_cycles();
        let noacc = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::Parallel, lifeguard).without_accelerators(),
        );
        let limited = Platform::run(
            &w,
            &MonitorConfig::new(MonitoringMode::Parallel, lifeguard)
                .with_capture(CapturePolicy::PerCore, Reduction::Direct),
        );
        let aggressive =
            Platform::run(&w, &MonitorConfig::new(MonitoringMode::Parallel, lifeguard));
        out.push(Figure8Group {
            benchmark: bench,
            not_accelerated: noacc.metrics.slowdown_vs(b),
            accelerated_limited: limited.metrics.slowdown_vs(b),
            accelerated_aggressive: aggressive.metrics.slowdown_vs(b),
        });
    }
    out
}

/// Renders Figure 8 groups.
pub fn render_figure8(lifeguard: LifeguardKind, groups: &[Figure8Group]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Figure 8 ({lifeguard}): slowdown at 8 threads, accelerator & capture variants"
    );
    let _ = writeln!(
        s,
        "{:<11} | {:>10} {:>13} {:>13} | {:>10}",
        "benchmark", "no-accel", "accel(ltd)", "accel(aggr)", "accel-gain"
    );
    let _ = writeln!(s, "{:-<68}", "");
    for g in groups {
        let _ = writeln!(
            s,
            "{:<11} | {:>9.2}x {:>12.2}x {:>12.2}x | {:>9.2}x",
            g.benchmark.label(),
            g.not_accelerated,
            g.accelerated_limited,
            g.accelerated_aggressive,
            g.accelerator_speedup()
        );
    }
    s
}

/// Renders Table 1: the simulated machine and benchmark inputs.
pub fn table1() -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table 1: Experimental Setup");
    let _ = writeln!(s, "--- Simulator description ---");
    let _ = writeln!(s, "Simulator       : paralog-sim deterministic CMP model");
    let _ = writeln!(
        s,
        "Extensions      : log capture and dispatch; FDR/RTR order capture"
    );
    let _ = writeln!(s, "--- Simulation parameters (per core count) ---");
    for cores in [4usize, 8, 16] {
        let m = MachineConfig::paper(cores);
        let _ = writeln!(s, "[{} cores]", cores);
        let _ = write!(s, "{m}");
    }
    let _ = writeln!(s, "log buffer      : 64KB, ~1B per compressed record");
    let _ = writeln!(
        s,
        "--- Benchmarks (paper inputs -> synthetic equivalents) ---"
    );
    for b in Benchmark::all() {
        let spec = WorkloadSpec::benchmark(b, 8);
        let _ = writeln!(
            s,
            "{:<11} paper: {:<26} model: {} idiom slots/thread, {}KB private, {}KB shared{}",
            b.label(),
            b.paper_input(),
            spec.ops_per_thread,
            spec.private_bytes / 1024,
            spec.shared_words * 8 / 1024,
            if spec.malloc_every.is_some() {
                ", malloc churn"
            } else {
                ""
            }
        );
    }
    s
}

/// The §7 headline numbers, extracted from already-computed figure data.
#[derive(Debug, Clone, Copy)]
pub struct Headline {
    /// Range of parallel-over-timesliced speedups at 8 threads.
    pub speedup_over_timesliced: (f64, f64),
    /// Average monitoring overhead (slowdown − 1) at 8 threads.
    pub average_overhead_8t: f64,
    /// Range of accelerator speedups.
    pub accelerator_speedup: (f64, f64),
}

/// Extracts the headline claims for one lifeguard.
pub fn headline(cells: &[Figure6Cell], groups: &[Figure8Group]) -> Headline {
    let mut spd_min = f64::MAX;
    let mut spd_max = 0.0f64;
    let mut overhead_sum = 0.0;
    let mut overhead_n = 0;
    for c in cells.iter().filter(|c| c.threads == 8) {
        let spd = c.parallel_speedup();
        spd_min = spd_min.min(spd);
        spd_max = spd_max.max(spd);
        overhead_sum += c.parallel as f64 / c.no_monitoring as f64 - 1.0;
        overhead_n += 1;
    }
    let mut acc_min = f64::MAX;
    let mut acc_max = 0.0f64;
    for g in groups {
        let a = g.accelerator_speedup();
        acc_min = acc_min.min(a);
        acc_max = acc_max.max(a);
    }
    Headline {
        speedup_over_timesliced: (spd_min, spd_max),
        average_overhead_8t: if overhead_n > 0 {
            overhead_sum / overhead_n as f64
        } else {
            0.0
        },
        accelerator_speedup: (acc_min, acc_max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure6_small_smoke() {
        let cells = figure6(LifeguardKind::AddrCheck, &[Benchmark::Lu], 0.03);
        assert_eq!(cells.len(), THREAD_COUNTS.len());
        for c in &cells {
            assert!(c.parallel > 0 && c.timesliced > 0 && c.no_monitoring > 0);
        }
        // At 8 threads parallel must beat timesliced decisively.
        let c8 = cells.iter().find(|c| c.threads == 8).expect("has k=8");
        assert!(
            c8.parallel_speedup() > 1.5,
            "got {:.2}",
            c8.parallel_speedup()
        );
        let rendered = render_figure6(LifeguardKind::AddrCheck, &cells);
        assert!(rendered.contains("LU"));
    }

    #[test]
    fn figure7_fractions_sum_to_one() {
        let bars = figure7(LifeguardKind::TaintCheck, &[Benchmark::Swaptions], 0.03);
        for b in &bars {
            let sum = b.useful_fraction + b.wait_dependence_fraction + b.wait_application_fraction;
            assert!((sum - 1.0).abs() < 1e-9, "fractions sum to 1, got {sum}");
            assert!(b.slowdown >= 0.9);
        }
        assert!(render_figure7(LifeguardKind::TaintCheck, &bars).contains("SWAPTIONS"));
    }

    #[test]
    fn figure8_accelerators_help() {
        let groups = figure8(LifeguardKind::TaintCheck, &[Benchmark::Barnes], 0.03);
        assert_eq!(groups.len(), 1);
        let g = &groups[0];
        assert!(
            g.accelerator_speedup() > 1.0,
            "accelerators must help TaintCheck on BARNES, got {:.2}",
            g.accelerator_speedup()
        );
        assert!(render_figure8(LifeguardKind::TaintCheck, &groups).contains("BARNES"));
    }

    #[test]
    fn table1_mentions_all_benchmarks() {
        let t = table1();
        for b in Benchmark::all() {
            assert!(t.contains(b.label()), "missing {b}");
        }
        assert!(t.contains("64KB"));
    }

    #[test]
    fn headline_extraction() {
        let cells = vec![Figure6Cell {
            benchmark: Benchmark::Lu,
            threads: 8,
            no_monitoring: 100,
            timesliced: 1000,
            parallel: 150,
        }];
        let groups = vec![Figure8Group {
            benchmark: Benchmark::Lu,
            not_accelerated: 4.0,
            accelerated_limited: 2.0,
            accelerated_aggressive: 1.5,
        }];
        let h = headline(&cells, &groups);
        assert!((h.speedup_over_timesliced.0 - 1000.0 / 150.0).abs() < 1e-9);
        assert!((h.average_overhead_8t - 0.5).abs() < 1e-9);
        assert!((h.accelerator_speedup.0 - 4.0 / 1.5).abs() < 1e-9);
    }
}
