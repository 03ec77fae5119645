//! Literal simulated results of two small co-simulations, one on an SC and
//! one on a TSO machine, under every monitoring mode each machine models.
//!
//! The figure bins' `--check` pins the evaluation's output, but only where
//! a figure prints it; these pins put the simulated cycles, the captured
//! arcs, the violations and both fingerprints of a run inside `cargo test`.
//! A change meant to make the co-simulation cheaper on the host must leave
//! every number here as it is. A change that means to move simulated time
//! updates the literals and says why.

use paralog::core::{MonitorConfig, MonitoringMode, Platform};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};

/// What one run is pinned to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    mode: MonitoringMode,
    execution_cycles: u64,
    arcs_recorded: u64,
    violations: usize,
    versions_produced: u64,
    fingerprint: u64,
    reference_fingerprint: Option<u64>,
}

/// A tainted, racy application: syscall inputs every ~200 slots, tainted
/// indirect jumps and injected bugs, so the lifeguards report violations
/// and the final metadata is not the empty fingerprint.
fn app(bench: Benchmark, threads: usize) -> Workload {
    let mut spec = WorkloadSpec::benchmark(bench, threads)
        .scale(0.1)
        .inject_bugs(true)
        .syscall_rate(0.005)
        .seed(3);
    spec.mix.indirect_jump = 0.02;
    spec.build()
}

fn observe(workload: &Workload, tso: bool, modes: &[MonitoringMode]) -> Vec<Pin> {
    modes
        .iter()
        .map(|&mode| {
            let mut config =
                MonitorConfig::new(mode, LifeguardKind::TaintCheck).with_equivalence_check();
            if tso {
                config = config.with_tso();
            }
            let m = Platform::run(workload, &config).metrics;
            Pin {
                mode,
                execution_cycles: m.execution_cycles(),
                arcs_recorded: m.capture.recorded,
                violations: m.violations.len(),
                versions_produced: m.versions_produced,
                fingerprint: m.fingerprint,
                reference_fingerprint: m.reference_fingerprint,
            }
        })
        .collect()
}

/// The fingerprint of metadata nobody wrote (the unmonitored run's).
const EMPTY: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn sc_capture_keeps_its_simulated_results_in_every_mode() {
    let got = observe(
        &app(Benchmark::Barnes, 2),
        false,
        &[
            MonitoringMode::None,
            MonitoringMode::Timesliced,
            MonitoringMode::Parallel,
        ],
    );
    let want = [
        Pin {
            mode: MonitoringMode::None,
            execution_cycles: 10100,
            arcs_recorded: 0,
            violations: 0,
            versions_produced: 0,
            fingerprint: EMPTY,
            reference_fingerprint: None,
        },
        Pin {
            mode: MonitoringMode::Timesliced,
            execution_cycles: 43415,
            arcs_recorded: 0,
            violations: 11,
            versions_produced: 0,
            fingerprint: 0x22aa_7ab9_4a3b_3bc4,
            reference_fingerprint: Some(0x22aa_7ab9_4a3b_3bc4),
        },
        Pin {
            mode: MonitoringMode::Parallel,
            execution_cycles: 15262,
            arcs_recorded: 8,
            violations: 11,
            versions_produced: 0,
            fingerprint: 0x22aa_7ab9_4a3b_3bc4,
            reference_fingerprint: Some(0x22aa_7ab9_4a3b_3bc4),
        },
    ];
    assert_eq!(got, want);
}

/// Timesliced monitoring runs every application thread on one core, which
/// the platform models under SC only, so the TSO capture pins two modes.
#[test]
fn tso_capture_keeps_its_simulated_results_in_every_mode() {
    let got = observe(
        &app(Benchmark::Radiosity, 4),
        true,
        &[MonitoringMode::None, MonitoringMode::Parallel],
    );
    let want = [
        Pin {
            mode: MonitoringMode::None,
            execution_cycles: 7317,
            arcs_recorded: 0,
            violations: 0,
            versions_produced: 0,
            fingerprint: EMPTY,
            reference_fingerprint: None,
        },
        Pin {
            mode: MonitoringMode::Parallel,
            execution_cycles: 14583,
            arcs_recorded: 52,
            violations: 23,
            versions_produced: 1,
            fingerprint: 0x13b8_6499_e87f_ba9e,
            reference_fingerprint: Some(0x13b8_6499_e87f_ba9e),
        },
    ];
    assert_eq!(got, want);
}
