//! Monitoring configuration: which mode, which lifeguard, which knobs.

use paralog_events::ring::DEFAULT_CAPACITY;
use paralog_lifeguards::{CostModel, LifeguardKind};
use paralog_order::{CapturePolicy, Reduction};
use paralog_sim::MachineConfig;

/// The three execution schemes of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonitoringMode {
    /// Application alone (NO MONITORING): `k` threads on `2k` cores.
    None,
    /// State-of-the-art baseline (TIMESLICED MONITORING): all application
    /// threads multiplexed onto one core, one sequential lifeguard on a
    /// second core.
    Timesliced,
    /// ParaLog (PARALLEL MONITORING): `k` application + `k` lifeguard cores.
    Parallel,
}

impl std::fmt::Display for MonitoringMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            MonitoringMode::None => "No Monitoring",
            MonitoringMode::Timesliced => "Timesliced Monitoring",
            MonitoringMode::Parallel => "Parallel Monitoring",
        };
        f.write_str(s)
    }
}

/// How ConflictAlert records with barrier actions are enforced — the §7
/// discussion of SWAPTIONS suggests the conservative barrier could be
/// replaced by induced dependence arcs for small allocations; `FlushOnly` is
/// that ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CaMode {
    /// Conservative: all lifeguards rendezvous at each subscribed CA (§5.4).
    #[default]
    Barrier,
    /// Ablation: accelerator flushes only, ordering left to dependence arcs.
    FlushOnly,
}

/// Full configuration of one monitored run.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Execution scheme.
    pub mode: MonitoringMode,
    /// Which analysis runs.
    pub lifeguard: LifeguardKind,
    /// Enable the hardware accelerators (IT/IF/M-TLB per lifeguard spec).
    pub accelerators: bool,
    /// Dependence-capture timestamp policy (§5.1).
    pub capture: CapturePolicy,
    /// Arc-reduction aggressiveness (Figure 8's middle/right bars).
    pub reduction: Reduction,
    /// Log-buffer capacity in records (64 K ≈ 64 KB at 1 B/record).
    pub log_capacity: usize,
    /// Handler cost model.
    pub cost: CostModel,
    /// IT advertising-lag threshold (§4.2).
    pub it_threshold: Option<u64>,
    /// Stall application threads at system calls until the lifeguard catches
    /// up (§3 "Accurate Asynchronous Analysis").
    pub damage_containment: bool,
    /// ConflictAlert enforcement mode.
    pub ca_mode: CaMode,
    /// Run the machine under TSO with the versioned-metadata protocol (§5.5).
    pub tso: bool,
    /// Override the machine model (`None` = paper configuration sized to the
    /// mode: `2k` cores for None/Parallel, 2 for Timesliced).
    pub machine: Option<MachineConfig>,
    /// Run the in-line sequential reference analysis and compare fingerprints
    /// (testing/validation; adds simulation time, not modeled cycles).
    pub check_equivalence: bool,
    /// Collect each thread's fully annotated event stream into the metrics
    /// (feeds the real-thread demonstration executor).
    pub collect_streams: bool,
    /// Delayed advertising (§4.2). Disabling it is an *unsound* ablation that
    /// demonstrates the Figure 3 remote-conflict corruption: progress is
    /// advertised past records whose inherits-from state is still cached in
    /// the IT table.
    pub delayed_advertising: bool,
}

impl MonitorConfig {
    /// The default configuration for `mode` and `lifeguard`: accelerators
    /// on, per-block capture, transitive reduction, SC, damage containment.
    pub fn new(mode: MonitoringMode, lifeguard: LifeguardKind) -> Self {
        MonitorConfig {
            mode,
            lifeguard,
            accelerators: true,
            capture: CapturePolicy::PerBlock,
            reduction: Reduction::Transitive,
            log_capacity: DEFAULT_CAPACITY,
            cost: CostModel::calibrated(),
            it_threshold: Some(4096),
            damage_containment: true,
            ca_mode: CaMode::Barrier,
            tso: false,
            machine: None,
            check_equivalence: false,
            collect_streams: false,
            delayed_advertising: true,
        }
    }

    /// Disables the accelerators (Figure 8's "Not Accelerated" bars).
    #[must_use]
    pub fn without_accelerators(mut self) -> Self {
        self.accelerators = false;
        self
    }

    /// Uses the reduced-hardware per-core capture policy (Figure 8's
    /// "limited reduction" variant).
    #[must_use]
    pub fn with_capture(mut self, capture: CapturePolicy, reduction: Reduction) -> Self {
        self.capture = capture;
        self.reduction = reduction;
        self
    }

    /// Switches the machine to TSO.
    #[must_use]
    pub fn with_tso(mut self) -> Self {
        self.tso = true;
        self
    }

    /// Enables the in-line equivalence check against the sequential
    /// reference analysis.
    #[must_use]
    pub fn with_equivalence_check(mut self) -> Self {
        self.check_equivalence = true;
        self
    }

    /// The machine this configuration runs on for `app_threads` application
    /// threads.
    pub fn machine_for(&self, app_threads: usize) -> MachineConfig {
        if let Some(m) = self.machine {
            return m;
        }
        let cores = match self.mode {
            MonitoringMode::None | MonitoringMode::Parallel => 2 * app_threads,
            MonitoringMode::Timesliced => 2,
        };
        if self.tso {
            MachineConfig::paper_tso(cores)
        } else {
            MachineConfig::paper(cores)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machine_sizing_follows_figure6() {
        let par = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
        assert_eq!(par.machine_for(8).cores, 16);
        let ts = MonitorConfig::new(MonitoringMode::Timesliced, LifeguardKind::TaintCheck);
        assert_eq!(ts.machine_for(8).cores, 2);
        let none = MonitorConfig::new(MonitoringMode::None, LifeguardKind::TaintCheck);
        assert_eq!(none.machine_for(4).cores, 8);
    }

    #[test]
    fn tso_flag_reaches_machine() {
        let c = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck).with_tso();
        assert!(c.machine_for(2).is_tso());
    }

    #[test]
    fn builder_knobs() {
        let c = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::AddrCheck)
            .without_accelerators()
            .with_capture(CapturePolicy::PerCore, Reduction::Direct);
        assert!(!c.accelerators);
        assert_eq!(c.capture, CapturePolicy::PerCore);
        assert_eq!(c.reduction, Reduction::Direct);
    }

    #[test]
    fn mode_display() {
        assert_eq!(MonitoringMode::Parallel.to_string(), "Parallel Monitoring");
    }
}
