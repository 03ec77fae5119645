//! Run metrics: everything Figures 6–8 are built from.
//!
//! Figure 7 decomposes lifeguard time into *useful work*, *waiting for
//! dependence* and *waiting for application*; the application side
//! symmetrically splits into execution, log-full stalls, synchronization and
//! syscall-containment stalls. All counters are simulated cycles.

use paralog_accel::{IfStats, ItStats, MtlbStats};
use paralog_events::{EventPayload, EventRecord};
use paralog_lifeguards::{CostModel, SessionEvent, Violation};
use paralog_order::CaptureStats;

/// Transport throughput of the modeled log channel: one cycle moves this
/// many wire bytes (a 128-bit log-transfer port, matching the CA handler's
/// 16-byte range granularity).
pub const TRANSPORT_BYTES_PER_CYCLE: u64 = 16;

/// Figure-7-style *per-phase* timed breakdown of a captured-stream replay
/// through the sequential loop under the DES cost model.
///
/// Where [`LgBuckets`] decomposes a co-simulated lifeguard's time by *why*
/// it was (or was not) making progress, this decomposes an **ingestion**
/// run — a raw or wire capture replayed through the lifeguard cores — by
/// *pipeline phase*:
///
/// * `capture` — draining records out of the log (per-record drain cost);
/// * `transport` — moving and decoding wire bytes (zero for raw streams:
///   an already-materialized capture has no transport to model);
/// * `order_wait` — stall polls on unmet §5.2 arcs, §5.4 CA serialization
///   and §5.5 unproduced versions;
/// * `analysis` — handler work per delivered record (dispatch, handler
///   body, metadata address walk, CA range painting);
/// * `publish` — §5.5 version production and §5.2 progress advertisement.
///
/// All values are simulated cycles from the session's
/// [`CostModel`]; phases are disjoint by construction, so
/// [`total`](Self::total) is the run's modeled execution time (mirrored
/// into [`RunMetrics::lg_finish`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseBreakdown {
    /// Record-drain cycles (log consumption).
    pub capture: u64,
    /// Wire-byte movement/decode cycles; zero on raw replay.
    pub transport: u64,
    /// Stall-poll cycles on unmet ordering gates.
    pub order_wait: u64,
    /// Handler/analysis cycles per delivered record.
    pub analysis: u64,
    /// Version-produce and progress-advertise cycles.
    pub publish: u64,
}

impl PhaseBreakdown {
    /// Total modeled cycles: phases are disjoint, so this is their sum.
    pub fn total(&self) -> u64 {
        self.capture + self.order_wait + self.transport + self.analysis + self.publish
    }

    /// The (analysis, publish) cycle charge for ingesting one record into
    /// thread `t`'s lifeguard. Depends only on the record's *payload* —
    /// never on its transport form — which is what makes raw and wire
    /// replays of the same capture report identical analysis time.
    pub fn record_cycles(cost: &CostModel, rec: &EventRecord, t: usize) -> (u64, u64) {
        let analysis = match &rec.payload {
            EventPayload::Instr(instr) => {
                if instr.mem_access().is_some() {
                    cost.dispatch + cost.propagation_handler + cost.meta_addr_walk
                } else {
                    cost.dispatch
                }
            }
            EventPayload::Ca(ca) => {
                let mut c = cost.ca_handler;
                if ca.issuer.index() == t {
                    if let Some(range) = ca.range {
                        // The issuer's copy performs the range metadata
                        // update (taint the read() buffer, clear the
                        // allocation, ...).
                        c += cost.ca_per_16_bytes * range.len.div_ceil(16);
                    }
                }
                c
            }
        };
        // Publishing: one propagation-handler body per §5.5 version
        // snapshot produced, plus the progress-advertisement store.
        let publish =
            cost.propagation_handler * rec.produce_versions().len() as u64 + cost.dispatch;
        (analysis, publish)
    }

    /// Cycles to move `bytes` wire bytes through the modeled transport.
    pub fn transport_cycles(bytes: u64) -> u64 {
        bytes.div_ceil(TRANSPORT_BYTES_PER_CYCLE)
    }
}

/// Cycle buckets of one application thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppBuckets {
    /// Executing instructions (incl. memory latency).
    pub exec: u64,
    /// Stalled because the log buffer was full.
    pub log_stall: u64,
    /// Stalled on application synchronization (locks, barriers).
    pub sync_stall: u64,
    /// Stalled at a system call waiting for the lifeguard (damage
    /// containment).
    pub syscall_stall: u64,
    /// Stalled on a full store buffer (TSO).
    pub sb_stall: u64,
}

impl AppBuckets {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.exec + self.log_stall + self.sync_stall + self.syscall_stall + self.sb_stall
    }
}

/// Cycle buckets of one lifeguard thread (Figure 7's decomposition).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LgBuckets {
    /// Processing delivered events (handler + metadata accesses).
    pub useful: u64,
    /// Stalled on unmet dependence arcs, CA barriers or pending versions.
    pub wait_dependence: u64,
    /// Stalled on an empty log buffer (application not producing).
    pub wait_application: u64,
}

impl LgBuckets {
    /// Total accounted cycles.
    pub fn total(&self) -> u64 {
        self.useful + self.wait_dependence + self.wait_application
    }
}

/// Everything measured in one run.
#[derive(Debug, Clone, Default)]
pub struct RunMetrics {
    /// Application thread count.
    pub app_threads: usize,
    /// Completion time of the application side (cycles).
    pub app_finish: u64,
    /// Completion time of the lifeguard side (cycles; 0 when unmonitored
    /// and for lane runs, which model no cycles).
    pub lg_finish: u64,
    /// Per-application-thread buckets.
    pub app: Vec<AppBuckets>,
    /// Per-lifeguard-thread buckets.
    pub lifeguard: Vec<LgBuckets>,
    /// Event records produced across all threads.
    pub records: u64,
    /// Metadata ops delivered to handlers.
    pub delivered_ops: u64,
    /// Order-capture statistics (arcs observed/recorded/reduced).
    pub capture: CaptureStats,
    /// Dependence-stall episodes at lifeguards.
    pub dependence_stalls: u64,
    /// Aggregated Inheritance Tracking statistics.
    pub it: ItStats,
    /// Aggregated Idempotent Filter statistics.
    pub ifilter: IfStats,
    /// Aggregated Metadata-TLB statistics.
    pub mtlb: MtlbStats,
    /// ConflictAlert broadcasts issued.
    pub ca_broadcasts: u64,
    /// TSO metadata versions produced.
    pub versions_produced: u64,
    /// TSO metadata versions consumed.
    pub versions_consumed: u64,
    /// Violations reported by the lifeguards.
    pub violations: Vec<Violation>,
    /// Final metadata fingerprint (equivalence testing).
    pub fingerprint: u64,
    /// Fingerprint of the in-line sequential reference, when enabled.
    pub reference_fingerprint: Option<u64>,
    /// Fully annotated per-thread event streams, when
    /// [`MonitorConfig::collect_streams`](crate::MonitorConfig) is set.
    pub streams: Option<Vec<Vec<paralog_events::EventRecord>>>,
    /// Non-fatal session diagnostics surfaced by the lifeguards (e.g. a
    /// [`SessionEvent::DegradedPrecision`] notice when an interner saturates
    /// and the analysis falls back to a sound over-approximation).
    pub events: Vec<SessionEvent>,
    /// Per-phase timed breakdown: `Some` exactly when
    /// `DeterministicBackend` replayed *captured* streams (raw or wire)
    /// through the sequential loop under the DES cycle model. `None` for
    /// co-simulated runs, whose time is bucketed in
    /// [`lifeguard`](Self::lifeguard) instead, and for every lane run
    /// (`ThreadedBackend`, `CoopSession`, `paralogd`), which is wall-clock
    /// and models no cycles.
    pub phases: Option<PhaseBreakdown>,
}

impl RunMetrics {
    /// End-to-end execution time: the application stalls when the log is
    /// full, so application and lifeguard finish together up to buffering
    /// (§2); the run ends when the *last* entity finishes.
    pub fn execution_cycles(&self) -> u64 {
        self.app_finish.max(self.lg_finish)
    }

    /// This run's slowdown relative to `baseline` execution time.
    ///
    /// # Panics
    ///
    /// Panics if `baseline_cycles` is zero.
    pub fn slowdown_vs(&self, baseline_cycles: u64) -> f64 {
        assert!(baseline_cycles > 0, "baseline must have run");
        self.execution_cycles() as f64 / baseline_cycles as f64
    }

    /// Sum of lifeguard buckets across threads.
    pub fn lifeguard_totals(&self) -> LgBuckets {
        let mut out = LgBuckets::default();
        for b in &self.lifeguard {
            out.useful += b.useful;
            out.wait_dependence += b.wait_dependence;
            out.wait_application += b.wait_application;
        }
        out
    }

    /// Whether the parallel run's final metadata matches the sequential
    /// reference (always true when the check was disabled).
    pub fn matches_reference(&self) -> bool {
        match self.reference_fingerprint {
            Some(r) => r == self.fingerprint,
            None => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_events::{
        AddrRange, CaPhase, CaRecord, HighLevelKind, Instr, MemRef, Reg, Rid, ThreadId,
    };

    #[test]
    fn phase_total_sums_all_buckets() {
        let p = PhaseBreakdown {
            capture: 1,
            transport: 2,
            order_wait: 4,
            analysis: 8,
            publish: 16,
        };
        assert_eq!(p.total(), 31);
        assert_eq!(PhaseBreakdown::default().total(), 0);
    }

    #[test]
    fn record_cycles_follow_payload_shape() {
        let cost = CostModel::calibrated();
        let mem = EventRecord::instr(
            Rid(1),
            Instr::Load {
                dst: Reg::new(0),
                src: MemRef::new(0x100, 8),
            },
        );
        let (mem_analysis, mem_publish) = PhaseBreakdown::record_cycles(&cost, &mem, 0);
        assert_eq!(
            mem_analysis,
            cost.dispatch + cost.propagation_handler + cost.meta_addr_walk
        );
        assert_eq!(mem_publish, cost.dispatch, "no versions produced");

        let reg = EventRecord::instr(Rid(2), Instr::MovRI { dst: Reg::new(1) });
        let (reg_analysis, _) = PhaseBreakdown::record_cycles(&cost, &reg, 0);
        assert_eq!(
            reg_analysis, cost.dispatch,
            "register-only op skips the walk"
        );
    }

    #[test]
    fn ca_range_charges_only_the_issuer() {
        let cost = CostModel::calibrated();
        let ca = EventRecord::ca(
            Rid(3),
            CaRecord {
                what: HighLevelKind::Malloc,
                phase: CaPhase::End,
                range: Some(AddrRange::new(0x2000, 33)),
                issuer: ThreadId(1),
                issuer_rid: Rid(3),
                seq: 0,
            },
        );
        let (own, _) = PhaseBreakdown::record_cycles(&cost, &ca, 1);
        let (remote, _) = PhaseBreakdown::record_cycles(&cost, &ca, 0);
        assert_eq!(remote, cost.ca_handler, "remote copies only flush");
        assert_eq!(
            own,
            cost.ca_handler + cost.ca_per_16_bytes * 3,
            "33 bytes round up to three 16-byte chunks on the issuer's copy"
        );
    }

    #[test]
    fn transport_cycles_round_up() {
        assert_eq!(PhaseBreakdown::transport_cycles(0), 0);
        assert_eq!(PhaseBreakdown::transport_cycles(1), 1);
        assert_eq!(PhaseBreakdown::transport_cycles(16), 1);
        assert_eq!(PhaseBreakdown::transport_cycles(17), 2);
    }

    #[test]
    fn execution_is_max_of_sides() {
        let m = RunMetrics {
            app_finish: 100,
            lg_finish: 140,
            ..Default::default()
        };
        assert_eq!(m.execution_cycles(), 140);
        assert!((m.slowdown_vs(70) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn totals_sum_buckets() {
        let m = RunMetrics {
            lifeguard: vec![
                LgBuckets {
                    useful: 10,
                    wait_dependence: 5,
                    wait_application: 1,
                },
                LgBuckets {
                    useful: 20,
                    wait_dependence: 0,
                    wait_application: 4,
                },
            ],
            ..Default::default()
        };
        let t = m.lifeguard_totals();
        assert_eq!(t.useful, 30);
        assert_eq!(t.wait_dependence, 5);
        assert_eq!(t.wait_application, 5);
        assert_eq!(t.total(), 40);
    }

    #[test]
    fn reference_match_semantics() {
        let mut m = RunMetrics {
            fingerprint: 7,
            ..Default::default()
        };
        assert!(m.matches_reference(), "no reference = vacuously true");
        m.reference_fingerprint = Some(7);
        assert!(m.matches_reference());
        m.reference_fingerprint = Some(8);
        assert!(!m.matches_reference());
    }

    #[test]
    #[should_panic(expected = "baseline")]
    fn zero_baseline_panics() {
        let m = RunMetrics::default();
        let _ = m.slowdown_vs(0);
    }
}
