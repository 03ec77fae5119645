//! Figure-7-style per-phase timed breakdowns for captured-stream replay.
//!
//! The tentpole invariants:
//!
//! * replaying a captured stream through the DES cycle model yields a
//!   `PhaseBreakdown` whose phases **sum to the run's total time**
//!   (`lg_finish`, hence `execution_cycles()`);
//! * the same capture replayed **raw** (already-materialized records) vs
//!   **codec-wire** (incremental decode) reports *identical* analysis-phase
//!   cycles — analysis cost is a function of the payload, never of the
//!   transport — while only the wire replay pays a transport phase;
//! * the cooperative lane path (`paralogd`'s form) runs on wall-clock time
//!   and models no cycles: same fingerprint, no breakdown.

use paralog::core::{
    CoopSession, DeterministicBackend, MonitorConfig, MonitorSession, MonitoringMode, Platform,
    RecordStream, ReplaySource, StreamingReplaySource, TRANSPORT_BYTES_PER_CYCLE,
};
use paralog::events::codec::encode;
use paralog::events::EventRecord;
use paralog::lifeguards::{CostModel, LifeguardKind};
use paralog::workloads::{Benchmark, Workload, WorkloadSpec};

fn workload(bench: Benchmark, threads: usize) -> Workload {
    WorkloadSpec::benchmark(bench, threads).scale(0.05).build()
}

/// Captures a workload's annotated streams plus the live fingerprint.
fn capture(kind: LifeguardKind, w: &Workload) -> (Vec<Vec<EventRecord>>, u64) {
    let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, kind);
    cfg.collect_streams = true;
    let live = Platform::run(w, &cfg).metrics;
    (live.streams.expect("collection enabled"), live.fingerprint)
}

#[test]
fn raw_replay_phases_sum_to_total() {
    let w = workload(Benchmark::Barnes, 4);
    let (streams, live_fp) = capture(LifeguardKind::TaintCheck, &w);
    let total_records: u64 = streams.iter().map(|s| s.len() as u64).sum();

    let out = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap();
    let m = out.metrics;
    assert_eq!(m.fingerprint, live_fp, "timing must not perturb analysis");

    let p = m.phases.expect("captured-stream replay reports phases");
    assert_eq!(
        p.total(),
        m.lg_finish,
        "phases are disjoint and exhaustive: they sum to the modeled total"
    );
    assert_eq!(
        m.execution_cycles(),
        m.lg_finish,
        "replay has no application side; the lifeguard total is the run"
    );

    let cost = CostModel::calibrated();
    assert_eq!(
        p.capture,
        total_records * cost.record_drain,
        "every record drains exactly once"
    );
    assert_eq!(p.transport, 0, "raw records were never on a wire");
    assert_eq!(
        p.order_wait,
        m.dependence_stalls * cost.stall_poll,
        "order-wait is the stall count under the poll cost"
    );
    assert!(p.analysis > 0, "handlers ran");
    assert!(p.publish > 0, "progress was advertised");
    assert!(
        p.analysis > p.capture,
        "handler work dominates drain at these constants"
    );
}

#[test]
fn wire_replay_matches_raw_analysis_and_pays_transport() {
    let w = workload(Benchmark::Fluidanimate, 4);
    let (streams, _) = capture(LifeguardKind::TaintCheck, &w);
    let encoded: Vec<Vec<u8>> = streams.iter().map(|s| encode(s)).collect();
    let wire_total: u64 = encoded.iter().map(|e| e.len() as u64).sum();

    let raw = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics;
    let wire = MonitorSession::builder()
        .source(StreamingReplaySource::from_encoded(encoded, w.heap))
        .lifeguard(LifeguardKind::TaintCheck)
        .backend(DeterministicBackend)
        .build()
        .unwrap()
        .run()
        .unwrap()
        .metrics;

    assert_eq!(wire.fingerprint, raw.fingerprint);
    let (rp, wp) = (raw.phases.unwrap(), wire.phases.unwrap());
    assert_eq!(
        wp.analysis, rp.analysis,
        "analysis cost is payload-derived: raw and wire replays of the \
         same capture must agree exactly"
    );
    assert_eq!(wp.capture, rp.capture, "same records, same drain charge");
    assert_eq!(wp.publish, rp.publish, "same versions and adverts");
    assert_eq!(rp.transport, 0);
    assert_eq!(
        wp.transport,
        wire_total.div_ceil(TRANSPORT_BYTES_PER_CYCLE),
        "the wire replay pays exactly the encoded bytes"
    );
    assert!(wp.transport > 0, "a codec stream is never zero bytes");
    assert_eq!(wp.total(), wire.lg_finish, "wire phases sum to total");
}

#[test]
fn coop_lanes_model_no_phases() {
    let w = workload(Benchmark::Swaptions, 4);
    let (streams, live_fp) = capture(LifeguardKind::TaintCheck, &w);

    let boxed: Vec<Box<dyn RecordStream>> = streams
        .into_iter()
        .map(|s| Box::new(paralog::core::BufferedStream::new(s)) as Box<dyn RecordStream>)
        .collect();
    let (session, mut lanes) = CoopSession::start(&LifeguardKind::TaintCheck, w.heap, boxed, None)
        .expect("session starts");
    // Lanes model no cycles, mid-run or at the end.
    let mut saw_partial = false;
    while !session.is_complete() {
        for lane in &mut lanes {
            lane.step(64);
        }
        let snap = session.snapshot_metrics();
        assert!(snap.phases.is_none());
        saw_partial |= snap.records > 0 && !session.is_complete();
    }
    assert!(saw_partial, "the loop never observed a live session");

    let coop = session.report().expect("complete").expect("clean drain");
    assert_eq!(coop.fingerprint, live_fp);
    assert!(coop.phases.is_none());
    assert_eq!(coop.lg_finish, 0);
}

#[test]
fn cosimulated_runs_do_not_fake_a_breakdown() {
    let w = workload(Benchmark::Lu, 2);
    let cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
    let live = Platform::run(&w, &cfg).metrics;
    assert!(
        live.phases.is_none(),
        "co-simulation times the machine in LgBuckets, not ingest phases"
    );
}
