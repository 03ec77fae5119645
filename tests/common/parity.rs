//! The parity table: every capture on every replay driver, one definition
//! of "agree".
//!
//! The paper's correctness claim (§5) is that parallel lifeguards fed
//! through arcs, ConflictAlerts and versions reach the same metadata as one
//! sequential analysis in a legal order. Each row below is a capture (a
//! live workload run's collected streams, or a hand-built stream whose doc
//! says why it is shaped that way) replayed on the [`Driver`]s:
//!
//! * `DeterministicBackend`'s sequential loop, over the raw records and
//!   over the codec wire;
//! * `ThreadedBackend`'s pool lanes, over the raw records and over the
//!   codec wire;
//! * `CoopSession` lanes stepped on the calling thread, round-robin over
//!   the raw records, and over the wire each run to its next gate (through
//!   the wire's stalls) before the next lane runs;
//! * the same lanes over the raw records in an order drawn from a seed
//!   ([`explore`]), with each step's budget drawn too: four fixed seeds,
//!   run by every row that runs the round-robin lanes.
//!
//! Every wire driver reads each thread's encoding through
//! `FaultyReader::short_reads().stall_every(9)`, so every row also crosses a
//! transport that splits nearly every record across reads and stalls with
//! `WouldBlock` every ~9 bytes.
//!
//! Two assertions are the whole definition of agreement:
//!
//! * [`assert_parity`]: on every listed driver the run completes with the
//!   reference's [`Key`] — records, fingerprint, sorted `(tid, rid, kind)`
//!   violations, and versions produced and consumed;
//! * [`assert_refused`]: every listed driver fails with a matching
//!   `SessionError` within two seconds.
//!
//! One row is asymmetric by design, and it is the only one:
//! [`unproduced_consume`]. A consume whose version is never produced
//! completes on the two sequential drivers (the §5.5 bypass: the sequential
//! loop has already applied every older record, so nothing can still
//! produce it) and is `Deadlock` on the four lane drivers (a lane cannot
//! bypass a version a peer may still produce, so it parks on it, and the
//! session is stuck once every other lane finished and the version is
//! still unproduced).
//!
//! Each row is one `pub fn` here; the suites that named these checks before
//! the table existed keep those names as one-line tests that run the row:
//!
//! | row | test |
//! |---|---|
//! | [`fluidanimate_taintcheck`] | `session::deterministic_and_threaded_backends_agree` |
//! | [`barnes_taintcheck_raw`] | `session::replay_source_reproduces_live_capture` |
//! | [`barnes_taintcheck_wire`] | `streaming::streaming_replay_matches_buffered_on_both_backends` |
//! | [`barnes_small_l1`] | `session::every_replay_driver_matches_the_sequential_reference` |
//! | [`shadow_seams`] | `session::both_forms_match_the_oracle_across_shadow_seams` |
//! | [`tso_taintcheck_workloads`] | `session::threaded_backend_replays_tso_workloads` |
//! | [`fluidanimate_lock_free_forms`] | `session::every_bundled_lifeguard_replays_threaded_lock_free` |
//! | [`syscall_race`] | `session::syscall_race_violations_agree_across_backends` |
//! | [`syscall_race_mid_run`] | `session::a_run_never_crosses_an_in_flight_syscall_range` |
//! | [`arc_into_a_run`] | `session::an_arc_into_a_run_waits_for_the_whole_run` |
//! | [`empty_source`] | `session::empty_sources_are_rejected_by_both_backends` |
//! | [`sc_lifeguard_workloads`] | `concurrent_lifeguards::sc_captures_replay_identically_on_both_backends` |
//! | [`dekker_malloc_pads`] | `concurrent_lifeguards::memcheck_tso_capture_replays_identically_on_both_backends` |
//! | [`addrcheck_versioned_read`] | `concurrent_lifeguards::addrcheck_versioned_read_agrees_across_backends` |
//! | [`tso_lifeguard_workloads`] | `concurrent_lifeguards::tso_workloads_replay_through_new_forms` |
//! | [`lockset_race`] | `concurrent_lifeguards::lockset_race_capture_agrees_across_backends` |
//! | [`happensbefore_race`] | `concurrent_lifeguards::happensbefore_race_capture_agrees_across_backends` |
//! | [`happensbefore_disciplined`] | `concurrent_lifeguards::happensbefore_disciplined_capture_is_silent_on_both_backends` |
//! | [`dekker_taintcheck_pads`] | `concurrent_versions::tso_capture_replays_identically_on_both_backends` |
//! | [`ring_resident_consumes`] | `concurrent_versions::consume_annotations_on_ring_resident_records_are_captured` |
//! | [`unproduced_consume`] | `concurrent_versions::truncated_tso_capture_deadlocks_threaded_replay` |
//! | [`severed_arc`], raw drivers | `session::truncated_streams_are_reported_as_deadlock` |
//! | [`severed_arc`], sequential and pool wire drivers | `faults::boundary_truncation_severing_arcs_is_deadlock_on_both_backends` |
//! | [`severed_arc`], lanes wire driver | `streaming::truncated_wire_stream_deadlocks_not_hangs` |
//! | [`thread_outside_session`] | `faults::a_record_naming_a_thread_outside_its_session_is_malformed_on_both_backends` |
//! | [`duplicate_produce`] | `faults::duplicate_produce_annotation_is_malformed_on_both_backends` |
//! | [`zero_consumer_produce`] | `faults::zero_consumer_produce_annotation_is_malformed_on_both_backends` |
//! | [`out_of_range_consumer_produce`] | `faults::out_of_range_consumer_produce_annotation_is_malformed_on_both_backends` |
//! | [`lu_taintcheck`] | `faults::transient_stalls_and_fragmentation_change_nothing` |
//! | [`register_out_of_range`] | `parity::a_register_byte_out_of_range_is_malformed_on_every_wire_driver` |
//! | [`arc_fanout`] | `parity::an_arc_storm_replays_alike_on_every_driver` |
//!
//! The Barnes capture's drivers are split over two rows, raw and wire,
//! and the severed arc's over three tests, so that no pair of capture and
//! driver runs twice.

use super::violation_keys;
use paralog::core::{
    CoopLane, CoopSession, DeterministicBackend, EventSource, FaultyReader, LaneStep,
    MonitorConfig, MonitorSession, MonitoringMode, Platform, Reference, ReplaySource, RunMetrics,
    SessionError, SourceInput, StreamingReplaySource, ThreadedBackend, LANE_BUDGET,
};
use paralog::events::codec::encode;
use paralog::events::{
    AddrRange, ArcKind, CaPhase, CaRecord, DependenceArc, EventPayload, EventRecord, HighLevelKind,
    Instr, LockId, MemRef, Op, Reg, Rid, SyscallKind, ThreadId, VersionId,
};
use paralog::lifeguards::{LifeguardKind, ViolationKind};
use paralog::workloads::{adversarial, Benchmark, Workload, WorkloadSpec};
use proptest::test_runner::TestRng;
use std::io::{Cursor, Read};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// One capture: per-thread record streams, the heap they address, and the
/// analysis that replays them.
#[derive(Debug)]
pub struct Case {
    /// Names the capture in every failure message.
    pub name: String,
    pub lifeguard: LifeguardKind,
    pub heap: AddrRange,
    pub streams: Vec<Vec<EventRecord>>,
}

/// What every driver of one capture must agree on.
#[derive(Debug, PartialEq, Eq)]
pub struct Key {
    pub records: u64,
    pub fingerprint: u64,
    /// Sorted by thread, then record.
    pub violations: Vec<(u16, u64, ViolationKind)>,
    /// Versions produced and consumed.
    pub versions: (u64, u64),
}

impl Key {
    pub fn of(metrics: &RunMetrics) -> Key {
        Key {
            records: metrics.records,
            fingerprint: metrics.fingerprint,
            violations: violation_keys(&metrics.violations),
            versions: (metrics.versions_produced, metrics.versions_consumed),
        }
    }
}

/// The ways a capture is replayed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Driver {
    /// `DeterministicBackend` over the raw records.
    Sequential,
    /// `DeterministicBackend` over the stalling wire.
    SequentialWire,
    /// `ThreadedBackend` (lanes on the worker pool) over the raw records.
    Pool,
    /// `ThreadedBackend` over the stalling wire.
    PoolWire,
    /// `CoopSession` lanes stepped round-robin on the calling thread over
    /// the raw records.
    Lanes,
    /// `CoopSession` lanes each run until gated or finished, over the
    /// stalling wire (a lane reads through the wire's stalls).
    LanesWire,
    /// `CoopSession` lanes stepped on the calling thread in an order drawn
    /// from `seed`, over the raw records ([`explore`]).
    Explored { seed: u64 },
}

impl Driver {
    pub const ALL: [Driver; 10] = [
        Driver::Sequential,
        Driver::SequentialWire,
        Driver::Pool,
        Driver::PoolWire,
        Driver::Lanes,
        Driver::LanesWire,
        Driver::Explored { seed: 1 },
        Driver::Explored { seed: 2 },
        Driver::Explored { seed: 3 },
        Driver::Explored { seed: 4 },
    ];
    pub const RAW: [Driver; 7] = [
        Driver::Sequential,
        Driver::Pool,
        Driver::Lanes,
        Driver::Explored { seed: 1 },
        Driver::Explored { seed: 2 },
        Driver::Explored { seed: 3 },
        Driver::Explored { seed: 4 },
    ];
    pub const WIRE: [Driver; 3] = [Driver::SequentialWire, Driver::PoolWire, Driver::LanesWire];
    pub const SEQUENTIAL: [Driver; 2] = [Driver::Sequential, Driver::SequentialWire];
    pub const LANES: [Driver; 8] = [
        Driver::Pool,
        Driver::PoolWire,
        Driver::Lanes,
        Driver::LanesWire,
        Driver::Explored { seed: 1 },
        Driver::Explored { seed: 2 },
        Driver::Explored { seed: 3 },
        Driver::Explored { seed: 4 },
    ];
}

impl Case {
    pub fn new(
        name: impl Into<String>,
        lifeguard: LifeguardKind,
        heap: AddrRange,
        streams: Vec<Vec<EventRecord>>,
    ) -> Case {
        Case {
            name: name.into(),
            lifeguard,
            heap,
            streams,
        }
    }

    /// The capture's key on the sequential loop: the reference of every
    /// hand-built row.
    pub fn sequential(&self) -> Key {
        let metrics = replay(self, Driver::Sequential)
            .unwrap_or_else(|err| panic!("{}: sequential replay failed: {err}", self.name));
        Key::of(&metrics)
    }

    /// The capture's codec encoding, read through a fragmenting, stalling
    /// transport.
    fn wire(&self) -> StreamingReplaySource {
        let readers = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, records)| {
                let transport = FaultyReader::new(Cursor::new(encode(records)), 0xF00 + i as u64)
                    .short_reads()
                    .stall_every(9);
                Box::new(transport) as Box<dyn Read + Send>
            })
            .collect();
        StreamingReplaySource::new(readers, self.heap)
    }
}

/// Replays `case` on `driver`.
pub fn replay(case: &Case, driver: Driver) -> Result<RunMetrics, SessionError> {
    let raw = || ReplaySource::new(case.streams.clone(), case.heap);
    match driver {
        Driver::Sequential => on_backend(case, raw(), false),
        Driver::SequentialWire => on_backend(case, case.wire(), false),
        Driver::Pool => on_backend(case, raw(), true),
        Driver::PoolWire => on_backend(case, case.wire(), true),
        Driver::Lanes => on_lanes(case, Box::new(raw()), false),
        Driver::LanesWire => on_lanes(case, Box::new(case.wire()), true),
        Driver::Explored { seed } => explore(case, seed).result,
    }
}

fn on_backend(
    case: &Case,
    source: impl EventSource + 'static,
    threaded: bool,
) -> Result<RunMetrics, SessionError> {
    let builder = MonitorSession::builder()
        .source(source)
        .lifeguard(case.lifeguard);
    let builder = if threaded {
        builder.backend(ThreadedBackend)
    } else {
        builder.backend(DeterministicBackend)
    };
    let session = builder.build().expect("a source and a bundled lifeguard");
    session.run().map(|outcome| outcome.metrics)
}

/// `case`'s lanes, each reading its stream of `source`.
fn lanes(
    case: &Case,
    source: Box<dyn EventSource>,
) -> Result<(CoopSession, Vec<CoopLane>), SessionError> {
    let SourceInput::Streams(streams) = source.open() else {
        unreachable!("replay sources open to streams")
    };
    CoopSession::start(&case.lifeguard, case.heap, streams, None)
}

fn on_lanes(
    case: &Case,
    source: Box<dyn EventSource>,
    run_to_block: bool,
) -> Result<RunMetrics, SessionError> {
    let (session, mut lanes) = lanes(case, source)?;
    while !session.is_complete() {
        let mut progressed = false;
        for lane in &mut lanes {
            loop {
                match lane.step(64) {
                    LaneStep::Progressed => {
                        progressed = true;
                        if !run_to_block {
                            break;
                        }
                    }
                    // The wire's bytes are all in memory, so its stalls
                    // pass: a run-to-block lane reads on to its next gate.
                    LaneStep::Idle if run_to_block => {}
                    _ => break,
                }
            }
        }
        if !progressed {
            // Every lane is gated or stalled: yield the processor.
            std::thread::yield_now();
        }
    }
    session.report().expect("complete")
}

/// One [`explore`]d schedule and where it led.
#[derive(Debug)]
pub struct Explored {
    /// Each step's lane and budget, in the order taken.
    pub steps: Vec<(usize, usize)>,
    /// The index in `steps` of the first step that failed the session.
    pub failed_at: Option<usize>,
    pub result: Result<RunMetrics, SessionError>,
}

/// Replays `case`'s raw records on `CoopSession` lanes stepped on the
/// calling thread in an order drawn from `seed`: each step picks a lane
/// that has not finished, and a budget of 1, a random clip below
/// `LANE_BUDGET`, or `LANE_BUDGET`. The lane core reads no clock, so one
/// seed takes one schedule, and a refused case fails on one step.
pub fn explore(case: &Case, seed: u64) -> Explored {
    let raw = ReplaySource::new(case.streams.clone(), case.heap);
    let (session, mut lanes) = match lanes(case, Box::new(raw)) {
        Ok(started) => started,
        Err(err) => {
            return Explored {
                steps: Vec::new(),
                failed_at: None,
                result: Err(err),
            };
        }
    };
    let (mut steps, mut failed_at) = (Vec::new(), None);
    let mut rng = TestRng::from_seed(seed);
    let mut live: Vec<usize> = (0..lanes.len()).collect();
    while !session.is_complete() {
        let at = rng.below(live.len() as u64) as usize;
        let budget = match rng.below(3) {
            0 => 1,
            1 => 1 + rng.below(LANE_BUDGET as u64) as usize,
            _ => LANE_BUDGET,
        };
        steps.push((live[at], budget));
        match lanes[live[at]].step(budget) {
            LaneStep::Failed => {
                failed_at.get_or_insert(steps.len() - 1);
                live.swap_remove(at);
            }
            LaneStep::Finished => {
                live.swap_remove(at);
            }
            LaneStep::Progressed | LaneStep::Gated | LaneStep::Idle => {}
        }
    }
    let result = session.report().expect("complete");
    Explored {
        steps,
        failed_at,
        result,
    }
}

/// Asserts that every explored driver of `drivers` fails `case` on the
/// same step each time its seed is replayed.
fn assert_explored_alike(case: &Case, drivers: &[Driver]) {
    for &driver in drivers {
        if let Driver::Explored { seed } = driver {
            let (first, again) = (explore(case, seed), explore(case, seed));
            assert!(
                first.failed_at.is_some(),
                "{}/{driver:?}: no step failed",
                case.name
            );
            assert_eq!(
                (&first.steps, first.failed_at),
                (&again.steps, again.failed_at),
                "{}/{driver:?}: a replayed schedule failed elsewhere",
                case.name
            );
        }
    }
}

/// Runs `row` on every one of `items` at once, one thread each; returns
/// the results in `items`' order.
fn in_parallel<T: Sync, R: Send>(items: &[T], row: impl Fn(&T) -> R + Sync) -> Vec<R> {
    std::thread::scope(|scope| {
        let row = &row;
        let runs: Vec<_> = items
            .iter()
            .map(|item| scope.spawn(move || row(item)))
            .collect();
        runs.into_iter()
            .map(|run| {
                run.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    })
}

/// Asserts that `case` completes on every one of `drivers` with
/// `reference`'s key.
pub fn assert_parity(case: &Case, drivers: &[Driver], reference: &Key) {
    for &driver in drivers {
        let metrics =
            replay(case, driver).unwrap_or_else(|err| panic!("{}/{driver:?}: {err}", case.name));
        assert_eq!(
            Key::of(&metrics),
            *reference,
            "{}/{driver:?}: diverged from the reference",
            case.name
        );
    }
}

/// Asserts that every one of `drivers` fails `case` within two seconds
/// with an error `matches` accepts. The drivers run at once. A lane driver
/// decides a deadlock on the step its last lane parks, so two seconds is
/// a bound on a hang, not on a wait.
pub fn assert_refused(case: &Case, drivers: &[Driver], matches: impl Fn(&SessionError) -> bool) {
    let runs = in_parallel(drivers, |&driver| {
        let started = Instant::now();
        (driver, replay(case, driver), started.elapsed())
    });
    for (driver, result, took) in runs {
        match result {
            Err(err) => assert!(
                matches(&err),
                "{}/{driver:?}: unexpected {err:?}",
                case.name
            ),
            Ok(metrics) => panic!(
                "{}/{driver:?}: completed with {:?}, expected a refusal",
                case.name,
                Key::of(&metrics)
            ),
        }
        assert!(
            took < Duration::from_secs(2),
            "{}/{driver:?}: took {took:?} to fail",
            case.name
        );
    }
}

/// A `Deadlock` whose detail contains `text`.
pub fn deadlock(text: &'static str) -> impl Fn(&SessionError) -> bool {
    move |err| matches!(err, SessionError::Deadlock(detail) if detail.contains(text))
}

/// A `MalformedStream` whose detail contains every one of `texts`.
pub fn malformed(texts: &'static [&'static str]) -> impl Fn(&SessionError) -> bool {
    move |err| {
        matches!(err, SessionError::MalformedStream(detail)
            if texts.iter().all(|text| detail.contains(text)))
    }
}

// ---------------------------------------------------------------------------
// Workload captures
// ---------------------------------------------------------------------------

/// The analyses that keep a byte shadow.
const BYTE_SHADOW_KINDS: [LifeguardKind; 3] = [
    LifeguardKind::TaintCheck,
    LifeguardKind::AddrCheck,
    LifeguardKind::MemCheck,
];

fn workload(bench: Benchmark, threads: usize) -> Workload {
    WorkloadSpec::benchmark(bench, threads).scale(0.05).build()
}

fn sc(kind: LifeguardKind) -> MonitorConfig {
    MonitorConfig::new(MonitoringMode::Parallel, kind)
}

fn tso(kind: LifeguardKind) -> MonitorConfig {
    sc(kind).with_tso()
}

/// Runs `w` live under `cfg` with stream collection on. The collected
/// streams are the case; the live run is the reference its replays reach.
fn capture(name: impl Into<String>, w: &Workload, mut cfg: MonitorConfig) -> (Case, RunMetrics) {
    cfg.collect_streams = true;
    let live = Platform::run(w, &cfg).metrics;
    let streams = live.streams.clone().expect("collection enabled");
    (Case::new(name, cfg.lifeguard, w.heap, streams), live)
}

/// Runs the workload itself on `ThreadedBackend`, which captures it and
/// replays the capture, and asserts the replay matched that capture.
fn assert_threaded_workload(name: &str, w: &Workload, cfg: &MonitorConfig) {
    let metrics = MonitorSession::builder()
        .source(w.clone())
        .config(cfg.clone())
        .backend(ThreadedBackend)
        .build()
        .unwrap()
        .run()
        .unwrap_or_else(|err| panic!("{name}: threaded workload run failed: {err}"))
        .metrics;
    assert!(
        metrics.matches_reference(),
        "{name}: threaded replay diverged from its own capture"
    );
}

/// A workload row: `bench` at `threads` under `cfg`, its capture on
/// `drivers` against the live run, and the workload itself on
/// `ThreadedBackend`. Returns the live run.
fn workload_row(
    bench: Benchmark,
    threads: usize,
    cfg: MonitorConfig,
    drivers: &[Driver],
) -> RunMetrics {
    let name = format!("{bench}x{threads}/{}", cfg.lifeguard);
    let w = workload(bench, threads);
    std::thread::scope(|scope| {
        scope.spawn(|| assert_threaded_workload(&name, &w, &cfg));
        let (case, live) = capture(&name, &w, cfg.clone());
        assert_parity(&case, drivers, &Key::of(&live));
        live
    })
}

/// TaintCheck's SC Fluidanimate capture.
pub fn fluidanimate_taintcheck() {
    let cfg = sc(LifeguardKind::TaintCheck);
    workload_row(Benchmark::Fluidanimate, 4, cfg, &Driver::ALL);
}

/// TaintCheck's SC Barnes capture on the raw drivers: a buffered
/// `ReplaySource` reproduces the live capture's metadata, record count and
/// violations.
pub fn barnes_taintcheck_raw() {
    workload_row(
        Benchmark::Barnes,
        4,
        sc(LifeguardKind::TaintCheck),
        &Driver::RAW,
    );
}

/// The same Barnes capture on the wire drivers: streamed decoding matches
/// the buffered replay. Returns the capture and the live run's key.
pub fn barnes_taintcheck_wire() -> (Case, Key) {
    let w = workload(Benchmark::Barnes, 4);
    let (case, live) = capture("Barnes", &w, sc(LifeguardKind::TaintCheck));
    let reference = Key::of(&live);
    assert_parity(&case, &Driver::WIRE, &reference);
    (case, reference)
}

/// A small Lu capture, all six drivers: every wire driver's stalls and
/// fragmentation change nothing.
pub fn lu_taintcheck() {
    let w = workload(Benchmark::Lu, 2);
    let (case, live) = capture("Lu", &w, sc(LifeguardKind::TaintCheck));
    assert_parity(&case, &Driver::ALL, &Key::of(&live));
}

/// Every driver of one capture is a legal schedule of the same arcs, so
/// each must land on the capture's sequential-reference metadata. The
/// capture is the smallest Barnes one found whose run-to-block schedule
/// exposed an under-ordered store pair (a WAR arc stamped older than the
/// remote core's last store once its L1 line was evicted).
pub fn barnes_small_l1() {
    let w = WorkloadSpec::benchmark(Benchmark::Barnes, 2)
        .scale(0.5)
        .seed(4)
        .inject_bugs(true)
        .build();
    let mut cfg = sc(LifeguardKind::TaintCheck).with_equivalence_check();
    let mut machine = cfg.machine_for(2);
    machine.l1d.size_bytes = 1024;
    cfg.machine = Some(machine);
    let (case, live) = capture("Barnes small L1", &w, cfg);
    let reference = live.reference_fingerprint.expect("check enabled");
    assert_eq!(live.fingerprint, reference, "capture itself diverged");
    assert_parity(&case, &Driver::ALL, &Key::of(&live));
}

/// Every bundled analysis replays through its hand-written lock-free §5.3
/// form and agrees with the sequential loop on final metadata and
/// violations.
pub fn fluidanimate_lock_free_forms() {
    let kinds = [
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::LockSet,
    ];
    for kind in kinds {
        workload_row(Benchmark::Fluidanimate, 4, sc(kind), &Driver::ALL);
    }
}

/// All five bundled lifeguards replay SC captures identically on every
/// driver. These rows replay the captures only: the other workload rows
/// already run `ThreadedBackend` on a workload.
pub fn sc_lifeguard_workloads() {
    // Fluidanimate and Radiosity: fine-grained locking (LockSet's home
    // turf; Fluidanimate's MemCheck and LockSet captures are the
    // `fluidanimate_lock_free_forms` row); Swaptions: malloc/free churn
    // (MemCheck's structural slow path, and the CA records TaintCheck and
    // AddrCheck write metadata on).
    // HappensBefore sees no sync-space traffic in these captures, so every
    // cross-thread conflicting pair races — the captured dependence arcs
    // order those pairs, which is exactly what makes its reports and
    // poisoned metadata driver-deterministic.
    let rows = [
        (LifeguardKind::TaintCheck, Benchmark::Swaptions),
        (LifeguardKind::AddrCheck, Benchmark::Swaptions),
        (LifeguardKind::MemCheck, Benchmark::Swaptions),
        (LifeguardKind::LockSet, Benchmark::Radiosity),
        (LifeguardKind::HappensBefore, Benchmark::Fluidanimate),
        (LifeguardKind::HappensBefore, Benchmark::Radiosity),
    ];
    in_parallel(&rows, |&(kind, bench)| {
        let (case, live) = capture(format!("{bench}/{kind}"), &workload(bench, 4), sc(kind));
        assert_parity(&case, &Driver::ALL, &Key::of(&live));
    });
}

/// TSO captures carry §5.5 versioned metadata; every lane driver resolves
/// the produce/consume annotations against the session's `VersionTable`,
/// and every produced version finds its consumer.
pub fn tso_taintcheck_workloads() {
    in_parallel(&[Benchmark::Lu, Benchmark::Ocean], |&bench| {
        let live = workload_row(bench, 4, tso(LifeguardKind::TaintCheck), &Driver::ALL);
        assert_eq!(
            live.versions_produced, live.versions_consumed,
            "{bench}: every produced version must find its consumer"
        );
    });
}

/// TSO workloads replay through the lock-free forms (LockSet keeps no byte
/// shadow — its all-clean snapshots must still flow through the
/// produce/consume machinery without divergence).
pub fn tso_lifeguard_workloads() {
    let rows = [
        (LifeguardKind::MemCheck, Benchmark::Ocean),
        (LifeguardKind::LockSet, Benchmark::Fluidanimate),
        (LifeguardKind::HappensBefore, Benchmark::Fluidanimate),
    ];
    in_parallel(&rows, |&(kind, bench)| {
        let live = workload_row(bench, 4, tso(kind), &Driver::ALL);
        assert_eq!(
            live.versions_produced, live.versions_consumed,
            "{kind}/{bench}: every produced version must find its consumer"
        );
    });
}

// ---------------------------------------------------------------------------
// Dekker TSO captures (§5.5 versions)
// ---------------------------------------------------------------------------

/// Store-buffer spacings at which the Dekker rows are captured.
const PADS: [usize; 6] = [0, 1, 2, 3, 5, 8];

/// The Figure 5 Dekker pattern (same shape as `tso_figure5.rs`): each
/// thread taints a buffer via a read() syscall, writes its own flag clean,
/// and reads the other's — with `pad` spacers controlling how the stores
/// sit in the store buffers (some pads manifest the SC violation).
fn dekker(pad: usize) -> Workload {
    dekker_after(|_, buf| {
        let mut ops = vec![Op::Syscall {
            kind: SyscallKind::ReadInput,
            buf: Some(buf),
        }];
        ops.extend((0..pad).map(|_| Op::Instr(Instr::Nop)));
        ops
    })
}

/// The Figure 5 Dekker pattern reshaped for MEMCHECK: each side mallocs its
/// own flag region (marking it undefined), defines its flag with a store,
/// then reads the other's flag — under TSO the read may consume the
/// producer's *pre-store* (still-undefined) version, which must flow into
/// the reader's downstream store identically on every driver.
fn dekker_malloc(pad: usize) -> Workload {
    dekker_after(|_, buf| {
        let mut ops = vec![Op::Malloc { range: buf }];
        ops.extend((0..pad).map(|_| Op::Instr(Instr::Nop)));
        ops
    })
}

/// The Dekker pattern with each thread running `prelude(theirs, buf)`
/// before it writes its own flag (`buf` is its own flag's 8 bytes).
fn dekker_after(prelude: impl Fn(MemRef, AddrRange) -> Vec<Op>) -> Workload {
    let a = MemRef::new(0x2000_0000, 8);
    let b = MemRef::new(0x2000_0100, 8);
    let side = |mine: MemRef, theirs: MemRef| {
        let mut ops = prelude(theirs, AddrRange::new(mine.addr, 8));
        ops.push(Op::Instr(Instr::MovRI { dst: Reg(0) }));
        ops.push(Op::Instr(Instr::Store {
            dst: mine,
            src: Reg(0),
        }));
        ops.push(Op::Instr(Instr::Load {
            dst: Reg(1),
            src: theirs,
        }));
        ops.push(Op::Instr(Instr::Store {
            dst: MemRef::new(mine.addr + 0x40, 8),
            src: Reg(1),
        }));
        ops
    };
    Workload {
        name: "figure5-cross-driver".into(),
        benchmark: None,
        threads: vec![side(a, b), side(b, a)],
        heap: AddrRange::new(0x1000_0000, 0x1000_0000),
        locks: 0,
    }
}

/// Asserts `w`'s TSO capture carries every §5.5 annotation its live run
/// acted on, and replays like the live run on every driver. Returns the
/// versions the capture produces.
fn tso_capture_row(name: &str, w: &Workload, kind: LifeguardKind) -> u64 {
    let (case, live) = capture(name, w, tso(kind));
    let produces: u64 = case
        .streams
        .iter()
        .flatten()
        .map(|r| r.produce_versions().len() as u64)
        .sum();
    let consumes = case
        .streams
        .iter()
        .flatten()
        .filter(|r| r.consume_version().is_some())
        .count() as u64;
    assert_eq!(produces, live.versions_produced, "{name}: lost produce");
    assert_eq!(consumes, live.versions_consumed, "{name}: lost consume");
    assert_parity(&case, &Driver::ALL, &Key::of(&live));
    produces
}

/// The Dekker pattern's TSO capture under TaintCheck, at every pad.
pub fn dekker_taintcheck_pads() {
    let versions: u64 = PADS
        .iter()
        .map(|pad| {
            let name = format!("pad={pad}");
            tso_capture_row(&name, &dekker(*pad), LifeguardKind::TaintCheck)
        })
        .sum();
    assert!(
        versions > 0,
        "at least one pad must manifest the SC violation, or the versioned \
         replay path went untested"
    );
}

/// The malloc Dekker pattern under each byte-shadow lifeguard (the sides
/// malloc, so every kind has metadata for the versions to carry).
pub fn dekker_malloc_pads() {
    in_parallel(&BYTE_SHADOW_KINDS, |&kind| {
        let versions: u64 = PADS
            .iter()
            .map(|pad| {
                let name = format!("malloc pad={pad}");
                tso_capture_row(&name, &dekker_malloc(*pad), kind)
            })
            .sum();
        assert!(
            versions > 0,
            "{kind}: no pad manifested a store-buffer version; its §5.5 path \
             went untested"
        );
    });
}

/// A capture whose consume annotations land on records already in a ring:
/// each thread loads the other's flag four times before it writes its own,
/// and those loads leave staging at once (no older store of theirs is
/// buffered), so the flag store that drains later versions them where they
/// wait for their lifeguard. A capture that cloned records as they left
/// staging kept only the one annotation on the staged load.
pub fn ring_resident_consumes() {
    let early_loads = |theirs, _| {
        (0..4)
            .map(|_| {
                Op::Instr(Instr::Load {
                    dst: Reg(2),
                    src: theirs,
                })
            })
            .collect()
    };
    let w = dekker_after(early_loads);
    let versions = tso_capture_row("early loads", &w, LifeguardKind::TaintCheck);
    assert!(versions > 1, "only the staged load was versioned");
}

// ---------------------------------------------------------------------------
// Hand-built captures
// ---------------------------------------------------------------------------

fn nops(n: u64) -> Vec<EventRecord> {
    (1..=n)
        .map(|i| EventRecord::instr(Rid(i), Instr::Nop))
        .collect()
}

fn load(rid: u64, reg: u8, addr: u64) -> EventRecord {
    EventRecord::instr(
        Rid(rid),
        Instr::Load {
            dst: Reg::new(reg),
            src: MemRef::new(addr, 4),
        },
    )
}

/// A 4-byte store of register 0.
pub fn store(rid: u64, addr: u64) -> EventRecord {
    EventRecord::instr(
        Rid(rid),
        Instr::Store {
            dst: MemRef::new(addr, 4),
            src: Reg(0),
        },
    )
}

fn with_arc(mut rec: EventRecord, src: u16, src_rid: u64, kind: ArcKind) -> EventRecord {
    rec.arcs
        .push(DependenceArc::new(ThreadId(src), Rid(src_rid), kind));
    rec
}

/// A ConflictAlert copy (own-stream, so no cross-thread sequence number).
fn ca(
    rid: u64,
    issuer: u16,
    what: HighLevelKind,
    phase: CaPhase,
    range: Option<AddrRange>,
) -> EventRecord {
    EventRecord::ca(
        Rid(rid),
        CaRecord {
            what,
            phase,
            range,
            issuer: ThreadId(issuer),
            issuer_rid: Rid(rid),
            seq: u64::MAX,
        },
    )
}

/// With one byte shadow under both lifeguard forms, an error in it would
/// cancel out of every form-against-form comparison. This pins every driver
/// against the oracle that shares nothing with them (`Reference` keeps a
/// `BTreeMap`), on one hand-built stream aimed at the places the shared
/// container changes shape: a ~200 KiB allocation across four chunks and a
/// directory-table seam, 4-byte accesses before, across and after every
/// chunk boundary inside it, and one store to the simulator's far sentinel
/// in the spill tier. The two dataflow forms also share their transfer
/// function, so the stream carries every `dataflow_view` arm: sequential
/// against lane no longer cross-checks propagation, this does.
pub fn shadow_seams() {
    const CHUNK: u64 = 64 * 1024;
    const TABLE_SEAM: u64 = 512 * CHUNK;
    let heap = AddrRange::new(TABLE_SEAM - 0x100_0000, 0x200_0000);
    let block = AddrRange::new(TABLE_SEAM - 100 * 1024, 200 * 1024);
    let (clean, dirty) = (Reg::new(0), Reg::new(1));

    let mut records: Vec<EventRecord> = Vec::new();
    let mut push = |payload: Result<Instr, (HighLevelKind, CaPhase, AddrRange)>| {
        let rid = records.len() as u64 + 1;
        records.push(match payload {
            Ok(instr) => EventRecord::instr(Rid(rid), instr),
            Err((what, phase, range)) => ca(rid, 0, what, phase, Some(range)),
        });
    };
    let store = |addr, src| Instr::Store {
        dst: MemRef::new(addr, 4),
        src,
    };
    // Allocated (AddrCheck), undefined (MemCheck), then tainted (TaintCheck).
    push(Err((HighLevelKind::Malloc, CaPhase::End, block)));
    let input = HighLevelKind::Syscall(SyscallKind::ReadInput);
    push(Err((input, CaPhase::End, block)));
    push(Ok(Instr::MovRI { dst: clean }));
    let seams = (block.start / CHUNK + 1..=block.end() / CHUNK).map(|ci| ci * CHUNK);
    for (i, seam) in seams.enumerate() {
        // Clean stores just below and across the seam, a dirty load just
        // above it, carried to a word past the block (unallocated heap).
        push(Ok(store(seam - 8, clean)));
        push(Ok(store(seam - 2, clean)));
        let src = MemRef::new(seam + 4, 4);
        push(Ok(Instr::Load { dst: dirty, src }));
        push(Ok(store(block.end() + 0x100 + 8 * i as u64, dirty)));
    }
    // The remaining arms of the transfer function both forms now share,
    // each result carried to its own word past the block: a move, a unary
    // op, a join of a clean and a dirty register (dirty second, so copying
    // `a` would show), a join with a dirty word of the block, and a swap
    // that leaves that word clean and the register dirty.
    let word = |i: u64| MemRef::new(block.start + 0x40 * (i + 1), 4);
    let r2 = Reg::new(2);
    let arms = [
        Instr::MovRR {
            dst: r2,
            src: dirty,
        },
        Instr::Alu1 { dst: r2, a: dirty },
        Instr::Alu2 {
            dst: r2,
            a: clean,
            b: dirty,
        },
        Instr::AluMem {
            dst: r2,
            a: clean,
            src: word(0),
        },
        Instr::Rmw {
            mem: word(1),
            reg: r2,
        },
    ];
    for (i, arm) in arms.into_iter().enumerate() {
        push(Ok(Instr::MovRI { dst: r2 }));
        push(Ok(arm));
        push(Ok(store(block.end() + 0x400 + 8 * i as u64, r2)));
    }
    push(Ok(store(0xFFF_FFFF_F000, dirty)));
    push(Ok(Instr::JmpReg { target: dirty }));
    // Freed up to just past the table seam: the rest stays allocated.
    let freed = AddrRange::new(block.start, TABLE_SEAM + 0x800 - block.start);
    push(Err((HighLevelKind::Free, CaPhase::Begin, freed)));

    in_parallel(&BYTE_SHADOW_KINDS, |&kind| {
        let mut oracle = Reference::new(kind, 1, false);
        for rec in &records {
            match &rec.payload {
                EventPayload::Instr(instr) => oracle.on_instr(0, rec.rid, instr),
                EventPayload::Ca(ca) => oracle.on_high_level(ca.what, ca.phase, ca.range),
            }
        }
        let empty = Reference::new(kind, 1, false).fingerprint();
        assert_ne!(
            oracle.fingerprint(),
            empty,
            "{kind}: the stream left no mark"
        );
        let case = Case::new("shadow seams", kind, heap, vec![records.clone()]);
        let sequential = case.sequential();
        assert!(
            !sequential.violations.is_empty(),
            "{kind}: nothing to report"
        );
        let reference = Key {
            fingerprint: oracle.fingerprint(),
            ..sequential
        };
        assert_parity(&case, &Driver::ALL, &reference);
    });
}

/// §5.4 parity: thread 1 has a read() in flight (CA-Begin .. CA-End with a
/// buffer range, broadcast into every stream); thread 0 touches the buffer
/// inside the window. The sequential loop polices the range table during
/// ingestion — every lane driver must report the *same* SyscallRace (and
/// downstream taint) instead of silently diverging on racy-syscall
/// workloads. AddrCheck subscribes to no syscall ranges, so its lock-free
/// form must agree there too (no spurious hits from a policy-less range
/// table).
pub fn syscall_race() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let buf = AddrRange::new(heap.start + 0x100, 32);
    let read = |phase, rid| {
        ca(
            rid,
            1,
            HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase,
            Some(buf),
        )
    };
    // Thread 0's stream: the broadcast CA window around a racing load, and
    // a jump consuming the (conservatively tainted) loaded value.
    let t0 = vec![
        read(CaPhase::Begin, 1),
        load(2, 0, buf.start + 4),
        read(CaPhase::End, 3),
        EventRecord::instr(
            Rid(4),
            Instr::JmpReg {
                target: Reg::new(0),
            },
        ),
    ];
    // Thread 1's stream: its own copies of the CA records.
    let t1 = vec![read(CaPhase::Begin, 1), read(CaPhase::End, 2)];
    let case = Case::new(
        "syscall race",
        LifeguardKind::TaintCheck,
        heap,
        vec![t0, t1],
    );

    let reference = case.sequential();
    let reported = |kind| reference.violations.iter().any(|&(_, _, k)| k == kind);
    assert!(
        reported(ViolationKind::SyscallRace),
        "the sequential loop must flag the racing access"
    );
    assert!(
        reported(ViolationKind::TaintedJump),
        "conservative taint must reach the jump"
    );
    assert_parity(&case, &Driver::ALL, &reference);

    let case = Case {
        name: "syscall race/AddrCheck".into(),
        lifeguard: LifeguardKind::AddrCheck,
        ..case
    };
    assert_parity(&case, &Driver::ALL, &case.sequential());
}

/// `n` plain records of thread-private work from rid `first` on: loads into
/// and stores from register 1 over a 256-byte area at `area`, none carrying
/// an arc, a ConflictAlert or a §5.5 note, so a lane delivers them as runs.
fn plain_work(first: u64, n: u64, area: u64) -> Vec<EventRecord> {
    (first..first + n)
        .map(|rid| {
            let mem = MemRef::new(area + 4 * (rid % 64), 4);
            let instr = if rid % 2 == 0 {
                Instr::Load {
                    dst: Reg::new(1),
                    src: mem,
                }
            } else {
                Instr::Store {
                    dst: mem,
                    src: Reg::new(1),
                }
            };
            EventRecord::instr(Rid(rid), instr)
        })
        .collect()
}

/// [`syscall_race`] with the racing load in the middle of a lane's runs:
/// thread 0 does ~300 plain records before thread 1's read() CA-Begin
/// reaches its stream, and the racing load sits 50 plain records into the
/// window, 50 before its CA-End and a jump on the loaded register. A lane
/// delivers plain records as one run without checking each against the
/// §5.4 range table, so a run must not start while a range is in flight;
/// if it did, no lane driver would report the race or the taint it leaves.
pub fn syscall_race_mid_run() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let buf = AddrRange::new(heap.start + 0x100, 32);
    let private = heap.start + 0x1000;
    let read = |phase, rid| {
        ca(
            rid,
            1,
            HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase,
            Some(buf),
        )
    };
    let mut t0 = plain_work(1, 300, private);
    t0.push(read(CaPhase::Begin, 301));
    t0.extend(plain_work(302, 50, private));
    t0.push(load(352, 0, buf.start + 4));
    t0.extend(plain_work(353, 50, private));
    t0.push(read(CaPhase::End, 403));
    t0.push(EventRecord::instr(
        Rid(404),
        Instr::JmpReg {
            target: Reg::new(0),
        },
    ));
    t0.extend(plain_work(405, 100, private));
    let t1 = vec![read(CaPhase::Begin, 1), read(CaPhase::End, 2)];
    let case = Case::new(
        "syscall race mid-run",
        LifeguardKind::TaintCheck,
        heap,
        vec![t0, t1],
    );

    let reference = case.sequential();
    assert_eq!(
        reference.violations,
        vec![
            (0, 352, ViolationKind::SyscallRace),
            (0, 404, ViolationKind::TaintedJump)
        ],
        "the racing load, and the jump on the value it loaded"
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

/// §4.2's rule for a run: thread 0 advertises a run's progress once, after
/// the run is applied, and never before. Every round, thread 0 loads a
/// tainted input word and then does 256 plain records with a store of the
/// tainted register in the middle; thread 1 loads that word behind a RAW
/// arc to the store, in the middle of the run, and jumps on it. Thread 1
/// reports a tainted jump every round only if no driver lets it read the
/// word before thread 0's run applied the store. Only the pool drivers,
/// with a worker on each lane, could let it, and only by timing, hence
/// the 256 rounds.
pub fn arc_into_a_run() {
    const ROUNDS: u64 = 256;
    const RUN: u64 = 256;
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let input = AddrRange::new(heap.start, 8);
    let private = heap.start + 0x1000;
    let words = heap.start + 0x2000;
    let mut t0 = vec![ca(
        1,
        0,
        HighLevelKind::Syscall(SyscallKind::ReadInput),
        CaPhase::End,
        Some(input),
    )];
    let mut t1 = Vec::new();
    for round in 0..ROUNDS {
        let rid = t0.len() as u64 + 1;
        t0.push(load(rid, 0, input.start));
        let mut run = plain_work(rid + 1, RUN, private);
        let middle = RUN as usize / 2;
        let word = words + 8 * round;
        run[middle] = EventRecord::instr(
            run[middle].rid,
            Instr::Store {
                dst: MemRef::new(word, 4),
                src: Reg::new(0),
            },
        );
        let stored = run[middle].rid.0;
        t0.extend(run);
        let rid = t1.len() as u64 + 1;
        t1.push(with_arc(load(rid, 0, word), 0, stored, ArcKind::Raw));
        t1.push(EventRecord::instr(
            Rid(rid + 1),
            Instr::JmpReg {
                target: Reg::new(0),
            },
        ));
    }
    let case = Case::new(
        "arc into a run",
        LifeguardKind::TaintCheck,
        heap,
        vec![t0, t1],
    );

    let reference = case.sequential();
    let jumps: Vec<_> = (0..ROUNDS)
        .map(|round| (1, 2 * round + 2, ViolationKind::TaintedJump))
        .collect();
    assert_eq!(
        reference.violations, jumps,
        "every round's jump reads the word the run stored"
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

/// §5.2's arc storm, small: `adversarial::arc_fanout`'s hub and three
/// spokes, every spoke read gated on the hub's write of its round and every
/// hub write on two spokes' reads of the round before. Nearly every record
/// waits on a peer, so the lane drivers hand the storm across lanes at
/// nearly every record, and the pool drivers' sweeps hold chains of coupled
/// lanes: a gated lane stays locked while its sweep steps the lane it waits
/// on, and the sweep returns to it once that lane delivered. ADDRCHECK
/// flags every access (nothing is ever allocated), so the violations say
/// something.
pub fn arc_fanout() {
    let storm = adversarial::arc_fanout(3, 400);
    let case = Case::new(
        "arc fanout",
        LifeguardKind::AddrCheck,
        storm.heap,
        storm.streams,
    );
    let reference = case.sequential();
    assert_eq!(reference.records, 1_600);
    assert_eq!(reference.violations.len(), 1_600, "every access is flagged");
    assert_parity(&case, &Driver::ALL, &reference);
}

/// A consumed §5.5 version is the metadata the consumer *logically* read:
/// T1's load of X was satisfied before T0's store to X became visible, hence
/// before the malloc that follows that store, so ADDRCHECK must judge it
/// against the producer's pre-store snapshot (unallocated) on every driver
/// — not against the live shadow, which by delivery time (the arc to the
/// malloc) says allocated.
pub fn addrcheck_versioned_read() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let x = MemRef::new(heap.start + 0x40, 4);
    let version = VersionId {
        consumer: ThreadId(1),
        consumer_rid: Rid(1),
    };
    let mut produce = store(1, x.addr);
    produce.push_produce_version(version, x, 1);
    let malloc = ca(
        2,
        0,
        HighLevelKind::Malloc,
        CaPhase::End,
        Some(AddrRange::new(heap.start, 0x100)),
    );
    let mut consume = with_arc(load(1, 0, x.addr), 0, 2, ArcKind::Raw);
    consume.set_consume_version(version, x);
    let case = Case::new(
        "versioned read",
        LifeguardKind::AddrCheck,
        heap,
        vec![vec![produce, malloc], vec![consume]],
    );

    let reference = case.sequential();
    let unallocated = |tid, rid| (tid, rid, ViolationKind::UnallocatedAccess);
    assert_eq!(
        reference.violations,
        vec![unallocated(0, 1), unallocated(1, 1)],
        "the producer's store and the consumer's versioned load both \
         precede the malloc"
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

/// Thread `tid` acquiring or releasing `lock`.
pub fn lock_ca(rid: u64, tid: u16, lock: u32, acquire: bool) -> EventRecord {
    let (what, phase) = if acquire {
        (HighLevelKind::Lock(LockId(lock)), CaPhase::End)
    } else {
        (HighLevelKind::Unlock(LockId(lock)), CaPhase::Begin)
    };
    ca(rid, tid, what, phase, None)
}

/// A hand-built capture whose race report is attribution-deterministic
/// (the racing write carries a WAW arc to the prior write, so every driver
/// must deliver — and report — in the same order).
pub fn lockset_race() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let var = 0x200u64;
    let protected = 0x300u64;

    // Thread 0: lock-disciplined write to `protected`, bare write to `var`.
    let t0 = vec![
        lock_ca(1, 0, 7, true),
        store(2, protected),
        lock_ca(3, 0, 7, false),
        store(4, var),
    ];
    // Thread 1: same discipline on `protected` (ordered after T0's unlock
    // via a sync arc), then an unprotected write to `var` ordered after
    // T0's by its captured WAW arc — the access that empties the candidate
    // set and must report the race, on every driver.
    let t1 = vec![
        with_arc(lock_ca(1, 1, 7, true), 0, 3, ArcKind::Sync),
        with_arc(store(2, protected), 0, 2, ArcKind::Waw),
        lock_ca(3, 1, 7, false),
        with_arc(store(4, var), 0, 4, ArcKind::Waw),
    ];
    let case = Case::new("lockset race", LifeguardKind::LockSet, heap, vec![t0, t1]);

    let reference = case.sequential();
    assert_eq!(
        reference.violations,
        vec![(1, 4, ViolationKind::DataRace)],
        "the arc-ordered racing write reports, the disciplined one does not"
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

/// An atomic read-modify-write on a sync-space word — HappensBefore's
/// acquire shape (join the word's published vector clock, then republish).
fn sync_rmw(rid: u64, addr: u64) -> EventRecord {
    EventRecord::instr(
        Rid(rid),
        Instr::Rmw {
            mem: MemRef::new(addr, 8),
            reg: Reg(0),
        },
    )
}

/// A hand-built true-race capture for HAPPENSBEFORE. The lock hand-off
/// (sync-space Rmw/Store joined by a Sync arc) orders the protected writes,
/// so they stay silent; the bare writes to `var` carry no happens-before
/// edge, and the WAW arc to the prior write pins which access completes the
/// race — every driver must report it exactly once, at thread 1's write,
/// and converge on the poisoned (unknown-order) word state.
pub fn happensbefore_race() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let lock = paralog::lifeguards::lockset::SYNC_SPACE_START;
    let protected = 0x300u64;
    let var = 0x200u64;

    // Thread 0: acquire, protected write, release, then a bare write.
    let t0 = vec![
        sync_rmw(1, lock),
        store(2, protected),
        store(3, lock),
        store(4, var),
    ];
    // Thread 1: the acquire is arc-ordered after T0's release, so its
    // vector-clock join covers T0's protected write. The bare write is
    // arc-ordered after T0's by its captured WAW arc but carries no
    // happens-before edge — the access that must report the race.
    let t1 = vec![
        with_arc(sync_rmw(1, lock), 0, 3, ArcKind::Sync),
        with_arc(store(2, protected), 0, 2, ArcKind::Waw),
        store(3, lock),
        with_arc(store(4, var), 0, 4, ArcKind::Waw),
    ];
    let case = Case::new("hb race", LifeguardKind::HappensBefore, heap, vec![t0, t1]);

    let reference = case.sequential();
    assert_eq!(
        reference.violations,
        vec![(1, 4, ViolationKind::DataRace)],
        "the arc-ordered racing write reports exactly once, the \
         lock-disciplined writes stay silent"
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

/// The race-free counterpart: every shared write rides the lock hand-off,
/// so HAPPENSBEFORE must stay silent on every driver with identical final
/// metadata.
pub fn happensbefore_disciplined() {
    let heap = AddrRange::new(0x1000_0000, 0x10000);
    let lock = paralog::lifeguards::lockset::SYNC_SPACE_START;
    let var = 0x200u64;

    let t0 = vec![sync_rmw(1, lock), store(2, var), store(3, lock)];
    let t1 = vec![
        with_arc(sync_rmw(1, lock), 0, 3, ArcKind::Sync),
        with_arc(store(2, var), 0, 2, ArcKind::Waw),
        store(3, lock),
    ];
    let case = Case::new(
        "hb disciplined",
        LifeguardKind::HappensBefore,
        heap,
        vec![t0, t1],
    );

    let reference = case.sequential();
    assert!(
        reference.violations.is_empty(),
        "lock-disciplined hand-off must not race: {:?}",
        reference.violations
    );
    assert_parity(&case, &Driver::ALL, &reference);
}

// ---------------------------------------------------------------------------
// Refused captures
// ---------------------------------------------------------------------------

const HEAP: AddrRange = AddrRange {
    start: 0x1000_0000,
    len: 0x1000,
};

/// A source of zero streams.
pub fn empty_source() {
    let case = Case::new("empty", LifeguardKind::TaintCheck, HEAP, Vec::new());
    assert_refused(&case, &Driver::ALL, |err| *err == SessionError::EmptySource);
}

/// Thread 1's record depends on a producer record that never appears: a
/// capture truncated at a record boundary, as a transport that dropped
/// thread 0's tail leaves it. Every driver fails loudly, not by hanging,
/// and names the stuck head's blocker the same way. Three suites name this
/// check, so each runs it on its own share of the drivers.
pub fn severed_arc(drivers: &[Driver]) {
    let dependent = with_arc(load(1, 0, HEAP.start), 0, 99, ArcKind::Raw);
    let case = Case::new(
        "severed arc",
        LifeguardKind::TaintCheck,
        HEAP,
        vec![nops(1), vec![dependent]],
    );
    assert_refused(
        &case,
        drivers,
        deadlock("T1 gated at #1 waiting on T0 reaching #99"),
    );
    assert_explored_alike(&case, drivers);
}

/// A consume annotation whose producer never reaches its produce point (a
/// truncated TSO capture). The sequential drivers bypass it (§5.5): every
/// older record is applied, so nothing can still produce it. A lane parks
/// on the version instead, and once its peer finished with the version
/// unproduced, the session reports `Deadlock` naming the version wait —
/// instead of hanging, and instead of silently bypassing, which would race
/// the producer's store on real threads.
pub fn unproduced_consume() {
    let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
    let mem = MemRef::new(0x2000_0000, 8);
    let mut consumer = EventRecord::instr(
        Rid(1),
        Instr::Load {
            dst: Reg(0),
            src: mem,
        },
    );
    let vid = VersionId {
        consumer: ThreadId(0),
        consumer_rid: Rid(1),
    };
    consumer.set_consume_version(vid, mem);
    // Thread 1 (the would-be producer) is already exhausted: nothing will
    // ever produce v<T0,#1>.
    let case = Case::new(
        "unproduced consume",
        LifeguardKind::TaintCheck,
        heap,
        vec![vec![consumer], vec![]],
    );
    assert_parity(&case, &Driver::SEQUENTIAL, &case.sequential());
    assert_refused(&case, &Driver::LANES, deadlock("version"));
    assert_explored_alike(&case, &Driver::LANES);
}

/// A 2-thread capture whose thread 1 names thread 7 as an arc source, or
/// carries a ConflictAlert copy issued by thread 9. Either would index the
/// progress or range table out of bounds and panic the replay; the lane's
/// input refuses the record instead.
pub fn thread_outside_session() {
    let arc = with_arc(EventRecord::instr(Rid(1), Instr::Nop), 7, 1, ArcKind::Raw);
    let alert = EventRecord::ca(
        Rid(1),
        CaRecord {
            what: HighLevelKind::Syscall(SyscallKind::ReadInput),
            phase: CaPhase::Begin,
            range: Some(AddrRange::new(HEAP.start, 64)),
            issuer: ThreadId(9),
            issuer_rid: Rid(3),
            seq: 0,
        },
    );
    for (rec, named) in [
        (arc, &["record #1", "arc source T7"]),
        (alert, &["record #1", "ConflictAlert issuer T9"]),
    ] {
        let case = Case::new(
            named[1],
            LifeguardKind::TaintCheck,
            HEAP,
            vec![nops(4), vec![rec]],
        );
        assert_refused(&case, &Driver::ALL, malformed(named));
    }
}

/// A well-framed stream (checksums intact) whose *semantics* are corrupt:
/// two records publish the same version id. Every driver reports the
/// stream, not a panicked worker or a poisoned version table.
pub fn duplicate_produce() {
    let m = MemRef::new(HEAP.start + 0x20, 4);
    let vid = VersionId {
        consumer: ThreadId(0),
        consumer_rid: Rid(9),
    };
    let mut recs = nops(4);
    recs[0].push_produce_version(vid, m, 1);
    recs[1].push_produce_version(vid, m, 1);
    let case = Case::new(
        "duplicate produce",
        LifeguardKind::TaintCheck,
        HEAP,
        vec![recs],
    );
    assert_refused(&case, &Driver::ALL, malformed(&["produce annotation"]));
}

/// A one-thread stream of three `Nop`s whose first record produces version
/// `<consumer, 2>` for `consumers` readers.
fn produce_annotation(consumer: u16, consumers: u32) -> Case {
    let m = MemRef::new(HEAP.start + 0x20, 4);
    let vid = VersionId {
        consumer: ThreadId(consumer),
        consumer_rid: Rid(2),
    };
    let mut recs = nops(3);
    recs[0].push_produce_version(vid, m, consumers);
    let name = format!("produce for T{consumer} x{consumers}");
    Case::new(name, LifeguardKind::TaintCheck, HEAP, vec![recs])
}

/// A version nobody is to consume.
pub fn zero_consumer_produce() {
    assert_refused(&produce_annotation(0, 0), &Driver::ALL, malformed(&[]));
}

/// Consumer thread 7 of a 1-thread session: no lane could ever consume the
/// version, and every driver shares the table that says so.
pub fn out_of_range_consumer_produce() {
    assert_refused(&produce_annotation(7, 1), &Driver::ALL, malformed(&[]));
}

/// A wire stream naming register 200, checksums intact: `MovRI`, `Alu2`'s
/// second operand and `JmpReg` each carry a whole register byte, and the
/// machine has sixteen. The decoder refuses it; a raw `Reg(200)` record is
/// an in-process programming error (`Reg::new` asserts the bound), so this
/// row is wire-only.
pub fn register_out_of_range() {
    let r200 = Reg(200);
    let records = vec![
        EventRecord::instr(Rid(1), Instr::MovRI { dst: r200 }),
        EventRecord::instr(Rid(2), Instr::JmpReg { target: r200 }),
    ];
    let case = Case::new(
        "register 200",
        LifeguardKind::TaintCheck,
        HEAP,
        vec![records],
    );
    assert_refused(&case, &Driver::WIRE, malformed(&["register out of range"]));
}
