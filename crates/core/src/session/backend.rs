//! Execution backends: what runs a monitoring session.
//!
//! A [`Backend`] consumes a [`SessionPlan`] (resolved source input, config
//! and lifeguard factory) and produces a [`RunOutcome`]. Two backends are
//! bundled:
//!
//! * [`DeterministicBackend`] — the paper's cycle-accurate discrete-event
//!   simulation. A workload input is co-simulated end to end (application
//!   cores, capture, rings, lifeguard cores); a stream input is ingested
//!   lifeguard-only by the sequential reference loop, enforcing the
//!   captured dependence arcs — no machine is timed, but each record is
//!   charged under the cost model and the run reports a
//!   [`PhaseBreakdown`]. This is also the one route for a factory with no
//!   concurrent form;
//! * [`ThreadedBackend`] — the daemon's pool, in process: real OS threads
//!   replaying the streams against the lifeguard's `Send + Sync` concurrent
//!   form, one [`CoopLane`](super::coop::CoopLane) per stream, pooled in a
//!   [`LaneSet`] whose lanes are swept by one task each on a
//!   [`WorkerPool`] of `min(lanes, processors)` workers — the scheduler
//!   `paralogd` runs. The ordering rules (§5.2 arcs on the atomic progress
//!   table, the §5.4 range table and ConflictAlert serialisation, §5.5
//!   versions produced and consumed through the session's
//!   [`VersionTable`](paralog_meta::VersionTable)) are the lane's, the
//!   waiting is the pool's, and the backend reports no modelled time
//!   (`phases: None`). A factory without a concurrent form is refused
//!   with [`SessionError::Unsupported`]. A workload input is first
//!   captured deterministically; the deterministic fingerprint is recorded as
//!   [`RunMetrics::reference_fingerprint`](crate::RunMetrics) so
//!   `matches_reference()` states whether genuine concurrency reproduced the
//!   deterministic metadata.
//!
//! Both backends consume stream input **incrementally**: records are pulled
//! from each thread's [`RecordStream`] in bounded batches and delivered as
//! they arrive, each read in place in the batch its stream wrote it into,
//! so ingestion is online and source-side memory stays within the source's
//! chunk budget. A thread whose next record has not been produced yet
//! ([`Blocked`](super::StreamStatus::Blocked)) is retried, never a failure;
//! only when no thread can pull or deliver and some head record still waits
//! on an unmet gate is the run declared a [`SessionError::Deadlock`].

use super::coop::{CoopSession, LaneSet};
use super::pool::WorkerPool;
use super::source::{LaneInput, RecordStream, Refill};
use super::{deadlock, Blocker, SessionError, SessionPlan};
use crate::config::{MonitorConfig, MonitoringMode};
use crate::metrics::{PhaseBreakdown, RunMetrics};
use crate::platform::lg::deliver_ingested;
use crate::platform::{RunOutcome, Sim};
use crate::reference::Reference;
use crate::session::SourceInput;
use paralog_events::ThreadId;
use paralog_lifeguards::{
    CostModel, Lifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, Violation,
};
use paralog_order::{replay_gate, Gate, ProgressTable, RangeTable};
use paralog_workloads::Workload;
use std::fmt;

/// Runs one resolved monitoring session.
pub trait Backend: fmt::Debug {
    /// Human-readable backend name.
    fn name(&self) -> &'static str;

    /// Consumes the plan and produces the run's outcome.
    ///
    /// # Errors
    ///
    /// Returns [`SessionError`] when the plan asks for something this
    /// backend cannot provide (e.g. concurrent replay of a lifeguard without
    /// a concurrent form), when a streaming source turns out malformed, or
    /// when ingestion deadlocks on a truncated capture.
    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError>;
}

/// The deterministic discrete-event backend (the paper's simulator).
#[derive(Debug, Clone, Copy, Default)]
pub struct DeterministicBackend;

impl Backend for DeterministicBackend {
    fn name(&self) -> &'static str {
        "deterministic"
    }

    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError> {
        match plan.input {
            SourceInput::Workload(ref w) => Ok(run_deterministic(
                w,
                &plan.config,
                plan.factory.build(plan.heap),
                plan.factory.builtin_kind(),
            )),
            SourceInput::Streams(streams) => {
                let family = plan.factory.build(plan.heap);
                let metrics = replay_streams(&family, streams, &plan.config.cost)?;
                Ok(RunOutcome { metrics })
            }
        }
    }
}

/// Borrowing shim behind [`Platform::run`](crate::Platform::run): the same
/// deterministic workload session the builder composes (bundled
/// `config.lifeguard`, [`DeterministicBackend`] semantics), minus the owned
/// source — so the classic entry point keeps borrowing the workload instead
/// of cloning its instruction streams every run.
pub(crate) fn run_platform(workload: &Workload, config: &MonitorConfig) -> RunOutcome {
    run_deterministic(
        workload,
        config,
        config.lifeguard.build(workload.heap),
        Some(config.lifeguard),
    )
}

/// Co-simulates `workload` under `config` with an already-built family.
fn run_deterministic(
    workload: &Workload,
    config: &MonitorConfig,
    family: LifeguardFamily,
    shorthand: Option<LifeguardKind>,
) -> RunOutcome {
    let k = workload.thread_count();
    let monitored = config.mode != MonitoringMode::None;
    // The in-line sequential reference exists only for the bundled analyses
    // (it is a re-implementation keyed by kind).
    let reference = match shorthand {
        Some(kind)
            if config.check_equivalence
                && monitored
                && kind != LifeguardKind::LockSet
                && kind != LifeguardKind::HappensBefore =>
        {
            Some(Reference::new(kind, k, config.machine_for(k).is_tso()))
        }
        _ => None,
    };
    let mut sim = Sim::new(workload, config, family, reference);
    sim.warm();
    sim.drive();
    RunOutcome {
        metrics: sim.into_metrics(),
    }
}

/// One wait on a lagging producer: yield at first, then back off to short
/// sleeps so an idle feed does not burn a core. The caller zeroes
/// `idle_polls` once records flow again, resuming eagerly.
fn wait_for_producer(idle_polls: &mut u32) {
    if *idle_polls < 64 {
        *idle_polls += 1;
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(200));
    }
}

/// One thread's ingestion state in the streaming replay loop.
struct IngestLane {
    /// The stream and the one batch pulled from it, delivered in place.
    input: LaneInput,
    range_table: RangeTable,
}

/// Lifeguard-only ingestion of per-thread streams under the deterministic
/// backend: records are pulled incrementally (bounded batches) and
/// delivered in an order that satisfies every captured dependence arc
/// (run-to-block round-robin over threads), through the same
/// [`Lifeguard`] handlers the co-simulation drives. There is no simulated
/// application to time, but lifeguard-side time *is* modeled: each record
/// is charged under `cost` and the run reports a Figure-7-style
/// [`PhaseBreakdown`] (capture / transport / order-wait / analysis /
/// publish) in [`RunMetrics::phases`], with
/// [`RunMetrics::lg_finish`](crate::RunMetrics) set to the phase total.
/// Analysis results (violations, fingerprints, version traffic) are
/// full-fidelity.
///
/// The loop distinguishes the two ways a thread can fail to advance:
///
/// * its stream is [`Blocked`](super::StreamStatus::Blocked) — the producer
///   exists but has not caught up; the session parks and retries;
/// * its head record's [`replay_gate`] is unmet while **every** stream is
///   exhausted — no producer can ever satisfy it:
///   [`SessionError::Deadlock`], naming each stuck head's blocker.
fn replay_streams(
    family: &LifeguardFamily,
    streams: Vec<Box<dyn RecordStream>>,
    cost: &CostModel,
) -> Result<RunMetrics, SessionError> {
    let k = streams.len();
    if k == 0 {
        return Err(SessionError::EmptySource);
    }
    let mut lgs: Vec<Box<dyn Lifeguard>> =
        (0..k).map(|t| family.thread(ThreadId(t as u16))).collect();
    let ca_policy = lgs[0].spec().ca_policy.clone();
    let mut progress = ProgressTable::new(k);
    let versions = paralog_meta::VersionTable::new(k);
    let mut lanes: Vec<IngestLane> = streams
        .into_iter()
        .map(|stream| IngestLane {
            input: LaneInput::new(stream, k),
            range_table: RangeTable::new(k),
        })
        .collect();

    let mut records = 0u64;
    let mut delivered_ops = 0u64;
    let mut stalls = 0u64;
    let mut idle_rounds = 0u32;
    let mut violations: Vec<Violation> = Vec::new();
    let mut analysis = 0u64;
    let mut publish = 0u64;
    loop {
        let mut any_progress = false;
        let mut producer_pending = false;
        for (t, lane) in lanes.iter_mut().enumerate() {
            // Run this thread until its head blocks, its producer lags, or
            // its stream drains.
            loop {
                let Some(head) = lane.input.head() else {
                    match lane.input.refill()? {
                        Refill::Ready => continue,
                        Refill::Lagging => producer_pending = true,
                        Refill::Ended => {}
                    }
                    break;
                };
                let tid = ThreadId(t as u16);
                if replay_gate(head, tid, &ca_policy, |src, rid| {
                    progress.satisfies(src, rid)
                }) != Gate::Ready
                {
                    stalls += 1;
                    break;
                }
                let (a, p) = PhaseBreakdown::record_cycles(cost, head, t);
                analysis += a;
                publish += p;
                deliver_ingested(
                    head,
                    t,
                    &mut lgs,
                    &mut lane.range_table,
                    &versions,
                    &ca_policy,
                    &mut violations,
                    &mut delivered_ops,
                )?;
                progress.advertise(tid, head.rid);
                lane.input.advance();
                records += 1;
                any_progress = true;
            }
        }
        if lanes.iter().all(|l| l.input.ended()) {
            break;
        }
        if any_progress {
            idle_rounds = 0;
        } else {
            if producer_pending {
                // Streams blocked on live producers: park and retry — this
                // is online ingestion waiting for input, not a deadlock.
                wait_for_producer(&mut idle_rounds);
                continue;
            }
            return Err(deadlock(lanes.iter().enumerate().filter_map(
                |(t, lane)| {
                    let head = lane.input.head()?;
                    let tid = ThreadId(t as u16);
                    match replay_gate(head, tid, &ca_policy, |src, rid| {
                        progress.satisfies(src, rid)
                    }) {
                        Gate::Blocked { src, needed } => {
                            Some((tid, head.rid, Blocker::Progress(src, needed)))
                        }
                        Gate::Ready => None,
                    }
                },
            )));
        }
    }

    let wire_bytes: u64 = lanes.iter().map(|l| l.input.transport_bytes()).sum();
    let phases = PhaseBreakdown {
        capture: records * cost.record_drain,
        transport: PhaseBreakdown::transport_cycles(wire_bytes),
        order_wait: stalls * cost.stall_poll,
        analysis,
        publish,
    };
    Ok(RunMetrics {
        app_threads: k,
        records,
        delivered_ops,
        dependence_stalls: stalls,
        versions_produced: versions.produced(),
        versions_consumed: versions.consumed(),
        violations,
        fingerprint: family.fingerprint(),
        lg_finish: phases.total(),
        phases: Some(phases),
        ..RunMetrics::default()
    })
}

/// The real-thread backend: the daemon's pool, in process — one task per
/// stream sweeping the streams' [`LaneSet`] on a [`WorkerPool`] of
/// `min(streams, processors)` workers. A lane that panics fails the run
/// with [`SessionError::LanePanicked`]; a panic elsewhere in a worker is
/// resumed.
///
/// A stream whose reader *blocks* holds its lane, and the worker stepping
/// it, for the length of the read. With fewer processors than streams give
/// the source non-blocking readers (`WouldBlock` surfaces as
/// [`Blocked`](super::StreamStatus::Blocked) and the worker moves on), or a
/// producer that writes its streams in turn can wait on a lane no worker is
/// free to read. An in-process live producer writes into the daemon
/// crate's `ByteFeed`, whose reader never blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct ThreadedBackend;

/// Inert: there is one publication mode. Kept only because the frozen
/// `benchmark/src/driver.rs` names `BackendMode::Auto`; the next
/// `benchmark`-archetype PR removes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendMode {
    /// The only value.
    #[default]
    Auto,
}

impl Backend for ThreadedBackend {
    fn name(&self) -> &'static str {
        "threaded"
    }

    fn run(&self, plan: SessionPlan) -> Result<RunOutcome, SessionError> {
        let (streams, expected): (Vec<Box<dyn RecordStream>>, Option<u64>) = match plan.input {
            SourceInput::Workload(ref w) => {
                // Capture the fully annotated streams deterministically —
                // including §5.5 produce/consume version annotations under
                // TSO; the capture's fingerprint becomes the expected
                // reference.
                let mut cfg = plan.config.clone();
                cfg.mode = MonitoringMode::Parallel;
                cfg.collect_streams = true;
                let family = plan.factory.build(plan.heap);
                let metrics =
                    run_deterministic(w, &cfg, family, plan.factory.builtin_kind()).metrics;
                let streams = metrics.streams.expect("collect_streams was set");
                let fingerprint = metrics.fingerprint;
                match SourceInput::from_buffered(streams) {
                    SourceInput::Streams(streams) => (streams, Some(fingerprint)),
                    SourceInput::Workload(_) => unreachable!("buffered input"),
                }
            }
            SourceInput::Streams(s) => (s, None),
        };
        let (session, lanes) = CoopSession::start(&*plan.factory, plan.heap, streams, None)?;
        // A worker per lane up to the processors there are: past that, a
        // worker only takes the processor a peer lane's worker needs, while
        // a sweep steps that lane directly.
        let homes = lanes.len();
        let processors = std::thread::available_parallelism().map_or(1, |n| n.get());
        let pool = WorkerPool::new(processors.min(homes));
        LaneSet::new(lanes).submit(&session, &pool);
        // Every task runs until the session completes: the join is the wait.
        if let Some(panic) = pool.shutdown() {
            std::panic::resume_unwind(panic);
        }
        let metrics = session
            .report()
            .expect("every lane ran to a terminal state")?;
        Ok(RunOutcome {
            metrics: RunMetrics {
                reference_fingerprint: expected,
                ..metrics
            },
        })
    }
}
