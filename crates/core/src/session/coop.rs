//! The concurrent replay core: one non-blocking lane per stream.
//!
//! A [`CoopSession`] owns the shared run state (concurrent lifeguard, §5.2
//! progress table, §5.5 version table, failure latch); each per-thread
//! [`CoopLane`] is an independently steppable task. One [`CoopLane::step`]
//! call pulls at most one batch from the lane's stream, once the previous
//! one was delivered to its last record, and delivers at most `budget`
//! records, each read where its stream wrote it. Everything a replay thread
//! could *wait* on — an unmet dependence arc, an unserialized ConflictAlert
//! copy, an unproduced version, a producer that has not caught up — returns
//! [`LaneStep::Gated`] or [`LaneStep::Idle`], so the ordering rules live
//! here exactly once and how to wait is the caller's business.
//!
//! A lane delivers *runs*. While its §5.4 range table has no syscall range
//! in flight, the longest prefix of *plain* records at the head —
//! instructions with no §5.5 note whose every §5.2 arc is already met — is
//! applied in one pass and advertised once, at its last rid (§4.2:
//! advertised progress may lag applied progress but never lead it). Every
//! other head takes the per-record path: a gated head, a ConflictAlert
//! (it may gate on its issuer and changes the range table), a produce or
//! consume point, and any access while a syscall range is in flight (it is
//! checked against the range table first). A run is bounded by the batch
//! and by the step's budget.
//!
//! Drivers do not step lanes one by one; they pool a session's lanes in a
//! [`LaneSet`] and [`sweep`](LaneSet::sweep) it from a *home* lane. A sweep
//! follows a lane's §5.2/§5.4 gate to the peer it waits on and *holds the
//! chain*, so a chain A→B→C of arc-coupled lanes advances inside one sweep,
//! on one core, at the cost of a single-threaded cooperative replay, and
//! another driver's sweep finds the chain held and backs off instead of
//! trading the lanes between cores record by record. Lanes that do not
//! depend on each other lose nothing: K drivers with K distinct homes still
//! replay K lanes in parallel.
//!
//! One scheduler drives sweeps: the [`WorkerPool`]
//! runs one task per lane round-robin, and a task's slice is one sweep of
//! its session's set bounded by [`LANE_BUDGET`], so a slice delivers at
//! most that fairness quantum however many lanes it touched, and a session
//! with nothing deliverable returns its worker after one flat pass (a
//! worker blocked inside session A's wait is a worker session B never
//! gets). `paralogd` runs N sessions on one shared pool;
//! [`ThreadedBackend`](super::ThreadedBackend) runs one session on a pool
//! of its own, `min(lanes, processors)` workers.
//!
//! A capture replayed through lanes produces the same
//! fingerprint and violations as the sequential reference loop behind
//! [`DeterministicBackend`](super::DeterministicBackend). What lanes do not
//! produce is modelled time: they run on the wall clock, and a gated poll
//! counts a scheduler's choices rather than the capture's stalls, so a lane
//! session's [`RunMetrics`] carry `phases: None` and `lg_finish: 0` — the
//! cycle model is the sequential loop's.
//!
//! Deadlock is decided, not timed: each lane publishes in a slot of its own
//! whether it runs, has finished, or is parked and on what `Blocker`, and
//! a lane that parks decides from the slots (see `CoopShared`). So a
//! producer that vanishes mid-session resolves deterministically:
//! `Exhausted` at a record boundary with no dangling arcs drains clean;
//! severed arcs fail with [`SessionError::Deadlock`] naming every parked
//! lane.
//!
//! A lane step that panics (a lifeguard's `apply`, a stream's pull) is
//! caught by the sweep with the lane's lock still held, so nothing is
//! poisoned: the session fails with [`SessionError::LanePanicked`], that
//! lane finishes, and the driver goes on serving other sessions.

use super::pool::{PoolTask, TaskPoll, WorkerPool};
use super::source::{LaneInput, RecordStream, Refill};
use super::{deadlock, produce_versions, waiting, Blocker, SessionError};
use crate::metrics::RunMetrics;
use paralog_events::{AddrRange, EventPayload, EventRecord, Rid, ThreadId, VersionId};
use paralog_lifeguards::{ConcurrentLifeguard, LifeguardFactory, SessionEventObserver, Violation};
use paralog_order::{replay_gate, CaPolicy, CachePadded, Gate, RangeTable, SharedProgressTable};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, TryLockError};

/// Records one [`LaneSet::sweep`] may deliver over all the lanes it
/// touches: the pool's fairness quantum, measured on the daemon's
/// `arc_storm` workload at 2.5 slices per 100 records.
pub const LANE_BUDGET: usize = 512;

/// What one [`CoopLane::step`] call accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaneStep {
    /// At least one record was delivered (or a fresh batch was pulled).
    /// Re-step soon — the lane likely has more work ready.
    Progressed,
    /// The stream is `Blocked`: its producer has not caught up. Re-step
    /// later; prefer running other lanes meanwhile.
    Idle,
    /// The head record waits on a peer lane (unmet §5.2 arc, §5.4 CA
    /// serialization, or an unproduced §5.5 version). Re-step after peers
    /// have run.
    Gated,
    /// The lane drained its stream and delivered everything. Terminal.
    Finished,
    /// The session failed (this lane's stream or a peer's); the error is in
    /// the session report. Terminal.
    Failed,
}

/// Shared state of one cooperative replay session.
///
/// The deadlock decision reads the lanes' [`LaneSlot`]s, and four rules
/// make it sound:
/// - A slot's sequence number is stored and loaded `SeqCst`: of two lanes
///   that park at once, the later one sees the other parked, so the last
///   lane to park decides.
/// - A slot's words are read with the seqlock pattern, between two loads of
///   its sequence number; a read that a write overlapped is retried, or,
///   in the decision, decides nothing.
/// - A lane changes shared state (advertise, produce, consume, apply) only
///   while its slot says running or names a blocker that is met. Progress
///   only grows, so a met `Progress` blocker stays met.
/// - A lane marks itself running before it consumes a §5.5 version: a
///   consumed version stops being available, so a `Version` blocker could
///   otherwise look unmet again after it was met.
///
/// A lane that delivered and then met a gate names its blocker for the
/// sweep but stays running, since what it just advertised may be what its
/// peers wait on; its next step parks it.
struct CoopShared {
    lifeguard: Box<dyn ConcurrentLifeguard>,
    ca_policy: CaPolicy,
    progress: SharedProgressTable,
    versions: paralog_meta::VersionTable,
    lanes: usize,
    /// Records applied session-wide. Each lane adds its step's deliveries
    /// once, as the step ends, so the lanes write this line once per step
    /// rather than once per record.
    applied: AtomicU64,
    /// Times a lane found its head record gated on a peer.
    stalls: AtomicU64,
    /// Times a lane polled a `Blocked` stream and got nothing — proof the
    /// non-blocking reader path actually exercised `WouldBlock`.
    blocked_polls: AtomicU64,
    /// Lanes that ran [`CoopLane`] to a terminal state: the last one out
    /// composes the report.
    finished_lanes: AtomicUsize,
    /// Each lane's published state, on a line only that lane writes.
    slots: Vec<CachePadded<LaneSlot>>,
    /// The first failure; once set, every lane stops on its next step.
    failure: OnceLock<SessionError>,
    /// Final report, composed exactly once by the last lane to finish; its
    /// presence is what makes the session complete.
    report: OnceLock<Result<RunMetrics, SessionError>>,
}

impl CoopShared {
    /// Records the first failure and tells every lane to stop.
    fn fail(&self, err: SessionError) {
        let _ = self.failure.set(err);
    }

    /// One acquire load: whether a failure is recorded.
    fn aborted(&self) -> bool {
        self.failure.get().is_some()
    }

    /// Called by a lane that just parked: the deadlock, if (1) every slot
    /// reads parked or finished, (2) no parked lane's blocker is met, and
    /// (3) a second read finds no sequence number moved (they only grow, so
    /// equal sums are equal numbers). Stream exhaustion is deliberately
    /// *not* part of this: a lane parked mid-batch never re-polls its
    /// stream, so a dropped producer behind a gated head would otherwise go
    /// unnoticed.
    fn deadlock(&self) -> Option<SessionError> {
        let mut before = 0u64;
        for slot in &self.slots {
            let seq = slot.load();
            if Phase::of(seq) == Phase::Running {
                return None; // some lane can still pull or apply
            }
            before = before.wrapping_add(seq);
        }
        for slot in &self.slots {
            let can_move = match (Phase::of(slot.load()), slot.named().1) {
                (Phase::Running, _) => true,
                (Phase::Parked, Blocker::Progress(src, rid)) => self.progress.satisfies(src, rid),
                (Phase::Parked, Blocker::Version(vid)) => self.versions.is_available(vid),
                (Phase::Finished, _) => false,
            };
            if can_move {
                return None;
            }
        }
        fence(Ordering::Acquire);
        let after = self
            .slots
            .iter()
            .fold(0, |sum: u64, s| sum.wrapping_add(s.load()));
        (after == before).then(|| deadlock(self.parked()))
    }

    /// Every parked lane's thread, head rid and blocker.
    fn parked(&self) -> impl Iterator<Item = (ThreadId, Rid, Blocker)> + '_ {
        let slots = self.slots.iter().enumerate();
        slots.filter_map(|(t, slot)| {
            let (head, blocker) = slot.parked()?;
            Some((ThreadId(t as u16), head, blocker))
        })
    }

    /// Live metrics snapshot (also the body of the final report). Lanes run
    /// on wall-clock time and model no cycles: `phases` is `None` and
    /// `lg_finish` 0.
    fn metrics(&self) -> RunMetrics {
        let mut violations = self.lifeguard.violations();
        // Lane interleaving is pool-schedule-dependent; canonical order
        // keeps reports deterministic.
        violations.sort_by_key(|v| (v.tid.0, v.rid.0));
        let total = self.applied.load(Ordering::Relaxed);
        RunMetrics {
            app_threads: self.lanes,
            records: total,
            delivered_ops: total,
            dependence_stalls: self.stalls.load(Ordering::Relaxed),
            versions_produced: self.versions.produced(),
            versions_consumed: self.versions.consumed(),
            violations,
            fingerprint: self.lifeguard.fingerprint(),
            events: self.lifeguard.session_events(),
            ..RunMetrics::default()
        }
    }

    /// The last lane to finish composes the report.
    fn finalize(&self) {
        let result = match self.failure.get() {
            Some(err) => Err(err.clone()),
            None => Ok(self.metrics()),
        };
        assert!(self.report.set(result).is_ok(), "one last lane");
    }
}

/// Handle to one cooperative replay session: clone freely, observe from any
/// thread. The actual work happens in the session's [`CoopLane`]s, stepped
/// by whoever schedules them (a worker pool, a test loop, ...).
#[derive(Clone)]
pub struct CoopSession {
    shared: Arc<CoopShared>,
}

impl std::fmt::Debug for CoopSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoopSession")
            .field("lanes", &self.shared.lanes)
            .field("applied", &self.shared.applied.load(Ordering::Relaxed))
            .field(
                "finished_lanes",
                &self.shared.finished_lanes.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl CoopSession {
    /// Builds a session over `streams` (one lane per stream) running
    /// `factory`'s concurrent form.
    ///
    /// `observer`, when given, is installed on the lifeguard before any
    /// record is applied, so [`SessionEvent`](paralog_lifeguards::SessionEvent)s
    /// fire incrementally.
    ///
    /// # Errors
    ///
    /// [`SessionError::EmptySource`] for zero streams,
    /// [`SessionError::Unsupported`] when the factory has no concurrent
    /// (`Send + Sync`) form.
    pub fn start(
        factory: &dyn LifeguardFactory,
        heap: AddrRange,
        streams: Vec<Box<dyn RecordStream>>,
        observer: Option<SessionEventObserver>,
    ) -> Result<(CoopSession, Vec<CoopLane>), SessionError> {
        if streams.is_empty() {
            return Err(SessionError::EmptySource);
        }
        let k = streams.len();
        let lifeguard = factory
            .concurrent(heap, k)
            .ok_or(SessionError::Unsupported(
                "lifeguard has no concurrent (Send + Sync) replay form",
            ))?;
        if let Some(observer) = observer {
            lifeguard.set_event_observer(observer);
        }
        let ca_policy = lifeguard.ca_policy();
        let shared = Arc::new(CoopShared {
            lifeguard,
            ca_policy,
            progress: SharedProgressTable::new(k),
            versions: paralog_meta::VersionTable::new(k),
            lanes: k,
            applied: AtomicU64::new(0),
            stalls: AtomicU64::new(0),
            blocked_polls: AtomicU64::new(0),
            finished_lanes: AtomicUsize::new(0),
            slots: (0..k).map(|_| CachePadded::default()).collect(),
            failure: OnceLock::new(),
            report: OnceLock::new(),
        });
        let lanes = streams
            .into_iter()
            .enumerate()
            .map(|(t, stream)| CoopLane {
                tid: ThreadId(t as u16),
                shared: Arc::clone(&shared),
                input: LaneInput::new(stream, k),
                range_table: RangeTable::new(k),
                head_produced: false,
                delivered: 0,
                done: false,
            })
            .collect();
        Ok((CoopSession { shared }, lanes))
    }

    /// Fails the session with `reason`; every lane resolves to
    /// [`LaneStep::Failed`] on its next step. (Graceful detach is *not*
    /// this — close the producer side instead and let the lanes drain.)
    pub fn abort(&self, reason: impl Into<String>) {
        self.fail(SessionError::Deadlock(format!(
            "session aborted: {}",
            reason.into()
        )));
    }

    /// Fails the session with an explicit error — the hook for failures
    /// detected *outside* the lanes (a transport-layer protocol violation,
    /// an invalid frame). First failure wins; lanes fold on their next
    /// step.
    pub fn fail(&self, err: SessionError) {
        self.shared.fail(err);
    }

    /// Whether every lane reached a terminal state and the report is
    /// stored: once this is true, [`report`](Self::report) is `Some`.
    pub fn is_complete(&self) -> bool {
        self.shared.report.get().is_some()
    }

    /// The final result, once every lane finished: full [`RunMetrics`] on a
    /// clean drain (partial if the producers detached early — that is the
    /// graceful-shutdown contract), the first [`SessionError`] otherwise.
    pub fn report(&self) -> Option<Result<RunMetrics, SessionError>> {
        self.shared.report.get().cloned()
    }

    /// Live metrics snapshot of a (possibly still-running) session.
    pub fn snapshot_metrics(&self) -> RunMetrics {
        self.shared.metrics()
    }

    /// Records applied so far, as of each lane's last completed step (a
    /// lane counts a step's deliveries when the step ends, so a step still
    /// running is not in it yet; a finished session's count is exact).
    pub fn records(&self) -> u64 {
        self.shared.applied.load(Ordering::Relaxed)
    }

    /// Times a lane polled a `Blocked` stream (a genuinely non-blocking
    /// reader returned `WouldBlock`) and got no records.
    pub fn blocked_polls(&self) -> u64 {
        self.shared.blocked_polls.load(Ordering::Relaxed)
    }

    /// Most §5.5 versions ever outstanding at once in the session's version
    /// table — what adversarial rid sweeps assert stays at the producer lead.
    pub fn versions_peak_outstanding(&self) -> usize {
        self.shared.versions.peak_outstanding()
    }

    /// The violations observed so far past the first `from`, in raw
    /// accumulation order (a stable prefix: lifeguards append and never
    /// reorder) — the incremental feed for a reader that has seen `from`
    /// of them. Costs nothing when there are none.
    pub fn violations_since(&self, from: usize) -> Vec<Violation> {
        self.shared.lifeguard.violations_since(from)
    }

    /// What each parked lane waits on, in the words of its
    /// [`SessionError::Deadlock`]: `T1 gated at #412 waiting on T0 reaching
    /// #399`, or `... waiting on unproduced version v<T1,#7>`.
    pub fn parked_lanes(&self) -> Vec<String> {
        let parked = self.shared.parked();
        parked
            .map(|(tid, rid, blocker)| waiting(tid, rid, blocker))
            .collect()
    }
}

/// A [`LaneSlot`]'s phase: the low two bits of its sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Running,
    Parked,
    Finished,
}

impl Phase {
    fn of(seq: u64) -> Phase {
        [Phase::Running, Phase::Parked, Phase::Finished][(seq & 3) as usize]
    }
}

/// One lane's published state (see [`CoopShared`]). Only its lane writes
/// it, with stores: `seq` as it changes [`Phase`], and while it runs, its
/// head rid and its blocker's thread (`on`, with bit 16 set for a
/// `Version`'s consumer) and rid (`at`).
#[derive(Debug, Default)]
struct LaneSlot {
    seq: AtomicU64,
    head: AtomicU64,
    on: AtomicU64,
    at: AtomicU64,
}

impl LaneSlot {
    /// The phase the lane last entered: exact for the lane itself.
    fn phase(&self) -> Phase {
        Phase::of(self.seq.load(Ordering::Relaxed))
    }

    fn enter(&self, phase: Phase) {
        let seq = self.seq.load(Ordering::Relaxed);
        self.seq
            .store((seq | 3) + 1 + phase as u64, Ordering::SeqCst);
    }

    fn unpark(&self) {
        if self.phase() == Phase::Parked {
            self.enter(Phase::Running);
        }
    }

    /// Writes the words while the lane runs; the fence orders them after
    /// the store that left the parked phase, for a reader that sees them.
    fn name(&self, head: Rid, blocker: Blocker) {
        let (on, at) = match blocker {
            Blocker::Progress(src, needed) => (u64::from(src.0), needed),
            Blocker::Version(vid) => (1 << 16 | u64::from(vid.consumer.0), vid.consumer_rid),
        };
        fence(Ordering::Release);
        for (word, value) in [(&self.head, head.0), (&self.on, on), (&self.at, at.0)] {
            word.store(value, Ordering::Relaxed);
        }
    }

    /// Parks the lane on `blocker` at `head`, unless it is parked there.
    fn park(&self, head: Rid, blocker: Blocker) {
        if self.phase() != Phase::Parked || self.named() != (head, blocker) {
            self.unpark();
            self.name(head, blocker);
            self.enter(Phase::Parked);
        }
    }

    /// The words as they stand: the lane's own, or torn under a write.
    fn named(&self) -> (Rid, Blocker) {
        let [head, on, at] = [&self.head, &self.on, &self.at].map(|w| w.load(Ordering::Relaxed));
        let (tid, rid) = (ThreadId(on as u16), Rid(at));
        let blocker = match on >> 16 {
            0 => Blocker::Progress(tid, rid),
            _ => Blocker::Version(VersionId {
                consumer: tid,
                consumer_rid: rid,
            }),
        };
        (Rid(head), blocker)
    }

    /// The sequence number, as anyone but the lane reads it.
    fn load(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// The head and blocker of a parked lane, read until no write overlaps.
    fn parked(&self) -> Option<(Rid, Blocker)> {
        loop {
            let seq = self.load();
            let named = self.named();
            fence(Ordering::Acquire);
            if self.load() == seq {
                return (Phase::of(seq) == Phase::Parked).then_some(named);
            }
        }
    }
}

/// One thread's stream as a pool-schedulable task. Exclusive (`&mut`)
/// access models the lane being checked out by exactly one pool worker at
/// a time; all cross-lane coordination goes through the shared tables.
pub struct CoopLane {
    tid: ThreadId,
    shared: Arc<CoopShared>,
    /// The stream and the one batch pulled from it, delivered in place.
    input: LaneInput,
    range_table: RangeTable,
    /// Whether the head record's §5.5 produce annotations were already
    /// published (a consume-gated head must not re-produce on re-step).
    head_produced: bool,
    /// Records delivered by the latest step; added to the session's
    /// `applied` once, when the step ends ([`flush`](Self::flush)).
    delivered: usize,
    done: bool,
}

impl std::fmt::Debug for CoopLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoopLane")
            .field("tid", &self.tid)
            .field("ended", &self.input.ended())
            .field("done", &self.done)
            .finish_non_exhaustive()
    }
}

impl CoopLane {
    /// The lane's thread id.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    fn slot(&self) -> &LaneSlot {
        &self.shared.slots[self.tid.index()]
    }

    /// Runs the lane forward without blocking: pulls at most one batch and
    /// delivers at most `budget` records. Returns what happened so the
    /// scheduler can prioritize; once it returns [`LaneStep::Finished`] or
    /// [`LaneStep::Failed`] the lane is inert.
    pub fn step(&mut self, budget: usize) -> LaneStep {
        match self.advance(budget) {
            // Progress already made this step still counts.
            LaneStep::Gated if self.delivered > 0 => LaneStep::Progressed,
            step => step,
        }
    }

    /// [`step`](Self::step) for [`LaneSet::sweep`], which reads the count
    /// in `self.delivered` afterwards. Unlike `step`, a lane that delivered
    /// and *then* met an unmet gate reports `Gated`, so the sweep goes
    /// straight on to the peer it waits on.
    fn advance(&mut self, budget: usize) -> LaneStep {
        self.delivered = 0;
        if self.done {
            return LaneStep::Finished;
        }
        let step = self.deliver(budget);
        // A step that ended the lane was counted by `finish`.
        if !self.done {
            self.flush();
        }
        step
    }

    /// [`advance`](Self::advance) with a panic caught while the caller
    /// still holds the lane, so its lock stays clean: the step fails the
    /// session and the lane ([`panicked`](Self::panicked)). Returns the
    /// step and what it delivered (nothing, for a step that panicked).
    fn advance_caught(&mut self, budget: usize) -> (LaneStep, usize) {
        match std::panic::catch_unwind(AssertUnwindSafe(|| self.advance(budget))) {
            Ok(step) => (step, self.delivered),
            Err(payload) => {
                self.panicked(&*payload);
                (LaneStep::Failed, 0)
            }
        }
    }

    /// Adds the step's deliveries to the session's count.
    fn flush(&self) {
        if self.delivered > 0 {
            self.shared
                .applied
                .fetch_add(self.delivered as u64, Ordering::Relaxed);
        }
    }

    /// The body of [`advance`](Self::advance) on a live lane.
    fn deliver(&mut self, budget: usize) -> LaneStep {
        if self.shared.aborted() {
            self.finish();
            return LaneStep::Failed;
        }
        if self.input.head().is_none() {
            match self.input.refill() {
                Ok(Refill::Ready) => {}
                Ok(Refill::Lagging) => {
                    // Hand the worker back rather than sleep on the producer.
                    self.shared.blocked_polls.fetch_add(1, Ordering::Relaxed);
                    return LaneStep::Idle;
                }
                Ok(Refill::Ended) => {
                    self.finish();
                    return LaneStep::Finished;
                }
                Err(err) => {
                    self.shared.fail(err);
                    self.finish();
                    return LaneStep::Failed;
                }
            }
        }
        let budget = budget.max(1);
        while self.delivered < budget {
            let Some(head) = self.input.head() else {
                break;
            };
            if self.shared.aborted() {
                self.finish();
                return LaneStep::Failed;
            }
            match self.run_len(budget - self.delivered) {
                (0, Gate::Ready) => {}
                (run, stop) => {
                    if run > 0 {
                        self.deliver_run(run);
                    }
                    if let Gate::Blocked { src, needed } = stop {
                        return self.gated(Blocker::Progress(src, needed));
                    }
                    continue;
                }
            }
            // The head is not plain, or a syscall range is in flight: every
            // gate and check, one record.
            // §5.2 arcs and §5.4 CA serialization, checked without waiting.
            if let Gate::Blocked { src, needed } = self.gate(head) {
                return self.gated(Blocker::Progress(src, needed));
            }
            // §5.5 produce points: exactly once per head, even across
            // consume-gated re-steps.
            if !self.head_produced {
                let produced =
                    produce_versions(&self.shared.versions, self.tid.index(), head, |range| {
                        self.shared.lifeguard.snapshot_meta(range)
                    });
                if let Err(err) = produced {
                    self.shared.fail(err);
                    self.finish();
                    return LaneStep::Failed;
                }
                self.head_produced = true;
            }
            // §5.5 consume points: unlike the sequential loop, a missing
            // version is *not* a bypass here — reading the live shadow would
            // race the producer's store on real threads — so an unproduced
            // version gates the lane.
            let versioned = match head.consume_version() {
                Some((vid, _)) => match self.consume(vid) {
                    Some(v) => Some(v),
                    None => return self.gated(Blocker::Version(vid)),
                },
                None => None,
            };
            self.head_produced = false;
            self.slot().unpark();
            let rec = self.input.head().expect("every gate passed on it");
            // §5.4: police the range table before applying.
            if let EventPayload::Instr(instr) = &rec.payload {
                if let Some((mem, _)) = instr.mem_access() {
                    if let Some(entry) = self.range_table.check(self.tid, mem.range()) {
                        self.shared.lifeguard.on_syscall_race(
                            self.tid,
                            mem.range(),
                            &entry,
                            rec.rid,
                        );
                    }
                }
            }
            self.shared
                .lifeguard
                .apply(self.tid, rec, versioned.as_ref());
            if let EventPayload::Ca(ca) = &rec.payload {
                let actions = self.shared.ca_policy.actions(ca.what, ca.phase);
                if actions.track_range {
                    self.range_table.on_ca(ca);
                }
            }
            self.shared.progress.advertise(self.tid, rec.rid);
            self.input.advance();
            self.delivered += 1;
        }
        if self.input.ended() {
            self.finish();
            return LaneStep::Finished;
        }
        LaneStep::Progressed
    }

    /// The replay gate of `rec`, a record of this lane: §5.2 arcs, then
    /// §5.4 ConflictAlert serialization, against advertised progress.
    /// Inlined: a run's scan calls it on every record.
    #[inline]
    fn gate(&self, rec: &EventRecord) -> Gate {
        replay_gate(rec, self.tid, &self.shared.ca_policy, |src, rid| {
            self.shared.progress.satisfies(src, rid)
        })
    }

    /// How many records from the head form a *run*, at most `budget`, and
    /// why it stops. A run is the longest prefix of the batch whose records
    /// are all plain — an instruction (a ConflictAlert may gate on its
    /// issuer and changes the range table) with no §5.5 note to produce or
    /// consume — and ready, every §5.2 arc met by advertised progress,
    /// while no syscall range is in flight in the lane's §5.4 range table.
    /// The gate comes back [`Gate::Blocked`] when the run stops at a plain
    /// record whose arcs are unmet, so each record's arcs are read once per
    /// pass; a gated head makes a run of 0.
    fn run_len(&self, budget: usize) -> (usize, Gate) {
        if self.range_table.in_flight() > 0 {
            return (0, Gate::Ready);
        }
        let mut run = 0;
        for rec in self.input.pending().iter().take(budget) {
            if !matches!(rec.payload, EventPayload::Instr(_)) || rec.has_tso_notes() {
                break;
            }
            if let gate @ Gate::Blocked { .. } = self.gate(rec) {
                return (run, gate);
            }
            run += 1;
        }
        (run, Gate::Ready)
    }

    /// Delivers the `n`-record run at the head: applies every record, then
    /// advertises the last one's rid once. §4.2: advertised progress may
    /// lag applied progress but never lead it, and the release store
    /// publishes the whole run's metadata to any peer whose arc it meets.
    fn deliver_run(&mut self, n: usize) {
        self.slot().unpark();
        let run = &self.input.pending()[..n];
        for rec in run {
            self.shared.lifeguard.apply(self.tid, rec, None);
        }
        self.shared.progress.advertise(self.tid, run[n - 1].rid);
        self.input.advance_by(n);
        self.delivered += n;
    }

    /// Resolves a head gated on `blocker`: names it in the lane's slot for
    /// the sweep, and parks there unless the lane delivered on its way here
    /// (see [`CoopShared`]); a hopeless gate ([`CoopShared::deadlock`])
    /// fails the run.
    fn gated(&mut self, blocker: Blocker) -> LaneStep {
        self.shared.stalls.fetch_add(1, Ordering::Relaxed);
        let head = self.input.head().expect("gated head").rid;
        if self.delivered > 0 {
            self.slot().name(head, blocker);
            return LaneStep::Gated;
        }
        self.slot().park(head, blocker);
        if let Some(err) = self.shared.deadlock() {
            self.shared.fail(err);
            self.finish();
            return LaneStep::Failed;
        }
        LaneStep::Gated
    }

    /// Consumes version `vid` for the head once it is available, running
    /// first (see [`CoopShared`]).
    fn consume(&self, vid: VersionId) -> Option<(AddrRange, Vec<u8>)> {
        if !self.shared.versions.is_available(vid) {
            return None;
        }
        self.slot().unpark();
        self.shared.versions.consume(vid)
    }

    /// Fails the session on a step that panicked with `payload`, and ends
    /// the lane.
    fn panicked(&mut self, payload: &(dyn std::any::Any + Send)) {
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("a non-string panic payload");
        self.shared.fail(SessionError::LanePanicked {
            tid: self.tid,
            // The daemon reports errors one per line.
            message: message.replace('\n', " "),
        });
        self.finish();
    }

    /// Terminal transition, runs exactly once: counts the ending step's
    /// deliveries and, as the last lane out, composes the session report.
    fn finish(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        // Before the `SeqCst` count below, so the lane that composes the
        // report reads every lane's final flush.
        self.flush();
        self.slot().enter(Phase::Finished);
        let finished = self.shared.finished_lanes.fetch_add(1, Ordering::SeqCst) + 1;
        if finished == self.shared.lanes {
            self.shared.finalize();
        }
    }
}

/// A session's lanes, each behind its own lock on a cache line of its own,
/// shared by every driver working the session.
///
/// A driver does not own a lane; it owns a *home* index and
/// [`sweep`](Self::sweep)s the whole set from there, so a record gated on a
/// sibling lane is unblocked by stepping that sibling in the same call, on
/// the same core, instead of waiting for whichever driver holds it to be
/// scheduled. A lane another driver is stepping right now is skipped
/// (`try_lock`), so K drivers on K processors still run K lanes in
/// parallel — and since a driver writes its lane's lock and cursor on
/// every record, no two lanes share a cache line.
pub struct LaneSet {
    lanes: Vec<CachePadded<Mutex<CoopLane>>>,
}

impl std::fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LaneSet")
            .field("lanes", &self.lanes.len())
            .finish_non_exhaustive()
    }
}

impl LaneSet {
    /// Pools the lanes [`CoopSession::start`] returned.
    pub fn new(lanes: Vec<CoopLane>) -> Self {
        LaneSet {
            lanes: lanes
                .into_iter()
                .map(|lane| CachePadded(Mutex::new(lane)))
                .collect(),
        }
    }

    /// Runs the session forward without blocking, starting at lane `home`
    /// (modulo the lane count): steps a lane while it keeps delivering,
    /// moves to the next sibling when it runs out of input, ends, is held
    /// by another driver, or stops at a gate the sweep cannot follow, and
    /// returns once the records it delivered reach `budget` or one full
    /// pass over the set delivered nothing. [`CoopSession::is_complete`]
    /// says when there is nothing left to come back for.
    ///
    /// A lane that stops at a §5.2/§5.4 gate on a peer this sweep holds, or
    /// can take, is *kept*: the sweep keeps its lock and steps the peer
    /// next, and once the peer delivered it returns to the most recent lane
    /// that waits on it. A kept lane stays locked until the sweep steps it
    /// again, so a chain of coupled lanes stays on one core and other
    /// drivers find it held. A gate on a peer another driver holds, a §5.5
    /// version gate (a `VersionId` does not name its producer), and every
    /// other stop end the chain: the sweep lets go of the lane and of every
    /// lane it keeps, and moves on.
    ///
    /// A step that panics fails the session (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics on an empty set.
    pub fn sweep(&self, home: usize, budget: usize) -> Sweep {
        let n = self.lanes.len();
        let budget = budget.max(1);
        let mut swept = Sweep::default();
        let mut kept = Kept::default();
        // The walk's position, and the lane to step next: the position, or
        // a lane of the chain behind it.
        let mut at = home % n;
        let mut next = at;
        // Lanes visited in a row that delivered nothing.
        let mut flat = 0;
        while flat < n && swept.delivered < budget {
            let Some(mut lane) = kept.take(next).or_else(|| self.try_hold(next)) else {
                // Terminal already, or a peer driver is on it.
                flat += 1;
                at = (at + 1) % n;
                next = at;
                continue;
            };
            let (step, delivered) = lane.advance_caught(budget - swept.delivered);
            swept.delivered += delivered;
            swept.gated |= step == LaneStep::Gated;
            flat = if delivered > 0 { 0 } else { flat + 1 };
            let returning = delivered > 0 && !kept.waiting.is_empty();
            // The peer a gated lane waits on, if this sweep holds it or,
            // when the lane is to be stepped next, can take it.
            let blocker = (step == LaneStep::Gated).then(|| lane.slot().named().1);
            let peer = match blocker {
                Some(Blocker::Progress(src, _)) => kept
                    .take(src.index())
                    .or_else(|| (!returning).then(|| self.try_hold(src.index())).flatten())
                    .map(|peer| (src.index(), peer)),
                _ => None,
            };
            let stopped = next;
            next = match peer {
                Some((src, peer)) => {
                    kept.keep(stopped, lane, n);
                    kept.keep(src, peer, n);
                    if returning {
                        kept.waiting.pop().expect("a lane waits")
                    } else {
                        kept.waiting.push(stopped);
                        src
                    }
                }
                None if returning => kept.waiting.pop().expect("a lane waits"),
                None if step == LaneStep::Progressed => stopped,
                None => {
                    kept = Kept::default();
                    at = (at + 1) % n;
                    at
                }
            };
        }
        swept
    }

    /// Lane `at`, unless it is terminal or a driver holds it (this sweep
    /// included: a lane it keeps is taken from [`Kept`]).
    fn try_hold(&self, at: usize) -> Option<MutexGuard<'_, CoopLane>> {
        match self.lanes[at].try_lock() {
            Ok(lane) if !lane.done => Some(lane),
            Ok(_) | Err(TryLockError::WouldBlock) => None,
            Err(TryLockError::Poisoned(_)) => panic!("poisoned"),
        }
    }

    /// One pool slice of `session`'s lanes from `home`: a
    /// [`sweep`](Self::sweep) of [`LANE_BUDGET`] records, and what the
    /// worker should do next. A slice that delivered without meeting a gate
    /// asks for an idle worker ([`TaskPoll::AgainWake`]): its session's
    /// lanes are flowing, and a sibling it skipped may be runnable too. A
    /// slice that met one wakes nobody — coupled lanes hand off inside a
    /// sweep, and waking a second worker on them only trades the lanes
    /// between cores.
    pub fn slice(&self, session: &CoopSession, home: usize) -> TaskPoll {
        let swept = self.sweep(home, LANE_BUDGET);
        if session.is_complete() {
            TaskPoll::Done
        } else if swept.delivered == 0 {
            TaskPoll::AgainIdle
        } else if swept.gated {
            TaskPoll::Again
        } else {
            TaskPoll::AgainWake
        }
    }

    /// Puts the set on `pool` as `paralogd` schedules a session: one task
    /// per lane, each a [`slice`](Self::slice) from its own home, done once
    /// `session` is complete.
    pub fn submit(self, session: &CoopSession, pool: &WorkerPool) {
        let lanes = Arc::new(self);
        for home in 0..lanes.lanes.len() {
            let (session, lanes) = (session.clone(), Arc::clone(&lanes));
            pool.submit(Box::new(LaneTask {
                session,
                lanes,
                home,
            }));
        }
    }
}

/// One home lane of a session on a [`WorkerPool`]: a slice is
/// [`LaneSet::slice`] from `home`.
struct LaneTask {
    session: CoopSession,
    lanes: Arc<LaneSet>,
    home: usize,
}

impl PoolTask for LaneTask {
    fn run(&mut self) -> TaskPoll {
        self.lanes.slice(&self.session, self.home)
    }
}

/// What one [`LaneSet::sweep`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sweep {
    /// Records delivered over every lane the sweep stepped.
    pub delivered: usize,
    /// Some lane stopped at an unmet gate (§5.2 arc, §5.4 CA serialisation,
    /// §5.5 version) on the way.
    pub gated: bool,
}

/// The lanes one [`LaneSet::sweep`] keeps locked between its steps: the
/// chain it holds, each lane stopped at a gate on a lane of it. Allocated
/// at the first lane kept, so a sweep that never follows a gate allocates
/// nothing.
#[derive(Default)]
struct Kept<'a> {
    /// By lane index.
    guards: Vec<Option<MutexGuard<'a, CoopLane>>>,
    /// The lanes that wait on the one being stepped, most recent last.
    waiting: Vec<usize>,
}

impl<'a> Kept<'a> {
    fn take(&mut self, at: usize) -> Option<MutexGuard<'a, CoopLane>> {
        self.guards.get_mut(at)?.take()
    }

    /// Keeps lane `at` of a set of `lanes`.
    fn keep(&mut self, at: usize, lane: MutexGuard<'a, CoopLane>, lanes: usize) {
        if self.guards.is_empty() {
            self.guards.resize_with(lanes, || None);
        }
        self.guards[at] = Some(lane);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::source::INGEST_BATCH;
    use crate::session::{
        BufferedStream, DeterministicBackend, MonitorSession, RecordStream, ReplaySource,
        StreamStatus,
    };
    use crate::{MonitorConfig, MonitoringMode, Platform};
    use paralog_events::{ArcKind, DependenceArc, Instr, Rid};
    use paralog_lifeguards::LifeguardKind;
    use paralog_workloads::adversarial;
    use paralog_workloads::{Benchmark, WorkloadSpec};

    /// ADDRCHECK flags every access of the storm (nothing is ever
    /// allocated), so violation parity is not vacuous.
    const KIND: LifeguardKind = LifeguardKind::AddrCheck;

    /// A capture and the analysis to replay it under.
    struct Case {
        kind: LifeguardKind,
        streams: Vec<Vec<EventRecord>>,
        heap: AddrRange,
    }

    impl Case {
        /// Hub and `spokes` spokes, nearly every record gated on a peer.
        fn storm(spokes: u16, rounds: u64) -> Case {
            let cap = adversarial::arc_fanout(spokes, rounds);
            Case {
                kind: KIND,
                streams: cap.streams,
                heap: cap.heap,
            }
        }

        /// A tainted Ocean×2 capture at tiny scale (14 k records), under
        /// TAINTCHECK: sparse arcs, so both lanes mostly run apart, each on
        /// its own register slot. Frequent input syscalls and indirect jumps
        /// give it ~25 tainted jumps to report.
        fn tainted() -> Case {
            let mut spec = WorkloadSpec::benchmark(Benchmark::Ocean, 2)
                .scale(0.25)
                .inject_bugs(true)
                .syscall_rate(0.005);
            spec.mix.indirect_jump = 0.02;
            let w = spec.build();
            let mut cfg = MonitorConfig::new(MonitoringMode::Parallel, LifeguardKind::TaintCheck);
            cfg.collect_streams = true;
            let capture = Platform::run(&w, &cfg).metrics;
            Case {
                kind: LifeguardKind::TaintCheck,
                streams: capture.streams.expect("collection enabled"),
                heap: w.heap,
            }
        }

        fn records(&self) -> u64 {
            self.streams.iter().map(|s| s.len() as u64).sum()
        }
    }

    fn start(case: &Case) -> (CoopSession, LaneSet) {
        let (session, lanes) = lanes_of(case);
        (session, LaneSet::new(lanes))
    }

    fn lanes_of(case: &Case) -> (CoopSession, Vec<CoopLane>) {
        let streams = case
            .streams
            .iter()
            .map(|s| Box::new(BufferedStream::new(s.clone())) as Box<dyn RecordStream>)
            .collect();
        CoopSession::start(&case.kind, case.heap, streams, None).unwrap()
    }

    fn keys(metrics: &RunMetrics) -> Vec<(u16, u64)> {
        let mut keys: Vec<_> = metrics
            .violations
            .iter()
            .map(|v| (v.tid.0, v.rid.0))
            .collect();
        keys.sort_unstable();
        keys
    }

    /// Asserts `session`'s report equals the sequential reference loop's.
    fn assert_parity(case: &Case, session: &CoopSession) {
        assert_reference(case, &reference(case), session);
    }

    /// The sequential reference loop's run of `case`.
    fn reference(case: &Case) -> RunMetrics {
        MonitorSession::builder()
            .source(ReplaySource::new(case.streams.clone(), case.heap))
            .lifeguard(case.kind)
            .backend(DeterministicBackend)
            .build()
            .unwrap()
            .run()
            .unwrap()
            .metrics
    }

    /// Asserts `session`'s report equals `reference`, `case`'s run on the
    /// sequential reference loop.
    fn assert_reference(case: &Case, reference: &RunMetrics, session: &CoopSession) {
        let swept = session.report().expect("complete").expect("replays clean");
        assert_eq!(swept.records, case.records());
        assert_eq!(swept.fingerprint, reference.fingerprint);
        assert!(
            !reference.violations.is_empty(),
            "parity must say something"
        );
        assert_eq!(keys(&swept), keys(reference));
    }

    #[test]
    fn one_sweeping_driver_hands_an_arc_storm_across_lanes_inside_its_slices() {
        // Hub and two spokes, nearly every record gated on a peer: driven
        // lane by lane this is about one slice per record.
        let case = Case::storm(2, 4_000);
        let lanes = case.streams.len();
        let (session, set) = start(&case);
        let (mut slices, mut delivered) = (0, 0);
        while !session.is_complete() {
            let swept = set.sweep(0, LANE_BUDGET).delivered;
            assert!(swept <= LANE_BUDGET, "a slice is bounded: {swept}");
            assert!(
                swept > 0 || session.is_complete(),
                "a lone driver over buffered streams never finds a flat pass"
            );
            slices += 1;
            // Every step counts its deliveries as it ends, the one that
            // ends a lane included, so between sweeps the count is exact.
            delivered += swept as u64;
            assert_eq!(session.records(), delivered, "after slice {slices}");
        }
        let bound = case.records() as usize / LANE_BUDGET + lanes + 2;
        assert!(
            slices <= bound,
            "{slices} slices for {} records",
            case.records()
        );
        assert_parity(&case, &session);
        assert_eq!(
            set.sweep(1, LANE_BUDGET),
            Sweep::default(),
            "terminal lanes are inert"
        );
    }

    /// Racing pool workers hand lanes to each other between steps: on the
    /// storm at nearly every record, on the tainted capture whenever a sweep
    /// finds its home lane held. What travels with a lane — its cursor, its
    /// stream's register slot — must arrive intact.
    #[test]
    fn racing_pool_workers_replay_with_parity() {
        for case in [Case::storm(3, 3_000), Case::tainted()] {
            for workers in [1, 2, 4] {
                let (session, set) = start(&case);
                let pool = WorkerPool::new(workers);
                set.submit(&session, &pool);
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        while !session.is_complete() {
                            std::thread::yield_now();
                        }
                        assert!(session.report().is_some(), "complete without a report");
                    });
                    assert!(pool.shutdown().is_none(), "no worker panicked");
                });
                assert_parity(&case, &session);
            }
        }
    }

    /// `n` plain records, rids 1 to `n`: no arc, no ConflictAlert, no note.
    fn plain(n: u64) -> Vec<EventRecord> {
        (1..=n)
            .map(|rid| EventRecord::instr(Rid(rid), Instr::Nop))
            .collect()
    }

    fn lanes_over(streams: Vec<Vec<EventRecord>>) -> (CoopSession, Vec<CoopLane>) {
        let streams = streams
            .into_iter()
            .map(|s| Box::new(BufferedStream::new(s)) as Box<dyn RecordStream>)
            .collect();
        let heap = AddrRange::new(0x1000_0000, 0x1000);
        CoopSession::start(&KIND, heap, streams, None).unwrap()
    }

    #[test]
    fn a_budget_smaller_than_the_run_clips_it() {
        let (session, mut lanes) = lanes_over(vec![plain(300)]);
        let lane = &mut lanes[0];
        assert_eq!(lane.step(10), LaneStep::Progressed);
        assert_eq!(lane.delivered, 10, "the run stops at the budget");
        assert_eq!(session.shared.progress.get(lane.tid), Rid(10));
        // A step delivers at most one batch: the rest of the first pull.
        assert_eq!(lane.step(LANE_BUDGET), LaneStep::Progressed);
        assert_eq!(lane.delivered, INGEST_BATCH - 10);
        while lane.step(LANE_BUDGET) != LaneStep::Finished {}
        assert_eq!(session.records(), 300);

        // Two lanes of nothing but runs: a sweep still stops at its budget.
        let (session, lanes) = lanes_over(vec![plain(3_000), plain(3_000)]);
        let set = LaneSet::new(lanes);
        while !session.is_complete() {
            let swept = set.sweep(0, LANE_BUDGET).delivered;
            assert!(swept <= LANE_BUDGET, "a slice is bounded: {swept}");
        }
        assert_eq!(session.records(), 6_000);
    }

    #[test]
    fn a_run_only_step_advertises_its_last_rid() {
        let (session, mut lanes) = lanes_over(vec![plain(1_000)]);
        let lane = &mut lanes[0];
        // The third step ends with the first pull's batch, at rid 256.
        for last in [100, 200, 256, 356] {
            assert_eq!(lane.step(100), LaneStep::Progressed);
            assert_eq!(session.shared.progress.get(lane.tid), Rid(last));
        }
    }

    #[test]
    fn a_parked_lane_with_a_gated_head_never_enters_the_run_path() {
        let mut t0 = plain(300);
        t0[0]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(5), ArcKind::Raw));
        let (session, mut lanes) = lanes_over(vec![t0, plain(10)]);
        for _ in 0..3 {
            assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Gated);
            assert_eq!(lanes[0].slot().phase(), Phase::Parked);
            let gate = Gate::Blocked {
                src: ThreadId(1),
                needed: Rid(5),
            };
            assert_eq!(
                lanes[0].run_len(LANE_BUDGET),
                (0, gate),
                "a gated head starts no run"
            );
            assert_eq!(session.shared.progress.get(ThreadId(0)), Rid::ZERO);
        }
        assert_eq!(session.shared.parked().count(), 1);
        assert_eq!(lanes[1].step(5), LaneStep::Progressed);
        // The arc is met: the whole first batch goes as one run.
        assert_eq!(lanes[0].run_len(LANE_BUDGET), (INGEST_BATCH, Gate::Ready));
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Progressed);
        assert_eq!(lanes[0].slot().phase(), Phase::Running);
        assert_eq!(session.shared.parked().count(), 0);
        assert_eq!(session.shared.progress.get(ThreadId(0)), Rid(256));
    }

    /// Per pull of a [`Probe`], whether each probed lane was held.
    type Seen = Arc<Mutex<Vec<Vec<bool>>>>;

    /// A stream that, on every pull, notes which of lanes `probe` of its
    /// own set are held at that moment, then yields `records`.
    #[derive(Debug)]
    struct Probe {
        set: Arc<OnceLock<std::sync::Weak<LaneSet>>>,
        probe: Vec<usize>,
        seen: Seen,
        records: BufferedStream,
    }

    impl RecordStream for Probe {
        fn next_batch(
            &mut self,
            out: &mut Vec<EventRecord>,
            max: usize,
        ) -> Result<StreamStatus, SessionError> {
            let set = self.set.get().and_then(std::sync::Weak::upgrade);
            let set = set.expect("the set is built before its first sweep");
            let held = self
                .probe
                .iter()
                .map(|&at| matches!(set.lanes[at].try_lock(), Err(TryLockError::WouldBlock)))
                .collect();
            self.seen.lock().unwrap().push(held);
            self.records.next_batch(out, max)
        }
    }

    /// `plain(n)` whose head waits on `(src, needed)`.
    fn gated_on(n: u64, src: u16, needed: u64) -> Vec<EventRecord> {
        head_waits(plain(n), src, needed)
    }

    /// `records` whose head waits on `(src, needed)`.
    fn head_waits(mut records: Vec<EventRecord>, src: u16, needed: u64) -> Vec<EventRecord> {
        records[0]
            .arcs
            .push(DependenceArc::new(ThreadId(src), Rid(needed), ArcKind::Raw));
        records
    }

    /// A set over `streams` whose last lane is a [`Probe`] of lanes
    /// `probe`, and what that probe saw, one entry per pull.
    fn probed(
        mut streams: Vec<Vec<EventRecord>>,
        probe: Vec<usize>,
    ) -> (CoopSession, Arc<LaneSet>, Seen) {
        let cell = Arc::new(OnceLock::new());
        let seen = Arc::new(Mutex::new(Vec::new()));
        let last = Box::new(Probe {
            set: Arc::clone(&cell),
            probe,
            seen: Arc::clone(&seen),
            records: BufferedStream::new(streams.pop().expect("a probe lane")),
        }) as Box<dyn RecordStream>;
        let mut streams: Vec<Box<dyn RecordStream>> = streams
            .into_iter()
            .map(|s| Box::new(BufferedStream::new(s)) as Box<dyn RecordStream>)
            .collect();
        streams.push(last);
        let heap = AddrRange::new(0x1000_0000, 0x1000);
        let (session, lanes) = CoopSession::start(&KIND, heap, streams, None).unwrap();
        let set = Arc::new(LaneSet::new(lanes));
        cell.set(Arc::downgrade(&set)).unwrap();
        (session, set, seen)
    }

    #[test]
    fn a_sweep_keeps_each_waiting_lane_while_it_steps_the_chain_behind_it() {
        // 0 waits on 1, 1 waits on 2, and 2 is free: while 2 pulls, the
        // sweep holds both lanes that wait on it.
        let (session, set, seen) = probed(
            vec![gated_on(10, 1, 5), gated_on(10, 2, 5), plain(10)],
            vec![0, 1],
        );
        let swept = set.sweep(0, LANE_BUDGET);
        assert_eq!(seen.lock().unwrap()[0], [true, true], "the chain is held");
        // Back down the chain once each blocker delivered: every lane ran
        // its whole stream in the one sweep.
        assert_eq!(swept.delivered, 30);
        assert!(swept.gated);
        for tid in 0..3 {
            assert_eq!(session.shared.progress.get(ThreadId(tid)), Rid(10));
        }
        assert_eq!(session.shared.parked().count(), 0);
    }

    #[test]
    fn a_blocker_that_delivered_stays_kept_while_it_waits_on_its_waiter() {
        // 1 waits on 0's first record, and 0's second waits on 1's last.
        // Once 0 delivered, the sweep returns to 1 and keeps 0, which now
        // waits on 1: 1's second pull, a batch later, finds 0 still held.
        let mut t0 = plain(2);
        t0[1]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(300), ArcKind::Raw));
        let (session, set, seen) = probed(vec![t0, gated_on(300, 0, 1)], vec![0]);
        let swept = set.sweep(1, LANE_BUDGET);
        let seen = seen.lock().unwrap();
        assert_eq!(seen[..2], [[false], [true]], "0 kept across 1's pull");
        assert_eq!(swept.delivered, 302, "one sweep, both lanes to their end");
        assert!(session.is_complete());
    }

    #[test]
    fn a_waiting_lane_whose_blocker_another_driver_holds_is_let_go() {
        // 0 waits on 1, which this thread holds: the sweep moves on to 2,
        // and 0 is free by the time 2 pulls.
        let (session, set, seen) = probed(vec![gated_on(10, 1, 5), plain(10), plain(10)], vec![0]);
        let held = set.lanes[1].lock().unwrap();
        let swept = set.sweep(0, LANE_BUDGET);
        assert_eq!(seen.lock().unwrap()[0], [false], "0 was let go");
        assert_eq!(swept.delivered, 10, "lane 2's stream only");
        assert!(set.lanes[0].try_lock().is_ok(), "and stays free");
        drop(held);
        while !session.is_complete() {
            set.sweep(0, LANE_BUDGET);
        }
        assert_eq!(session.records(), 30);
    }

    #[test]
    fn a_version_gate_is_never_held() {
        // 0 consumes a version nobody produced: its id does not name a
        // producer, so the sweep lets 0 go and moves on to 1.
        let mut t0 = plain(10);
        let version = paralog_events::VersionId {
            consumer: ThreadId(0),
            consumer_rid: Rid(1),
        };
        t0[0].set_consume_version(version, paralog_events::MemRef::new(0x1000_0000, 4));
        let (session, set, seen) = probed(vec![t0, plain(10)], vec![0]);
        let swept = set.sweep(0, LANE_BUDGET);
        assert_eq!(seen.lock().unwrap()[0], [false], "0 was let go");
        assert_eq!(swept.delivered, 10);
        assert!(swept.gated);
        assert_eq!(session.shared.progress.get(ThreadId(0)), Rid::ZERO);
        session.abort("test over");
        set.sweep(0, LANE_BUDGET);
        assert!(session.is_complete());
    }

    /// `n` loads of one unallocated word, rids 1 to `n`: ADDRCHECK flags
    /// each, so a parity check on them says something.
    fn loads(n: u64) -> Vec<EventRecord> {
        (1..=n)
            .map(|rid| {
                let src = paralog_events::MemRef::new(0x1000_0000, 4);
                let load = Instr::Load {
                    dst: paralog_events::Reg(0),
                    src,
                };
                EventRecord::instr(Rid(rid), load)
            })
            .collect()
    }

    /// Hand-built streams of two lanes, replayed under ADDRCHECK.
    fn pair(t0: Vec<EventRecord>, t1: Vec<EventRecord>) -> Case {
        Case {
            kind: KIND,
            streams: vec![t0, t1],
            heap: AddrRange::new(0x1000_0000, 0x1000),
        }
    }

    /// Steps every live lane in turn until the session completes.
    fn run_out(session: &CoopSession, lanes: &mut [CoopLane]) {
        while !session.is_complete() {
            for lane in lanes.iter_mut() {
                lane.step(LANE_BUDGET);
            }
        }
    }

    /// The detail of the session's `Deadlock`.
    fn deadlock_detail(session: &CoopSession) -> String {
        match session.report() {
            Some(Err(SessionError::Deadlock(detail))) => detail,
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn every_lane_parked_is_no_deadlock_while_a_recorded_blocker_is_met() {
        // 0 delivers #1, then waits on 1 reaching #2; 1 waits on 0 reaching
        // #1, delivers #1 and #2, then waits on 0 reaching #3.
        let mut t0 = loads(3);
        t0[1]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(2), ArcKind::Raw));
        let mut t1 = head_waits(loads(3), 0, 1);
        t1[2]
            .arcs
            .push(DependenceArc::new(ThreadId(0), Rid(3), ArcKind::Raw));
        let case = pair(t0, t1);
        let (session, mut lanes) = lanes_of(&case);
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Gated);
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Progressed);
        // Both lanes parked.
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Gated);
        assert!(session.shared.slots[0].parked().is_some());
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Progressed);
        // Both parked again, but 0's recorded gate cleared: it stays
        // parked, and its next step goes on.
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Gated);
        assert_eq!(session.shared.parked().count(), 2);
        assert!(!session.is_complete());
        run_out(&session, &mut lanes);
        assert_parity(&case, &session);
    }

    #[test]
    fn a_severed_arc_deadlocks_on_the_step_its_lane_parks() {
        // 1 finishes at #2, short of the #5 that 0 waits on.
        let case = pair(head_waits(loads(2), 1, 5), loads(2));
        let (session, mut lanes) = lanes_of(&case);
        while lanes[1].step(LANE_BUDGET) != LaneStep::Finished {}
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Failed);
        assert!(session.is_complete());
        let detail = deadlock_detail(&session);
        assert!(
            detail.contains("T0 gated at #1 waiting on T1 reaching #5"),
            "{detail}"
        );

        // 0 parks first: its next step, after 1 finished, decides.
        let (session, mut lanes) = lanes_of(&case);
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Gated);
        while lanes[1].step(LANE_BUDGET) != LaneStep::Finished {}
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Failed);
        assert_eq!(deadlock_detail(&session), detail);
    }

    #[test]
    fn a_version_gate_deadlocks_once_nothing_can_produce_it() {
        let vid = paralog_events::VersionId {
            consumer: ThreadId(0),
            consumer_rid: Rid(1),
        };
        let mem = paralog_events::MemRef::new(0x1000_0000, 4);
        let mut t0 = loads(2);
        t0[0].set_consume_version(vid, mem);

        // 1 ends without producing it.
        let case = pair(t0.clone(), loads(2));
        let (session, mut lanes) = lanes_of(&case);
        while lanes[1].step(LANE_BUDGET) != LaneStep::Finished {}
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Failed);
        let detail = deadlock_detail(&session);
        assert!(
            detail.contains("T0 gated at #1 waiting on unproduced version v<T0,#1>"),
            "{detail}"
        );

        // 0 parks on a version that 1 produces once 0 delivered #1: it
        // leaves the slot naming it before the consume that retires it.
        let vid = paralog_events::VersionId {
            consumer: ThreadId(0),
            consumer_rid: Rid(2),
        };
        let mut t0 = loads(3);
        t0[1].set_consume_version(vid, mem);
        // Keeps 0 from finishing in the step that consumes.
        t0[2]
            .arcs
            .push(DependenceArc::new(ThreadId(1), Rid(2), ArcKind::Raw));
        let mut t1 = head_waits(loads(2), 0, 1);
        t1[0].push_produce_version(vid, mem, 1);
        t1[1]
            .arcs
            .push(DependenceArc::new(ThreadId(0), Rid(2), ArcKind::Raw));
        let case = pair(t0, t1);
        let (session, mut lanes) = lanes_of(&case);
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Gated);
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Progressed);
        // Both parked, and 1's cleared gate keeps the session going.
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Gated);
        let slot = session.shared.slots[0].parked();
        assert!(matches!(slot, Some((Rid(2), Blocker::Version(_)))));
        // 1 produces it and parks again: the version is available, so no
        // deadlock.
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Progressed);
        assert_eq!(lanes[1].step(LANE_BUDGET), LaneStep::Gated);
        assert_eq!(lanes[0].step(LANE_BUDGET), LaneStep::Progressed);
        assert!(session.shared.slots[0].parked().is_none());
        run_out(&session, &mut lanes);
        assert_parity(&case, &session);
    }

    /// A stream whose producer never catches up.
    #[derive(Debug)]
    struct Stalled;

    impl RecordStream for Stalled {
        fn next_batch(
            &mut self,
            _out: &mut Vec<EventRecord>,
            _max: usize,
        ) -> Result<StreamStatus, SessionError> {
            Ok(StreamStatus::Blocked)
        }
    }

    #[test]
    fn a_stalled_session_costs_its_driver_one_pass() {
        let streams = (0..4)
            .map(|_| Box::new(Stalled) as Box<dyn RecordStream>)
            .collect();
        let heap = AddrRange::new(0x1000_0000, 0x1000);
        let (session, lanes) = CoopSession::start(&KIND, heap, streams, None).unwrap();
        let set = LaneSet::new(lanes);
        assert_eq!(set.sweep(2, LANE_BUDGET).delivered, 0, "nothing to deliver");
        assert_eq!(
            session.blocked_polls(),
            4,
            "each lane polled once, then back"
        );
        session.abort("test over");
        assert_eq!(set.sweep(2, LANE_BUDGET).delivered, 0);
        assert!(session.is_complete(), "an abort folds every lane");
    }

    /// Steps each of `lanes` on an OS thread of its own, in a loop with no
    /// [`LaneSet`] and no sleep (a lane that did not progress yields its
    /// processor), until the session completes, or fails the test if that
    /// takes ten seconds.
    fn race(session: &CoopSession, lanes: Vec<CoopLane>) {
        let watchdog = std::time::Instant::now() + std::time::Duration::from_secs(10);
        std::thread::scope(|scope| {
            for mut lane in lanes {
                scope.spawn(move || loop {
                    match lane.step(LANE_BUDGET) {
                        LaneStep::Finished | LaneStep::Failed => break,
                        LaneStep::Progressed => {}
                        LaneStep::Gated | LaneStep::Idle => std::thread::yield_now(),
                    }
                });
            }
            while !session.is_complete() {
                if std::time::Instant::now() > watchdog {
                    session.abort("watchdog");
                    panic!("the lanes neither completed nor decided a deadlock");
                }
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
        });
    }

    /// The deadlock decision raced by lanes on real threads: every park and
    /// unpark of the storm's hub and spokes crosses another lane's decision.
    /// A clean storm must never read as a deadlock, and a severed one must
    /// always be decided, naming every parked lane.
    #[test]
    fn lanes_on_their_own_threads_deadlock_exactly_when_severed() {
        let case = Case::storm(2, 1_000);
        let clean = reference(&case);
        for _ in 0..200 {
            let (session, lanes) = lanes_of(&case);
            race(&session, lanes);
            assert_reference(&case, &clean, &session);
        }

        // §5.5 hand-offs: T1 consumes each version T0 produces, and T0
        // produces the next only once T1 consumed the one before. So T1
        // parks on a version while T0 parks on T1, and T0's decisions race
        // T1's consumes.
        let sweep = adversarial::rid_sweep(500, 1);
        let mut handoff = Case {
            kind: KIND,
            streams: sweep.streams,
            heap: sweep.heap,
        };
        for (c, rec) in handoff.streams[0].iter_mut().enumerate().skip(1) {
            rec.arcs
                .push(DependenceArc::new(ThreadId(1), Rid(c as u64), ArcKind::Raw));
        }
        let clean = reference(&handoff);
        for _ in 0..200 {
            let (session, lanes) = lanes_of(&handoff);
            race(&session, lanes);
            assert_reference(&handoff, &clean, &session);
        }

        // The hub's write of round 500 (#501) also waits on a rid spoke T1
        // never reaches: the hub parks there, and both spokes on that write.
        let mut severed = Case::storm(2, 1_000);
        severed.streams[0][500].arcs.push(DependenceArc::new(
            ThreadId(1),
            Rid(10_000),
            ArcKind::War,
        ));
        for _ in 0..200 {
            let (session, lanes) = lanes_of(&severed);
            race(&session, lanes);
            assert_eq!(
                deadlock_detail(&session),
                "no stream can advance: T0 gated at #501 waiting on T1 reaching #10000; \
                 T1 gated at #501 waiting on T0 reaching #501; \
                 T2 gated at #501 waiting on T0 reaching #501"
            );
        }
    }
}
