//! Construction of lifeguard families: the open factory registry.
//!
//! ParaLog's pitch (§3) is that a lifeguard written for sequential
//! monitoring ports to parallel monitoring with minimal effort. The platform
//! is therefore generic over [`Lifeguard`] trait objects, wired through
//! three pieces:
//!
//! * [`LifeguardFamily`] — owns one analysis' shared metadata (Figure 2's
//!   global metadata) and hands out one [`Lifeguard`] instance per monitored
//!   thread;
//! * [`LifeguardFactory`] — builds a family for a run. Out-of-tree analyses
//!   implement this (plus [`Lifeguard`]) and register; nothing in the
//!   platform is edited;
//! * [`LifeguardRegistry`] — name → factory resolution. The five bundled
//!   analyses are pre-registered (each [`LifeguardKind`] *is* a factory;
//!   the enum survives purely as shorthand for them).
//!
//! A factory may additionally provide a [`ConcurrentLifeguard`], the
//! `Send + Sync` replay form the real-thread backend drives. All five
//! bundled analyses ship §5.3 forms over lock-free substrates: the three
//! byte-shadow analyses on an [`AtomicShadow`](paralog_meta::AtomicShadow)
//! — TaintCheck and MemCheck as two rule tables over the one
//! crate-private `dataflow` engine, whose only mutex serializes the
//! issuers' wholesale malloc/free/`read()` rewrites, AddrCheck with none —
//! and the two race detectors on a [`WordTable`](paralog_meta::WordTable)
//! with a mutex-guarded slow path for wide-word interning (see
//! [`LockSetConcurrent`]). An out-of-tree factory writes its own form the
//! same way (see [`LifeguardFactory::concurrent`] for a worked example);
//! one that does not stays on the sequential loop, and the lanes refuse it
//! by name.

use crate::addrcheck::{AddrCheck, AddrCheckConcurrent, AddrShared};
use crate::dataflow::{Dataflow, DataflowConcurrent};
use crate::happensbefore::{HappensBefore, HappensBeforeConcurrent, HbShared};
use crate::lifeguard::{Lifeguard, Violation};
use crate::lockset::{LockSet, LockSetConcurrent, LockSetShared};
use crate::{memcheck, taintcheck};
use paralog_events::{AddrRange, EventRecord, Rid, ThreadId};
use paralog_order::{CaPolicy, RangeEntry};
use std::fmt;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// The bundled lifeguards, as named in the paper's evaluation (§6) plus the
/// two discussed qualitatively (§4.1, §5.3). Each kind doubles as the
/// built-in [`LifeguardFactory`] registration for that analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LifeguardKind {
    /// Dynamic taint analysis (2 bits/byte, IT + M-TLB).
    TaintCheck,
    /// Allocation checking (1 bit/byte, IF + M-TLB).
    AddrCheck,
    /// Initialized-ness tracking (IT + M-TLB, IT flushed on malloc/free).
    MemCheck,
    /// Eraser-style data-race detection (fast/slow path atomicity).
    LockSet,
    /// FastTrack-style happens-before race detection (packed epochs with
    /// read vector clocks on the interned wide-word tier).
    HappensBefore,
}

impl LifeguardKind {
    /// All five bundled analyses.
    pub const ALL: [LifeguardKind; 5] = [
        LifeguardKind::TaintCheck,
        LifeguardKind::AddrCheck,
        LifeguardKind::MemCheck,
        LifeguardKind::LockSet,
        LifeguardKind::HappensBefore,
    ];

    /// The registry name of this bundled analysis.
    pub fn name(&self) -> &'static str {
        match self {
            LifeguardKind::TaintCheck => "TaintCheck",
            LifeguardKind::AddrCheck => "AddrCheck",
            LifeguardKind::MemCheck => "MemCheck",
            LifeguardKind::LockSet => "LockSet",
            LifeguardKind::HappensBefore => "HappensBefore",
        }
    }
}

impl fmt::Display for LifeguardKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Builds [`LifeguardFamily`] instances for monitoring sessions.
///
/// This is the open extension seam: implement [`Lifeguard`] for the analysis
/// logic, implement this trait to construct its analysis-wide shared state,
/// and register it in a [`LifeguardRegistry`] (or hand it to a session
/// builder directly). The platform never needs to know the concrete type.
///
/// Factories are `Send + Sync`: a long-lived supervisor (the `paralogd`
/// daemon) resolves them from a shared registry on whatever thread accepts
/// an attach request. Factories are *constructors* — per-run state lives in
/// the [`LifeguardFamily`] / [`ConcurrentLifeguard`] they build, so the
/// bound costs implementors nothing (every bundled factory is a unit-like
/// value).
pub trait LifeguardFactory: fmt::Debug + Send + Sync {
    /// Registry name (what a session resolves by string).
    fn name(&self) -> &str;

    /// Creates a fresh family for one run. `heap` is the monitored
    /// application's heap region (analyses like AddrCheck scope their
    /// checks to it).
    fn build(&self, heap: AddrRange) -> LifeguardFamily;

    /// The `Send + Sync` form of the analysis replayed by the real-thread
    /// backend, for `threads` monitored streams. Streams arrive
    /// incrementally, so implementations must not assume the event
    /// footprint is known up front.
    ///
    /// Returns `None` by default: an analysis does not replay concurrently
    /// unless its factory says so. Every bundled analysis overrides this
    /// with a hand-written lock-free §5.3 form, and an out-of-tree factory
    /// reaches the lanes and `paralogd` the same way: by implementing
    /// [`ConcurrentLifeguard`]. State lives in atomics (or the
    /// [`AtomicShadow`](paralog_meta::AtomicShadow) /
    /// [`PackedWordTable`](paralog_meta::PackedWordTable) substrates), so
    /// the hot path never serializes. A factory that keeps the default still
    /// replays captured streams on the sequential loop; the lanes refuse it
    /// by name.
    ///
    /// ```rust
    /// use paralog_events::{AddrRange, EventPayload, EventRecord, ThreadId};
    /// use paralog_lifeguards::{
    ///     ConcurrentLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, VersionedMeta,
    ///     Violation,
    /// };
    /// use std::sync::atomic::{AtomicU64, Ordering};
    ///
    /// /// Counts delivered instruction records. All shared state is one
    /// /// atomic, so the concurrent form is lock-free by construction —
    /// /// no `unsafe`, no mutex, nothing for workers to contend on.
    /// #[derive(Debug, Default)]
    /// struct OpCountConcurrent(AtomicU64);
    ///
    /// impl ConcurrentLifeguard for OpCountConcurrent {
    ///     fn apply(&self, _tid: ThreadId, rec: &EventRecord, _v: Option<&VersionedMeta>) {
    ///         if matches!(rec.payload, EventPayload::Instr(_)) {
    ///             self.0.fetch_add(1, Ordering::Relaxed);
    ///         }
    ///     }
    ///     fn fingerprint(&self) -> u64 {
    ///         self.0.load(Ordering::Relaxed)
    ///     }
    ///     fn violations(&self) -> Vec<Violation> {
    ///         Vec::new()
    ///     }
    /// }
    ///
    /// #[derive(Debug)]
    /// struct OpCountFactory;
    ///
    /// impl LifeguardFactory for OpCountFactory {
    ///     fn name(&self) -> &str {
    ///         "OpCount"
    ///     }
    ///     fn build(&self, heap: AddrRange) -> LifeguardFamily {
    ///         // The sequential family (see examples/custom_lifeguard.rs);
    ///         // a bundled one keeps this example self-contained.
    ///         LifeguardKind::MemCheck.build(heap)
    ///     }
    ///     fn concurrent(
    ///         &self,
    ///         _heap: AddrRange,
    ///         _threads: usize,
    ///     ) -> Option<Box<dyn ConcurrentLifeguard>> {
    ///         Some(Box::new(OpCountConcurrent::default()))
    ///     }
    /// }
    ///
    /// let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
    /// let conc = OpCountFactory.concurrent(heap, 2).expect("lock-free form");
    /// assert_eq!(conc.fingerprint(), 0);
    /// ```
    fn concurrent(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn ConcurrentLifeguard>> {
        let _ = (heap, threads);
        None
    }

    /// The bundled shorthand this factory *is*, when it is one (the platform
    /// attaches the in-line sequential reference only then). Custom factories
    /// keep the default `None` — even when they reuse a bundled name to
    /// shadow it in a registry.
    fn builtin_kind(&self) -> Option<LifeguardKind> {
        None
    }

    /// The shape of this analysis' shared metadata — what substrate its
    /// concurrent form replays on. Purely descriptive: the daemon `STATUS`
    /// line surfaces it per session so operators can see which tier a
    /// lifeguard's footprint lives in. Defaults to the byte shadow, the
    /// common case for out-of-tree analyses.
    fn metadata_shape(&self) -> MetadataShape {
        MetadataShape::ByteShadow
    }
}

/// The metadata substrate a lifeguard's concurrent form replays on
/// (see [`LifeguardFactory::metadata_shape`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MetadataShape {
    /// Per-byte shadow over [`AtomicShadow`](paralog_meta::AtomicShadow)
    /// (TaintCheck, AddrCheck, MemCheck).
    ByteShadow,
    /// Packed words with an interned wide-value spill tier — a
    /// [`WordTable`](paralog_meta::WordTable) (LockSet's candidate masks,
    /// HappensBefore's read vector clocks).
    WideWord,
}

impl fmt::Display for MetadataShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MetadataShape::ByteShadow => "byte-shadow",
            MetadataShape::WideWord => "wide-word",
        })
    }
}

impl LifeguardFactory for LifeguardKind {
    fn name(&self) -> &str {
        LifeguardKind::name(self)
    }

    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        match self {
            LifeguardKind::TaintCheck => Dataflow::family(&taintcheck::RULES),
            LifeguardKind::MemCheck => Dataflow::family(&memcheck::RULES),
            LifeguardKind::AddrCheck => {
                let shared = Rc::new(AddrShared::new(heap));
                LifeguardFamily::from_constructor(self.name(), move |tid| {
                    Box::new(AddrCheck::new(Rc::clone(&shared), tid))
                })
            }
            LifeguardKind::LockSet => {
                let shared = LockSetShared::new();
                LifeguardFamily::from_constructor(self.name(), move |tid| {
                    Box::new(LockSet::new(Rc::clone(&shared), tid))
                })
            }
            LifeguardKind::HappensBefore => {
                let shared = HbShared::new();
                LifeguardFamily::from_constructor(self.name(), move |tid| {
                    Box::new(HappensBefore::new(Rc::clone(&shared), tid))
                })
            }
        }
    }

    fn concurrent(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn ConcurrentLifeguard>> {
        // All five bundled analyses ship §5.3 forms: AddrCheck is
        // synchronization-free outright; the dataflow engine, LockSet and
        // HappensBefore run a lock-free fast path with a mutex-guarded slow
        // path for their rare structural events (wholesale ConflictAlert
        // rewrites, wide-word interning).
        Some(match self {
            LifeguardKind::TaintCheck => {
                Box::new(DataflowConcurrent::new(&taintcheck::RULES, threads))
            }
            LifeguardKind::MemCheck => Box::new(DataflowConcurrent::new(&memcheck::RULES, threads)),
            LifeguardKind::AddrCheck => Box::new(AddrCheckConcurrent::new(heap)),
            LifeguardKind::LockSet => Box::new(LockSetConcurrent::new(threads)),
            LifeguardKind::HappensBefore => Box::new(HappensBeforeConcurrent::new(threads)),
        })
    }

    fn builtin_kind(&self) -> Option<LifeguardKind> {
        Some(*self)
    }

    fn metadata_shape(&self) -> MetadataShape {
        match self {
            LifeguardKind::TaintCheck | LifeguardKind::AddrCheck | LifeguardKind::MemCheck => {
                MetadataShape::ByteShadow
            }
            LifeguardKind::LockSet | LifeguardKind::HappensBefore => MetadataShape::WideWord,
        }
    }
}

/// One analysis' per-run state: a constructor for per-thread [`Lifeguard`]
/// instances over shared analysis-wide metadata.
#[derive(Clone)]
pub struct LifeguardFamily {
    name: String,
    make: Rc<dyn Fn(ThreadId) -> Box<dyn Lifeguard>>,
}

impl fmt::Debug for LifeguardFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LifeguardFamily")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

impl LifeguardFamily {
    /// Creates the family of a bundled analysis. `heap` is the monitored
    /// application's heap region (AddrCheck restricts its checks to it).
    pub fn new(kind: LifeguardKind, heap: AddrRange) -> Self {
        kind.build(heap)
    }

    /// Creates a family from an arbitrary per-thread constructor. The
    /// closure typically clones an `Rc<RefCell<Shared>>` captured when the
    /// factory built the family.
    pub fn from_constructor(
        name: impl Into<String>,
        make: impl Fn(ThreadId) -> Box<dyn Lifeguard> + 'static,
    ) -> Self {
        LifeguardFamily {
            name: name.into(),
            make: Rc::new(make),
        }
    }

    /// The analysis name this family runs.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Builds the lifeguard thread paired with application thread `tid`.
    pub fn thread(&self, tid: ThreadId) -> Box<dyn Lifeguard> {
        (self.make)(tid)
    }

    /// Fingerprint of the shared metadata (order-insensitive; identical for
    /// every thread of the family).
    pub fn fingerprint(&self) -> u64 {
        self.thread(ThreadId(0)).fingerprint()
    }
}

pub use crate::lifeguard::VersionedMeta;

/// A non-fatal, session-level diagnostic: something degraded but the run
/// stays sound and keeps going. Surfaced through
/// `RunMetrics::events` rather than an error, because the §5.3 contract for
/// degradation is *over-approximation*, never a wrong report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionEvent {
    /// An analysis exhausted a bounded metadata resource and fell back to a
    /// conservative over-approximation (e.g. the lockset interner
    /// saturating to the full candidate set): reports stay sound, but some
    /// violations may go unreported from that point on.
    DegradedPrecision {
        /// The analysis that degraded (e.g. `"LockSet"`).
        lifeguard: &'static str,
        /// What was exhausted and what the fallback is.
        detail: String,
    },
}

impl fmt::Display for SessionEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionEvent::DegradedPrecision { lifeguard, detail } => {
                write!(f, "{lifeguard}: degraded precision: {detail}")
            }
        }
    }
}

/// Incremental receiver of [`SessionEvent`]s, installed on a
/// [`ConcurrentLifeguard`] via
/// [`set_event_observer`](ConcurrentLifeguard::set_event_observer).
///
/// End-of-run collection through `RunMetrics::events` is useless for a
/// session that runs for days: an operator needs to learn *while the
/// session is still running* that an analysis degraded. The observer is
/// invoked at the moment an event first occurs, on whichever worker thread
/// tripped it — implementations must be cheap and non-blocking (push into a
/// bounded channel, bump a gauge); anything slow belongs on the receiving
/// side.
///
/// `RunMetrics::events` is unaffected: events are still latched and
/// collected at session end whether or not an observer is installed.
pub type SessionEventObserver = Arc<dyn Fn(&SessionEvent) + Send + Sync>;

/// The once-per-session degradation notice of a concurrent form whose
/// bounded resource can saturate (the race detectors' wide-word interners):
/// holds the installed [`SessionEventObserver`] and tells it, at most once,
/// when saturation first latches. The form keeps the saturation flag and
/// the event text; this keeps who has been told.
#[derive(Default)]
pub(crate) struct DegradationNotice {
    observer: Mutex<Option<SessionEventObserver>>,
    notified: AtomicBool,
}

impl DegradationNotice {
    /// Installs the incremental receiver (live daemon feeds).
    pub(crate) fn set_observer(&self, observer: SessionEventObserver) {
        *self.observer.lock().expect("poisoned") = Some(observer);
    }

    /// Pushes `event()` to the observer the first time it is called with
    /// `saturated` set; one atomic swap, and only once saturated.
    pub(crate) fn note(&self, saturated: bool, event: impl FnOnce() -> SessionEvent) {
        if saturated && !self.notified.swap(true, Ordering::AcqRel) {
            if let Some(observer) = self.observer.lock().expect("poisoned").as_ref() {
                observer(&event());
            }
        }
    }

    /// The end-of-run [`ConcurrentLifeguard::session_events`] sweep: the
    /// event iff the form saturated, observer or not.
    pub(crate) fn events(
        &self,
        saturated: bool,
        event: impl FnOnce() -> SessionEvent,
    ) -> Vec<SessionEvent> {
        if saturated {
            vec![event()]
        } else {
            Vec::new()
        }
    }
}

/// The analysis-wide state the real-thread backend replays: per-record
/// application from concurrently running worker threads.
///
/// Implementations synchronize internally — lock-free for §5.3
/// synchronization-free analyses, or with an internal lock otherwise. The
/// backend guarantees each record is applied by the worker owning its
/// stream, after every dependence arc of the record is satisfied; it also
/// polices the §5.4 syscall range table per worker and reports hits through
/// [`on_syscall_race`](Self::on_syscall_race) before applying the racing
/// access. For §5.5 TSO captures the backend additionally resolves each
/// record's version annotations against the shared concurrent version
/// table — snapshotting via [`snapshot_meta`](Self::snapshot_meta) at
/// produce points, and handing the consumed snapshot into
/// [`apply`](Self::apply) at consume points.
pub trait ConcurrentLifeguard: Send + Sync + fmt::Debug {
    /// Applies one record of thread `tid`'s stream. `versioned` carries the
    /// §5.5 snapshot this record consumes, when it consumes one: metadata
    /// reads of bytes the snapshot covers must read the snapshot (the
    /// producer's pre-store state), everything else the live shadow.
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>);

    /// ConflictAlert subscriptions — the backend consults `track_range` to
    /// maintain its per-worker §5.4 range tables. Defaults to no
    /// subscriptions (no range tracking).
    fn ca_policy(&self) -> CaPolicy {
        CaPolicy::new()
    }

    /// Reacts to thread `tid`'s access racing an in-flight system call
    /// (range-table hit, §5.4). Called before the racing record is applied,
    /// mirroring the deterministic delivery order. Default: no reaction.
    fn on_syscall_race(&self, tid: ThreadId, access: AddrRange, entry: &RangeEntry, rid: Rid) {
        let _ = (tid, access, entry, rid);
    }

    /// Snapshots current metadata for `range` (the §5.5 produce-version
    /// copy), comparable with
    /// [`Lifeguard::snapshot_meta`].
    ///
    /// The default returns all-clean bytes — correct for analyses that keep
    /// no byte-addressed shadow state. An analysis with a byte shadow must
    /// override this for TSO replay fidelity (all bundled forms do).
    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        vec![0; range.len as usize]
    }

    /// Order-insensitive fingerprint of the final metadata, comparable with
    /// [`Lifeguard::fingerprint`].
    fn fingerprint(&self) -> u64;

    /// Violations observed during the replay (order follows each worker's
    /// stream; interleaving across workers is scheduler-dependent).
    fn violations(&self) -> Vec<Violation>;

    /// The violations past the first `from` of
    /// [`violations`](Self::violations)' accumulation order — what a live
    /// feed that has already published `from` of them still owes its
    /// subscribers. Implementations must append and never reorder for the
    /// prefix to stay stable. The default clones the whole list and drops
    /// the head; forms backed by a [`ViolationLog`](crate::ViolationLog)
    /// (all bundled ones) read only the tail, and nothing at all when
    /// there is none.
    fn violations_since(&self, from: usize) -> Vec<Violation> {
        let mut all = self.violations();
        all.drain(..from.min(all.len()));
        all
    }

    /// Inert: no lane calls it and no bundled form overrides it. Kept only
    /// because the frozen `benchmark/src/layers.rs` names it.
    fn epoch_boundary(&self, tid: ThreadId) {
        let _ = tid;
    }

    /// Inert, like [`epoch_boundary`](Self::epoch_boundary).
    fn stream_done(&self, tid: ThreadId) {
        let _ = tid;
    }

    /// Non-fatal degradation diagnostics accumulated over the run (each
    /// kind at most once), collected into `RunMetrics::events` after
    /// replay. Default: none.
    fn session_events(&self) -> Vec<SessionEvent> {
        Vec::new()
    }

    /// Installs an incremental [`SessionEventObserver`], invoked once at
    /// the moment each session event first occurs (long-lived sessions
    /// surface degradation while still running instead of only in the
    /// end-of-run [`session_events`](Self::session_events) sweep). Called
    /// at most once per run, before any record is applied. The default
    /// drops the observer: analyses that never emit events need no hook.
    fn set_event_observer(&self, observer: SessionEventObserver) {
        let _ = observer;
    }
}

/// Name → factory resolution for monitoring sessions.
///
/// `builtin()` pre-registers the five bundled analyses; `register` adds
/// out-of-tree factories (later registrations of the same name win, so a
/// custom analysis may shadow a bundled one).
#[derive(Debug, Clone)]
pub struct LifeguardRegistry {
    entries: Vec<Arc<dyn LifeguardFactory>>,
}

impl LifeguardRegistry {
    /// A registry with only the five bundled analyses.
    pub fn builtin() -> Self {
        let mut reg = LifeguardRegistry::empty();
        for kind in LifeguardKind::ALL {
            reg.register(kind);
        }
        reg
    }

    /// A registry with no factories at all.
    pub fn empty() -> Self {
        LifeguardRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers a factory (taking precedence over earlier same-name ones).
    pub fn register(&mut self, factory: impl LifeguardFactory + 'static) {
        self.register_arc(Arc::new(factory));
    }

    /// Registers an already-shared factory.
    pub fn register_arc(&mut self, factory: Arc<dyn LifeguardFactory>) {
        self.entries.push(factory);
    }

    /// Resolves `name`, newest registration first.
    pub fn get(&self, name: &str) -> Option<Arc<dyn LifeguardFactory>> {
        self.entries
            .iter()
            .rev()
            .find(|f| f.name() == name)
            .cloned()
    }

    /// All registered names, oldest first (shadowed duplicates included).
    pub fn names(&self) -> Vec<String> {
        self.entries.iter().map(|f| f.name().to_string()).collect()
    }
}

impl Default for LifeguardRegistry {
    fn default() -> Self {
        LifeguardRegistry::builtin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAP: AddrRange = AddrRange {
        start: 0x1000_0000,
        len: 0x1000_0000,
    };

    #[test]
    fn all_kinds_construct_threads() {
        for kind in LifeguardKind::ALL {
            let fam = LifeguardFamily::new(kind, HEAP);
            let lg = fam.thread(ThreadId(0));
            assert_eq!(lg.spec().name, kind.to_string());
            assert_eq!(fam.name(), kind.name());
        }
    }

    #[test]
    fn threads_share_state() {
        use crate::lifeguard::HandlerCtx;
        use paralog_events::{MemRef, MetaOp, Reg, Rid};

        let fam = LifeguardFamily::new(LifeguardKind::TaintCheck, HEAP);
        let mut a = fam.thread(ThreadId(0));
        let b = fam.thread(ThreadId(1));
        let before = b.fingerprint();
        // Thread 0 writes tainted register state to memory.
        let mut ctx = HandlerCtx::new();
        a.handle(
            &MetaOp::RmwOp {
                mem: MemRef::new(0x100, 4),
                reg: Reg::new(0),
            },
            Rid(1),
            &mut ctx,
        );
        // RMW with clean reg leaves memory clean; make it dirty instead:
        a.handle(
            &MetaOp::MemToReg {
                dst: Reg::new(0),
                src: MemRef::new(0x100, 4),
            },
            Rid(2),
            &mut ctx,
        );
        assert_eq!(
            b.fingerprint(),
            before,
            "clean ops leave shared state untouched"
        );
        assert_eq!(a.fingerprint(), b.fingerprint(), "both views agree");
    }

    #[test]
    fn registry_resolves_builtins_and_custom_shadowing() {
        #[derive(Debug)]
        struct Custom;
        impl LifeguardFactory for Custom {
            fn name(&self) -> &str {
                "TaintCheck" // deliberately shadows the builtin
            }
            fn build(&self, heap: AddrRange) -> LifeguardFamily {
                LifeguardKind::MemCheck.build(heap)
            }
        }

        let mut reg = LifeguardRegistry::builtin();
        assert!(reg.get("AddrCheck").is_some());
        assert!(reg.get("NoSuchAnalysis").is_none());
        assert_eq!(reg.names().len(), 5);

        reg.register(Custom);
        let fam = reg.get("TaintCheck").unwrap().build(HEAP);
        assert_eq!(
            fam.thread(ThreadId(0)).spec().name,
            "MemCheck",
            "latest registration shadows the builtin"
        );
    }

    #[test]
    fn every_builtin_offers_a_concurrent_replay_form() {
        // Every bundled analysis ships a hand-written lock-free §5.3 form —
        // all replay on the real-thread backend.
        for kind in LifeguardKind::ALL {
            let conc = kind.concurrent(HEAP, 2).expect("replayable");
            assert!(conc.violations().is_empty());
            // The concurrent form advertises the same CA subscriptions the
            // sequential analysis declares (drives §5.4 range tracking).
            let seq_policy = kind
                .build(HEAP)
                .thread(ThreadId(0))
                .spec()
                .ca_policy
                .clone();
            for what in [
                paralog_events::HighLevelKind::Malloc,
                paralog_events::HighLevelKind::Free,
            ] {
                assert_eq!(
                    conc.ca_policy().subscribes(what),
                    seq_policy.subscribes(what),
                    "{kind}: CA subscription mismatch"
                );
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(LifeguardKind::TaintCheck.to_string(), "TaintCheck");
        assert_eq!(LifeguardKind::LockSet.to_string(), "LockSet");
        assert_eq!(LifeguardKind::HappensBefore.to_string(), "HappensBefore");
    }

    #[test]
    fn metadata_shapes_describe_the_substrate() {
        assert_eq!(
            LifeguardKind::TaintCheck.metadata_shape(),
            MetadataShape::ByteShadow
        );
        assert_eq!(
            LifeguardKind::LockSet.metadata_shape(),
            MetadataShape::WideWord
        );
        assert_eq!(
            LifeguardKind::HappensBefore.metadata_shape(),
            MetadataShape::WideWord
        );
        assert_eq!(MetadataShape::ByteShadow.to_string(), "byte-shadow");
        assert_eq!(MetadataShape::WideWord.to_string(), "wide-word");
        // Out-of-tree factories default to the byte shadow.
        #[derive(Debug)]
        struct Shapeless;
        impl LifeguardFactory for Shapeless {
            fn name(&self) -> &str {
                "Shapeless"
            }
            fn build(&self, heap: AddrRange) -> LifeguardFamily {
                LifeguardKind::MemCheck.build(heap)
            }
        }
        assert_eq!(Shapeless.metadata_shape(), MetadataShape::ByteShadow);
    }
}
