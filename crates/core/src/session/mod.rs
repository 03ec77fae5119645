//! The composable monitoring-session API.
//!
//! [`MonitorSession`] replaces the closed `Platform::run(workload, config)`
//! batch call with a builder over three pluggable seams:
//!
//! * **event sources** ([`EventSource`]) — the simulated workload, or replay
//!   of pre-captured streams: buffered ([`ReplaySource`]), or decoded
//!   incrementally from the codec wire form with bounded memory
//!   ([`StreamingReplaySource`], also the live path). Sources resolve to
//!   per-thread [`RecordStream`]s pulled batch-by-batch — see
//!   [`source`](module@crate::session::source) for the
//!   yielded/blocked/exhausted protocol;
//! * **backends** ([`Backend`]) — the deterministic discrete-event simulator
//!   or the real-thread executor on `paralogd`'s [`WorkerPool`](pool::WorkerPool);
//! * **lifeguards** — any [`LifeguardFactory`], resolved directly, by
//!   registry name, or via the [`LifeguardKind`] shorthand for the five
//!   bundled analyses.
//!
//! This is ParaLog's §3 porting claim made concrete: an out-of-tree analysis
//! implements [`Lifeguard`](paralog_lifeguards::Lifeguard) plus a factory
//! and runs unmodified on every source × backend combination.
//!
//! # Example
//!
//! ```rust
//! use paralog_core::session::MonitorSession;
//! use paralog_lifeguards::LifeguardKind;
//! use paralog_workloads::{Benchmark, WorkloadSpec};
//!
//! let workload = WorkloadSpec::benchmark(Benchmark::Lu, 2).scale(0.02).build();
//! let outcome = MonitorSession::builder()
//!     .source(workload)
//!     .lifeguard(LifeguardKind::TaintCheck)
//!     .build()
//!     .unwrap()
//!     .run()
//!     .unwrap();
//! assert!(outcome.metrics.records > 0);
//! ```

mod backend;
pub mod coop;
pub mod fault;
pub mod pool;
pub mod source;

pub use backend::{Backend, BackendMode, DeterministicBackend, ThreadedBackend};
pub use fault::FaultyReader;
pub use source::{
    BufferedStream, EventSource, RecordStream, ReplaySource, SourceInput, SourceStats,
    StreamStatus, StreamingReplaySource, DEFAULT_CHUNK_BYTES,
};

pub(crate) use backend::run_platform;

use crate::config::MonitorConfig;
use crate::platform::RunOutcome;
use paralog_events::AddrRange;
use paralog_lifeguards::{LifeguardFactory, LifeguardKind, LifeguardRegistry};
use std::fmt;
use std::sync::Arc;

/// Why a session could not be built or run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionError {
    /// The builder was finalized without an event source.
    MissingSource,
    /// A lifeguard name did not resolve in the session's registry.
    UnknownLifeguard(String),
    /// The source resolved to zero streams.
    EmptySource,
    /// The chosen backend cannot run this plan.
    Unsupported(&'static str),
    /// Stream ingestion wedged: every stream is exhausted, yet some
    /// dependence arc can never be satisfied (a truncated or malformed
    /// capture). A stream merely *blocked on its producer* is not a
    /// deadlock — backends keep waiting in that case.
    Deadlock(String),
    /// A streaming source produced bytes that can never decode to a record
    /// (corrupt wire data, a transport truncated mid-record, or a failing
    /// reader).
    MalformedStream(String),
    /// A replay lane panicked while stepping thread `tid` (in the analysis,
    /// or in the stream's pull); `message` is the panic's, on one line.
    LanePanicked {
        /// The thread whose lane panicked.
        tid: paralog_events::ThreadId,
        /// The panic message.
        message: String,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::MissingSource => f.write_str("session has no event source"),
            SessionError::UnknownLifeguard(name) => {
                write!(f, "no lifeguard named {name:?} is registered")
            }
            SessionError::EmptySource => f.write_str("event source resolved to zero streams"),
            SessionError::Unsupported(what) => write!(f, "unsupported: {what}"),
            SessionError::Deadlock(detail) => {
                write!(f, "stream ingestion deadlocked: {detail}")
            }
            SessionError::MalformedStream(detail) => {
                write!(f, "malformed event stream: {detail}")
            }
            SessionError::LanePanicked { tid, message } => {
                write!(f, "replay lane {tid} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SessionError {}

/// Publishes the §5.5 versions thread `t`'s record `rec` produces, each a
/// `snapshot` of the lifeguard's current metadata for the annotated range —
/// the one produce step of both stream-replay paths (the sequential loop and
/// the lanes). `#[inline]` because both call it once per record and nearly
/// every record produces nothing.
///
/// # Errors
///
/// A structurally invalid annotation (duplicate id, zero consumers, consumer
/// thread outside the session) is a malformed *stream*, not a platform bug:
/// it comes back as [`SessionError::MalformedStream`] rather than a panic, so
/// a corrupted transport cannot take the monitor down.
#[inline]
pub(crate) fn produce_versions(
    versions: &paralog_meta::VersionTable,
    t: usize,
    rec: &paralog_events::EventRecord,
    snapshot: impl Fn(AddrRange) -> Vec<u8>,
) -> Result<(), SessionError> {
    for (vid, mem, consumers) in rec.produce_versions() {
        let range = mem.range();
        versions
            .try_produce(*vid, range, snapshot(range), *consumers)
            .map_err(|err| {
                SessionError::MalformedStream(format!(
                    "thread {t} stream carries an invalid produce annotation: {err}"
                ))
            })?;
    }
    Ok(())
}

/// What a stuck head record waits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Blocker {
    /// Thread `.0`'s progress must reach rid `.1`: the unmet §5.2 arc or
    /// §5.4 issuer rule that [`replay_gate`](paralog_order::replay_gate)
    /// reported.
    Progress(paralog_events::ThreadId, paralog_events::Rid),
    /// A §5.5 version no peer has produced (lanes only: the sequential loop
    /// bypasses a missing version).
    Version(paralog_events::VersionId),
}

/// Thread `tid`'s head `rid` stuck on `blocker`, in the words of both
/// replay loops' [`deadlock`] and of a live lane session's
/// [`parked_lanes`](coop::CoopSession::parked_lanes).
pub(crate) fn waiting(
    tid: paralog_events::ThreadId,
    rid: paralog_events::Rid,
    blocker: Blocker,
) -> String {
    match blocker {
        Blocker::Progress(src, needed) => {
            format!("{tid} gated at {rid} waiting on {src} reaching {needed}")
        }
        Blocker::Version(vid) => {
            format!("{tid} gated at {rid} waiting on unproduced version {vid}")
        }
    }
}

/// Both replay loops' [`SessionError::Deadlock`]: no stream can advance,
/// and each `(thread, head rid, blocker)` of `stuck` says why.
pub(crate) fn deadlock(
    stuck: impl Iterator<Item = (paralog_events::ThreadId, paralog_events::Rid, Blocker)>,
) -> SessionError {
    let stuck: Vec<String> = stuck.map(|(t, rid, b)| waiting(t, rid, b)).collect();
    SessionError::Deadlock(format!("no stream can advance: {}", stuck.join("; ")))
}

/// A fully resolved session handed to a [`Backend`].
pub struct SessionPlan {
    /// Run configuration (mode, machine, accelerator and capture knobs).
    pub config: MonitorConfig,
    /// Builds the analysis for this run. Its
    /// [`builtin_kind`](LifeguardFactory::builtin_kind) says whether it is a
    /// bundled analysis, which enables the in-line sequential reference for
    /// equivalence checking.
    pub factory: Arc<dyn LifeguardFactory>,
    /// The monitored application's heap region.
    pub heap: AddrRange,
    /// Resolved source input.
    pub input: SourceInput,
}

impl fmt::Debug for SessionPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionPlan")
            .field("lifeguard", &self.factory.name())
            .field("mode", &self.config.mode)
            .field("heap", &self.heap)
            .finish_non_exhaustive()
    }
}

/// One composed monitoring run: source × backend × lifeguard × config.
pub struct MonitorSession {
    source: Box<dyn EventSource>,
    backend: Box<dyn Backend>,
    factory: Arc<dyn LifeguardFactory>,
    config: MonitorConfig,
}

impl fmt::Debug for MonitorSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorSession")
            .field("source", &self.source)
            .field("backend", &self.backend.name())
            .field("lifeguard", &self.factory.name())
            .field("mode", &self.config.mode)
            .finish_non_exhaustive()
    }
}

impl MonitorSession {
    /// Starts composing a session.
    pub fn builder() -> MonitorSessionBuilder {
        MonitorSessionBuilder::default()
    }

    /// Runs the session to completion on its backend.
    ///
    /// # Errors
    ///
    /// Propagates the backend's [`SessionError`] (unsupported plan shapes,
    /// malformed input streams).
    pub fn run(self) -> Result<RunOutcome, SessionError> {
        let heap = self.source.heap();
        let plan = SessionPlan {
            config: self.config,
            factory: self.factory,
            heap,
            input: self.source.open(),
        };
        self.backend.run(plan)
    }
}

/// How the builder was asked to pick the analysis.
#[derive(Debug, Default)]
enum LifeguardChoice {
    /// Fall back to `config.lifeguard` (the shim path).
    #[default]
    FromConfig,
    Named(String),
    Factory(Arc<dyn LifeguardFactory>),
}

/// Builder for [`MonitorSession`].
#[derive(Default)]
pub struct MonitorSessionBuilder {
    source: Option<Box<dyn EventSource>>,
    backend: Option<Box<dyn Backend>>,
    registry: Option<LifeguardRegistry>,
    choice: LifeguardChoice,
    config: Option<MonitorConfig>,
}

impl fmt::Debug for MonitorSessionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MonitorSessionBuilder")
            .field("source", &self.source)
            .field("choice", &self.choice)
            .finish_non_exhaustive()
    }
}

impl MonitorSessionBuilder {
    /// Sets the event source (required).
    #[must_use]
    pub fn source(mut self, source: impl EventSource + 'static) -> Self {
        self.source = Some(Box::new(source));
        self
    }

    /// Sets the backend (default: [`DeterministicBackend`]).
    #[must_use]
    pub fn backend(mut self, backend: impl Backend + 'static) -> Self {
        self.backend = Some(Box::new(backend));
        self
    }

    /// Selects a bundled analysis by shorthand.
    #[must_use]
    pub fn lifeguard(mut self, kind: LifeguardKind) -> Self {
        self.choice = LifeguardChoice::Factory(Arc::new(kind));
        self
    }

    /// Resolves the analysis by name in the session's registry at `build`
    /// time (builtins plus anything added via [`Self::registry`]).
    #[must_use]
    pub fn lifeguard_named(mut self, name: impl Into<String>) -> Self {
        self.choice = LifeguardChoice::Named(name.into());
        self
    }

    /// Uses an explicit factory (out-of-tree analyses can skip the registry
    /// entirely).
    #[must_use]
    pub fn lifeguard_factory(mut self, factory: impl LifeguardFactory + 'static) -> Self {
        self.choice = LifeguardChoice::Factory(Arc::new(factory));
        self
    }

    /// Supplies the registry used for name resolution (default:
    /// [`LifeguardRegistry::builtin`]).
    #[must_use]
    pub fn registry(mut self, registry: LifeguardRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the run configuration (default: parallel monitoring with the
    /// paper's knobs). `config.lifeguard` is only consulted when no explicit
    /// lifeguard was chosen.
    #[must_use]
    pub fn config(mut self, config: MonitorConfig) -> Self {
        self.config = Some(config);
        self
    }

    /// Finalizes the session.
    ///
    /// # Errors
    ///
    /// [`SessionError::MissingSource`] without a source,
    /// [`SessionError::UnknownLifeguard`] when a name does not resolve.
    pub fn build(self) -> Result<MonitorSession, SessionError> {
        let source = self.source.ok_or(SessionError::MissingSource)?;
        let config = self.config.unwrap_or_else(|| {
            MonitorConfig::new(
                crate::config::MonitoringMode::Parallel,
                LifeguardKind::TaintCheck,
            )
        });
        let factory: Arc<dyn LifeguardFactory> = match self.choice {
            LifeguardChoice::FromConfig => Arc::new(config.lifeguard),
            LifeguardChoice::Named(name) => {
                let registry = self.registry.unwrap_or_default();
                registry
                    .get(&name)
                    .ok_or(SessionError::UnknownLifeguard(name))?
            }
            LifeguardChoice::Factory(factory) => factory,
        };
        Ok(MonitorSession {
            source,
            backend: self.backend.unwrap_or(Box::new(DeterministicBackend)),
            factory,
            config,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paralog_workloads::{Benchmark, WorkloadSpec};

    #[test]
    fn builder_requires_a_source() {
        assert_eq!(
            MonitorSession::builder().build().err(),
            Some(SessionError::MissingSource)
        );
    }

    #[test]
    fn unknown_name_is_reported() {
        let w = WorkloadSpec::benchmark(Benchmark::Lu, 1)
            .scale(0.01)
            .build();
        let err = MonitorSession::builder()
            .source(w)
            .lifeguard_named("NoSuchAnalysis")
            .build()
            .err();
        assert_eq!(
            err,
            Some(SessionError::UnknownLifeguard("NoSuchAnalysis".into()))
        );
    }

    #[test]
    fn named_builtin_matches_kind_shorthand() {
        let w = WorkloadSpec::benchmark(Benchmark::Lu, 2)
            .scale(0.02)
            .build();
        let by_kind = MonitorSession::builder()
            .source(w.clone())
            .lifeguard(LifeguardKind::AddrCheck)
            .build()
            .unwrap()
            .run()
            .unwrap();
        let by_name = MonitorSession::builder()
            .source(w)
            .lifeguard_named("AddrCheck")
            .build()
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(by_kind.metrics.fingerprint, by_name.metrics.fingerprint);
        assert_eq!(by_kind.metrics.records, by_name.metrics.records);
    }

    #[test]
    fn errors_display() {
        assert!(SessionError::MissingSource.to_string().contains("source"));
        assert!(SessionError::UnknownLifeguard("X".into())
            .to_string()
            .contains('X'));
        assert!(SessionError::Unsupported("nope")
            .to_string()
            .contains("nope"));
        assert!(SessionError::Deadlock("t0".into())
            .to_string()
            .contains("t0"));
    }
}
