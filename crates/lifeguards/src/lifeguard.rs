//! The [`Lifeguard`] trait: what the platform needs from an analysis.
//!
//! ParaLog's goal is that a lifeguard written for sequential monitoring ports
//! to parallel monitoring with minimal effort (§3). The trait reflects that:
//! a lifeguard sees only its own thread's delivered metadata ops and
//! ConflictAlert records; ordering, accelerator management and metadata
//! atomicity are the platform's business, driven by the declarative
//! [`LifeguardSpec`].

use paralog_events::{Addr, AddrRange, CaRecord, MetaOp, Rid, ThreadId};
use paralog_meta::AtomicShadow;
use paralog_order::{CaPolicy, RangeEntry};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Which decoding of the instruction stream a lifeguard consumes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventView {
    /// Dataflow-tracking view (taint/initializedness propagation); pairs
    /// with Inheritance Tracking.
    Dataflow,
    /// Access-check view (every load/store becomes a check); pairs with
    /// Idempotent Filters.
    Check,
}

/// Declarative description the platform uses to wire a lifeguard.
#[derive(Debug, Clone)]
pub struct LifeguardSpec {
    /// Human-readable name ("TaintCheck", ...).
    pub name: &'static str,
    /// Stream decoding.
    pub view: EventView,
    /// Whether Inheritance Tracking applies.
    pub uses_it: bool,
    /// Whether Idempotent Filters apply.
    pub uses_if: bool,
    /// Whether the Metadata TLB applies.
    pub uses_mtlb: bool,
    /// ConflictAlert subscriptions.
    pub ca_policy: CaPolicy,
    /// Metadata bits per application byte (shadow width).
    pub bits_per_byte: u32,
}

impl LifeguardSpec {
    /// The modelled machine's metadata bytes shadowing `range` at this
    /// lifeguard's width — what a handler reports to the cache model.
    pub(crate) fn meta_footprint(&self, range: AddrRange) -> AddrRange {
        paralog_meta::meta_footprint(self.bits_per_byte, range.start, range.len)
    }
}

/// A detected monitoring violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Violation {
    /// Monitored thread in whose stream the violation surfaced.
    pub tid: ThreadId,
    /// Record id of the triggering event.
    pub rid: Rid,
    /// What went wrong.
    pub kind: ViolationKind,
    /// Offending address, when meaningful.
    pub addr: Option<Addr>,
}

/// Classes of violations the bundled lifeguards report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Tainted data used as an indirect jump target (TAINTCHECK).
    TaintedJump,
    /// Tainted data reaching a checked system-call argument (TAINTCHECK).
    TaintedSyscallArg,
    /// Access to unallocated heap memory (ADDRCHECK).
    UnallocatedAccess,
    /// Use of an undefined (never-initialized) value (MEMCHECK).
    UndefinedUse,
    /// Inconsistent locking discipline (LOCKSET).
    DataRace,
    /// Application access racing an in-flight system call (§5.4).
    SyscallRace,
}

impl fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ViolationKind::TaintedJump => "tainted jump target",
            ViolationKind::TaintedSyscallArg => "tainted syscall argument",
            ViolationKind::UnallocatedAccess => "unallocated memory access",
            ViolationKind::UndefinedUse => "use of undefined value",
            ViolationKind::DataRace => "inconsistent locking (potential data race)",
            ViolationKind::SyscallRace => "access racing a system call",
        };
        f.write_str(s)
    }
}

/// The append-only violation log behind every concurrent lifeguard form.
///
/// Workers [`push`](Self::push) as they find violations; entries are never
/// reordered or removed, so any prefix is stable and a reader that
/// remembers how many entries it has seen gets exactly the new ones from
/// [`since`](Self::since) — without taking the lock at all when nothing is
/// new, which is what keeps a live feed's cost proportional to what it
/// publishes rather than to what the session has accumulated.
#[derive(Debug, Default)]
pub struct ViolationLog {
    entries: Mutex<Vec<Violation>>,
    /// `entries.len()`, stored (`Release`) under the lock after each push
    /// and read (`Acquire`) without it: a reader that sees `n` here finds
    /// at least `n` entries once it takes the lock.
    len: AtomicUsize,
}

impl ViolationLog {
    /// An empty log.
    pub fn new() -> Self {
        ViolationLog::default()
    }

    /// Appends one violation.
    pub fn push(&self, v: Violation) {
        let mut entries = self.entries.lock().expect("poisoned");
        entries.push(v);
        self.len.store(entries.len(), Ordering::Release);
    }

    /// Entries logged so far (lock-free).
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    /// Whether nothing has been logged (lock-free).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry, in accumulation order.
    pub fn snapshot(&self) -> Vec<Violation> {
        self.entries.lock().expect("poisoned").clone()
    }

    /// The entries past the first `from`, in accumulation order; empty
    /// (and lock-free) when there are none.
    pub fn since(&self, from: usize) -> Vec<Violation> {
        if self.len() <= from {
            return Vec::new();
        }
        self.entries.lock().expect("poisoned")[from..].to_vec()
    }
}

/// TSO versioned metadata injected into one record's application: the
/// range the producer's pre-store snapshot covers, and its bytes (§5.5).
pub type VersionedMeta = (AddrRange, Vec<u8>);

/// How a §5.5 snapshot covers one metadata read — *the* canonical overlap
/// classification every versioned-aware read path shares ([`HandlerCtx`]'s
/// methods as well as the lock-free concurrent lifeguards); reimplementing
/// the boundary math invites divergence between backends.
#[derive(Debug)]
pub enum SnapshotCoverage<'a> {
    /// Every byte of the read is inside the snapshot: read this slice (the
    /// read's bytes, already offset into the snapshot).
    Full(&'a [u8]),
    /// Genuine partial overlap: resolve byte-wise via [`snapshot_byte`],
    /// snapshot bytes winning over the live shadow.
    Partial(&'a VersionedMeta),
    /// No snapshot, or one disjoint from the read: take the live shadow's
    /// chunk-resident fast path.
    Live,
}

/// Classifies how `versioned` covers a read of `range`.
pub fn snapshot_coverage(
    versioned: Option<&VersionedMeta>,
    range: AddrRange,
) -> SnapshotCoverage<'_> {
    let Some(v @ (vr, bytes)) = versioned else {
        return SnapshotCoverage::Live;
    };
    if vr.start <= range.start && range.end() <= vr.end() {
        let off = (range.start - vr.start) as usize;
        return SnapshotCoverage::Full(&bytes[off..off + range.len as usize]);
    }
    if vr.start < range.end() && range.start < vr.end() {
        return SnapshotCoverage::Partial(v);
    }
    SnapshotCoverage::Live
}

/// Joins (bitwise-ORs) the metadata of `range` against the byte shadow,
/// honoring a §5.5 versioned snapshot through the [`snapshot_coverage`]
/// rule — full coverage reads the snapshot, an absent or disjoint snapshot
/// takes the chunk-resident shadow fast path, and genuine partial overlap
/// merges byte-wise with versioned bytes winning. Every byte-shadow
/// lifeguard reads through this in both forms (the sequential ones via
/// [`HandlerCtx::join_shadow`]); reimplementing the boundary math invites
/// divergence between the deterministic and threaded backends.
pub fn join_atomic_shadow(
    shadow: &AtomicShadow,
    range: AddrRange,
    versioned: Option<&VersionedMeta>,
) -> u8 {
    match snapshot_coverage(versioned, range) {
        SnapshotCoverage::Full(bytes) => bytes.iter().fold(0, |a, b| a | b),
        SnapshotCoverage::Partial(v) => (range.start..range.end()).fold(0, |acc, a| {
            acc | snapshot_byte(v, a).unwrap_or_else(|| shadow.join_range(a, 1))
        }),
        SnapshotCoverage::Live => shadow.join_range(range.start, range.len),
    }
}

/// The snapshot's value for one application byte, `None` when the byte is
/// outside the snapshot (read the live shadow instead).
pub fn snapshot_byte(versioned: &VersionedMeta, addr: u64) -> Option<u8> {
    let (vr, bytes) = versioned;
    if vr.contains(addr) {
        Some(bytes[(addr - vr.start) as usize])
    } else {
        None
    }
}

/// Per-delivery context: the handler reports its metadata footprint (for the
/// lifeguard-core cache model), violations, and slow-path entry; the
/// platform injects TSO versioned metadata.
#[derive(Debug, Default)]
pub struct HandlerCtx {
    /// Versioned metadata for this op's memory source (TSO consume, §5.5).
    pub versioned: Option<VersionedMeta>,
    /// Metadata-space ranges the handler touched: `(range, is_write)`.
    pub meta_touches: Vec<(AddrRange, bool)>,
    /// Violations reported by the handler.
    pub violations: Vec<Violation>,
    /// Whether the handler entered its locked slow path (§5.3).
    pub slow_path: bool,
}

impl HandlerCtx {
    /// Fresh context for one delivery.
    pub fn new() -> Self {
        HandlerCtx::default()
    }

    /// Empties the context for its next delivery, keeping its buffers'
    /// capacity: a caller delivering many ops reuses one context instead
    /// of allocating a fresh one per op.
    pub fn clear(&mut self) {
        self.versioned = None;
        self.meta_touches.clear();
        self.violations.clear();
        self.slow_path = false;
    }

    /// Records a metadata read footprint.
    pub fn touch_read(&mut self, range: AddrRange) {
        self.meta_touches.push((range, false));
    }

    /// Records a metadata write footprint.
    pub fn touch_write(&mut self, range: AddrRange) {
        self.meta_touches.push((range, true));
    }

    /// Reports a violation.
    pub fn report(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Injects a consumed §5.5 snapshot when (and only when) `op` reads the
    /// versioned location — *the* gate deciding whether a version applies
    /// to a delivered op; every delivery path (simulation, ingestion,
    /// locked concurrent replay) uses it rather than re-deriving the
    /// condition.
    pub fn inject_versioned(&mut self, op: &MetaOp, versioned: Option<&VersionedMeta>) {
        if let Some((range, bytes)) = versioned {
            if op
                .mem_src()
                .map(|m| range.overlaps(&m.range()))
                .unwrap_or(false)
            {
                self.versioned = Some((*range, bytes.clone()));
            }
        }
    }

    /// Joins (bitwise-ORs) the metadata of `range` against `shadow`,
    /// honoring any injected TSO versioned snapshot through
    /// [`join_atomic_shadow`] — *the* metadata-read rule (§5.5); lifeguards
    /// must not reimplement it.
    pub fn join_shadow(&self, shadow: &AtomicShadow, range: AddrRange) -> u8 {
        join_atomic_shadow(shadow, range, self.versioned.as_ref())
    }
}

/// One lifeguard thread's analysis logic.
///
/// The threads of one family share analysis-wide state (the global metadata
/// of Figure 2) through an `Rc` — of the lock-free
/// [`AtomicShadow`] for the three byte-shadow analyses, of a `RefCell`ed
/// model for the two race detectors; the platform guarantees handlers run
/// atomically and in dependence order, which is what makes the shared access
/// sound (§5.3).
pub trait Lifeguard: fmt::Debug {
    /// The declarative wiring description.
    fn spec(&self) -> &LifeguardSpec;

    /// Handles one delivered metadata operation.
    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx);

    /// Handles a ConflictAlert record; `own` is true iff this lifeguard's
    /// application thread issued the high-level event (only the issuer
    /// updates metadata).
    fn handle_ca(&mut self, ca: &CaRecord, own: bool, rid: Rid, ctx: &mut HandlerCtx);

    /// Snapshots current metadata for `range` (TSO produce-version, §5.5).
    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8>;

    /// Reacts to an access racing an in-flight system call (range-table hit,
    /// §5.4). Default: no reaction.
    fn on_syscall_race(
        &mut self,
        _access: AddrRange,
        _entry: &RangeEntry,
        _rid: Rid,
        _ctx: &mut HandlerCtx,
    ) {
    }

    /// Order-insensitive fingerprint of the analysis-wide metadata state,
    /// used by equivalence tests (parallel run vs. sequential reference).
    fn fingerprint(&self) -> u64;
}

// The fingerprint lives with the metadata substrate (the real-thread
// executor's AtomicShadow fingerprints itself without this crate); this
// re-export keeps the historical `paralog_lifeguards::Fingerprint` path.
pub use paralog_meta::Fingerprint;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctx_touches_and_reports() {
        let mut ctx = HandlerCtx::new();
        ctx.touch_read(AddrRange::new(0x100, 4));
        ctx.touch_write(AddrRange::new(0x200, 1));
        ctx.report(Violation {
            tid: ThreadId(0),
            rid: Rid(3),
            kind: ViolationKind::TaintedJump,
            addr: None,
        });
        assert_eq!(ctx.meta_touches.len(), 2);
        assert!(ctx.meta_touches[1].1, "second touch is a write");
        assert_eq!(ctx.violations.len(), 1);
    }

    #[test]
    fn violation_log_tail_reads_see_exactly_the_new_entries() {
        let log = ViolationLog::new();
        assert!(log.is_empty() && log.since(0).is_empty());
        let v = |rid| Violation {
            tid: ThreadId(1),
            rid: Rid(rid),
            kind: ViolationKind::DataRace,
            addr: None,
        };
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let log = &log;
                scope.spawn(move || (0..64).for_each(|i| log.push(v(t * 64 + i))));
            }
        });
        assert_eq!(log.len(), 256, "no push lost to a race");
        let seen = log.snapshot();
        log.push(v(1000));
        assert_eq!(log.since(seen.len()), vec![v(1000)]);
        assert_eq!(log.snapshot()[..256], seen[..], "the prefix is stable");
        assert!(log.since(257).is_empty() && log.since(usize::MAX).is_empty());
    }

    #[test]
    fn violation_kind_display() {
        assert!(ViolationKind::TaintedJump.to_string().contains("jump"));
        assert!(ViolationKind::SyscallRace
            .to_string()
            .contains("system call"));
    }
}
