//! Generic locked concurrent form: run *any* lifeguard on the real-thread
//! backend.
//!
//! §5.3 divides lifeguards into a synchronization-free class (TaintCheck,
//! AddrCheck — concurrent forms lock-free outright) and everything else,
//! which the paper handles with a fast-path/slow-path split (MemCheck,
//! LockSet ship hand-written forms of that shape). [`LockedConcurrent`] is
//! the conservative end of the spectrum: the ordinary sequential
//! [`Lifeguard`] threads run behind one mutex, every record applied
//! atomically. Arc enforcement still happens outside (the backend's
//! progress-table spin), so the delivered order matches the deterministic
//! ingestion order for all conflicting operations — the adapter serializes
//! only the handler bodies.
//!
//! # When is the locked form still the right choice?
//!
//! All four *bundled* analyses have graduated to hand-written lock-free
//! forms (`concurrent_micro` measured the mutex costing them 1.4–3× on
//! check-heavy replay), so nothing in-tree pays this adapter anymore. It
//! remains the right first step for an **out-of-tree** analysis:
//!
//! * correctness is unconditional — a global lock trivially satisfies every
//!   §5.3 atomicity class, so a freshly ported sequential analysis replays
//!   on `ThreadedBackend` with one line of factory code (see below) and no
//!   concurrency reasoning;
//! * the cost is lost lifeguard-side parallelism only; for analyses that
//!   are rarely on the critical path (sampling, statistics, logging) that
//!   trade is often permanent;
//! * it is the reference a graduated lock-free form is tested against —
//!   the cross-backend parity suites replay both and compare fingerprints.
//!
//! Opting in is deliberate, not a trait default: the adapter's soundness
//! rests on a containment argument (the type-level contract below) that
//! only the factory author can assert, which is why
//! [`LockedConcurrent::new`] is `unsafe` and
//! [`LifeguardFactory::concurrent`] defaults to `None` instead of wrapping
//! blindly.
//!
//! ```rust
//! use paralog_events::AddrRange;
//! use paralog_lifeguards::{
//!     ConcurrentLifeguard, LifeguardFactory, LifeguardFamily, LifeguardKind, LockedConcurrent,
//! };
//!
//! /// An out-of-tree analysis: sequential logic first, parallel replay via
//! /// the locked adapter until a lock-free form is worth writing.
//! #[derive(Debug)]
//! struct MyAnalysis;
//!
//! impl LifeguardFactory for MyAnalysis {
//!     fn name(&self) -> &str {
//!         "MyAnalysis"
//!     }
//!     fn build(&self, heap: AddrRange) -> LifeguardFamily {
//!         // A real analysis constructs its own shared state here (see
//!         // examples/custom_lifeguard.rs); reusing a bundled family keeps
//!         // this example self-contained.
//!         LifeguardKind::MemCheck.build(heap)
//!     }
//!     fn concurrent(&self, heap: AddrRange, threads: usize) -> Option<Box<dyn ConcurrentLifeguard>> {
//!         // SAFETY: this factory's families are self-contained — every Rc
//!         // they touch is created inside `build` and never escapes.
//!         Some(Box::new(unsafe { LockedConcurrent::new(self.build(heap), threads) }))
//!     }
//! }
//!
//! let heap = AddrRange::new(0x1000_0000, 0x1000_0000);
//! let conc = MyAnalysis.concurrent(heap, 2).expect("opted in");
//! assert_eq!(conc.violations().len(), 0);
//! ```
//!
//! [`LifeguardFactory`]: crate::factory::LifeguardFactory
//! [`LifeguardFactory::concurrent`]: crate::factory::LifeguardFactory::concurrent

use crate::factory::{ConcurrentLifeguard, LifeguardFamily, VersionedMeta};
use crate::lifeguard::{EventView, HandlerCtx, Lifeguard, Violation, ViolationLog};
use paralog_events::{
    check_view, dataflow_view, AddrRange, EventPayload, EventRecord, Rid, ThreadId,
};
use paralog_order::{CaPolicy, RangeEntry};
use std::fmt;
use std::sync::Mutex;

/// Any lifeguard family as a [`ConcurrentLifeguard`], serialized behind one
/// mutex.
///
/// # Thread-safety contract
///
/// Sequential lifeguards share analysis-wide metadata through
/// `Rc<RefCell<_>>`, which is not `Send`. The adapter is sound only when
/// the wrapped family is **self-contained**: every `Rc` its constructor
/// and lifeguards touch must have been created inside the family and must
/// never be cloned out of it. Then the whole object graph is *confined* —
/// built in [`LockedConcurrent::new`], only ever touched while the mutex
/// is held, dropped with the adapter — so no two threads ever access an
/// `Rc` count (or a `RefCell`) concurrently, and all handles always
/// migrate between threads together. A family that shares `Rc`s with
/// state outside itself would race those counts from safe code, which is
/// why [`new`](Self::new) is `unsafe`: the caller asserts containment.
/// All bundled analyses qualify (their factories wrap themselves
/// automatically); an out-of-tree factory opts in by overriding
/// [`LifeguardFactory::concurrent`] with the same one-liner.
///
/// [`LifeguardFactory::concurrent`]: crate::factory::LifeguardFactory::concurrent
pub struct LockedConcurrent {
    name: String,
    ca_policy: CaPolicy,
    /// The mutex-confined analysis state: the family's per-thread
    /// lifeguards (sharing their `Rc` metadata).
    lgs: Mutex<Vec<Box<dyn Lifeguard>>>,
    /// Plain `Send + Sync` data, so it lives outside the confinement lock
    /// and a live feed's tail reads never queue behind record application.
    violations: ViolationLog,
}

// SAFETY: per the constructor's contract the non-`Send` state in `lgs` is
// self-contained and is created, accessed and dropped only under that
// mutex (or via `&mut self`/ownership), never aliased across threads; every
// other field is `Send + Sync` data.
unsafe impl Send for LockedConcurrent {}
// SAFETY: same confinement argument; `&LockedConcurrent` only exposes the
// inner state through the mutex.
unsafe impl Sync for LockedConcurrent {}

impl fmt::Debug for LockedConcurrent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LockedConcurrent")
            .field("lifeguard", &self.name)
            .finish_non_exhaustive()
    }
}

impl LockedConcurrent {
    /// Wraps `family`, building one sequential lifeguard per monitored
    /// thread.
    ///
    /// # Safety
    ///
    /// The caller asserts the family is self-contained per the type-level
    /// thread-safety contract: no `Rc` reachable from the family (its
    /// constructor closure, its shared metadata, its lifeguards) is held
    /// anywhere outside the values passed in here. The bundled analyses
    /// satisfy this by construction.
    pub unsafe fn new(family: LifeguardFamily, threads: usize) -> Self {
        let lgs: Vec<Box<dyn Lifeguard>> = (0..threads)
            .map(|t| family.thread(ThreadId(t as u16)))
            .collect();
        let ca_policy = lgs
            .first()
            .map(|lg| lg.spec().ca_policy.clone())
            .unwrap_or_default();
        LockedConcurrent {
            name: family.name().to_string(),
            ca_policy,
            lgs: Mutex::new(lgs),
            violations: ViolationLog::new(),
        }
    }
}

impl ConcurrentLifeguard for LockedConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        let mut lgs = self.lgs.lock().expect("poisoned");
        let lg = &mut lgs[tid.index()];
        let mut ctx = HandlerCtx::new();
        match &rec.payload {
            EventPayload::Instr(instr) => {
                let op = match lg.spec().view {
                    EventView::Dataflow => dataflow_view(instr),
                    EventView::Check => check_view(instr),
                };
                if let Some(op) = op {
                    // §5.5: the shared gate injects the consumed snapshot
                    // when this op reads the versioned location;
                    // `HandlerCtx::join_shadow` then applies it.
                    ctx.inject_versioned(&op, versioned);
                    lg.handle(&op, rec.rid, &mut ctx);
                }
            }
            EventPayload::Ca(ca) => {
                let own = ca.issuer == tid;
                lg.handle_ca(ca, own, rec.rid, &mut ctx);
            }
        }
        ctx.violations
            .into_iter()
            .for_each(|v| self.violations.push(v));
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        // Any thread's view works: the family shares its metadata.
        self.lgs.lock().expect("poisoned")[0].snapshot_meta(range)
    }

    fn on_syscall_race(&self, tid: ThreadId, access: AddrRange, entry: &RangeEntry, rid: Rid) {
        let mut lgs = self.lgs.lock().expect("poisoned");
        let mut ctx = HandlerCtx::new();
        lgs[tid.index()].on_syscall_race(access, entry, rid, &mut ctx);
        ctx.violations
            .into_iter()
            .for_each(|v| self.violations.push(v));
    }

    fn ca_policy(&self) -> CaPolicy {
        self.ca_policy.clone()
    }

    fn fingerprint(&self) -> u64 {
        self.lgs.lock().expect("poisoned")[0].fingerprint()
    }

    fn violations(&self) -> Vec<Violation> {
        self.violations.snapshot()
    }

    fn violations_since(&self, from: usize) -> Vec<Violation> {
        self.violations.since(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{LifeguardFactory, LifeguardKind};
    use paralog_events::{Instr, MemRef, Reg};

    const HEAP: AddrRange = AddrRange {
        start: 0x1000_0000,
        len: 0x1000_0000,
    };

    #[test]
    fn applies_records_under_the_lock_from_many_threads() {
        // SAFETY: the bundled AddrCheck family is self-contained.
        let conc = unsafe { LockedConcurrent::new(LifeguardKind::AddrCheck.build(HEAP), 4) };
        assert!(conc
            .ca_policy()
            .subscribes(paralog_events::HighLevelKind::Malloc));
        // Unallocated heap accesses from four real threads: every one must
        // be reported, none lost to races.
        std::thread::scope(|scope| {
            for t in 0..4u16 {
                let conc = &conc;
                scope.spawn(move || {
                    for i in 0..32u64 {
                        let rec = EventRecord::instr(
                            Rid(i + 1),
                            Instr::Load {
                                dst: Reg::new(0),
                                src: MemRef::new(HEAP.start + u64::from(t) * 64 + i, 1),
                            },
                        );
                        conc.apply(ThreadId(t), &rec, None);
                    }
                });
            }
        });
        assert_eq!(conc.violations().len(), 4 * 32);
    }

    #[test]
    fn fingerprint_matches_sequential_family() {
        let family = LifeguardKind::TaintCheck.build(HEAP);
        let seq = family.fingerprint();
        // SAFETY: the bundled TaintCheck family is self-contained.
        let conc = unsafe { LockedConcurrent::new(family, 2) };
        assert_eq!(conc.fingerprint(), seq, "fresh state agrees");
    }
}
