//! ADDRCHECK: memory-allocation checking (Nethercote), the paper's second
//! lifeguard.
//!
//! Maintains 1 metadata bit per application byte — "is this byte inside a
//! live heap allocation?" — and checks it on every heap load and store (§6).
//! Metadata changes *only* on `malloc`/`free`, so the only ordering
//! ADDRCHECK needs is allocation-library ConflictAlerts; application reads
//! and writes both map to metadata *reads* (§5.3 conditions hold trivially:
//! the analysis is synchronization-free).
//!
//! ADDRCHECK is the canonical Idempotent Filter client: repeated checks of an
//! address are redundant until the next malloc/free invalidates the filter.
//!
//! It keeps two thin lifeguard forms — the check view, heap scoping and the
//! absence of registers leave nothing for the crate-private `dataflow`
//! engine to share — but the check (`all_allocated`) and the malloc/free
//! update (`issue_ca`) are one function each that both forms call, over
//! one `AddrShared`. Because the analysis is synchronization-free, the
//! `Send + Sync` form has no mutex anywhere on the check path.

use crate::factory::{ConcurrentLifeguard, VersionedMeta};
use crate::lifeguard::{
    snapshot_byte, snapshot_coverage, EventView, HandlerCtx, Lifeguard, LifeguardSpec,
    SnapshotCoverage, Violation, ViolationKind, ViolationLog,
};
use paralog_events::{
    check_view, AddrRange, CaPhase, CaRecord, EventPayload, EventRecord, HighLevelKind, MetaOp,
    Rid, ThreadId,
};
use paralog_meta::AtomicShadow;
use paralog_order::CaPolicy;
use std::rc::Rc;

/// Metadata value for "allocated".
pub const ALLOCATED: u8 = 1;

/// Analysis-wide shared state: the allocation bitmap.
#[derive(Debug)]
pub(crate) struct AddrShared {
    /// The allocation shadow (1 bit per byte in the modelled machine).
    alloc: AtomicShadow,
    /// The heap region; accesses outside it (stack/globals) are not checked.
    heap: AddrRange,
}

impl AddrShared {
    /// Fresh state for a heap at `heap`.
    pub(crate) fn new(heap: AddrRange) -> Self {
        AddrShared {
            alloc: AtomicShadow::new(),
            heap,
        }
    }
}

/// Whether every byte of `range` is inside a live allocation, honoring a
/// consumed §5.5 snapshot (via the shared [`snapshot_coverage`] rule): bytes
/// the snapshot covers read the producer's pre-store allocation state,
/// everything else the live shadow.
fn all_allocated(
    alloc: &AtomicShadow,
    range: AddrRange,
    versioned: Option<&VersionedMeta>,
) -> bool {
    match snapshot_coverage(versioned, range) {
        SnapshotCoverage::Full(bytes) => bytes.iter().all(|&b| b == ALLOCATED),
        SnapshotCoverage::Partial(v) => (range.start..range.end())
            .all(|a| snapshot_byte(v, a).unwrap_or_else(|| alloc.join_range(a, 1)) == ALLOCATED),
        SnapshotCoverage::Live => alloc.eq_range(range.start, range.len, ALLOCATED),
    }
}

/// The issuer's side of a ConflictAlert: `malloc` marks its block allocated
/// as it returns, `free` unmarks it as it is entered. Returns the range
/// rewritten, if `ca` is either.
fn issue_ca(alloc: &AtomicShadow, ca: &CaRecord) -> Option<AddrRange> {
    let (range, value) = match (ca.what, ca.phase, ca.range) {
        (HighLevelKind::Malloc, CaPhase::End, Some(range)) => (range, ALLOCATED),
        (HighLevelKind::Free, CaPhase::Begin, Some(range)) => (range, 0),
        _ => return None,
    };
    alloc.fill_range(range.start, range.len, value);
    Some(range)
}

/// One lifeguard thread of the parallel ADDRCHECK.
#[derive(Debug)]
pub(crate) struct AddrCheck {
    shared: Rc<AddrShared>,
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl AddrCheck {
    /// Creates the lifeguard thread monitoring application thread `tid`.
    pub(crate) fn new(shared: Rc<AddrShared>, tid: ThreadId) -> Self {
        AddrCheck {
            shared,
            tid,
            spec: LifeguardSpec {
                name: "AddrCheck",
                view: EventView::Check,
                uses_it: false,
                uses_if: true,
                uses_mtlb: true,
                ca_policy: CaPolicy::addrcheck(),
                bits_per_byte: 1,
            },
        }
    }
}

impl Lifeguard for AddrCheck {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        // ADDRCHECK consumes the check view only.
        let MetaOp::CheckAccess { mem, .. } = *op else {
            return;
        };
        let range = mem.range();
        if !self.shared.heap.overlaps(&range) {
            return;
        }
        ctx.touch_read(self.spec.meta_footprint(range));
        if !all_allocated(&self.shared.alloc, range, ctx.versioned.as_ref()) {
            ctx.report(Violation {
                tid: self.tid,
                rid,
                kind: ViolationKind::UnallocatedAccess,
                addr: Some(mem.addr),
            });
        }
    }

    fn handle_ca(&mut self, ca: &CaRecord, own: bool, _rid: Rid, ctx: &mut HandlerCtx) {
        if !own {
            return;
        }
        if let Some(range) = issue_ca(&self.shared.alloc, ca) {
            ctx.touch_write(self.spec.meta_footprint(range));
        }
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shared.alloc.snapshot(range.start, range.len)
    }

    fn fingerprint(&self) -> u64 {
        self.shared.alloc.fingerprint()
    }
}

/// The `Send + Sync` replay form of ADDRCHECK driven by the real-thread
/// backend: the same allocation checks over the same lock-free bitmap. Valid
/// because ADDRCHECK is in the §5.3 synchronization-free class — application
/// reads *and* writes both map to metadata reads, and the only metadata
/// writes (malloc/free ConflictAlerts) are ordered against every access by
/// the captured CA arcs, which the backend's progress-table spin enforces.
pub(crate) struct AddrCheckConcurrent {
    shared: AddrShared,
    violations: ViolationLog,
}

impl std::fmt::Debug for AddrCheckConcurrent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The derived dump would print every materialized 64 KiB chunk; a
        // compact summary beats it.
        f.debug_struct("AddrCheckConcurrent")
            .field("heap", &self.shared.heap)
            .finish_non_exhaustive()
    }
}

impl AddrCheckConcurrent {
    /// A fresh concurrent ADDRCHECK scoped to `heap`. The atomic shadow
    /// grows lazily as allocations arrive, so streams may be ingested
    /// incrementally — no footprint pre-scan.
    pub(crate) fn new(heap: AddrRange) -> Self {
        AddrCheckConcurrent {
            shared: AddrShared::new(heap),
            violations: ViolationLog::new(),
        }
    }
}

impl ConcurrentLifeguard for AddrCheckConcurrent {
    fn apply(&self, tid: ThreadId, rec: &EventRecord, versioned: Option<&VersionedMeta>) {
        match &rec.payload {
            EventPayload::Instr(instr) => {
                let Some(MetaOp::CheckAccess { mem, .. }) = check_view(instr) else {
                    return;
                };
                let range = mem.range();
                if !self.shared.heap.overlaps(&range) {
                    return;
                }
                if !all_allocated(&self.shared.alloc, range, versioned) {
                    self.violations.push(Violation {
                        tid,
                        rid: rec.rid,
                        kind: ViolationKind::UnallocatedAccess,
                        addr: Some(mem.addr),
                    });
                }
            }
            // Only the issuer updates metadata (remote copies order).
            EventPayload::Ca(ca) if ca.issuer == tid => {
                issue_ca(&self.shared.alloc, ca);
            }
            EventPayload::Ca(_) => {}
        }
    }

    fn ca_policy(&self) -> CaPolicy {
        CaPolicy::addrcheck()
    }

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        self.shared.alloc.snapshot(range.start, range.len)
    }

    fn fingerprint(&self) -> u64 {
        self.shared.alloc.fingerprint()
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
    use paralog_events::{AccessKind, MemRef};

    const HEAP: AddrRange = AddrRange {
        start: 0x1000_0000,
        len: 0x1000_0000,
    };

    fn setup() -> (Rc<AddrShared>, AddrCheck) {
        let shared = Rc::new(AddrShared::new(HEAP));
        let lg = AddrCheck::new(Rc::clone(&shared), ThreadId(0));
        (shared, lg)
    }

    fn malloc_ca(range: AddrRange) -> CaRecord {
        CaRecord {
            what: HighLevelKind::Malloc,
            phase: CaPhase::End,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: Rid(1),
            seq: 0,
        }
    }

    fn free_ca(range: AddrRange) -> CaRecord {
        CaRecord {
            what: HighLevelKind::Free,
            phase: CaPhase::Begin,
            range: Some(range),
            issuer: ThreadId(0),
            issuer_rid: Rid(2),
            seq: 1,
        }
    }

    fn check(addr: u64) -> MetaOp {
        MetaOp::CheckAccess {
            mem: MemRef::new(addr, 4),
            kind: AccessKind::Read,
        }
    }

    #[test]
    fn access_before_malloc_violates() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(&check(HEAP.start + 0x10), Rid(1), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::UnallocatedAccess);
    }

    #[test]
    fn access_inside_allocation_passes() {
        let (_shared, mut lg) = setup();
        let range = AddrRange::new(HEAP.start + 0x10, 64);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        let mut ctx = HandlerCtx::new();
        lg.handle(&check(HEAP.start + 0x10), Rid(2), &mut ctx);
        assert!(ctx.violations.is_empty());
    }

    #[test]
    fn use_after_free_violates() {
        let (_shared, mut lg) = setup();
        let range = AddrRange::new(HEAP.start + 0x10, 64);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        lg.handle_ca(&free_ca(range), true, Rid(2), &mut HandlerCtx::new());
        let mut ctx = HandlerCtx::new();
        lg.handle(&check(HEAP.start + 0x10), Rid(3), &mut ctx);
        assert_eq!(ctx.violations[0].kind, ViolationKind::UnallocatedAccess);
    }

    #[test]
    fn partially_out_of_bounds_access_violates() {
        let (_shared, mut lg) = setup();
        let range = AddrRange::new(HEAP.start, 4);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        let mut ctx = HandlerCtx::new();
        // 4-byte access at +2 straddles the allocation end.
        lg.handle(&check(HEAP.start + 2), Rid(2), &mut ctx);
        assert_eq!(ctx.violations.len(), 1);
    }

    #[test]
    fn non_heap_accesses_ignored() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(&check(0x1000), Rid(1), &mut ctx); // stack/global space
        assert!(ctx.violations.is_empty());
        assert!(ctx.meta_touches.is_empty(), "no metadata touched off-heap");
    }

    #[test]
    fn remote_ca_does_not_update_metadata() {
        let (shared, mut lg) = setup();
        let range = AddrRange::new(HEAP.start, 64);
        lg.handle_ca(&malloc_ca(range), false, Rid(1), &mut HandlerCtx::new());
        assert_eq!(shared.alloc.join_range(HEAP.start, 64), 0);
    }

    #[test]
    fn dataflow_ops_are_ignored() {
        let (_shared, mut lg) = setup();
        let mut ctx = HandlerCtx::new();
        lg.handle(
            &MetaOp::ImmToReg {
                dst: paralog_events::Reg::new(0),
            },
            Rid(1),
            &mut ctx,
        );
        assert!(ctx.violations.is_empty() && ctx.meta_touches.is_empty());
    }

    #[test]
    fn concurrent_form_matches_sequential_checks() {
        use paralog_events::Instr;
        let conc = AddrCheckConcurrent::new(HEAP);
        let range = AddrRange::new(HEAP.start + 0x10, 64);
        // Unallocated access violates; after the issuer's malloc it passes;
        // after free it violates again — and the fingerprint tracks the
        // sequential family's at every step.
        let (_, seq) = setup();
        let load = |rid: u64, addr: u64| {
            EventRecord::instr(
                Rid(rid),
                Instr::Load {
                    dst: paralog_events::Reg::new(0),
                    src: MemRef::new(addr, 4),
                },
            )
        };
        conc.apply(ThreadId(0), &load(1, HEAP.start + 0x10), None);
        assert_eq!(conc.violations().len(), 1);
        assert_eq!(conc.fingerprint(), seq.fingerprint(), "both clean");
        conc.apply(
            ThreadId(0),
            &EventRecord::ca(Rid(2), malloc_ca(range)),
            None,
        );
        conc.apply(ThreadId(0), &load(3, HEAP.start + 0x10), None);
        assert_eq!(conc.violations().len(), 1, "allocated access passes");
        // Remote CA records must not update metadata.
        conc.apply(ThreadId(1), &EventRecord::ca(Rid(1), free_ca(range)), None);
        conc.apply(ThreadId(0), &load(4, HEAP.start + 0x10), None);
        assert_eq!(conc.violations().len(), 1, "remote free ignored");
        conc.apply(ThreadId(0), &EventRecord::ca(Rid(5), free_ca(range)), None);
        conc.apply(ThreadId(0), &load(6, HEAP.start + 0x10), None);
        assert_eq!(conc.violations().len(), 2, "use after free");
        assert_eq!(conc.fingerprint(), seq.fingerprint(), "clean again");
        // Off-heap accesses stay unchecked.
        conc.apply(ThreadId(0), &load(7, 0x1000), None);
        assert_eq!(conc.violations().len(), 2);
    }

    #[test]
    fn concurrent_checks_honor_versioned_snapshots() {
        use paralog_events::Instr;
        let conc = AddrCheckConcurrent::new(HEAP);
        let range = AddrRange::new(HEAP.start, 8);
        conc.apply(
            ThreadId(0),
            &EventRecord::ca(Rid(1), malloc_ca(range)),
            None,
        );
        let load = EventRecord::instr(
            Rid(2),
            Instr::Load {
                dst: paralog_events::Reg::new(0),
                src: MemRef::new(HEAP.start, 4),
            },
        );
        // Live shadow says allocated, but the §5.5 snapshot (pre-free
        // state of a racing remote free's inverse: here pre-malloc) says
        // not: the versioned bytes must win.
        let versioned = (range, vec![0u8; 8]);
        conc.apply(ThreadId(0), &load, Some(&versioned));
        assert_eq!(conc.violations().len(), 1, "snapshot overrides shadow");
        let versioned = (range, vec![ALLOCATED; 8]);
        conc.apply(ThreadId(0), &load, Some(&versioned));
        assert_eq!(conc.violations().len(), 1, "allocated snapshot passes");
    }

    #[test]
    fn fingerprint_tracks_allocation_map() {
        let (_shared, mut lg) = setup();
        let before = lg.fingerprint();
        let range = AddrRange::new(HEAP.start, 16);
        lg.handle_ca(&malloc_ca(range), true, Rid(1), &mut HandlerCtx::new());
        let allocated = lg.fingerprint();
        assert_ne!(allocated, before);
        lg.handle_ca(&free_ca(range), true, Rid(2), &mut HandlerCtx::new());
        assert_eq!(lg.fingerprint(), before);
    }
}
