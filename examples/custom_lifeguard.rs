//! Quickstart: write an out-of-tree lifeguard and run it through the
//! composable `MonitorSession` API — no edits to platform code.
//!
//! ParaLog's §3 claim is that a lifeguard written for sequential monitoring
//! ports to parallel monitoring with minimal effort. Concretely, a new
//! analysis needs exactly two impls:
//!
//! 1. [`Lifeguard`] — the per-thread handler logic over shared state;
//! 2. [`LifeguardFactory`] — how to build the analysis-wide state for a run.
//!
//! Everything else (ordering, dependence arcs, ConflictAlert delivery,
//! accelerators, backends) is the platform's business. The same factory then
//! runs on any event source: the simulated workload below, a replay of
//! captured logs, or a programmatic push feed.
//!
//! ```text
//! cargo run --release --example custom_lifeguard
//! ```

use paralog::core::{MonitorSession, ReplaySource};
use paralog::events::{AccessKind, AddrRange, CaRecord, MetaOp, Rid, ThreadId};
use paralog::lifeguards::{
    EventView, Fingerprint, HandlerCtx, Lifeguard, LifeguardFactory, LifeguardFamily,
    LifeguardKind, LifeguardRegistry, LifeguardSpec, Violation, ViolationKind,
};
use paralog::order::CaPolicy;
use paralog::workloads::{Benchmark, WorkloadSpec};
use std::cell::RefCell;
use std::rc::Rc;

/// Analysis-wide shared state (Figure 2's "global metadata"): a histogram of
/// access sizes and a tripwire range.
#[derive(Debug, Default)]
struct ProfileShared {
    /// accesses[size_log2] across all threads.
    accesses: [u64; 4],
    tripwire: Option<AddrRange>,
}

/// The analysis: profiles memory-access sizes and trips on a watched range —
/// about as small as a lifeguard gets.
#[derive(Debug)]
struct AccessProfiler {
    shared: Rc<RefCell<ProfileShared>>,
    tid: ThreadId,
    spec: LifeguardSpec,
}

impl AccessProfiler {
    fn new(shared: Rc<RefCell<ProfileShared>>, tid: ThreadId) -> Self {
        AccessProfiler {
            shared,
            tid,
            spec: LifeguardSpec {
                name: "AccessProfiler",
                // Check view: every load/store arrives as one CheckAccess op.
                view: EventView::Check,
                uses_it: false,
                uses_if: false, // filtering would hide repeated accesses
                uses_mtlb: false,
                ca_policy: CaPolicy::new(), // no high-level subscriptions
                bits_per_byte: 0,           // no byte-granular shadow
            },
        }
    }
}

impl Lifeguard for AccessProfiler {
    fn spec(&self) -> &LifeguardSpec {
        &self.spec
    }

    fn handle(&mut self, op: &MetaOp, rid: Rid, ctx: &mut HandlerCtx) {
        let MetaOp::CheckAccess { mem, kind } = op else {
            return;
        };
        let mut shared = self.shared.borrow_mut();
        shared.accesses[usize::from(mem.size.trailing_zeros().min(3) as u8)] += 1;
        if let Some(wire) = shared.tripwire {
            if *kind != AccessKind::Read && wire.overlaps(&mem.range()) {
                ctx.report(Violation {
                    tid: self.tid,
                    rid,
                    kind: ViolationKind::UnallocatedAccess,
                    addr: Some(mem.addr),
                });
            }
        }
    }

    fn handle_ca(&mut self, _ca: &CaRecord, _own: bool, _rid: Rid, _ctx: &mut HandlerCtx) {}

    fn snapshot_meta(&self, range: AddrRange) -> Vec<u8> {
        vec![0; range.len as usize] // no byte shadow to version
    }

    fn fingerprint(&self) -> u64 {
        let shared = self.shared.borrow();
        let mut fp = Fingerprint::new();
        for (i, n) in shared.accesses.iter().enumerate() {
            fp.mix(i as u64, *n);
        }
        fp.finish()
    }
}

/// The factory is what registers: it builds one shared state per run and
/// hands the platform a per-thread constructor.
#[derive(Debug)]
struct AccessProfilerFactory;

impl LifeguardFactory for AccessProfilerFactory {
    fn name(&self) -> &str {
        "AccessProfiler"
    }

    fn build(&self, heap: AddrRange) -> LifeguardFamily {
        let shared = Rc::new(RefCell::new(ProfileShared {
            // Watch the first heap cache line as a demo tripwire.
            tripwire: Some(AddrRange::new(heap.start, 64)),
            ..ProfileShared::default()
        }));
        LifeguardFamily::from_constructor("AccessProfiler", move |tid| {
            Box::new(AccessProfiler::new(Rc::clone(&shared), tid))
        })
    }
}

fn main() {
    let w = WorkloadSpec::benchmark(Benchmark::Swaptions, 4)
        .scale(0.1)
        .build();

    // 1. The custom analysis co-simulated with the workload.
    let outcome = MonitorSession::builder()
        .source(w.clone())
        .lifeguard_factory(AccessProfilerFactory)
        .build()
        .expect("session is complete")
        .run()
        .expect("deterministic run");
    println!(
        "AccessProfiler over {}: {} records, {} deliveries, {} tripwire hits",
        w.name,
        outcome.metrics.records,
        outcome.metrics.delivered_ops,
        outcome.metrics.violations.len()
    );

    // 2. The same analysis by registry name, ingesting a pre-captured log —
    //    the host-side deployment shape (capture once, analyze elsewhere).
    let mut cfg = paralog::core::MonitorConfig::new(
        paralog::core::MonitoringMode::Parallel,
        LifeguardKind::TaintCheck, // the capture's analysis is independent
    );
    cfg.collect_streams = true;
    let streams = paralog::core::Platform::run(&w, &cfg)
        .metrics
        .streams
        .expect("collection enabled");
    let mut registry = LifeguardRegistry::builtin();
    registry.register(AccessProfilerFactory);
    let replayed = MonitorSession::builder()
        .source(ReplaySource::new(streams, w.heap))
        .registry(registry)
        .lifeguard_named("AccessProfiler")
        .build()
        .expect("name resolves")
        .run()
        .expect("streams are well-formed");
    assert_eq!(
        replayed.metrics.fingerprint, outcome.metrics.fingerprint,
        "live capture and log ingestion agree on the profile"
    );
    println!(
        "replayed the captured log through the registry: fingerprints agree ({:#018x})",
        replayed.metrics.fingerprint
    );
}
