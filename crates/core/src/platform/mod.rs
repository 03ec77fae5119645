//! The ParaLog platform: Figure 2 assembled and simulated.
//!
//! [`Platform::run`] simulates a complete monitored execution: application
//! cores retire the workload's instruction streams through the cache/
//! coherence model, event capture turns them into per-thread logs with
//! dependence arcs, and lifeguard cores consume the logs through order
//! enforcement and the accelerators. Everything advances under one
//! deterministic discrete-event scheduler (smallest local clock first), so a
//! run is exactly reproducible.
//!
//! Three modes (Figure 6): `None` (application alone), `Timesliced` (all
//! application threads serialized on one core, one sequential lifeguard) and
//! `Parallel` (ParaLog proper: one lifeguard thread per application thread).

mod app;
pub(crate) mod lg;

use crate::config::{MonitorConfig, MonitoringMode};
use crate::metrics::{AppBuckets, LgBuckets, RunMetrics};
use crate::reference::Reference;
use paralog_accel::{IdempotentFilter, InheritanceTracker, MetadataTlb};
use paralog_events::{EventRecord, LogRing, MetaOp, Rid, ThreadId};
use paralog_lifeguards::{HandlerCtx, Lifeguard, LifeguardFamily, Violation};
use paralog_order::{
    CaBarrier, CaBroadcaster, CaPolicy, OrderCapture, OrderEnforcer, ProgressTable, RangeTable,
};
use paralog_sim::{BarrierTable, LockTable, MachineConfig, MemorySystem, Scheduler, StoreBuffer};
use paralog_workloads::Workload;
use std::collections::VecDeque;

/// Outcome of one monitored (or unmonitored) run.
#[derive(Debug)]
pub struct RunOutcome {
    /// All measurements.
    pub metrics: RunMetrics,
}

impl RunOutcome {
    /// Violations reported during the run.
    pub fn violations(&self) -> &[Violation] {
        &self.metrics.violations
    }
}

/// The classic batch entry point, kept as a thin shim over the composable
/// [`MonitorSession`](crate::session::MonitorSession) API.
#[derive(Debug)]
pub struct Platform;

impl Platform {
    /// Runs `workload` under `config` to completion and returns the
    /// measurements.
    ///
    /// Equivalent to a [`MonitorSession`](crate::session::MonitorSession)
    /// over a workload source, the deterministic backend, and the bundled
    /// lifeguard named by `config.lifeguard`.
    ///
    /// # Panics
    ///
    /// Panics if the workload has no threads, or if an internal invariant of
    /// the simulated protocol is violated (which is a bug, not an input
    /// error).
    pub fn run(workload: &Workload, config: &MonitorConfig) -> RunOutcome {
        // The borrowing fast path of the session API's deterministic
        // backend: identical to `builder().source(workload.clone())…` but
        // without copying the instruction streams on every sweep iteration.
        crate::session::run_platform(workload, config)
    }
}

/// Why an application thread cannot currently make progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Block {
    /// Log buffer (or staging) is full.
    LogFull,
    /// Spinning on a held lock.
    Lock(paralog_events::LockId, u64),
    /// Waiting at a barrier for the given generation.
    Barrier(paralog_events::BarrierId, u64),
    /// Damage containment: waiting for the lifeguard to drain this thread's
    /// records; the payload is the phase of the two-phase syscall protocol.
    Syscall,
    /// Store buffer full (TSO).
    StoreBufferFull,
}

/// Per-application-thread simulation state.
#[derive(Debug)]
struct AppThread {
    core: usize,
    pc: usize,
    rid: Rid,
    sb: Option<StoreBuffer>,
    /// Records retired but not yet released to the ring (held behind
    /// undrained stores under TSO; pass-through under SC).
    staging: VecDeque<EventRecord>,
    blocked: Option<Block>,
    buckets: AppBuckets,
    finished: bool,
    /// Pending syscall continuation (kind/buffer of the in-flight call).
    syscall_cont: Option<(
        paralog_events::SyscallKind,
        Option<paralog_events::AddrRange>,
    )>,
}

/// Per-lifeguard-thread simulation state. In timesliced mode there is one
/// engine holding one lifeguard *instance per application thread* but a
/// single set of accelerators (they are per-core hardware).
struct LgThread {
    core: usize,
    /// Lifeguard instances indexed by application thread.
    lgs: Vec<Box<dyn Lifeguard>>,
    it: InheritanceTracker,
    ifilter: IdempotentFilter,
    mtlb: MetadataTlb,
    enforcer: OrderEnforcer,
    range_table: RangeTable,
    buckets: LgBuckets,
    finished: bool,
    delivered_ops: u64,
    /// Batches the cost of records the event mux skips (absorbed /
    /// filtered / unsubscribed): hardware retires several per cycle.
    skip_credit: u32,
    /// Timesliced: the application thread of the last processed record
    /// (context-switch detection for IT flushes).
    last_tag: Option<usize>,
    /// The one metadata-op buffer every record and flush of this engine
    /// fills and delivers; empty between uses, capacity kept.
    ops: Vec<MetaOp>,
    /// The one handler context every delivery of this engine uses; cleared
    /// between uses, capacity kept.
    ctx: HandlerCtx,
}

impl LgThread {
    /// The lifeguard instance responsible for application thread `tag`: in
    /// parallel mode each engine has exactly one instance (its paired
    /// thread); the timesliced engine holds one per application thread.
    fn lg(&mut self, tag: usize) -> &mut Box<dyn Lifeguard> {
        let idx = if self.lgs.len() == 1 { 0 } else { tag };
        &mut self.lgs[idx]
    }

    /// Read-only variant of [`LgThread::lg`].
    fn lg_ref(&self, tag: usize) -> &dyn Lifeguard {
        let idx = if self.lgs.len() == 1 { 0 } else { tag };
        self.lgs[idx].as_ref()
    }
}

impl std::fmt::Debug for LgThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LgThread")
            .field("core", &self.core)
            .field("finished", &self.finished)
            .field("delivered_ops", &self.delivered_ops)
            .finish_non_exhaustive()
    }
}

/// The assembled simulation.
pub(crate) struct Sim<'w> {
    config: MonitorConfig,
    machine: MachineConfig,
    workload: &'w Workload,
    k: usize,

    mem: MemorySystem,
    sched: Scheduler,
    locks: LockTable,
    barriers: BarrierTable,

    /// Per-app-thread rings (parallel); single ring in timesliced mode.
    rings: Vec<LogRing>,
    /// Timesliced: thread tag per buffered record, aligned with `rings[0]`.
    ring_tags: VecDeque<usize>,

    app: Vec<AppThread>,
    capture: OrderCapture,
    broadcaster: CaBroadcaster,
    ca_policy: CaPolicy,

    lgs: Vec<LgThread>,
    family: LifeguardFamily,
    progress: ProgressTable,
    ca_barrier: CaBarrier,
    versions: paralog_meta::VersionTable,

    reference: Option<Reference>,
    metrics: RunMetrics,

    /// Timesliced-mode scheduler state: current thread and remaining quantum.
    ts_current: usize,
    ts_quantum_left: u32,
    /// Timesliced-mode per-thread count of records still in the shared ring
    /// (damage-containment checks).
    ts_outstanding: Vec<u64>,
    /// Stream collection (parallel mode, when configured): a clone of every
    /// record as its lifeguard takes it from the ring, per thread.
    collected: Option<Vec<Vec<EventRecord>>>,
}

impl<'w> std::fmt::Debug for Sim<'w> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("mode", &self.config.mode)
            .field("threads", &self.k)
            .finish_non_exhaustive()
    }
}

impl<'w> Sim<'w> {
    /// Assembles the simulation from an already-built lifeguard `family`
    /// (constructed by the session's factory) and optional sequential
    /// `reference` (equivalence checking; only bundled analyses have one).
    pub(crate) fn new(
        workload: &'w Workload,
        config: &MonitorConfig,
        family: LifeguardFamily,
        reference: Option<Reference>,
    ) -> Self {
        let k = workload.thread_count();
        assert!(k > 0, "workload needs at least one thread");
        let machine = config.machine_for(k);
        assert!(
            !(machine.is_tso() && config.mode == MonitoringMode::Timesliced),
            "timesliced monitoring is modeled under SC only (single application core)"
        );
        let probe = family.thread(ThreadId(0));
        let ca_policy = probe.spec().ca_policy.clone();
        drop(probe);

        let entities = match config.mode {
            MonitoringMode::None => k,
            MonitoringMode::Timesliced => 2,
            MonitoringMode::Parallel => 2 * k,
        };

        let app = (0..k)
            .map(|tid| AppThread {
                core: match config.mode {
                    MonitoringMode::Timesliced => 0,
                    _ => tid,
                },
                pc: 0,
                rid: Rid::ZERO,
                sb: match machine.model {
                    paralog_sim::MemoryModel::Tso(t) => {
                        Some(StoreBuffer::new(t.entries, t.drain_latency))
                    }
                    paralog_sim::MemoryModel::Sc => None,
                },
                staging: VecDeque::new(),
                blocked: None,
                buckets: AppBuckets::default(),
                finished: false,
                syscall_cont: None,
            })
            .collect();

        let lg_count = match config.mode {
            MonitoringMode::None => 0,
            MonitoringMode::Timesliced => 1,
            MonitoringMode::Parallel => k,
        };
        let lgs: Vec<LgThread> = (0..lg_count)
            .map(|i| {
                let (core, instances) = match config.mode {
                    MonitoringMode::Timesliced => (
                        1,
                        (0..k).map(|t| family.thread(ThreadId(t as u16))).collect(),
                    ),
                    _ => (k + i, vec![family.thread(ThreadId(i as u16))]),
                };
                LgThread {
                    core,
                    lgs: instances,
                    it: InheritanceTracker::new(config.it_threshold),
                    ifilter: IdempotentFilter::new(64, true),
                    mtlb: MetadataTlb::new(32),
                    enforcer: OrderEnforcer::new(),
                    range_table: RangeTable::new(k),
                    buckets: LgBuckets::default(),
                    finished: false,
                    delivered_ops: 0,
                    skip_credit: 0,
                    last_tag: None,
                    ops: Vec::new(),
                    ctx: HandlerCtx::new(),
                }
            })
            .collect();

        let rings = match config.mode {
            MonitoringMode::None => Vec::new(),
            MonitoringMode::Timesliced => vec![LogRing::new(config.log_capacity)],
            MonitoringMode::Parallel => (0..k).map(|_| LogRing::new(config.log_capacity)).collect(),
        };

        Sim {
            machine,
            workload,
            k,
            mem: MemorySystem::new(&machine),
            sched: Scheduler::new(entities),
            locks: LockTable::new(),
            barriers: BarrierTable::new(k),
            rings,
            ring_tags: VecDeque::new(),
            app,
            capture: OrderCapture::new(k.max(1), config.capture, config.reduction),
            broadcaster: CaBroadcaster::new(),
            ca_policy,
            lgs,
            family,
            progress: ProgressTable::new(k),
            ca_barrier: CaBarrier::new(k),
            versions: paralog_meta::VersionTable::new(k),
            reference,
            metrics: RunMetrics {
                app_threads: k,
                ..RunMetrics::default()
            },
            ts_current: 0,
            ts_quantum_left: app::TS_QUANTUM_OPS,
            ts_outstanding: vec![0; k],
            collected: if config.collect_streams && config.mode == MonitoringMode::Parallel {
                Some(vec![Vec::new(); k])
            } else {
                None
            },
            config: config.clone(),
        }
    }

    /// Runs the discrete-event loop to completion.
    pub(crate) fn drive(&mut self) {
        let mut guard: u64 = 0;
        let budget = self.step_budget();
        while let Some(entity) = self.sched.pick_next() {
            guard += 1;
            assert!(
                guard < budget,
                "simulation exceeded {budget} steps — livelock? mode={:?}\n{}",
                self.config.mode,
                self.livelock_report()
            );
            match self.config.mode {
                MonitoringMode::None => self.step_app(entity),
                MonitoringMode::Parallel => {
                    if entity < self.k {
                        self.step_app(entity);
                    } else {
                        self.step_lg(entity - self.k);
                    }
                }
                MonitoringMode::Timesliced => {
                    if entity == 0 {
                        self.step_timesliced_app();
                    } else {
                        self.step_lg(0);
                    }
                }
            }
        }
    }

    /// Functional cache warming (§6): walk every thread's memory footprint
    /// through the hierarchy without timing, including the lifeguard cores'
    /// metadata footprint.
    pub(crate) fn warm(&mut self) {
        let monitored = self.config.mode != MonitoringMode::None;
        let bits = if monitored {
            self.family.thread(ThreadId(0)).spec().bits_per_byte
        } else {
            0
        };
        for tid in 0..self.k {
            let app_core = self.app[tid].core;
            let lg_core = match self.config.mode {
                MonitoringMode::None => None,
                MonitoringMode::Timesliced => Some(1),
                MonitoringMode::Parallel => Some(self.k + tid),
            };
            for op in &self.workload.threads[tid] {
                let paralog_events::Op::Instr(instr) = op else {
                    continue;
                };
                let Some((mem, kind)) = instr.mem_access() else {
                    continue;
                };
                self.mem
                    .warm_access(app_core, mem.addr, u64::from(mem.size), kind);
                if let Some(lg_core) = lg_core {
                    let meta = paralog_meta::meta_addr(bits, mem.addr);
                    let meta_len = (u64::from(mem.size) * u64::from(bits)).div_ceil(8).max(1);
                    self.mem.warm_access(lg_core, meta, meta_len, kind);
                }
            }
        }
    }

    /// Diagnostic dump for livelock panics.
    fn livelock_report(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, a) in self.app.iter().enumerate() {
            let _ = writeln!(
                out,
                "app{i}: pc={}/{} rid={} blocked={:?} staging={} finished={} sb={:?}",
                a.pc,
                self.workload.threads[i].len(),
                a.rid,
                a.blocked,
                a.staging.len(),
                a.finished,
                a.sb.as_ref().map(|s| s.len())
            );
        }
        for (i, l) in self.lgs.iter().enumerate() {
            let ring = if self.config.mode == MonitoringMode::Timesliced {
                &self.rings[0]
            } else {
                &self.rings[i]
            };
            let _ = writeln!(
                out,
                "lg{i}: finished={} ring_len={} head={:?} progress={}",
                l.finished,
                ring.len(),
                ring.peek().map(|r| (
                    r.rid,
                    r.arcs.clone(),
                    r.consume_version(),
                    match &r.payload {
                        paralog_events::EventPayload::Ca(ca) => format!(
                            "CA {} {:?} seq={} issuer={}",
                            ca.what, ca.phase, ca.seq, ca.issuer
                        ),
                        paralog_events::EventPayload::Instr(ins) => format!("{ins}"),
                    }
                )),
                if i < self.progress.len() {
                    format!("{}", self.progress.get(ThreadId(i as u16)))
                } else {
                    "-".into()
                }
            );
        }
        out
    }

    fn step_budget(&self) -> u64 {
        // Generous: every op can stall a bounded number of times; CA
        // broadcasts and barriers add per-thread records.
        let ops = self.workload.total_ops() as u64;
        2_000 * ops + 50_000_000
    }

    pub(crate) fn into_metrics(mut self) -> RunMetrics {
        for a in &self.app {
            self.metrics.app.push(a.buckets);
        }
        for l in &self.lgs {
            self.metrics.lifeguard.push(l.buckets);
            self.metrics.delivered_ops += l.delivered_ops;
            self.metrics.dependence_stalls += l.enforcer.stalls();
            let s = l.it.stats();
            self.metrics.it.absorbed += s.absorbed;
            self.metrics.it.delivered += s.delivered;
            self.metrics.it.local_conflict_flushes += s.local_conflict_flushes;
            self.metrics.it.stall_flushes += s.stall_flushes;
            self.metrics.it.ca_flushes += s.ca_flushes;
            self.metrics.it.threshold_flushes += s.threshold_flushes;
            let f = l.ifilter.stats();
            self.metrics.ifilter.hits += f.hits;
            self.metrics.ifilter.misses += f.misses;
            self.metrics.ifilter.invalidations += f.invalidations;
            self.metrics.ifilter.range_invalidated += f.range_invalidated;
            let m = l.mtlb.stats();
            self.metrics.mtlb.hits += m.hits;
            self.metrics.mtlb.misses += m.misses;
            self.metrics.mtlb.flushed += m.flushed;
        }
        self.metrics.app_finish = (0..self.k)
            .map(|i| match self.config.mode {
                MonitoringMode::Timesliced => self.sched.clock(0),
                _ => self.sched.clock(i),
            })
            .max()
            .unwrap_or(0);
        self.metrics.lg_finish = match self.config.mode {
            MonitoringMode::None => 0,
            MonitoringMode::Timesliced => self.sched.clock(1),
            MonitoringMode::Parallel => (self.k..2 * self.k)
                .map(|e| self.sched.clock(e))
                .max()
                .unwrap_or(0),
        };
        self.metrics.capture = self.capture.stats();
        self.metrics.records = self.rings.iter().map(|r| r.produced()).sum();
        self.metrics.ca_broadcasts = self.broadcaster.broadcasts();
        self.metrics.versions_produced = self.versions.produced();
        self.metrics.versions_consumed = self.versions.consumed();
        self.metrics.fingerprint = self.family.fingerprint();
        self.metrics.reference_fingerprint = self.reference.as_ref().map(|r| r.fingerprint());
        self.metrics.streams = self.collected.take();
        self.metrics
    }
}
