//! Per-layer measurements: each layer's public functions timed from the
//! benchmark, single-threaded, on the *same* captures and frame bytes the
//! daemon rounds stream. Every call is recorded as a span; the metric is
//! the layer's nanoseconds (or count) per record over all of a workload's
//! captures.

use crate::capture::{Capture, MODE_SPANS};
use crate::driver::{PendingControl, Plan};
use crate::schedule::peer_dependences;
use crate::trace::Tracer;
use crate::workloads::App;
use paralog::core::{
    BufferedStream, CoopSession, DeterministicBackend, EventSource, LaneStep, MonitorSession,
    RecordStream, ReplaySource, RunMetrics, SourceInput, StreamingReplaySource, ThreadedBackend,
};
use paralog::daemon::proto::FrameParser;
use paralog::daemon::transport::{ByteFeed, SessionBuffer};
use paralog::events::codec::StreamDecoder;
use paralog::events::{EventRecord, ThreadId};
use paralog::lifeguards::LifeguardFactory;
use paralog::order::{Gate, OrderEnforcer, ProgressTable};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Read;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Bytes handed to a decoder or parser per call, as the daemon's pump reads
/// its sockets.
const FEED_BYTES: usize = 64 * 1024;
/// Records a lane may deliver per step, as the daemon's pool schedules them.
const LANE_BUDGET: usize = 512;
/// Records between a lifeguard's reclamation quiescence points, as the
/// replay loops' batch boundaries place them.
const EPOCH_RECORDS: usize = 256;

/// Metric name → value.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A causally valid total order over a capture's records, as `(tid, index)`.
type Order = Vec<(u16, u32)>;

/// `events`: incremental decode of every thread's wire stream.
fn decode(capture: &Capture) -> u64 {
    let mut records = 0;
    for wire in &capture.wire {
        let mut decoder = StreamDecoder::new();
        for chunk in wire.chunks(FEED_BYTES) {
            decoder.feed(chunk);
            while let Some(record) = decoder.next_record().expect("own encoding decodes") {
                black_box(&record);
                records += 1;
            }
        }
    }
    records
}

/// `daemon.proto`: frame parsing of the rounds' socket bytes, no-op sink.
fn frame_parse(plan: &Plan) {
    let mut parser = FrameParser::new();
    for frame in &plan.frames {
        for chunk in frame.chunks(FEED_BYTES) {
            parser
                .feed(chunk, |event| {
                    black_box(&event);
                })
                .expect("own frames parse");
        }
    }
}

/// `daemon.transport`: every payload written into and read back out of a
/// per-thread [`ByteFeed`].
fn transport_feed(plan: &Plan) {
    let total = Arc::new(SessionBuffer::default());
    let (writers, mut readers): (Vec<_>, Vec<_>) = (0..plan.capture.threads())
        .map(|_| ByteFeed::pair(Arc::clone(&total)))
        .unzip();
    let mut buf = vec![0u8; FEED_BYTES];
    for ranges in plan.schedule.payload_ranges(&plan.capture) {
        for (t, range) in ranges.into_iter().enumerate() {
            writers[t].write(&plan.capture.wire[t][range]);
            while let Ok(n) = readers[t].read(&mut buf) {
                black_box(&buf[..n]);
            }
        }
    }
}

/// `order`: gates every record against the progress table, round-robin
/// run-to-block over threads, advertising as it goes. Returns the delivery
/// order, which is causally valid by construction.
fn gate_order(capture: &Capture) -> Order {
    let threads = capture.threads();
    let mut progress = ProgressTable::new(threads);
    let mut enforcers = vec![OrderEnforcer::new(); threads];
    let mut next = vec![0usize; threads];
    let mut order = Order::with_capacity(capture.oracle.records as usize);
    while order.len() < capture.oracle.records as usize {
        let before = order.len();
        for t in 0..threads {
            while let Some(record) = capture.streams[t].get(next[t]) {
                let ready = enforcers[t].gate(record, &progress) == Gate::Ready
                    && peer_dependences(record, t).all(|(src, rid)| {
                        progress.satisfies(ThreadId(src as u16), paralog::events::Rid(rid))
                    });
                if !ready {
                    break;
                }
                progress.advertise(ThreadId(t as u16), record.rid);
                order.push((t as u16, next[t] as u32));
                next[t] += 1;
            }
        }
        assert!(order.len() > before, "capture is not causal");
    }
    order
}

/// `lifeguards` (+ `meta` beneath): the concurrent form applied to every
/// record in `order`.
fn apply(capture: &Capture, order: &Order) {
    let threads = capture.threads();
    let lifeguard = capture
        .lifeguard
        .concurrent(capture.heap, threads)
        .expect("bundled lifeguards have a concurrent form");
    let mut since_epoch = vec![0usize; threads];
    for &(t, i) in order {
        let tid = ThreadId(t);
        lifeguard.apply(tid, &capture.streams[t as usize][i as usize], None);
        since_epoch[t as usize] += 1;
        if since_epoch[t as usize] == EPOCH_RECORDS {
            since_epoch[t as usize] = 0;
            lifeguard.epoch_boundary(tid);
        }
    }
    for t in 0..threads {
        lifeguard.stream_done(ThreadId(t as u16));
    }
    black_box(lifeguard.fingerprint());
}

/// What a single-threaded cooperative replay did.
struct CoopRun {
    steps: u64,
    nonprogress: u64,
    metrics: RunMetrics,
}

/// `core::session::coop`: every lane stepped round-robin on this thread.
fn coop(capture: &Capture, streams: Vec<Box<dyn RecordStream>>) -> Result<CoopRun, String> {
    let (session, mut lanes) = CoopSession::start(&capture.lifeguard, capture.heap, streams, None)
        .map_err(|e| format!("{}: coop start: {e}", capture.label))?;
    let (mut steps, mut nonprogress) = (0, 0);
    while !session.is_complete() {
        for lane in &mut lanes {
            steps += 1;
            if matches!(lane.step(LANE_BUDGET), LaneStep::Gated | LaneStep::Idle) {
                nonprogress += 1;
            }
        }
    }
    let metrics = session
        .report()
        .expect("a complete session has a report")
        .map_err(|e| format!("{}: coop replay: {e}", capture.label))?;
    Ok(CoopRun {
        steps,
        nonprogress,
        metrics,
    })
}

fn check(capture: &Capture, what: &str, metrics: &RunMetrics) -> Result<(), String> {
    let got = (
        metrics.records,
        metrics.violations.len(),
        metrics.fingerprint,
    );
    let oracle = capture.oracle;
    if got == (oracle.records, oracle.violations, oracle.fingerprint) {
        Ok(())
    } else {
        Err(format!(
            "{}: {what} replay gave records={} violations={} fingerprint={:016x}, oracle {oracle:?}",
            capture.label, got.0, got.1, got.2
        ))
    }
}

fn wire_streams(capture: &Capture) -> Vec<Box<dyn RecordStream>> {
    let source = StreamingReplaySource::from_encoded(capture.wire.clone(), capture.heap);
    match Box::new(source).open() {
        SourceInput::Streams(streams) => streams,
        SourceInput::Workload(_) => unreachable!("streaming sources resolve to streams"),
    }
}

/// Sums over a workload's captures.
#[derive(Default)]
struct Totals {
    records: f64,
    threaded_records: f64,
    wire_bytes: f64,
    arcs: f64,
    ops: f64,
    seconds: BTreeMap<&'static str, f64>,
    coop_steps: f64,
    coop_nonprogress: f64,
    phase_cycles: [f64; 5],
}

impl Totals {
    fn add(&mut self, name: &'static str, seconds: f64) {
        *self.seconds.entry(name).or_insert(0.0) += seconds;
    }

    fn ns_per_record(&self, name: &'static str) -> f64 {
        self.seconds[name] * 1e9 / self.records
    }
}

/// Replays through the session builder on `backend`; the sequential and
/// threaded loops are compared to the oracle only by record count (see
/// FINDINGS.md: their fingerprints are known to diverge on some captures).
fn session_replay(
    capture: &Capture,
    source: impl EventSource + 'static,
    backend: impl paralog::core::Backend + 'static,
    records: u64,
) -> Result<RunMetrics, String> {
    let metrics = MonitorSession::builder()
        .source(source)
        .backend(backend)
        .lifeguard(capture.lifeguard)
        .build()
        .and_then(MonitorSession::run)
        .map_err(|e| format!("{}: session replay: {e}", capture.label))?
        .metrics;
    if metrics.records != records {
        return Err(format!(
            "{}: session replay applied {} of {records} records",
            capture.label, metrics.records
        ));
    }
    Ok(metrics)
}

/// Most dependence arcs a threaded replay is asked to hand across threads.
/// Three replay threads on two processors spend ~170 us per arc-gated record
/// (a waiter spins on the processor its producer needs), so the whole
/// `arc_storm` capture would take a minute; sparse captures fit whole.
const THREADED_ARC_LIMIT: usize = 20_000;

/// The longest prefix of `plan`'s capture, cut between frame rounds (so it
/// is causally closed), that holds at most [`THREADED_ARC_LIMIT`] arcs; at
/// least the first frame round.
fn arc_bounded_prefix(plan: &Plan) -> Vec<Vec<EventRecord>> {
    let streams = &plan.capture.streams;
    let arcs_through = |end: &Vec<usize>| -> usize {
        streams
            .iter()
            .zip(end)
            .flat_map(|(stream, &n)| &stream[..n])
            .map(|record| record.arcs.len())
            .sum()
    };
    let rounds = &plan.schedule.ends;
    let fitting = rounds.partition_point(|end| arcs_through(end) <= THREADED_ARC_LIMIT);
    let end = &rounds[fitting.max(1) - 1];
    streams
        .iter()
        .zip(end)
        .map(|(stream, &n)| stream[..n].to_vec())
        .collect()
}

/// Times every layer over `apps`' captures and derives the per-layer
/// metrics that need no running daemon.
///
/// # Errors
///
/// A cooperative replay that fails or misses the oracle.
pub fn measure_offline(apps: &[App], tracer: &mut Tracer) -> Result<Metrics, String> {
    let mut totals = Totals::default();
    let mut sim = [RunMetrics::default(), RunMetrics::default()];
    let mut stalls = 0.0;
    for (n, app) in apps.iter().enumerate() {
        let round = n as u32;
        let capture = &app.plan.capture;
        totals.records += capture.oracle.records as f64;
        totals.wire_bytes += capture.wire_bytes() as f64;
        totals.arcs += capture.arcs() as f64;
        totals.ops += app.workload.total_ops() as f64;
        totals.add("workloads.gen", app.gen_s);
        totals.add("events.encode", capture.encode_s);
        for (span, seconds) in MODE_SPANS.into_iter().zip(app.cosim.host_s) {
            totals.add(span, seconds);
        }

        let (decoded, s) = tracer.timed("events.decode", round, || decode(capture));
        assert_eq!(decoded, capture.oracle.records, "decode lost records");
        totals.add("events.decode", s);
        let ((), s) = tracer.timed("daemon.proto.frame_parse", round, || frame_parse(&app.plan));
        totals.add("daemon.proto.frame_parse", s);
        let ((), s) = tracer.timed("daemon.transport.feed", round, || transport_feed(&app.plan));
        totals.add("daemon.transport.feed", s);
        let (order, s) = tracer.timed("order.gate", round, || gate_order(capture));
        totals.add("order.gate", s);
        let ((), s) = tracer.timed("lifeguards.apply", round, || apply(capture, &order));
        totals.add("lifeguards.apply", s);
        drop(order);

        let raw: Vec<Box<dyn RecordStream>> = capture
            .streams
            .iter()
            .map(|s| Box::new(BufferedStream::new(s.clone())) as Box<dyn RecordStream>)
            .collect();
        let (run, s) = tracer.timed("core.coop.raw", round, || coop(capture, raw));
        let run = run?;
        check(capture, "raw cooperative", &run.metrics)?;
        totals.add("core.coop.raw", s);
        totals.coop_steps += run.steps as f64;
        totals.coop_nonprogress += run.nonprogress as f64;

        let wire = wire_streams(capture);
        let (run, s) = tracer.timed("core.coop.wire", round, || coop(capture, wire));
        check(capture, "wire cooperative", &run?.metrics)?;
        totals.add("core.coop.wire", s);

        let prefix = arc_bounded_prefix(&app.plan);
        let prefix_records = prefix.iter().map(|s| s.len() as u64).sum();
        let source = ReplaySource::new(prefix, capture.heap);
        let (run, s) = tracer.timed("core.threaded.raw", round, || {
            session_replay(capture, source, ThreadedBackend, prefix_records)
        });
        run?;
        totals.add("core.threaded.raw", s);
        totals.threaded_records += prefix_records as f64;

        let source = ReplaySource::new(capture.streams.clone(), capture.heap);
        let (run, s) = tracer.timed("lifeguards.seq_apply", round, || {
            session_replay(
                capture,
                source,
                DeterministicBackend,
                capture.oracle.records,
            )
        });
        run?;
        totals.add("lifeguards.seq_apply", s);

        let source = StreamingReplaySource::from_encoded(capture.wire.clone(), capture.heap);
        let (run, s) = tracer.timed("core.deterministic.wire", round, || {
            session_replay(
                capture,
                source,
                DeterministicBackend,
                capture.oracle.records,
            )
        });
        totals.add("core.deterministic.wire", s);
        let phases = run?.phases.expect("captured-stream replays report phases");
        let cycles = [
            phases.capture,
            phases.transport,
            phases.order_wait,
            phases.analysis,
            phases.publish,
        ];
        for (total, cycles) in totals.phase_cycles.iter_mut().zip(cycles) {
            *total += cycles as f64;
        }

        // Simulated (exact) statistics come from the set-up co-simulation.
        let parallel = &app.cosim.runs[2];
        stalls += parallel.dependence_stalls as f64;
        for (sum, run) in sim.iter_mut().zip([&app.cosim.runs[1], parallel]) {
            sum.records += run.records;
        }
        let sums = &mut sim[1];
        let lg = parallel.lifeguard_totals();
        sums.lifeguard.push(lg);
        sums.capture.observed += parallel.capture.observed;
        sums.capture.recorded += parallel.capture.recorded;
        sums.it.absorbed += parallel.it.absorbed;
        sums.it.delivered += parallel.it.delivered;
        sums.ifilter.hits += parallel.ifilter.hits;
        sums.ifilter.misses += parallel.ifilter.misses;
        sums.mtlb.hits += parallel.mtlb.hits;
        sums.mtlb.misses += parallel.mtlb.misses;
    }

    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let parallel = &sim[1];
    let lg = parallel.lifeguard_totals();
    let mut m = Metrics::new();
    m.insert(
        "events.encode_ns_per_record",
        totals.ns_per_record("events.encode"),
    );
    m.insert(
        "events.decode_ns_per_record",
        totals.ns_per_record("events.decode"),
    );
    m.insert(
        "events.wire_bytes_per_record",
        totals.wire_bytes / totals.records,
    );
    m.insert(
        "daemon.proto.frame_parse_ns_per_record",
        totals.ns_per_record("daemon.proto.frame_parse"),
    );
    m.insert(
        "daemon.transport.feed_ns_per_record",
        totals.ns_per_record("daemon.transport.feed"),
    );
    m.insert(
        "core.coop.raw_ns_per_record",
        totals.ns_per_record("core.coop.raw"),
    );
    m.insert(
        "core.coop.wire_ns_per_record",
        totals.ns_per_record("core.coop.wire"),
    );
    m.insert(
        "core.coop.nonprogress_step_ratio",
        totals.coop_nonprogress / totals.coop_steps,
    );
    m.insert(
        "core.threaded.raw_ns_per_record",
        totals.seconds["core.threaded.raw"] * 1e9 / totals.threaded_records,
    );
    m.insert(
        "core.deterministic.wire_ns_per_record",
        totals.ns_per_record("core.deterministic.wire"),
    );
    m.insert(
        "core.platform.host_ns_per_record.none",
        totals.seconds[MODE_SPANS[0]] * 1e9 / totals.ops,
    );
    m.insert(
        "core.platform.host_ns_per_record.timesliced",
        totals.seconds[MODE_SPANS[1]] * 1e9 / sim[0].records as f64,
    );
    m.insert(
        "core.platform.host_ns_per_record.parallel",
        totals.seconds[MODE_SPANS[2]] * 1e9 / parallel.records as f64,
    );
    m.insert(
        "order.gate_ns_per_record",
        totals.ns_per_record("order.gate"),
    );
    m.insert("order.arcs_per_krecord", totals.arcs * 1e3 / totals.records);
    m.insert("order.stalls_per_krecord", stalls * 1e3 / totals.records);
    m.insert(
        "order.capture.recorded_ratio",
        ratio(
            parallel.capture.recorded as f64,
            parallel.capture.observed as f64,
        ),
    );
    m.insert(
        "lifeguards.apply_ns_per_record",
        totals.ns_per_record("lifeguards.apply"),
    );
    m.insert(
        "lifeguards.seq_apply_ns_per_record",
        totals.ns_per_record("lifeguards.seq_apply"),
    );
    m.insert(
        "sim.lg_useful_fraction",
        ratio(lg.useful as f64, lg.total() as f64),
    );
    m.insert(
        "sim.lg_wait_dependence_fraction",
        ratio(lg.wait_dependence as f64, lg.total() as f64),
    );
    m.insert(
        "sim.lg_wait_application_fraction",
        ratio(lg.wait_application as f64, lg.total() as f64),
    );
    m.insert(
        "accel.it_absorbed_ratio",
        ratio(
            parallel.it.absorbed as f64,
            (parallel.it.absorbed + parallel.it.delivered) as f64,
        ),
    );
    m.insert("accel.if_hit_rate", parallel.ifilter.hit_rate());
    m.insert("accel.mtlb_hit_rate", parallel.mtlb.hit_rate());
    m.insert(
        "workloads.gen_ns_per_op",
        totals.seconds["workloads.gen"] * 1e9 / totals.ops,
    );

    // Cost-model check: modelled cycles per record beside the measured
    // nanoseconds of the layers each phase stands for.
    let [capture_c, transport_c, order_c, analysis_c, publish_c] =
        totals.phase_cycles.map(|c| c / totals.records);
    m.insert("model.cycles_per_record.capture", capture_c);
    m.insert("model.cycles_per_record.transport", transport_c);
    m.insert("model.cycles_per_record.order_wait", order_c);
    m.insert("model.cycles_per_record.analysis", analysis_c);
    m.insert("model.cycles_per_record.publish", publish_c);
    let transport_ns = m["events.decode_ns_per_record"]
        + m["daemon.proto.frame_parse_ns_per_record"]
        + m["daemon.transport.feed_ns_per_record"];
    m.insert(
        "model.ns_per_cycle.transport",
        ratio(transport_ns, transport_c),
    );
    m.insert(
        "model.ns_per_cycle.order_wait",
        ratio(m["order.gate_ns_per_record"], order_c),
    );
    m.insert(
        "model.ns_per_cycle.analysis",
        ratio(m["lifeguards.apply_ns_per_record"], analysis_c),
    );
    Ok(m)
}

/// What the `STATUS` sampler saw of the sessions that ran while it did.
#[derive(Debug, Default)]
pub struct StatusSamples {
    /// Highest `blocked_polls` sampled per session.
    pub blocked_polls: BTreeMap<u64, u64>,
    /// Highest `buffered_bytes` sampled in any session.
    pub buffered_bytes_peak: u64,
}

impl StatusSamples {
    /// Folds a later sampler's observations into this one.
    pub fn absorb(&mut self, other: StatusSamples) {
        self.blocked_polls.extend(other.blocked_polls);
        self.buffered_bytes_peak = self.buffered_bytes_peak.max(other.buffered_bytes_peak);
    }
}

/// Polls `STATUS` of the newest session every 50 ms on its own control
/// connection until `stop` is set. Session ids are sequential, so the
/// sampler follows them by probing the next id.
pub fn sample_status(control: &Path, first_id: u64, stop: &AtomicBool) -> StatusSamples {
    let mut samples = StatusSamples::default();
    let Ok(mut ctl) = PendingControl::open(control).and_then(PendingControl::ready) else {
        return samples;
    };
    let mut id = first_id;
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(Duration::from_millis(50));
        let Ok(mut status) = ctl.command(&format!("STATUS {id}")) else {
            return samples;
        };
        while let Ok(next) = ctl.command(&format!("STATUS {}", id + 1)) {
            if next.first().is_some_and(|l| l.starts_with("ERR")) {
                break;
            }
            id += 1;
            status = next;
        }
        let field = |key: &str| {
            status
                .iter()
                .find_map(|l| l.strip_prefix(key)?.trim().parse::<u64>().ok())
        };
        if let Some(bytes) = field("buffered_bytes ") {
            samples.buffered_bytes_peak = samples.buffered_bytes_peak.max(bytes);
        }
        if let Some(polls) = field("blocked_polls ") {
            let seen = samples.blocked_polls.entry(id).or_insert(0);
            *seen = (*seen).max(polls);
        }
    }
    samples
}
