//! Co-simulating an application and turning its captured event streams into
//! the wire bytes a live producer would send, plus the oracle every daemon
//! round is checked against.

use crate::trace::Tracer;
use paralog::core::{MonitorConfig, MonitoringMode, Platform, RunMetrics};
use paralog::events::codec::Encoder;
use paralog::events::{AddrRange, EventRecord};
use paralog::lifeguards::LifeguardKind;
use paralog::workloads::Workload;
use std::time::Instant;

/// The three execution schemes of the paper's Figure 6, in the order
/// [`CoSim`] stores them.
pub const MODES: [MonitoringMode; 3] = [
    MonitoringMode::None,
    MonitoringMode::Timesliced,
    MonitoringMode::Parallel,
];

/// One application co-simulated under all three monitoring modes.
#[derive(Debug)]
pub struct CoSim {
    /// Metrics per mode, indexed like [`MODES`]. The parallel run's
    /// collected streams have been moved out into the [`Capture`].
    pub runs: [RunMetrics; 3],
    /// Host wall-clock seconds each run took.
    pub host_s: [f64; 3],
}

impl CoSim {
    /// PARALLEL ÷ NO-MONITORING simulated execution time.
    pub fn slowdown_parallel(&self) -> f64 {
        self.runs[2].execution_cycles() as f64 / self.runs[0].execution_cycles() as f64
    }

    /// TIMESLICED ÷ PARALLEL simulated execution time (the paper's
    /// headline speedup).
    pub fn speedup_vs_timesliced(&self) -> f64 {
        self.runs[1].execution_cycles() as f64 / self.runs[2].execution_cycles() as f64
    }

    /// Simulated execution time per mode, indexed like [`MODES`].
    pub fn cycles(&self) -> [u64; 3] {
        self.runs.each_ref().map(RunMetrics::execution_cycles)
    }
}

/// What every replay of a capture must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oracle {
    /// Records across all threads.
    pub records: u64,
    /// Violations the lifeguard reports.
    pub violations: usize,
    /// Final metadata fingerprint: the sequential reference's where the
    /// lifeguard has one, the capture run's own otherwise.
    pub fingerprint: u64,
}

/// Whether `kind` has a sequential reference analysis to check against
/// (the race detectors' results legitimately depend on the schedule).
fn has_reference(kind: LifeguardKind) -> bool {
    !matches!(kind, LifeguardKind::LockSet | LifeguardKind::HappensBefore)
}

/// Span names of the three co-simulation runs, indexed like [`MODES`].
pub const MODE_SPANS: [&str; 3] = [
    "core.platform.none",
    "core.platform.timesliced",
    "core.platform.parallel",
];

/// Runs `workload` under the three modes; the parallel run collects its
/// streams and checks itself against the sequential reference.
///
/// # Errors
///
/// The parallel run's metadata diverged from the sequential reference.
pub fn cosimulate(
    workload: &Workload,
    kind: LifeguardKind,
    tracer: &mut Tracer,
    round: u32,
) -> Result<CoSim, String> {
    let mut host_s = [0.0; 3];
    let mut runs: [RunMetrics; 3] = Default::default();
    for (i, mode) in MODES.into_iter().enumerate() {
        let mut config = MonitorConfig::new(mode, kind);
        if mode == MonitoringMode::Parallel {
            config.collect_streams = true;
            if has_reference(kind) {
                config = config.with_equivalence_check();
            }
        }
        let (outcome, seconds) =
            tracer.timed(MODE_SPANS[i], round, || Platform::run(workload, &config));
        runs[i] = outcome.metrics;
        host_s[i] = seconds;
    }
    if !runs[2].matches_reference() {
        return Err(format!(
            "{}: parallel co-simulation diverged from the sequential reference",
            workload.name
        ));
    }
    Ok(CoSim { runs, host_s })
}

/// A captured application run in both raw and wire form.
#[derive(Debug)]
pub struct Capture {
    /// Display label (`Barnes x2`).
    pub label: String,
    /// The analysis the capture was taken under and is replayed with.
    pub lifeguard: LifeguardKind,
    /// The monitored application's heap region.
    pub heap: AddrRange,
    /// Per-thread annotated event streams.
    pub streams: Vec<Vec<EventRecord>>,
    /// Per-thread codec wire bytes.
    pub wire: Vec<Vec<u8>>,
    /// `record_ends[t][i]`: offset in `wire[t]` just past record `i`.
    pub record_ends: Vec<Vec<usize>>,
    /// Host seconds spent encoding.
    pub encode_s: f64,
    /// What a replay must reproduce.
    pub oracle: Oracle,
}

impl Capture {
    /// Takes the collected streams out of `cosim`'s parallel run and
    /// encodes them.
    ///
    /// # Panics
    ///
    /// Panics if the parallel run did not collect streams.
    pub fn from_cosim(workload: &Workload, kind: LifeguardKind, cosim: &mut CoSim) -> Capture {
        let parallel = &mut cosim.runs[2];
        let streams = parallel.streams.take().expect("streams were collected");
        let oracle = Oracle {
            records: streams.iter().map(|s| s.len() as u64).sum(),
            violations: parallel.violations.len(),
            fingerprint: parallel
                .reference_fingerprint
                .unwrap_or(parallel.fingerprint),
        };
        let label = format!("{} x{}", workload.name, workload.thread_count());
        Capture::encode(label, kind, workload.heap, streams, oracle)
    }

    /// Encodes `streams` once, noting the encoder's byte count after each
    /// record so frames can be cut on record boundaries.
    pub fn encode(
        label: String,
        lifeguard: LifeguardKind,
        heap: AddrRange,
        streams: Vec<Vec<EventRecord>>,
        oracle: Oracle,
    ) -> Capture {
        let start = Instant::now();
        let mut wire = Vec::with_capacity(streams.len());
        let mut record_ends = Vec::with_capacity(streams.len());
        for stream in &streams {
            let mut encoder = Encoder::new();
            let mut ends = Vec::with_capacity(stream.len());
            for record in stream {
                encoder.push(record);
                ends.push(encoder.bytes());
            }
            wire.push(encoder.finish());
            record_ends.push(ends);
        }
        Capture {
            label,
            lifeguard,
            heap,
            streams,
            wire,
            record_ends,
            encode_s: start.elapsed().as_secs_f64(),
            oracle,
        }
    }

    /// Monitored thread count.
    pub fn threads(&self) -> usize {
        self.streams.len()
    }

    /// Total wire bytes across threads.
    pub fn wire_bytes(&self) -> usize {
        self.wire.iter().map(Vec::len).sum()
    }

    /// Total dependence arcs across threads.
    pub fn arcs(&self) -> usize {
        self.streams.iter().flatten().map(|r| r.arcs.len()).sum()
    }

    /// Index in thread `tid`'s stream of the record with id `rid`, if the
    /// stream holds it. Streams carry contiguous record ids (the codec
    /// transmits only the first).
    pub fn index_of(&self, tid: usize, rid: u64) -> Option<usize> {
        let stream = self.streams.get(tid)?;
        let base = stream.first()?.rid.0;
        let index = usize::try_from(rid.checked_sub(base)?).ok()?;
        (index < stream.len()).then_some(index)
    }
}
