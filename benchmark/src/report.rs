//! Metric definitions, result output, the `machine` block and `--compare`.
//!
//! The tables here are the single source of the names, units, directions
//! and regression bounds; `BENCHMARK.json` mirrors them (a test checks it).

use crate::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger is better.
    Higher,
    /// Smaller is better.
    Lower,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics, measured with tracing off.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "records_per_s",
        unit: "records/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "detect_latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "drain_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "sim_slowdown_parallel",
        unit: "x",
        better: Better::Lower,
        bound: 0.12,
    },
    EndToEnd {
        name: "sim_speedup_vs_timesliced",
        unit: "x",
        better: Better::Higher,
        bound: 0.12,
    },
];

/// The per-layer metrics of a `--trace 1` run: `(name, unit, better)`.
pub const PER_LAYER: [(&str, &str, Better); 46] = [
    ("events.encode_ns_per_record", "ns/record", Better::Lower),
    ("events.decode_ns_per_record", "ns/record", Better::Lower),
    ("events.wire_bytes_per_record", "B/record", Better::Lower),
    (
        "daemon.proto.frame_parse_ns_per_record",
        "ns/record",
        Better::Lower,
    ),
    (
        "daemon.transport.feed_ns_per_record",
        "ns/record",
        Better::Lower,
    ),
    ("daemon.attach_ms", "ms", Better::Lower),
    ("daemon.send_blocked_ms", "ms", Better::Lower),
    ("daemon.blocked_polls", "count", Better::Lower),
    ("daemon.buffered_bytes_peak", "bytes", Better::Lower),
    ("daemon.watch_lines_lost", "count", Better::Lower),
    ("daemon.residual_ns_per_record", "ns/record", Better::Lower),
    ("core.coop.raw_ns_per_record", "ns/record", Better::Lower),
    ("core.coop.wire_ns_per_record", "ns/record", Better::Lower),
    ("core.coop.nonprogress_step_ratio", "ratio", Better::Lower),
    (
        "core.threaded.raw_ns_per_record",
        "ns/record",
        Better::Lower,
    ),
    (
        "core.deterministic.wire_ns_per_record",
        "ns/record",
        Better::Lower,
    ),
    (
        "core.platform.host_ns_per_record.none",
        "ns/record",
        Better::Lower,
    ),
    (
        "core.platform.host_ns_per_record.timesliced",
        "ns/record",
        Better::Lower,
    ),
    (
        "core.platform.host_ns_per_record.parallel",
        "ns/record",
        Better::Lower,
    ),
    ("order.gate_ns_per_record", "ns/record", Better::Lower),
    ("order.arcs_per_krecord", "1/krecord", Better::Lower),
    ("order.stalls_per_krecord", "1/krecord", Better::Lower),
    ("order.capture.recorded_ratio", "ratio", Better::Lower),
    ("lifeguards.apply_ns_per_record", "ns/record", Better::Lower),
    (
        "lifeguards.seq_apply_ns_per_record",
        "ns/record",
        Better::Lower,
    ),
    ("lifeguards.violations_per_round", "count", Better::Higher),
    ("sim.lg_useful_fraction", "ratio", Better::Higher),
    ("sim.lg_wait_dependence_fraction", "ratio", Better::Lower),
    ("sim.lg_wait_application_fraction", "ratio", Better::Lower),
    ("accel.it_absorbed_ratio", "ratio", Better::Higher),
    ("accel.if_hit_rate", "ratio", Better::Higher),
    ("accel.mtlb_hit_rate", "ratio", Better::Higher),
    ("workloads.gen_ns_per_op", "ns/op", Better::Lower),
    (
        "model.cycles_per_record.capture",
        "cycles/record",
        Better::Lower,
    ),
    (
        "model.cycles_per_record.transport",
        "cycles/record",
        Better::Lower,
    ),
    (
        "model.cycles_per_record.order_wait",
        "cycles/record",
        Better::Lower,
    ),
    (
        "model.cycles_per_record.analysis",
        "cycles/record",
        Better::Lower,
    ),
    (
        "model.cycles_per_record.publish",
        "cycles/record",
        Better::Lower,
    ),
    ("model.ns_per_cycle.transport", "ns/cycle", Better::Lower),
    ("model.ns_per_cycle.order_wait", "ns/cycle", Better::Lower),
    ("model.ns_per_cycle.analysis", "ns/cycle", Better::Lower),
    ("bench.generator_late_p99_ms", "ms", Better::Lower),
    ("bench.detect_latency_p90_ms", "ms", Better::Lower),
    ("bench.detect_latency_p99_ms", "ms", Better::Lower),
    ("bench.detect_latency_max_ms", "ms", Better::Lower),
    ("bench.trace_overhead_ratio", "ratio", Better::Higher),
];

/// The unit of metric `name`, end-to-end or per-layer.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map(|m| m.unit)
        .or_else(|| PER_LAYER.iter().find(|m| m.0 == name).map(|m| m.1))
}

/// The box the numbers were taken on; embedded in every result file.
#[derive(Debug, Clone)]
pub struct Machine {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc --version` of the compiler that built the benchmark.
    pub rustc: &'static str,
    /// Commit of the enclosing git checkout, or `unknown` outside one.
    pub commit: String,
}

impl Machine {
    /// Describes this machine.
    pub fn detect() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, model)| model.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Machine {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu,
            rustc: env!("BENCH_RUSTC"),
            commit: git_head().unwrap_or_else(|| "unknown".into()),
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\"}}",
            self.cores,
            json::escape(&self.cpu),
            json::escape(self.rustc),
            json::escape(&self.commit)
        )
    }
}

/// `HEAD` of the git checkout at or above the working directory, read from
/// the files (no `git` process: the benchmark starts none).
fn git_head() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(git.join(reference))
            .ok()
            .map(|hash| hash.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One finished run, ready to print.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Workload seed.
    pub seed: u64,
    /// Measured-window length asked for.
    pub seconds: f64,
    /// Whether this was a traced (per-layer) run.
    pub trace: bool,
    /// Operations attempted (rounds and in-window co-simulations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts behind the percentile metrics.
    pub samples: BTreeMap<&'static str, usize>,
    /// Diagnostics outside the contract (`name`, `unit`, value).
    pub notes: Vec<(&'static str, &'static str, f64)>,
}

impl Outcome {
    /// Whether every operation passed its oracle.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    fn metrics_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let unit = unit_of(name).expect("only defined metrics are reported");
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String");
        }
        out.push('}');
        out
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            self.metrics_json()
        )
    }

    /// The full result file: the contract's keys plus run parameters, sample
    /// counts and the machine block.
    pub fn result_file(&self, machine: &Machine) -> String {
        let mut samples = String::from("{");
        for (i, (name, count)) in self.samples.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            write!(samples, "{sep}\"{name}\": {count}").expect("writing to a String");
        }
        samples.push('}');
        format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"machine\": {}, \
             \"samples\": {samples}, \"metrics\": {}}}\n",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.correct(),
            self.attempted,
            self.failed,
            machine.to_json(),
            self.metrics_json()
        )
    }

    /// Human-readable `name unit value` lines.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.metrics {
            let unit = unit_of(name).expect("only defined metrics are reported");
            match self.samples.get(name) {
                Some(n) => writeln!(out, "{name} {unit} {value} (n={n})"),
                None => writeln!(out, "{name} {unit} {value}"),
            }
            .expect("writing to a String");
        }
        for (name, unit, value) in &self.notes {
            writeln!(out, "{name} {unit} {value}").expect("writing to a String");
        }
        writeln!(out, "attempted count {}", self.attempted).expect("writing to a String");
        writeln!(out, "failed count {}", self.failed).expect("writing to a String");
        out
    }
}

/// Compares two result files metric by metric, applying the bounds:
/// `candidate` may be worse than `baseline` by at most the bound's share of
/// the baseline. Returns the report and whether everything passed.
///
/// # Errors
///
/// Unreadable or malformed result files, or files of different workloads.
pub fn compare(baseline: &str, candidate: &str) -> Result<(String, bool), String> {
    let base = json::parse(baseline).map_err(|e| format!("baseline: {e}"))?;
    let cand = json::parse(candidate).map_err(|e| format!("candidate: {e}"))?;
    let workload = |v: &Value| {
        v.get("workload")
            .and_then(Value::as_str)
            .map(str::to_string)
    };
    if workload(&base) != workload(&cand) {
        return Err("the two results are of different workloads".into());
    }
    let value = |v: &Value, name: &str| v.get("metrics")?.get(name)?.get("value")?.as_f64();
    let mut out = format!(
        "workload {}\n{:<28} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        workload(&base).unwrap_or_default(),
        "metric",
        "baseline",
        "candidate",
        "change",
        "bound"
    );
    let mut pass = true;
    for (v, side) in [(&base, "baseline"), (&cand, "candidate")] {
        if v.get("correct") != Some(&Value::Bool(true)) {
            writeln!(out, "{side} run was not correct").expect("writing to a String");
            pass = false;
        }
    }
    for metric in END_TO_END {
        let (Some(b), Some(c)) = (value(&base, metric.name), value(&cand, metric.name)) else {
            continue;
        };
        // Positive = worse, as a share of the baseline.
        let worse = match metric.better {
            Better::Lower => (c - b) / b,
            Better::Higher => (b - c) / b,
        };
        let ok = worse <= metric.bound;
        pass &= ok;
        writeln!(
            out,
            "{:<28} {:>14.4} {:>14.4} {:>+8.1}% {:>6.0}%  {}",
            metric.name,
            b,
            c,
            -worse * 100.0,
            metric.bound * 100.0,
            if ok { "ok" } else { "REGRESSED" }
        )
        .expect("writing to a String");
    }
    Ok((out, pass))
}
