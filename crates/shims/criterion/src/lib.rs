//! Offline stand-in for the `criterion` crate.
//!
//! Provides the macro/type surface `benches/concurrent_micro.rs` uses —
//! [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher`],
//! [`Throughput`], [`black_box`], `criterion_group!`, `criterion_main!` —
//! backed by a small median-of-samples timer instead of criterion's full
//! statistical machinery. Results print as `name ... median ns/iter` lines,
//! so `cargo bench` output stays grep-able.
//!
//! Two environment variables serve CI's bench smoke job:
//!
//! * `PARALOG_BENCH_QUICK` (non-empty, not `0`) — quick profile: a much
//!   smaller per-benchmark time budget and at most 3 samples, so a full
//!   bench binary finishes in seconds while still producing real numbers;
//! * `PARALOG_BENCH_JSON=<path>` — append one JSON object per finished
//!   benchmark (`{"name":…,"median_ns":…}` plus the declared throughput)
//!   to `<path>`, JSON-lines style so concurrent bench binaries of one
//!   `cargo bench` invocation can share a results file.

#![forbid(unsafe_code)]

pub use std::hint::black_box;

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Target wall-clock budget per benchmark (split across samples).
const TARGET_SAMPLE_TIME: Duration = Duration::from_millis(400);

/// Quick-profile budget (`PARALOG_BENCH_QUICK`).
const QUICK_SAMPLE_TIME: Duration = Duration::from_millis(40);

/// Whether the quick profile is active.
fn quick() -> bool {
    std::env::var_os("PARALOG_BENCH_QUICK")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The per-benchmark time budget under the active profile.
fn target_sample_time() -> Duration {
    if quick() {
        QUICK_SAMPLE_TIME
    } else {
        TARGET_SAMPLE_TIME
    }
}

/// Caps a declared sample count under the active profile.
fn effective_sample_size(declared: usize) -> usize {
    if quick() {
        declared.min(3)
    } else {
        declared
    }
}

/// Declared throughput of one benchmark iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// A two-part benchmark identifier (`function/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Combines a function name with a parameter display.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function}/{parameter}"),
        }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

/// Timer handle passed to the measured closure.
#[derive(Debug)]
pub struct Bencher {
    samples: Vec<Duration>,
    sample_size: usize,
}

impl Bencher {
    /// Measures `f`, collecting `sample_size` timed samples of an
    /// auto-calibrated iteration batch.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // Calibrate: how many iterations fit one sample slot. The first
        // call is discarded as warm-up (first-touch allocation, cold
        // caches), then the batch size comes from a short timed loop so a
        // single slow invocation can't collapse the batch to 1.
        let budget = target_sample_time() / self.sample_size as u32;
        black_box(f());
        let start = Instant::now();
        let mut warmup = 0u32;
        while warmup < 8 {
            black_box(f());
            warmup += 1;
            // Macro benches blow the sample budget in one call; stop early
            // so calibration doesn't dominate their wall time.
            if start.elapsed() >= budget {
                break;
            }
        }
        let one = (start.elapsed() / warmup).max(Duration::from_nanos(1));
        let iters = (budget.as_nanos() / one.as_nanos()).clamp(1, 1_000_000) as u64;
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let total = start.elapsed();
            self.samples.push(total / iters as u32);
        }
    }

    fn median(&mut self) -> Duration {
        self.samples.sort_unstable();
        self.samples
            .get(self.samples.len() / 2)
            .copied()
            .unwrap_or_default()
    }
}

/// Renders one result as a JSON-lines record for `PARALOG_BENCH_JSON`.
fn render_json(name: &str, median: Duration, throughput: Option<Throughput>) -> String {
    let escaped: String = name
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c if c.is_control() => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect();
    let rate = match throughput {
        Some(Throughput::Elements(n)) => format!(",\"elements_per_iter\":{n}"),
        None => String::new(),
    };
    format!(
        "{{\"name\":\"{escaped}\",\"median_ns\":{}{rate}}}",
        median.as_nanos()
    )
}

fn report(name: &str, median: Duration, throughput: Option<Throughput>) {
    let ns = median.as_nanos();
    let rate = throughput
        .map(|Throughput::Elements(n)| {
            format!("  ({:.1} Melem/s)", n as f64 / median.as_secs_f64() / 1e6)
        })
        .unwrap_or_default();
    println!("bench: {name:<60} {ns:>12} ns/iter{rate}");
    if let Some(path) = std::env::var_os("PARALOG_BENCH_JSON") {
        use std::io::Write;
        let line = render_json(name, median, throughput);
        // Appends so every bench binary of one `cargo bench` run lands in
        // the same artifact; failures are non-fatal (the bench still ran).
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
        {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// A named group of related benchmarks.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timing samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares per-iteration throughput for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: effective_sample_size(self.sample_size),
        };
        f(&mut b);
        let name = format!("{}/{}", self.name, id.into_id());
        report(&name, b.median(), self.throughput);
        self
    }

    /// Ends the group (upstream criterion finalizes reports here).
    pub fn finish(&mut self) {}
}

/// The benchmark driver.
#[derive(Debug)]
pub struct Criterion;

impl Criterion {
    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 10,
            throughput: None,
            _criterion: self,
        }
    }
}

/// Defines a group function running each target against one [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion;
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_lines_render_and_escape() {
        let d = Duration::from_nanos(1234);
        assert_eq!(
            render_json(
                "versions_churn/flat/32",
                d,
                Some(Throughput::Elements(4096))
            ),
            "{\"name\":\"versions_churn/flat/32\",\"median_ns\":1234,\"elements_per_iter\":4096}"
        );
        assert_eq!(
            render_json("odd\"name\\", d, None),
            "{\"name\":\"odd\\\"name\\\\\",\"median_ns\":1234}"
        );
        assert_eq!(
            render_json("plain", d, None),
            "{\"name\":\"plain\",\"median_ns\":1234}"
        );
    }

    #[test]
    fn group_runs_and_reports() {
        let mut c = Criterion;
        let mut g = c.benchmark_group("smoke");
        g.sample_size(2);
        g.throughput(Throughput::Elements(1));
        let mut runs = 0u64;
        g.bench_function("id", |b| b.iter(|| runs = black_box(runs + 1)));
        g.bench_function(BenchmarkId::new("param", 4), |b| {
            b.iter(|| black_box(4u64 * 2))
        });
        g.finish();
        assert!(runs > 0);
    }
}
