//! Regenerates Figure 7: slowdown of PARALLEL monitoring vs the
//! same-thread-count application, decomposed into useful work, waiting for
//! dependence and waiting for application.
//!
//! Usage: `cargo run --release -p paralog-bench --bin figure7 [--quick] [--scale F] [--check FILE]`

use paralog_bench::{emit, quick_requested, scale_from_args, FULL_SCALE};
use paralog_core::experiment::{figure7, render_figure7};
use paralog_lifeguards::LifeguardKind;
use paralog_workloads::Benchmark;

fn main() {
    let scale = scale_from_args(if quick_requested() { 0.25 } else { FULL_SCALE });
    let mut out = String::new();
    for lifeguard in [LifeguardKind::TaintCheck, LifeguardKind::AddrCheck] {
        let bars = figure7(lifeguard, &Benchmark::all(), scale);
        out += &render_figure7(lifeguard, &bars);
        out += "\n";
    }
    emit(&out);
}
