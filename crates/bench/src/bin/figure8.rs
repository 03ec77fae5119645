//! Regenerates Figure 8: 8-thread slowdowns for not-accelerated vs
//! accelerated monitoring, with the limited (per-core) vs aggressive
//! (per-block + transitive reduction) dependence-capture variants.
//!
//! Usage: `cargo run --release -p paralog-bench --bin figure8 [--quick] [--scale F] [--check FILE]`

use paralog_bench::{emit, quick_requested, scale_from_args, FULL_SCALE};
use paralog_core::experiment::{figure8, render_figure8};
use paralog_lifeguards::LifeguardKind;
use paralog_workloads::Benchmark;

fn main() {
    let scale = scale_from_args(if quick_requested() { 0.25 } else { FULL_SCALE });
    let mut out = String::new();
    for lifeguard in [LifeguardKind::TaintCheck, LifeguardKind::AddrCheck] {
        let groups = figure8(lifeguard, &Benchmark::all(), scale);
        out += &render_figure8(lifeguard, &groups);
        out += "\n";
    }
    emit(&out);
}
