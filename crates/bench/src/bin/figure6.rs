//! Regenerates Figure 6: execution time of NO MONITORING / TIMESLICED /
//! PARALLEL for 1–8 application threads, both lifeguards.
//!
//! Usage: `cargo run --release -p paralog-bench --bin figure6 [--quick] [--scale F] [--check FILE]`

use paralog_bench::{emit, quick_requested, scale_from_args, FULL_SCALE};
use paralog_core::experiment::{figure6, figure8, headline, render_figure6};
use paralog_lifeguards::LifeguardKind;
use paralog_workloads::Benchmark;

fn main() {
    let scale = scale_from_args(if quick_requested() { 0.25 } else { FULL_SCALE });
    let mut out = String::new();
    for lifeguard in [LifeguardKind::TaintCheck, LifeguardKind::AddrCheck] {
        let cells = figure6(lifeguard, &Benchmark::all(), scale);
        out += &render_figure6(lifeguard, &cells);
        out += "\n";
        let groups = figure8(lifeguard, &Benchmark::all(), scale);
        let h = headline(&cells, &groups);
        out += &format!(
            "headline ({lifeguard}): {:.1}-{:.1}X faster than timesliced at 8 threads; \
             avg 8-thread overhead {:.0}%; accelerators {:.2}-{:.2}X\n\n",
            h.speedup_over_timesliced.0,
            h.speedup_over_timesliced.1,
            h.average_overhead_8t * 100.0,
            h.accelerator_speedup.0,
            h.accelerator_speedup.1
        );
    }
    emit(&out);
}
