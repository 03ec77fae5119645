//! Regenerates (or checks) the checked-in `BENCH_sim.json`: the
//! co-simulation suite — host nanoseconds per record of `Platform::run` in
//! each monitoring mode, and per access of the coherent memory system.
//!
//! Usage mirrors `bench_shadow`:
//!
//! * `cargo run --release -p paralog-bench --bin bench_sim`
//!   — run the full suite, print it, and rewrite `BENCH_sim.json` at the
//!   repository root (override with `--out <path>`);
//! * `... --bin bench_sim -- --check` — run a quick profile and diff it
//!   against the checked-in baseline, emitting a non-blocking GitHub
//!   Actions `::warning::` line per regressed series. Always exits 0.

use paralog_bench::snapshot::{run_bin, sim_matrix};

fn main() {
    run_bin(
        "BENCH_sim.json",
        "co-simulation suite",
        "record",
        4096,
        sim_matrix,
    );
}
