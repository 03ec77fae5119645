//! Regenerates (or checks) the checked-in `BENCH_shadow.json`: the
//! byte-shadow suite — `AtomicShadow`'s range primitives at 4 B, 64 B and
//! 4 KiB, the cost of a session's first touch, and the fingerprint of a
//! paced TaintCheck session's shadow.
//!
//! Usage:
//!
//! * `cargo run --release -p paralog-bench --bin bench_shadow`
//!   — run the full suite, print it, and rewrite `BENCH_shadow.json`
//!   at the repository root (override with `--out <path>`);
//! * `... --bin bench_shadow -- --check` — run a quick profile and diff it
//!   against the checked-in baseline, emitting a non-blocking GitHub
//!   Actions `::warning::` line per regressed series. Always exits 0.

use paralog_bench::snapshot::{run_bin, shadow_matrix};

fn main() {
    run_bin(
        "BENCH_shadow.json",
        "shadow suite",
        "call",
        2048,
        shadow_matrix,
    );
}
