//! Shared helpers for the ParaLog benchmark harness.
//!
//! The `bin/` targets regenerate the paper's tables and figures in full;
//! the criterion `benches/` run the same sweeps at reduced scale so they
//! finish in a benchmarking session.

pub mod snapshot;

/// Workload scale used by the full figure binaries (relative to the
/// calibrated base duration).
pub const FULL_SCALE: f64 = 1.0;

/// Workload scale used by criterion benches (kept small so each iteration
/// is tens of milliseconds).
pub const BENCH_SCALE: f64 = 0.05;

/// Parses an optional `--scale <f64>` command-line override.
pub fn scale_from_args(default: f64) -> f64 {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == "--scale" {
            if let Some(v) = args.next().and_then(|v| v.parse::<f64>().ok()) {
                return v;
            }
        }
    }
    default
}

/// Parses an optional `--quick` flag (quarter-scale run).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time sanity: criterion runs must stay cheaper than full runs.
    const _: () = assert!(FULL_SCALE > BENCH_SCALE);

    #[test]
    fn defaults_are_sane() {
        assert_eq!(scale_from_args(0.5), 0.5);
    }
}
