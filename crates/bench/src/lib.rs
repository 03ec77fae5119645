//! Shared helpers for the ParaLog benchmark harness.
//!
//! The `bin/` targets regenerate the paper's tables and figures and the
//! checked-in `BENCH_*.json` snapshots of [`snapshot`], the one
//! microbenchmark harness.

#![forbid(unsafe_code)]

pub mod snapshot;

/// Workload scale used by the full figure binaries (relative to the
/// calibrated base duration).
pub const FULL_SCALE: f64 = 1.0;

/// Parses an optional `--scale <f64>` command-line override. A `--scale`
/// without a positive number after it ends the process with exit code 2
/// rather than silently running the (slow) default.
pub fn scale_from_args(default: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    parse_scale(&args, default).unwrap_or_else(|message| {
        eprintln!("{message}");
        std::process::exit(2);
    })
}

/// The `--scale` value in `args`, `default` when the flag is absent.
fn parse_scale(args: &[String], default: f64) -> Result<f64, String> {
    let Some(at) = args.iter().position(|a| a == "--scale") else {
        return Ok(default);
    };
    let value = args.get(at + 1).ok_or("--scale requires a value")?;
    match value.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(format!("--scale {value:?} is not a positive number")),
    }
}

/// Parses an optional `--quick` flag (quarter-scale run).
pub fn quick_requested() -> bool {
    std::env::args().any(|a| a == "--quick")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        assert_eq!(scale_from_args(0.5), 0.5);
    }

    #[test]
    fn scale_flag_parses_or_fails_loudly() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(String::from).collect() };
        assert_eq!(parse_scale(&args("figure6 --quick"), 0.25), Ok(0.25));
        assert_eq!(parse_scale(&args("figure6 --scale 0.02"), 1.0), Ok(0.02));
        for bad in [
            "figure6 --scale",
            "figure6 --scale banana",
            "figure6 --scale -1",
        ] {
            assert!(
                parse_scale(&args(bad), 1.0).is_err(),
                "{bad:?} must not run"
            );
        }
    }
}
