//! Order statistics over timing samples.

/// The `p`-th percentile (0 < p <= 100) of `samples` by the nearest-rank
/// rule: the smallest sample with at least `p` percent of the samples at or
/// below it. Sorts `samples` in place.
///
/// # Panics
///
/// Panics on an empty slice: a percentile of nothing is a harness bug, not
/// a measurement.
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile must be in (0, 100]");
    samples.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The median: the mean of the two middle samples for an even count.
/// Sorts `samples` in place.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &mut [f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    assert!(values.iter().all(|v| *v > 0.0), "geomean needs positives");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}
