//! Order statistics for the benchmark's timings.
//!
//! Timings are reported as a median plus the highest percentile that
//! still has at least [`TAIL_SAMPLES`] samples beyond it, capped at the
//! nominal percentile the metric is named after. With fewer samples than
//! the nominal percentile needs, the reported value silently tightens to
//! what the samples support, and [`tail_percentile`] tells the caller
//! which percentile that was.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The highest percentile (0..=100) of `count` samples that has at least
/// [`TAIL_SAMPLES`] samples strictly beyond it, capped at `nominal`.
/// `None` when there are too few samples for any tail at all.
pub fn tail_percentile(count: usize, nominal: f64) -> Option<f64> {
    if count <= TAIL_SAMPLES {
        return None;
    }
    let supported = 100.0 * (1.0 - TAIL_SAMPLES as f64 / count as f64);
    Some(supported.min(nominal))
}

/// The `p`-th percentile (0..=100) of ascending `sorted` samples, by
/// nearest rank: the smallest sample with at least `p`% of the samples
/// at or below it. `+∞` samples (failed operations) sort last and are
/// returned as such when the rank reaches them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // The epsilon keeps float noise (p = 100 × (1 − 10/11) lands a hair
    // above 1/11) from bumping the rank one past the intended sample.
    let rank = (p / 100.0 * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of ascending `sorted` samples (mean of the middle pair for an
/// even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Sorts samples ascending (NaN-free input; `+∞` last).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median and tail (at most `nominal`) of a sample set, plus the tail
/// percentile actually used. `None` for an empty set.
pub fn summarize(samples: Vec<f64>, nominal: f64) -> Option<(f64, f64, f64)> {
    if samples.is_empty() {
        return None;
    }
    let s = sorted(samples);
    let p = tail_percentile(s.len(), nominal).unwrap_or(50.0);
    Some((median(&s), percentile(&s, p), p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond.
        assert_eq!(tail_percentile(1000, 99.0), Some(99.0));
        // More samples never raise it past the nominal cap.
        assert_eq!(tail_percentile(100_000, 99.0), Some(99.0));
        // 500 samples only support p98.
        let p = tail_percentile(500, 99.0).unwrap();
        assert!((p - 98.0).abs() < 1e-9, "{p}");
        // The chosen percentile really leaves >= 10 samples beyond it.
        for count in [11usize, 57, 200, 999, 1000, 1001, 4321] {
            let p = tail_percentile(count, 99.0).unwrap();
            let samples: Vec<f64> = (0..count).map(|i| i as f64).collect();
            let v = percentile(&samples, p);
            let beyond = samples.iter().filter(|&&x| x > v).count();
            assert!(beyond >= TAIL_SAMPLES, "count {count}: p{p} leaves {beyond} beyond");
        }
        assert_eq!(tail_percentile(10, 99.0), None);
        assert_eq!(tail_percentile(0, 99.0), None);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(median(&s), 50.5);
        assert_eq!(median(&[3.0]), 3.0);
    }

    #[test]
    fn failed_samples_enter_the_tail_as_infinite() {
        let mut samples: Vec<f64> = (0..990).map(|i| 1.0 + f64::from(i) / 1000.0).collect();
        samples.extend(std::iter::repeat_n(f64::INFINITY, 10));
        let (p50, p99, p) = summarize(samples.clone(), 99.0).unwrap();
        assert_eq!(p, 99.0);
        assert!(p50.is_finite());
        assert!(p99.is_finite(), "exactly 10 failures sit beyond p99");
        samples.push(f64::INFINITY);
        let (_, p99, _) = summarize(samples, 99.0).unwrap();
        assert!(p99.is_infinite(), "an 11th failure reaches the reported tail");
    }
}
