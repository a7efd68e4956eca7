//! Order statistics for the benchmark's reports. Percentiles are whole
//! numbers so that ranks are computed exactly.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `pct` percent of the samples at or below it.
///
/// # Panics
/// Panics on an empty slice or a `pct` above 100.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(pct <= 100, "percentile {pct} above 100");
    sorted[rank(sorted.len(), pct) - 1]
}

/// 1-based nearest rank of percentile `pct` among `n >= 1` samples.
fn rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).clamp(1, n)
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n`.
pub fn beyond(n: usize, pct: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The tail percentile to report for `n` samples: the highest of 90, 85,
/// …, 50 that keeps at least [`TAIL_MIN_BEYOND`] samples beyond it.
/// Below 20 samples none qualifies and the median (50) stands in.
pub fn tail_percentile(n: usize) -> usize {
    (50..=90)
        .rev()
        .step_by(5)
        .find(|&pct| beyond(n, pct) >= TAIL_MIN_BEYOND)
        .unwrap_or(50)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Ascending copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Latency summary: the median and the [`tail_percentile`] value (the
/// median itself when no tail percentile qualifies).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples the percentiles were taken over.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile `tail` is.
    pub tail_pct: usize,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Latency {
    /// Summarise unsorted samples.
    ///
    /// # Panics
    /// Panics on an empty slice.
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples);
        let tail_pct = tail_percentile(s.len());
        let p50 = median(&s);
        Latency {
            n: s.len(),
            p50,
            tail_pct,
            tail: if tail_pct == 50 {
                p50
            } else {
                percentile(&s, tail_pct)
            },
        }
    }
}
