//! Per-window statistical descriptors (mean, variance, skewness, kurtosis,
//! RMS) used by the rich feature set of the real-time detector.

use crate::error::FeatureError;

/// Statistical summary of one analysis window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct WindowStatistics {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population variance.
    pub variance: f64,
    /// Skewness (third standardized moment).
    pub skewness: f64,
    /// Excess kurtosis (fourth standardized moment minus 3).
    pub kurtosis: f64,
    /// Root mean square.
    pub rms: f64,
}

/// Computes the statistical summary of `window` in three data passes: the
/// mean, then the central second moment with the raw power sum, then the
/// standardized third and fourth moments. Used by the batch
/// feature-extraction engine.
///
/// # Errors
///
/// Returns [`FeatureError::SignalTooShort`] if the window is empty.
///
/// # Example
///
/// ```
/// use seizure_features::statistics::window_statistics_fused;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let s = window_statistics_fused(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(s.mean, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn window_statistics_fused(window: &[f64]) -> Result<WindowStatistics, FeatureError> {
    if window.is_empty() {
        return Err(FeatureError::SignalTooShort {
            actual: 0,
            required: 1,
        });
    }
    let n = window.len() as f64;
    let mean = window.iter().sum::<f64>() / n;
    let mut m2 = 0.0;
    let mut sq = 0.0;
    for &x in window {
        let d = x - mean;
        m2 += d * d;
        sq += x * x;
    }
    let variance = m2 / n;
    let rms = (sq / n).sqrt();
    let sd = variance.sqrt();
    let (skewness, kurtosis) = if sd == 0.0 {
        (0.0, 0.0)
    } else {
        let mut s3 = 0.0;
        let mut s4 = 0.0;
        for &x in window {
            let t = (x - mean) / sd;
            let t2 = t * t;
            s3 += t2 * t;
            s4 += t2 * t2;
        }
        (s3 / n, s4 / n - 3.0)
    };
    Ok(WindowStatistics {
        mean,
        variance,
        skewness,
        kurtosis,
        rms,
    })
}

/// Mergeable running central-moment summary: count, mean and the second to
/// fourth central moment sums (`M2 = Σ(x−μ)²`, `M3`, `M4`).
///
/// This is the per-hop building block of the streaming feature extractor:
/// each 1-s hop of a sliding window is summarized once, and every 4-s window
/// that covers the hop merges the summaries instead of rescanning the
/// samples. Merging uses the pairwise update of Chan et al. (1979), which is
/// numerically stable under the large DC offsets the hostile-scenario
/// generator produces (raw power sums Σx⁴ would cancel catastrophically
/// there). Merged results agree with the batch two-pass
/// [`window_statistics_fused`] to floating-point rounding, not bit-exactly —
/// the documented bounded-error part of the streaming equivalence model.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MomentSummary {
    count: f64,
    mean: f64,
    m2: f64,
    m3: f64,
    m4: f64,
}

impl MomentSummary {
    /// Summarizes a slice in two passes (exact mean, then central sums).
    // lint: hot-path
    pub fn from_slice(data: &[f64]) -> Self {
        if data.is_empty() {
            return Self::default();
        }
        let count = data.len() as f64;
        let mean = data.iter().sum::<f64>() / count;
        let (mut m2, mut m3, mut m4) = (0.0, 0.0, 0.0);
        for &x in data {
            let d = x - mean;
            let d2 = d * d;
            m2 += d2;
            m3 += d2 * d;
            m4 += d2 * d2;
        }
        Self {
            count,
            mean,
            m2,
            m3,
            m4,
        }
    }

    /// Merges two summaries as if their underlying samples were concatenated
    /// (Chan et al. pairwise moment combination).
    // lint: hot-path
    pub fn merge(self, other: Self) -> Self {
        if other.count == 0.0 {
            return self;
        }
        if self.count == 0.0 {
            return other;
        }
        let (na, nb) = (self.count, other.count);
        let n = na + nb;
        let delta = other.mean - self.mean;
        let d2 = delta * delta;
        let mean = self.mean + delta * nb / n;
        let m2 = self.m2 + other.m2 + d2 * na * nb / n;
        let m3 = self.m3
            + other.m3
            + d2 * delta * na * nb * (na - nb) / (n * n)
            + 3.0 * delta * (na * other.m2 - nb * self.m2) / n;
        let m4 = self.m4
            + other.m4
            + d2 * d2 * na * nb * (na * na - na * nb + nb * nb) / (n * n * n)
            + 6.0 * d2 * (na * na * other.m2 + nb * nb * self.m2) / (n * n)
            + 4.0 * delta * (na * other.m3 - nb * self.m3) / n;
        Self {
            count: n,
            mean,
            m2,
            m3,
            m4,
        }
    }

    /// Folds one sample into the summary (the singleton case of
    /// [`MomentSummary::merge`], hand-simplified). Used for the hop-boundary
    /// difference terms of the streaming Hjorth operator.
    // lint: hot-path
    pub fn push(&mut self, x: f64) {
        let na = self.count;
        let n = na + 1.0;
        let delta = x - self.mean;
        let d2 = delta * delta;
        self.m4 += d2 * d2 * na * (na * na - na + 1.0) / (n * n * n) + 6.0 * d2 * self.m2 / (n * n)
            - 4.0 * delta * self.m3 / n;
        self.m3 += d2 * delta * na * (na - 1.0) / (n * n) - 3.0 * delta * self.m2 / n;
        self.m2 += d2 * na / n;
        self.mean += delta / n;
        self.count = n;
    }

    /// Number of samples summarized.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Arithmetic mean of the summarized samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sum of squared deviations from the mean (`Σ(x−μ)²`), the numerator
    /// shared by the population variance and the Hjorth activity/mobility
    /// ratios.
    pub fn sum_sq_dev(&self) -> f64 {
        self.m2
    }

    /// Population variance (`M2 / n`; 0 for an empty summary).
    pub fn variance(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.m2 / self.count
        }
    }

    /// The same `(mean, variance, skewness, kurtosis, rms)` summary as
    /// [`window_statistics_fused`], computed from the merged moments plus the
    /// separately accumulated raw power sum `sum_sq = Σx²` (the RMS is not a
    /// central moment). Degenerate guards match the batch path: a zero
    /// standard deviation yields zero skewness and kurtosis.
    // lint: hot-path
    pub fn statistics(&self, sum_sq: f64) -> WindowStatistics {
        let n = self.count.max(1.0);
        let variance = self.m2 / n;
        let sd = variance.sqrt();
        let (skewness, kurtosis) = if sd == 0.0 {
            (0.0, 0.0)
        } else {
            let s3 = sd * sd * sd;
            (self.m3 / (n * s3), self.m4 / (n * s3 * sd) - 3.0)
        };
        WindowStatistics {
            mean: self.mean,
            variance,
            skewness,
            kurtosis,
            rms: (sum_sq / n).sqrt(),
        }
    }
}

/// Second-order-only sibling of [`MomentSummary`] for the streaming Hjorth
/// difference chains, which consume nothing beyond the variance.
///
/// Carries count, mean and `M2 = Σ(x−μ)²`. The [`SpreadSummary::push`] and
/// [`SpreadSummary::merge`] arithmetic copies [`MomentSummary`]'s mean/M2
/// expressions term for term — chaining either type over the same samples
/// yields bit-identical variances — but skips the third- and fourth-moment
/// updates (six extra divisions per sample) that the Hjorth mobility and
/// complexity ratios never read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SpreadSummary {
    count: f64,
    mean: f64,
    m2: f64,
}

impl SpreadSummary {
    /// Summarizes the first differences `x[i+1] − x[i]` of `data` in two
    /// passes without materializing them: the difference sum telescopes to
    /// `x[n−1] − x[0]` (exact mean in one subtraction), and the second pass
    /// accumulates squared deviations directly — no per-sample division,
    /// unlike a push chain.
    // lint: hot-path
    pub fn from_first_differences(data: &[f64]) -> Self {
        if data.len() < 2 {
            return Self::default();
        }
        let count = (data.len() - 1) as f64;
        let mean = (data[data.len() - 1] - data[0]) / count;
        let mut m2 = 0.0;
        for pair in data.windows(2) {
            let d = (pair[1] - pair[0]) - mean;
            m2 += d * d;
        }
        Self { count, mean, m2 }
    }

    /// Summarizes the second differences `(x[i+2]−x[i+1]) − (x[i+1]−x[i])`
    /// of `data`; their sum telescopes to `(x[n−1]−x[n−2]) − (x[1]−x[0])`.
    // lint: hot-path
    pub fn from_second_differences(data: &[f64]) -> Self {
        let n = data.len();
        if n < 3 {
            return Self::default();
        }
        let count = (n - 2) as f64;
        let mean = ((data[n - 1] - data[n - 2]) - (data[1] - data[0])) / count;
        let mut m2 = 0.0;
        for triple in data.windows(3) {
            let d = ((triple[2] - triple[1]) - (triple[1] - triple[0])) - mean;
            m2 += d * d;
        }
        Self { count, mean, m2 }
    }

    /// Folds one sample in — [`MomentSummary::push`]'s mean/M2 lines,
    /// verbatim. Used for the hop-boundary difference terms.
    // lint: hot-path
    pub fn push(&mut self, x: f64) {
        let na = self.count;
        let n = na + 1.0;
        let delta = x - self.mean;
        let d2 = delta * delta;
        self.m2 += d2 * na / n;
        self.mean += delta / n;
        self.count = n;
    }

    /// Merges two summaries as if their samples were concatenated —
    /// [`MomentSummary::merge`]'s mean/M2 lines, verbatim.
    // lint: hot-path
    pub fn merge(self, other: Self) -> Self {
        if other.count == 0.0 {
            return self;
        }
        if self.count == 0.0 {
            return other;
        }
        let (na, nb) = (self.count, other.count);
        let n = na + nb;
        let delta = other.mean - self.mean;
        Self {
            count: n,
            mean: self.mean + delta * nb / n,
            m2: self.m2 + other.m2 + delta * delta * na * nb / n,
        }
    }

    /// Number of samples summarized.
    pub fn count(&self) -> f64 {
        self.count
    }

    /// Arithmetic mean of the summarized samples.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (`M2 / n`; 0 for an empty summary).
    pub fn variance(&self) -> f64 {
        if self.count == 0.0 {
            0.0
        } else {
            self.m2 / self.count
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::window_statistics;

    #[test]
    fn empty_window_rejected() {
        assert!(window_statistics_fused(&[]).is_err());
    }

    #[test]
    fn fused_matches_reference_statistics() {
        let mut state = 11u64;
        let window: Vec<f64> = (0..500)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
            })
            .collect();
        let a = window_statistics(&window).unwrap();
        let b = window_statistics_fused(&window).unwrap();
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.variance - b.variance).abs() < 1e-12 * (1.0 + a.variance.abs()));
        assert!((a.skewness - b.skewness).abs() < 1e-12);
        assert!((a.kurtosis - b.kurtosis).abs() < 1e-12);
        assert!((a.rms - b.rms).abs() < 1e-12);
        // Degenerate constant window agrees too.
        let constant = vec![3.0; 16];
        assert_eq!(
            window_statistics(&constant).unwrap(),
            window_statistics_fused(&constant).unwrap()
        );
    }

    #[test]
    fn summary_of_simple_data() {
        let s = window_statistics_fused(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!(s.rms > s.mean); // RMS exceeds mean for non-constant positive data
    }

    #[test]
    fn symmetric_data_has_zero_skewness() {
        let s = window_statistics_fused(&[-3.0, -1.0, 0.0, 1.0, 3.0]).unwrap();
        assert!(s.skewness.abs() < 1e-12);
    }

    #[test]
    fn constant_window_is_degenerate_but_finite() {
        let s = window_statistics_fused(&[4.0; 16]).unwrap();
        assert_eq!(s.variance, 0.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
        assert_eq!(s.rms, 4.0);
    }

    #[test]
    fn spiky_data_has_positive_kurtosis() {
        let mut data = vec![0.0; 100];
        data[50] = 10.0;
        let s = window_statistics_fused(&data).unwrap();
        assert!(s.kurtosis > 10.0);
    }

    fn lcg_window(n: usize, seed: u64, offset: f64) -> Vec<f64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                offset + ((state >> 11) as f64 / (1u64 << 53) as f64) * 20.0 - 10.0
            })
            .collect()
    }

    #[test]
    fn merged_hop_summaries_match_fused_statistics() {
        // Four 256-sample "hops" merged pairwise must reproduce the batch
        // two-pass statistics of the concatenated 1024-sample window.
        for offset in [0.0, 150.0, -1e4] {
            let window = lcg_window(1024, 0xFEED, offset);
            let sum_sq: f64 = window.iter().map(|x| x * x).sum();
            let merged = window
                .chunks(256)
                .map(MomentSummary::from_slice)
                .fold(MomentSummary::default(), MomentSummary::merge);
            let streamed = merged.statistics(sum_sq);
            let batch = window_statistics_fused(&window).unwrap();
            let tol = |b: f64| 1e-9 * (1.0 + b.abs());
            assert!(
                (streamed.mean - batch.mean).abs() < tol(batch.mean),
                "{offset}"
            );
            assert!(
                (streamed.variance - batch.variance).abs() < tol(batch.variance),
                "{offset}"
            );
            assert!((streamed.skewness - batch.skewness).abs() < tol(batch.skewness));
            assert!((streamed.kurtosis - batch.kurtosis).abs() < tol(batch.kurtosis));
            assert!((streamed.rms - batch.rms).abs() < tol(batch.rms));
        }
    }

    #[test]
    fn push_matches_singleton_merge() {
        let mut a = MomentSummary::from_slice(&[1.0, 4.0, -2.0, 7.5]);
        let b = a.merge(MomentSummary::from_slice(&[3.25]));
        a.push(3.25);
        assert!((a.mean() - b.mean()).abs() < 1e-12);
        assert!((a.sum_sq_dev() - b.sum_sq_dev()).abs() < 1e-12);
        assert_eq!(a.count(), b.count());
    }

    #[test]
    fn constant_hops_stay_exactly_degenerate() {
        // Railed (saturated) windows: every hop is constant, the merged
        // summary must report exactly zero variance so the degenerate
        // skewness/kurtosis guard fires like the batch path's.
        let hop = MomentSummary::from_slice(&[150.0; 256]);
        let merged = hop.merge(hop).merge(hop).merge(hop);
        assert_eq!(merged.variance(), 0.0);
        let s = merged.statistics(1024.0 * 150.0 * 150.0);
        assert_eq!(s.skewness, 0.0);
        assert_eq!(s.kurtosis, 0.0);
    }

    #[test]
    fn spread_summary_push_and_merge_are_bitwise_twins_of_moment_summary() {
        // Same chain of pushes and merges through both types: count, mean
        // and variance must agree exactly, since the reduced arithmetic
        // copies the full summary's mean/M2 expressions.
        let data = lcg_window(301, 0xBEEF, 42.0);
        let (head, tail) = data.split_at(150);
        let mut full_a = MomentSummary::default();
        let mut slim_a = SpreadSummary::default();
        for &x in head {
            full_a.push(x);
            slim_a.push(x);
        }
        let mut full_b = MomentSummary::default();
        let mut slim_b = SpreadSummary::default();
        for &x in tail {
            full_b.push(x);
            slim_b.push(x);
        }
        let full = full_a.merge(full_b);
        let slim = slim_a.merge(slim_b);
        assert_eq!(slim.count(), full.count());
        assert_eq!(slim.mean(), full.mean());
        assert_eq!(slim.variance(), full.variance());
    }

    #[test]
    fn difference_summaries_match_materialized_differences() {
        let data = lcg_window(257, 0xACE, -3.0);
        let d1: Vec<f64> = data.windows(2).map(|p| p[1] - p[0]).collect();
        let d2: Vec<f64> = data
            .windows(3)
            .map(|t| (t[2] - t[1]) - (t[1] - t[0]))
            .collect();
        let s1 = SpreadSummary::from_first_differences(&data);
        let s2 = SpreadSummary::from_second_differences(&data);
        let r1 = MomentSummary::from_slice(&d1);
        let r2 = MomentSummary::from_slice(&d2);
        assert_eq!(s1.count(), r1.count());
        assert_eq!(s2.count(), r2.count());
        // The telescoped mean reassociates the sum, so compare to rounding.
        assert!((s1.mean() - r1.mean()).abs() < 1e-12 * (1.0 + r1.mean().abs()));
        assert!((s1.variance() - r1.variance()).abs() < 1e-12 * (1.0 + r1.variance()));
        assert!((s2.mean() - r2.mean()).abs() < 1e-12 * (1.0 + r2.mean().abs()));
        assert!((s2.variance() - r2.variance()).abs() < 1e-12 * (1.0 + r2.variance()));
        // Degenerate lengths summarize to the empty identity.
        assert_eq!(
            SpreadSummary::from_first_differences(&[1.0]),
            SpreadSummary::default()
        );
        assert_eq!(
            SpreadSummary::from_second_differences(&[1.0, 2.0]),
            SpreadSummary::default()
        );
        assert_eq!(SpreadSummary::default().variance(), 0.0);
    }

    #[test]
    fn empty_summary_merges_as_identity() {
        let s = MomentSummary::from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(MomentSummary::default().merge(s), s);
        assert_eq!(s.merge(MomentSummary::default()), s);
        assert_eq!(MomentSummary::from_slice(&[]), MomentSummary::default());
        assert_eq!(MomentSummary::default().variance(), 0.0);
    }
}
