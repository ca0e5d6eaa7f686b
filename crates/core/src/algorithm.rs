//! Algorithm 1: a-posteriori epileptic seizure detection.
//!
//! The algorithm receives the feature matrix `X[L][F]` (one row per sliding
//! window of the EEG signal) and the window length `W` (the patient's average
//! seizure duration expressed in feature-matrix rows). It slides a window of
//! `W` rows over the matrix and, for each position, accumulates the mean
//! absolute per-feature difference between the rows inside the window and every
//! fourth row outside it. The Euclidean norm of that per-feature distance
//! vector gives a single distance per position; the position with the maximum
//! distance is labeled as the seizure.
//!
//! Line 1 of the pseudo-code z-normalizes every feature across the signal
//! (over its finite values; see [`normalize_features`]). The distances are
//! then computed in `O(L · W · F · (log L + W / s))` with sorted prefix sums
//! over the subsampled rows instead of the pseudo-code's literal
//! `O(L² · W · F)` loops, which makes the full-scale experiments tractable;
//! a test-only transcription of the pseudo-code is the oracle they match.

use crate::error::CoreError;
use seizure_features::normalize::normalize_features;
use seizure_features::FeatureMatrix;

/// Configuration of the a-posteriori detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Subsampling step for the points outside the window (the paper uses every
    /// fourth point because consecutive windows overlap by 75 %).
    pub subsample_step: usize,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        Self { subsample_step: 4 }
    }
}

/// Result of running Algorithm 1 on a feature matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Detection {
    /// Index `y` of the window (feature-matrix row) where the detected seizure
    /// starts.
    pub window_index: usize,
    /// The window length `W` in feature-matrix rows the detection was run with.
    pub window_length: usize,
    /// Distance value for every candidate position (`L - W` entries).
    pub distances: Vec<f64>,
}

impl Detection {
    /// The maximum distance value (the score of the detected position).
    pub fn peak_distance(&self) -> f64 {
        self.distances[self.window_index]
    }

    /// Range of feature-matrix rows labeled as seizure: `[y, y + W)`.
    pub fn labeled_rows(&self) -> std::ops::Range<usize> {
        self.window_index..self.window_index + self.window_length
    }
}

/// Runs Algorithm 1 on `features` with a seizure window of `window_length` rows.
///
/// # Errors
///
/// Returns [`CoreError::InvalidParameter`] if `window_length` or the
/// subsampling step is zero, and [`CoreError::SignalTooShort`] if the matrix
/// does not contain strictly more rows than `window_length`.
///
/// # Example
///
/// ```
/// use seizure_core::algorithm::{posteriori_detect, DetectorConfig};
/// use seizure_features::FeatureMatrix;
///
/// # fn main() -> Result<(), seizure_core::CoreError> {
/// // 30 windows with one feature; rows 10..15 are strongly different.
/// let rows: Vec<Vec<f64>> = (0..30)
///     .map(|i| vec![if (10..15).contains(&i) { 8.0 } else { 0.0 }])
///     .collect();
/// let matrix = FeatureMatrix::from_rows(vec!["f".into()], rows)?;
/// let detection = posteriori_detect(&matrix, 5, &DetectorConfig::default())?;
/// assert_eq!(detection.window_index, 10);
/// # Ok(())
/// # }
/// ```
pub fn posteriori_detect(
    features: &FeatureMatrix,
    window_length: usize,
    config: &DetectorConfig,
) -> Result<Detection, CoreError> {
    if window_length == 0 {
        return Err(CoreError::InvalidParameter {
            name: "window_length",
            reason: "the seizure window must span at least one feature row".to_string(),
        });
    }
    if config.subsample_step == 0 {
        return Err(CoreError::InvalidParameter {
            name: "subsample_step",
            reason: "the subsampling step must be at least 1".to_string(),
        });
    }
    let rows = features.num_windows();
    if rows <= window_length {
        return Err(CoreError::SignalTooShort {
            detail: format!(
                "the feature matrix has {rows} rows but the seizure window alone spans {window_length}"
            ),
        });
    }

    let matrix = normalize_features(features)?;
    let distances = optimized_distances(&matrix, window_length, config.subsample_step);
    Ok(Detection {
        window_index: peak_index(&distances),
        window_length,
        distances,
    })
}

/// Index of the largest distance, NaN ranked *worst*: a candidate whose
/// distance a NaN poisoned must never outrank a finite one. (A
/// `partial_cmp` fallback to `Equal` lets a NaN candidate late in the
/// profile displace the true peak, silently mislabeling the seizure.) Ties
/// go to the last candidate.
fn peak_index(distances: &[f64]) -> usize {
    distances
        .iter()
        .enumerate()
        .max_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
            (true, true) => std::cmp::Ordering::Equal,
            (true, false) => std::cmp::Ordering::Less,
            (false, true) => std::cmp::Ordering::Greater,
            (false, false) => a.1.total_cmp(b.1),
        })
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// The distance profile of a normalized matrix, prefix-sum accelerated.
///
/// For each feature, the subsampled rows (`0, s, 2s, …`) are sorted once so
/// that `Σ_k |v - X[k]|` over **all** subsampled rows can be answered per query
/// in `O(log L)`. The contribution of subsampled rows that fall *inside* the
/// current window is then subtracted directly (there are at most `W / s + 1` of
/// them), which reproduces the pseudo-code's sums up to rounding.
fn optimized_distances(matrix: &FeatureMatrix, w_len: usize, step: usize) -> Vec<f64> {
    let rows = matrix.num_windows();
    let features = matrix.num_features();
    let candidates = rows - w_len;
    let norm_outside = ((rows - w_len) as f64 / step as f64).max(1.0);

    // Subsampled row indices (the `k` loop of the pseudo-code).
    let grid: Vec<usize> = (0..rows).step_by(step).collect();

    // Per feature: sorted grid values plus prefix sums.
    struct FeatureIndex {
        sorted: Vec<f64>,
        prefix: Vec<f64>,
    }
    let mut index = Vec::with_capacity(features);
    for f in 0..features {
        // `total_cmp` keeps the prefix-sum index totally ordered even when a
        // corrupted feature column carries NaN (the former `Equal` fallback
        // produced an arbitrarily mis-sorted index, skewing every query).
        let mut sorted: Vec<f64> = grid.iter().map(|&k| matrix.get(k, f)).collect();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut prefix = Vec::with_capacity(sorted.len() + 1);
        prefix.push(0.0);
        for v in &sorted {
            prefix.push(prefix.last().unwrap() + v);
        }
        index.push(FeatureIndex { sorted, prefix });
    }

    // Σ over all grid rows of |v - x| for one feature, in O(log G).
    let sum_abs_all = |f: usize, v: f64| -> f64 {
        let fi = &index[f];
        let n = fi.sorted.len();
        let pos = fi.sorted.partition_point(|x| *x <= v);
        let below = v * pos as f64 - fi.prefix[pos];
        let above = (fi.prefix[n] - fi.prefix[pos]) - v * (n - pos) as f64;
        below + above
    };

    let mut distances = Vec::with_capacity(candidates);
    for i in 0..candidates {
        // Grid rows inside the window [i, i + w_len).
        let first_inside = i.div_ceil(step) * step;
        let inside_grid: Vec<usize> = (first_inside..i + w_len).step_by(step).collect();

        let mut distance_vector = vec![0.0; features];
        for w in 0..w_len {
            let inside = matrix.row(i + w);
            for f in 0..features {
                let v = inside[f];
                let mut total = sum_abs_all(f, v);
                for &k in &inside_grid {
                    total -= (v - matrix.get(k, f)).abs();
                }
                distance_vector[f] += total / norm_outside;
            }
        }
        let norm: f64 = distance_vector
            .iter()
            .map(|v| {
                let v = v / w_len as f64;
                v * v
            })
            .sum::<f64>()
            .sqrt();
        distances.push(norm);
    }
    distances
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::algorithm1_distances;

    fn matrix_with_anomaly(
        rows: usize,
        anomaly: std::ops::Range<usize>,
        strength: f64,
    ) -> FeatureMatrix {
        let data: Vec<Vec<f64>> = (0..rows)
            .map(|i| {
                let base = (i as f64 * 0.7).sin() * 0.3;
                let spike = if anomaly.contains(&i) { strength } else { 0.0 };
                vec![
                    base + spike,
                    base * 0.5 - spike,
                    (i as f64 * 0.31).cos() * 0.2,
                ]
            })
            .collect();
        FeatureMatrix::from_rows(vec!["a".into(), "b".into(), "c".into()], data).unwrap()
    }

    #[test]
    fn detects_an_obvious_anomaly() {
        let matrix = matrix_with_anomaly(120, 40..60, 6.0);
        let detection = posteriori_detect(&matrix, 20, &DetectorConfig::default()).unwrap();
        assert!((38..=42).contains(&detection.window_index));
        assert_eq!(detection.labeled_rows().len(), 20);
        assert!(detection.peak_distance() > 0.0);
        assert_eq!(detection.distances.len(), 100);
    }

    #[test]
    fn reference_and_optimized_agree() {
        for (rows, w, step) in [(60, 10, 4), (75, 13, 4), (50, 7, 3), (64, 16, 1)] {
            let matrix = matrix_with_anomaly(rows, (rows / 3)..(rows / 3 + w), 4.0);
            let reference = algorithm1_distances(&matrix, w, step);
            let optimized = posteriori_detect(
                &matrix,
                w,
                &DetectorConfig {
                    subsample_step: step,
                },
            )
            .unwrap();
            assert_eq!(peak_index(&reference), optimized.window_index);
            for (a, b) in reference.iter().zip(optimized.distances.iter()) {
                assert!((a - b).abs() < 1e-9, "rows={rows} w={w} step={step}");
            }
        }
    }

    /// Regression for the NaN-unsafe peak selection: a profile with NaN
    /// candidates after the true peak. The former
    /// `partial_cmp().unwrap_or(Equal)` fold let the last NaN candidate
    /// displace the real peak; NaN must rank worst, without panicking.
    #[test]
    fn nan_candidates_never_win_the_peak() {
        let mut distances = vec![0.5; 25];
        distances[10] = 3.0;
        for d in &mut distances[21..25] {
            *d = f64::NAN;
        }
        assert_eq!(peak_index(&distances), 10);
        assert_eq!(peak_index(&[f64::NAN, f64::NAN]), 1);
        assert_eq!(peak_index(&[]), 0);
    }

    /// A non-finite feature value used to turn its whole column NaN in
    /// Line 1, every distance with it, and the peak onto the last
    /// candidate. It now normalizes to the column mean: every distance
    /// stays finite and the seizure is still found.
    #[test]
    fn nan_features_never_win_the_detection() {
        for poison in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut data: Vec<Vec<f64>> = (0..30)
                .map(|i| vec![if (10..15).contains(&i) { 8.0 } else { 0.0 }])
                .collect();
            data[25][0] = poison;
            let matrix = FeatureMatrix::from_rows(vec!["f".into()], data).unwrap();
            let detection = posteriori_detect(&matrix, 5, &DetectorConfig::default()).unwrap();
            assert_eq!(detection.window_index, 10, "{poison}");
            assert!(
                detection.distances.iter().all(|d| d.is_finite()),
                "{poison}: a non-finite feature poisoned the profile"
            );
            let reference = algorithm1_distances(&matrix, 5, 4);
            for (a, b) in reference.iter().zip(&detection.distances) {
                assert!((a - b).abs() < 1e-9, "{poison}");
            }
        }
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let matrix = matrix_with_anomaly(50, 10..20, 3.0);
        assert!(posteriori_detect(&matrix, 0, &DetectorConfig::default()).is_err());
        assert!(posteriori_detect(&matrix, 50, &DetectorConfig::default()).is_err());
        assert!(posteriori_detect(&matrix, 60, &DetectorConfig::default()).is_err());
        let bad_step = DetectorConfig { subsample_step: 0 };
        assert!(posteriori_detect(&matrix, 10, &bad_step).is_err());
    }

    #[test]
    fn anomaly_at_the_very_start_and_end() {
        let start = matrix_with_anomaly(90, 0..15, 5.0);
        let det = posteriori_detect(&start, 15, &DetectorConfig::default()).unwrap();
        assert!(det.window_index <= 2);

        let end = matrix_with_anomaly(90, 75..90, 5.0);
        let det = posteriori_detect(&end, 15, &DetectorConfig::default()).unwrap();
        assert!(det.window_index >= 72);
    }

    #[test]
    fn distance_profile_peaks_at_the_anomaly_and_decays_away() {
        let matrix = matrix_with_anomaly(150, 60..80, 5.0);
        let det = posteriori_detect(&matrix, 20, &DetectorConfig::default()).unwrap();
        let far_away = det.distances[5];
        let at_peak = det.distances[det.window_index];
        assert!(at_peak > 2.0 * far_away);
    }

    #[test]
    fn window_length_one_is_supported() {
        let matrix = matrix_with_anomaly(40, 20..21, 8.0);
        let det = posteriori_detect(&matrix, 1, &DetectorConfig::default()).unwrap();
        assert_eq!(det.window_index, 20);
    }

    #[test]
    fn normalization_makes_detection_scale_invariant() {
        // Multiply one feature by a huge constant: with normalization the
        // detected position must not change.
        let matrix = matrix_with_anomaly(100, 40..55, 4.0);
        let mut scaled_rows = matrix.to_rows();
        for row in &mut scaled_rows {
            row[2] *= 1e6;
        }
        let scaled =
            FeatureMatrix::from_rows(matrix.feature_names().to_vec(), scaled_rows).unwrap();
        let a = posteriori_detect(&matrix, 15, &DetectorConfig::default()).unwrap();
        let b = posteriori_detect(&scaled, 15, &DetectorConfig::default()).unwrap();
        assert_eq!(a.window_index, b.window_index);
    }
}
