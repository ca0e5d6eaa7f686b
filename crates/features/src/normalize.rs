//! Per-feature normalization of a feature matrix.
//!
//! Line 1 of the paper's Algorithm 1 normalizes each feature across the whole
//! signal: "the mean value, across the signal, of the corresponding feature is
//! subtracted and the result is divided by the standard deviation of the
//! feature". This module implements that transformation. The real-time
//! detector's forest needs no normalization: its splits are per-feature
//! thresholds, which a per-column affine map cannot move across a sample.

use crate::error::FeatureError;
use crate::matrix::FeatureMatrix;
use seizure_dsp::stats;

/// Normalizes each feature column of `matrix` to zero mean and unit standard
/// deviation (Algorithm 1, Line 1). Constant columns are only mean-centred.
///
/// The mean and standard deviation of a column are taken over its finite
/// entries only, and a non-finite entry (a window the extractor could not
/// score, e.g. one holding a NaN sample burst) normalizes to `0`, the
/// column mean: it adds no distance of its own instead of poisoning the
/// whole column. A column without finite entries becomes all zeros.
/// Matrices of finite values normalize exactly as before this rule.
///
/// # Errors
///
/// Returns [`FeatureError::DimensionMismatch`] if the matrix has no windows.
///
/// # Example
///
/// ```
/// use seizure_features::{FeatureMatrix, normalize::normalize_features};
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let m = FeatureMatrix::from_rows(
///     vec!["a".into()],
///     vec![vec![1.0], vec![2.0], vec![3.0]],
/// )?;
/// let z = normalize_features(&m)?;
/// assert!((z.column(0).iter().sum::<f64>()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn normalize_features(matrix: &FeatureMatrix) -> Result<FeatureMatrix, FeatureError> {
    if matrix.is_empty() {
        return Err(FeatureError::DimensionMismatch {
            detail: "cannot normalize an empty feature matrix".to_string(),
        });
    }
    let mut out = matrix.clone();
    for c in 0..matrix.num_features() {
        let mut finite = matrix.column(c);
        finite.retain(|v| v.is_finite());
        if finite.is_empty() {
            for r in 0..out.num_windows() {
                *out.get_mut(r, c) = 0.0;
            }
            continue;
        }
        let mean = stats::mean(&finite)?;
        let std = stats::std_dev(&finite)?;
        for r in 0..out.num_windows() {
            let value = out.get(r, c);
            let centred = value - mean;
            *out.get_mut(r, c) = if !value.is_finite() {
                0.0
            } else if std > 0.0 {
                centred / std
            } else {
                centred
            };
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureMatrix {
        FeatureMatrix::from_rows(
            vec!["a".into(), "b".into(), "const".into()],
            vec![
                vec![1.0, 10.0, 5.0],
                vec![2.0, 20.0, 5.0],
                vec![3.0, 30.0, 5.0],
                vec![4.0, 40.0, 5.0],
            ],
        )
        .unwrap()
    }

    #[test]
    fn normalized_columns_have_zero_mean_unit_std() {
        let z = normalize_features(&sample()).unwrap();
        for c in 0..2 {
            let col = z.column(c);
            assert!(stats::mean(&col).unwrap().abs() < 1e-12);
            assert!((stats::std_dev(&col).unwrap() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_becomes_zero_without_nan() {
        let z = normalize_features(&sample()).unwrap();
        assert!(z.column(2).iter().all(|v| v.abs() < 1e-12 && v.is_finite()));
    }

    #[test]
    fn non_finite_entries_neither_spread_nor_shift_the_column() {
        // NaN and ±∞ entries normalize to the column mean; the finite
        // entries normalize exactly as the finite rows alone would.
        let mut rows = sample().to_rows();
        let clean = normalize_features(&sample()).unwrap();
        rows.insert(1, vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
        let names = sample().feature_names().to_vec();
        let z =
            normalize_features(&FeatureMatrix::from_rows(names.clone(), rows).unwrap()).unwrap();
        assert_eq!(z.row(1), &[0.0, 0.0, 0.0]);
        for (r, clean_r) in [(0, 0), (2, 1), (3, 2), (4, 3)] {
            for c in 0..3 {
                assert_eq!(z.get(r, c).to_bits(), clean.get(clean_r, c).to_bits());
            }
        }
        // A column with no finite entry becomes all zeros.
        let all_nan =
            FeatureMatrix::from_rows(names[..1].to_vec(), vec![vec![f64::NAN]; 3]).unwrap();
        assert!(normalize_features(&all_nan)
            .unwrap()
            .column(0)
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn empty_matrix_rejected() {
        let m = FeatureMatrix::with_names(vec!["a".into()]);
        assert!(normalize_features(&m).is_err());
    }

    #[test]
    fn normalization_is_idempotent_up_to_tolerance() {
        let z1 = normalize_features(&sample()).unwrap();
        let z2 = normalize_features(&z1).unwrap();
        for r in 0..z1.num_windows() {
            for c in 0..z1.num_features() {
                assert!((z1.get(r, c) - z2.get(r, c)).abs() < 1e-9);
            }
        }
    }
}
