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
        let col = matrix.column(c);
        let mean = stats::mean(&col)?;
        let std = stats::std_dev(&col)?;
        for r in 0..out.num_windows() {
            let centred = out.get(r, c) - mean;
            *out.get_mut(r, c) = if std > 0.0 { centred / std } else { centred };
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
