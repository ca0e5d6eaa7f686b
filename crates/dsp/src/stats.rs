//! Descriptive statistics.
//!
//! These routines back the feature-extraction stage (paper §III-A).

use crate::error::DspError;

/// Arithmetic mean of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let m = seizure_dsp::stats::mean(&[1.0, 2.0, 3.0, 4.0])?;
/// assert_eq!(m, 2.5);
/// # Ok(())
/// # }
/// ```
pub fn mean(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput { operation: "mean" });
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population variance of `data` (normalized by `n`).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn variance(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Population standard deviation of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn std_dev(data: &[f64]) -> Result<f64, DspError> {
    Ok(variance(data)?.sqrt())
}

/// Minimum and maximum of `data` as a `(min, max)` pair.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn min_max(data: &[f64]) -> Result<(f64, f64), DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "min_max",
        });
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &x in data {
        if x < lo {
            lo = x;
        }
        if x > hi {
            hi = x;
        }
    }
    Ok((lo, hi))
}

/// Median of `data` (average of the two central values for even lengths).
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn median(data: &[f64]) -> Result<f64, DspError> {
    percentile(data, 50.0)
}

/// Linearly interpolated percentile of `data`, with `p` in `[0, 100]`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty and
/// [`DspError::InvalidParameter`] if `p` is outside `[0, 100]` or NaN.
pub fn percentile(data: &[f64], p: f64) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "percentile",
        });
    }
    if !(0.0..=100.0).contains(&p) || p.is_nan() {
        return Err(DspError::InvalidParameter {
            name: "p",
            reason: format!("percentile must lie in [0, 100], got {p}"),
        });
    }
    // `total_cmp` keeps the rank order deterministic when the signal carries
    // NaN (sorted to the ends as the worst-ranked values); the former
    // `Equal` fallback produced an arbitrarily mis-sorted buffer. A NaN
    // still occupies a rank — top-end percentiles interpolate against it —
    // but the finite samples now stay properly ordered.
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Ok(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Skewness (third standardized moment) of `data`.
///
/// Returns `0.0` for constant signals, whose standard deviation is zero.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn skewness(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    let sd = std_dev(data)?;
    if sd == 0.0 {
        return Ok(0.0);
    }
    let n = data.len() as f64;
    Ok(data.iter().map(|x| ((x - m) / sd).powi(3)).sum::<f64>() / n)
}

/// Excess kurtosis (fourth standardized moment minus 3) of `data`.
///
/// Returns `0.0` for constant signals.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn kurtosis(data: &[f64]) -> Result<f64, DspError> {
    let m = mean(data)?;
    let sd = std_dev(data)?;
    if sd == 0.0 {
        return Ok(0.0);
    }
    let n = data.len() as f64;
    Ok(data.iter().map(|x| ((x - m) / sd).powi(4)).sum::<f64>() / n - 3.0)
}

/// Root mean square of `data`.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty.
pub fn rms(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput { operation: "rms" });
    }
    Ok((data.iter().map(|x| x * x).sum::<f64>() / data.len() as f64).sqrt())
}

/// Geometric mean of strictly positive values, the "only correct average of
/// normalized values" the paper cites (Fleming & Wallace, 1986). Values are
/// clamped to a tiny positive floor so that a single zero does not collapse the
/// whole average to zero.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if `data` is empty and
/// [`DspError::InvalidParameter`] if any value is negative or NaN.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let g = seizure_dsp::stats::geometric_mean(&[1.0, 4.0, 16.0])?;
/// assert!((g - 4.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn geometric_mean(data: &[f64]) -> Result<f64, DspError> {
    if data.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "geometric_mean",
        });
    }
    const FLOOR: f64 = 1e-12;
    let mut log_sum = 0.0;
    for &x in data {
        if x < 0.0 || x.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "data",
                reason: format!("geometric mean requires non-negative values, got {x}"),
            });
        }
        log_sum += x.max(FLOOR).ln();
    }
    Ok((log_sum / data.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basic() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&data).unwrap() - 5.0).abs() < 1e-12);
        assert!((variance(&data).unwrap() - 4.0).abs() < 1e-12);
        assert!((std_dev(&data).unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(rms(&[]).is_err());
        assert!(min_max(&[]).is_err());
        assert!(geometric_mean(&[]).is_err());
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5);
    }

    #[test]
    fn percentile_bounds_and_interpolation() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert_eq!(percentile(&data, 100.0).unwrap(), 5.0);
        assert_eq!(percentile(&data, 25.0).unwrap(), 2.0);
        assert!(percentile(&data, -1.0).is_err());
        assert!(percentile(&data, 101.0).is_err());
    }

    /// Regression for the NaN-unsafe rank sort: a NaN sample must sort to
    /// the worst (top) end deterministically — no panic, and the ranks of
    /// the finite samples stay intact instead of being scrambled by the
    /// former `Equal` fallback.
    #[test]
    fn percentile_tolerates_nan_samples() {
        let data = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median(&data).unwrap(), 2.5);
        assert_eq!(percentile(&data, 0.0).unwrap(), 1.0);
        assert!(percentile(&data, 100.0).unwrap().is_nan());
        assert!(median(&[f64::NAN]).unwrap().is_nan());
    }

    #[test]
    fn skewness_of_symmetric_data_is_zero() {
        let data = [-2.0, -1.0, 0.0, 1.0, 2.0];
        assert!(skewness(&data).unwrap().abs() < 1e-12);
        assert_eq!(skewness(&[1.0; 8]).unwrap(), 0.0);
    }

    #[test]
    fn kurtosis_of_constant_is_zero() {
        assert_eq!(kurtosis(&[2.0; 16]).unwrap(), 0.0);
    }

    #[test]
    fn rms_of_known_signal() {
        assert!((rms(&[3.0, 4.0]).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_matches_arithmetic_for_equal_values() {
        assert!((geometric_mean(&[7.0; 5]).unwrap() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_rejects_negatives() {
        assert!(geometric_mean(&[1.0, -0.5]).is_err());
    }

    #[test]
    fn geometric_mean_handles_zero_via_floor() {
        let g = geometric_mean(&[0.0, 1.0]).unwrap();
        assert!((0.0..1.0).contains(&g));
    }
}
