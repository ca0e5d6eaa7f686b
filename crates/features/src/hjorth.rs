//! Hjorth parameters (activity, mobility, complexity).
//!
//! Hjorth descriptors are part of the rich feature catalogue used by the
//! real-time random-forest detector; they characterize the variance and the
//! spectral spread of an EEG window using only time-domain differences.

use crate::error::FeatureError;

/// The three Hjorth descriptors of a window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HjorthParameters {
    /// Activity: variance of the signal.
    pub activity: f64,
    /// Mobility: standard deviation of the derivative over the standard
    /// deviation of the signal — an estimate of the mean frequency.
    pub mobility: f64,
    /// Complexity: mobility of the derivative over the mobility of the signal —
    /// an estimate of the bandwidth.
    pub complexity: f64,
}

/// Computes the Hjorth activity, mobility and complexity of `window` without
/// allocating: the first and second differences are streamed, not
/// materialized, and their means telescope to closed forms.
///
/// Degenerate inputs (constant signals) yield zero mobility and complexity.
///
/// # Errors
///
/// Returns [`FeatureError::SignalTooShort`] if the window has fewer than
/// three samples.
///
/// # Example
///
/// ```
/// use seizure_features::hjorth::hjorth_parameters_fused;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let window: Vec<f64> = (0..256).map(|i| (i as f64 * 0.1).sin()).collect();
/// let h = hjorth_parameters_fused(&window)?;
/// assert!(h.activity > 0.0);
/// assert!(h.mobility > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn hjorth_parameters_fused(window: &[f64]) -> Result<HjorthParameters, FeatureError> {
    let n = window.len();
    if n < 3 {
        return Err(FeatureError::SignalTooShort {
            actual: n,
            required: 3,
        });
    }
    let len = n as f64;
    let mean = window.iter().sum::<f64>() / len;
    // First differences d1[i] = x[i+1] - x[i] telescope to x[n-1] - x[0];
    // second differences telescope likewise.
    let mean_d1 = (window[n - 1] - window[0]) / (len - 1.0);
    let mean_d2 = ((window[n - 1] - window[n - 2]) - (window[1] - window[0])) / (len - 2.0);
    let mut m2 = 0.0;
    let mut m2_d1 = 0.0;
    let mut m2_d2 = 0.0;
    let mut prev = window[0];
    let mut prev_d1 = f64::NAN;
    for (i, &x) in window.iter().enumerate() {
        let d = x - mean;
        m2 += d * d;
        if i >= 1 {
            let d1 = x - prev;
            let dev = d1 - mean_d1;
            m2_d1 += dev * dev;
            if i >= 2 {
                let d2 = d1 - prev_d1;
                let dev2 = d2 - mean_d2;
                m2_d2 += dev2 * dev2;
            }
            prev_d1 = d1;
        }
        prev = x;
    }
    let activity = m2 / len;
    let var_d1 = m2_d1 / (len - 1.0);
    let var_d2 = m2_d2 / (len - 2.0);
    let mobility = if activity > 0.0 {
        (var_d1 / activity).sqrt()
    } else {
        0.0
    };
    let mobility_d1 = if var_d1 > 0.0 {
        (var_d2 / var_d1).sqrt()
    } else {
        0.0
    };
    let complexity = if mobility > 0.0 {
        mobility_d1 / mobility
    } else {
        0.0
    };
    Ok(HjorthParameters {
        activity,
        mobility,
        complexity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::hjorth_parameters;

    fn tone(freq: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn fused_matches_reference_hjorth() {
        let mut state = 5u64;
        let noisy: Vec<f64> = (0..800)
            .map(|i| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (i as f64 * 0.05).sin() + ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
            })
            .collect();
        for window in [tone(4.0, 256.0, 512), noisy, vec![2.0; 32]] {
            let a = hjorth_parameters(&window).unwrap();
            let b = hjorth_parameters_fused(&window).unwrap();
            assert!((a.activity - b.activity).abs() < 1e-10 * (1.0 + a.activity.abs()));
            assert!((a.mobility - b.mobility).abs() < 1e-10 * (1.0 + a.mobility.abs()));
            assert!((a.complexity - b.complexity).abs() < 1e-10 * (1.0 + a.complexity.abs()));
        }
        assert!(hjorth_parameters_fused(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn too_short_window_is_rejected() {
        assert!(hjorth_parameters_fused(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn constant_signal_has_zero_descriptors() {
        let h = hjorth_parameters_fused(&[5.0; 64]).unwrap();
        assert_eq!(h.activity, 0.0);
        assert_eq!(h.mobility, 0.0);
        assert_eq!(h.complexity, 0.0);
    }

    #[test]
    fn activity_scales_with_amplitude_squared() {
        let x = tone(5.0, 256.0, 1024);
        let x2: Vec<f64> = x.iter().map(|v| 2.0 * v).collect();
        let h1 = hjorth_parameters_fused(&x).unwrap();
        let h2 = hjorth_parameters_fused(&x2).unwrap();
        assert!((h2.activity / h1.activity - 4.0).abs() < 1e-9);
    }

    #[test]
    fn mobility_increases_with_frequency() {
        let slow = hjorth_parameters_fused(&tone(2.0, 256.0, 2048)).unwrap();
        let fast = hjorth_parameters_fused(&tone(30.0, 256.0, 2048)).unwrap();
        assert!(fast.mobility > slow.mobility);
    }

    #[test]
    fn mobility_estimates_normalized_frequency_of_sine() {
        // For a pure sine, mobility ~= 2*pi*f/fs for small f/fs.
        let fs = 256.0;
        let f = 4.0;
        let h = hjorth_parameters_fused(&tone(f, fs, 4096)).unwrap();
        let expected = 2.0 * std::f64::consts::PI * f / fs;
        assert!((h.mobility - expected).abs() / expected < 0.05);
    }

    #[test]
    fn complexity_of_pure_sine_is_near_one() {
        let h = hjorth_parameters_fused(&tone(6.0, 256.0, 4096)).unwrap();
        assert!((h.complexity - 1.0).abs() < 0.05);
    }

    #[test]
    fn complexity_of_broadband_exceeds_sine() {
        let mut state = 0.37_f64;
        let noise: Vec<f64> = (0..2048)
            .map(|_| {
                state = (state * 997.13).fract();
                state - 0.5
            })
            .collect();
        let sine = hjorth_parameters_fused(&tone(6.0, 256.0, 2048)).unwrap();
        let broad = hjorth_parameters_fused(&noise).unwrap();
        assert!(broad.complexity > sine.complexity);
    }
}
