//! Spectral band-power features.
//!
//! The clinical EEG bands used throughout the crate follow the paper: delta is
//! [0.5, 4] Hz and theta is [4, 8] Hz; the remaining standard bands are provided
//! for the rich feature set of the real-time detector.

/// Standard clinical EEG frequency bands.
///
/// # Example
///
/// ```
/// use seizure_features::bandpower::Band;
///
/// assert_eq!(Band::Theta.range(), (4.0, 8.0));
/// assert_eq!(Band::Delta.range(), (0.5, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Band {
    /// Delta band, [0.5, 4] Hz.
    Delta,
    /// Theta band, [4, 8] Hz.
    Theta,
    /// Alpha band, [8, 13] Hz.
    Alpha,
    /// Beta band, [13, 30] Hz.
    Beta,
    /// Gamma band, [30, 45] Hz (upper edge kept below typical notch filters).
    Gamma,
}

impl Band {
    /// All bands in ascending frequency order.
    pub const ALL: [Band; 5] = [
        Band::Delta,
        Band::Theta,
        Band::Alpha,
        Band::Beta,
        Band::Gamma,
    ];

    /// Frequency range `(low, high)` of the band in Hz.
    pub fn range(&self) -> (f64, f64) {
        match self {
            Band::Delta => (0.5, 4.0),
            Band::Theta => (4.0, 8.0),
            Band::Alpha => (8.0, 13.0),
            Band::Beta => (13.0, 30.0),
            Band::Gamma => (30.0, 45.0),
        }
    }

    /// Lowercase band name.
    pub fn name(&self) -> &'static str {
        match self {
            Band::Delta => "delta",
            Band::Theta => "theta",
            Band::Alpha => "alpha",
            Band::Beta => "beta",
            Band::Gamma => "gamma",
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Band-power summary of one analysis window.
#[derive(Debug, Clone, PartialEq)]
pub struct BandPowers {
    /// Absolute power per band, ordered as [`Band::ALL`].
    pub absolute: [f64; 5],
    /// Relative power per band (absolute divided by total signal power).
    pub relative: [f64; 5],
    /// Total power over the whole spectrum.
    pub total: f64,
}

impl BandPowers {
    /// Absolute power of a specific band.
    pub fn absolute(&self, band: Band) -> f64 {
        self.absolute[Band::ALL
            .iter()
            .position(|b| *b == band)
            .expect("band in ALL")]
    }

    /// Relative power of a specific band.
    pub fn relative(&self, band: Band) -> f64 {
        self.relative[Band::ALL
            .iter()
            .position(|b| *b == band)
            .expect("band in ALL")]
    }
}

/// Computes absolute and relative power for all five clinical bands straight
/// from raw one-sided PSD bins (as filled by
/// [`seizure_dsp::spectrum::PsdPlan::power_into`]; bin `k` lies at
/// `k · fs / window_len` Hz) in one pass, without allocating. `window_len` is
/// the analysis-window length the bins came from. A band includes both of
/// its edges; the relative powers divide by the total power over all bins
/// (0 for a silent window).
///
/// # Errors
///
/// Propagates [`seizure_dsp::DspError`] for a non-positive `fs` or zero
/// `window_len`.
pub fn band_powers_from_bins(
    power: &[f64],
    fs: f64,
    window_len: usize,
) -> Result<BandPowers, seizure_dsp::DspError> {
    if fs <= 0.0 || fs.is_nan() || window_len == 0 {
        return Err(seizure_dsp::DspError::InvalidParameter {
            name: "fs",
            reason: "band_powers_from_bins requires a positive fs and window length".to_string(),
        });
    }
    // One pass over the bins accumulating all five bands and the total at
    // once (the separate per-band helpers each rescan the full spectrum).
    let resolution = fs / window_len as f64;
    let ranges = Band::ALL.map(|band| band.range());
    let mut sums = [0.0; 5];
    let mut total_sum = 0.0;
    for (k, p) in power.iter().enumerate() {
        let f = k as f64 * fs / window_len as f64;
        total_sum += p;
        for (sum, (lo, hi)) in sums.iter_mut().zip(ranges.iter()) {
            if f >= *lo && f <= *hi {
                *sum += p;
            }
        }
    }
    let total = total_sum * resolution;
    let mut absolute = [0.0; 5];
    let mut relative = [0.0; 5];
    for i in 0..5 {
        absolute[i] = sums[i] * resolution;
        relative[i] = if total > 0.0 {
            absolute[i] / total
        } else {
            0.0
        };
    }
    Ok(BandPowers {
        absolute,
        relative,
        total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::all_band_powers;
    use seizure_dsp::fft::Complex;
    use seizure_dsp::spectrum::PsdPlan;

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    /// Band powers of `window` through the planned periodogram.
    fn band_powers(window: &[f64], fs: f64) -> BandPowers {
        let plan = PsdPlan::new(window.len()).unwrap();
        let mut power = vec![0.0; plan.num_bins()];
        let mut scratch = vec![Complex::zero(); plan.scratch_len()];
        plan.power_into(window, fs, &mut power, &mut scratch)
            .unwrap();
        band_powers_from_bins(&power, fs, window.len()).unwrap()
    }

    #[test]
    fn band_ranges_match_paper() {
        assert_eq!(Band::Delta.range(), (0.5, 4.0));
        assert_eq!(Band::Theta.range(), (4.0, 8.0));
        assert_eq!(Band::Alpha.range(), (8.0, 13.0));
        assert_eq!(Band::Beta.range(), (13.0, 30.0));
        assert_eq!(Band::Gamma.range(), (30.0, 45.0));
    }

    #[test]
    fn band_display_names() {
        assert_eq!(Band::Theta.to_string(), "theta");
        assert_eq!(Band::Gamma.to_string(), "gamma");
    }

    #[test]
    fn theta_tone_dominates_theta_band() {
        let fs = 256.0;
        let window = tone(6.0, fs, 1024, 1.0);
        let bp = band_powers(&window, fs);
        let theta = bp.absolute(Band::Theta);
        let delta = bp.absolute(Band::Delta);
        let beta = bp.absolute(Band::Beta);
        assert!(theta > 10.0 * delta);
        assert!(theta > 10.0 * beta);
    }

    #[test]
    fn relative_power_of_pure_tone_is_near_one() {
        let fs = 256.0;
        let window = tone(6.0, fs, 1024, 3.0);
        let rel = band_powers(&window, fs).relative(Band::Theta);
        assert!(rel > 0.95);
    }

    #[test]
    fn relative_powers_sum_to_at_most_one() {
        let fs = 256.0;
        let mut window = tone(2.0, fs, 1024, 1.0);
        let t2 = tone(10.0, fs, 1024, 0.5);
        for (a, b) in window.iter_mut().zip(t2.iter()) {
            *a += b;
        }
        let bp = band_powers(&window, fs);
        let sum: f64 = bp.relative.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert!(bp.total > 0.0);
    }

    #[test]
    fn accessors_are_consistent_with_arrays() {
        let fs = 256.0;
        let window = tone(6.0, fs, 512, 1.0);
        let bp = band_powers(&window, fs);
        assert_eq!(bp.absolute(Band::Theta), bp.absolute[1]);
        assert_eq!(bp.relative(Band::Delta), bp.relative[0]);
    }

    #[test]
    fn empty_window_is_rejected() {
        assert!(band_powers_from_bins(&[], 256.0, 0).is_err());
        assert!(band_powers_from_bins(&[1.0], f64::NAN, 1).is_err());
    }

    #[test]
    fn zero_signal_has_zero_relative_power() {
        let bp = band_powers(&vec![0.0; 512], 256.0);
        assert!(bp.relative.iter().all(|&r| r == 0.0));
    }

    #[test]
    fn one_pass_matches_the_per_band_oracle() {
        // 1024 samples take the packed real FFT, 600 the DFT fallback; a
        // two-tone mix puts power on both sides of a band edge.
        let fs = 256.0;
        for n in [1024usize, 600] {
            let mut window = tone(4.0, fs, n, 1.0);
            for (a, b) in window.iter_mut().zip(tone(21.0, fs, n, 0.4)) {
                *a += b;
            }
            let fast = band_powers(&window, fs);
            let reference = all_band_powers(&window, fs).unwrap();
            let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + b.abs());
            assert!(close(fast.total, reference.total), "n={n}");
            for i in 0..5 {
                assert!(
                    close(fast.absolute[i], reference.absolute[i]),
                    "n={n} band {i}"
                );
                assert!(
                    close(fast.relative[i], reference.relative[i]),
                    "n={n} band {i}"
                );
            }
        }
    }
}
