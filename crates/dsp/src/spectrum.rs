//! Power spectral density estimation.
//!
//! The paper's selected feature set (§III-A) uses total and relative delta
//! ([0.5, 4] Hz) and theta ([4, 8] Hz) band powers computed from 4-second EEG
//! windows; this module provides the rectangular periodogram those features
//! are integrated from.

use crate::error::DspError;
use crate::fft::{Complex, RealFftPlan};

/// A precomputed periodogram plan for windows of one fixed length.
///
/// Wraps a [`RealFftPlan`] so the one-sided rectangular periodogram of each
/// analysis window can be computed into caller-provided buffers with **zero
/// heap allocations** on the hot path. Build one per window length, reuse it
/// for every window.
///
/// Bin `k` lies at `k · fs / n` Hz and holds `|X[k]|² / (fs · n)`, doubled
/// for the interior bins, so summing the bins times the resolution
/// `fs / n` recovers the signal power (Parseval).
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::Complex;
/// use seizure_dsp::spectrum::PsdPlan;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let fs = 256.0;
/// let x: Vec<f64> = (0..1024)
///     .map(|n| (2.0 * std::f64::consts::PI * 10.0 * n as f64 / fs).sin())
///     .collect();
///
/// let plan = PsdPlan::new(x.len())?;
/// let mut power = vec![0.0; plan.num_bins()];
/// let mut scratch = vec![Complex::zero(); plan.scratch_len()];
/// plan.power_into(&x, fs, &mut power, &mut scratch)?;
///
/// // Total power of a unit sine is 0.5.
/// let total: f64 = power.iter().sum::<f64>() * plan.resolution(fs);
/// assert!((total - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PsdPlan {
    fft: RealFftPlan,
}

impl PsdPlan {
    /// Builds a plan for analysis windows of `n` samples.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "PsdPlan::new",
            });
        }
        Ok(Self {
            fft: RealFftPlan::new(n)?,
        })
    }

    /// The window length the plan was built for.
    pub fn window_len(&self) -> usize {
        self.fft.len()
    }

    /// Number of one-sided PSD bins (`n/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.fft.len() / 2 + 1
    }

    /// Minimum scratch length required by [`PsdPlan::power_into`] (`n/2` on
    /// the packed real-FFT path, `n` on the fallback path).
    pub fn scratch_len(&self) -> usize {
        self.fft.scratch_len()
    }

    /// Frequency spacing between consecutive bins for a signal sampled at
    /// `fs` Hz.
    pub fn resolution(&self, fs: f64) -> f64 {
        fs / self.fft.len() as f64
    }

    /// Computes the one-sided PSD of `signal` into `power`, using `scratch`
    /// for the intermediate spectrum, without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `signal` does not match the
    /// planned window length, `power` does not have [`PsdPlan::num_bins`]
    /// slots, or `scratch` is shorter than [`PsdPlan::scratch_len`], and
    /// [`DspError::InvalidParameter`] if `fs` is not strictly positive.
    pub fn power_into(
        &self,
        signal: &[f64],
        fs: f64,
        power: &mut [f64],
        scratch: &mut [Complex],
    ) -> Result<(), DspError> {
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        let n = self.fft.len();
        if power.len() != self.num_bins() {
            return Err(DspError::InvalidLength {
                operation: "PsdPlan::power_into",
                actual: power.len(),
                requirement: "power buffer must have n/2 + 1 bins",
            });
        }
        if scratch.len() < self.fft.scratch_len() {
            return Err(DspError::InvalidLength {
                operation: "PsdPlan::power_into",
                actual: scratch.len(),
                requirement: "scratch buffer must cover PsdPlan::scratch_len()",
            });
        }
        self.fft.magnitudes_squared_into(signal, power, scratch)?;
        let half = self.num_bins();
        let denom = fs * n as f64;
        for (k, slot) in power.iter_mut().enumerate() {
            let two_sided = *slot / denom;
            *slot = if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
                two_sided
            } else {
                2.0 * two_sided
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::periodogram;

    fn sine(freq: f64, fs: f64, n: usize, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn plan_power(signal: &[f64], fs: f64) -> Vec<f64> {
        let plan = PsdPlan::new(signal.len()).unwrap();
        let mut power = vec![0.0; plan.num_bins()];
        let mut scratch = vec![Complex::zero(); plan.scratch_len()];
        plan.power_into(signal, fs, &mut power, &mut scratch)
            .unwrap();
        power
    }

    #[test]
    fn plan_total_power_matches_signal_power() {
        let fs = 256.0;
        let x = sine(16.0, fs, 1024, 1.0);
        let total: f64 = plan_power(&x, fs).iter().sum::<f64>() * fs / x.len() as f64;
        // A unit-amplitude sine has power 0.5.
        assert!((total - 0.5).abs() < 0.02);
    }

    #[test]
    fn plan_peak_at_tone_frequency() {
        let fs = 256.0;
        let x = sine(20.0, fs, 2048, 2.0);
        let (idx, _) = plan_power(&x, fs)
            .into_iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert!((idx as f64 * fs / x.len() as f64 - 20.0).abs() < 0.2);
    }

    #[test]
    fn psd_peak_selection_is_nan_safe() {
        // Regression companion to the `total_cmp` sweep: the peak-bin idiom
        // used across these tests must not panic or scramble when a power
        // bin is poisoned with NaN — NaN ranks above all finite bins.
        let power = [0.1, 2.0, f64::NAN, 0.4];
        let (idx, _) = power
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert_eq!(idx, 2);
    }

    #[test]
    fn psd_plan_matches_periodogram_on_the_fallback_path() {
        let fs = 256.0;
        let x = sine(12.0, fs, 600, 1.3);
        let plan = PsdPlan::new(x.len()).unwrap();
        let mut power = vec![0.0; plan.num_bins()];
        let mut scratch = vec![Complex::zero(); plan.window_len()];
        plan.power_into(&x, fs, &mut power, &mut scratch).unwrap();
        let reference = periodogram(&x, fs);
        for (a, b) in power.iter().zip(&reference) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn psd_plan_matches_periodogram_on_the_packed_path() {
        let fs = 128.0;
        let x = sine(9.0, fs, 256, 0.7);
        let reference = periodogram(&x, fs);
        for (pa, pb) in plan_power(&x, fs).iter().zip(&reference) {
            assert!((pa - pb).abs() < 1e-10 * (1.0 + pb.abs()));
        }
    }

    #[test]
    fn psd_plan_rejects_bad_buffers() {
        assert!(PsdPlan::new(0).is_err());
        let plan = PsdPlan::new(64).unwrap();
        assert_eq!(plan.num_bins(), 33);
        assert!((plan.resolution(64.0) - 1.0).abs() < 1e-12);
        let x = vec![0.0; 64];
        let mut power = vec![0.0; 33];
        let mut scratch = vec![Complex::zero(); 64];
        assert!(plan.power_into(&x, 0.0, &mut power, &mut scratch).is_err());
        assert!(plan
            .power_into(&x[..10], 64.0, &mut power, &mut scratch)
            .is_err());
        let mut bad_power = vec![0.0; 10];
        assert!(plan
            .power_into(&x, 64.0, &mut bad_power, &mut scratch)
            .is_err());
        let mut bad_scratch = vec![Complex::zero(); 10];
        assert!(plan
            .power_into(&x, 64.0, &mut power, &mut bad_scratch)
            .is_err());
    }

    /// Integer-valued pseudo-random noise plus an 8-sample-period tone (32 Hz
    /// at 256 Hz), scaled by a power of two so every input sample is exact.
    fn golden_input(n: usize) -> Vec<f64> {
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let noise = (state >> 40) as i64 - (1 << 23);
                let tone = [0i64, 3, 5, 3, 0, -3, -5, -3][i % 8] << 20;
                (noise + tone) as f64 / 1024.0
            })
            .collect()
    }

    /// FNV-1a over the little-endian bit patterns of every bin.
    fn bit_digest(bins: &[f64]) -> u64 {
        bins.iter().fold(0xcbf2_9ce4_8422_2325, |h, bin| {
            bin.to_bits().to_le_bytes().iter().fold(h, |h, &byte| {
                (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
            })
        })
    }

    /// Bit patterns of bins 0, 1, the tone bin `n/8` and the last bin, plus
    /// the digest of all bins.
    fn golden_bits(bins: &[f64]) -> [u64; 5] {
        let n = 2 * (bins.len() - 1);
        [
            bit_digest(bins),
            bins[0].to_bits(),
            bins[1].to_bits(),
            bins[n / 8].to_bits(),
            bins[bins.len() - 1].to_bits(),
        ]
    }

    /// The rectangular periodogram oracle and its planned twin are pinned
    /// bit for bit (goldens recorded on x86_64 Linux): 1024 samples take the packed
    /// real-FFT path, 600 the DFT fallback. The tolerance tests above cannot
    /// see a change in rounding; this one can.
    #[test]
    fn periodogram_and_plan_bits_are_pinned() {
        let fs = 256.0;
        let cases: [(usize, [u64; 5], [u64; 5]); 2] = [
            (
                1024,
                [
                    0x5d5f_4065_ea3b_2412,
                    0x40d7_6601_7778_95e1,
                    0x40d0_6253_499f_5b8c,
                    0x4182_999d_6183_f5b9,
                    0x4045_113e_04b7_d200,
                ],
                [
                    0xf240_a22b_337a_85af,
                    0x40d7_6601_7778_95e1,
                    0x40d0_6253_499f_5b81,
                    0x4182_999d_6183_f5fc,
                    0x4045_113e_04b7_d200,
                ],
            ),
            (
                600,
                [
                    0xbee8_af9a_89d6_207d,
                    0x4084_3949_0ecf_3da7,
                    0x4106_12f6_5c36_0214,
                    0x4175_054f_5212_aeb4,
                    0x40f5_a675_cb1c_0560,
                ],
                [
                    0x3c6d_887d_f2c8_67a3,
                    0x4084_3949_0ecf_3da7,
                    0x4106_12f6_5c36_0214,
                    0x4175_054f_5212_aeb2,
                    0x40f5_a675_cb1c_0560,
                ],
            ),
        ];
        for (n, periodogram_bits, plan_bits) in cases {
            let x = golden_input(n);
            let psd = periodogram(&x, fs);
            assert_eq!(golden_bits(&psd), periodogram_bits, "periodogram, n={n}");
            let plan = PsdPlan::new(n).unwrap();
            let mut power = vec![0.0; plan.num_bins()];
            let mut scratch = vec![Complex::zero(); plan.scratch_len()];
            plan.power_into(&x, fs, &mut power, &mut scratch).unwrap();
            assert_eq!(golden_bits(&power), plan_bits, "PsdPlan::power_into, n={n}");
        }
    }
}
