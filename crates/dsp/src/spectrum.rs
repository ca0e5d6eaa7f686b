//! Power spectral density estimation and band-power integration.
//!
//! The paper's selected feature set (§III-A) uses total and relative delta
//! ([0.5, 4] Hz) and theta ([4, 8] Hz) band powers computed from 4-second EEG
//! windows; this module provides the PSD estimators those features are built on.

use crate::error::DspError;
use crate::fft::{real_fft, Complex, RealFftPlan};

/// A one-sided power spectral density estimate.
///
/// Frequencies run from DC to the Nyquist frequency with a uniform spacing of
/// [`PowerSpectrum::resolution`] Hz.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerSpectrum {
    /// Frequency axis in Hz, one entry per PSD bin.
    freqs: Vec<f64>,
    /// Power density per bin (signal-units² / Hz).
    power: Vec<f64>,
    /// Sampling frequency of the originating signal, in Hz.
    fs: f64,
}

impl PowerSpectrum {
    /// Creates a spectrum from raw frequency and power vectors.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if the vectors are empty or of
    /// different lengths, and [`DspError::InvalidParameter`] if `fs` is not
    /// strictly positive.
    pub fn new(freqs: Vec<f64>, power: Vec<f64>, fs: f64) -> Result<Self, DspError> {
        if freqs.is_empty() || freqs.len() != power.len() {
            return Err(DspError::InvalidLength {
                operation: "PowerSpectrum::new",
                actual: power.len(),
                requirement: "non-empty and matching the frequency axis length",
            });
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "fs",
                reason: format!("sampling frequency must be positive, got {fs}"),
            });
        }
        Ok(Self { freqs, power, fs })
    }

    /// Frequency axis in Hz.
    pub fn freqs(&self) -> &[f64] {
        &self.freqs
    }

    /// Power density values, aligned with [`PowerSpectrum::freqs`].
    pub fn power(&self) -> &[f64] {
        &self.power
    }

    /// Sampling frequency of the signal the spectrum was estimated from.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Frequency spacing between consecutive bins in Hz.
    pub fn resolution(&self) -> f64 {
        if self.freqs.len() > 1 {
            self.freqs[1] - self.freqs[0]
        } else {
            self.fs / 2.0
        }
    }

    /// Total power integrated over the whole spectrum.
    pub fn total_power(&self) -> f64 {
        self.power.iter().sum::<f64>() * self.resolution()
    }

    /// Number of frequency bins.
    pub fn len(&self) -> usize {
        self.freqs.len()
    }

    /// Returns `true` if the spectrum has no bins (never the case for values
    /// produced by this crate's estimators).
    pub fn is_empty(&self) -> bool {
        self.freqs.is_empty()
    }
}

/// Estimates the PSD of `signal` with a single rectangular-windowed periodogram.
///
/// The estimate is one-sided and scaled so that integrating it over frequency
/// recovers the signal power (Parseval-consistent): bin `k` is
/// `|X[k]|² / (fs · n)`, doubled for the interior bins.
///
/// # Errors
///
/// Returns [`DspError::EmptyInput`] if the signal is empty and
/// [`DspError::InvalidParameter`] if `fs` is not strictly positive.
///
/// # Example
///
/// ```
/// use seizure_dsp::spectrum::periodogram;
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let fs = 256.0;
/// let x: Vec<f64> = (0..1024)
///     .map(|n| (2.0 * std::f64::consts::PI * 10.0 * n as f64 / fs).sin())
///     .collect();
/// let psd = periodogram(&x, fs)?;
/// // Total power of a unit sine is 0.5.
/// assert!((psd.total_power() - 0.5).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
pub fn periodogram(signal: &[f64], fs: f64) -> Result<PowerSpectrum, DspError> {
    if signal.is_empty() {
        return Err(DspError::EmptyInput {
            operation: "periodogram",
        });
    }
    if fs <= 0.0 || fs.is_nan() {
        return Err(DspError::InvalidParameter {
            name: "fs",
            reason: format!("sampling frequency must be positive, got {fs}"),
        });
    }
    let n = signal.len();
    let spectrum = real_fft(signal)?;
    let half = n / 2 + 1;
    let mut power = Vec::with_capacity(half);
    let mut freqs = Vec::with_capacity(half);
    for (k, bin) in spectrum.iter().take(half).enumerate() {
        // One-sided scaling: interior bins carry the energy of their negative-
        // frequency mirror as well.
        let two_sided = bin.magnitude_squared() / (fs * n as f64);
        let one_sided = if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
            two_sided
        } else {
            2.0 * two_sided
        };
        power.push(one_sided);
        freqs.push(k as f64 * fs / n as f64);
    }
    PowerSpectrum::new(freqs, power, fs)
}

/// A precomputed periodogram plan for windows of one fixed length.
///
/// Wraps a [`RealFftPlan`] so the one-sided rectangular periodogram of each
/// analysis window can be computed into caller-provided buffers with **zero
/// heap allocations** on the hot path. Build one per window length, reuse it
/// for every window.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::Complex;
/// use seizure_dsp::spectrum::{periodogram, PsdPlan};
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
/// let reference = periodogram(&x, fs)?;
/// for (a, b) in power.iter().zip(reference.power()) {
///     assert!((a - b).abs() < 1e-9);
/// }
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
    /// for the intermediate spectrum. Produces the same estimate as
    /// [`periodogram`] without allocating.
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

    /// Convenience wrapper turning one window into an owned [`PowerSpectrum`]
    /// (allocates; the batch paths use [`PsdPlan::power_into`] instead).
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`PsdPlan::power_into`].
    pub fn power_spectrum(&self, signal: &[f64], fs: f64) -> Result<PowerSpectrum, DspError> {
        let mut power = vec![0.0; self.num_bins()];
        let mut scratch = vec![Complex::zero(); self.scratch_len()];
        self.power_into(signal, fs, &mut power, &mut scratch)?;
        let n = self.window_len();
        let freqs = (0..self.num_bins())
            .map(|k| k as f64 * fs / n as f64)
            .collect();
        PowerSpectrum::new(freqs, power, fs)
    }
}

/// Integrates the PSD over the frequency band `[low_hz, high_hz]` (inclusive).
///
/// This is the "total band power" quantity used by the paper's spectral
/// features. Relative band power is obtained by dividing by
/// [`PowerSpectrum::total_power`].
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the band is malformed
/// (`low_hz >= high_hz`, negative bounds, or NaN).
pub fn band_power(psd: &PowerSpectrum, low_hz: f64, high_hz: f64) -> Result<f64, DspError> {
    if low_hz.is_nan() || high_hz.is_nan() || low_hz < 0.0 || low_hz >= high_hz {
        return Err(DspError::InvalidParameter {
            name: "band",
            reason: format!("invalid frequency band [{low_hz}, {high_hz}]"),
        });
    }
    let resolution = psd.resolution();
    let mut acc = 0.0;
    for (f, p) in psd.freqs().iter().zip(psd.power()) {
        if *f >= low_hz && *f <= high_hz {
            acc += p * resolution;
        }
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine(freq: f64, fs: f64, n: usize, amplitude: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amplitude * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    #[test]
    fn periodogram_rejects_empty_and_bad_fs() {
        assert!(periodogram(&[], 256.0).is_err());
        assert!(periodogram(&[1.0, 2.0], 0.0).is_err());
        assert!(periodogram(&[1.0, 2.0], -5.0).is_err());
    }

    #[test]
    fn periodogram_total_power_matches_signal_power() {
        let fs = 256.0;
        let x = sine(16.0, fs, 1024, 1.0);
        let psd = periodogram(&x, fs).unwrap();
        // A unit-amplitude sine has power 0.5.
        assert!((psd.total_power() - 0.5).abs() < 0.02);
    }

    #[test]
    fn periodogram_peak_at_tone_frequency() {
        let fs = 256.0;
        let x = sine(20.0, fs, 2048, 2.0);
        let psd = periodogram(&x, fs).unwrap();
        let (idx, _) = psd
            .power()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        assert!((psd.freqs()[idx] - 20.0).abs() < 0.2);
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
    fn band_power_isolates_tone() {
        let fs = 256.0;
        let n = 1024;
        let mut x = sine(6.0, fs, n, 1.0); // theta tone
        let x2 = sine(30.0, fs, n, 1.0); // beta tone
        for (a, b) in x.iter_mut().zip(x2.iter()) {
            *a += b;
        }
        let psd = periodogram(&x, fs).unwrap();
        let theta = band_power(&psd, 4.0, 8.0).unwrap();
        let beta = band_power(&psd, 25.0, 35.0).unwrap();
        let delta = band_power(&psd, 0.5, 4.0).unwrap();
        assert!(theta > 0.4 && theta < 0.6);
        assert!(beta > 0.4 && beta < 0.6);
        assert!(delta < 0.05);
    }

    #[test]
    fn full_range_band_power_equals_total_power() {
        let fs = 256.0;
        let x = sine(10.0, fs, 512, 1.5);
        let psd = periodogram(&x, fs).unwrap();
        let full = band_power(&psd, 0.0, fs / 2.0).unwrap();
        assert!((full / psd.total_power() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn band_power_rejects_bad_band() {
        let psd = periodogram(&vec![1.0; 64], 64.0).unwrap();
        assert!(band_power(&psd, 8.0, 4.0).is_err());
        assert!(band_power(&psd, -1.0, 4.0).is_err());
        assert!(band_power(&psd, f64::NAN, 4.0).is_err());
    }

    #[test]
    fn power_spectrum_accessors() {
        let psd = PowerSpectrum::new(vec![0.0, 1.0, 2.0], vec![0.5, 0.25, 0.25], 4.0).unwrap();
        assert_eq!(psd.len(), 3);
        assert!(!psd.is_empty());
        assert_eq!(psd.resolution(), 1.0);
        assert_eq!(psd.sampling_frequency(), 4.0);
        assert!((psd.total_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn power_spectrum_rejects_mismatched_lengths() {
        assert!(PowerSpectrum::new(vec![0.0, 1.0], vec![1.0], 2.0).is_err());
        assert!(PowerSpectrum::new(vec![], vec![], 2.0).is_err());
        assert!(PowerSpectrum::new(vec![0.0], vec![1.0], 0.0).is_err());
    }

    #[test]
    fn psd_plan_matches_periodogram_on_the_fallback_path() {
        let fs = 256.0;
        let x = sine(12.0, fs, 600, 1.3);
        let plan = PsdPlan::new(x.len()).unwrap();
        let mut power = vec![0.0; plan.num_bins()];
        let mut scratch = vec![Complex::zero(); plan.window_len()];
        plan.power_into(&x, fs, &mut power, &mut scratch).unwrap();
        let reference = periodogram(&x, fs).unwrap();
        for (a, b) in power.iter().zip(reference.power()) {
            assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn psd_plan_power_spectrum_equals_periodogram() {
        let fs = 128.0;
        let x = sine(9.0, fs, 256, 0.7);
        let plan = PsdPlan::new(x.len()).unwrap();
        let a = plan.power_spectrum(&x, fs).unwrap();
        let b = periodogram(&x, fs).unwrap();
        assert_eq!(a.freqs(), b.freqs());
        for (pa, pb) in a.power().iter().zip(b.power()) {
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

    /// The rectangular periodogram and its planned twin are pinned bit for
    /// bit (goldens recorded on x86_64 Linux): 1024 samples take the packed
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
            let psd = periodogram(&x, fs).unwrap();
            assert_eq!(
                golden_bits(psd.power()),
                periodogram_bits,
                "periodogram, n={n}"
            );
            let plan = PsdPlan::new(n).unwrap();
            let mut power = vec![0.0; plan.num_bins()];
            let mut scratch = vec![Complex::zero(); plan.scratch_len()];
            plan.power_into(&x, fs, &mut power, &mut scratch).unwrap();
            assert_eq!(golden_bits(&power), plan_bits, "PsdPlan::power_into, n={n}");
        }
    }
}
