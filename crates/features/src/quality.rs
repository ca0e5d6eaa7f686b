//! Cheap per-window signal-quality indicators for artifact rejection.
//!
//! A wearable EEG front end sees railed amplifiers, dropped electrodes,
//! mains hum, baseline wander and electrode pops long before it sees a
//! seizure. This module computes a small set of per-channel indicators per
//! sliding window — no FFT, no wavelet decomposition — that a downstream
//! quality gate can threshold into `Clean / Suspect / Reject` verdicts:
//!
//! | indicator | catches |
//! |---|---|
//! | `line_length` | overall waveform activity (context for the others) |
//! | `railed_frac` | amplifier saturation / clipping (plus non-finite samples) |
//! | `flat_run_frac` | dropouts: longest run of identical samples |
//! | `hum_ratio` | mains interference at the aliased 50/60 Hz family |
//! | `drift_ratio` | baseline wander: sub-1 Hz + DC share of window energy |
//! | `max_jump_sigma` | electrode pops: largest step in robust-sigma units |
//! | `log_std` | per-channel amplitude envelope (feeds gain tracking) |
//!
//! plus one cross-channel feature, the absolute difference of the two
//! channels' `log_std` (a loose electrode makes one channel disagree wildly
//! with the other).
//!
//! All indicators are deterministic and guaranteed finite, including on
//! flatline, railed and NaN/∞-contaminated inputs: non-finite samples are
//! counted as railed and replaced by zero before any arithmetic.
//!
//! Mains bins are *aliased*: at the wearable's low sampling rates the
//! 50/60 Hz family folds below Nyquist (50 Hz → 14 Hz at fs = 64). Folded
//! bins that land below [`MIN_HUM_FREQ`] are skipped because they would
//! collide with the ictal fundamental band (≈ 2.5–12 Hz) — a documented
//! blind spot of the cheap detector, not a bug.
//!
//! ## The per-channel kernel
//!
//! One channel of an `n`-sample window costs three sweeps over the raw
//! samples plus one selection, with no copy of the window:
//!
//! 1. finite extrema, non-finite census and the longest flat run;
//! 2. railed-sample count, and `Σc²` and `Σc` over the sanitized samples
//!    `c` (non-finite → 0), which give the total energy and the mean;
//! 3. the centred samples `c − mean`, computed on the fly: AC energy, line
//!    length, the largest step, the step magnitudes `|Δ|` (into
//!    [`QualityScratch`]) and every Goertzel probe at once — a tone and its
//!    ±2 Hz neighbours per observable hum bin plus up to three drift bins,
//!    advanced together in fixed-size state arrays so their recurrences
//!    overlap instead of running one after another.
//!
//! The median step is an `O(n)` in-place `select_nth_unstable_by` with
//! `f64::total_cmp`, which picks the same order statistic a full sort
//! would. Every accumulator keeps the operand order of the straightforward
//! one-indicator-at-a-time formulation (sums start from `-0.0` as
//! `Iterator::sum` does, no `mul_add`), so the fused kernel is
//! **bit-identical** to it; the unit tests keep that formulation as an
//! oracle and compare `to_bits()` across sampling rates, window lengths and
//! hostile windows.

use crate::error::FeatureError;
use crate::extractor::SlidingWindowConfig;
use crate::matrix::FeatureMatrix;
use std::f64::consts::PI;

/// Number of per-channel indicators.
pub const QUALITY_FEATURES_PER_CHANNEL: usize = 7;
/// Total quality features per window (two channels plus one cross-channel).
pub const NUM_QUALITY_FEATURES: usize = 2 * QUALITY_FEATURES_PER_CHANNEL + 1;

/// Per-channel column offset of the line-length indicator.
pub const IDX_LINE_LENGTH: usize = 0;
/// Per-channel column offset of the railed-sample fraction.
pub const IDX_RAILED_FRAC: usize = 1;
/// Per-channel column offset of the longest flat-run fraction.
pub const IDX_FLAT_RUN_FRAC: usize = 2;
/// Per-channel column offset of the aliased mains-hum energy ratio.
pub const IDX_HUM_RATIO: usize = 3;
/// Per-channel column offset of the baseline-drift energy ratio.
pub const IDX_DRIFT_RATIO: usize = 4;
/// Per-channel column offset of the largest sample step in robust sigmas.
pub const IDX_MAX_JUMP_SIGMA: usize = 5;
/// Per-channel column offset of the log standard deviation.
pub const IDX_LOG_STD: usize = 6;
/// Column of the cross-channel log-amplitude disagreement.
pub const IDX_DISAGREEMENT: usize = NUM_QUALITY_FEATURES - 1;

/// Folded mains bins below this frequency are skipped: they would overlap
/// the ictal fundamental band and its first harmonics.
pub const MIN_HUM_FREQ: f64 = 12.0;

/// Mains fundamentals and first harmonics probed (before aliasing).
const MAINS_FAMILY: [f64; 4] = [50.0, 60.0, 100.0, 120.0];

/// Goertzel probes per hum bin: the tone and its ±2 Hz neighbours.
const PROBES_PER_HUM_BIN: usize = 3;
/// Lowest DFT bins (k = 1..=3) probed for baseline drift.
const DRIFT_BINS: usize = 3;
/// Goertzel probes one channel advances per sample.
const MAX_PROBES: usize = PROBES_PER_HUM_BIN * MAINS_FAMILY.len() + DRIFT_BINS;

/// Column of `indicator` (an `IDX_*` per-channel offset) for `channel`
/// (0 = F7T3, 1 = F8T4) in the quality feature matrix.
#[must_use]
pub fn channel_column(channel: usize, indicator: usize) -> usize {
    channel * QUALITY_FEATURES_PER_CHANNEL + indicator
}

/// Folds a frequency below Nyquist (classic aliasing map).
fn fold(freq: f64, fs: f64) -> f64 {
    let r = freq % fs;
    if r > fs / 2.0 {
        fs - r
    } else {
        r
    }
}

/// Goertzel recurrence coefficient of a probe at `freq` Hz.
fn goertzel_coeff(freq: f64, fs: f64) -> f64 {
    2.0 * (2.0 * PI * freq / fs).cos()
}

/// Advances every Goertzel probe by one sample `x`.
#[inline(always)]
fn goertzel_step(
    coeffs: &[f64; MAX_PROBES],
    s1: &mut [f64; MAX_PROBES],
    s2: &mut [f64; MAX_PROBES],
    x: f64,
) {
    for ((c, a), b) in coeffs.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
        let s0 = x + c * *a - *b;
        *b = *a;
        *a = s0;
    }
}

/// Squared DFT magnitude from a probe's final Goertzel state.
fn goertzel_power(coeff: f64, s1: f64, s2: f64) -> f64 {
    (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
}

/// Reusable buffers for one window's worth of quality arithmetic. Acquire
/// one per worker (or per streaming detector) and hand it to
/// [`QualityExtractor::assess_window_into`] so repeated assessments stay
/// allocation-free; [`QualityScratch::for_window`] sizes it up front so not
/// even the first window allocates.
#[derive(Debug, Default)]
pub struct QualityScratch {
    diffs: Vec<f64>,
}

impl QualityScratch {
    /// Scratch pre-sized for windows of up to `window_samples` samples.
    #[must_use]
    pub fn for_window(window_samples: usize) -> Self {
        Self {
            diffs: Vec::with_capacity(window_samples),
        }
    }
}

/// Computes the per-window quality indicator matrix for a channel pair.
///
/// Construction pre-resolves which aliased mains bins are observable at the
/// given sampling rate and their Goertzel coefficients; everything else is
/// stateless.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityExtractor {
    fs: f64,
    hum_bins: Vec<f64>,
    /// Coefficients of the hum probes, `(bin, bin − 2, bin + 2)` per entry of
    /// `hum_bins`, then zeros.
    hum_coeffs: [f64; MAX_PROBES],
}

impl QualityExtractor {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not a positive
    /// finite number.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        if !(fs.is_finite() && fs > 0.0) {
            return Err(FeatureError::InvalidConfig {
                name: "fs",
                reason: format!("sampling frequency must be positive and finite, got {fs}"),
            });
        }
        let mut hum_bins: Vec<f64> = Vec::new();
        for f in MAINS_FAMILY {
            let alias = fold(f, fs);
            // Keep bins clear of the seizure band and of Nyquist (their ±2 Hz
            // sharpness neighbours must also stay inside (0, fs/2)).
            if alias >= MIN_HUM_FREQ
                && alias + 2.0 < fs / 2.0
                && !hum_bins.iter().any(|&b| (b - alias).abs() < 1e-9)
            {
                hum_bins.push(alias);
            }
        }
        let mut hum_coeffs = [0.0; MAX_PROBES];
        for (probes, &bin) in hum_coeffs
            .chunks_exact_mut(PROBES_PER_HUM_BIN)
            .zip(&hum_bins)
        {
            probes[0] = goertzel_coeff(bin, fs);
            probes[1] = goertzel_coeff(bin - 2.0, fs);
            probes[2] = goertzel_coeff(bin + 2.0, fs);
        }
        Ok(Self {
            fs,
            hum_bins,
            hum_coeffs,
        })
    }

    /// Sampling frequency the extractor was built for.
    #[must_use]
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Aliased mains bins (Hz) actually probed at this sampling rate.
    #[must_use]
    pub fn hum_bins(&self) -> &[f64] {
        &self.hum_bins
    }

    /// Names of the produced quality features, in column order.
    #[must_use]
    pub fn feature_names() -> Vec<String> {
        let per_channel = [
            "line_length",
            "railed_frac",
            "flat_run_frac",
            "hum_ratio",
            "drift_ratio",
            "max_jump_sigma",
            "log_std",
        ];
        let mut names: Vec<String> = Vec::with_capacity(NUM_QUALITY_FEATURES);
        for prefix in ["f7t3", "f8t4"] {
            for name in per_channel {
                names.push(format!("quality_{prefix}_{name}"));
            }
        }
        names.push("quality_cross_channel_disagreement".to_string());
        names
    }

    /// Quality indicators of a single window pair as a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] on unequal channels
    /// and [`FeatureError::SignalTooShort`] for windows of fewer than four
    /// samples.
    pub fn assess_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = vec![0.0; NUM_QUALITY_FEATURES];
        let mut scratch = QualityScratch::for_window(f7t3.len());
        self.assess_window_into(f7t3, f8t4, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Fills the quality feature matrix for every sliding window of the
    /// channel pair, reusing `matrix`'s allocation across calls.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::extractor::FeatureExtractor::extract_matrix`].
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        let count = config.num_windows(f7t3.len());
        if count == 0 {
            return Err(FeatureError::SignalTooShort {
                actual: f7t3.len(),
                required: config.window_samples(),
            });
        }
        matrix.ensure_names(Self::feature_names);
        let data = matrix.reset_rows(count);
        let mut scratch = QualityScratch::for_window(config.window_samples());
        for ((row, w1), w2) in data
            .chunks_mut(NUM_QUALITY_FEATURES)
            .zip(config.windows(f7t3))
            .zip(config.windows(f8t4))
        {
            self.assess_window_into(w1, w2, row, &mut scratch)?;
        }
        Ok(())
    }

    /// Assesses one window pair into a caller-provided row of
    /// [`NUM_QUALITY_FEATURES`] slots, reusing `scratch` buffers — the
    /// single-window building block behind
    /// [`QualityExtractor::extract_batch_into`], exposed so streaming
    /// callers can grade windows as they complete without a matrix.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the windows differ
    /// in length and [`FeatureError::SignalTooShort`] below four samples.
    // lint: hot-path
    pub fn assess_window_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
        scratch: &mut QualityScratch,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        debug_assert_eq!(out.len(), NUM_QUALITY_FEATURES);
        self.channel_into(f7t3, &mut out[..QUALITY_FEATURES_PER_CHANNEL], scratch)?;
        self.channel_into(
            f8t4,
            &mut out[QUALITY_FEATURES_PER_CHANNEL..2 * QUALITY_FEATURES_PER_CHANNEL],
            scratch,
        )?;
        let log_a = out[channel_column(0, IDX_LOG_STD)];
        let log_b = out[channel_column(1, IDX_LOG_STD)];
        out[IDX_DISAGREEMENT] = (log_a - log_b).abs();
        Ok(())
    }

    /// The fused per-channel kernel (see the module docs).
    // lint: hot-path
    fn channel_into(
        &self,
        raw: &[f64],
        out: &mut [f64],
        scratch: &mut QualityScratch,
    ) -> Result<(), FeatureError> {
        let n = raw.len();
        if n < 4 {
            return Err(FeatureError::SignalTooShort {
                actual: n,
                required: 4,
            });
        }
        let nf = n as f64;
        let sanitize = |v: f64| if v.is_finite() { v } else { 0.0 };

        // Sweep 1: finite extrema, non-finite census and the longest run of
        // repeated samples (non-finite values count as equal to each other:
        // a dead channel full of NaN is one long dropout).
        let mut non_finite = 0usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut longest = 0usize;
        let mut run = 0usize;
        let mut prev = raw[0];
        for &v in raw {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            } else {
                non_finite += 1;
            }
            // The first sample matches itself and opens a run of one.
            let same = prev == v || (!prev.is_finite() && !v.is_finite());
            run = if same { run + 1 } else { 1 };
            longest = longest.max(run);
            prev = v;
        }
        let flat_run = longest as f64 / nf;

        // Sweep 2: samples pinned to either finite rail, and the energy and
        // sum of the sanitized samples.
        let mut pinned = 0usize;
        let mut total_energy = -0.0_f64;
        let mut sum = -0.0_f64;
        for &v in raw {
            pinned += usize::from(v == lo || v == hi);
            let c = sanitize(v);
            total_energy += c * c;
            sum += c;
        }
        // Railed fraction: pinned samples (when the window has two distinct
        // rails), plus every non-finite sample (an overflowed ADC reads as
        // railed, not absent).
        let railed = if hi > lo {
            ((pinned + non_finite) as f64 / nf).min(1.0)
        } else {
            (non_finite as f64 / nf).min(1.0)
        };
        let mean = sum / nf;

        // Goertzel probes: the precomputed hum probes, then the lowest three
        // DFT bins of the window (k / window_secs for k = 1..3, i.e. < 1 Hz
        // for 4 s windows) below Nyquist. Unused lanes run with a zero
        // coefficient and are never read.
        let num_hum = PROBES_PER_HUM_BIN * self.hum_bins.len();
        let mut coeffs = self.hum_coeffs;
        let mut num_drift = 0usize;
        for k in 1..=DRIFT_BINS {
            let freq = k as f64 * self.fs / nf;
            if freq < self.fs / 2.0 {
                coeffs[num_hum + num_drift] = goertzel_coeff(freq, self.fs);
                num_drift += 1;
            }
        }
        let mut s1 = [0.0_f64; MAX_PROBES];
        let mut s2 = [0.0_f64; MAX_PROBES];

        // Sweep 3: centred samples on the fly — AC energy, step magnitudes,
        // line length, largest step and every Goertzel probe.
        scratch.diffs.clear();
        scratch.diffs.resize(n - 1, 0.0);
        let mut prev = sanitize(raw[0]) - mean;
        let mut ac_energy = -0.0_f64 + prev * prev;
        let mut step_sum = -0.0_f64;
        let mut max_step = 0.0_f64;
        goertzel_step(&coeffs, &mut s1, &mut s2, prev);
        for (d, &v) in scratch.diffs.iter_mut().zip(&raw[1..]) {
            let x = sanitize(v) - mean;
            ac_energy += x * x;
            let step = (x - prev).abs();
            *d = step;
            step_sum += step;
            max_step = max_step.max(step);
            goertzel_step(&coeffs, &mut s1, &mut s2, x);
            prev = x;
        }
        let std = (ac_energy / nf).sqrt();
        let log_std = (std + 1e-12).ln();
        let line_length = step_sum / (nf - 1.0);

        // Median step by in-place selection: `total_cmp` ranks NaN
        // deterministically, so a hostile window can never panic the front
        // end that exists to absorb it.
        let mid = scratch.diffs.len() / 2;
        let (_, median_step, _) = scratch.diffs.select_nth_unstable_by(mid, f64::total_cmp);
        let max_jump = (max_step / (1.4826 * *median_step + 1e-12)).min(1e6);

        // Aliased mains hum: tone-energy fraction at each observable folded
        // bin, weighted by spectral sharpness against ±2 Hz neighbours so
        // broadband (or ictal) energy cannot trip it.
        let power = |p: usize| goertzel_power(coeffs[p], s1[p], s2[p]);
        let tone_norm = 2.0 / (nf * ac_energy + 1e-12);
        let mut hum: f64 = 0.0;
        for probe in (0..num_hum).step_by(PROBES_PER_HUM_BIN) {
            let p = power(probe);
            let p_lo = power(probe + 1);
            let p_hi = power(probe + 2);
            let sharpness = p / (p + p_lo + p_hi + 1e-12);
            // A pure tone scores sharpness ≈ 1, broadband noise ≈ 1/3.
            let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
            hum = hum.max((p * tone_norm).min(1.0) * weight);
        }

        // Baseline drift: DC offset plus the drift bins as a share of total
        // window energy.
        let mut drift_energy = nf * mean * mean;
        for probe in num_hum..num_hum + num_drift {
            drift_energy += power(probe) * 2.0 / nf;
        }
        let drift = (drift_energy / (total_energy + 1e-12)).clamp(0.0, 1.0);

        out[IDX_LINE_LENGTH] = line_length;
        out[IDX_RAILED_FRAC] = railed;
        out[IDX_FLAT_RUN_FRAC] = flat_run;
        out[IDX_HUM_RATIO] = hum;
        out[IDX_DRIFT_RATIO] = drift;
        out[IDX_MAX_JUMP_SIGMA] = max_jump;
        out[IDX_LOG_STD] = log_std;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sine(fs: f64, freq: f64, amp: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn noise(seed: u64, n: usize) -> Vec<f64> {
        // Tiny deterministic LCG; good enough for indicator-level tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn names_match_layout() {
        let names = QualityExtractor::feature_names();
        assert_eq!(names.len(), NUM_QUALITY_FEATURES);
        assert_eq!(
            names[channel_column(0, IDX_HUM_RATIO)],
            "quality_f7t3_hum_ratio"
        );
        assert_eq!(
            names[channel_column(1, IDX_LOG_STD)],
            "quality_f8t4_log_std"
        );
        assert_eq!(
            names[IDX_DISAGREEMENT],
            "quality_cross_channel_disagreement"
        );
    }

    #[test]
    fn aliased_bins_skip_the_seizure_band() {
        // At 64 Hz: 50 → 14 and 100 → 28 are kept; 60 → 4 and 120 → 8 fold
        // into the ictal band and are skipped.
        let q = QualityExtractor::new(64.0).unwrap();
        assert_eq!(q.hum_bins(), &[14.0, 28.0]);
        // At 256 Hz nothing folds and everything is observable.
        let q = QualityExtractor::new(256.0).unwrap();
        assert_eq!(q.hum_bins(), &[50.0, 60.0, 100.0, 120.0]);
    }

    #[test]
    fn indicators_are_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(7, 256);
        let b = noise(9, 256);
        assert_eq!(
            q.assess_window(&a, &b).unwrap(),
            q.assess_window(&a, &b).unwrap()
        );
    }

    #[test]
    fn nan_laced_window_yields_finite_deterministic_indicators() {
        // Regression for the NaN-unsafe median-step sort: indicators must
        // come out finite and reproducible even when the raw window carries
        // NaN/±inf samples (they are sanitized to 0 before any arithmetic).
        let q = QualityExtractor::new(64.0).unwrap();
        let mut a = noise(11, 256);
        a[3] = f64::NAN;
        a[100] = f64::INFINITY;
        a[200] = f64::NEG_INFINITY;
        let b = noise(13, 256);
        let first = q.assess_window(&a, &b).unwrap();
        assert!(first.iter().all(|v| v.is_finite()), "{first:?}");
        assert_eq!(first, q.assess_window(&a, &b).unwrap());
    }

    #[test]
    fn hum_is_detected_and_clean_noise_is_not() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let clean = noise(3, n);
        let mut hummy = clean.clone();
        for (i, v) in hummy.iter_mut().enumerate() {
            // 50 Hz sampled at 64 Hz lands on the 14 Hz alias.
            *v += 2.0 * (2.0 * PI * 50.0 * i as f64 / 64.0).sin();
        }
        let base = q.assess_window(&clean, &clean).unwrap();
        let hum = q.assess_window(&hummy, &hummy).unwrap();
        assert!(base[IDX_HUM_RATIO] < 0.1, "clean {}", base[IDX_HUM_RATIO]);
        assert!(hum[IDX_HUM_RATIO] > 0.5, "hum {}", hum[IDX_HUM_RATIO]);
    }

    #[test]
    fn drift_is_detected() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let mut wander = noise(5, n);
        let slow = sine(64.0, 0.4, 6.0, n);
        for (v, s) in wander.iter_mut().zip(&slow) {
            *v += s;
        }
        let clean = q.assess_window(&noise(5, n), &noise(6, n)).unwrap();
        let drifted = q.assess_window(&wander, &wander).unwrap();
        assert!(drifted[IDX_DRIFT_RATIO] > 0.8);
        assert!(clean[IDX_DRIFT_RATIO] < drifted[IDX_DRIFT_RATIO]);
    }

    #[test]
    fn hostile_inputs_stay_finite_and_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let flat = vec![3.25; n];
        let mut railed = noise(1, n);
        for v in railed.iter_mut() {
            *v = v.clamp(-0.1, 0.1);
        }
        let mut nans = noise(2, n);
        for v in nans.iter_mut().step_by(5) {
            *v = f64::NAN;
        }
        nans[17] = f64::INFINITY;
        nans[42] = f64::NEG_INFINITY;
        let all_nan = vec![f64::NAN; n];
        let zeros = vec![0.0; n];

        for (a, b) in [
            (&flat, &zeros),
            (&railed, &flat),
            (&nans, &railed),
            (&all_nan, &all_nan),
        ] {
            let row = q.assess_window(a, b).unwrap();
            assert_eq!(row.len(), NUM_QUALITY_FEATURES);
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            assert_eq!(row, q.assess_window(a, b).unwrap());
        }

        let flat_row = q.assess_window(&flat, &flat).unwrap();
        assert!(flat_row[IDX_FLAT_RUN_FRAC] > 0.99);
        let rail_row = q.assess_window(&railed, &railed).unwrap();
        assert!(
            rail_row[IDX_RAILED_FRAC] > 0.3,
            "{}",
            rail_row[IDX_RAILED_FRAC]
        );
        let nan_row = q.assess_window(&all_nan, &all_nan).unwrap();
        assert!(nan_row[IDX_RAILED_FRAC] > 0.99);
        assert!(nan_row[IDX_FLAT_RUN_FRAC] > 0.99);
    }

    #[test]
    fn electrode_pop_spikes_the_jump_indicator() {
        let q = QualityExtractor::new(64.0).unwrap();
        let mut popped = noise(11, 256);
        let rms = (popped.iter().map(|v| v * v).sum::<f64>() / 256.0).sqrt();
        for v in popped.iter_mut().skip(100) {
            *v += 12.0 * rms;
        }
        let clean = q.assess_window(&noise(11, 256), &noise(12, 256)).unwrap();
        let pop = q.assess_window(&popped, &popped).unwrap();
        assert!(pop[IDX_MAX_JUMP_SIGMA] > 3.0 * clean[IDX_MAX_JUMP_SIGMA]);
    }

    #[test]
    fn disagreement_tracks_amplitude_mismatch() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(21, 256);
        let big: Vec<f64> = a.iter().map(|v| v * 40.0).collect();
        let same = q.assess_window(&a, &a).unwrap();
        let differ = q.assess_window(&a, &big).unwrap();
        assert!(same[IDX_DISAGREEMENT] < 1e-9);
        assert!((differ[IDX_DISAGREEMENT] - 40.0_f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn batch_fill_matches_single_window_and_reuses_the_matrix() {
        let q = QualityExtractor::new(64.0).unwrap();
        let config = SlidingWindowConfig::new(64.0, 4.0, 0.75).unwrap();
        let a = noise(31, 64 * 20);
        let b = noise(32, 64 * 20);
        let mut matrix = FeatureMatrix::with_names(QualityExtractor::feature_names());
        q.extract_batch_into(&a, &b, &config, &mut matrix).unwrap();
        assert_eq!(matrix.num_features(), NUM_QUALITY_FEATURES);
        assert_eq!(matrix.num_windows(), config.num_windows(a.len()));
        let w = config.window_samples();
        let step = config.step_samples();
        for i in [0usize, 3, matrix.num_windows() - 1] {
            let s = i * step;
            let row = q.assess_window(&a[s..s + w], &b[s..s + w]).unwrap();
            assert_eq!(matrix.row(i), row.as_slice());
        }
        // Refill with a shorter signal: the matrix shrinks accordingly.
        q.extract_batch_into(&a[..64 * 8], &b[..64 * 8], &config, &mut matrix)
            .unwrap();
        assert_eq!(matrix.num_windows(), config.num_windows(64 * 8));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(QualityExtractor::new(0.0).is_err());
        assert!(QualityExtractor::new(f64::NAN).is_err());
        let q = QualityExtractor::new(64.0).unwrap();
        assert!(q.assess_window(&[1.0; 8], &[1.0; 9]).is_err());
        assert!(q.assess_window(&[1.0; 2], &[1.0; 2]).is_err());
    }

    /// Sampling rates the bit-identity property covers.
    const ORACLE_RATES: [f64; 5] = [64.0, 100.0, 128.0, 173.0, 256.0];
    /// Number of window kinds [`oracle_window`] draws from.
    const ORACLE_KINDS: usize = 11;

    /// An `n`-sample window at `fs` Hz: random content (kind 0) or one of
    /// the hostile shapes the quality front end exists to absorb.
    fn oracle_window(kind: usize, seed: u64, n: usize, fs: f64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let scale = 10f64.powi((next() % 13) as i32 - 6);
        let base: Vec<f64> = noise(next(), n).iter().map(|v| v * scale).collect();
        let at = (next() % n as u64) as usize;
        match kind {
            0 => base,
            // NaN / ±∞ laced.
            1 => base
                .iter()
                .map(|&v| match next() % 9 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => v,
                })
                .collect(),
            // Nothing finite at all.
            2 => (0..n)
                .map(|_| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(next() % 3) as usize])
                .collect(),
            // Railed: clipped at both rails.
            3 => base
                .iter()
                .map(|v| v.clamp(-0.2 * scale, 0.2 * scale))
                .collect(),
            // Flat.
            4 => vec![base[0]; n],
            // All negative zero.
            5 => vec![-0.0; n],
            // Step pop plus a one-sample spike.
            6 => {
                let mut w = base;
                for v in &mut w[at..] {
                    *v += 50.0 * scale;
                }
                w[n - 1 - at] -= 200.0 * scale;
                w
            }
            // Quantized ADC codes: many tied steps, signed zeros.
            7 => base
                .iter()
                .map(|v| {
                    let code = (v / scale * 8.0).round();
                    if code == 0.0 && next() % 2 == 0 {
                        -0.0
                    } else {
                        code
                    }
                })
                .collect(),
            // Aliased mains hum on top of slow wander.
            8 => base
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let t = i as f64 / fs;
                    v + scale
                        * (3.0 * (2.0 * PI * 50.0 * t).sin() + 5.0 * (2.0 * PI * 0.3 * t).sin())
                })
                .collect(),
            // Dropout: a flat stretch and a NaN stretch inside the signal.
            9 => {
                let mut w = base;
                let len = n / 3;
                let first = at.min(n - len);
                for v in &mut w[first..first + len] {
                    *v = 1.5 * scale;
                }
                for v in w.iter_mut().rev().take(len / 2) {
                    *v = f64::NAN;
                }
                w
            }
            // Huge finite samples: sums and steps overflow to ∞ and NaN.
            _ => base
                .iter()
                .map(|v| {
                    if v.is_sign_negative() {
                        -f64::MAX
                    } else {
                        f64::MAX / (1.0 + v.abs())
                    }
                })
                .collect(),
        }
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        #[test]
        fn fused_kernel_is_bit_identical_to_reference(
            rate in 0usize..ORACLE_RATES.len(),
            n in 4usize..1100,
            kind_a in 0usize..ORACLE_KINDS,
            kind_b in 0usize..ORACLE_KINDS,
            seed in any::<u64>(),
        ) {
            let fs = ORACLE_RATES[rate];
            let q = QualityExtractor::new(fs).unwrap();
            let a = oracle_window(kind_a, seed, n, fs);
            let b = oracle_window(kind_b, seed ^ 0x5555, n, fs);
            let fused = q.assess_window(&a, &b).unwrap();
            let oracle = reference::assess_window(&q, &a, &b);
            prop_assert_eq!(bits(&fused), bits(&oracle), "fs {} n {} kinds {}/{}", fs, n, kind_a, kind_b);
        }
    }

    #[test]
    fn every_window_kind_matches_the_reference_at_every_rate() {
        let mut scratch = QualityScratch::default();
        let mut row = [0.0; NUM_QUALITY_FEATURES];
        for fs in ORACLE_RATES {
            let q = QualityExtractor::new(fs).unwrap();
            for kind in 0..ORACLE_KINDS {
                for n in [4, 5, 7, 1024, 1025] {
                    let a = oracle_window(kind, 17 + kind as u64, n, fs);
                    let b = oracle_window((kind + 1) % ORACLE_KINDS, 29, n, fs);
                    // One scratch across every shape: reuse must not leak state.
                    q.assess_window_into(&a, &b, &mut row, &mut scratch)
                        .unwrap();
                    let oracle = reference::assess_window(&q, &a, &b);
                    assert_eq!(bits(&row), bits(&oracle), "fs {fs} n {n} kind {kind}");
                }
            }
        }
    }
}

/// The one-indicator-at-a-time formulation the fused kernel must reproduce
/// bit for bit: a sanitized copy, separate energy passes, a full sort for
/// the median step and one Goertzel pass per probe.
#[cfg(test)]
mod reference {
    use super::*;

    fn goertzel_power(x: &[f64], fs: f64, freq: f64) -> f64 {
        let coeff = 2.0 * (2.0 * PI * freq / fs).cos();
        let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
        for &v in x {
            let s0 = v + coeff * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
    }

    /// Reference quality row of one window pair.
    pub(super) fn assess_window(q: &QualityExtractor, f7t3: &[f64], f8t4: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; NUM_QUALITY_FEATURES];
        channel_into(q, f7t3, &mut out[..QUALITY_FEATURES_PER_CHANNEL]);
        channel_into(
            q,
            f8t4,
            &mut out[QUALITY_FEATURES_PER_CHANNEL..2 * QUALITY_FEATURES_PER_CHANNEL],
        );
        out[IDX_DISAGREEMENT] =
            (out[channel_column(0, IDX_LOG_STD)] - out[channel_column(1, IDX_LOG_STD)]).abs();
        out
    }

    fn channel_into(q: &QualityExtractor, raw: &[f64], out: &mut [f64]) {
        let n = raw.len();
        assert!(n >= 4);
        let nf = n as f64;

        let mut non_finite = 0usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in raw {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            } else {
                non_finite += 1;
            }
        }

        let railed = if hi > lo {
            let pinned = raw.iter().filter(|v| **v == lo || **v == hi).count();
            ((pinned + non_finite) as f64 / nf).min(1.0)
        } else {
            (non_finite as f64 / nf).min(1.0)
        };

        let mut longest = 1usize;
        let mut run = 1usize;
        for pair in raw.windows(2) {
            let same = pair[0] == pair[1] || (!pair[0].is_finite() && !pair[1].is_finite());
            run = if same { run + 1 } else { 1 };
            longest = longest.max(run);
        }
        let flat_run = longest as f64 / nf;

        let mut cleaned: Vec<f64> = raw
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let total_energy: f64 = cleaned.iter().map(|v| v * v).sum();
        let mean = cleaned.iter().sum::<f64>() / nf;
        for v in cleaned.iter_mut() {
            *v -= mean;
        }
        let ac_energy: f64 = cleaned.iter().map(|v| v * v).sum();
        let std = (ac_energy / nf).sqrt();
        let log_std = (std + 1e-12).ln();

        let mut diffs: Vec<f64> = cleaned.windows(2).map(|p| (p[1] - p[0]).abs()).collect();
        let line_length = diffs.iter().sum::<f64>() / (nf - 1.0);
        let max_step = diffs.iter().copied().fold(0.0_f64, f64::max);
        diffs.sort_by(f64::total_cmp);
        let median_step = diffs[diffs.len() / 2];
        let max_jump = (max_step / (1.4826 * median_step + 1e-12)).min(1e6);

        let fs = q.sampling_frequency();
        let tone_norm = 2.0 / (nf * ac_energy + 1e-12);
        let mut hum: f64 = 0.0;
        for &bin in q.hum_bins() {
            let p = goertzel_power(&cleaned, fs, bin);
            let p_lo = goertzel_power(&cleaned, fs, bin - 2.0);
            let p_hi = goertzel_power(&cleaned, fs, bin + 2.0);
            let sharpness = p / (p + p_lo + p_hi + 1e-12);
            let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
            hum = hum.max((p * tone_norm).min(1.0) * weight);
        }

        let mut drift_energy = nf * mean * mean;
        for k in 1..=3 {
            let freq = k as f64 * fs / nf;
            if freq < fs / 2.0 {
                drift_energy += goertzel_power(&cleaned, fs, freq) * 2.0 / nf;
            }
        }
        let drift = (drift_energy / (total_energy + 1e-12)).clamp(0.0, 1.0);

        out[IDX_LINE_LENGTH] = line_length;
        out[IDX_RAILED_FRAC] = railed;
        out[IDX_FLAT_RUN_FRAC] = flat_run;
        out[IDX_HUM_RATIO] = hum;
        out[IDX_DRIFT_RATIO] = drift;
        out[IDX_MAX_JUMP_SIGMA] = max_jump;
        out[IDX_LOG_STD] = log_std;
    }
}
