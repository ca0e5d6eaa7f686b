//! Sliding-window feature extraction over the two-channel EEG montage.
//!
//! The paper extracts features "from four-second windows with an overlap of
//! 75 %, i.e. after the features from one window are extracted, the window
//! slides by one second" (§III-A). Two feature sets are provided:
//!
//! * [`PaperFeatureSet`] — the ten backward-elimination-selected features used
//!   by the a-posteriori labeling algorithm;
//! * [`RichFeatureSet`] — a 54-feature catalogue (27 per channel) mirroring the
//!   real-time random-forest detector of Sopic et al. (e-Glass, ISCAS 2018).
//!
//! Both extract one window into a caller-provided row through a reusable
//! [`FeatureScratch`] (`extract_window_into`) and a whole record into a flat
//! [`FeatureMatrix`] across scoped worker threads (`extract_batch_into`).

use crate::bandpower::{band_powers_from_bins, Band};
use crate::entropy::{renyi_entropy_quadratic, sample_entropy, shannon_entropy};
use crate::error::FeatureError;
use crate::hjorth::hjorth_parameters_fused;
use crate::matrix::FeatureMatrix;
use crate::scratch::{FeatureScratch, FeatureScratchPool};
use crate::statistics::window_statistics_fused;
use crate::waveform::{line_length, nonlinear_energy, peak_to_peak, zero_crossings};

/// Sliding-window segmentation parameters.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::SlidingWindowConfig;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let cfg = SlidingWindowConfig::paper_default(256.0)?;
/// assert_eq!(cfg.window_samples(), 1024); // 4 s at 256 Hz
/// assert_eq!(cfg.step_samples(), 256);    // 1 s step (75 % overlap)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlidingWindowConfig {
    fs: f64,
    window_samples: usize,
    step_samples: usize,
}

impl SlidingWindowConfig {
    /// Creates a configuration from a window length in seconds and a
    /// fractional overlap in `[0, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if the sampling frequency or the
    /// window length is not positive and finite, the window does not fit in a
    /// `usize` sample count, or the overlap lies outside `[0, 1)`.
    pub fn new(fs: f64, window_secs: f64, overlap: f64) -> Result<Self, FeatureError> {
        check_sampling_frequency(fs)?;
        if !(window_secs > 0.0 && window_secs.is_finite()) {
            return Err(FeatureError::InvalidConfig {
                name: "window_secs",
                reason: format!("window length must be positive and finite, got {window_secs}"),
            });
        }
        if !(0.0..1.0).contains(&overlap) {
            return Err(FeatureError::InvalidConfig {
                name: "overlap",
                reason: format!("overlap must lie in [0, 1), got {overlap}"),
            });
        }
        let exact_window = (window_secs * fs).round();
        // `usize::MAX as f64` rounds up to 2^64, so `<` admits exactly the
        // counts a `usize` holds; the `as` cast would saturate the rest.
        if exact_window >= usize::MAX as f64 {
            return Err(FeatureError::InvalidConfig {
                name: "window_secs",
                reason: format!(
                    "a {window_secs} s window at {fs} Hz has more samples than a usize can count"
                ),
            });
        }
        let window_samples = exact_window as usize;
        if window_samples == 0 {
            return Err(FeatureError::InvalidConfig {
                name: "window_secs",
                reason: "window must contain at least one sample".to_string(),
            });
        }
        // The step is derived from the *realized* window length (not the
        // fractional `window_secs * fs`) and rounded to the nearest sample,
        // so the effective overlap tracks the configured one instead of
        // silently drifting when `window_samples * (1 - overlap)` is not
        // integral. Configurations whose realized overlap still deviates by
        // more than one sample (only reachable if the step formula changes,
        // e.g. truncation) are rejected rather than accepted quietly.
        let exact_step = window_samples as f64 * (1.0 - overlap);
        let step_samples = (exact_step.round() as usize).max(1);
        let realized_overlap = (window_samples - step_samples.min(window_samples)) as f64;
        let configured_overlap = window_samples as f64 * overlap;
        if (realized_overlap - configured_overlap).abs() > 1.0 {
            return Err(FeatureError::InvalidConfig {
                name: "overlap",
                reason: format!(
                    "realized overlap of {realized_overlap} samples deviates from the \
                     configured {configured_overlap:.2} by more than one sample \
                     ({window_samples}-sample windows cannot step by {exact_step:.2})"
                ),
            });
        }
        Ok(Self {
            fs,
            window_samples,
            step_samples,
        })
    }

    /// The paper's configuration: 4-second windows with 75 % overlap
    /// (a one-second step).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive and
    /// finite.
    pub fn paper_default(fs: f64) -> Result<Self, FeatureError> {
        Self::new(fs, 4.0, 0.75)
    }

    /// Sampling frequency in Hz.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Window length in samples.
    pub fn window_samples(&self) -> usize {
        self.window_samples
    }

    /// Hop between consecutive windows in samples.
    pub fn step_samples(&self) -> usize {
        self.step_samples
    }

    /// Window length in seconds.
    pub fn window_seconds(&self) -> f64 {
        self.window_samples as f64 / self.fs
    }

    /// Hop between consecutive windows in seconds.
    pub fn step_seconds(&self) -> f64 {
        self.step_samples as f64 / self.fs
    }

    /// Number of complete windows that fit into a signal of `signal_len`
    /// samples.
    pub fn num_windows(&self, signal_len: usize) -> usize {
        if signal_len < self.window_samples {
            0
        } else {
            (signal_len - self.window_samples) / self.step_samples + 1
        }
    }

    /// Sample index at which window `index` starts.
    pub fn window_start_sample(&self, index: usize) -> usize {
        index * self.step_samples
    }

    /// Time in seconds at which window `index` starts.
    pub fn window_start_seconds(&self, index: usize) -> f64 {
        self.window_start_sample(index) as f64 / self.fs
    }

    /// Iterator over the window slices of `signal`.
    pub fn windows<'a>(&self, signal: &'a [f64]) -> impl Iterator<Item = &'a [f64]> + 'a {
        let window = self.window_samples;
        let step = self.step_samples;
        let count = self.num_windows(signal.len());
        (0..count).map(move |i| &signal[i * step..i * step + window])
    }
}

/// Rejects a sampling frequency that is not positive and finite.
pub(crate) fn check_sampling_frequency(fs: f64) -> Result<(), FeatureError> {
    if fs > 0.0 && fs.is_finite() {
        Ok(())
    } else {
        Err(FeatureError::InvalidConfig {
            name: "fs",
            reason: format!("sampling frequency must be positive and finite, got {fs}"),
        })
    }
}

/// Validates a whole record for the batch path and returns its window count.
fn record_window_count(
    f7t3: &[f64],
    f8t4: &[f64],
    config: &SlidingWindowConfig,
) -> Result<usize, FeatureError> {
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
    Ok(count)
}

/// Misuse-only error constructor for a gathered window index past the end
/// of the record, kept outside the hot blocks.
#[cold]
fn window_out_of_range(index: usize, count: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!("window {index} requested but the record holds {count} windows"),
    }
}

/// Shared driver of the parallel batch extraction paths: fans the rows of
/// `out` (`num_features` values each) out across scoped worker threads, each
/// checking one [`FeatureScratch`] out of the pool for its whole block, and
/// fills row `r` from the window with index `window_of(r)`. The full-record
/// path maps every row to itself; the gather maps rows to a window list.
/// Callers validate the channels and the window indices.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn parallel_extract_into<WO, EX>(
    num_features: usize,
    f7t3: &[f64],
    f8t4: &[f64],
    config: &SlidingWindowConfig,
    fs: f64,
    max_wavelet_levels: usize,
    pool: &FeatureScratchPool,
    out: &mut [f64],
    window_of: WO,
    extract: EX,
) -> Result<(), FeatureError>
where
    WO: Fn(usize) -> usize + Sync,
    EX: Fn(&[f64], &[f64], &mut [f64], &mut FeatureScratch) -> Result<(), FeatureError> + Sync,
{
    let window = config.window_samples();
    let step = config.step_samples();
    seizure_parallel::par_process_rows::<FeatureError, _>(out, num_features, |first_row, block| {
        let mut scratch = pool.acquire(fs, window, max_wavelet_levels)?;
        for (offset, row) in block.chunks_mut(num_features).enumerate() {
            let start = window_of(first_row + offset) * step;
            extract(
                &f7t3[start..start + window],
                &f8t4[start..start + window],
                row,
                &mut scratch,
            )?;
        }
        pool.release(scratch);
        Ok(())
    })
}

/// Decomposition depth used for the wavelet-domain entropy features.
pub(crate) const PAPER_WAVELET_LEVELS: usize = 7;

/// Number of features [`PaperFeatureSet`] produces per window.
const PAPER_FEATURES: usize = 10;

/// The paper's ten-feature set (§III-A), selected by backward elimination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperFeatureSet {
    fs: f64,
}

impl PaperFeatureSet {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive and
    /// finite.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        check_sampling_frequency(fs)?;
        Ok(Self { fs })
    }

    /// Sampling frequency the extractor was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Builds the reusable scratch workspace for windows of `window_len`
    /// samples (db4 decomposition clamped at the paper's level 7).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::Dsp`] if the window is too short to support
    /// even one decomposition level.
    pub fn scratch(&self, window_len: usize) -> Result<FeatureScratch, FeatureError> {
        FeatureScratch::new(self.fs, window_len, PAPER_WAVELET_LEVELS)
    }

    /// Extracts the ten paper features of one window pair into `out` using
    /// preallocated scratch space, without allocating on the FFT, wavelet
    /// or permutation-entropy path. The db4 decomposition is clamped to the
    /// deepest level the window supports, and the level-7/6/3 features read
    /// the deepest available level when the nominal one does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if `out` does not have ten
    /// slots, [`FeatureError::ChannelLengthMismatch`] if the channels differ
    /// from each other, [`FeatureError::DimensionMismatch`] if they differ
    /// from the scratch's planned length, and propagates numeric failures.
    pub fn extract_window_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
        scratch: &mut FeatureScratch,
    ) -> Result<(), FeatureError> {
        if out.len() != PAPER_FEATURES {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "output slice has {} slots but the paper set produces {PAPER_FEATURES} features",
                    out.len(),
                ),
            });
        }
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        if f7t3.len() != scratch.window_len() {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "window has {} samples but the scratch was built for {}",
                    f7t3.len(),
                    scratch.window_len()
                ),
            });
        }
        // Spectral features, one reused periodogram plan per channel.
        let n = scratch.window_len();
        let left = band_powers_from_bins(scratch.power_bins(f7t3)?, self.fs, n)?;
        let right = band_powers_from_bins(scratch.power_bins(f8t4)?, self.fs, n)?;

        // Wavelet-domain nonlinear features of F8T4 from the reused workspace.
        scratch.decompose(f8t4)?;
        out[0] = left.absolute(Band::Theta);
        out[1] = left.relative(Band::Theta);
        out[2] = left.absolute(Band::Delta);
        out[3] = right.relative(Band::Theta);
        out[4] = scratch.detail_perm_entropy(7, 5, 1)?;
        out[5] = scratch.detail_perm_entropy(7, 7, 1)?;
        out[6] = scratch.detail_perm_entropy(6, 7, 1)?;
        out[7] = renyi_entropy_quadratic(scratch.detail_clamped(3));
        out[8] = sample_entropy(scratch.detail_clamped(6), 2, 0.2)?;
        out[9] = sample_entropy(scratch.detail_clamped(6), 2, 0.35)?;
        Ok(())
    }

    /// Names of the ten features, in output order.
    pub fn feature_names(&self) -> Vec<String> {
        vec![
            "f7t3_theta_power".to_string(),
            "f7t3_theta_relative_power".to_string(),
            "f7t3_delta_power".to_string(),
            "f8t4_theta_relative_power".to_string(),
            "f8t4_d7_permutation_entropy_n5".to_string(),
            "f8t4_d7_permutation_entropy_n7".to_string(),
            "f8t4_d6_permutation_entropy_n7".to_string(),
            "f8t4_d3_renyi_entropy".to_string(),
            "f8t4_d6_sample_entropy_k020".to_string(),
            "f8t4_d6_sample_entropy_k035".to_string(),
        ]
    }

    /// Extracts the feature matrix of a whole record: one row per sliding
    /// window of `config`, filled in parallel across scoped worker threads
    /// into `matrix` (refilled in place, reusing its allocation), with the
    /// workers' scratch workspaces checked out of `pool` instead of built
    /// per record.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the channels differ
    /// in length and [`FeatureError::SignalTooShort`] if not even one window
    /// fits; propagates numeric failures.
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        pool: &FeatureScratchPool,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        let count = record_window_count(f7t3, f8t4, config)?;
        matrix.ensure_names(|| self.feature_names());
        parallel_extract_into(
            PAPER_FEATURES,
            f7t3,
            f8t4,
            config,
            self.fs,
            PAPER_WAVELET_LEVELS,
            pool,
            matrix.reset_rows(count),
            |row| row,
            |w1, w2, out, scratch| self.extract_window_into(w1, w2, out, scratch),
        )
    }
}

/// A 54-feature catalogue (27 per electrode pair) mirroring the feature
/// families of the e-Glass real-time detector: band powers, statistics,
/// Hjorth descriptors, waveform features, permutation entropies and wavelet
/// Shannon entropies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RichFeatureSet {
    fs: f64,
}

/// Number of features [`RichFeatureSet`] produces per channel.
pub(crate) const RICH_FEATURES_PER_CHANNEL: usize = 27;

/// Decomposition depth used for the rich set's wavelet entropy features.
pub(crate) const RICH_WAVELET_LEVELS: usize = 5;

impl RichFeatureSet {
    /// Number of features per window (27 per channel).
    pub const NUM_FEATURES: usize = 2 * RICH_FEATURES_PER_CHANNEL;

    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive and
    /// finite.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        check_sampling_frequency(fs)?;
        Ok(Self { fs })
    }

    /// Sampling frequency the extractor was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    fn channel_feature_names(channel: &str) -> Vec<String> {
        let mut names = Vec::with_capacity(RICH_FEATURES_PER_CHANNEL);
        for band in Band::ALL {
            names.push(format!("{channel}_{band}_power"));
        }
        for band in Band::ALL {
            names.push(format!("{channel}_{band}_relative_power"));
        }
        names.push(format!("{channel}_total_power"));
        for stat in ["mean", "variance", "skewness", "kurtosis", "rms"] {
            names.push(format!("{channel}_{stat}"));
        }
        names.push(format!("{channel}_hjorth_mobility"));
        names.push(format!("{channel}_hjorth_complexity"));
        for wf in [
            "line_length",
            "nonlinear_energy",
            "zero_crossings",
            "peak_to_peak",
        ] {
            names.push(format!("{channel}_{wf}"));
        }
        names.push(format!("{channel}_permutation_entropy_n3"));
        names.push(format!("{channel}_permutation_entropy_n5"));
        for level in [3, 4, 5] {
            names.push(format!("{channel}_d{level}_shannon_entropy"));
        }
        names
    }

    /// Builds the reusable scratch workspace for windows of `window_len`
    /// samples (db4 decomposition clamped at level 5).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::Dsp`] if the window is too short to support
    /// even one decomposition level.
    pub fn scratch(&self, window_len: usize) -> Result<FeatureScratch, FeatureError> {
        FeatureScratch::new(self.fs, window_len, RICH_WAVELET_LEVELS)
    }

    /// The 27 per-channel features written into `out` without allocating on
    /// the FFT/wavelet path.
    fn channel_features_into(
        &self,
        window: &[f64],
        out: &mut [f64],
        scratch: &mut FeatureScratch,
    ) -> Result<(), FeatureError> {
        debug_assert_eq!(out.len(), RICH_FEATURES_PER_CHANNEL);
        if window.len() < 3 {
            return Err(FeatureError::SignalTooShort {
                actual: window.len(),
                required: 3,
            });
        }
        let n = scratch.window_len();
        let bands = band_powers_from_bins(scratch.power_bins(window)?, self.fs, n)?;
        out[..5].copy_from_slice(&bands.absolute);
        out[5..10].copy_from_slice(&bands.relative);
        out[10] = bands.total;

        let stats = window_statistics_fused(window)?;
        out[11] = stats.mean;
        out[12] = stats.variance;
        out[13] = stats.skewness;
        out[14] = stats.kurtosis;
        out[15] = stats.rms;

        let hjorth = hjorth_parameters_fused(window)?;
        out[16] = hjorth.mobility;
        out[17] = hjorth.complexity;

        out[18] = line_length(window)?;
        out[19] = nonlinear_energy(window)?;
        out[20] = zero_crossings(window)? as f64;
        out[21] = peak_to_peak(window)?;

        out[22] = scratch.perm_entropy(window, 3, 1)?;
        out[23] = scratch.perm_entropy(window, 5, 1)?;

        scratch.decompose(window)?;
        for (slot, level) in out[24..27].iter_mut().zip([3usize, 4, 5]) {
            *slot = shannon_entropy(scratch.detail_clamped(level));
        }
        Ok(())
    }

    /// Extracts all 54 features of one window pair into `out` using
    /// preallocated scratch space: F7T3's 27-feature block, then F8T4's.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if `out` does not have 54
    /// slots, [`FeatureError::ChannelLengthMismatch`] if the channels differ
    /// from each other, [`FeatureError::DimensionMismatch`] if they differ
    /// from the scratch's planned length, and propagates numeric failures.
    pub fn extract_window_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
        scratch: &mut FeatureScratch,
    ) -> Result<(), FeatureError> {
        if out.len() != Self::NUM_FEATURES {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "output slice has {} slots but the rich set produces {} features",
                    out.len(),
                    Self::NUM_FEATURES
                ),
            });
        }
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        if f7t3.len() != scratch.window_len() {
            return Err(FeatureError::DimensionMismatch {
                detail: format!(
                    "window has {} samples but the scratch was built for {}",
                    f7t3.len(),
                    scratch.window_len()
                ),
            });
        }
        let (left, right) = out.split_at_mut(RICH_FEATURES_PER_CHANNEL);
        self.channel_features_into(f7t3, left, scratch)?;
        self.channel_features_into(f8t4, right, scratch)?;
        Ok(())
    }

    /// Gathers the rows of the listed windows only: row `r` of `out`
    /// (refilled in place, [`RichFeatureSet::NUM_FEATURES`] values per row)
    /// holds the features of window `windows[r]`, in list order, duplicates
    /// allowed. Each row is the same [`RichFeatureSet::extract_window_into`]
    /// call on the same samples that
    /// [`RichFeatureSet::extract_batch_into`] makes for that window, so a
    /// gathered row is bit-identical to the matching row of the full matrix.
    /// An empty list leaves `out` empty.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the channels differ
    /// in length and [`FeatureError::DimensionMismatch`] if an index lies
    /// past the record's last window; propagates numeric failures.
    // lint: hot-path
    pub fn extract_windows_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        windows: &[usize],
        pool: &FeatureScratchPool,
        out: &mut Vec<f64>,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        let count = config.num_windows(f7t3.len());
        if let Some(&index) = windows.iter().find(|&&w| w >= count) {
            return Err(window_out_of_range(index, count));
        }
        out.clear();
        if windows.is_empty() {
            return Ok(());
        }
        out.resize(windows.len() * Self::NUM_FEATURES, 0.0);
        parallel_extract_into(
            Self::NUM_FEATURES,
            f7t3,
            f8t4,
            config,
            self.fs,
            RICH_WAVELET_LEVELS,
            pool,
            out,
            |row| windows[row],
            |w1, w2, row, scratch| self.extract_window_into(w1, w2, row, scratch),
        )
    }

    /// Names of the 54 features, in output order.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Self::channel_feature_names("f7t3");
        names.extend(Self::channel_feature_names("f8t4"));
        names
    }

    /// Extracts the feature matrix of a whole record: one row per sliding
    /// window of `config`, filled in parallel across scoped worker threads
    /// into `matrix` (refilled in place, reusing its allocation), with the
    /// workers' scratch workspaces checked out of `pool` instead of built
    /// per record.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the channels differ
    /// in length and [`FeatureError::SignalTooShort`] if not even one window
    /// fits; propagates numeric failures.
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        pool: &FeatureScratchPool,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        let count = record_window_count(f7t3, f8t4, config)?;
        matrix.ensure_names(|| self.feature_names());
        parallel_extract_into(
            Self::NUM_FEATURES,
            f7t3,
            f8t4,
            config,
            self.fs,
            RICH_WAVELET_LEVELS,
            pool,
            matrix.reset_rows(count),
            |row| row,
            |w1, w2, out, scratch| self.extract_window_into(w1, w2, out, scratch),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn tone(freq: f64, fs: f64, n: usize, amp: f64) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * std::f64::consts::PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn two_channels(fs: f64, secs: f64) -> (Vec<f64>, Vec<f64>) {
        let n = (fs * secs) as usize;
        (tone(6.0, fs, n, 1.0), tone(3.0, fs, n, 0.8))
    }

    #[test]
    fn config_paper_default_matches_paper() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        assert_eq!(cfg.window_samples(), 1024);
        assert_eq!(cfg.step_samples(), 256);
        assert!((cfg.window_seconds() - 4.0).abs() < 1e-12);
        assert!((cfg.step_seconds() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        assert!(SlidingWindowConfig::new(0.0, 4.0, 0.75).is_err());
        assert!(SlidingWindowConfig::new(256.0, 0.0, 0.75).is_err());
        assert!(SlidingWindowConfig::new(256.0, 4.0, 1.0).is_err());
        assert!(SlidingWindowConfig::new(256.0, 4.0, -0.1).is_err());
    }

    /// Regression: an infinite or astronomically long window used to saturate
    /// to `usize::MAX` samples and be accepted, so every record silently
    /// yielded zero windows.
    #[test]
    fn config_rejects_non_finite_or_overflowing_geometry() {
        for (fs, window_secs) in [(256.0, f64::INFINITY), (f64::INFINITY, 4.0), (256.0, 1e300)] {
            assert!(
                matches!(
                    SlidingWindowConfig::new(fs, window_secs, 0.75),
                    Err(FeatureError::InvalidConfig { .. })
                ),
                "fs {fs}, window {window_secs} s"
            );
        }
        // Long but representable windows are unaffected.
        assert!(SlidingWindowConfig::new(256.0, 3600.0, 0.75).is_ok());
    }

    #[test]
    fn fractional_overlap_steps_round_to_nearest() {
        // Regression: 4 s at 256 Hz with 60 % overlap gives an exact step of
        // 409.6 samples; the step must round to 410 (not truncate to 409),
        // keeping the realized overlap within one sample of the configured.
        let cfg = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        assert_eq!(cfg.window_samples(), 1024);
        assert_eq!(cfg.step_samples(), 410);
        let realized = (cfg.window_samples() - cfg.step_samples()) as f64;
        assert!((realized - 1024.0 * 0.6).abs() <= 1.0);

        // Extreme overlaps clamp the step at one sample but still stay
        // within the one-sample deviation budget.
        let tight = SlidingWindowConfig::new(64.0, 1.0, 0.999).unwrap();
        assert_eq!(tight.step_samples(), 1);
    }

    #[test]
    fn num_windows_formula() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        // A 60-second signal at 256 Hz yields 57 four-second windows stepping by 1 s.
        assert_eq!(cfg.num_windows(60 * 256), 57);
        assert_eq!(cfg.num_windows(1024), 1);
        assert_eq!(cfg.num_windows(1023), 0);
    }

    #[test]
    fn window_index_time_mapping_roundtrip() {
        let cfg = SlidingWindowConfig::paper_default(256.0).unwrap();
        assert_eq!(cfg.window_start_sample(10), 2560);
        assert!((cfg.window_start_seconds(10) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn windows_iterator_covers_signal() {
        let cfg = SlidingWindowConfig::new(10.0, 1.0, 0.5).unwrap();
        let signal: Vec<f64> = (0..35).map(|i| i as f64).collect();
        let windows: Vec<&[f64]> = cfg.windows(&signal).collect();
        assert_eq!(windows.len(), cfg.num_windows(35));
        assert_eq!(windows[0][0], 0.0);
        assert_eq!(windows[1][0], 5.0);
        assert!(windows.iter().all(|w| w.len() == 10));
    }

    /// Record extraction into a fresh matrix through a fresh pool.
    fn paper_batch(
        ex: &PaperFeatureSet,
        a: &[f64],
        b: &[f64],
        cfg: &SlidingWindowConfig,
    ) -> Result<FeatureMatrix, FeatureError> {
        let mut matrix = FeatureMatrix::default();
        ex.extract_batch_into(a, b, cfg, &FeatureScratchPool::new(), &mut matrix)?;
        Ok(matrix)
    }

    /// Record extraction into a fresh matrix through a fresh pool.
    fn rich_batch(
        ex: &RichFeatureSet,
        a: &[f64],
        b: &[f64],
        cfg: &SlidingWindowConfig,
    ) -> Result<FeatureMatrix, FeatureError> {
        let mut matrix = FeatureMatrix::default();
        ex.extract_batch_into(a, b, cfg, &FeatureScratchPool::new(), &mut matrix)?;
        Ok(matrix)
    }

    /// One window pair through a fresh scratch.
    fn paper_row(ex: &PaperFeatureSet, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut scratch = ex.scratch(a.len()).unwrap();
        let mut out = vec![0.0; PAPER_FEATURES];
        ex.extract_window_into(a, b, &mut out, &mut scratch)
            .unwrap();
        out
    }

    /// One window pair through a fresh scratch.
    fn rich_row(ex: &RichFeatureSet, a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut scratch = ex.scratch(a.len()).unwrap();
        let mut out = vec![0.0; RichFeatureSet::NUM_FEATURES];
        ex.extract_window_into(a, b, &mut out, &mut scratch)
            .unwrap();
        out
    }

    #[test]
    fn paper_feature_set_has_ten_named_features() {
        let ex = PaperFeatureSet::new(256.0).unwrap();
        assert_eq!(ex.feature_names().len(), 10);
        assert!(ex.feature_names()[0].starts_with("f7t3"));
        assert!(ex.feature_names()[9].starts_with("f8t4"));
    }

    #[test]
    fn paper_feature_set_rejects_bad_fs() {
        for fs in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(PaperFeatureSet::new(fs).is_err(), "{fs}");
            assert!(RichFeatureSet::new(fs).is_err(), "{fs}");
            assert!(FeatureScratch::new(fs, 1024, 5).is_err(), "{fs}");
        }
    }

    #[test]
    fn paper_features_on_single_window() {
        let fs = 256.0;
        let ex = PaperFeatureSet::new(fs).unwrap();
        let w1 = tone(6.0, fs, 1024, 2.0);
        let w2 = tone(2.0, fs, 1024, 1.0);
        let features = paper_row(&ex, &w1, &w2);
        assert!(features.iter().all(|f| f.is_finite()));
        // F7T3 carries a theta tone, so its relative theta power is high.
        assert!(features[1] > 0.8);
        // F8T4 carries a delta tone, so its relative theta power is low.
        assert!(features[3] < 0.2);
    }

    #[test]
    fn paper_features_empty_window_rejected() {
        let ex = PaperFeatureSet::new(256.0).unwrap();
        assert!(ex.scratch(0).is_err());
    }

    #[test]
    fn extract_matrix_dimensions() {
        let fs = 256.0;
        let (a, b) = two_channels(fs, 20.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = PaperFeatureSet::new(fs).unwrap();
        let m = paper_batch(&ex, &a, &b, &cfg).unwrap();
        assert_eq!(m.num_features(), 10);
        assert_eq!(m.num_windows(), cfg.num_windows(a.len()));
    }

    #[test]
    fn extract_matrix_rejects_mismatched_channels() {
        let fs = 256.0;
        let (a, mut b) = two_channels(fs, 10.0);
        b.pop();
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = PaperFeatureSet::new(fs).unwrap();
        assert!(matches!(
            paper_batch(&ex, &a, &b, &cfg),
            Err(FeatureError::ChannelLengthMismatch { .. })
        ));
    }

    #[test]
    fn extract_matrix_rejects_short_signal() {
        let fs = 256.0;
        let a = tone(5.0, fs, 512, 1.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = PaperFeatureSet::new(fs).unwrap();
        assert!(matches!(
            paper_batch(&ex, &a, &a, &cfg),
            Err(FeatureError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn rich_feature_set_has_54_features() {
        let ex = RichFeatureSet::new(256.0).unwrap();
        let names = ex.feature_names();
        assert_eq!(names.len(), RichFeatureSet::NUM_FEATURES);
        assert_eq!(names.len(), 54);
        // Names must be unique.
        let unique: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(unique.len(), 54);
    }

    #[test]
    fn rich_features_on_single_window() {
        let fs = 256.0;
        let ex = RichFeatureSet::new(fs).unwrap();
        let w1 = tone(6.0, fs, 1024, 2.0);
        let w2 = tone(25.0, fs, 1024, 1.0);
        let features = rich_row(&ex, &w1, &w2);
        assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn rich_features_distinguish_amplitude_change() {
        let fs = 256.0;
        let ex = RichFeatureSet::new(fs).unwrap();
        let quiet = tone(6.0, fs, 1024, 0.5);
        let loud = tone(6.0, fs, 1024, 3.0);
        let f_quiet = rich_row(&ex, &quiet, &quiet);
        let f_loud = rich_row(&ex, &loud, &loud);
        let names = ex.feature_names();
        let ll_idx = names.iter().position(|n| n == "f7t3_line_length").unwrap();
        assert!(f_loud[ll_idx] > 3.0 * f_quiet[ll_idx]);
    }

    fn assert_rows_close(batch: &FeatureMatrix, reference: &[Vec<f64>], tol: f64) {
        assert_eq!(batch.num_windows(), reference.len());
        for (r, (a, b)) in batch.rows().zip(reference).enumerate() {
            assert_eq!(a.len(), b.len());
            for (c, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    (x - y).abs() <= tol * (1.0 + y.abs()),
                    "row {r} col {c}: batch {x} vs reference {y}"
                );
            }
        }
    }

    #[test]
    fn paper_batch_extraction_matches_sequential() {
        let fs = 256.0;
        let (a, b) = two_channels(fs, 20.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = PaperFeatureSet::new(fs).unwrap();
        let batch = paper_batch(&ex, &a, &b, &cfg).unwrap();
        assert_eq!(batch.feature_names(), ex.feature_names());
        let reference: Vec<Vec<f64>> = cfg
            .windows(&a)
            .zip(cfg.windows(&b))
            .map(|(w1, w2)| reference::paper_window(fs, w1, w2).unwrap())
            .collect();
        assert_rows_close(&batch, &reference, 1e-9);
    }

    #[test]
    fn rich_batch_extraction_matches_sequential() {
        let fs = 256.0;
        let (a, b) = two_channels(fs, 16.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = RichFeatureSet::new(fs).unwrap();
        let batch = rich_batch(&ex, &a, &b, &cfg).unwrap();
        assert_eq!(batch.feature_names(), ex.feature_names());
        let reference: Vec<Vec<f64>> = cfg
            .windows(&a)
            .zip(cfg.windows(&b))
            .map(|(w1, w2)| reference::rich_window(fs, w1, w2).unwrap())
            .collect();
        assert_rows_close(&batch, &reference, 1e-9);
    }

    #[test]
    fn batch_extraction_validates_like_sequential() {
        let fs = 256.0;
        let (a, mut b) = two_channels(fs, 8.0);
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = RichFeatureSet::new(fs).unwrap();
        b.pop();
        assert!(matches!(
            rich_batch(&ex, &a, &b, &cfg),
            Err(FeatureError::ChannelLengthMismatch { .. })
        ));
        let short = tone(5.0, fs, 512, 1.0);
        assert!(matches!(
            rich_batch(&ex, &short, &short, &cfg),
            Err(FeatureError::SignalTooShort { .. })
        ));
    }

    #[test]
    fn extract_batch_into_reuses_matrix_and_pool_across_records() {
        let fs = 256.0;
        let cfg = SlidingWindowConfig::paper_default(fs).unwrap();
        let ex = RichFeatureSet::new(fs).unwrap();
        let pool = FeatureScratchPool::new();
        let mut matrix = FeatureMatrix::default();
        // Records of different lengths through one matrix and one pool.
        for secs in [12.0, 20.0, 8.0] {
            let (a, b) = two_channels(fs, secs);
            ex.extract_batch_into(&a, &b, &cfg, &pool, &mut matrix)
                .unwrap();
            assert_eq!(matrix, rich_batch(&ex, &a, &b, &cfg).unwrap());
        }
        // The workers parked their scratches for the next record.
        assert!(pool.idle() > 0);
        // Switching extractors on the same workspace renames the columns.
        let paper = PaperFeatureSet::new(fs).unwrap();
        let (a, b) = two_channels(fs, 10.0);
        paper
            .extract_batch_into(&a, &b, &cfg, &pool, &mut matrix)
            .unwrap();
        assert_eq!(matrix.num_features(), 10);
        assert_eq!(matrix, paper_batch(&paper, &a, &b, &cfg).unwrap());
    }

    #[test]
    fn extract_window_into_matches_extract_window() {
        let fs = 256.0;
        let w1 = tone(6.0, fs, 1024, 2.0);
        let w2 = tone(25.0, fs, 1024, 1.0);

        let paper = PaperFeatureSet::new(fs).unwrap();
        let mut scratch = paper.scratch(1024).unwrap();
        assert_eq!(scratch.wavelet_levels(), 7);
        assert_eq!(scratch.window_len(), 1024);
        assert_eq!(scratch.sampling_frequency(), fs);
        let mut out = vec![0.0; 10];
        paper
            .extract_window_into(&w1, &w2, &mut out, &mut scratch)
            .unwrap();
        let reference = reference::paper_window(fs, &w1, &w2).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }

        let rich = RichFeatureSet::new(fs).unwrap();
        let mut scratch = rich.scratch(1024).unwrap();
        assert_eq!(scratch.wavelet_levels(), 5);
        let mut out = vec![0.0; 54];
        rich.extract_window_into(&w1, &w2, &mut out, &mut scratch)
            .unwrap();
        let reference = reference::rich_window(fs, &w1, &w2).unwrap();
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }
    }

    #[test]
    fn extract_window_into_validates_buffers() {
        let fs = 256.0;
        let w = tone(6.0, fs, 1024, 1.0);
        let paper = PaperFeatureSet::new(fs).unwrap();
        let mut scratch = paper.scratch(1024).unwrap();
        let mut short_out = vec![0.0; 3];
        assert!(paper
            .extract_window_into(&w, &w, &mut short_out, &mut scratch)
            .is_err());
        let mut out = vec![0.0; 10];
        assert!(paper
            .extract_window_into(&w[..512], &w[..512], &mut out, &mut scratch)
            .is_err());
        let rich = RichFeatureSet::new(fs).unwrap();
        let mut scratch = rich.scratch(1024).unwrap();
        let mut short_out = vec![0.0; 53];
        assert!(rich
            .extract_window_into(&w, &w, &mut short_out, &mut scratch)
            .is_err());
    }

    #[test]
    fn short_windows_still_produce_paper_features() {
        // A 1-second window at 64 Hz cannot support 7 wavelet levels; the
        // extractor clamps to the deepest available level instead of failing.
        let fs = 64.0;
        let ex = PaperFeatureSet::new(fs).unwrap();
        let w = tone(5.0, fs, 64, 1.0);
        let features = paper_row(&ex, &w, &w);
        assert!(features.iter().all(|f| f.is_finite()));
        let reference = reference::paper_window(fs, &w, &w).unwrap();
        for (a, b) in features.iter().zip(reference.iter()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()));
        }
    }
}
