//! Reusable per-thread scratch space for allocation-free feature extraction.
//!
//! Extracting features from a 4-second window runs one periodogram and one
//! multi-level wavelet decomposition per channel. [`FeatureScratch`] bundles the precomputed [`PsdPlan`] and
//! [`WaveletWorkspace`] plus their output buffers, so the batch extraction
//! path performs the FFT and DWT of every sliding window without touching the
//! heap. One scratch is created per worker thread and reused across all
//! windows that worker processes.

use crate::entropy::permutation_entropy_scratch;
use crate::error::FeatureError;
use crate::extractor::check_sampling_frequency;
use seizure_dsp::fft::Complex;
use seizure_dsp::spectrum::PsdPlan;
use seizure_dsp::wavelet::{Wavelet, WaveletWorkspace};

/// Preallocated workspace for extracting the features of one analysis window.
///
/// Built by [`PaperFeatureSet::scratch`] / [`RichFeatureSet::scratch`] for a
/// fixed window length; the depth of the wavelet decomposition is clamped to
/// what the window supports.
///
/// [`PaperFeatureSet::scratch`]: crate::extractor::PaperFeatureSet::scratch
/// [`RichFeatureSet::scratch`]: crate::extractor::RichFeatureSet::scratch
///
/// # Example
///
/// ```
/// use seizure_features::extractor::RichFeatureSet;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let fs = 256.0;
/// let extractor = RichFeatureSet::new(fs)?;
/// let mut scratch = extractor.scratch(1024)?;
/// let mut features = vec![0.0; RichFeatureSet::NUM_FEATURES];
/// // Every window of the record reuses the same scratch.
/// for phase in [0.0, 0.5, 1.0] {
///     let window: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.1 + phase).sin()).collect();
///     extractor.extract_window_into(&window, &window, &mut features, &mut scratch)?;
///     assert!(features.iter().all(|f| f.is_finite()));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FeatureScratch {
    fs: f64,
    window_len: usize,
    psd: PsdPlan,
    spectrum: Vec<Complex>,
    power: Vec<f64>,
    wavelet: WaveletWorkspace,
    /// Dense ordinal-pattern counting table reused by the allocation-free
    /// permutation entropies.
    perm_counts: Vec<u32>,
}

impl FeatureScratch {
    /// Builds a scratch for windows of `window_len` samples at `fs` Hz, with
    /// the wavelet decomposition depth clamped to
    /// `max_wavelet_levels.min(max supported).max(1)`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not positive and
    /// finite and [`FeatureError::Dsp`] if the window is too short to
    /// support even one db4 decomposition level.
    pub fn new(
        fs: f64,
        window_len: usize,
        max_wavelet_levels: usize,
    ) -> Result<Self, FeatureError> {
        check_sampling_frequency(fs)?;
        let wavelet = Wavelet::Daubechies4;
        let levels = max_wavelet_levels.min(wavelet.max_level(window_len)).max(1);
        let psd = PsdPlan::new(window_len)?;
        let workspace = WaveletWorkspace::new(wavelet, window_len, levels)?;
        Ok(Self {
            fs,
            window_len,
            spectrum: vec![Complex::zero(); psd.scratch_len()],
            power: vec![0.0; psd.num_bins()],
            psd,
            wavelet: workspace,
            perm_counts: Vec::new(),
        })
    }

    /// Sampling frequency the scratch was built for.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// The window length the scratch was built for.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// The (clamped) wavelet decomposition depth.
    pub fn wavelet_levels(&self) -> usize {
        self.wavelet.levels()
    }

    /// Computes the one-sided PSD bins of `window` into the internal buffer
    /// and returns them.
    pub(crate) fn power_bins(&mut self, window: &[f64]) -> Result<&[f64], FeatureError> {
        self.psd
            .power_into(window, self.fs, &mut self.power, &mut self.spectrum)?;
        Ok(&self.power)
    }

    /// Runs the db4 decomposition of `window` into the internal workspace.
    pub(crate) fn decompose(&mut self, window: &[f64]) -> Result<&WaveletWorkspace, FeatureError> {
        self.wavelet.decompose(window)?;
        Ok(&self.wavelet)
    }

    /// Detail coefficients at `level`, clamped into the workspace's valid
    /// range (`1..=levels`).
    /// Only valid after [`FeatureScratch::decompose`] has run.
    pub(crate) fn detail_clamped(&self, level: usize) -> &[f64] {
        let level = level.min(self.wavelet.levels()).max(1);
        self.wavelet
            .detail(level)
            .expect("decompose ran and level is clamped into range")
    }

    /// Permutation entropy of an arbitrary series through the reusable
    /// counting table.
    pub(crate) fn perm_entropy(
        &mut self,
        data: &[f64],
        order: usize,
        delay: usize,
    ) -> Result<f64, FeatureError> {
        permutation_entropy_scratch(data, order, delay, &mut self.perm_counts)
    }

    /// Permutation entropy of the (clamped) detail band of the most recent
    /// decomposition, without cloning the coefficients.
    pub(crate) fn detail_perm_entropy(
        &mut self,
        level: usize,
        order: usize,
        delay: usize,
    ) -> Result<f64, FeatureError> {
        let level = level.min(self.wavelet.levels()).max(1);
        let detail = self
            .wavelet
            .detail(level)
            .expect("decompose ran and level is clamped into range");
        permutation_entropy_scratch(detail, order, delay, &mut self.perm_counts)
    }
}

/// A shared pool of [`FeatureScratch`] workspaces, so multi-record batch
/// extraction reuses the FFT/wavelet buffers across records instead of
/// rebuilding them per record per worker.
///
/// Workers of the parallel extraction path check a scratch out once per
/// record block and return it when done; a scratch is only built when the
/// pool has none matching the requested window geometry. The mutex is
/// touched once per worker block, never per window.
#[derive(Debug, Default)]
pub struct FeatureScratchPool {
    inner: std::sync::Mutex<Vec<FeatureScratch>>,
}

impl FeatureScratchPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of idle workspaces currently parked in the pool.
    pub fn idle(&self) -> usize {
        self.inner.lock().expect("scratch pool poisoned").len()
    }

    /// Checks out a scratch for the given geometry, building one only when no
    /// pooled scratch matches.
    ///
    /// # Errors
    ///
    /// Propagates [`FeatureScratch::new`] failures when a fresh scratch must
    /// be built.
    pub(crate) fn acquire(
        &self,
        fs: f64,
        window_len: usize,
        max_wavelet_levels: usize,
    ) -> Result<FeatureScratch, FeatureError> {
        let wanted_levels = max_wavelet_levels
            .min(seizure_dsp::wavelet::Wavelet::Daubechies4.max_level(window_len))
            .max(1);
        {
            let mut pool = self.inner.lock().expect("scratch pool poisoned");
            if let Some(pos) = pool.iter().position(|s| {
                s.sampling_frequency() == fs
                    && s.window_len() == window_len
                    && s.wavelet_levels() == wanted_levels
            }) {
                return Ok(pool.swap_remove(pos));
            }
        }
        FeatureScratch::new(fs, window_len, max_wavelet_levels)
    }

    /// Returns a scratch to the pool for the next record.
    pub(crate) fn release(&self, scratch: FeatureScratch) {
        self.inner
            .lock()
            .expect("scratch pool poisoned")
            .push(scratch);
    }
}

impl Clone for FeatureScratchPool {
    /// Cloning a pool yields an empty pool: pooled scratches are a cache, not
    /// state, and each clone refills on first use.
    fn clone(&self) -> Self {
        Self::new()
    }
}
