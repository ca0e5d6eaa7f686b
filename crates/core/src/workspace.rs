//! Reusable multi-record extraction state.
//!
//! The detect and labeling paths both turn a record into a [`FeatureMatrix`]
//! through the parallel batch extraction engine. In the seed implementation
//! the flat matrix buffer and every worker's FFT/wavelet scratch were rebuilt
//! per record; a [`FeatureWorkspace`] keeps both alive so a whole cohort of
//! records — an evaluation sweep, a labeling experiment, the self-learning
//! training loop — runs on one matrix allocation and one pooled scratch set.

use crate::realtime::QualityVerdict;
use seizure_features::matrix::FeatureMatrix;
use seizure_features::scratch::FeatureScratchPool;

/// One matrix buffer plus one scratch pool, reused across all records a
/// caller processes.
///
/// # Example
///
/// ```no_run
/// use seizure_core::labeler::{LabelerConfig, PosterioriLabeler};
/// use seizure_core::workspace::FeatureWorkspace;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let labeler = PosterioriLabeler::new(LabelerConfig::default());
/// let mut ws = FeatureWorkspace::new();
/// for seizure in 0..3 {
///     let record = cohort.sample_record(0, seizure, &config, 0)?;
///     let w = cohort.average_seizure_duration(0)?;
///     // Every record reuses the same matrix buffer and scratch pool.
///     let label = labeler.label_record_with(&record, w, &mut ws)?;
///     println!("onset = {:.1} s", label.onset_secs());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeatureWorkspace {
    pub(crate) matrix: FeatureMatrix,
    pub(crate) pool: FeatureScratchPool,
    /// Per-window class predictions of the last detect call routed through
    /// this workspace (refilled in place, never re-grown per record).
    pub(crate) predictions: Vec<bool>,
    /// Per-window quality indicator matrix of the last gated detect /
    /// calibration call (separate from `matrix` so the quality columns
    /// survive the feature extraction that follows them).
    pub(crate) quality: FeatureMatrix,
    /// Per-window quality verdicts aligned with `predictions`.
    pub(crate) verdicts: Vec<QualityVerdict>,
    /// Gain-corrected channel copies produced by the quality gate's slow
    /// AGC; left empty whenever the correction is exactly unity, so the
    /// clean path never copies the signal.
    pub(crate) corrected_f7t3: Vec<f64>,
    /// See `corrected_f7t3`.
    pub(crate) corrected_f8t4: Vec<f64>,
}

impl FeatureWorkspace {
    /// Creates an empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The workspace's feature matrix as the last operation left it: the raw
    /// rich features of the last extraction, detect or evaluate call (the
    /// forest classifies raw features, so detecting leaves them intact).
    pub fn matrix(&self) -> &FeatureMatrix {
        &self.matrix
    }

    /// The per-window predictions of the last
    /// [`RealTimeDetector::detect_into`](crate::realtime::RealTimeDetector::detect_into)
    /// call that used this workspace.
    pub fn predictions(&self) -> &[bool] {
        &self.predictions
    }

    /// The per-window quality verdicts of the last
    /// [`RealTimeDetector::detect_into`](crate::realtime::RealTimeDetector::detect_into)
    /// call routed through this workspace. Aligned with
    /// [`FeatureWorkspace::predictions`] when the detector's quality gate is
    /// enabled; empty when it is off.
    pub fn verdicts(&self) -> &[QualityVerdict] {
        &self.verdicts
    }

    /// The per-window quality indicator matrix of the last gated detect or
    /// calibration call (see [`seizure_features::quality`] for the column
    /// layout).
    pub fn quality(&self) -> &FeatureMatrix {
        &self.quality
    }
}
