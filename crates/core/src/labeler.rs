//! High-level a-posteriori labeler: raw two-channel EEG in, seizure label out.
//!
//! [`PosterioriLabeler`] wires together the paper's processing pipeline for the
//! edge device: feature extraction over 4-second windows with 75 % overlap
//! (§III-A), followed by Algorithm 1 over the resulting feature matrix with the
//! patient's average seizure duration as the window length, and finally the
//! conversion of the detected window index back to a time interval.

use crate::algorithm::{posteriori_detect, Detection, DetectorConfig};
use crate::error::CoreError;
use crate::label::SeizureLabel;
use crate::workspace::FeatureWorkspace;
use seizure_data::sampler::EegRecord;
use seizure_data::signal::EegSignal;
use seizure_features::extractor::{PaperFeatureSet, SlidingWindowConfig};
use seizure_features::FeatureMatrix;

/// Configuration of the a-posteriori labeler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LabelerConfig {
    /// Feature-extraction window length in seconds (paper: 4 s).
    pub window_secs: f64,
    /// Feature-extraction window overlap in `[0, 1)` (paper: 0.75).
    pub overlap: f64,
    /// Configuration of Algorithm 1.
    pub detector: DetectorConfig,
}

impl Default for LabelerConfig {
    fn default() -> Self {
        Self {
            window_secs: 4.0,
            overlap: 0.75,
            detector: DetectorConfig::default(),
        }
    }
}

/// The a-posteriori minimally-supervised seizure labeler.
///
/// See the crate-level documentation for a complete example.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PosterioriLabeler {
    config: LabelerConfig,
}

impl PosterioriLabeler {
    /// Creates a labeler with the given configuration.
    pub fn new(config: LabelerConfig) -> Self {
        Self { config }
    }

    /// The labeler's configuration.
    pub fn config(&self) -> &LabelerConfig {
        &self.config
    }

    /// Extracts the paper's ten-feature matrix from a two-channel signal
    /// through the parallel batch engine.
    ///
    /// The engine's fused scratch kernels agree with the allocating
    /// one-window-at-a-time kernels they are tested against to ~1e-9
    /// relative, not bitwise, so a pathologically near-tie record can rank
    /// its candidates differently in the last ulps of the score.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures (mismatched channels, too-short
    /// signal, invalid configuration).
    pub fn extract_features(&self, signal: &EegSignal) -> Result<FeatureMatrix, CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.extract_features_with(signal, &mut ws)?;
        Ok(ws.matrix)
    }

    /// Multi-record twin of [`PosterioriLabeler::extract_features`]: refills
    /// the workspace's matrix in place and reuses its pooled scratches across
    /// records, per the labeling experiments' batch path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosterioriLabeler::extract_features`].
    pub fn extract_features_with(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let config = SlidingWindowConfig::new(fs, self.config.window_secs, self.config.overlap)?;
        let extractor = PaperFeatureSet::new(fs)?;
        extractor.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &config,
            &workspace.pool,
            &mut workspace.matrix,
        )?;
        Ok(())
    }

    /// Labels the single seizure contained in `signal`, given the patient's
    /// average seizure duration in seconds, and returns both the label and the
    /// raw detection (distance profile).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if the average seizure duration
    /// is not positive and the errors of [`posteriori_detect`] otherwise.
    pub fn label_signal_with_detection(
        &self,
        signal: &EegSignal,
        average_seizure_secs: f64,
    ) -> Result<(SeizureLabel, Detection), CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.label_signal_with_detection_using(signal, average_seizure_secs, &mut ws)
    }

    /// Workspace-reusing twin of
    /// [`PosterioriLabeler::label_signal_with_detection`], for callers that
    /// label many records in a row (the labeling experiments).
    ///
    /// # Errors
    ///
    /// Same conditions as
    /// [`PosterioriLabeler::label_signal_with_detection`].
    pub fn label_signal_with_detection_using(
        &self,
        signal: &EegSignal,
        average_seizure_secs: f64,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(SeizureLabel, Detection), CoreError> {
        if average_seizure_secs <= 0.0 || average_seizure_secs.is_nan() {
            return Err(CoreError::InvalidParameter {
                name: "average_seizure_secs",
                reason: format!("must be positive, got {average_seizure_secs}"),
            });
        }
        let fs = signal.sampling_frequency();
        let window = SlidingWindowConfig::new(fs, self.config.window_secs, self.config.overlap)?;
        self.extract_features_with(signal, workspace)?;

        // The seizure window length expressed in feature-matrix rows.
        let step_secs = window.step_seconds();
        let w_rows = ((average_seizure_secs / step_secs).round() as usize).max(1);
        let detection = posteriori_detect(workspace.matrix(), w_rows, &self.config.detector)?;

        let onset = window.window_start_seconds(detection.window_index);
        let offset = (onset + w_rows as f64 * step_secs).min(signal.duration_secs());
        let label = SeizureLabel::new(onset, offset)?;
        Ok((label, detection))
    }

    /// Labels the single seizure contained in `signal`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosterioriLabeler::label_signal_with_detection`].
    pub fn label_signal(
        &self,
        signal: &EegSignal,
        average_seizure_secs: f64,
    ) -> Result<SeizureLabel, CoreError> {
        Ok(self
            .label_signal_with_detection(signal, average_seizure_secs)?
            .0)
    }

    /// Labels an evaluation record (convenience wrapper around
    /// [`PosterioriLabeler::label_signal`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosterioriLabeler::label_signal`].
    pub fn label_record(
        &self,
        record: &EegRecord,
        average_seizure_secs: f64,
    ) -> Result<SeizureLabel, CoreError> {
        self.label_signal(record.signal(), average_seizure_secs)
    }

    /// Workspace-reusing twin of [`PosterioriLabeler::label_record`] for
    /// labeling whole cohorts of records with one extraction workspace.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PosterioriLabeler::label_signal`].
    pub fn label_record_with(
        &self,
        record: &EegRecord,
        average_seizure_secs: f64,
        workspace: &mut FeatureWorkspace,
    ) -> Result<SeizureLabel, CoreError> {
        Ok(self
            .label_signal_with_detection_using(record.signal(), average_seizure_secs, workspace)?
            .0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::deviation_seconds;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::SampleConfig;

    fn test_record(seed: u64) -> (EegRecord, f64) {
        let cohort = Cohort::chb_mit_like(9);
        let config = SampleConfig::new(200.0, 260.0, 64.0).unwrap();
        let record = cohort.sample_record(7, 0, &config, seed).unwrap(); // patient 8: clean
        let w = cohort.average_seizure_duration(7).unwrap();
        (record, w)
    }

    #[test]
    fn labels_a_clean_record_close_to_the_ground_truth() {
        let (record, w) = test_record(1);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let label = labeler.label_record(&record, w).unwrap();
        let delta = deviation_seconds(
            (record.annotation().onset(), record.annotation().offset()),
            label.as_interval(),
        )
        .unwrap();
        // The synthetic clean patient should be labeled within half a minute.
        assert!(delta < 30.0, "delta = {delta}");
    }

    #[test]
    fn detection_exposes_distance_profile() {
        let (record, w) = test_record(2);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let (label, detection) = labeler
            .label_signal_with_detection(record.signal(), w)
            .unwrap();
        assert!(!detection.distances.is_empty());
        assert!(detection.peak_distance() > 0.0);
        assert!(label.duration_secs() > 0.0);
        assert!(label.offset_secs() <= record.signal().duration_secs() + 1e-9);
    }

    #[test]
    fn invalid_average_duration_is_rejected() {
        let (record, _) = test_record(3);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        assert!(labeler.label_record(&record, 0.0).is_err());
        assert!(labeler.label_record(&record, -5.0).is_err());
        assert!(labeler.label_record(&record, f64::NAN).is_err());
    }

    #[test]
    fn too_short_signal_is_rejected() {
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let signal = EegSignal::new(vec![0.0; 64], vec![0.0; 64], 64.0).unwrap();
        assert!(labeler.label_signal(&signal, 30.0).is_err());
    }

    #[test]
    fn extract_features_produces_ten_columns() {
        let (record, _) = test_record(4);
        let labeler = PosterioriLabeler::new(LabelerConfig::default());
        let features = labeler.extract_features(record.signal()).unwrap();
        assert_eq!(features.num_features(), 10);
        assert!(features.num_windows() > 100);
    }

    #[test]
    fn custom_config_is_respected() {
        let config = LabelerConfig {
            window_secs: 2.0,
            overlap: 0.5,
            ..LabelerConfig::default()
        };
        let labeler = PosterioriLabeler::new(config);
        assert_eq!(labeler.config().window_secs, 2.0);
        let (record, w) = test_record(5);
        let label = labeler.label_record(&record, w).unwrap();
        assert!(label.duration_secs() > 0.0);
    }
}
