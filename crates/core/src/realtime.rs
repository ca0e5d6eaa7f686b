//! Supervised real-time seizure detector.
//!
//! The paper's real-time stage is the random-forest detector of Sopic et al.
//! (e-Glass): a rich feature vector is extracted from each 4-second window of
//! the two-channel EEG and classified as seizure / non-seizure. In the
//! self-learning methodology this detector is trained with the labels produced
//! by the a-posteriori algorithm instead of expert annotations.

use crate::error::CoreError;
use crate::label::{window_labels, SeizureLabel};
use crate::workspace::FeatureWorkspace;
use seizure_data::signal::EegSignal;
use seizure_features::extractor::{RichFeatureSet, SlidingWindowConfig};
use seizure_features::matrix::FeatureMatrix;
use seizure_features::quality::{
    self, QualityExtractor, StreamingQuality, IDX_LOG_STD, NUM_QUALITY_FEATURES,
};
use seizure_features::streaming::StreamingRichExtractor;
use seizure_ml::dataset::Dataset;
use seizure_ml::flat::FlatForest;
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::journal::{self, JournalEntry};
use seizure_ml::persist::{self, PersistError, SnapshotKind, SnapshotReader, SnapshotWriter};

/// Snapshot marker: the detector has never been trained.
const MODEL_UNTRAINED: u8 = 0;
/// Retired snapshot marker of the standardized batch-trained model; decoding
/// it fails with a typed error.
const MODEL_RETIRED_BATCH: u8 = 1;
/// Snapshot marker: trained model (trainer stored, forest re-stitched on
/// load).
const MODEL_TRAINED: u8 = 2;

/// Configuration of the real-time detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RealTimeDetectorConfig {
    /// Analysis window length in seconds (paper: 4 s).
    pub window_secs: f64,
    /// Window overlap in `[0, 1)` (paper: 0.75).
    pub overlap: f64,
    /// Random-forest hyper-parameters.
    pub forest: RandomForestConfig,
    /// Seed controlling the forest's bootstrap sampling.
    pub seed: u64,
    /// Ownership-block size of the incremental retraining engine (see
    /// [`IncrementalTrainerConfig::block_size`]).
    pub incremental_block_size: usize,
    /// Runs the signal-quality gate ahead of the forest: per-window
    /// [`QualityVerdict`]s with hysteresis, alarm suppression on `Reject`
    /// windows and (once calibrated) slow gain correction. Disable to get
    /// the raw fail-open detector the robustness bench uses as its
    /// before-gating baseline.
    pub quality_gate: bool,
}

impl Default for RealTimeDetectorConfig {
    fn default() -> Self {
        Self {
            window_secs: 4.0,
            overlap: 0.75,
            forest: RandomForestConfig {
                n_trees: 30,
                max_depth: 8,
                ..RandomForestConfig::default()
            },
            seed: 0,
            incremental_block_size: IncrementalTrainerConfig::default().block_size,
            quality_gate: true,
        }
    }
}

/// Per-window verdict of the signal-quality gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QualityVerdict {
    /// The window looks like physiological EEG; classify normally.
    Clean,
    /// Mildly degraded: classified, but flagged (and held in `Reject` by the
    /// hysteresis if the previous window was rejected).
    Suspect,
    /// Artifact-dominated: the forest's alarm is suppressed and the window
    /// is barred from the self-learning pool.
    Reject,
}

/// Log-gain deviation (vs the calibrated reference) below which the slow
/// gain correction stays exactly unity, so clean records run bit-identical
/// to an ungated detector.
const AGC_DEADBAND: f64 = 0.45;
/// Clamp of the per-sample gain correction factor.
const AGC_MAX_CORRECTION: f64 = 4.0;
/// Minimum number of non-rejected windows before a gain fit is attempted.
const AGC_MIN_WINDOWS: usize = 8;

/// Calibrated state of the signal-quality gate: the per-channel reference
/// log-amplitude the slow gain correction pulls hostile records back
/// towards. Verdict thresholds are compile-time constants; only this
/// reference is learned (from `Clean` non-seizure windows of training
/// records) and persisted.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QualityGate {
    ref_log_std: [f64; 2],
    ref_weight: f64,
}

impl QualityGate {
    /// `true` once at least one clean window has calibrated the reference.
    pub fn is_calibrated(&self) -> bool {
        self.ref_weight > 0.0
    }

    /// The calibrated per-channel reference log standard deviation
    /// (F7T3, F8T4); meaningless until [`QualityGate::is_calibrated`].
    pub fn reference_log_std(&self) -> [f64; 2] {
        self.ref_log_std
    }

    /// Number of clean windows folded into the reference so far.
    pub fn calibration_weight(&self) -> f64 {
        self.ref_weight
    }

    /// Folds one clean non-seizure window's per-channel log-std into the
    /// running reference mean.
    fn calibrate(&mut self, log_std_a: f64, log_std_b: f64) {
        let w = self.ref_weight;
        self.ref_log_std[0] = (self.ref_log_std[0] * w + log_std_a) / (w + 1.0);
        self.ref_log_std[1] = (self.ref_log_std[1] * w + log_std_b) / (w + 1.0);
        self.ref_weight = w + 1.0;
    }

    /// Turns the per-window quality rows into verdicts with hysteresis
    /// (Schmitt trigger over the window sequence):
    ///
    /// * beyond a reject threshold → `Reject`;
    /// * beyond a suspect threshold → `Suspect`, or `Reject` if the
    ///   previous window was rejected (the gate holds until the signal is
    ///   fully clean);
    /// * clean → `Clean`, or `Suspect` for one cool-down window right
    ///   after a rejection.
    pub fn verdicts_into(quality: &FeatureMatrix, out: &mut Vec<QualityVerdict>) {
        out.clear();
        out.reserve(quality.num_windows());
        let mut prev = QualityVerdict::Clean;
        for row in quality.rows() {
            let verdict = Self::next_verdict(quality::raw_level(row), prev);
            out.push(verdict);
            prev = verdict;
        }
    }

    /// One step of the gate's Schmitt trigger: the verdict of a window with
    /// severity `level` (see [`quality::raw_level`]) given the previous
    /// window's verdict — shared by the record-level `verdicts_into` sweep
    /// and the sample-at-a-time [`StreamingDetector`].
    fn next_verdict(level: u8, prev: QualityVerdict) -> QualityVerdict {
        match (level, prev) {
            (2, _) => QualityVerdict::Reject,
            (1, QualityVerdict::Reject) => QualityVerdict::Reject,
            (1, _) => QualityVerdict::Suspect,
            (_, QualityVerdict::Reject) => QualityVerdict::Suspect,
            _ => QualityVerdict::Clean,
        }
    }
}

/// The random-forest real-time seizure detector.
///
/// # Example
///
/// ```no_run
/// use seizure_core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
/// use seizure_core::SeizureLabel;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let record = cohort.sample_record(0, 0, &config, 0)?;
///
/// let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
/// let expert_label = SeizureLabel::new(
///     record.annotation().onset(),
///     record.annotation().offset(),
/// )?;
/// let training = detector.build_training_windows(record.signal(), &expert_label)?;
/// detector.train(&training)?;
/// let alarms = detector.detect(record.signal())?;
/// assert_eq!(alarms.len(), training.len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RealTimeDetector {
    config: RealTimeDetectorConfig,
    /// The retraining engine and the flat forest it last emitted; `None`
    /// until the first successful fit.
    model: Option<TrainedModel>,
    /// Calibrated signal-quality gate state (always present; only consulted
    /// when [`RealTimeDetectorConfig::quality_gate`] is on).
    gate: QualityGate,
}

/// The detector's one model representation: a forest never exists without
/// the trainer (and training pool) that produced it, so every trained
/// detector can be extended by [`RealTimeDetector::retrain_incremental`].
#[derive(Debug, Clone, PartialEq)]
struct TrainedModel {
    trainer: IncrementalTrainer,
    forest: FlatForest,
}

impl RealTimeDetector {
    /// Creates an untrained detector.
    pub fn new(config: RealTimeDetectorConfig) -> Self {
        Self {
            config,
            model: None,
            gate: QualityGate::default(),
        }
    }

    /// The signal-quality gate's calibrated state.
    pub fn quality_gate(&self) -> &QualityGate {
        &self.gate
    }

    /// Overwrites the gate's calibrated amplitude reference — used by the
    /// pipeline's journal replay, where each entry carries the reference as
    /// it stood after that record was learned.
    pub(crate) fn restore_gate_reference(&mut self, ref_log_std: [f64; 2], ref_weight: f64) {
        self.gate = QualityGate {
            ref_log_std,
            ref_weight,
        };
    }

    /// The detector's configuration.
    pub fn config(&self) -> &RealTimeDetectorConfig {
        &self.config
    }

    /// Returns `true` once [`RealTimeDetector::train`] has succeeded.
    pub fn is_trained(&self) -> bool {
        self.model.is_some()
    }

    pub(crate) fn window_config(&self, fs: f64) -> Result<SlidingWindowConfig, CoreError> {
        Ok(SlidingWindowConfig::new(
            fs,
            self.config.window_secs,
            self.config.overlap,
        )?)
    }

    /// Extracts the rich (54-feature) matrix of a signal through the batch
    /// engine: parallel over windows, one flat row-major buffer, per-thread
    /// scratch workspaces.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn extract_feature_matrix(&self, signal: &EegSignal) -> Result<FeatureMatrix, CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.extract_feature_matrix_with(signal, &mut ws)?;
        Ok(ws.matrix)
    }

    /// Multi-record twin of [`RealTimeDetector::extract_feature_matrix`]:
    /// refills the workspace's matrix in place and reuses its pooled
    /// FFT/wavelet scratches, so consecutive records extract without
    /// reallocating.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn extract_feature_matrix_with(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        let extractor = RichFeatureSet::new(fs)?;
        extractor.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            &workspace.pool,
            &mut workspace.matrix,
        )?;
        Ok(())
    }

    /// Extracts the rich rows of the listed windows of `signal` only, in
    /// list order, into `out` (row-major, [`RichFeatureSet::NUM_FEATURES`]
    /// values per row), checking scratches out of the workspace's pool. Each
    /// row is bit-identical to the matching row of
    /// [`RealTimeDetector::extract_feature_matrix`]; the self-learning loop
    /// extracts just its balanced training batch this way.
    ///
    /// # Errors
    ///
    /// Propagates window-configuration and extraction failures, including a
    /// window index past the record's last window.
    pub fn extract_windows_into(
        &self,
        signal: &EegSignal,
        windows: &[usize],
        workspace: &FeatureWorkspace,
        out: &mut Vec<f64>,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        RichFeatureSet::new(fs)?.extract_windows_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            windows,
            &workspace.pool,
            out,
        )?;
        Ok(())
    }

    /// Extracts the rich (54-feature) matrix of a signal as plain rows
    /// (allocating; kept for the training path, which needs row vectors).
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn extract_features(&self, signal: &EegSignal) -> Result<Vec<Vec<f64>>, CoreError> {
        Ok(self.extract_feature_matrix(signal)?.to_rows())
    }

    /// Builds a per-window labeled dataset from a signal and a seizure label
    /// (which may come from the a-posteriori algorithm or from an expert).
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction failures.
    pub fn build_training_windows(
        &self,
        signal: &EegSignal,
        label: &SeizureLabel,
    ) -> Result<Dataset, CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        let rows = self.extract_features(signal)?;
        let labels = window_labels(
            label,
            rows.len(),
            window.window_seconds(),
            window.step_seconds(),
        )?;
        Ok(Dataset::new(rows, labels)?)
    }

    /// Builds a balanced training dataset: all seizure windows of `dataset`
    /// plus an equal number of evenly spaced non-seizure windows (the paper
    /// trains on balanced sets of 2–5 seizures plus seizure-free samples).
    /// The two classes are spread through each other in proportion (the
    /// same staging order the self-learning pipeline uses), so the result
    /// trains well through [`RealTimeDetector::train`] even when the seizure
    /// is longer than an ownership block.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the dataset contains no seizure
    /// or no seizure-free windows.
    pub fn balance(&self, dataset: &Dataset) -> Result<Dataset, CoreError> {
        let selected = spread_balanced_indices(dataset.labels())?;
        Ok(dataset.subset(&selected)?)
    }

    /// Trains the random forest on a labeled window dataset from scratch:
    /// any previous model and training pool are discarded, and a fresh
    /// [`IncrementalTrainer`] (this detector's forest configuration, block
    /// size and seed) is fitted once on the dataset's rows, in dataset
    /// order — exactly what [`RealTimeDetector::retrain_incremental`] does on
    /// an untrained detector, so later `retrain_incremental` calls extend
    /// the result. The forest trains on raw features: its splits are
    /// per-feature thresholds, which no per-column affine scaling can move
    /// across a sample.
    ///
    /// Ownership blocks are cut from consecutive rows, so interleave the
    /// classes (as [`RealTimeDetector::balance`] does) instead of passing
    /// long single-class runs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] under the input rules of
    /// [`IncrementalTrainer::retrain`]: an empty dataset, invalid forest
    /// hyper-parameters or block size, or a single-class dataset longer than
    /// the block size. On error the detector keeps its previous model.
    pub fn train(&mut self, dataset: &Dataset) -> Result<(), CoreError> {
        let rows: Vec<f64> = dataset.features().iter().flatten().copied().collect();
        self.model = Some(self.fit_fresh(&rows, dataset.num_features(), dataset.labels())?);
        Ok(())
    }

    /// Adds new labeled windows (flat row-major, `labels.len() *
    /// num_features` values) to the detector's training pool and retrains
    /// through its [`IncrementalTrainer`] (an untrained detector fits a
    /// fresh one): the pool append sorts only the block-local presorted runs
    /// it touches, and only the trees whose bootstrap pools were touched by
    /// the growth are refitted — loading just their owned blocks — so the
    /// self-learning loop stops paying a full fit per missed seizure. Every
    /// grown state is identical to one fit of the final pool, regardless of
    /// when which rows arrived.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Ml`] under the input rules of
    /// [`IncrementalTrainer::retrain`]: a malformed matrix, a feature count
    /// that drifts between calls, a single-class append longer than the
    /// block size, or a forest that cannot be fitted.
    pub fn retrain_incremental(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<(), CoreError> {
        match &mut self.model {
            Some(model) => model.forest = model.trainer.retrain(rows, num_features, labels)?,
            None => self.model = Some(self.fit_fresh(rows, num_features, labels)?),
        }
        Ok(())
    }

    /// Fits a fresh trainer built from this detector's configuration and
    /// seed once on `rows`.
    fn fit_fresh(
        &self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<TrainedModel, CoreError> {
        let mut trainer = IncrementalTrainer::new(trainer_config(&self.config), self.config.seed);
        let forest = trainer.retrain(rows, num_features, labels)?;
        Ok(TrainedModel { trainer, forest })
    }

    /// The retraining engine (and its training pool), once trained.
    pub fn incremental_trainer(&self) -> Option<&IncrementalTrainer> {
        self.model.as_ref().map(|m| &m.trainer)
    }

    /// The flat-compiled forest the inference paths run on, once trained.
    pub fn flat_forest(&self) -> Option<&FlatForest> {
        self.model.as_ref().map(|m| &m.forest)
    }

    /// Classifies every analysis window of `signal` (true = seizure alarm).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector has not been trained
    /// and propagates feature-extraction failures.
    pub fn detect(&self, signal: &EegSignal) -> Result<Vec<bool>, CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.detect_with(signal, &mut ws)
    }

    /// Multi-record twin of [`RealTimeDetector::detect`]: the workspace's
    /// feature buffer and scratch pool are reused across records instead of
    /// being re-grown per record.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealTimeDetector::detect`].
    pub fn detect_with(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<Vec<bool>, CoreError> {
        self.detect_into(signal, workspace)?;
        Ok(workspace.predictions.clone())
    }

    /// Allocation-free end of the detect path: classifies every window of
    /// `signal` into the workspace's prediction buffer (readable through
    /// [`FeatureWorkspace::predictions`]) and returns the window count.
    /// Extraction and the forest's batch prediction both run on
    /// workspace-owned buffers, so a sweep over many records touches the
    /// heap only when a record first outgrows them.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealTimeDetector::detect`].
    // lint: hot-path
    pub fn detect_into(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<usize, CoreError> {
        let forest = self.require_flat()?;
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        if self.config.quality_gate {
            self.assess_quality_into(signal, workspace)?;
            self.apply_gain_correction(signal, &window, workspace);
        } else {
            workspace.verdicts.clear();
            workspace.corrected_f7t3.clear();
            workspace.corrected_f8t4.clear();
        }
        let extractor = RichFeatureSet::new(fs)?;
        let FeatureWorkspace {
            matrix,
            pool,
            predictions,
            verdicts,
            corrected_f7t3,
            corrected_f8t4,
            ..
        } = workspace;
        let (f7t3, f8t4) = if corrected_f7t3.is_empty() {
            (signal.f7t3(), signal.f8t4())
        } else {
            (&corrected_f7t3[..], &corrected_f8t4[..])
        };
        extractor.extract_batch_into(f7t3, f8t4, &window, pool, matrix)?;
        forest.predict_batch_into(matrix.data(), matrix.num_features(), predictions)?;
        if self.config.quality_gate {
            // Fail closed: an artifact-dominated window never raises an alarm.
            for (p, v) in predictions.iter_mut().zip(verdicts.iter()) {
                if *v == QualityVerdict::Reject {
                    *p = false;
                }
            }
        } else {
            // Keep the verdict buffer aligned with the predictions so
            // `detect_with_quality` stays well-defined on ungated detectors.
            verdicts.clear();
            verdicts.resize(predictions.len(), QualityVerdict::Clean);
        }
        Ok(predictions.len())
    }

    /// Gated detect that also surfaces the per-window quality verdicts:
    /// returns `(predictions, verdicts)` borrowed from the workspace, one
    /// entry per analysis window. With the gate enabled, every `Reject`
    /// window's prediction is forced to `false`; with it disabled all
    /// verdicts read `Clean`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`RealTimeDetector::detect`].
    pub fn detect_with_quality<'w>(
        &self,
        signal: &EegSignal,
        workspace: &'w mut FeatureWorkspace,
    ) -> Result<(&'w [bool], &'w [QualityVerdict]), CoreError> {
        self.detect_into(signal, workspace)?;
        Ok((&workspace.predictions, &workspace.verdicts))
    }

    /// Fills the workspace's quality matrix and verdict buffer for `signal`
    /// without touching the model: the per-window indicators of
    /// [`seizure_features::quality`] plus the gate's hysteresis verdicts.
    ///
    /// # Errors
    ///
    /// Propagates window-configuration and extraction failures.
    pub(crate) fn assess_quality_into(
        &self,
        signal: &EegSignal,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        let extractor = QualityExtractor::new(fs)?;
        extractor.extract_batch_into(
            signal.f7t3(),
            signal.f8t4(),
            &window,
            &mut workspace.quality,
        )?;
        QualityGate::verdicts_into(&workspace.quality, &mut workspace.verdicts);
        Ok(())
    }

    /// Slow automatic gain correction: fits a robust (Theil–Sen) line to
    /// each channel's per-window log-std over the non-rejected windows and,
    /// when the fitted log-gain leaves the calibrated reference by more
    /// than [`AGC_DEADBAND`] anywhere in the record, rescales a copy of the
    /// channel towards the reference envelope before feature extraction.
    /// Inside the deadband the buffers stay empty and the detector is
    /// bit-identical to an ungated one — clean records never pay for the
    /// correction.
    fn apply_gain_correction(
        &self,
        signal: &EegSignal,
        window: &SlidingWindowConfig,
        workspace: &mut FeatureWorkspace,
    ) {
        workspace.corrected_f7t3.clear();
        workspace.corrected_f8t4.clear();
        if !self.gate.is_calibrated() {
            return;
        }
        let mut fits = [None, None];
        for (channel, fit) in fits.iter_mut().enumerate() {
            let column = quality::channel_column(channel, IDX_LOG_STD);
            let series: Vec<(f64, f64)> = workspace
                .verdicts
                .iter()
                .enumerate()
                .filter(|(_, v)| **v != QualityVerdict::Reject)
                .map(|(w, _)| (w as f64, workspace.quality.get(w, column)))
                .collect();
            if series.len() < AGC_MIN_WINDOWS {
                continue;
            }
            let (slope, intercept) = theil_sen(&series);
            // Deviation of the fitted envelope from the reference across
            // the whole record; inside the deadband nothing happens.
            let last = (workspace.verdicts.len() - 1) as f64;
            let dev0 = intercept - self.gate.ref_log_std[channel];
            let dev1 = slope * last + intercept - self.gate.ref_log_std[channel];
            if dev0.abs() <= AGC_DEADBAND && dev1.abs() <= AGC_DEADBAND {
                continue;
            }
            *fit = Some((slope, intercept - self.gate.ref_log_std[channel]));
        }
        if fits.iter().all(Option::is_none) {
            return;
        }
        let half_window = window.window_samples() as f64 / 2.0;
        let step = window.step_samples() as f64;
        let limit = (workspace.verdicts.len().max(1) - 1) as f64;
        for (channel, raw) in [signal.f7t3(), signal.f8t4()].into_iter().enumerate() {
            let out = if channel == 0 {
                &mut workspace.corrected_f7t3
            } else {
                &mut workspace.corrected_f8t4
            };
            out.reserve(raw.len());
            match fits[channel] {
                None => out.extend_from_slice(raw),
                Some((slope, offset)) => {
                    for (s, &x) in raw.iter().enumerate() {
                        // Continuous window coordinate of this sample,
                        // clamped to the fitted range.
                        let w = ((s as f64 - half_window) / step).clamp(0.0, limit);
                        let correction = (-(slope * w + offset))
                            .exp()
                            .clamp(1.0 / AGC_MAX_CORRECTION, AGC_MAX_CORRECTION);
                        out.push(x * correction);
                    }
                }
            }
        }
    }

    /// Calibrates the quality gate's amplitude reference from a record with
    /// a known seizure position: every `Clean`-verdict non-seizure window
    /// folds its per-channel log-std into the running reference mean. The
    /// self-learning pipeline calls this for each training record it
    /// accepts, so the gate's idea of "normal amplitude" is personalized
    /// alongside the forest.
    ///
    /// # Errors
    ///
    /// Propagates extraction and window-labeling failures.
    pub fn calibrate_quality(
        &mut self,
        signal: &EegSignal,
        label: &SeizureLabel,
    ) -> Result<(), CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.calibrate_quality_with(signal, label, &mut ws)
    }

    /// Workspace-reusing twin of [`RealTimeDetector::calibrate_quality`]
    /// (leaves the quality matrix and verdicts readable in the workspace).
    ///
    /// # Errors
    ///
    /// Propagates extraction and window-labeling failures.
    pub fn calibrate_quality_with(
        &mut self,
        signal: &EegSignal,
        label: &SeizureLabel,
        workspace: &mut FeatureWorkspace,
    ) -> Result<(), CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        self.assess_quality_into(signal, workspace)?;
        let truth = window_labels(
            label,
            workspace.verdicts.len(),
            window.window_seconds(),
            window.step_seconds(),
        )?;
        self.calibrate_from_quality(&workspace.quality, &workspace.verdicts, &truth);
        Ok(())
    }

    /// Calibration core shared with the pipeline (which already holds the
    /// record's quality matrix and verdicts in its workspace): folds every
    /// `Clean` non-seizure window into the gate's amplitude reference.
    pub(crate) fn calibrate_from_quality(
        &mut self,
        quality_matrix: &FeatureMatrix,
        verdicts: &[QualityVerdict],
        truth: &[bool],
    ) {
        for (w, (&seizure, verdict)) in truth.iter().zip(verdicts.iter()).enumerate() {
            if !seizure && *verdict == QualityVerdict::Clean {
                self.gate.calibrate(
                    quality_matrix.get(w, quality::channel_column(0, IDX_LOG_STD)),
                    quality_matrix.get(w, quality::channel_column(1, IDX_LOG_STD)),
                );
            }
        }
    }

    fn require_flat(&self) -> Result<&FlatForest, CoreError> {
        self.flat_forest().ok_or_else(|| CoreError::InvalidState {
            detail: "the real-time detector has not been trained yet".to_string(),
        })
    }

    /// Classifies pre-extracted rich-feature rows with the flat forest, one
    /// prediction per row.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector has not been
    /// trained and [`CoreError::InvalidParameter`] if the rows disagree with
    /// the training feature count.
    pub fn predict_rows(&self, rows: &[Vec<f64>]) -> Result<Vec<bool>, CoreError> {
        let forest = self.require_flat()?;
        let num_features = forest.num_features();
        if let Some(bad) = rows.iter().find(|r| r.len() != num_features) {
            return Err(CoreError::InvalidParameter {
                name: "rows",
                reason: format!(
                    "row has {} features but the detector was trained on {num_features}",
                    bad.len()
                ),
            });
        }
        Ok(rows.iter().map(|row| forest.predict(row)).collect())
    }

    /// Serializes the detector's full state — configuration, quality-gate
    /// calibration and, once trained, the whole retraining engine including
    /// its sample pool — into the versioned binary snapshot format of
    /// [`seizure_ml::persist`], so a wearable can power down and
    /// [`RealTimeDetector::load_state`] can resume exactly where it left
    /// off. The forest itself is not stored: it is re-stitched from the
    /// trainer on load. The model section is marked untrained (0) or trained
    /// (2); marker 1, the standardized batch model of earlier versions, is
    /// retired and never written.
    pub fn save_state(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        self.write_state_body(&mut w);
        w.finish(SnapshotKind::RealTimeDetector)
    }

    /// Writes the payload of a [`RealTimeDetector::save_state`] snapshot
    /// into `w`. The model sections nest their child envelopes **in place**
    /// (`begin_nested` / `end_nested` back-patch length and checksum), so a
    /// save never memcpys the O(pool) trainer payload through intermediate
    /// buffers — the bytes are identical to the copying path, minus the
    /// copies. The pipeline calls this to nest a detector inside its own
    /// snapshot the same way.
    pub(crate) fn write_state_body(&self, w: &mut SnapshotWriter) {
        w.f64(self.config.window_secs);
        w.f64(self.config.overlap);
        persist::write_forest_config(w, &self.config.forest);
        w.u64(self.config.seed);
        w.usize(self.config.incremental_block_size);
        // Quality-gate block (format version 2): enable flag plus the
        // calibrated amplitude reference. Fixed 25 bytes, so the edge
        // memory model can budget it as a constant.
        w.bool(self.config.quality_gate);
        w.f64(self.gate.ref_log_std[0]);
        w.f64(self.gate.ref_log_std[1]);
        w.f64(self.gate.ref_weight);
        match &self.model {
            Some(model) => {
                w.u8(MODEL_TRAINED);
                let child = w.begin_nested(SnapshotKind::IncrementalTrainer);
                persist::write_trainer_body(w, &model.trainer);
                w.end_nested(child);
            }
            None => w.u8(MODEL_UNTRAINED),
        }
    }

    /// Restores a detector from a [`RealTimeDetector::save_state`] snapshot.
    /// The restored detector is state-identical to the saved one: its forest
    /// is re-stitched bit for bit from the trainer, and its next
    /// [`RealTimeDetector::retrain_incremental`] emits a forest
    /// node-identical to the one an uninterrupted detector would produce.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for truncated, foreign, corrupted,
    /// version-mismatched or internally inconsistent snapshots — never a
    /// panic. A snapshot carrying the retired model marker 1 (a standardized
    /// batch model) is reported as [`PersistError::Corrupted`] naming it.
    pub fn load_state(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = SnapshotReader::open(bytes, SnapshotKind::RealTimeDetector)?;
        let window_secs = r.f64()?;
        let overlap = r.f64()?;
        let forest_config = persist::read_forest_config(&mut r)?;
        let seed = r.u64()?;
        let incremental_block_size = r.usize()?;
        let quality_gate = r.bool()?;
        let ref_a = r.f64()?;
        let ref_b = r.f64()?;
        let ref_weight = r.f64()?;
        if !(ref_a.is_finite() && ref_b.is_finite() && ref_weight.is_finite() && ref_weight >= 0.0)
        {
            return Err(PersistError::Corrupted {
                detail: "quality-gate calibration is not finite".to_string(),
            }
            .into());
        }
        let config = RealTimeDetectorConfig {
            window_secs,
            overlap,
            forest: forest_config,
            seed,
            incremental_block_size,
            quality_gate,
        };
        let mut detector = Self::new(config);
        detector.gate = QualityGate {
            ref_log_std: [ref_a, ref_b],
            ref_weight,
        };
        match r.u8()? {
            MODEL_UNTRAINED => {}
            MODEL_RETIRED_BATCH => {
                return Err(PersistError::Corrupted {
                    detail: format!(
                        "detector model marker {MODEL_RETIRED_BATCH} (standardized batch model) \
                         is retired; retrain the detector"
                    ),
                }
                .into())
            }
            MODEL_TRAINED => {
                let trainer = persist::trainer_from_bytes(r.nested()?)?;
                if *trainer.config() != trainer_config(&config) || trainer.seed() != config.seed {
                    return Err(PersistError::Corrupted {
                        detail: "embedded trainer disagrees with the detector configuration"
                            .to_string(),
                    }
                    .into());
                }
                // A trainer that never fitted (its first append failed)
                // restores as an untrained detector.
                detector.model = trainer
                    .current_forest()
                    .map(|forest| TrainedModel { trainer, forest });
            }
            marker => {
                return Err(PersistError::Corrupted {
                    detail: format!("unknown detector model marker {marker}"),
                }
                .into())
            }
        }
        r.finish()?;
        Ok(detector)
    }

    /// Validates one journal entry's bindings against this detector
    /// (sharing `journal::validate_entry` with the bare trainer-level
    /// replay, so the rules cannot diverge) and re-applies its batch. Used
    /// by the pipeline's store resume.
    pub(crate) fn apply_journal_entry(
        &mut self,
        entry: &JournalEntry,
        fingerprint: u64,
        index: usize,
    ) -> Result<(), CoreError> {
        let pool = self.incremental_trainer().map_or(0, |t| t.num_samples());
        journal::validate_entry(entry, fingerprint, pool, index)?;
        self.retrain_incremental(&entry.rows, entry.num_features, &entry.labels)
            .map_err(|e| {
                PersistError::Corrupted {
                    detail: format!("journal entry {index} does not re-apply: {e}"),
                }
                .into()
            })
    }

    /// Evaluates the detector on a signal whose true seizure position is known,
    /// returning the per-window confusion matrix.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`RealTimeDetector::detect`].
    pub fn evaluate(
        &self,
        signal: &EegSignal,
        truth: &SeizureLabel,
    ) -> Result<ConfusionMatrix, CoreError> {
        let mut ws = FeatureWorkspace::new();
        self.evaluate_with(signal, truth, &mut ws)
    }

    /// Multi-record twin of [`RealTimeDetector::evaluate`], reusing the
    /// workspace across records of an evaluation sweep.
    ///
    /// # Errors
    ///
    /// Propagates the errors of [`RealTimeDetector::detect_with`].
    pub fn evaluate_with(
        &self,
        signal: &EegSignal,
        truth: &SeizureLabel,
        workspace: &mut FeatureWorkspace,
    ) -> Result<ConfusionMatrix, CoreError> {
        let fs = signal.sampling_frequency();
        let window = self.window_config(fs)?;
        let count = self.detect_into(signal, workspace)?;
        let truth_labels =
            window_labels(truth, count, window.window_seconds(), window.step_seconds())?;
        Ok(ConfusionMatrix::from_predictions(
            &workspace.predictions,
            &truth_labels,
        )?)
    }

    /// Builds a sample-at-a-time streaming front end over this trained
    /// detector for signals sampled at `fs` Hz: feed it one sample pair per
    /// tick through [`StreamingDetector::push`] and it emits one
    /// [`StreamingDetection`] per completed analysis window, reusing the
    /// hop-structured extraction state across the 75 % window overlap
    /// instead of recomputing each window from scratch.
    ///
    /// With the quality gate on, each window is graded by a
    /// [`StreamingQuality`]: every one-second chunk of a hop is summarized
    /// once as it lands and each window folds the summaries it covers (when
    /// one-second chunks do not tile the hop, every window runs the window
    /// kernel instead). The quality rows are bit-identical to the batch
    /// gate's [`QualityExtractor::extract_batch_into`], so the streamed
    /// verdicts equal [`QualityGate::verdicts_into`] over the same record.
    ///
    /// The streaming path matches [`RealTimeDetector::detect`] window for
    /// window on a detector whose quality gate is uncalibrated, up to the
    /// bounded floating-point error of the streaming extractor (see
    /// [`seizure_features::streaming`]). One documented behavioural
    /// difference: the record-level slow gain correction (AGC) is a
    /// whole-record robust fit and is **not** applied while streaming, so a
    /// calibrated gate may rescale batch inputs where the streaming path
    /// classifies the raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector is untrained and
    /// propagates configuration errors (e.g. a window geometry whose hop
    /// cannot be streamed).
    pub fn streaming(&self, fs: f64) -> Result<StreamingDetector<'_>, CoreError> {
        let forest = self.require_flat()?;
        let window = self.window_config(fs)?;
        let extractor = StreamingRichExtractor::new(&window)?;
        let num_features = extractor.num_features();
        let quality = if self.config.quality_gate {
            Some(StreamingQuality::new(&window)?)
        } else {
            None
        };
        Ok(StreamingDetector {
            forest,
            quality,
            quality_row: [0.0; NUM_QUALITY_FEATURES],
            extractor,
            row: vec![0.0; num_features],
            fill: 0,
            prev_verdict: QualityVerdict::Clean,
            window_index: 0,
        })
    }
}

/// One completed analysis window emitted by [`StreamingDetector::push`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamingDetection {
    /// Zero-based index of the completed window (same indexing as the
    /// per-window vectors of [`RealTimeDetector::detect`]).
    pub window_index: usize,
    /// The gated alarm: the forest's prediction, forced to `false` on
    /// `Reject` windows when the quality gate is enabled.
    pub alarm: bool,
    /// The signal-quality verdict of the window (always `Clean` when the
    /// gate is disabled).
    pub verdict: QualityVerdict,
}

/// Sample-at-a-time detection front end borrowed from a trained
/// [`RealTimeDetector`] (see [`RealTimeDetector::streaming`]).
///
/// Each sample is written straight into the extractor's window buffer; each
/// completed hop advances the carried extraction state
/// ([`StreamingRichExtractor`]) and, with the gate on, the quality grader's
/// ring of one-second chunk summaries ([`StreamingQuality`]). Once a full
/// window of hops is in flight every further hop completes one window:
/// quality verdict (with the same Schmitt-trigger hysteresis as the batch
/// gate), forest classification of the raw feature row and alarm gating.
/// After the warm-up allocations in [`RealTimeDetector::streaming`], pushing
/// samples performs no heap allocation (`tests/device_no_alloc.rs` counts
/// them over a whole gated record).
#[derive(Debug)]
pub struct StreamingDetector<'a> {
    forest: &'a FlatForest,
    extractor: StreamingRichExtractor,
    /// The quality grader; `None` when the gate is off.
    quality: Option<StreamingQuality>,
    quality_row: [f64; NUM_QUALITY_FEATURES],
    row: Vec<f64>,
    /// Samples of the current hop staged so far.
    fill: usize,
    prev_verdict: QualityVerdict,
    window_index: usize,
}

impl StreamingDetector<'_> {
    /// Number of samples per analysis window.
    pub fn window_samples(&self) -> usize {
        self.extractor.window_samples()
    }

    /// Number of samples between consecutive detections (the hop).
    pub fn step_samples(&self) -> usize {
        self.extractor.step_samples()
    }

    /// Index the next completed window will carry.
    pub fn next_window_index(&self) -> usize {
        self.window_index
    }

    /// Bytes of state carried across hops: the extractor's window buffers
    /// and carried operator state plus the quality grader's chunk-summary
    /// ring. The edge memory model prices the same bytes as
    /// `seizure_edge::memory::streaming_detector_state_bytes`.
    pub fn state_bytes(&self) -> usize {
        self.extractor.state_bytes()
            + self
                .quality
                .as_ref()
                .map_or(0, StreamingQuality::state_bytes)
    }

    /// Forgets all carried signal state (keeping the borrowed model) so the
    /// next sample starts a new record; the quality gate's hysteresis is
    /// reset to `Clean` and window indices restart at zero.
    pub fn reset(&mut self) {
        self.extractor.reset();
        if let Some(quality) = &mut self.quality {
            quality.reset();
        }
        self.fill = 0;
        self.prev_verdict = QualityVerdict::Clean;
        self.window_index = 0;
    }

    /// Ingests one sample pair (F7T3, F8T4). Returns `Ok(None)` until the
    /// sample completes an analysis window — every `window_samples()`-th
    /// sample at first, then every `step_samples()`-th — and the completed
    /// window's [`StreamingDetection`] afterwards.
    ///
    /// # Errors
    ///
    /// Propagates numeric extraction failures.
    // lint: hot-path
    pub fn push(&mut self, f7t3: f64, f8t4: f64) -> Result<Option<StreamingDetection>, CoreError> {
        self.extractor.stage(self.fill, f7t3, f8t4);
        self.fill += 1;
        if self.fill < self.extractor.step_samples() {
            return Ok(None);
        }
        self.fill = 0;
        let completed = self.extractor.push_staged_hop(&mut self.row)?;
        if let Some(quality) = &mut self.quality {
            quality.push_hop(self.extractor.last_hop(0), self.extractor.last_hop(1))?;
        }
        if !completed {
            return Ok(None);
        }
        let verdict = match &mut self.quality {
            Some(quality) => {
                quality.assess_window_into(
                    self.extractor.current_window(0),
                    self.extractor.current_window(1),
                    &mut self.quality_row,
                )?;
                let verdict = QualityGate::next_verdict(
                    quality::raw_level(&self.quality_row),
                    self.prev_verdict,
                );
                self.prev_verdict = verdict;
                verdict
            }
            None => QualityVerdict::Clean,
        };
        let mut alarm = self.forest.predict(&self.row);
        if verdict == QualityVerdict::Reject {
            alarm = false;
        }
        let detection = StreamingDetection {
            window_index: self.window_index,
            alarm,
            verdict,
        };
        self.window_index += 1;
        Ok(Some(detection))
    }
}

/// Balanced training selection over per-window labels: every seizure window
/// plus an equal number of evenly spaced seizure-free windows, positives
/// first. [`RealTimeDetector::balance`] and the self-learning pipeline
/// re-spread the two halves proportionally before training on them, so
/// ownership blocks of the incremental pool mix both classes.
///
/// # Errors
///
/// Returns [`CoreError::InvalidState`] if either class is absent.
pub fn balanced_indices(labels: &[bool]) -> Result<Vec<usize>, CoreError> {
    let positive_idx: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, &l)| l.then_some(i))
        .collect();
    let negative_idx: Vec<usize> = labels
        .iter()
        .enumerate()
        .filter_map(|(i, &l)| (!l).then_some(i))
        .collect();
    if positive_idx.is_empty() || negative_idx.is_empty() {
        return Err(CoreError::InvalidState {
            detail: "balancing requires both seizure and seizure-free windows".to_string(),
        });
    }
    let take = positive_idx.len().min(negative_idx.len());
    // Evenly spaced negatives avoid clustering right at the label boundary.
    let stride = (negative_idx.len() as f64 / take as f64).max(1.0);
    let mut selected = positive_idx;
    for j in 0..take {
        let idx = (j as f64 * stride) as usize;
        selected.push(negative_idx[idx.min(negative_idx.len() - 1)]);
    }
    Ok(selected)
}

/// [`balanced_indices`] with the two classes spread through each other by a
/// proportional merge. Staged positives first, a seizure longer than the
/// trainer's `block_size` would fill whole ownership blocks with one class;
/// merged, single-class runs stay at the class ratio instead of the full
/// class size. The one staging order of [`RealTimeDetector::balance`] and
/// the self-learning pipeline.
///
/// # Errors
///
/// Same conditions as [`balanced_indices`].
pub(crate) fn spread_balanced_indices(labels: &[bool]) -> Result<Vec<usize>, CoreError> {
    let selected = balanced_indices(labels)?;
    let num_pos = labels.iter().filter(|&&l| l).count();
    let (pos, neg) = selected.split_at(num_pos);
    let mut spread = Vec::with_capacity(selected.len());
    let (mut p, mut n) = (0usize, 0usize);
    while p < pos.len() || n < neg.len() {
        // Advance whichever class lags its share.
        if n >= neg.len() || (p < pos.len() && p * neg.len() <= n * pos.len()) {
            spread.push(pos[p]);
            p += 1;
        } else {
            spread.push(neg[n]);
            n += 1;
        }
    }
    Ok(spread)
}

/// The retraining-engine configuration a detector configuration implies.
fn trainer_config(config: &RealTimeDetectorConfig) -> IncrementalTrainerConfig {
    IncrementalTrainerConfig {
        forest: config.forest,
        block_size: config.incremental_block_size,
    }
}

/// Deterministic Theil–Sen line fit `y ≈ slope · x + intercept`: median of
/// all pairwise slopes, then median of the per-point intercepts under that
/// slope. Robust up to ~29 % outliers — enough to fit a record's amplitude
/// envelope through its seizure windows.
fn theil_sen(points: &[(f64, f64)]) -> (f64, f64) {
    debug_assert!(points.len() >= 2);
    let mut slopes = Vec::with_capacity(points.len() * (points.len() - 1) / 2);
    for (i, &(xi, yi)) in points.iter().enumerate() {
        for &(xj, yj) in &points[i + 1..] {
            if xj != xi {
                slopes.push((yj - yi) / (xj - xi));
            }
        }
    }
    let slope = median_in_place(&mut slopes).unwrap_or(0.0);
    let mut intercepts: Vec<f64> = points.iter().map(|&(x, y)| y - slope * x).collect();
    let intercept = median_in_place(&mut intercepts).unwrap_or(0.0);
    (slope, intercept)
}

/// Median by sorting in place (lower median for even lengths — a real data
/// point, and deterministic).
fn median_in_place(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    // `total_cmp`, not `partial_cmp().expect(...)`: a NaN slope (possible when
    // a poisoned window reaches the AGC fit) sorts to the top instead of
    // panicking mid-detect, and the lower median stays a real data point.
    values.sort_by(f64::total_cmp);
    Some(values[(values.len() - 1) / 2])
}

#[cfg(test)]
mod tests {
    use super::*;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::SampleConfig;

    fn record_and_truth(seed: u64) -> (seizure_data::sampler::EegRecord, SeizureLabel) {
        let cohort = Cohort::chb_mit_like(3);
        let config = SampleConfig::new(180.0, 220.0, 64.0).unwrap();
        let record = cohort.sample_record(8, 0, &config, seed).unwrap(); // patient 9: clean
        let truth =
            SeizureLabel::new(record.annotation().onset(), record.annotation().offset()).unwrap();
        (record, truth)
    }

    fn fast_config() -> RealTimeDetectorConfig {
        RealTimeDetectorConfig {
            forest: RandomForestConfig {
                n_trees: 10,
                max_depth: 6,
                ..RandomForestConfig::default()
            },
            ..RealTimeDetectorConfig::default()
        }
    }

    #[test]
    fn median_ranks_nan_worst_instead_of_panicking() {
        // Regression for the NaN-unsafe Theil–Sen sort: the former
        // `partial_cmp().expect("finite values")` comparator panicked on a
        // NaN slope; `total_cmp` sorts it last, so the lower median is still
        // a real data point.
        let mut values = [3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(median_in_place(&mut values), Some(2.0));
        let mut all_nan = [f64::NAN, f64::NAN];
        assert!(median_in_place(&mut all_nan).unwrap().is_nan());
    }

    #[test]
    fn untrained_detector_refuses_to_predict() {
        let detector = RealTimeDetector::new(fast_config());
        assert!(!detector.is_trained());
        let (record, _) = record_and_truth(0);
        assert!(matches!(
            detector.detect(record.signal()),
            Err(CoreError::InvalidState { .. })
        ));
    }

    #[test]
    fn trains_and_detects_the_seizure_it_was_trained_on() {
        let (record, truth) = record_and_truth(1);
        let mut detector = RealTimeDetector::new(fast_config());
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        detector.train(&balanced).unwrap();
        assert!(detector.is_trained());

        let cm = detector.evaluate(record.signal(), &truth).unwrap();
        // Training data, so the detector should do very well.
        assert!(cm.sensitivity() > 0.7, "sensitivity = {}", cm.sensitivity());
        assert!(cm.specificity() > 0.7, "specificity = {}", cm.specificity());
    }

    #[test]
    fn generalizes_to_another_record_of_the_same_patient() {
        let (train_record, train_truth) = record_and_truth(2);
        let (test_record, test_truth) = record_and_truth(3);
        let mut detector = RealTimeDetector::new(fast_config());
        let training = detector
            .build_training_windows(train_record.signal(), &train_truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        detector.train(&balanced).unwrap();
        let cm = detector
            .evaluate(test_record.signal(), &test_truth)
            .unwrap();
        assert!(cm.geometric_mean() > 0.6, "gmean = {}", cm.geometric_mean());
    }

    #[test]
    fn balance_produces_equal_class_counts() {
        let (record, truth) = record_and_truth(4);
        let detector = RealTimeDetector::new(fast_config());
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        assert_eq!(balanced.num_positive(), balanced.num_negative());
        assert!(balanced.len() < training.len());
    }

    #[test]
    fn balance_requires_both_classes() {
        let detector = RealTimeDetector::new(fast_config());
        let all_negative = Dataset::new(vec![vec![1.0]; 5], vec![false; 5]).unwrap();
        assert!(detector.balance(&all_negative).is_err());
        let all_positive = Dataset::new(vec![vec![1.0]; 5], vec![true; 5]).unwrap();
        assert!(detector.balance(&all_positive).is_err());
    }

    #[test]
    fn batch_detection_is_consistent_across_entry_points() {
        let (record, truth) = record_and_truth(5);
        let mut detector = RealTimeDetector::new(fast_config());
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        detector
            .train(&detector.balance(&training).unwrap())
            .unwrap();
        assert!(detector.flat_forest().is_some());

        let batch = detector.detect(record.signal()).unwrap();
        let rows = detector
            .extract_feature_matrix(record.signal())
            .unwrap()
            .to_rows();
        let via_rows = detector.predict_rows(&rows).unwrap();
        assert_eq!(batch, via_rows);

        // The workspace-reusing paths agree with the allocating ones and
        // leave their results readable from the workspace.
        let mut ws = FeatureWorkspace::new();
        let count = detector.detect_into(record.signal(), &mut ws).unwrap();
        assert_eq!(count, batch.len());
        assert_eq!(ws.predictions(), &batch[..]);
        // Detecting leaves the raw features in the workspace.
        assert_eq!(ws.matrix().to_rows(), rows);

        // Mismatched row widths are rejected instead of panicking.
        assert!(detector.predict_rows(&[vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn fractional_overlap_detector_keeps_window_label_alignment() {
        // Regression for the window-step rounding drift: at 60 % overlap the
        // exact step is fractional (1.6 s at 64 Hz = 102.4 samples); the
        // detector must round it (102) and keep per-window labels aligned
        // with the realized step through training and evaluation.
        let (record, truth) = record_and_truth(6);
        let mut detector = RealTimeDetector::new(RealTimeDetectorConfig {
            overlap: 0.6,
            ..fast_config()
        });
        let window = detector
            .window_config(record.signal().sampling_frequency())
            .unwrap();
        assert_eq!(window.window_samples(), 256);
        assert_eq!(window.step_samples(), 102);
        let realized = (window.window_samples() - window.step_samples()) as f64;
        assert!((realized - 256.0 * 0.6).abs() <= 1.0);

        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        detector
            .train(&detector.balance(&training).unwrap())
            .unwrap();
        let cm = detector.evaluate(record.signal(), &truth).unwrap();
        assert_eq!(cm.total(), training.len());
    }

    #[test]
    fn incremental_retraining_matches_single_shot_and_reuses_trees() {
        // Feed the detector the way the pipeline does: balanced per-record
        // batches (so ownership blocks mix both classes), appended in two
        // steps, against a single-shot incremental fit of the final pool.
        let (record, truth) = record_and_truth(7);
        let config = fast_config();
        let mut detector = RealTimeDetector::new(config);
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        let nf = balanced.num_features();
        let rows: Vec<f64> = balanced.features().iter().flatten().copied().collect();
        let labels = balanced.labels();
        let cut = balanced.len() / 2;

        // Two appends through one detector...
        detector
            .retrain_incremental(&rows[..cut * nf], nf, &labels[..cut])
            .unwrap();
        let first_refits = detector.incremental_trainer().unwrap().last_refit_count();
        detector
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        let trainer = detector.incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), balanced.len());
        assert!(trainer.last_refit_count() <= first_refits);

        // ...equal one single-shot incremental fit on the final pool.
        let mut reference = RealTimeDetector::new(config);
        reference.retrain_incremental(&rows, nf, labels).unwrap();
        assert_eq!(detector.flat_forest(), reference.flat_forest());
        assert_eq!(
            detector.detect(record.signal()).unwrap(),
            reference.detect(record.signal()).unwrap()
        );

        // The incrementally trained detector is a usable seizure detector.
        let cm = detector.evaluate(record.signal(), &truth).unwrap();
        assert!(cm.sensitivity() > 0.6, "sensitivity = {}", cm.sensitivity());
        assert!(cm.specificity() > 0.6, "specificity = {}", cm.specificity());

        // `train` discards the pool and makes one fresh fit, node-identical
        // to a fresh detector's `retrain_incremental` on the same rows...
        let first: Vec<usize> = (0..cut).collect();
        let mut trained = detector.clone();
        trained.train(&balanced.subset(&first).unwrap()).unwrap();
        let mut fresh = RealTimeDetector::new(config);
        fresh
            .retrain_incremental(&rows[..cut * nf], nf, &labels[..cut])
            .unwrap();
        assert_eq!(trained.flat_forest(), fresh.flat_forest());
        assert_eq!(trained.incremental_trainer(), fresh.incremental_trainer());

        // ...and extending the trained detector equals one fit of the
        // concatenated pool.
        trained
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        assert_eq!(trained.flat_forest(), reference.flat_forest());
        assert_eq!(
            trained.incremental_trainer(),
            reference.incremental_trainer()
        );
    }

    #[test]
    fn config_accessor() {
        let detector = RealTimeDetector::new(fast_config());
        assert_eq!(detector.config().window_secs, 4.0);
    }

    #[test]
    fn snapshot_with_an_unrepresentable_window_is_refused_at_use() {
        // `load_state` restores the geometry as saved; the window config
        // built from it must refuse a window no record can hold instead of
        // reading zero windows from every record.
        let detector = RealTimeDetector::new(RealTimeDetectorConfig {
            window_secs: f64::INFINITY,
            ..fast_config()
        });
        let restored = RealTimeDetector::load_state(&detector.save_state()).unwrap();
        assert!(restored.window_config(256.0).is_err());
    }

    #[test]
    fn untrained_detector_state_round_trips() {
        let detector = RealTimeDetector::new(fast_config());
        let restored = RealTimeDetector::load_state(&detector.save_state()).unwrap();
        assert_eq!(restored, detector);
        assert!(!restored.is_trained());
    }

    #[test]
    fn trained_detector_state_round_trips_and_resumes_node_identically() {
        let (record, truth) = record_and_truth(9);
        let mut detector = RealTimeDetector::new(fast_config());
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        let nf = balanced.num_features();
        let rows: Vec<f64> = balanced.features().iter().flatten().copied().collect();
        let labels = balanced.labels();
        let cut = balanced.len() / 2;
        let first: Vec<usize> = (0..cut).collect();
        detector.train(&balanced.subset(&first).unwrap()).unwrap();

        // State-identical: config, trainer and the forest re-stitched from it.
        let mut restored = RealTimeDetector::load_state(&detector.save_state()).unwrap();
        assert_eq!(restored, detector);
        assert_eq!(
            restored.detect(record.signal()).unwrap(),
            detector.detect(record.signal()).unwrap()
        );

        // A `train`ed detector resumes like any other: extending it after
        // the round trip matches extending it without one.
        detector
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        restored
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        assert_eq!(restored.flat_forest(), detector.flat_forest());
        assert_eq!(restored, detector);
    }

    #[test]
    fn incremental_detector_resumes_node_identically_across_a_save() {
        let (record, truth) = record_and_truth(10);
        let config = fast_config();
        let mut detector = RealTimeDetector::new(config);
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        let nf = balanced.num_features();
        let rows: Vec<f64> = balanced.features().iter().flatten().copied().collect();
        let labels = balanced.labels();
        let cut = balanced.len() / 2;

        // Train half, save, cross the "process boundary", resume, train the
        // rest — against a detector that never stopped.
        detector
            .retrain_incremental(&rows[..cut * nf], nf, &labels[..cut])
            .unwrap();
        let snapshot = detector.save_state();
        detector
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();

        let mut resumed = RealTimeDetector::load_state(&snapshot).unwrap();
        resumed
            .retrain_incremental(&rows[cut * nf..], nf, &labels[cut..])
            .unwrap();
        assert_eq!(resumed.flat_forest(), detector.flat_forest());
        assert_eq!(resumed, detector);
        assert_eq!(
            resumed.detect(record.signal()).unwrap(),
            detector.detect(record.signal()).unwrap()
        );
    }

    /// The zero-copy snapshot assembly (nested envelopes written in place,
    /// lengths and checksums back-patched) must emit exactly the bytes of
    /// the copying `nested()` path the format was defined with.
    #[test]
    fn zero_copy_state_snapshot_is_byte_identical_to_the_copying_codec() {
        let (record, truth) = record_and_truth(11);
        let config = fast_config();

        // Incremental model: the O(pool) trainer payload is the one worth
        // not copying.
        let mut detector = RealTimeDetector::new(config);
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        let balanced = detector.balance(&training).unwrap();
        let nf = balanced.num_features();
        let rows: Vec<f64> = balanced.features().iter().flatten().copied().collect();
        detector
            .retrain_incremental(&rows, nf, balanced.labels())
            .unwrap();
        let mut reference = SnapshotWriter::new();
        reference.f64(config.window_secs);
        reference.f64(config.overlap);
        persist::write_forest_config(&mut reference, &config.forest);
        reference.u64(config.seed);
        reference.usize(config.incremental_block_size);
        reference.bool(config.quality_gate);
        reference.f64(detector.quality_gate().reference_log_std()[0]);
        reference.f64(detector.quality_gate().reference_log_std()[1]);
        reference.f64(detector.quality_gate().calibration_weight());
        reference.u8(MODEL_TRAINED);
        reference.nested(&persist::trainer_to_bytes(
            detector.incremental_trainer().unwrap(),
        ));
        assert_eq!(
            detector.save_state(),
            reference.finish(SnapshotKind::RealTimeDetector)
        );
    }

    #[test]
    fn corrupt_detector_snapshots_are_rejected() {
        let detector = RealTimeDetector::new(fast_config());
        let mut bytes = detector.save_state();
        assert!(matches!(
            RealTimeDetector::load_state(&bytes[..bytes.len() - 3]),
            Err(CoreError::Persist(_))
        ));
        let last = bytes.len() - 1;
        bytes[last] ^= 1;
        assert!(matches!(
            RealTimeDetector::load_state(&bytes),
            Err(CoreError::Persist(_))
        ));
        assert!(RealTimeDetector::load_state(b"not a snapshot, not even close").is_err());

        // The retired standardized batch model (marker 1: feature means and
        // stds, then a nested forest) is refused with a typed error naming
        // the marker.
        let config = fast_config();
        let mut retired = SnapshotWriter::new();
        retired.f64(config.window_secs);
        retired.f64(config.overlap);
        persist::write_forest_config(&mut retired, &config.forest);
        retired.u64(config.seed);
        retired.usize(config.incremental_block_size);
        retired.bool(config.quality_gate);
        retired.f64(0.0);
        retired.f64(0.0);
        retired.f64(0.0);
        retired.u8(1);
        retired.slice_f64(&[0.5]);
        retired.slice_f64(&[2.0]);
        let forest = IncrementalTrainer::new(trainer_config(&config), 0)
            .retrain(&[0.0, 1.0, 2.0, 3.0], 1, &[false, false, true, true])
            .unwrap();
        retired.nested(&persist::forest_to_bytes(&forest));
        match RealTimeDetector::load_state(&retired.finish(SnapshotKind::RealTimeDetector)) {
            Err(CoreError::Persist(PersistError::Corrupted { detail })) => {
                assert!(detail.contains("marker 1"), "{detail}");
            }
            other => panic!("marker 1 must be rejected as corrupted, got {other:?}"),
        }
    }

    #[test]
    fn streaming_detector_matches_batch_detect() {
        let (record, truth) = record_and_truth(11);
        let mut detector = RealTimeDetector::new(fast_config());
        assert!(matches!(
            detector.streaming(64.0),
            Err(CoreError::InvalidState { .. })
        ));
        let training = detector
            .build_training_windows(record.signal(), &truth)
            .unwrap();
        detector.train(&training).unwrap();

        let mut ws = FeatureWorkspace::new();
        detector.detect_into(record.signal(), &mut ws).unwrap();
        let batch_alarms = ws.predictions.clone();
        let batch_verdicts = ws.verdicts.clone();

        let fs = record.signal().sampling_frequency();
        let mut streaming = detector.streaming(fs).unwrap();
        assert_eq!(streaming.window_samples(), 256);
        assert_eq!(streaming.step_samples(), 64);
        assert!(streaming.state_bytes() > 0);
        let mut alarms = Vec::new();
        let mut verdicts = Vec::new();
        for (&a, &b) in record
            .signal()
            .f7t3()
            .iter()
            .zip(record.signal().f8t4().iter())
        {
            if let Some(det) = streaming.push(a, b).unwrap() {
                assert_eq!(det.window_index, alarms.len());
                alarms.push(det.alarm);
                verdicts.push(det.verdict);
            }
        }
        // The gate is uncalibrated, so no AGC ran in the batch path and the
        // streaming sweep must agree window for window.
        assert_eq!(alarms, batch_alarms);
        assert_eq!(verdicts, batch_verdicts);

        // A reset detector replays the same record identically.
        streaming.reset();
        assert_eq!(streaming.next_window_index(), 0);
        let mut replay = Vec::new();
        for (&a, &b) in record
            .signal()
            .f7t3()
            .iter()
            .zip(record.signal().f8t4().iter())
        {
            if let Some(det) = streaming.push(a, b).unwrap() {
                replay.push(det.alarm);
            }
        }
        assert_eq!(replay, alarms);
    }
}
