//! The self-learning pipeline (paper §III, Fig. 1).
//!
//! The loop closes as follows: a seizure is missed by the real-time detector,
//! the patient confirms it within the next hour, the a-posteriori algorithm
//! labels the last hour of signal, the labeled data is added to the patient's
//! personalized training set and the real-time detector is retrained. With
//! every missed seizure the detector becomes more robust.

use crate::algorithm::DetectorConfig;
use crate::error::CoreError;
use crate::label::{window_labels, SeizureLabel};
use crate::labeler::{LabelerConfig, PosterioriLabeler};
use crate::realtime::{
    spread_balanced_indices, QualityVerdict, RealTimeDetector, RealTimeDetectorConfig,
};
use crate::workspace::FeatureWorkspace;
use seizure_data::sampler::EegRecord;
use seizure_features::extractor::RichFeatureSet;
use seizure_features::FeatureError;
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::journal::{self, JournalReplayReport, JournalWriter};
use seizure_ml::persist::store::{Flash, FlashGeometry, FlashStore, StoreSave};
use seizure_ml::persist::{PersistError, SnapshotKind, SnapshotReader, SnapshotWriter};

/// Where the seizure labels used for training come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LabelSource {
    /// Labels produced by the a-posteriori minimally-supervised algorithm
    /// (the paper's proposal).
    #[default]
    Algorithm,
    /// Expert (ground-truth) labels — the paper's baseline for Fig. 4.
    Expert,
}

/// Evaluation summary of a trained pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SelfLearningReport {
    /// Per-window sensitivity of the real-time detector.
    pub sensitivity: f64,
    /// Per-window specificity of the real-time detector.
    pub specificity: f64,
    /// Geometric mean of sensitivity and specificity (the paper's Fig. 4
    /// metric).
    pub geometric_mean: f64,
    /// Number of evaluation windows.
    pub windows: usize,
}

impl SelfLearningReport {
    /// Builds a report from a confusion matrix.
    pub fn from_confusion(cm: &ConfusionMatrix) -> Self {
        Self {
            sensitivity: cm.sensitivity(),
            specificity: cm.specificity(),
            geometric_mean: cm.geometric_mean(),
            windows: cm.total(),
        }
    }
}

/// The self-learning pipeline: a-posteriori labeler + personalized training
/// set + real-time detector.
///
/// # Example
///
/// ```no_run
/// use seizure_core::pipeline::{LabelSource, SelfLearningPipeline};
/// use seizure_core::labeler::LabelerConfig;
/// use seizure_core::realtime::RealTimeDetectorConfig;
/// use seizure_data::cohort::Cohort;
/// use seizure_data::sampler::SampleConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let cohort = Cohort::chb_mit_like(1);
/// let config = SampleConfig::fast_test()?;
/// let mut pipeline = SelfLearningPipeline::new(
///     LabelerConfig::default(),
///     RealTimeDetectorConfig::default(),
/// );
///
/// // Two missed seizures are reported by the patient and learned from.
/// for seizure in 0..2 {
///     let record = cohort.sample_record(0, seizure, &config, 0)?;
///     let w = cohort.average_seizure_duration(0)?;
///     pipeline.observe_missed_seizure(&record, w, LabelSource::Algorithm)?;
/// }
/// assert_eq!(pipeline.num_seizures_collected(), 2);
///
/// // Evaluate the personalized detector on a held-out seizure.
/// let held_out = cohort.sample_record(0, 2, &config, 1)?;
/// let report = pipeline.evaluate(&held_out)?;
/// println!("geometric mean = {:.3}", report.geometric_mean);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SelfLearningPipeline {
    labeler: PosterioriLabeler,
    detector: RealTimeDetector,
    /// Staging buffers for one record's balanced window selection, reused
    /// across records (the accumulated training pool itself lives inside the
    /// detector's incremental trainer).
    batch_rows: Vec<f64>,
    batch_labels: Vec<bool>,
    num_seizures: usize,
    /// Records the quality gate refused to learn from (too many `Reject`
    /// windows, or a whole class rejected): they never reach the labeler or
    /// the incremental pool.
    num_quarantined: usize,
    produced_labels: Vec<SeizureLabel>,
    /// Extraction state reused across every record the pipeline touches.
    workspace: FeatureWorkspace,
    /// Journal of the batches learned since the store's committed base,
    /// armed by [`SelfLearningPipeline::init_store`] /
    /// [`SelfLearningPipeline::resume_from_store`]; `None` while the
    /// pipeline persists through byte snapshots only. Each entry carries the
    /// produced seizure label and the gate reference as its annotation, so a
    /// resume also restores the seizure counter, the label history and the
    /// gate calibration.
    journal: Option<JournalWriter>,
}

/// Fraction of `Reject` windows above which a reported record is quarantined
/// outright instead of being labeled and learned from. A quarter of the
/// record is far beyond what transient artifacts produce on acceptable
/// signal, while records degraded by sustained artifact (saturation, severe
/// wander, electrode dropout) reject the majority of their windows.
pub const QUARANTINE_REJECT_FRACTION: f64 = 0.25;

/// Snapshot marker of the labeler's Algorithm 1 implementation: the
/// prefix-sum one, the only one there is.
const LABELER_PREFIX_SUM: u8 = 1;
/// Retired marker of the literal pseudo-code transcription; decoding it fails
/// with a typed error.
const LABELER_RETIRED_LITERAL: u8 = 0;

/// Length of the per-entry annotation: the produced label's onset and offset
/// plus the quality gate's post-record amplitude reference (two per-channel
/// log-std references and the calibration weight), five little-endian `f64`s
/// in total. Carrying the gate reference per entry keeps a journal-replayed
/// resume state-identical to the pipeline that never powered down even
/// though gate calibration advances with every learned record.
const LABEL_ANNOTATION_LEN: usize = 40;

fn encode_annotation(
    label: &SeizureLabel,
    gate_ref: [f64; 2],
    gate_weight: f64,
) -> [u8; LABEL_ANNOTATION_LEN] {
    let mut bytes = [0u8; LABEL_ANNOTATION_LEN];
    bytes[..8].copy_from_slice(&label.onset_secs().to_le_bytes());
    bytes[8..16].copy_from_slice(&label.offset_secs().to_le_bytes());
    bytes[16..24].copy_from_slice(&gate_ref[0].to_le_bytes());
    bytes[24..32].copy_from_slice(&gate_ref[1].to_le_bytes());
    bytes[32..].copy_from_slice(&gate_weight.to_le_bytes());
    bytes
}

fn decode_annotation(
    annotation: &[u8],
    index: usize,
) -> Result<(SeizureLabel, [f64; 2], f64), PersistError> {
    let bytes: [u8; LABEL_ANNOTATION_LEN] =
        annotation.try_into().map_err(|_| PersistError::Corrupted {
            detail: format!(
                "journal entry {index} annotates {} bytes, expected a {LABEL_ANNOTATION_LEN}-byte \
                 seizure label plus gate reference",
                annotation.len()
            ),
        })?;
    let f = |at: usize| f64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
    let label = SeizureLabel::new(f(0), f(8)).map_err(|e| PersistError::Corrupted {
        detail: format!("journal entry {index} annotates a label that does not reconstruct: {e}"),
    })?;
    let gate_ref = [f(16), f(24)];
    let gate_weight = f(32);
    if !gate_ref.iter().all(|v| v.is_finite()) || !gate_weight.is_finite() || gate_weight < 0.0 {
        return Err(PersistError::Corrupted {
            detail: format!("journal entry {index} annotates a non-finite gate reference"),
        });
    }
    Ok((label, gate_ref, gate_weight))
}

impl SelfLearningPipeline {
    /// Creates an empty pipeline.
    pub fn new(labeler_config: LabelerConfig, detector_config: RealTimeDetectorConfig) -> Self {
        Self {
            labeler: PosterioriLabeler::new(labeler_config),
            detector: RealTimeDetector::new(detector_config),
            batch_rows: Vec::new(),
            batch_labels: Vec::new(),
            num_seizures: 0,
            num_quarantined: 0,
            produced_labels: Vec::new(),
            workspace: FeatureWorkspace::new(),
            journal: None,
        }
    }

    /// The a-posteriori labeler used by the pipeline.
    pub fn labeler(&self) -> &PosterioriLabeler {
        &self.labeler
    }

    /// The (possibly still untrained) real-time detector.
    pub fn detector(&self) -> &RealTimeDetector {
        &self.detector
    }

    /// Number of missed seizures that have been labeled and learned from.
    pub fn num_seizures_collected(&self) -> usize {
        self.num_seizures
    }

    /// Number of reported records the quality gate quarantined instead of
    /// learning from: their per-window verdicts contained too many `Reject`
    /// windows (hostile signal), so they never reached the a-posteriori
    /// labeler or the incremental training pool.
    pub fn num_quarantined(&self) -> usize {
        self.num_quarantined
    }

    /// Size of the accumulated personalized training set, in windows.
    pub fn training_windows(&self) -> usize {
        self.detector
            .incremental_trainer()
            .map_or(0, |t| t.num_samples())
    }

    /// The labels produced so far (one per observed missed seizure).
    pub fn produced_labels(&self) -> &[SeizureLabel] {
        &self.produced_labels
    }

    /// Processes one missed seizure: labels the record (with the algorithm or
    /// with the expert annotation, depending on `source`), adds a balanced set
    /// of windows to the personalized training set and retrains the real-time
    /// detector. Returns the label that was used, or `None` when the
    /// detector's quality gate quarantined the record **before the labeler
    /// ran**: a record whose fraction of `Reject` windows exceeds
    /// [`QUARANTINE_REJECT_FRACTION`] carries artifact, not brain signal, and
    /// letting the a-posteriori labeler loose on it would poison the
    /// personalized training set. Quarantined records count in
    /// [`SelfLearningPipeline::num_quarantined`] and change nothing else.
    ///
    /// # Errors
    ///
    /// Propagates labeling, feature-extraction and training failures.
    pub fn observe_missed_seizure(
        &mut self,
        record: &EegRecord,
        average_seizure_secs: f64,
        source: LabelSource,
    ) -> Result<Option<SeizureLabel>, CoreError> {
        if self.quarantine_check(record)? {
            self.num_quarantined += 1;
            return Ok(None);
        }
        let label = match source {
            LabelSource::Algorithm => {
                self.labeler
                    .label_record_with(record, average_seizure_secs, &mut self.workspace)?
            }
            LabelSource::Expert => {
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?
            }
        };
        self.learn_record(record, &label)?;
        Ok(Some(label))
    }

    /// Adds one labeled record to the personalized training set and retrains
    /// the detector. This is the low-level entry point used by
    /// [`SelfLearningPipeline::observe_missed_seizure`]; it can also be called
    /// directly with an externally produced label.
    ///
    /// Runs on the flat batch engine and the incremental retraining engine:
    /// the balanced selection is chosen from the record's window labels
    /// first, only the selected windows' rich features are then extracted
    /// into the flat batch buffers, and
    /// [`RealTimeDetector::retrain_incremental`] appends them to the
    /// detector's growing pool — sorting only the block-local presorted
    /// runs the batch touches and refitting only the trees whose bootstrap
    /// pools the new windows touched, instead of paying a full
    /// `train_forest` per missed seizure.
    ///
    /// The seizure counter follows the label's **actual seizure content**: a
    /// label that marks no window of this record as seizure (too short for
    /// the half-window overlap rule, or lying outside the recording) adds
    /// nothing to the training pool and does not advance
    /// [`SelfLearningPipeline::num_seizures_collected`] — the call is a
    /// no-op, not an error, so external label producers can stream
    /// uncurated labels through this entry point.
    ///
    /// Like [`SelfLearningPipeline::observe_missed_seizure`], this entry
    /// point is quarantine-aware: a record the quality gate rejects outright
    /// is counted in [`SelfLearningPipeline::num_quarantined`] and learned
    /// from not at all, and individual `Reject` windows of an accepted
    /// record are excluded from the balanced selection. With the gate
    /// disabled in the detector's configuration, behavior is exactly the
    /// pre-gate pipeline's.
    ///
    /// # Errors
    ///
    /// Propagates feature-extraction and training failures.
    pub fn add_training_record(
        &mut self,
        record: &EegRecord,
        label: &SeizureLabel,
    ) -> Result<(), CoreError> {
        if self.quarantine_check(record)? {
            self.num_quarantined += 1;
            return Ok(());
        }
        self.learn_record(record, label)
    }

    /// Assesses the record's per-window quality into the workspace (gate
    /// enabled only) and reports whether the record as a whole must be
    /// quarantined. On `Ok(false)` with the gate enabled, the workspace's
    /// quality matrix and verdicts are left filled for this record, ready
    /// for [`SelfLearningPipeline::learn_record`].
    fn quarantine_check(&mut self, record: &EegRecord) -> Result<bool, CoreError> {
        if !self.detector.config().quality_gate {
            return Ok(false);
        }
        self.detector
            .assess_quality_into(record.signal(), &mut self.workspace)?;
        let verdicts = &self.workspace.verdicts;
        if verdicts.is_empty() {
            return Ok(false);
        }
        let rejected = verdicts
            .iter()
            .filter(|&&v| v == QualityVerdict::Reject)
            .count();
        Ok(rejected as f64 > QUARANTINE_REJECT_FRACTION * verdicts.len() as f64)
    }

    /// The staging and retraining core shared by the two public entry
    /// points, run after the record has passed the quarantine check. It
    /// selects first and extracts second: the window labels come from the
    /// record's geometry, the balanced selection is staged as window indices,
    /// and only those windows' rich rows are extracted, straight into the
    /// batch buffer.
    fn learn_record(&mut self, record: &EegRecord, label: &SeizureLabel) -> Result<(), CoreError> {
        let signal = record.signal();
        let window = self.detector.window_config(signal.sampling_frequency())?;
        let num_windows = window.num_windows(signal.len());
        if num_windows == 0 {
            return Err(FeatureError::SignalTooShort {
                actual: signal.len(),
                required: window.window_samples(),
            }
            .into());
        }
        let labels = window_labels(
            label,
            num_windows,
            window.window_seconds(),
            window.step_seconds(),
        )?;
        if !labels.iter().any(|&l| l) {
            return Ok(());
        }
        // The quarantine check left this record's verdicts in the workspace
        // (the labeler fills only its feature matrix); the gate both
        // calibrates its amplitude reference from the record's clean
        // seizure-free windows and strikes `Reject` windows from the
        // balanced selection below.
        let gated =
            self.detector.config().quality_gate && self.workspace.verdicts.len() == labels.len();
        if gated {
            self.detector.calibrate_from_quality(
                &self.workspace.quality,
                &self.workspace.verdicts,
                &labels,
            );
        }
        let eligible: Vec<usize> = if gated {
            (0..labels.len())
                .filter(|&w| self.workspace.verdicts[w] != QualityVerdict::Reject)
                .collect()
        } else {
            (0..labels.len()).collect()
        };
        let eligible_labels: Vec<bool> = eligible.iter().map(|&w| labels[w]).collect();
        if gated && (!eligible_labels.iter().any(|&l| l) || eligible_labels.iter().all(|&l| l)) {
            // The gate struck out one whole class: there is nothing balanced
            // left to learn, so the record is quarantined rather than erroring.
            self.num_quarantined += 1;
            return Ok(());
        }
        // Positives and sampled negatives spread through each other, so a
        // long seizure cannot fill whole ownership blocks of the incremental
        // pool with one class.
        let selected = spread_balanced_indices(&eligible_labels)?;
        let staged: Vec<usize> = selected.iter().map(|&i| eligible[i]).collect();
        self.batch_labels.clear();
        self.batch_labels
            .extend(selected.iter().map(|&i| eligible_labels[i]));
        self.detector.extract_windows_into(
            signal,
            &staged,
            &self.workspace,
            &mut self.batch_rows,
        )?;
        let num_features = RichFeatureSet::NUM_FEATURES;
        self.detector
            .retrain_incremental(&self.batch_rows, num_features, &self.batch_labels)?;
        self.num_seizures += 1;
        self.produced_labels.push(*label);
        // With a store armed, journal the staged batch together with the
        // produced label and the gate's post-record amplitude reference, so
        // the next `save_to_store` appends O(batch) bytes and a resume
        // restores the counter, the label history and the gate calibration.
        if let Some(writer) = &mut self.journal {
            let gate = self.detector.quality_gate();
            let annotation =
                encode_annotation(label, gate.reference_log_std(), gate.calibration_weight());
            writer.append_with(
                &self.batch_rows,
                num_features,
                &self.batch_labels,
                &annotation,
            )?;
        }
        Ok(())
    }

    /// Serializes the pipeline's full persistent state — labeler
    /// configuration, the detector (gate calibration, trainer and training
    /// pool; see [`RealTimeDetector::save_state`]), the seizure counter and
    /// every produced label — into the versioned binary snapshot format of
    /// [`seizure_ml::persist`]. The extraction workspace and the batch
    /// staging buffers are scratch and are not stored; a resumed pipeline
    /// regrows them on first use.
    pub fn save(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        let labeler = self.labeler.config();
        w.f64(labeler.window_secs);
        w.f64(labeler.overlap);
        w.usize(labeler.detector.subsample_step);
        // Line 1 normalization always runs; the flag stays in the format.
        w.u8(LABELER_PREFIX_SUM);
        w.bool(true);
        // The detector (and through it the O(pool) trainer payload) is
        // nested in place — lengths and checksums are back-patched instead
        // of memcpying separately finished child envelopes.
        let child = w.begin_nested(SnapshotKind::RealTimeDetector);
        self.detector.write_state_body(&mut w);
        w.end_nested(child);
        w.usize(self.num_seizures);
        w.usize(self.num_quarantined);
        w.usize(self.produced_labels.len());
        for label in &self.produced_labels {
            w.f64(label.onset_secs());
            w.f64(label.offset_secs());
        }
        w.finish(SnapshotKind::SelfLearningPipeline)
    }

    /// Restores a pipeline from a [`SelfLearningPipeline::save`] snapshot.
    /// The resumed pipeline reproduces the original's detections on any
    /// record and continues learning exactly where it stopped: the next
    /// [`SelfLearningPipeline::observe_missed_seizure`] retrains
    /// node-identically to a pipeline that never shut down.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for truncated, foreign, corrupted,
    /// version-mismatched or internally inconsistent snapshots — never a
    /// panic. A snapshot of a retired labeler setting (implementation marker
    /// 0, the literal pseudo-code transcription, or Line 1 normalization
    /// off) is refused as [`PersistError::Corrupted`] naming the setting.
    pub fn resume(bytes: &[u8]) -> Result<Self, CoreError> {
        let mut r = SnapshotReader::open(bytes, SnapshotKind::SelfLearningPipeline)?;
        let window_secs = r.f64()?;
        let overlap = r.f64()?;
        let subsample_step = r.usize()?;
        match r.u8()? {
            LABELER_PREFIX_SUM => {}
            LABELER_RETIRED_LITERAL => {
                return Err(PersistError::Corrupted {
                    detail: format!(
                        "labeler implementation marker {LABELER_RETIRED_LITERAL} (literal \
                         pseudo-code transcription) is retired"
                    ),
                }
                .into())
            }
            marker => {
                return Err(PersistError::Corrupted {
                    detail: format!("unknown labeler implementation marker {marker}"),
                }
                .into())
            }
        }
        if !r.bool()? {
            return Err(PersistError::Corrupted {
                detail: "labeler with Line 1 normalization off is retired".to_string(),
            }
            .into());
        }
        let detector = RealTimeDetector::load_state(r.nested()?)?;
        let num_seizures = r.usize()?;
        let num_quarantined = r.usize()?;
        let num_labels = r.usize()?;
        let mut produced_labels = Vec::with_capacity(num_labels.min(1024));
        for _ in 0..num_labels {
            let onset = r.f64()?;
            let offset = r.f64()?;
            produced_labels.push(SeizureLabel::new(onset, offset).map_err(|e| {
                PersistError::Corrupted {
                    detail: format!("stored label does not reconstruct: {e}"),
                }
            })?);
        }
        r.finish()?;
        let labeler_config = LabelerConfig {
            window_secs,
            overlap,
            detector: DetectorConfig { subsample_step },
        };
        Ok(Self {
            labeler: PosterioriLabeler::new(labeler_config),
            detector,
            batch_rows: Vec::new(),
            batch_labels: Vec::new(),
            num_seizures,
            num_quarantined,
            produced_labels,
            workspace: FeatureWorkspace::new(),
            journal: None,
        })
    }

    /// Serializes a fresh base snapshot and arms an empty journal over it.
    fn rebase(&mut self) -> Vec<u8> {
        let base = self.save();
        let writer = JournalWriter::new(&base, self.training_windows())
            .expect("save emits a valid envelope");
        self.journal = Some(writer);
        base
    }

    /// Formats `flash` as a crash-proof A/B [`FlashStore`], commits the
    /// pipeline's current state as the first base and arms the journal —
    /// the first-boot counterpart of
    /// [`SelfLearningPipeline::resume_from_store`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] when the geometry does not fit the device or
    /// the snapshot does not fit a slot.
    pub fn init_store<F: Flash>(
        &mut self,
        flash: F,
        geometry: FlashGeometry,
    ) -> Result<FlashStore<F>, CoreError> {
        let base = self.rebase();
        Ok(FlashStore::format(flash, geometry, &base)?)
    }

    /// Persists the pipeline through a crash-proof [`FlashStore`]. A clean
    /// state writes nothing; each learned seizure costs one O(batch)
    /// journal append; once the journal reaches the store's
    /// [`FlashStore::should_compact`] threshold (or one entry outgrows the
    /// region), or when no journal is armed yet, the state is compacted
    /// into the inactive base slot.
    ///
    /// A power loss at **any byte** of the underlying writes leaves the
    /// previous or the new state recoverable by [`FlashStore::mount`] +
    /// [`SelfLearningPipeline::resume_from_store`].
    ///
    /// # Errors
    ///
    /// [`CoreError::Persist`] for store or Flash failures. After an error
    /// the in-RAM journal may be ahead of the device; recover by remounting
    /// and resuming, as a device would post-crash.
    pub fn save_to_store<F: Flash>(
        &mut self,
        store: &mut FlashStore<F>,
    ) -> Result<StoreSave, CoreError> {
        if let Some(writer) = &mut self.journal {
            if writer.unflushed().is_empty() {
                return Ok(StoreSave::Clean);
            }
            if !store.should_compact(writer.len())
                && writer.unflushed().len() <= store.journal_remaining()
            {
                store.append_journal(&writer.take_unflushed())?;
                return Ok(StoreSave::Appended);
            }
        }
        let base = self.rebase();
        store.commit_base(&base)?;
        Ok(StoreSave::Rebased)
    }

    /// Restores a pipeline from a mounted [`FlashStore`] and arms the
    /// journal for the next [`SelfLearningPipeline::save_to_store`]. Each
    /// journal entry the store arbitrated re-applies its balanced batch
    /// through the incremental trainer **and** restores the produced label,
    /// the seizure counter and the quality gate's amplitude reference from
    /// its annotation, so the resumed pipeline is state-identical to the one
    /// that never powered down. (The quarantine counter is the one
    /// best-effort field: quarantined records train nothing and therefore
    /// journal nothing, so quarantines that happened after the base snapshot
    /// are not recounted on replay.)
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Persist`] for a malformed base snapshot, for
    /// journal corruption that is not a clean tail tear, for entries that do
    /// not belong (wrong base fingerprint, wrong pool position, or a batch
    /// the trainer no longer accepts) and for entries whose annotation is
    /// not a valid seizure label — never a panic, and a batch is never
    /// half-applied.
    pub fn resume_from_store<F: Flash>(
        store: &FlashStore<F>,
    ) -> Result<(Self, JournalReplayReport), CoreError> {
        let base = store.base()?;
        let mut pipeline = Self::resume(&base)?;
        let fingerprint = journal::base_fingerprint(&base)?;
        let scan = journal::scan_journal(&store.journal()?)?;
        for (i, entry) in scan.entries.iter().enumerate() {
            let (label, gate_ref, gate_weight) = decode_annotation(&entry.annotation, i)?;
            pipeline
                .detector
                .apply_journal_entry(entry, fingerprint, i)?;
            // Each entry carries the gate reference as it stood after that
            // record was learned; restoring it per entry keeps the replayed
            // pipeline state-identical to the one that never powered down.
            pipeline
                .detector
                .restore_gate_reference(gate_ref, gate_weight);
            pipeline.num_seizures += 1;
            pipeline.produced_labels.push(label);
        }
        pipeline.journal = Some(JournalWriter::resume(
            fingerprint,
            pipeline.training_windows(),
            scan.valid_len,
            scan.entries.len(),
        ));
        Ok((
            pipeline,
            JournalReplayReport {
                entries_applied: scan.entries.len(),
                valid_len: scan.valid_len,
                torn_bytes: scan.torn_bytes,
            },
        ))
    }

    /// Evaluates the current real-time detector on a held-out record, using the
    /// record's ground-truth annotation as the reference.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidState`] if the detector has not been trained
    /// yet and propagates evaluation failures otherwise.
    pub fn evaluate(&self, record: &EegRecord) -> Result<SelfLearningReport, CoreError> {
        let truth = SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
        let cm = self.detector.evaluate(record.signal(), &truth)?;
        Ok(SelfLearningReport::from_confusion(&cm))
    }

    /// Evaluates the detector on several held-out records and returns the
    /// pooled confusion matrix as a report.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] if `records` is empty and the
    /// errors of [`SelfLearningPipeline::evaluate`] otherwise.
    pub fn evaluate_all(&self, records: &[EegRecord]) -> Result<SelfLearningReport, CoreError> {
        if records.is_empty() {
            return Err(CoreError::InvalidParameter {
                name: "records",
                reason: "evaluation requires at least one record".to_string(),
            });
        }
        let mut pooled = ConfusionMatrix::default();
        // One workspace serves the whole sweep: the feature buffer and the
        // per-worker scratches are grown once and reused per record.
        let mut workspace = FeatureWorkspace::new();
        for record in records {
            let truth =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let cm = self
                .detector
                .evaluate_with(record.signal(), &truth, &mut workspace)?;
            pooled.merge(&cm);
        }
        Ok(SelfLearningReport::from_confusion(&pooled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::realtime::balanced_indices;
    use seizure_data::cohort::Cohort;
    use seizure_data::sampler::SampleConfig;
    use seizure_data::signal::EegSignal;
    use seizure_ml::forest::RandomForestConfig;
    use seizure_ml::persist::store::{FaultyFlash, MemFlash};

    fn fast_detector_config() -> RealTimeDetectorConfig {
        RealTimeDetectorConfig {
            forest: RandomForestConfig {
                n_trees: 8,
                max_depth: 6,
                ..RandomForestConfig::default()
            },
            ..RealTimeDetectorConfig::default()
        }
    }

    fn small_sample_config() -> SampleConfig {
        SampleConfig::new(150.0, 200.0, 64.0).unwrap()
    }

    #[test]
    fn pipeline_learns_from_missed_seizures_and_detects_new_ones() {
        let cohort = Cohort::chb_mit_like(21);
        let config = small_sample_config();
        let patient = 8; // clean patient 9
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert_eq!(pipeline.num_seizures_collected(), 0);

        for seizure in 0..2 {
            let record = cohort.sample_record(patient, seizure, &config, 7).unwrap();
            let label = pipeline
                .observe_missed_seizure(&record, w, LabelSource::Algorithm)
                .unwrap()
                .expect("clean records must not be quarantined");
            assert!(label.duration_secs() > 0.0);
        }
        assert_eq!(pipeline.num_seizures_collected(), 2);
        assert_eq!(pipeline.produced_labels().len(), 2);
        assert!(pipeline.training_windows() > 0);
        assert!(pipeline.detector().is_trained());

        let held_out = cohort.sample_record(patient, 2, &config, 8).unwrap();
        let report = pipeline.evaluate(&held_out).unwrap();
        assert!(report.windows > 0);
        assert!(
            report.geometric_mean > 0.5,
            "gmean = {}",
            report.geometric_mean
        );
    }

    #[test]
    fn pipeline_accumulates_through_the_incremental_trainer() {
        let cohort = Cohort::chb_mit_like(25);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert_eq!(pipeline.training_windows(), 0);

        let record = cohort.sample_record(patient, 0, &config, 11).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let after_first = pipeline.training_windows();
        assert!(after_first > 0);
        let trainer = pipeline.detector().incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), after_first);

        let record = cohort.sample_record(patient, 1, &config, 12).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let trainer = pipeline.detector().incremental_trainer().unwrap();
        assert_eq!(trainer.num_samples(), pipeline.training_windows());
        assert!(pipeline.training_windows() > after_first);
        assert!(trainer.last_refit_count() <= trainer.num_trees());
    }

    /// Rebuild a record with its signal degraded by `scenario`, keeping the
    /// annotation — the shape the bench uses for its hostile sweeps.
    fn degraded_record(
        record: &seizure_data::sampler::EegRecord,
        scenario: seizure_data::synth::HostileScenario,
        seed: u64,
    ) -> seizure_data::sampler::EegRecord {
        let hostile =
            seizure_data::synth::degrade_signal(record.signal(), scenario, 1.0, seed).unwrap();
        seizure_data::sampler::EegRecord::new(
            hostile,
            *record.annotation(),
            record.patient_id(),
            record.seizure_index(),
        )
        .unwrap()
    }

    #[test]
    fn hostile_records_are_quarantined_before_the_labeler() {
        let cohort = Cohort::chb_mit_like(33);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 71).unwrap();

        // A hum-swamped record must be turned away at the gate: no label is
        // produced, nothing reaches the trainer, and the detector's model is
        // untouched.
        let hostile = degraded_record(
            &record,
            seizure_data::synth::HostileScenario::MainsHum,
            0xBAD,
        );
        let outcome = pipeline
            .observe_missed_seizure(&hostile, w, LabelSource::Algorithm)
            .unwrap();
        assert!(outcome.is_none(), "hum-swamped record must be quarantined");
        assert_eq!(pipeline.num_quarantined(), 1);
        assert_eq!(pipeline.num_seizures_collected(), 0);
        assert_eq!(pipeline.training_windows(), 0);
        assert!(pipeline.produced_labels().is_empty());
        assert!(!pipeline.detector().is_trained());

        // The externally-labeled path quarantines on the same criterion.
        let truth = crate::label::SeizureLabel::new(
            record.annotation().onset(),
            record.annotation().offset(),
        )
        .unwrap();
        pipeline.add_training_record(&hostile, &truth).unwrap();
        assert_eq!(pipeline.num_quarantined(), 2);
        assert_eq!(pipeline.training_windows(), 0);

        // The same record without the damage trains normally afterwards.
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap()
            .expect("clean record must pass the gate");
        assert_eq!(pipeline.num_seizures_collected(), 1);
        assert!(pipeline.training_windows() > 0);
        assert!(pipeline.detector().is_trained());
    }

    #[test]
    fn quarantine_counter_round_trips_through_save_and_resume() {
        let cohort = Cohort::chb_mit_like(34);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());

        let clean = cohort.sample_record(patient, 0, &config, 81).unwrap();
        pipeline
            .observe_missed_seizure(&clean, w, LabelSource::Algorithm)
            .unwrap()
            .expect("clean record must pass the gate");
        let hostile = degraded_record(
            &cohort.sample_record(patient, 1, &config, 82).unwrap(),
            seizure_data::synth::HostileScenario::Saturation,
            0xBAD2,
        );
        assert!(pipeline
            .observe_missed_seizure(&hostile, w, LabelSource::Algorithm)
            .unwrap()
            .is_none());
        assert_eq!(pipeline.num_quarantined(), 1);

        let resumed = SelfLearningPipeline::resume(&pipeline.save()).unwrap();
        assert_eq!(resumed.num_quarantined(), 1);
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.save(), pipeline.save());
    }

    #[test]
    fn expert_labels_can_be_used_as_a_baseline() {
        let cohort = Cohort::chb_mit_like(22);
        let config = small_sample_config();
        let patient = 4;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 1).unwrap();
        let label = pipeline
            .observe_missed_seizure(&record, w, LabelSource::Expert)
            .unwrap()
            .expect("clean records must not be quarantined");
        // Expert labels coincide exactly with the ground-truth annotation.
        assert_eq!(label.onset_secs(), record.annotation().onset());
        assert_eq!(label.offset_secs(), record.annotation().offset());
    }

    #[test]
    fn non_seizure_labels_are_not_counted_as_collected_seizures() {
        // Regression: `add_training_record` used to be all-or-nothing around
        // the seizure counter; an externally produced label that marks no
        // window of the record must neither train nor count.
        let cohort = Cohort::chb_mit_like(26);
        let config = small_sample_config();
        let patient = 8;
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 5).unwrap();

        // A label entirely past the end of the record yields no seizure
        // window under the half-overlap rule.
        let beyond = record.signal().duration_secs() + 100.0;
        let label = crate::label::SeizureLabel::new(beyond, beyond + 30.0).unwrap();
        pipeline.add_training_record(&record, &label).unwrap();
        assert_eq!(pipeline.num_seizures_collected(), 0);
        assert_eq!(pipeline.training_windows(), 0);
        assert!(pipeline.produced_labels().is_empty());
        assert!(!pipeline.detector().is_trained());

        // A genuine seizure label afterwards trains and counts exactly once.
        let truth = crate::label::SeizureLabel::new(
            record.annotation().onset(),
            record.annotation().offset(),
        )
        .unwrap();
        pipeline.add_training_record(&record, &truth).unwrap();
        assert_eq!(pipeline.num_seizures_collected(), 1);
        assert!(pipeline.training_windows() > 0);
    }

    #[test]
    fn staged_batches_spread_classes_when_positives_dominate() {
        // A label covering most of the record yields far more seizure than
        // seizure-free windows; the pipeline's staging buffer and the
        // detector's `balance` must still spread the negatives through the
        // positives so no ownership block of the incremental pool is filled
        // by one class.
        let cohort = Cohort::chb_mit_like(28);
        let config = small_sample_config();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(8, 0, &config, 6).unwrap();
        let label =
            crate::label::SeizureLabel::new(1.0, record.signal().duration_secs() * 0.8).unwrap();
        let detector = RealTimeDetector::new(fast_detector_config());
        let windows = detector
            .build_training_windows(record.signal(), &label)
            .unwrap();
        let balanced = detector.balance(&windows).unwrap();
        pipeline.add_training_record(&record, &label).unwrap();

        for (what, staged) in [
            ("pipeline", &pipeline.batch_labels[..]),
            ("balance", balanced.labels()),
        ] {
            let pos = staged.iter().filter(|&&l| l).count();
            let neg = staged.len() - pos;
            assert!(
                pos > neg,
                "{what}: the label should dominate: {pos} vs {neg}"
            );
            let mut max_run = 0;
            let mut run = 0;
            let mut prev = None;
            for &l in staged {
                run = if prev == Some(l) { run + 1 } else { 1 };
                prev = Some(l);
                max_run = max_run.max(run);
            }
            assert!(
                max_run <= pos.div_ceil(neg) + 1,
                "{what}: max single-class run {max_run} exceeds the class ratio bound"
            );
        }
    }

    /// The extract-everything staging `learn_record` used before it selected
    /// first: the full rich matrix, gate rejects struck, `balanced_indices`,
    /// then the proportional merge over whole matrix rows. Returns `None`
    /// when the record stages nothing (no seizure window, or a gate that
    /// struck a whole class).
    fn full_matrix_staging(
        detector: &RealTimeDetector,
        record: &EegRecord,
        label: &SeizureLabel,
    ) -> Option<(Vec<f64>, Vec<bool>)> {
        let signal = record.signal();
        let window = detector.window_config(signal.sampling_frequency()).unwrap();
        let matrix = detector.extract_feature_matrix(signal).unwrap();
        let labels = window_labels(
            label,
            matrix.num_windows(),
            window.window_seconds(),
            window.step_seconds(),
        )
        .unwrap();
        let mut ws = FeatureWorkspace::new();
        if detector.config().quality_gate {
            detector.assess_quality_into(signal, &mut ws).unwrap();
        }
        let eligible: Vec<usize> = (0..labels.len())
            .filter(|&w| ws.verdicts.get(w) != Some(&QualityVerdict::Reject))
            .collect();
        let eligible_labels: Vec<bool> = eligible.iter().map(|&w| labels[w]).collect();
        let selected = balanced_indices(&eligible_labels).ok()?;
        let num_pos = eligible_labels.iter().filter(|&&l| l).count();
        let (pos, neg) = selected.split_at(num_pos);
        let (mut p, mut n) = (0usize, 0usize);
        let (mut rows, mut staged_labels) = (Vec::new(), Vec::new());
        while p < pos.len() || n < neg.len() {
            let pick_pos = n >= neg.len() || (p < pos.len() && p * neg.len() <= n * pos.len());
            let i = if pick_pos {
                p += 1;
                pos[p - 1]
            } else {
                n += 1;
                neg[n - 1]
            };
            rows.extend_from_slice(matrix.row(eligible[i]));
            staged_labels.push(eligible_labels[i]);
        }
        Some((rows, staged_labels))
    }

    /// Drives `records` through `observe_missed_seizure` and checks every
    /// learned record against the full-matrix oracle: bit-identical staged
    /// rows and labels, and an identical forest after retraining a clone of
    /// the pre-report detector on the oracle's batch. Returns the number of
    /// gate-rejected windows seen across the learned records.
    fn assert_staging_matches_full_matrix(
        detector_config: RealTimeDetectorConfig,
        records: &[EegRecord],
        w: f64,
    ) -> usize {
        let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);
        let mut rejected = 0;
        for (i, record) in records.iter().enumerate() {
            let before = pipeline.detector().clone();
            let label = pipeline
                .observe_missed_seizure(record, w, LabelSource::Algorithm)
                .unwrap()
                .expect("test records must pass the gate");
            let (rows, labels) =
                full_matrix_staging(&before, record, &label).expect("record stages a batch");
            assert_eq!(pipeline.batch_labels, labels, "record {i}: staged labels");
            assert_eq!(
                pipeline.batch_rows.len(),
                rows.len(),
                "record {i}: staged rows"
            );
            assert!(
                pipeline
                    .batch_rows
                    .iter()
                    .zip(&rows)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "record {i}: staged rows differ from the full-matrix rows"
            );
            let mut oracle = before;
            oracle
                .retrain_incremental(&rows, RichFeatureSet::NUM_FEATURES, &labels)
                .unwrap();
            assert!(oracle.flat_forest().is_some());
            assert_eq!(
                oracle.flat_forest(),
                pipeline.detector().flat_forest(),
                "record {i}: retrained forest"
            );
            rejected += pipeline
                .workspace
                .verdicts
                .iter()
                .filter(|&&v| v == QualityVerdict::Reject)
                .count();
        }
        assert_eq!(pipeline.num_seizures_collected(), records.len());
        rejected
    }

    #[test]
    fn staging_matches_the_full_matrix_oracle_gated_and_ungated() {
        let cohort = Cohort::chb_mit_like(29);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let records: Vec<EegRecord> = (0..2)
            .map(|seizure| cohort.sample_record(patient, seizure, &config, 40).unwrap())
            .collect();
        let ungated = RealTimeDetectorConfig {
            quality_gate: false,
            ..fast_detector_config()
        };
        assert_staging_matches_full_matrix(ungated, &records, w);
        assert_staging_matches_full_matrix(fast_detector_config(), &records, w);

        // Electrode pops reject a few windows without quarantining the
        // record, so the gate strikes windows out of the staged selection.
        let popped: Vec<EegRecord> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                degraded_record(
                    r,
                    seizure_data::synth::HostileScenario::ElectrodePop,
                    0x909 + i as u64,
                )
            })
            .collect();
        let rejected = assert_staging_matches_full_matrix(fast_detector_config(), &popped, w);
        assert!(
            rejected > 0,
            "the popped records must carry rejected windows"
        );
    }

    #[test]
    fn resumed_pipeline_reproduces_detections_and_keeps_learning() {
        let cohort = Cohort::chb_mit_like(27);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 21).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();

        // Save, cross the "process boundary", resume.
        let snapshot = pipeline.save();
        let mut resumed = SelfLearningPipeline::resume(&snapshot).unwrap();
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.produced_labels(), pipeline.produced_labels());
        assert_eq!(resumed.training_windows(), pipeline.training_windows());

        // Same detections on a held-out record...
        let held_out = cohort.sample_record(patient, 2, &config, 22).unwrap();
        assert_eq!(
            resumed.detector().detect(held_out.signal()).unwrap(),
            pipeline.detector().detect(held_out.signal()).unwrap()
        );

        // ...and the next missed seizure retrains node-identically to the
        // pipeline that never shut down.
        let second = cohort.sample_record(patient, 1, &config, 23).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        resumed
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(
            resumed.detector().flat_forest(),
            pipeline.detector().flat_forest()
        );
        assert_eq!(resumed.num_seizures_collected(), 2);
    }

    /// The zero-copy pipeline snapshot (detector nested in place) must stay
    /// byte-identical to the copying path the format was defined with.
    #[test]
    fn zero_copy_pipeline_snapshot_is_byte_identical_to_the_copying_codec() {
        let cohort = Cohort::chb_mit_like(31);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 51).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();

        let labeler = pipeline.labeler.config();
        let mut reference = SnapshotWriter::new();
        reference.f64(labeler.window_secs);
        reference.f64(labeler.overlap);
        reference.usize(labeler.detector.subsample_step);
        reference.u8(1);
        reference.bool(true);
        reference.nested(&pipeline.detector.save_state());
        reference.usize(pipeline.num_seizures);
        reference.usize(pipeline.num_quarantined);
        reference.usize(pipeline.produced_labels.len());
        for label in &pipeline.produced_labels {
            reference.f64(label.onset_secs());
            reference.f64(label.offset_secs());
        }
        assert_eq!(
            pipeline.save(),
            reference.finish(SnapshotKind::SelfLearningPipeline)
        );
    }

    /// A half-second NaN burst on one channel leaves the reported record
    /// learnable (the gate quarantines none of them) but turns the F8T4
    /// features of every window touching it non-finite. Line 1 used to
    /// spread those NaNs through their whole columns, so every Algorithm 1
    /// distance went NaN and the label landed on the last candidate, about
    /// 100 s after the seizure, and the pipeline learned from it. The label
    /// must stay where the clean record puts it.
    #[test]
    fn a_nan_burst_does_not_move_the_produced_label() {
        let cohort = Cohort::chb_mit_like(29);
        let config = SampleConfig::new(240.0, 300.0, 64.0).unwrap();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        for seizure in 0..4 {
            let record = cohort.sample_record(patient, seizure, &config, 0).unwrap();
            let (mut f7t3, mut f8t4, fs) = record.signal().clone().into_parts();
            let mut clean =
                SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
            clean
                .observe_missed_seizure(&record, w, LabelSource::Algorithm)
                .unwrap();

            let burst = (20.0 * fs) as usize..(20.5 * fs) as usize;
            for x in &mut f8t4[burst] {
                *x = f64::NAN;
            }
            let (_, annotation, id, index) = record.into_parts();
            let signal = EegSignal::new(std::mem::take(&mut f7t3), f8t4, fs).unwrap();
            let burst_record = EegRecord::new(signal, annotation, id, index).unwrap();
            let mut pipeline =
                SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
            pipeline
                .observe_missed_seizure(&burst_record, w, LabelSource::Algorithm)
                .unwrap();
            assert_eq!(pipeline.num_quarantined(), 0, "seizure {seizure}");
            let label = pipeline.produced_labels()[0];
            let reference = clean.produced_labels()[0];
            assert!(
                (label.onset_secs() - reference.onset_secs()).abs() <= 1.0,
                "seizure {seizure}: burst label {:.1} s, clean label {:.1} s",
                label.onset_secs(),
                reference.onset_secs()
            );
        }
    }

    /// Snapshots of the retired labeler settings — implementation marker
    /// 0 (the literal pseudo-code transcription) and Line 1 normalization
    /// off — are refused with a typed error naming the setting, while the
    /// shipped setting (marker 1, normalization on) resumes.
    #[test]
    fn retired_labeler_settings_are_refused() {
        let pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let snapshot = |marker: u8, normalize: bool| {
            let labeler = pipeline.labeler.config();
            let mut w = SnapshotWriter::new();
            w.f64(labeler.window_secs);
            w.f64(labeler.overlap);
            w.usize(labeler.detector.subsample_step);
            w.u8(marker);
            w.bool(normalize);
            w.nested(&pipeline.detector.save_state());
            w.usize(0);
            w.usize(0);
            w.usize(0);
            w.finish(SnapshotKind::SelfLearningPipeline)
        };
        assert_eq!(snapshot(1, true), pipeline.save());
        assert!(SelfLearningPipeline::resume(&snapshot(1, true)).is_ok());
        for (marker, normalize, needle) in [
            (0, true, "marker 0"),
            (1, false, "normalization off"),
            (7, true, "unknown labeler implementation marker 7"),
        ] {
            match SelfLearningPipeline::resume(&snapshot(marker, normalize)) {
                Err(CoreError::Persist(PersistError::Corrupted { detail })) => {
                    assert!(detail.contains(needle), "{detail}");
                }
                other => panic!("marker {marker}/{normalize} must be refused, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_pipeline_snapshots_are_rejected() {
        let pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let mut bytes = pipeline.save();
        assert!(SelfLearningPipeline::resume(&bytes[..10]).is_err());
        bytes[24] ^= 0x10;
        assert!(matches!(
            SelfLearningPipeline::resume(&bytes),
            Err(CoreError::Persist(_))
        ));
        // An untrained pipeline round-trips too (empty-pool snapshot).
        let restored = SelfLearningPipeline::resume(&pipeline.save()).unwrap();
        assert_eq!(restored.num_seizures_collected(), 0);
        assert!(!restored.detector().is_trained());
    }

    #[test]
    fn evaluation_before_training_fails() {
        let cohort = Cohort::chb_mit_like(23);
        let config = small_sample_config();
        let record = cohort.sample_record(0, 0, &config, 1).unwrap();
        let pipeline = SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        assert!(pipeline.evaluate(&record).is_err());
        assert!(pipeline.evaluate_all(&[record]).is_err());
    }

    #[test]
    fn evaluate_all_rejects_empty_input_and_pools_otherwise() {
        let cohort = Cohort::chb_mit_like(24);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 2).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        assert!(pipeline.evaluate_all(&[]).is_err());

        let held_out: Vec<_> = (1..3)
            .map(|s| cohort.sample_record(patient, s, &config, 3).unwrap())
            .collect();
        let report = pipeline.evaluate_all(&held_out).unwrap();
        assert!(report.windows > 0);
        assert!((0.0..=1.0).contains(&report.geometric_mean));
    }

    /// Journal-entry size of learning `record`, measured on a throwaway
    /// clone with the journal armed.
    fn probe_entry_len(pipeline: &SelfLearningPipeline, record: &EegRecord, w: f64) -> usize {
        let mut probe = pipeline.clone();
        probe.rebase();
        probe
            .observe_missed_seizure(record, w, LabelSource::Algorithm)
            .unwrap();
        probe.journal.as_ref().map_or(0, |j| j.unflushed().len())
    }

    #[test]
    fn pipeline_store_appends_resume_with_labels_and_counters() {
        let cohort = Cohort::chb_mit_like(29);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 31).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();

        // Format: seizure 1 becomes the slot-A base; nothing pending after.
        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, base_len * 4);
        let mut store = pipeline
            .init_store(MemFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        assert_eq!(
            pipeline.save_to_store(&mut store).unwrap(),
            StoreSave::Clean
        );

        // Seizure 2 is one O(batch) journal append.
        let second = cohort.sample_record(patient, 1, &config, 32).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(
            pipeline.save_to_store(&mut store).unwrap(),
            StoreSave::Appended
        );
        assert_eq!(
            pipeline.save_to_store(&mut store).unwrap(),
            StoreSave::Clean
        );
        assert!(
            store.journal_len() < store.base_len(),
            "append of {} bytes vs base of {}",
            store.journal_len(),
            store.base_len()
        );

        // Power cycle: detections, counter, labels and the forest come back.
        let (mut store, report) = FlashStore::mount(store.into_flash(), geometry).unwrap();
        assert_eq!(report.journal_entries, 1);
        assert_eq!(report.journal_discarded, 0);
        let (mut resumed, replay) = SelfLearningPipeline::resume_from_store(&store).unwrap();
        assert_eq!(replay.entries_applied, 1);
        assert_eq!(replay.torn_bytes, 0);
        assert_eq!(resumed.num_seizures_collected(), 2);
        assert_eq!(resumed.produced_labels(), pipeline.produced_labels());
        assert_eq!(resumed.training_windows(), pipeline.training_windows());
        assert_eq!(
            resumed.detector().flat_forest(),
            pipeline.detector().flat_forest()
        );
        let held_out = cohort.sample_record(patient, 2, &config, 33).unwrap();
        assert_eq!(
            resumed.detector().detect(held_out.signal()).unwrap(),
            pipeline.detector().detect(held_out.signal()).unwrap()
        );
        assert_eq!(resumed.save(), pipeline.save());

        // The resumed pipeline keeps journaling the same sequence: learning
        // the held-out seizure on both sides appends the same bytes.
        let mut twin = FlashStore::mount(store.flash().clone(), geometry)
            .unwrap()
            .0;
        pipeline
            .observe_missed_seizure(&held_out, w, LabelSource::Algorithm)
            .unwrap();
        resumed
            .observe_missed_seizure(&held_out, w, LabelSource::Algorithm)
            .unwrap();
        assert_eq!(
            pipeline.save_to_store(&mut twin).unwrap(),
            StoreSave::Appended
        );
        assert_eq!(
            resumed.save_to_store(&mut store).unwrap(),
            StoreSave::Appended
        );
        assert_eq!(
            store.flash().image(),
            twin.flash().image(),
            "the resumed journal must continue the same sequence"
        );
    }

    #[test]
    fn pipeline_store_torn_append_drops_the_lost_seizure_only() {
        let cohort = Cohort::chb_mit_like(30);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let record = cohort.sample_record(patient, 0, &config, 41).unwrap();
        pipeline
            .observe_missed_seizure(&record, w, LabelSource::Algorithm)
            .unwrap();
        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, base_len * 4);
        let store = pipeline
            .init_store(FaultyFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        let committed = pipeline.save();

        // Seizure 2's append loses power seven bytes short of its end.
        let second = cohort.sample_record(patient, 1, &config, 42).unwrap();
        pipeline
            .observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap();
        let entry_len = pipeline.journal.as_ref().unwrap().unflushed().len();
        let flash =
            FaultyFlash::from_image(store.flash().image().to_vec()).power_loss_after(entry_len - 7);
        let mut store = FlashStore::mount(flash, geometry).unwrap().0;
        assert!(pipeline.save_to_store(&mut store).is_err());

        // Reboot: the torn entry is discarded and the pipeline holds exactly
        // one seizure — the pre-save state.
        let (mut store, report) = FlashStore::mount(store.into_flash().reboot(), geometry).unwrap();
        assert_eq!(report.journal_entries, 0);
        assert_eq!(report.journal_discarded, entry_len - 7);
        let (resumed, replay) = SelfLearningPipeline::resume_from_store(&store).unwrap();
        assert_eq!(replay.entries_applied, 0);
        assert_eq!(resumed.num_seizures_collected(), 1);
        assert_eq!(resumed.produced_labels().len(), 1);
        assert_eq!(resumed.save(), committed);

        // An entry whose annotation is not a seizure label is a typed error,
        // not a panic: journal the batch bare, bound to the committed base.
        let mut bare =
            JournalWriter::new(&store.base().unwrap(), resumed.training_windows()).unwrap();
        bare.append_retrain(
            &pipeline.batch_rows,
            RichFeatureSet::NUM_FEATURES,
            &pipeline.batch_labels,
        )
        .unwrap();
        store.append_journal(&bare.take_unflushed()).unwrap();
        assert!(matches!(
            SelfLearningPipeline::resume_from_store(&store),
            Err(CoreError::Persist(_))
        ));
    }

    #[test]
    fn pipeline_store_compacts_into_the_inactive_slot_when_the_journal_fills() {
        let cohort = Cohort::chb_mit_like(32);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let first = cohort.sample_record(patient, 0, &config, 70).unwrap();
        pipeline
            .observe_missed_seizure(&first, w, LabelSource::Algorithm)
            .unwrap();
        let records: Vec<_> = (1..4)
            .map(|s| {
                cohort
                    .sample_record(patient, s % 3, &config, 70 + s as u64)
                    .unwrap()
            })
            .collect();

        // A journal region 2.5 entries wide: the store's geometry-derived
        // rule must fold the state into the inactive slot mid-sequence.
        let entry_len = probe_entry_len(&pipeline, &records[0], w);
        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, entry_len * 5 / 2);
        let mut store = pipeline
            .init_store(MemFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        assert_eq!(store.sequence(), 1);
        let mut outcomes = Vec::new();
        for record in &records {
            pipeline
                .observe_missed_seizure(record, w, LabelSource::Algorithm)
                .unwrap();
            outcomes.push(pipeline.save_to_store(&mut store).unwrap());
        }
        assert!(
            outcomes.contains(&StoreSave::Appended) && outcomes.contains(&StoreSave::Rebased),
            "the sequence must exercise both paths, got {outcomes:?}"
        );
        assert!(store.sequence() > 1, "compaction must bump the sequence");
        let (store, _) = FlashStore::mount(store.into_flash(), geometry).unwrap();
        let (resumed, _) = SelfLearningPipeline::resume_from_store(&store).unwrap();
        assert_eq!(resumed.save(), pipeline.save());
    }

    #[test]
    fn pipeline_store_survives_crashes_mid_append_and_mid_commit() {
        let cohort = Cohort::chb_mit_like(31);
        let config = small_sample_config();
        let patient = 8;
        let w = cohort.average_seizure_duration(patient).unwrap();
        let mut pipeline =
            SelfLearningPipeline::new(LabelerConfig::default(), fast_detector_config());
        let first = cohort.sample_record(patient, 0, &config, 60).unwrap();
        pipeline
            .observe_missed_seizure(&first, w, LabelSource::Algorithm)
            .unwrap();
        let records: Vec<_> = (1..3)
            .map(|s| {
                cohort
                    .sample_record(patient, s, &config, 60 + s as u64)
                    .unwrap()
            })
            .collect();

        // A journal region that takes the first entry and compacts on the
        // second.
        let entry_len = probe_entry_len(&pipeline, &records[0], w);
        let base_len = pipeline.save().len();
        let geometry = FlashGeometry::for_base(base_len * 6, entry_len * 2);
        let mut store = pipeline
            .init_store(FaultyFlash::new(geometry.total_bytes()), geometry)
            .unwrap();
        let image = store.flash().image().to_vec();
        let format_bytes = store.flash().bytes_written();

        // Fault-free reference pass: one append, then one A/B compaction.
        // Each save's pre-save pipeline is kept, so a cut replays only the
        // Flash writes (learning is deterministic and touches no Flash).
        let mut states = vec![pipeline.save()];
        let mut pending = Vec::new();
        let mut outcomes = Vec::new();
        for record in &records {
            pipeline
                .observe_missed_seizure(record, w, LabelSource::Algorithm)
                .unwrap();
            pending.push(pipeline.clone());
            outcomes.push(pipeline.save_to_store(&mut store).unwrap());
            states.push(pipeline.save());
        }
        assert_eq!(
            outcomes,
            [StoreSave::Appended, StoreSave::Rebased],
            "the cuts must cover one append and one compaction"
        );
        let total = store.flash().bytes_written() - format_bytes;

        // A strided power-cut sweep across the whole write stream, plus one
        // cut past its end (the byte-exact exhaustive sweep lives in
        // seizure-ml's crash-injection suite).
        let cuts: Vec<usize> = (0..=total)
            .step_by((total / 48).max(1))
            .chain([total + 1])
            .collect();
        assert!(cuts.len() >= 40, "only {} cuts", cuts.len());
        for cut in cuts {
            let flash = FaultyFlash::from_image(image.clone()).power_loss_after(cut);
            let mut store = FlashStore::mount(flash, geometry).unwrap().0;
            let died_at = pending
                .iter()
                .position(|pre_save| pre_save.clone().save_to_store(&mut store).is_err());
            let (store, _) = FlashStore::mount(store.into_flash().reboot(), geometry)
                .unwrap_or_else(|e| panic!("cut {cut}: store lost: {e}"));
            let (resumed, _) = SelfLearningPipeline::resume_from_store(&store)
                .unwrap_or_else(|e| panic!("cut {cut}: resume failed: {e}"));
            let observed = resumed.save();
            match died_at {
                Some(i) => assert!(
                    observed == states[i] || observed == states[i + 1],
                    "cut {cut}: crash during save {i} recovered neither the pre-save nor \
                     the committed state"
                ),
                None => assert_eq!(
                    &observed,
                    states.last().unwrap(),
                    "cut {cut}: a completed run must resume the final state"
                ),
            }
        }
    }
}
