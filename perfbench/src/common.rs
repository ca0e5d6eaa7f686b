//! Inputs and bookkeeping shared by the workloads.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use seizure_core::label::window_labels;
use seizure_core::pipeline::{LabelSource, SelfLearningPipeline};
use seizure_core::realtime::{RealTimeDetectorConfig, StreamingDetection, StreamingDetector};
use seizure_core::{CoreError, LabelerConfig, SeizureLabel};
use seizure_data::cohort::Cohort;
use seizure_data::sampler::{EegRecord, SampleConfig};
use seizure_data::synth::{apply_scenario_with, HostileScenario, MixedScenario};
use seizure_ml::metrics::ConfusionMatrix;

/// The paper's CHB-MIT sampling rate.
pub const FS: f64 = 256.0;
/// The synthetic CHB-MIT-like cohort and the patient in it every workload
/// personalises to (5 seizures of about 58 s). The patient is fixed; the
/// workload seed draws the recordings.
pub const COHORT_SEED: u64 = 29;
pub const PATIENT: usize = 4;
/// Length of a reported record: the device keeps a fixed ring of recent
/// signal, 861 analysis windows of 4 s at a 1 s hop.
pub const REPORT_SECS: f64 = 864.0;
/// Severity of every hostile degradation (1 = the stock scenario).
pub const SEVERITY: f64 = 1.0;
/// The compound degradation of the hostile workloads.
pub const MIXED: MixedScenario = MixedScenario {
    first: HostileScenario::BaselineWander,
    second: HostileScenario::MainsHum,
};

/// The patient's seizures, its average seizure duration (the labeler's
/// only supervision) and the workload seed its records are drawn with.
pub struct Patient {
    cohort: Cohort,
    seed: u64,
    pub average_seizure_secs: f64,
    num_seizures: usize,
}

impl Patient {
    pub fn new(seed: u64) -> Self {
        let cohort = Cohort::chb_mit_like(COHORT_SEED);
        let average_seizure_secs = cohort
            .average_seizure_duration(PATIENT)
            .expect("patient exists");
        let num_seizures = cohort.seizures_of(PATIENT).expect("patient exists").len();
        Self {
            cohort,
            seed,
            average_seizure_secs,
            num_seizures,
        }
    }

    /// The `k`-th one-seizure record drawn from `config`; distinct `k`
    /// give distinct records, cycling through the patient's seizures.
    pub fn record(&self, k: u64, config: &SampleConfig) -> EegRecord {
        let seizure = k as usize % self.num_seizures;
        self.cohort
            .sample_record(PATIENT, seizure, config, self.seed.wrapping_mul(1_000) + k)
            .expect("record synthesis")
    }

    /// A reported record of [`REPORT_SECS`].
    pub fn report_record(&self, k: u64) -> EegRecord {
        let config = SampleConfig::new(REPORT_SECS, REPORT_SECS, FS).expect("report config");
        self.record(k, &config)
    }
}

/// How a record was degraded.
#[derive(Debug, Clone, Copy)]
pub enum Degradation {
    Clean,
    Hostile(HostileScenario),
    Mixed,
}

impl Degradation {
    pub fn name(self) -> String {
        match self {
            Degradation::Clean => "clean".to_string(),
            Degradation::Hostile(s) => s.name().to_string(),
            Degradation::Mixed => MIXED.name(),
        }
    }

    /// The six hostile scenarios in a fixed rotation, then the mixed one.
    pub fn hostile_rotation() -> Vec<Degradation> {
        HostileScenario::all()
            .into_iter()
            .map(Degradation::Hostile)
            .chain([Degradation::Mixed])
            .collect()
    }

    /// The record with its signal degraded; the annotation is kept.
    pub fn apply(self, record: &EegRecord, rng_seed: u64) -> EegRecord {
        let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
        let signal = match self {
            Degradation::Clean => return record.clone(),
            Degradation::Hostile(s) => apply_scenario_with(record.signal(), s, SEVERITY, &mut rng),
            Degradation::Mixed => MIXED.apply(record.signal(), SEVERITY, &mut rng),
        }
        .expect("degradation");
        let (_, annotation, patient, seizure) = record.clone().into_parts();
        EegRecord::new(signal, annotation, patient, seizure).expect("degraded record")
    }
}

/// A fresh pipeline with the default detector configuration (quality gate
/// on), the configuration every workload runs.
pub fn new_pipeline() -> SelfLearningPipeline {
    SelfLearningPipeline::new(LabelerConfig::default(), RealTimeDetectorConfig::default())
}

/// Reports `records` as missed seizures; returns the number learned.
pub fn learn_all(
    pipeline: &mut SelfLearningPipeline,
    records: &[EegRecord],
    average_seizure_secs: f64,
) -> usize {
    records
        .iter()
        .filter(|r| {
            matches!(
                pipeline.observe_missed_seizure(r, average_seizure_secs, LabelSource::Algorithm),
                Ok(Some(_))
            )
        })
        .count()
}

/// Streams a whole record through `push` from a reset state and returns
/// the completed windows.
pub fn stream_record(
    stream: &mut StreamingDetector<'_>,
    record: &EegRecord,
) -> Result<Vec<StreamingDetection>, CoreError> {
    stream.reset();
    let (a, b) = (record.signal().f7t3(), record.signal().f8t4());
    let mut out = Vec::with_capacity(a.len() / stream.step_samples());
    for (&x, &y) in a.iter().zip(b) {
        out.extend(stream.push(x, y)?);
    }
    Ok(out)
}

/// Scores per-window alarms of a record against its annotation, with the
/// detector's default 4 s / 1 s window geometry.
pub fn score_windows(confusion: &mut ConfusionMatrix, record: &EegRecord, alarms: &[bool]) {
    let config = RealTimeDetectorConfig::default();
    let step = config.window_secs * (1.0 - config.overlap);
    let a = record.annotation();
    let truth = SeizureLabel::new(a.onset(), a.offset()).expect("annotation");
    let labels = window_labels(&truth, alarms.len(), config.window_secs, step).expect("geometry");
    for (&alarm, &seizure) in alarms.iter().zip(&labels) {
        confusion.record(alarm, seizure);
    }
}

/// Correctness checks and failed operations of one run.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
    pub attempted: usize,
    pub failed: usize,
}

impl Checks {
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            // Keep the first few of a repeated failure only.
            if self.failures.len() < 20 {
                self.failures.push(what);
            }
        }
    }

    /// Checks that a reported ratio lies in [0, 1].
    pub fn unit_interval(&mut self, name: &str, value: f64) {
        self.require((0.0..=1.0).contains(&value), || {
            format!("{name} = {value} lies outside [0, 1]")
        });
    }
}

/// One line of the human-readable report: every metric the workload
/// measured, by its workload-specific name, with the sample count behind
/// each median or percentile.
pub struct ReportEntry {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: Option<usize>,
}

#[derive(Default)]
pub struct Report {
    pub entries: Vec<ReportEntry>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        self.entries.push(ReportEntry {
            name: name.to_string(),
            value,
            unit,
            samples: None,
        });
    }

    pub fn add_sampled(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.entries.push(ReportEntry {
            name: name.to_string(),
            value,
            unit,
            samples: Some(samples),
        });
    }
}

/// What a workload hands back to `main`.
pub struct Outcome {
    pub checks: Checks,
    /// Catalogue metrics (end-to-end or per-layer, by mode).
    pub metrics: Vec<(&'static str, f64)>,
    pub report: Report,
}
