//! Unsupervised baseline (study E10 of `DESIGN.md`).
//!
//! The paper's related work (§II) cites k-means and k-medoids clustering as the
//! best-performing unsupervised seizure detectors but notes that "their
//! classification performance is significantly lower than in the supervised
//! case". This study quantifies that gap on the synthetic cohort: per-window
//! features are clustered into two groups (the minority cluster is declared
//! "seizure") and the resulting sensitivity/specificity/geometric mean is
//! compared against the supervised random forest trained on expert labels.

use crate::scale::ExperimentScale;
use seizure_core::label::{window_labels, SeizureLabel};
use seizure_core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
use seizure_core::CoreError;
use seizure_data::cohort::Cohort;
use seizure_features::extractor::SlidingWindowConfig;
use seizure_features::normalize::normalize_features;
use seizure_ml::kmeans::{KMeans, KMeansConfig};
use seizure_ml::kmedoids::{KMedoids, KMedoidsConfig};
use seizure_ml::metrics::ConfusionMatrix;

/// Performance of one detector family in the baseline study.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Detector name.
    pub name: String,
    /// Pooled sensitivity over the evaluation records.
    pub sensitivity: f64,
    /// Pooled specificity.
    pub specificity: f64,
    /// Geometric mean of sensitivity and specificity.
    pub geometric_mean: f64,
}

/// Result of the unsupervised-baseline study.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineResults {
    /// One entry per detector (k-means, k-medoids, supervised random forest).
    pub entries: Vec<BaselineEntry>,
}

fn minority_cluster(assignments: &[usize]) -> usize {
    let ones = assignments.iter().filter(|&&a| a == 1).count();
    if 2 * ones <= assignments.len() {
        1
    } else {
        0
    }
}

/// Runs the unsupervised-baseline comparison at the given scale.
///
/// # Errors
///
/// Propagates data-generation, feature-extraction, clustering and training
/// failures.
pub fn run_unsupervised_baseline(scale: ExperimentScale) -> Result<BaselineResults, CoreError> {
    let cohort = Cohort::chb_mit_like(42);
    let sample_config = scale.sample_config();
    let detector_config = RealTimeDetectorConfig::default();
    let patients = [0usize, 7]; // patients 1 and 8
    let detector_template = RealTimeDetector::new(detector_config);

    let mut kmeans_cm = ConfusionMatrix::default();
    let mut kmedoids_cm = ConfusionMatrix::default();
    let mut forest_cm = ConfusionMatrix::default();

    for &patient in &patients {
        let num_seizures = cohort.seizures_of(patient)?.len();
        let train_count = 2.min(num_seizures - 1);

        // Supervised reference: train on expert labels of the first records.
        let mut detector = RealTimeDetector::new(detector_config);
        let mut training = seizure_ml::dataset::Dataset::empty();
        for seizure in 0..train_count {
            let record = cohort.sample_record(patient, seizure, &sample_config, seizure as u64)?;
            let truth =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let windows = detector.build_training_windows(record.signal(), &truth)?;
            let balanced = detector.balance(&windows)?;
            if training.is_empty() {
                training = balanced;
            } else {
                training.extend(&balanced)?;
            }
        }
        detector.train(&training)?;

        // Evaluation records: the held-out seizures.
        for seizure in train_count..num_seizures {
            let record =
                cohort.sample_record(patient, seizure, &sample_config, 500 + seizure as u64)?;
            let signal = record.signal();
            let window = SlidingWindowConfig::new(
                signal.sampling_frequency(),
                detector_config.window_secs,
                detector_config.overlap,
            )?;
            let matrix = detector_template.extract_feature_matrix(signal)?;
            let rows = matrix.to_rows();
            let truth_label =
                SeizureLabel::new(record.annotation().onset(), record.annotation().offset())?;
            let truth = window_labels(
                &truth_label,
                rows.len(),
                window.window_seconds(),
                window.step_seconds(),
            )?;

            // Normalize each feature for the clustering baselines
            // (Algorithm 1, line 1).
            let normalized = normalize_features(&matrix)?.to_rows();

            let kmeans = KMeans::fit(&normalized, &KMeansConfig::default(), 7)?;
            let assignments = kmeans.predict_batch(&normalized);
            let seizure_cluster = minority_cluster(&assignments);
            let predictions: Vec<bool> =
                assignments.iter().map(|&a| a == seizure_cluster).collect();
            kmeans_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);

            let kmedoids = KMedoids::fit(&normalized, &KMedoidsConfig::default(), 7)?;
            let assignments = kmedoids.predict_batch(&normalized);
            let seizure_cluster = minority_cluster(&assignments);
            let predictions: Vec<bool> =
                assignments.iter().map(|&a| a == seizure_cluster).collect();
            kmedoids_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);

            let predictions = detector.predict_rows(&rows)?;
            forest_cm.merge(&ConfusionMatrix::from_predictions(&predictions, &truth)?);
        }
    }

    let entry = |name: &str, cm: &ConfusionMatrix| BaselineEntry {
        name: name.to_string(),
        sensitivity: cm.sensitivity(),
        specificity: cm.specificity(),
        geometric_mean: cm.geometric_mean(),
    };
    Ok(BaselineResults {
        entries: vec![
            entry("k-means (unsupervised)", &kmeans_cm),
            entry("k-medoids (unsupervised)", &kmedoids_cm),
            entry("random forest (supervised, expert labels)", &forest_cm),
        ],
    })
}

impl BaselineResults {
    /// Formats the baseline comparison table.
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("UNSUPERVISED BASELINE (E10): clustering vs supervised random forest\n");
        out.push_str("detector                                   | sens    | spec    | gmean\n");
        out.push_str("-------------------------------------------|---------|---------|-------\n");
        for e in &self.entries {
            out.push_str(&format!(
                "{:<43}| {:6.3}  | {:6.3}  | {:6.3}\n",
                e.name, e.sensitivity, e.specificity, e.geometric_mean
            ));
        }
        out.push_str(
            "\n(the paper's related work reports that unsupervised clustering performs \
             significantly below the supervised detectors)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minority_cluster_selection() {
        assert_eq!(minority_cluster(&[0, 0, 0, 1]), 1);
        assert_eq!(minority_cluster(&[1, 1, 1, 0]), 0);
        assert_eq!(minority_cluster(&[0, 1]), 1);
    }

    #[test]
    fn formatting_contains_all_entries() {
        let results = BaselineResults {
            entries: vec![BaselineEntry {
                name: "k-means".into(),
                sensitivity: 0.6,
                specificity: 0.7,
                geometric_mean: 0.65,
            }],
        };
        assert!(results.format().contains("k-means"));
        assert!(results.format().contains("0.650"));
    }
}
