//! # seizure-ml
//!
//! Machine-learning substrate for the self-learning seizure detection
//! reproduction.
//!
//! The paper's real-time detector is a random forest (following Sopic et al.,
//! e-Glass, ISCAS 2018), and its related work compares against unsupervised
//! k-means / k-medoids detection (Smart & Chen, CIBCB 2015). Everything needed
//! for those experiments is implemented here from scratch:
//!
//! * [`forest`] — the random-forest hyper-parameters,
//! * [`training`] — the parallel, scratch-backed training engine: presorted
//!   feature columns, arena-built trees, bit-identical to a boxed
//!   sort-and-scan CART oracle kept in the crate's tests,
//! * [`flat`] — the fitted forest in struct-of-arrays node storage, with
//!   allocation-free batch prediction over flat feature matrices,
//! * [`incremental`] — the stateful retraining engine for growing training
//!   sets: appends merge into the presorted columns and only the trees whose
//!   bootstrap pools were touched are refitted,
//! * [`kmeans`] / [`kmedoids`] — unsupervised clustering baselines,
//! * [`persist`] — versioned binary snapshots of forests, training sets and
//!   incremental trainers, so a wearable resumes its personalized pool
//!   across power cycles,
//! * [`metrics`] — confusion matrices, sensitivity, specificity and the
//!   geometric mean used by the paper's Fig. 4,
//! * [`dataset`] — the labeled row-vector design-matrix container.
//!
//! # Example
//!
//! ```
//! use seizure_ml::metrics::ConfusionMatrix;
//! use seizure_ml::{train_forest, RandomForestConfig, TrainingSet};
//!
//! # fn main() -> Result<(), seizure_ml::MlError> {
//! // A trivially separable dataset, row-major.
//! let mut rows = Vec::new();
//! let mut labels = Vec::new();
//! for i in 0..40 {
//!     let x = i as f64 / 10.0;
//!     rows.extend([x, (i % 5) as f64]);
//!     labels.push(x > 2.0);
//! }
//! let set = TrainingSet::from_rows(&rows, 2, &labels)?;
//! let forest = train_forest(&set, &RandomForestConfig::default(), 7)?;
//! let predictions = forest.predict_batch(&rows, 2)?;
//! let cm = ConfusionMatrix::from_predictions(&predictions, &labels)?;
//! assert!(cm.accuracy() > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod error;
pub mod flat;
pub mod forest;
pub mod incremental;
pub mod kmeans;
pub mod kmedoids;
pub mod metrics;
pub mod persist;
#[cfg(test)]
mod reference;
pub mod training;

pub use dataset::Dataset;
pub use error::MlError;
pub use flat::FlatForest;
pub use forest::RandomForestConfig;
pub use incremental::{IncrementalTrainer, IncrementalTrainerConfig};
pub use metrics::ConfusionMatrix;
pub use persist::PersistError;
pub use training::{train_forest, TrainingSet};
