//! # seizure-data
//!
//! Synthetic EEG data substrate for the self-learning seizure detection
//! reproduction.
//!
//! The original paper evaluates on the PhysioNet CHB-MIT Scalp EEG database
//! (9 compliant patients, 45 seizures, 256 Hz, electrode pairs F7T3/F8T4).
//! That data cannot be redistributed here, so this crate generates a
//! **CHB-MIT-like synthetic cohort** with the statistical properties the
//! labeling algorithm relies on:
//!
//! * 1/f ("pink") background EEG with patient-specific alpha/theta rhythms,
//! * ictal segments with increased amplitude and rhythmic 2.5–5 Hz spike-wave
//!   activity that evolves over the seizure,
//! * movement/noise artifacts, including — for the "hard" patients — large
//!   noise bursts near the seizure, which the paper identifies as the cause of
//!   its three mislabeled seizures,
//! * per-patient seizure counts matching Table II of the paper
//!   (7, 3, 7, 4, 5, 3, 5, 4, 7 seizures for patients 1–9; 45 in total).
//!
//! Everything is deterministic given a seed, so experiments are reproducible.
//!
//! # Example
//!
//! ```
//! use seizure_data::cohort::Cohort;
//! use seizure_data::sampler::SampleConfig;
//!
//! # fn main() -> Result<(), seizure_data::DataError> {
//! let cohort = Cohort::chb_mit_like(42);
//! assert_eq!(cohort.patients().len(), 9);
//! assert_eq!(cohort.total_seizures(), 45);
//!
//! // Generate one short test record containing the first seizure of patient 1.
//! let config = SampleConfig::new(60.0, 120.0, 64.0)?; // 1–2 min at 64 Hz (tests)
//! let record = cohort.sample_record(0, 0, &config, 7)?;
//! assert!(record.annotation().duration() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotation;
pub mod cohort;
pub mod error;
pub mod patient;
pub mod sampler;
pub mod signal;
pub mod synth;

pub use annotation::SeizureAnnotation;
pub use cohort::Cohort;
pub use error::DataError;
pub use patient::PatientProfile;
pub use sampler::{EegRecord, SampleConfig};
pub use signal::EegSignal;
