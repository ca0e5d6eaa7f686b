//! # seizure-dsp
//!
//! Digital signal processing substrate for EEG analysis.
//!
//! This crate provides the numerical building blocks used by the self-learning
//! epileptic seizure detection pipeline described in *Pascual, Aminifar, Atienza,
//! "A Self-Learning Methodology for Epileptic Seizure Detection with
//! Minimally-Supervised Edge Labeling" (DATE 2019)*:
//!
//! * [`fft`](mod@fft) — allocation-free FFT plans: an iterative radix-2
//!   transform with a DFT fallback for arbitrary lengths, and the packed
//!   two-for-one real transform.
//! * [`spectrum`] — [`PsdPlan`], the rectangular periodogram (the one
//!   spectral estimate the detector uses).
//! * [`wavelet`] — the Daubechies-4 multi-level decomposition (level 7 in
//!   the paper) as a reusable [`WaveletWorkspace`] and a
//!   [`StreamingWavelet`] for overlapping windows.
//! * [`stats`] — descriptive statistics.
//!
//! Each transform has one production kernel. The allocating FFT,
//! periodogram and filter bank they are checked against live in a
//! test-only `reference` module.
//!
//! # Example
//!
//! Estimate the theta-band ([4, 8] Hz) power of a 4-second EEG window sampled at
//! 256 Hz:
//!
//! ```
//! use seizure_dsp::fft::Complex;
//! use seizure_dsp::spectrum::PsdPlan;
//!
//! # fn main() -> Result<(), seizure_dsp::DspError> {
//! let fs = 256.0;
//! let signal: Vec<f64> = (0..1024)
//!     .map(|n| (2.0 * std::f64::consts::PI * 6.0 * n as f64 / fs).sin())
//!     .collect();
//! let plan = PsdPlan::new(signal.len())?;
//! let mut power = vec![0.0; plan.num_bins()];
//! let mut scratch = vec![Complex::zero(); plan.scratch_len()];
//! plan.power_into(&signal, fs, &mut power, &mut scratch)?;
//! let resolution = plan.resolution(fs);
//! let theta: f64 = power
//!     .iter()
//!     .enumerate()
//!     .filter(|(k, _)| (4.0..=8.0).contains(&(*k as f64 * resolution)))
//!     .map(|(_, p)| p * resolution)
//!     .sum();
//! assert!(theta > 0.4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fft;
#[cfg(test)]
mod reference;
pub mod spectrum;
pub mod stats;
pub mod wavelet;

pub use error::DspError;
pub use fft::{Complex, FftPlan};
pub use spectrum::PsdPlan;
pub use wavelet::{StreamingWavelet, Wavelet, WaveletWorkspace};
