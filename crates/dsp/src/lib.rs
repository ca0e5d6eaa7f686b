//! # seizure-dsp
//!
//! Digital signal processing substrate for EEG analysis.
//!
//! This crate provides the numerical building blocks used by the self-learning
//! epileptic seizure detection pipeline described in *Pascual, Aminifar, Atienza,
//! "A Self-Learning Methodology for Epileptic Seizure Detection with
//! Minimally-Supervised Edge Labeling" (DATE 2019)*:
//!
//! * [`fft`](mod@fft) — iterative radix-2 fast Fourier transform with a DFT
//!   fallback for arbitrary lengths, plus allocation-free plans for real
//!   signals.
//! * [`spectrum`] — the rectangular periodogram (the one spectral estimate
//!   the detector uses) and frequency-band power integration.
//! * [`wavelet`] — Daubechies-4 discrete wavelet transform, the multi-level
//!   decomposition (level 7 in the paper) and its inverse.
//! * [`stats`] — descriptive statistics.
//!
//! # Example
//!
//! Estimate the theta-band ([4, 8] Hz) power of a 4-second EEG window sampled at
//! 256 Hz:
//!
//! ```
//! use seizure_dsp::spectrum::{periodogram, band_power};
//!
//! # fn main() -> Result<(), seizure_dsp::DspError> {
//! let fs = 256.0;
//! let signal: Vec<f64> = (0..1024)
//!     .map(|n| (2.0 * std::f64::consts::PI * 6.0 * n as f64 / fs).sin())
//!     .collect();
//! let psd = periodogram(&signal, fs)?;
//! let theta = band_power(&psd, 4.0, 8.0)?;
//! assert!(theta > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fft;
pub mod spectrum;
pub mod stats;
pub mod wavelet;

pub use error::DspError;
pub use fft::{fft, ifft, Complex, FftPlan};
pub use spectrum::{band_power, periodogram, PowerSpectrum, PsdPlan};
pub use wavelet::{
    dwt_single, idwt_single, wavedec, wavedec_into, waverec, StreamingWavelet, Wavelet,
    WaveletDecomposition, WaveletWorkspace,
};
