//! The allocating feature kernels the batch engine's fused ones must
//! reproduce: one-statistic-at-a-time window moments, Hjorth descriptors
//! from materialized difference vectors, the map-counted permutation
//! entropy, band powers integrated band by band, and the paper and rich
//! feature rows assembled from them window by window. Spectra and wavelet
//! bands come from dsp's production plans (`PsdPlan`, `WaveletWorkspace`),
//! which dsp's own oracles and bit goldens pin. They exist only as test
//! oracles.

use crate::bandpower::{Band, BandPowers};
use crate::entropy::{ln_factorial, renyi_entropy_quadratic, sample_entropy, shannon_entropy};
use crate::error::FeatureError;
use crate::extractor::{PAPER_WAVELET_LEVELS, RICH_FEATURES_PER_CHANNEL, RICH_WAVELET_LEVELS};
use crate::hjorth::HjorthParameters;
use crate::statistics::WindowStatistics;
use crate::waveform::{line_length, nonlinear_energy, peak_to_peak, zero_crossings};
use seizure_dsp::fft::Complex;
use seizure_dsp::spectrum::PsdPlan;
use seizure_dsp::stats;
use seizure_dsp::wavelet::{Wavelet, WaveletWorkspace};

/// Mean, variance, skewness, kurtosis and RMS, each from its own
/// `seizure_dsp::stats` pass.
pub(crate) fn window_statistics(window: &[f64]) -> Result<WindowStatistics, FeatureError> {
    if window.is_empty() {
        return Err(FeatureError::SignalTooShort {
            actual: 0,
            required: 1,
        });
    }
    Ok(WindowStatistics {
        mean: stats::mean(window)?,
        variance: stats::variance(window)?,
        skewness: stats::skewness(window)?,
        kurtosis: stats::kurtosis(window)?,
        rms: stats::rms(window)?,
    })
}

/// Hjorth activity, mobility and complexity from materialized first and
/// second difference vectors.
pub(crate) fn hjorth_parameters(window: &[f64]) -> Result<HjorthParameters, FeatureError> {
    if window.len() < 3 {
        return Err(FeatureError::SignalTooShort {
            actual: window.len(),
            required: 3,
        });
    }
    let activity = stats::variance(window)?;
    let first_diff: Vec<f64> = window.windows(2).map(|w| w[1] - w[0]).collect();
    let second_diff: Vec<f64> = first_diff.windows(2).map(|w| w[1] - w[0]).collect();
    let var_d1 = stats::variance(&first_diff)?;
    let var_d2 = stats::variance(&second_diff)?;
    let mobility = if activity > 0.0 {
        (var_d1 / activity).sqrt()
    } else {
        0.0
    };
    let mobility_d1 = if var_d1 > 0.0 {
        (var_d2 / var_d1).sqrt()
    } else {
        0.0
    };
    let complexity = if mobility > 0.0 {
        mobility_d1 / mobility
    } else {
        0.0
    };
    Ok(HjorthParameters {
        activity,
        mobility,
        complexity,
    })
}

/// Normalized permutation entropy with one heap-allocated key per ordinal
/// pattern, counted in a `BTreeMap` (so the entropy sum runs in key order
/// and repeats bit for bit across processes).
pub(crate) fn permutation_entropy(
    data: &[f64],
    order: usize,
    delay: usize,
) -> Result<f64, FeatureError> {
    if order < 2 {
        return Err(FeatureError::InvalidConfig {
            name: "order",
            reason: format!("permutation order must be at least 2, got {order}"),
        });
    }
    if delay == 0 {
        return Err(FeatureError::InvalidConfig {
            name: "delay",
            reason: "delay must be at least 1".to_string(),
        });
    }
    let span = (order - 1) * delay;
    if data.len() <= span {
        return Ok(0.0);
    }
    let num_patterns = data.len() - span;
    let mut counts: std::collections::BTreeMap<Vec<u8>, usize> = std::collections::BTreeMap::new();
    let mut indices: Vec<usize> = Vec::with_capacity(order);
    for start in 0..num_patterns {
        indices.clear();
        indices.extend(0..order);
        // A stable sort by `total_cmp` ranks a NaN sample as the largest
        // value and keeps equal samples in position order.
        indices.sort_by(|&a, &b| {
            let va = data[start + a * delay];
            let vb = data[start + b * delay];
            va.total_cmp(&vb)
        });
        let key: Vec<u8> = indices.iter().map(|&i| i as u8).collect();
        *counts.entry(key).or_insert(0) += 1;
    }
    let mut entropy = 0.0;
    for &count in counts.values() {
        let p = count as f64 / num_patterns as f64;
        entropy -= p * p.ln();
    }
    let max_entropy = ln_factorial(order);
    if max_entropy <= 0.0 {
        return Ok(0.0);
    }
    Ok((entropy / max_entropy).clamp(0.0, 1.0))
}

/// Band powers of one window: the planned periodogram, then each band
/// integrated on its own as `Σ p · fs/n` over the bins inside it, and the
/// total as `Σ p` times the resolution.
pub(crate) fn all_band_powers(window: &[f64], fs: f64) -> Result<BandPowers, FeatureError> {
    let n = window.len();
    let plan = PsdPlan::new(n)?;
    let mut power = vec![0.0; plan.num_bins()];
    let mut scratch = vec![Complex::zero(); plan.scratch_len()];
    plan.power_into(window, fs, &mut power, &mut scratch)?;
    let resolution = fs / n as f64;
    let total = power.iter().sum::<f64>() * resolution;
    let mut absolute = [0.0; 5];
    let mut relative = [0.0; 5];
    for (i, band) in Band::ALL.iter().enumerate() {
        let (lo, hi) = band.range();
        for (k, p) in power.iter().enumerate() {
            let f = k as f64 * fs / n as f64;
            if f >= lo && f <= hi {
                absolute[i] += p * resolution;
            }
        }
        relative[i] = if total > 0.0 {
            absolute[i] / total
        } else {
            0.0
        };
    }
    Ok(BandPowers {
        absolute,
        relative,
        total,
    })
}

/// db4 decomposition of `window`, clamped at `max_levels` like the scratch.
fn decompose(window: &[f64], max_levels: usize) -> Result<WaveletWorkspace, FeatureError> {
    let wavelet = Wavelet::Daubechies4;
    let levels = max_levels.min(wavelet.max_level(window.len())).max(1);
    let mut workspace = WaveletWorkspace::new(wavelet, window.len(), levels)?;
    workspace.decompose(window)?;
    Ok(workspace)
}

/// Detail band at `level`, clamped into the decomposition's depth.
fn detail_at(dec: &WaveletWorkspace, level: usize) -> &[f64] {
    dec.detail(level.min(dec.levels()).max(1))
        .expect("level clamped into valid range")
}

/// The paper's ten features of one window pair, in `PaperFeatureSet` order.
pub(crate) fn paper_window(fs: f64, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
    if f7t3.is_empty() || f8t4.is_empty() {
        return Err(FeatureError::SignalTooShort {
            actual: f7t3.len().min(f8t4.len()),
            required: 2,
        });
    }
    let left = all_band_powers(f7t3, fs)?;
    let right = all_band_powers(f8t4, fs)?;
    let dec = decompose(f8t4, PAPER_WAVELET_LEVELS)?;
    let d7 = detail_at(&dec, 7);
    let d6 = detail_at(&dec, 6);
    let d3 = detail_at(&dec, 3);
    Ok(vec![
        left.absolute(Band::Theta),
        left.relative(Band::Theta),
        left.absolute(Band::Delta),
        right.relative(Band::Theta),
        permutation_entropy(d7, 5, 1)?,
        permutation_entropy(d7, 7, 1)?,
        permutation_entropy(d6, 7, 1)?,
        renyi_entropy_quadratic(d3),
        sample_entropy(d6, 2, 0.2)?,
        sample_entropy(d6, 2, 0.35)?,
    ])
}

/// The 27 rich features of one channel window, in `RichFeatureSet` order.
fn rich_channel(fs: f64, window: &[f64]) -> Result<Vec<f64>, FeatureError> {
    if window.len() < 3 {
        return Err(FeatureError::SignalTooShort {
            actual: window.len(),
            required: 3,
        });
    }
    let mut out = Vec::with_capacity(RICH_FEATURES_PER_CHANNEL);
    let bands = all_band_powers(window, fs)?;
    out.extend_from_slice(&bands.absolute);
    out.extend_from_slice(&bands.relative);
    out.push(bands.total);

    let stats = window_statistics(window)?;
    out.extend_from_slice(&[
        stats.mean,
        stats.variance,
        stats.skewness,
        stats.kurtosis,
        stats.rms,
    ]);

    let hjorth = hjorth_parameters(window)?;
    out.push(hjorth.mobility);
    out.push(hjorth.complexity);

    out.push(line_length(window)?);
    out.push(nonlinear_energy(window)?);
    out.push(zero_crossings(window)? as f64);
    out.push(peak_to_peak(window)?);

    out.push(permutation_entropy(window, 3, 1)?);
    out.push(permutation_entropy(window, 5, 1)?);

    let dec = decompose(window, RICH_WAVELET_LEVELS)?;
    for level in [3usize, 4, 5] {
        out.push(shannon_entropy(detail_at(&dec, level)));
    }
    debug_assert_eq!(out.len(), RICH_FEATURES_PER_CHANNEL);
    Ok(out)
}

/// The 54 rich features of one window pair: F7T3's block, then F8T4's.
pub(crate) fn rich_window(fs: f64, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
    let mut out = rich_channel(fs, f7t3)?;
    out.extend(rich_channel(fs, f8t4)?);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed
            .wrapping_mul(2862933555777941757)
            .wrapping_add(3037000493);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
            })
            .collect()
    }

    #[test]
    fn window_statistics_of_simple_data() {
        let s = window_statistics(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.variance - 4.0).abs() < 1e-12);
        assert!(window_statistics(&[]).is_err());
    }

    #[test]
    fn hjorth_of_a_sine_estimates_its_frequency() {
        // For a pure sine, mobility ~= 2*pi*f/fs and complexity ~= 1.
        let (fs, f) = (256.0, 4.0);
        let x: Vec<f64> = (0..4096)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect();
        let h = hjorth_parameters(&x).unwrap();
        let expected = 2.0 * std::f64::consts::PI * f / fs;
        assert!((h.mobility - expected).abs() / expected < 0.05);
        assert!((h.complexity - 1.0).abs() < 0.05);
        assert!(hjorth_parameters(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn permutation_entropy_separates_order_from_noise() {
        let ramp: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        assert!(permutation_entropy(&ramp, 5, 1).unwrap() < 1e-12);
        assert!(permutation_entropy(&pseudo_random(4000, 7), 3, 1).unwrap() > 0.95);
        assert_eq!(permutation_entropy(&[1.0, 2.0], 5, 1).unwrap(), 0.0);
        assert!(permutation_entropy(&[1.0; 10], 1, 1).is_err());
        assert!(permutation_entropy(&[1.0; 10], 3, 0).is_err());
    }

    #[test]
    fn band_powers_of_a_theta_tone_sit_in_theta() {
        let fs = 256.0;
        let x: Vec<f64> = (0..1024)
            .map(|i| 3.0 * (2.0 * std::f64::consts::PI * 6.0 * i as f64 / fs).sin())
            .collect();
        let bp = all_band_powers(&x, fs).unwrap();
        assert!(bp.relative(Band::Theta) > 0.95);
        assert!(all_band_powers(&[], fs).is_err());
    }
}
