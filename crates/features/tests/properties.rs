//! Property-based tests for the feature-extraction crate.

use proptest::prelude::*;
use seizure_dsp::fft::Complex;
use seizure_dsp::spectrum::PsdPlan;
use seizure_features::bandpower::{band_powers_from_bins, Band};
use seizure_features::entropy::{
    permutation_entropy_scratch, renyi_entropy, sample_entropy, shannon_entropy,
};
use seizure_features::extractor::{PaperFeatureSet, RichFeatureSet, SlidingWindowConfig};
use seizure_features::matrix::FeatureMatrix;
use seizure_features::normalize::normalize_features;
use seizure_features::scratch::FeatureScratchPool;
use seizure_features::waveform::{line_length, peak_to_peak, zero_crossings};

fn signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-100.0f64..100.0, len)
}

/// Deterministic pseudo-random EEG-like channel: a seizure-band tone plus
/// xorshift noise, long enough for a handful of 4 s windows.
fn noisy_channel(len: usize, fs: f64, seed: u64) -> Vec<f64> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            20.0 * (2.0 * std::f64::consts::PI * 5.0 * i as f64 / fs).sin() + 40.0 * noise
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn relative_band_powers_are_a_sub_probability(window in signal(64..512)) {
        let plan = PsdPlan::new(window.len()).unwrap();
        let mut power = vec![0.0; plan.num_bins()];
        let mut scratch = vec![Complex::zero(); plan.scratch_len()];
        plan.power_into(&window, 256.0, &mut power, &mut scratch).unwrap();
        let bp = band_powers_from_bins(&power, 256.0, window.len()).unwrap();
        let sum: f64 = bp.relative.iter().sum();
        prop_assert!(sum <= 1.0 + 1e-9);
        for band in Band::ALL {
            prop_assert!(bp.relative(band) >= 0.0);
            prop_assert!(bp.absolute(band) >= -1e-12);
        }
    }

    #[test]
    fn permutation_entropy_is_normalized(window in signal(10..300), order in 2usize..6) {
        let pe = permutation_entropy_scratch(&window, order, 1, &mut Vec::new()).unwrap();
        prop_assert!((0.0..=1.0).contains(&pe));
    }

    #[test]
    fn permutation_entropy_is_invariant_to_monotone_scaling(window in signal(20..200), scale in 0.1f64..10.0, shift in -50.0f64..50.0) {
        let transformed: Vec<f64> = window.iter().map(|x| x * scale + shift).collect();
        let mut counts = Vec::new();
        let a = permutation_entropy_scratch(&window, 3, 1, &mut counts).unwrap();
        let b = permutation_entropy_scratch(&transformed, 3, 1, &mut counts).unwrap();
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn shannon_entropy_is_bounded_by_log_n(window in signal(2..200)) {
        let h = shannon_entropy(&window);
        prop_assert!(h >= -1e-12);
        prop_assert!(h <= (window.len() as f64).ln() + 1e-9);
    }

    #[test]
    fn renyi_entropy_never_exceeds_shannon(window in signal(4..200)) {
        let shannon = shannon_entropy(&window);
        let renyi2 = renyi_entropy(&window, 2.0).unwrap();
        prop_assert!(renyi2 <= shannon + 1e-9);
    }

    #[test]
    fn sample_entropy_is_non_negative(window in signal(10..150), k in 0.1f64..0.5) {
        let se = sample_entropy(&window, 2, k).unwrap();
        prop_assert!(se >= 0.0);
        prop_assert!(se.is_finite());
    }

    #[test]
    fn waveform_features_are_scale_consistent(window in signal(8..200), scale in 1.0f64..10.0) {
        let scaled: Vec<f64> = window.iter().map(|x| x * scale).collect();
        let ll = line_length(&window).unwrap();
        let ll_scaled = line_length(&scaled).unwrap();
        prop_assert!((ll_scaled - scale * ll).abs() < 1e-6 * ll.max(1.0));

        let ptp = peak_to_peak(&window).unwrap();
        let ptp_scaled = peak_to_peak(&scaled).unwrap();
        prop_assert!((ptp_scaled - scale * ptp).abs() < 1e-6 * ptp.max(1.0));

        // Zero crossings are invariant to positive scaling.
        prop_assert_eq!(zero_crossings(&window).unwrap(), zero_crossings(&scaled).unwrap());
    }

    #[test]
    fn normalized_matrix_columns_have_zero_mean(rows in 2usize..30, cols in 1usize..6, seed in 0u64..1000) {
        let mut state = seed + 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 10.0 - 5.0
        };
        let names = (0..cols).map(|i| format!("f{i}")).collect();
        let data: Vec<Vec<f64>> = (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
        let matrix = FeatureMatrix::from_rows(names, data).unwrap();
        let normalized = normalize_features(&matrix).unwrap();
        for c in 0..cols {
            let col = normalized.column(c);
            let mean: f64 = col.iter().sum::<f64>() / col.len() as f64;
            prop_assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_window_count_is_consistent(signal_len in 1usize..5000, window_secs in 1.0f64..8.0, overlap in 0.0f64..0.9) {
        let fs = 32.0;
        let cfg = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let n = cfg.num_windows(signal_len);
        if n > 0 {
            // The last window must fit inside the signal.
            let last_start = cfg.window_start_sample(n - 1);
            prop_assert!(last_start + cfg.window_samples() <= signal_len);
            // One more window would not fit.
            prop_assert!(cfg.window_start_sample(n) + cfg.window_samples() > signal_len);
        } else {
            prop_assert!(signal_len < cfg.window_samples());
        }
    }

    #[test]
    fn paper_features_are_finite_on_arbitrary_windows(window in signal(32..600)) {
        let extractor = PaperFeatureSet::new(64.0).unwrap();
        let mut scratch = extractor.scratch(window.len()).unwrap();
        let mut features = vec![f64::NAN; 10];
        extractor.extract_window_into(&window, &window, &mut features, &mut scratch).unwrap();
        prop_assert!(features.iter().all(|f| f.is_finite()));
    }

    #[test]
    fn gathered_rich_rows_are_bit_identical_to_the_full_matrix(
        rate in 0usize..3,
        secs in 5.0f64..12.0,
        picks in prop::collection::vec(0usize..1000, 0..40),
        seed in 0u64..1_000_000,
    ) {
        let fs = [128.0, 173.0, 256.0][rate];
        let len = (secs * fs) as usize;
        let f7t3 = noisy_channel(len, fs, seed);
        let f8t4 = noisy_channel(len, fs, seed ^ 0x9e37_79b9_7f4a_7c15);
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let extractor = RichFeatureSet::new(fs).unwrap();
        let pool = FeatureScratchPool::new();
        let mut full = FeatureMatrix::default();
        extractor.extract_batch_into(&f7t3, &f8t4, &config, &pool, &mut full).unwrap();
        let count = full.num_windows();
        prop_assert!(count >= 2);

        // An unsorted list with duplicates that always holds the first and
        // the last window.
        let mut windows: Vec<usize> = picks.iter().map(|p| p % count).collect();
        windows.insert(windows.len() / 2, count - 1);
        windows.push(0);
        let mut out = vec![f64::NAN; 3];
        extractor
            .extract_windows_into(&f7t3, &f8t4, &config, &windows, &pool, &mut out)
            .unwrap();
        prop_assert_eq!(out.len(), windows.len() * RichFeatureSet::NUM_FEATURES);
        for (row, &w) in out.chunks(RichFeatureSet::NUM_FEATURES).zip(&windows) {
            for (got, want) in row.iter().zip(full.row(w)) {
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
        }

        // An empty list succeeds with an empty output.
        extractor
            .extract_windows_into(&f7t3, &f8t4, &config, &[], &pool, &mut out)
            .unwrap();
        prop_assert!(out.is_empty());

        // Mismatched channels and an index past the last window are errors,
        // not panics.
        prop_assert!(extractor
            .extract_windows_into(&f7t3, &f8t4[1..], &config, &windows, &pool, &mut out)
            .is_err());
        windows.push(count + picks.len());
        prop_assert!(extractor
            .extract_windows_into(&f7t3, &f8t4, &config, &windows, &pool, &mut out)
            .is_err());
    }
}
