//! Property-based tests for the DSP substrate.

use proptest::prelude::*;
use seizure_dsp::fft::{fft, ifft, Complex};
use seizure_dsp::spectrum::{band_power, periodogram};
use seizure_dsp::stats;
use seizure_dsp::wavelet::{dwt_single, idwt_single, wavedec, waverec, Wavelet};

fn finite_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e3f64..1e3f64, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_roundtrip(signal in finite_signal(1..300)) {
        let input: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
        let spectrum = fft(&input).unwrap();
        let restored = ifft(&spectrum).unwrap();
        // Tolerance scales with the signal amplitude (inputs go up to 1e3) and
        // length, since the DFT fallback accumulates rounding over n terms.
        let tol = 1e-9 * (1.0 + signal.iter().fold(0.0f64, |m, x| m.max(x.abs()))) * signal.len() as f64;
        for (a, b) in input.iter().zip(restored.iter()) {
            prop_assert!((a.re - b.re).abs() < tol);
            prop_assert!((a.im - b.im).abs() < tol);
        }
    }

    #[test]
    fn fft_is_linear(a in finite_signal(64..65), b in finite_signal(64..65), alpha in -10.0f64..10.0) {
        let ca: Vec<Complex> = a.iter().map(|&x| Complex::from(x)).collect();
        let cb: Vec<Complex> = b.iter().map(|&x| Complex::from(x)).collect();
        let combined: Vec<Complex> = ca
            .iter()
            .zip(cb.iter())
            .map(|(x, y)| *x + y.scale(alpha))
            .collect();
        let lhs = fft(&combined).unwrap();
        let fa = fft(&ca).unwrap();
        let fb = fft(&cb).unwrap();
        let scale_bound = a
            .iter()
            .chain(b.iter())
            .fold(0.0f64, |m, x| m.max(x.abs()))
            * (1.0 + alpha.abs());
        let tol = 1e-10 * (1.0 + scale_bound) * a.len() as f64;
        for ((l, x), y) in lhs.iter().zip(fa.iter()).zip(fb.iter()) {
            let rhs = *x + y.scale(alpha);
            prop_assert!((l.re - rhs.re).abs() < tol);
            prop_assert!((l.im - rhs.im).abs() < tol);
        }
    }

    #[test]
    fn parseval_holds_for_power_of_two(signal in finite_signal(128..129)) {
        let input: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
        let time: f64 = input.iter().map(Complex::magnitude_squared).sum();
        let spec = fft(&input).unwrap();
        let freq: f64 = spec.iter().map(Complex::magnitude_squared).sum::<f64>() / input.len() as f64;
        let scale = time.abs().max(1.0);
        prop_assert!((time - freq).abs() / scale < 1e-9);
    }

    #[test]
    fn dwt_single_roundtrip_even_lengths(signal in finite_signal(8..200).prop_filter("even", |v| v.len() % 2 == 0)) {
        for wavelet in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies4] {
            if signal.len() < wavelet.filter_len() {
                continue;
            }
            let (a, d) = dwt_single(&signal, wavelet).unwrap();
            let rec = idwt_single(&a, &d, wavelet, signal.len()).unwrap();
            for (x, y) in signal.iter().zip(rec.iter()) {
                prop_assert!((x - y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn wavedec_waverec_roundtrip(seed in 0u64..1000, levels in 1usize..5) {
        // Generate a deterministic pseudo-random signal of power-of-two length.
        let mut state = seed as f64 + 1.0;
        let signal: Vec<f64> = (0..256)
            .map(|_| {
                state = (state * 16807.0) % 2147483647.0;
                state / 2147483647.0 - 0.5
            })
            .collect();
        let dec = wavedec(&signal, Wavelet::Daubechies4, levels).unwrap();
        let rec = waverec(&dec).unwrap();
        for (x, y) in signal.iter().zip(rec.iter()) {
            prop_assert!((x - y).abs() < 1e-8);
        }
    }

    #[test]
    fn band_power_is_monotone_in_band_width(signal in finite_signal(64..512)) {
        let psd = periodogram(&signal, 256.0).unwrap();
        let narrow = band_power(&psd, 4.0, 8.0).unwrap();
        let wide = band_power(&psd, 0.5, 30.0).unwrap();
        prop_assert!(wide + 1e-12 >= narrow);
    }

    #[test]
    fn percentile_lies_within_data_range(signal in finite_signal(1..64), p in 0.0f64..100.0) {
        let v = stats::percentile(&signal, p).unwrap();
        let (lo, hi) = stats::min_max(&signal).unwrap();
        prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
    }

    #[test]
    fn geometric_mean_between_min_and_max(signal in prop::collection::vec(1e-3f64..1e3, 1..64)) {
        let g = stats::geometric_mean(&signal).unwrap();
        let (lo, hi) = stats::min_max(&signal).unwrap();
        prop_assert!(g >= lo - 1e-9 && g <= hi + 1e-9);
    }
}
