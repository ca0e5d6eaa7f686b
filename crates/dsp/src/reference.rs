//! The allocating transforms the planned kernels must reproduce: a complex
//! FFT (radix-2 for powers of two, a direct DFT otherwise), the rectangular
//! periodogram built on it, and a one-level-at-a-time periodic filter bank
//! with its inverse. They exist only as test oracles.

use crate::fft::Complex;
use crate::wavelet::Wavelet;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Direction {
    Forward,
    Inverse,
}

impl Direction {
    fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// Forward DFT of `input`.
pub(crate) fn fft(input: &[Complex]) -> Vec<Complex> {
    transform(input, Direction::Forward)
}

/// Inverse DFT of `input`, scaled by `1/n` so that `ifft(fft(x)) == x` up
/// to rounding.
pub(crate) fn ifft(input: &[Complex]) -> Vec<Complex> {
    let scale = 1.0 / input.len() as f64;
    transform(input, Direction::Inverse)
        .into_iter()
        .map(|v| v.scale(scale))
        .collect()
}

/// Forward DFT of a real signal.
pub(crate) fn real_fft(signal: &[f64]) -> Vec<Complex> {
    let buf: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
    fft(&buf)
}

fn transform(input: &[Complex], direction: Direction) -> Vec<Complex> {
    assert!(!input.is_empty(), "the transform needs at least one sample");
    if input.len().is_power_of_two() {
        radix2(input, direction)
    } else {
        dft(input, direction)
    }
}

/// Iterative radix-2 decimation-in-time FFT. `input.len()` must be a power of two.
fn radix2(input: &[Complex], direction: Direction) -> Vec<Complex> {
    let n = input.len();
    let mut data = input.to_vec();
    if n == 1 {
        // A single-point transform is the identity; the bit-reversal shift
        // below would be undefined for n = 1.
        return data;
    }

    // Bit-reversal permutation.
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i.reverse_bits() >> (usize::BITS - bits)) & (n - 1);
        if j > i {
            data.swap(i, j);
        }
    }

    let sign = direction.sign();
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::from_polar_unit(ang);
        for start in (0..n).step_by(len) {
            let mut w = Complex::from(1.0);
            for k in 0..len / 2 {
                let even = data[start + k];
                let odd = data[start + k + len / 2] * w;
                data[start + k] = even + odd;
                data[start + k + len / 2] = even - odd;
                w = w * wlen;
            }
        }
        len <<= 1;
    }
    data
}

/// Direct DFT used for non-power-of-two lengths.
fn dft(input: &[Complex], direction: Direction) -> Vec<Complex> {
    let n = input.len();
    let sign = direction.sign();
    let mut out = vec![Complex::zero(); n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::zero();
        for (t, &x) in input.iter().enumerate() {
            let ang = sign * 2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            acc = acc + x * Complex::from_polar_unit(ang);
        }
        *out_k = acc;
    }
    out
}

/// One-sided rectangular periodogram of `signal`: bin `k` (at `k·fs/n` Hz)
/// is `|X[k]|² / (fs · n)`, doubled for the interior bins, so the bins
/// integrate to the signal power.
pub(crate) fn periodogram(signal: &[f64], fs: f64) -> Vec<f64> {
    let n = signal.len();
    let half = n / 2 + 1;
    real_fft(signal)
        .iter()
        .take(half)
        .enumerate()
        .map(|(k, bin)| {
            // Interior bins carry the energy of their negative-frequency
            // mirror as well.
            let two_sided = bin.magnitude_squared() / (fs * n as f64);
            if k == 0 || (n.is_multiple_of(2) && k == half - 1) {
                two_sided
            } else {
                2.0 * two_sided
            }
        })
        .collect()
}

/// One analysis level with periodic extension: `ceil(n / 2)` approximation
/// and detail coefficients, each accumulated tap by tap in ascending order.
pub(crate) fn dwt_single(signal: &[f64], wavelet: Wavelet) -> (Vec<f64>, Vec<f64>) {
    let n = signal.len();
    let low = wavelet.low_pass();
    let high = wavelet.high_pass();
    assert!(n >= low.len(), "signal shorter than the filter");
    let half = n.div_ceil(2);
    let mut approx = vec![0.0; half];
    let mut detail = vec![0.0; half];
    for i in 0..half {
        let (mut a, mut d) = (0.0, 0.0);
        for (k, (&lo, &hi)) in low.iter().zip(high.iter()).enumerate() {
            let x = signal[(2 * i + k) % n];
            a += lo * x;
            d += hi * x;
        }
        approx[i] = a;
        detail[i] = d;
    }
    (approx, detail)
}

/// Inverse of [`dwt_single`] for a signal of `output_len` samples.
pub(crate) fn idwt_single(
    approx: &[f64],
    detail: &[f64],
    wavelet: Wavelet,
    output_len: usize,
) -> Vec<f64> {
    let low = wavelet.low_pass();
    let high = wavelet.high_pass();
    let mut out = vec![0.0; output_len];
    for (i, (&a, &d)) in approx.iter().zip(detail).enumerate() {
        for (k, (&lo, &hi)) in low.iter().zip(high.iter()).enumerate() {
            out[(2 * i + k) % output_len] += lo * a + hi * d;
        }
    }
    out
}

/// A multi-level decomposition.
pub(crate) struct Decomposition {
    /// Detail bands, level 1 (finest) first.
    pub(crate) details: Vec<Vec<f64>>,
    /// Approximation band of the deepest level.
    pub(crate) approximation: Vec<f64>,
}

impl Decomposition {
    /// Detail band of `level` (`1` is the finest).
    pub(crate) fn detail(&self, level: usize) -> &[f64] {
        &self.details[level - 1]
    }
}

/// `levels` applications of [`dwt_single`], each on the previous
/// approximation.
pub(crate) fn wavedec(signal: &[f64], wavelet: Wavelet, levels: usize) -> Decomposition {
    let mut details = Vec::with_capacity(levels);
    let mut approximation = signal.to_vec();
    for _ in 0..levels {
        let (a, d) = dwt_single(&approximation, wavelet);
        details.push(d);
        approximation = a;
    }
    Decomposition {
        details,
        approximation,
    }
}

/// Reconstructs the `original_len`-sample signal of a [`wavedec`] output.
pub(crate) fn waverec(dec: &Decomposition, wavelet: Wavelet, original_len: usize) -> Vec<f64> {
    let mut lengths = vec![original_len];
    for _ in 1..dec.details.len() {
        let last = lengths[lengths.len() - 1];
        lengths.push(usize::div_ceil(last, 2));
    }
    let mut current = dec.approximation.clone();
    for (detail, &len) in dec.details.iter().zip(&lengths).rev() {
        current = idwt_single(&current, detail, wavelet, len);
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    fn max_abs_diff(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / 256.0;
                (2.0 * std::f64::consts::PI * 3.0 * t).sin()
                    + 0.5 * (2.0 * std::f64::consts::PI * 17.0 * t).cos()
                    + 0.1 * (i as f64 * 0.71).sin()
            })
            .collect()
    }

    #[test]
    fn fft_of_single_sample_is_identity() {
        let x = vec![Complex::new(3.5, -1.25)];
        let spec = fft(&x);
        assert_eq!(spec, x);
        let back = ifft(&spec);
        assert!(close(back[0].re, 3.5, 1e-12));
        assert!(close(back[0].im, -1.25, 1e-12));
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut x = vec![Complex::zero(); 16];
        x[0] = Complex::from(1.0);
        for bin in fft(&x) {
            assert!(close(bin.re, 1.0, 1e-12));
            assert!(close(bin.im, 0.0, 1e-12));
        }
    }

    #[test]
    fn fft_of_constant_concentrates_in_dc() {
        let x = vec![Complex::from(2.5); 32];
        let spec = fft(&x);
        assert!(close(spec[0].re, 80.0, 1e-9));
        for bin in &spec[1..] {
            assert!(bin.magnitude() < 1e-9);
        }
    }

    #[test]
    fn fft_single_tone_peaks_at_expected_bin() {
        let n = 128;
        let k0 = 10;
        let x: Vec<Complex> = (0..n)
            .map(|n_| {
                Complex::from((2.0 * std::f64::consts::PI * k0 as f64 * n_ as f64 / n as f64).sin())
            })
            .collect();
        let spec = fft(&x);
        let peak = spec
            .iter()
            .take(n / 2)
            .enumerate()
            .max_by(|a, b| a.1.magnitude().total_cmp(&b.1.magnitude()))
            .unwrap()
            .0;
        assert_eq!(peak, k0);
    }

    #[test]
    fn ifft_inverts_fft_power_of_two() {
        let x: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!(close(a.re, b.re, 1e-10));
            assert!(close(a.im, b.im, 1e-10));
        }
    }

    #[test]
    fn ifft_inverts_fft_arbitrary_length() {
        let x: Vec<Complex> = (0..50)
            .map(|i| Complex::new((i as f64 * 0.11).cos(), (i as f64 * 0.23).sin()))
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(y.iter()) {
            assert!(close(a.re, b.re, 1e-9));
            assert!(close(a.im, b.im, 1e-9));
        }
    }

    #[test]
    fn dft_matches_radix2_on_power_of_two() {
        let x: Vec<Complex> = (0..32)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 0.5).cos()))
            .collect();
        let a = radix2(&x, Direction::Forward);
        let b = dft(&x, Direction::Forward);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!(close(u.re, v.re, 1e-8));
            assert!(close(u.im, v.im, 1e-8));
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let x: Vec<Complex> = (0..256)
            .map(|i| Complex::from((i as f64 * 0.05).sin() + 0.3 * (i as f64 * 0.31).cos()))
            .collect();
        let time_energy: f64 = x.iter().map(Complex::magnitude_squared).sum();
        let spec = fft(&x);
        let freq_energy: f64 =
            spec.iter().map(Complex::magnitude_squared).sum::<f64>() / x.len() as f64;
        assert!(close(time_energy, freq_energy, 1e-6));
    }

    #[test]
    fn dwt_output_lengths() {
        for (n, half) in [(100, 50), (101, 51)] {
            let (a, d) = dwt_single(&test_signal(n), Wavelet::Daubechies4);
            assert_eq!(a.len(), half);
            assert_eq!(d.len(), half);
        }
    }

    #[test]
    fn single_level_perfect_reconstruction_even_length() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies4] {
            let x = test_signal(256);
            let (a, d) = dwt_single(&x, w);
            let rec = idwt_single(&a, &d, w, x.len());
            assert!(max_abs_diff(&x, &rec) < 1e-9, "{w}");
        }
    }

    #[test]
    fn waverec_inverts_wavedec() {
        for levels in 1..=7 {
            let x = test_signal(1024);
            let dec = wavedec(&x, Wavelet::Daubechies4, levels);
            let rec = waverec(&dec, Wavelet::Daubechies4, x.len());
            assert_eq!(rec.len(), x.len());
            assert!(max_abs_diff(&x, &rec) < 1e-8, "levels={levels}");
        }
    }

    fn finite_signal(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<f64>> {
        prop::collection::vec(-1e3f64..1e3f64, len)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fft_ifft_roundtrip(signal in finite_signal(1..300)) {
            let input: Vec<Complex> = signal.iter().map(|&x| Complex::from(x)).collect();
            let restored = ifft(&fft(&input));
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
            let lhs = fft(&combined);
            let fa = fft(&ca);
            let fb = fft(&cb);
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
            let spec = fft(&input);
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
                let (a, d) = dwt_single(&signal, wavelet);
                let rec = idwt_single(&a, &d, wavelet, signal.len());
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
            let dec = wavedec(&signal, Wavelet::Daubechies4, levels);
            let rec = waverec(&dec, Wavelet::Daubechies4, signal.len());
            for (x, y) in signal.iter().zip(rec.iter()) {
                prop_assert!((x - y).abs() < 1e-8);
            }
        }
    }
}
