//! Fast Fourier transform plans.
//!
//! [`FftPlan`] runs an iterative radix-2 decimation-in-time FFT for
//! power-of-two lengths and a direct DFT for other lengths; [`RealFftPlan`]
//! computes the power spectrum of a real signal with the packed two-for-one
//! transform. Both precompute their tables once and execute into
//! caller-provided buffers. Everything is implemented from scratch on `f64`
//! so the crate carries no external numerical dependencies.

use crate::error::DspError;

/// A complex number with `f64` components.
///
/// This is a minimal value type used by the FFT routines; it intentionally only
/// implements the operations the crate needs.
///
/// # Example
///
/// ```
/// use seizure_dsp::Complex;
///
/// let a = Complex::new(1.0, 2.0);
/// let b = Complex::new(3.0, -1.0);
/// let sum = a + b;
/// assert_eq!(sum, Complex::new(4.0, 1.0));
/// assert!((a.magnitude() - 5.0_f64.sqrt()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number from real and imaginary parts.
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// The additive identity.
    pub fn zero() -> Self {
        Self { re: 0.0, im: 0.0 }
    }

    /// Creates a complex number on the unit circle with the given phase angle
    /// in radians, i.e. `e^{i theta}`.
    pub fn from_polar_unit(theta: f64) -> Self {
        Self {
            re: theta.cos(),
            im: theta.sin(),
        }
    }

    /// Magnitude (absolute value).
    pub fn magnitude(&self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Squared magnitude, cheaper than [`Complex::magnitude`] when only the
    /// power is needed.
    pub fn magnitude_squared(&self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Complex conjugate.
    pub fn conj(&self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// Scales both components by a real factor.
    pub fn scale(&self, factor: f64) -> Self {
        Self {
            re: self.re * factor,
            im: self.im * factor,
        }
    }
}

impl std::ops::Add for Complex {
    type Output = Complex;

    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl std::ops::Sub for Complex {
    type Output = Complex;

    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl std::ops::Mul for Complex {
    type Output = Complex;

    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

/// A precomputed FFT execution plan for signals of one fixed length.
///
/// The plan front-loads everything a transform needs besides the samples —
/// the bit-reversal permutation and the per-stage twiddle factors for
/// power-of-two lengths, or the table of roots of unity for the direct-DFT
/// fallback — and executes into a caller-provided output buffer, so the hot
/// path performs **no heap allocations**. This is the building block of the
/// batch inference engine: one plan is built per analysis-window length and
/// reused across every window of a recording.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::{Complex, FftPlan};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// // A constant signal concentrates all of its energy in bin 0.
/// let signal = vec![2.5; 64];
/// let plan = FftPlan::new(signal.len())?;
/// let mut spectrum = vec![Complex::zero(); signal.len()];
/// plan.forward_real_into(&signal, &mut spectrum)?;
///
/// assert!((spectrum[0].re - 160.0).abs() < 1e-9);
/// assert!(spectrum[1..].iter().all(|bin| bin.magnitude() < 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone, PartialEq)]
enum PlanKind {
    /// Radix-2 Cooley–Tukey: bit-reversal table plus per-stage twiddles
    /// `e^{-2πik/len}` flattened stage after stage (`n - 1` values total).
    Radix2 {
        rev: Vec<u32>,
        twiddles: Vec<Complex>,
    },
    /// Direct DFT fallback: the `n` roots of unity `e^{-2πij/n}`.
    Dft { roots: Vec<Complex> },
}

/// Bit-reversal permutation table for a power-of-two length.
fn bit_reversal_table(n: usize) -> Vec<u32> {
    let bits = n.trailing_zeros();
    (0..n)
        .map(|i| {
            if n == 1 {
                0
            } else {
                ((i.reverse_bits() >> (usize::BITS - bits)) & (n - 1)) as u32
            }
        })
        .collect()
}

/// Flattened per-stage forward twiddle factors (`n - 1` values) for an
/// iterative radix-2 FFT of a power-of-two length.
fn stage_twiddles(n: usize) -> Vec<Complex> {
    let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = -2.0 * std::f64::consts::PI / len as f64;
        for k in 0..len / 2 {
            twiddles.push(Complex::from_polar_unit(ang * k as f64));
        }
        len <<= 1;
    }
    twiddles
}

/// In-place radix-2 butterfly passes over bit-reversal-ordered data.
///
/// Each stage walks the buffer in fixed-width `len` chunks via
/// `chunks_exact_mut` and splits every chunk into its even/odd halves up
/// front, so the inner loop is a straight zip over three equal-length slices
/// with all bounds checks hoisted — the shape the autovectorizer wants. The
/// arithmetic (twiddle multiply, add/sub order) is unchanged from the
/// indexed form.
fn butterfly_passes(data: &mut [Complex], twiddles: &[Complex]) {
    let n = data.len();
    let mut len = 2;
    let mut stage_offset = 0;
    while len <= n {
        let half = len / 2;
        let stage = &twiddles[stage_offset..stage_offset + half];
        for block in data.chunks_exact_mut(len) {
            let (evens, odds) = block.split_at_mut(half);
            for ((a, b), &w) in evens.iter_mut().zip(odds.iter_mut()).zip(stage) {
                let even = *a;
                let odd = *b * w;
                *a = even + odd;
                *b = even - odd;
            }
        }
        stage_offset += half;
        len <<= 1;
    }
}

impl FftPlan {
    /// Builds a forward-transform plan for signals of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "FftPlan::new",
            });
        }
        let kind = if n.is_power_of_two() {
            PlanKind::Radix2 {
                rev: bit_reversal_table(n),
                twiddles: stage_twiddles(n),
            }
        } else {
            let roots = (0..n)
                .map(|j| {
                    Complex::from_polar_unit(-2.0 * std::f64::consts::PI * j as f64 / n as f64)
                })
                .collect();
            PlanKind::Dft { roots }
        };
        Ok(Self { n, kind })
    }

    /// The signal length the plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `false`; plans always cover at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Computes the forward FFT of a real signal into `out` without
    /// allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `signal` or `out` does not match
    /// the planned length.
    pub fn forward_real_into(&self, signal: &[f64], out: &mut [Complex]) -> Result<(), DspError> {
        if signal.len() != self.n {
            return Err(DspError::InvalidLength {
                operation: "FftPlan::forward_real_into",
                actual: signal.len(),
                requirement: "signal length must match the planned length",
            });
        }
        if out.len() != self.n {
            return Err(DspError::InvalidLength {
                operation: "FftPlan::forward_real_into",
                actual: out.len(),
                requirement: "output length must match the planned length",
            });
        }
        match &self.kind {
            PlanKind::Radix2 { rev, twiddles } => {
                for (slot, &src) in out.iter_mut().zip(rev.iter()) {
                    *slot = Complex::from(signal[src as usize]);
                }
                butterfly_passes(out, twiddles);
            }
            PlanKind::Dft { roots } => {
                let n = self.n;
                for (k, slot) in out.iter_mut().enumerate() {
                    let mut acc = Complex::zero();
                    let mut idx = 0;
                    for &x in signal {
                        acc = acc + roots[idx].scale(x);
                        idx += k;
                        if idx >= n {
                            idx -= n;
                        }
                    }
                    *slot = acc;
                }
            }
        }
        Ok(())
    }
}

/// A real-input FFT plan computing the one-sided power spectrum with the
/// classic "two-for-one" trick.
///
/// For even power-of-two lengths the real signal is packed into a half-length
/// complex buffer (`z[j] = x[2j] + i·x[2j+1]`), transformed with an `n/2`
/// point FFT and untangled into `|X[k]|²` for `k = 0..=n/2` — half the
/// butterfly work of a full complex transform and no materialized spectrum.
/// Other lengths fall back to a full [`FftPlan`]. Like the complex plan,
/// execution is allocation-free into caller-provided buffers.
///
/// # Example
///
/// ```
/// use seizure_dsp::fft::{Complex, RealFftPlan};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// // A tone completing 10 cycles in 128 samples puts |X[10]|² = (n/2)² in
/// // bin 10 and nothing elsewhere.
/// let signal: Vec<f64> = (0..128)
///     .map(|i| (2.0 * std::f64::consts::PI * 10.0 * i as f64 / 128.0).sin())
///     .collect();
/// let plan = RealFftPlan::new(signal.len())?;
/// let mut power = vec![0.0; plan.num_bins()];
/// let mut scratch = vec![Complex::zero(); plan.scratch_len()];
/// plan.magnitudes_squared_into(&signal, &mut power, &mut scratch)?;
///
/// assert!((power[10] - 64.0 * 64.0).abs() < 1e-6);
/// assert!(power.iter().enumerate().all(|(k, p)| k == 10 || *p < 1e-9));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RealFftPlan {
    n: usize,
    kind: RealPlanKind,
}

#[derive(Debug, Clone, PartialEq)]
enum RealPlanKind {
    /// Packed two-for-one path: tables for the half-length complex FFT plus
    /// the untangling twiddles `e^{-2πik/n}` for `k = 0..=n/4`.
    Packed {
        rev: Vec<u32>,
        twiddles: Vec<Complex>,
        untangle: Vec<Complex>,
    },
    /// Full complex transform for lengths the packed path cannot handle.
    Fallback(FftPlan),
}

impl RealFftPlan {
    /// Builds a plan for real signals of length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] if `n` is zero.
    pub fn new(n: usize) -> Result<Self, DspError> {
        if n == 0 {
            return Err(DspError::EmptyInput {
                operation: "RealFftPlan::new",
            });
        }
        let kind = if n >= 2 && n.is_power_of_two() {
            let m = n / 2;
            let untangle = (0..=m / 2)
                .map(|k| {
                    Complex::from_polar_unit(-2.0 * std::f64::consts::PI * k as f64 / n as f64)
                })
                .collect();
            RealPlanKind::Packed {
                rev: bit_reversal_table(m),
                twiddles: stage_twiddles(m),
                untangle,
            }
        } else {
            RealPlanKind::Fallback(FftPlan::new(n)?)
        };
        Ok(Self { n, kind })
    }

    /// The signal length the plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `false`; plans always cover at least one sample.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of one-sided output bins (`n/2 + 1`).
    pub fn num_bins(&self) -> usize {
        self.n / 2 + 1
    }

    /// Required scratch length: `n/2` on the packed path, `n` on the
    /// fallback path.
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            RealPlanKind::Packed { .. } => self.n / 2,
            RealPlanKind::Fallback(_) => self.n,
        }
    }

    /// Computes `|X[k]|²` of the real signal for `k = 0..=n/2` into `out`,
    /// without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `signal`, `out` or `scratch`
    /// has the wrong length.
    pub fn magnitudes_squared_into(
        &self,
        signal: &[f64],
        out: &mut [f64],
        scratch: &mut [Complex],
    ) -> Result<(), DspError> {
        if signal.len() != self.n {
            return Err(DspError::InvalidLength {
                operation: "RealFftPlan::magnitudes_squared_into",
                actual: signal.len(),
                requirement: "signal length must match the planned length",
            });
        }
        if out.len() != self.num_bins() {
            return Err(DspError::InvalidLength {
                operation: "RealFftPlan::magnitudes_squared_into",
                actual: out.len(),
                requirement: "output must have n/2 + 1 bins",
            });
        }
        if scratch.len() < self.scratch_len() {
            return Err(DspError::InvalidLength {
                operation: "RealFftPlan::magnitudes_squared_into",
                actual: scratch.len(),
                requirement: "scratch must cover the plan's scratch length",
            });
        }
        match &self.kind {
            RealPlanKind::Fallback(plan) => {
                plan.forward_real_into(signal, &mut scratch[..self.n])?;
                for (slot, bin) in out.iter_mut().zip(scratch.iter()) {
                    *slot = bin.magnitude_squared();
                }
                Ok(())
            }
            RealPlanKind::Packed {
                rev,
                twiddles,
                untangle,
            } => {
                let m = self.n / 2;
                let z = &mut scratch[..m];
                // Load sample pairs straight into bit-reversed order.
                for (j, &dst) in rev.iter().enumerate() {
                    z[dst as usize] = Complex::new(signal[2 * j], signal[2 * j + 1]);
                }
                butterfly_passes(z, twiddles);

                // Untangle: with E/O the transforms of the even/odd samples,
                // Z[k] = E[k] + i·O[k] and conj(Z[m-k]) = E[k] - i·O[k], so
                // X[k]   = E[k] + W_k·O[k]      (W_k = e^{-2πik/n})
                // X[m-k] = conj(E[k] - W_k·O[k])
                // and only the squared magnitudes are kept.
                out[0] = {
                    let s = z[0].re + z[0].im;
                    s * s
                };
                out[m] = {
                    let d = z[0].re - z[0].im;
                    d * d
                };
                for k in 1..=m / 2 {
                    let a = z[k];
                    let b = z[m - k].conj();
                    let e = (a + b).scale(0.5);
                    let o = (a - b).scale(0.5);
                    // W_k · O[k], with O[k] = -i·o.
                    let w = untangle[k];
                    let t = Complex::new(w.re * o.im + w.im * o.re, w.im * o.im - w.re * o.re);
                    out[k] = (e + t).magnitude_squared();
                    out[m - k] = (e - t).magnitude_squared();
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::real_fft;

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn total_cmp_peak_selection_survives_nan_bins() {
        // Regression for the NaN-unsafe peak argmax this test file used to
        // carry: with `total_cmp` a NaN magnitude ranks above every finite
        // bin (it is selected, not silently scrambled), and removing it
        // restores the true peak — no comparator panic either way.
        let mags = [1.0, 5.0, f64::NAN, 3.0];
        let peak = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(peak, 2);
        let finite_peak = mags
            .iter()
            .enumerate()
            .filter(|(_, v)| v.is_finite())
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(finite_peak, 1);
    }

    #[test]
    fn complex_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(-3.0, 0.5);
        assert_eq!(a + b, Complex::new(-2.0, 2.5));
        assert_eq!(a - b, Complex::new(4.0, 1.5));
        let p = a * b;
        assert!(close(p.re, -4.0, 1e-12));
        assert!(close(p.im, -5.5, 1e-12));
        assert_eq!(a.conj(), Complex::new(1.0, -2.0));
        assert_eq!(a.scale(2.0), Complex::new(2.0, 4.0));
    }

    #[test]
    fn plan_matches_fft_on_power_of_two() {
        let signal: Vec<f64> = (0..256).map(|i| (i as f64 * 0.13).sin()).collect();
        let plan = FftPlan::new(signal.len()).unwrap();
        let mut out = vec![Complex::zero(); signal.len()];
        plan.forward_real_into(&signal, &mut out).unwrap();
        let reference = real_fft(&signal);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!(close(a.re, b.re, 1e-8));
            assert!(close(a.im, b.im, 1e-8));
        }
    }

    #[test]
    fn plan_matches_fft_on_arbitrary_length() {
        let signal: Vec<f64> = (0..77).map(|i| (i as f64 * 0.31).cos()).collect();
        let plan = FftPlan::new(signal.len()).unwrap();
        let mut out = vec![Complex::zero(); signal.len()];
        plan.forward_real_into(&signal, &mut out).unwrap();
        let reference = real_fft(&signal);
        for (a, b) in out.iter().zip(reference.iter()) {
            assert!(close(a.re, b.re, 1e-7));
            assert!(close(a.im, b.im, 1e-7));
        }
    }

    #[test]
    fn plan_rejects_mismatched_buffers() {
        assert!(FftPlan::new(0).is_err());
        let plan = FftPlan::new(16).unwrap();
        assert_eq!(plan.len(), 16);
        assert!(!plan.is_empty());
        let signal = vec![0.0; 16];
        let mut short_out = vec![Complex::zero(); 8];
        assert!(plan.forward_real_into(&signal, &mut short_out).is_err());
        let mut out = vec![Complex::zero(); 16];
        assert!(plan.forward_real_into(&signal[..8], &mut out).is_err());
    }

    #[test]
    fn plan_single_sample_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut out = vec![Complex::zero(); 1];
        plan.forward_real_into(&[2.5], &mut out).unwrap();
        assert!(close(out[0].re, 2.5, 1e-15));
        assert!(close(out[0].im, 0.0, 1e-15));
    }

    #[test]
    fn real_plan_matches_the_oracle_on_both_paths() {
        // 128 samples take the packed path, 77 the full-transform fallback.
        for n in [128usize, 77] {
            let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
            let plan = RealFftPlan::new(n).unwrap();
            let mut power = vec![0.0; plan.num_bins()];
            let mut scratch = vec![Complex::zero(); plan.scratch_len()];
            plan.magnitudes_squared_into(&signal, &mut power, &mut scratch)
                .unwrap();
            let reference = real_fft(&signal);
            for (p, bin) in power.iter().zip(reference.iter()) {
                assert!((p - bin.magnitude_squared()).abs() < 1e-6, "n={n}");
            }
        }
    }
}
