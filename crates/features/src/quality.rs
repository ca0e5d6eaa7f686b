//! Cheap per-window signal-quality indicators for artifact rejection.
//!
//! A wearable EEG front end sees railed amplifiers, dropped electrodes,
//! mains hum, baseline wander and electrode pops long before it sees a
//! seizure. This module computes a small set of per-channel indicators per
//! sliding window — no FFT, no wavelet decomposition — that a downstream
//! quality gate can threshold into `Clean / Suspect / Reject` verdicts
//! ([`raw_level`] is the gate's per-window severity):
//!
//! | indicator | catches |
//! |---|---|
//! | `line_length` | overall waveform activity (context for the others) |
//! | `railed_frac` | amplifier saturation / clipping (plus non-finite samples) |
//! | `flat_run_frac` | dropouts: longest run of identical samples |
//! | `hum_ratio` | mains interference at the aliased 50/60 Hz family |
//! | `drift_ratio` | baseline wander: sub-1 Hz + DC share of window energy |
//! | `max_jump_sigma` | electrode pops: largest step in robust-sigma units |
//! | `log_std` | per-channel amplitude envelope (feeds gain tracking) |
//!
//! plus one cross-channel feature, the absolute difference of the two
//! channels' `log_std` (a loose electrode makes one channel disagree wildly
//! with the other).
//!
//! All indicators are deterministic. Non-finite samples are counted as
//! railed and replaced by zero (the *sanitized* samples `c`) before any
//! arithmetic, so NaN/∞-contaminated, flatline and railed windows grade to
//! finite rows.
//!
//! Mains bins are *aliased*: at the wearable's low sampling rates the
//! 50/60 Hz family folds below Nyquist (50 Hz → 14 Hz at fs = 64). Folded
//! bins that land below [`MIN_HUM_FREQ`] are skipped because they would
//! collide with the ictal fundamental band (≈ 2.5–12 Hz) — a documented
//! blind spot of the cheap detector, not a bug.
//!
//! ## The kernel: chunk summaries merged into a window
//!
//! A window is graded as a run of one-second *chunks*
//! ([`QualityExtractor::chunk_samples`] = `fs` samples, the paper's hop)
//! counted from its first sample; the last chunk may be shorter. Each chunk
//! of a channel is summarized once, in two passes over its samples:
//!
//! * finite extrema, the number of samples on each, and the non-finite
//!   count;
//! * the flat-run prefix, suffix and longest inner run, and the first and
//!   last raw sample;
//! * the chunk sum and the chunk-centred second moment `M2`;
//! * `Σ|Δc|` and `max |Δc|` over the chunk-internal steps;
//! * for every Goertzel probe — a tone and its ±2 Hz neighbours per
//!   observable hum bin, plus up to three drift bins `k / window` — the
//!   complex DFT partial of the chunk-centred samples, read off the final
//!   Goertzel states.
//!
//! A window folds its chunk summaries left to right:
//!
//! * min/max and integer sums for the extrema, the census and the railed
//!   counts; flat runs are stitched at chunk boundaries;
//! * boundary steps come from the carried edge samples;
//! * mean and AC energy use Chan's pairwise update (Chan, Golub & LeVeque,
//!   *The American Statistician* 1983);
//! * each probe partial is rotated by its chunk's phase `e^{-iωt_j}` and
//!   re-centred by `(m_j − m)·G_L(ω)`, where `G_L` is the geometric sum of the
//!   chunk's DFT kernel (the sliding-DFT phase shift of Jacobsen & Lyons,
//!   IEEE SP Magazine 2003). This is the Fourier analogue of Chan's mean
//!   shift, so a large DC offset never cancels.
//!
//! The median step is the only per-window `O(n)` pass: the window's `|Δc|`
//! as bit patterns, then one in-place selection. Every step has a clear
//! sign bit, so unsigned bit order equals `f64::total_cmp` order (NaN and ∞
//! included), and a hostile window can never panic the front end.
//!
//! Sums of finite samples beyond about `1e154` overflow, and the IEEE result
//! then depends on summation order. So a window holding a finite sample
//! beyond ±`1e100` takes the sequential sweep of the same definition
//! instead: sum, energy, centred steps and Goertzel probes, sample by
//! sample. Below that bound no intermediate can overflow.
//!
//! ## Three drivers, one arithmetic
//!
//! * [`QualityExtractor::assess_window_into`] grades any slice: it
//!   summarizes the slice chunk by chunk and folds. This is the definition.
//! * [`StreamingQuality`] keeps a ring of chunk summaries per channel. It
//!   summarizes each hop once as it lands and folds the ring per window.
//!   `StreamingDetector::push` in `seizure-core` runs it.
//! * [`QualityExtractor::extract_batch_into`] runs a [`StreamingQuality`]
//!   over the record.
//!
//! Chunk reuse applies exactly when one-second chunks tile the hop
//! (`step % chunk == 0`); otherwise both streaming drivers call the window
//! kernel on every window. Either way each window folds the same summaries
//! of the same samples in the same order, so the three drivers agree bit for
//! bit.
//!
//! ## Error model against the oracle
//!
//! The unit tests keep the one-indicator-at-a-time formulation (which the
//! earlier three-sweep kernel reproduced bit for bit) as `mod reference`,
//! and compare per column:
//!
//! | columns | fold vs oracle |
//! |---|---|
//! | `railed_frac`, `flat_run_frac` | exact (integer counts) |
//! | `line_length`, `max_jump_sigma` | bounded: steps of `c` instead of window-centred `c − m`, re-associated sums |
//! | `hum_ratio`, `drift_ratio` | bounded: merged partials instead of one Goertzel pass |
//! | `log_std`, disagreement | bounded: Chan-merged instead of two-pass `M2` |
//! | every column, finite sample beyond ±`1e100` | bit-identical (sequential sweep) |
//!
//! The bound is `1e-9 · (1 + |oracle|)` and every value is finite on both
//! sides of it; the worst error seen over 6 000 random oracle cases is
//! `3.9e-12` (a `drift_ratio`). One carve-out: when the window's standard deviation is
//! rounding dust against its level (a channel held at one non-zero value),
//! `log_std` is the log of that dust in *both* paths and its value is an
//! accident of summation order. There the suite requires both standard
//! deviations to stay below `1e-12 · (1 + max |c|)`. The gate's severity
//! ([`raw_level`]) is identical on every oracle case.

use crate::error::FeatureError;
use crate::extractor::{check_sampling_frequency, SlidingWindowConfig};
use crate::matrix::FeatureMatrix;
use seizure_dsp::fft::Complex;
use std::f64::consts::PI;

/// Number of per-channel indicators.
pub const QUALITY_FEATURES_PER_CHANNEL: usize = 7;
/// Total quality features per window (two channels plus one cross-channel).
pub const NUM_QUALITY_FEATURES: usize = 2 * QUALITY_FEATURES_PER_CHANNEL + 1;

/// Per-channel column offset of the line-length indicator.
pub const IDX_LINE_LENGTH: usize = 0;
/// Per-channel column offset of the railed-sample fraction.
pub const IDX_RAILED_FRAC: usize = 1;
/// Per-channel column offset of the longest flat-run fraction.
pub const IDX_FLAT_RUN_FRAC: usize = 2;
/// Per-channel column offset of the aliased mains-hum energy ratio.
pub const IDX_HUM_RATIO: usize = 3;
/// Per-channel column offset of the baseline-drift energy ratio.
pub const IDX_DRIFT_RATIO: usize = 4;
/// Per-channel column offset of the largest sample step in robust sigmas.
pub const IDX_MAX_JUMP_SIGMA: usize = 5;
/// Per-channel column offset of the log standard deviation.
pub const IDX_LOG_STD: usize = 6;
/// Column of the cross-channel log-amplitude disagreement.
pub const IDX_DISAGREEMENT: usize = NUM_QUALITY_FEATURES - 1;

/// Folded mains bins below this frequency are skipped: they would overlap
/// the ictal fundamental band and its first harmonics.
pub const MIN_HUM_FREQ: f64 = 12.0;

/// Mains fundamentals and first harmonics probed (before aliasing).
const MAINS_FAMILY: [f64; 4] = [50.0, 60.0, 100.0, 120.0];

/// Goertzel probes per hum bin: the tone and its ±2 Hz neighbours.
const PROBES_PER_HUM_BIN: usize = 3;
/// Lowest DFT bins (k = 1..=3) probed for baseline drift.
const DRIFT_BINS: usize = 3;
/// Goertzel probes one channel advances per sample.
const MAX_PROBES: usize = PROBES_PER_HUM_BIN * MAINS_FAMILY.len() + DRIFT_BINS;

/// A window holding a finite sample beyond ± this takes the sequential
/// sweep (see the module docs): below it no sum, square or Goertzel state
/// of any window can overflow.
const LARGE_AMPLITUDE: f64 = 1e100;

/// `f64` slots one chunk summary carries: extrema, edge samples, sum, `M2`,
/// step sum and maximum, and one complex partial per probe. Priced by
/// `edge::memory::streaming_detector_state_bytes`.
pub const CHUNK_SUMMARY_F64_SLOTS: usize = 8 + 2 * MAX_PROBES;

/// `u32` slots one chunk summary carries: samples on each extremum, the
/// non-finite count and the three flat-run lengths.
pub const CHUNK_SUMMARY_U32_SLOTS: usize = 6;

/// Reject / hold thresholds of the quality gate's Schmitt trigger, per
/// indicator. One set of constants (not per-detector state) so the
/// persisted gate stays a fixed-size block.
mod gate_thresholds {
    /// Railed-sample fraction (clean windows sit at ~2/n ≈ 0.008).
    pub const RAILED: (f64, f64) = (0.05, 0.02);
    /// Longest flat-run fraction (dropouts hold one value for the window).
    pub const FLAT: (f64, f64) = (0.25, 0.10);
    /// Aliased mains-hum tone ratio.
    pub const HUM: (f64, f64) = (0.22, 0.10);
    /// Sub-1 Hz + DC share of window energy (baseline wander). Measured on
    /// the synthetic cohort at 64 Hz: clean windows top out at ~0.89 while
    /// wander pushes the median past 0.98, so the trigger sits between.
    pub const DRIFT: (f64, f64) = (0.93, 0.87);
    /// Largest sample step in robust sigmas (electrode pops). Clean windows
    /// (seizures included) stay under ~20; pops land at 40–80.
    pub const JUMP: (f64, f64) = (25.0, 12.0);
    /// Cross-channel log-amplitude disagreement.
    pub const DISAGREE: (f64, f64) = (2.6, 1.9);
}

/// Severity of one quality row against the gate's constant thresholds:
/// 2 = beyond a reject threshold, 1 = beyond a hold/suspect threshold,
/// 0 = clean. Per-channel indicators trip on their worst channel; a NaN
/// indicator trips nothing.
#[must_use]
pub fn raw_level(row: &[f64]) -> u8 {
    let per_channel = [
        (IDX_RAILED_FRAC, gate_thresholds::RAILED),
        (IDX_FLAT_RUN_FRAC, gate_thresholds::FLAT),
        (IDX_HUM_RATIO, gate_thresholds::HUM),
        (IDX_DRIFT_RATIO, gate_thresholds::DRIFT),
        (IDX_MAX_JUMP_SIGMA, gate_thresholds::JUMP),
    ];
    let mut level = 0u8;
    for (idx, (reject, suspect)) in per_channel {
        for channel in 0..2 {
            let v = row[channel_column(channel, idx)];
            if v >= reject {
                return 2;
            }
            if v >= suspect {
                level = 1;
            }
        }
    }
    let disagree = row[IDX_DISAGREEMENT];
    if disagree >= gate_thresholds::DISAGREE.0 {
        return 2;
    }
    if disagree >= gate_thresholds::DISAGREE.1 {
        level = 1;
    }
    level
}

/// Column of `indicator` (an `IDX_*` per-channel offset) for `channel`
/// (0 = F7T3, 1 = F8T4) in the quality feature matrix.
#[must_use]
pub fn channel_column(channel: usize, indicator: usize) -> usize {
    channel * QUALITY_FEATURES_PER_CHANNEL + indicator
}

/// Folds a frequency below Nyquist (classic aliasing map).
fn alias(freq: f64, fs: f64) -> f64 {
    let r = freq % fs;
    if r > fs / 2.0 {
        fs - r
    } else {
        r
    }
}

/// Goertzel recurrence coefficient of a probe at `freq` Hz.
fn goertzel_coeff(freq: f64, fs: f64) -> f64 {
    2.0 * (2.0 * PI * freq / fs).cos()
}

/// Advances every Goertzel probe by one sample `x`.
#[inline(always)]
fn goertzel_step(
    coeffs: &[f64; MAX_PROBES],
    s1: &mut [f64; MAX_PROBES],
    s2: &mut [f64; MAX_PROBES],
    x: f64,
) {
    for ((c, a), b) in coeffs.iter().zip(s1.iter_mut()).zip(s2.iter_mut()) {
        let s0 = x + c * *a - *b;
        *b = *a;
        *a = s0;
    }
}

/// Squared DFT magnitude from a probe's final Goertzel state.
fn goertzel_power(coeff: f64, s1: f64, s2: f64) -> f64 {
    (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
}

/// A sample with non-finite values replaced by zero.
#[inline(always)]
fn sanitize(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Whether two consecutive samples continue a flat run (non-finite values
/// count as equal to each other: a dead channel full of NaN is one long
/// dropout).
#[inline(always)]
fn same_level(a: f64, b: f64) -> bool {
    a == b || (!a.is_finite() && !b.is_finite())
}

/// `z · k` for a real `k`.
#[inline(always)]
fn scaled(z: Complex, k: f64) -> Complex {
    Complex::new(z.re * k, z.im * k)
}

/// Phase factors of every probe for one chunk length `L`.
#[derive(Debug, Clone, Copy)]
struct ChunkPhases {
    /// `e^{-iω(L-1)}`: turns the last Goertzel state into the partial.
    last: [Complex; MAX_PROBES],
    /// `e^{-iωL}`: the chunk's phase advance.
    step: [Complex; MAX_PROBES],
    /// `G_L(ω) = Σ_{u<L} e^{-iωu}`: the DFT of a constant chunk.
    geo: [Complex; MAX_PROBES],
}

impl ChunkPhases {
    fn new(omegas: &[f64; MAX_PROBES], probes: usize, len: usize) -> Self {
        let mut phases = Self {
            last: [Complex::zero(); MAX_PROBES],
            step: [Complex::zero(); MAX_PROBES],
            geo: [Complex::zero(); MAX_PROBES],
        };
        let len = len as f64;
        let one = Complex::new(1.0, 0.0);
        for (p, &omega) in omegas.iter().enumerate().take(probes) {
            phases.last[p] = Complex::from_polar_unit(-omega * (len - 1.0));
            phases.step[p] = Complex::from_polar_unit(-omega * len);
            // Every probe sits strictly inside (0, fs/2), so the denominator
            // never vanishes.
            let num = one - phases.step[p];
            let den = one - Complex::from_polar_unit(-omega);
            phases.geo[p] = scaled(num * den.conj(), 1.0 / den.magnitude_squared());
        }
        phases
    }
}

/// Probe coefficients and phase tables for windows of `n` samples at one
/// sampling rate: a pure function of `(fs, n)`, cached in
/// [`QualityScratch`].
#[derive(Debug, Clone)]
struct ProbePlan {
    fs: f64,
    n: usize,
    chunk: usize,
    /// Hum probes first (`PROBES_PER_HUM_BIN` per bin), then drift probes.
    num_hum: usize,
    num_probes: usize,
    coeffs: [f64; MAX_PROBES],
    /// Phases of a full chunk.
    full: ChunkPhases,
    /// Phases of the window's short last chunk (`n % chunk` samples).
    tail: ChunkPhases,
}

impl ProbePlan {
    fn new(quality: &QualityExtractor, n: usize) -> Self {
        let fs = quality.fs;
        let mut freqs = [0.0; MAX_PROBES];
        for (probes, &bin) in freqs
            .chunks_exact_mut(PROBES_PER_HUM_BIN)
            .zip(&quality.hum_bins)
        {
            probes.copy_from_slice(&[bin, bin - 2.0, bin + 2.0]);
        }
        // The lowest three DFT bins of the window (k / window_secs, i.e.
        // < 1 Hz for 4 s windows) below Nyquist. Unused lanes run with a
        // zero coefficient and are never read.
        let num_hum = PROBES_PER_HUM_BIN * quality.hum_bins.len();
        let mut coeffs = quality.hum_coeffs;
        let mut num_probes = num_hum;
        for k in 1..=DRIFT_BINS {
            let freq = k as f64 * fs / n as f64;
            if freq < fs / 2.0 {
                coeffs[num_probes] = goertzel_coeff(freq, fs);
                freqs[num_probes] = freq;
                num_probes += 1;
            }
        }
        let omegas = freqs.map(|f| 2.0 * PI * f / fs);
        let chunk = quality.chunk_samples();
        Self {
            fs,
            n,
            chunk,
            num_hum,
            num_probes,
            coeffs,
            full: ChunkPhases::new(&omegas, num_probes, chunk),
            tail: ChunkPhases::new(&omegas, num_probes, n % chunk),
        }
    }

    /// The cached plan for `(quality, n)`, rebuilt on a geometry change.
    fn cached<'p>(
        slot: &'p mut Option<ProbePlan>,
        quality: &QualityExtractor,
        n: usize,
    ) -> &'p ProbePlan {
        if slot
            .as_ref()
            .is_some_and(|p| p.n != n || p.fs.to_bits() != quality.fs.to_bits())
        {
            *slot = None;
        }
        slot.get_or_insert_with(|| ProbePlan::new(quality, n))
    }

    /// Phases of a chunk of `len` samples: a full chunk or the window tail.
    fn phases(&self, len: usize) -> &ChunkPhases {
        if len == self.chunk {
            &self.full
        } else {
            &self.tail
        }
    }
}

/// Everything one chunk of one channel contributes to the windows that
/// cover it (see the module docs).
#[derive(Debug, Clone, Copy)]
struct ChunkSummary {
    /// Finite extrema (`±∞` when the chunk holds no finite sample).
    lo: f64,
    hi: f64,
    /// Samples equal to `lo` / `hi`.
    n_lo: u32,
    n_hi: u32,
    non_finite: u32,
    /// Flat run opening the chunk, closing it, and the longest inside it.
    run_prefix: u32,
    run_suffix: u32,
    run_longest: u32,
    /// First and last raw sample.
    first: f64,
    last: f64,
    /// `Σc` and `Σ(c − m_j)²` of the sanitized samples.
    sum: f64,
    m2: f64,
    /// `Σ|Δc|` and `max |Δc|` over the chunk-internal steps.
    step_sum: f64,
    max_step: f64,
    /// `Σ_u (c_u − m_j)·e^{-iωu}` per probe.
    partials: [Complex; MAX_PROBES],
}

impl ChunkSummary {
    const EMPTY: Self = Self {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
        n_lo: 0,
        n_hi: 0,
        non_finite: 0,
        run_prefix: 0,
        run_suffix: 0,
        run_longest: 0,
        first: 0.0,
        last: 0.0,
        sum: 0.0,
        m2: 0.0,
        step_sum: 0.0,
        max_step: 0.0,
        partials: [Complex { re: 0.0, im: 0.0 }; MAX_PROBES],
    };

    /// Summarizes one non-empty chunk.
    // lint: hot-path
    fn of(chunk: &[f64], plan: &ProbePlan) -> Self {
        let phases = plan.phases(chunk.len());
        // Pass 1: extrema with their counts, census, runs, sum.
        let mut s = Self::EMPTY;
        let mut sum = -0.0_f64;
        let mut run = 0u32;
        let mut prev = chunk[0];
        for &v in chunk {
            if v.is_finite() {
                if v < s.lo {
                    s.lo = v;
                    s.n_lo = 0;
                }
                s.n_lo += u32::from(v == s.lo);
                if v > s.hi {
                    s.hi = v;
                    s.n_hi = 0;
                }
                s.n_hi += u32::from(v == s.hi);
                sum += v;
            } else {
                s.non_finite += 1;
            }
            // The first sample matches itself and opens a run of one.
            run = if same_level(prev, v) { run + 1 } else { 1 };
            s.run_longest = s.run_longest.max(run);
            prev = v;
        }
        s.run_suffix = run;
        s.run_prefix = 1 + chunk
            .windows(2)
            .take_while(|p| same_level(p[0], p[1]))
            .count() as u32;
        s.first = chunk[0];
        s.last = prev;
        s.sum = sum;

        // Pass 2: chunk-centred samples — M2, steps and every probe.
        let mean = sum / chunk.len() as f64;
        let mut s1 = [0.0_f64; MAX_PROBES];
        let mut s2 = [0.0_f64; MAX_PROBES];
        let mut prev = sanitize(chunk[0]);
        let x = prev - mean;
        let mut m2 = -0.0_f64 + x * x;
        let mut step_sum = -0.0_f64;
        let mut max_step = 0.0_f64;
        goertzel_step(&plan.coeffs, &mut s1, &mut s2, x);
        for &v in &chunk[1..] {
            let c = sanitize(v);
            let x = c - mean;
            m2 += x * x;
            let step = (c - prev).abs();
            step_sum += step;
            max_step = max_step.max(step);
            goertzel_step(&plan.coeffs, &mut s1, &mut s2, x);
            prev = c;
        }
        s.m2 = m2;
        s.step_sum = step_sum;
        s.max_step = max_step;
        // The Goertzel output `s1 − e^{-iω}s2` is the partial advanced by
        // `L − 1` samples.
        for p in 0..plan.num_probes {
            s.partials[p] = scaled(phases.last[p], s1[p]) - scaled(phases.step[p], s2[p]);
        }
        s
    }
}

/// A window's chunk summaries folded left to right (see the module docs).
#[derive(Debug, Clone, Copy)]
struct WindowFold {
    n: usize,
    lo: f64,
    hi: f64,
    n_lo: usize,
    n_hi: usize,
    non_finite: usize,
    longest: usize,
    /// Flat run closing the folded prefix, and its last raw sample.
    run: usize,
    last: f64,
    mean: f64,
    m2: f64,
    step_sum: f64,
    max_step: f64,
    /// Probe partials of the prefix, centred on `mean`.
    partials: [Complex; MAX_PROBES],
    /// `G_n(ω)` of the prefix, and its phase advance `e^{-iωn}`.
    geo: [Complex; MAX_PROBES],
    phase: [Complex; MAX_PROBES],
}

impl WindowFold {
    /// Opens a fold with the window's first chunk of `len` samples.
    fn first(s: &ChunkSummary, len: usize, plan: &ProbePlan) -> Self {
        let phases = plan.phases(len);
        Self {
            n: len,
            lo: s.lo,
            hi: s.hi,
            n_lo: s.n_lo as usize,
            n_hi: s.n_hi as usize,
            non_finite: s.non_finite as usize,
            longest: s.run_longest as usize,
            run: s.run_suffix as usize,
            last: s.last,
            mean: s.sum / len as f64,
            m2: s.m2,
            step_sum: s.step_sum,
            max_step: s.max_step,
            partials: s.partials,
            geo: phases.geo,
            phase: phases.step,
        }
    }

    /// Appends the next chunk of `len` samples.
    // lint: hot-path
    fn push(&mut self, s: &ChunkSummary, len: usize, plan: &ProbePlan) {
        if s.lo < self.lo {
            self.lo = s.lo;
            self.n_lo = 0;
        }
        if s.lo == self.lo {
            self.n_lo += s.n_lo as usize;
        }
        if s.hi > self.hi {
            self.hi = s.hi;
            self.n_hi = 0;
        }
        if s.hi == self.hi {
            self.n_hi += s.n_hi as usize;
        }
        self.non_finite += s.non_finite as usize;

        if same_level(self.last, s.first) {
            let joined = self.run + s.run_prefix as usize;
            self.longest = self.longest.max(joined);
            self.run = if s.run_prefix as usize == len {
                joined
            } else {
                s.run_suffix as usize
            };
        } else {
            self.run = s.run_suffix as usize;
        }
        self.longest = self.longest.max(s.run_longest as usize);

        let step = (sanitize(s.first) - sanitize(self.last)).abs();
        self.step_sum = self.step_sum + step + s.step_sum;
        self.max_step = self.max_step.max(step).max(s.max_step);
        self.last = s.last;

        // Chan's update, then the same mean shift on every probe partial.
        let (na, nb) = (self.n as f64, len as f64);
        let n = na + nb;
        let mean_b = s.sum / nb;
        let delta = mean_b - self.mean;
        let mean = self.mean + delta * (nb / n);
        self.m2 = self.m2 + s.m2 + delta * delta * (na * nb / n);
        let shift_a = self.mean - mean;
        let shift_b = mean_b - mean;
        let phases = plan.phases(len);
        for p in 0..plan.num_probes {
            let b = s.partials[p] + scaled(phases.geo[p], shift_b);
            self.partials[p] = self.partials[p] + scaled(self.geo[p], shift_a) + self.phase[p] * b;
            self.geo[p] = self.geo[p] + self.phase[p] * phases.geo[p];
            self.phase[p] = self.phase[p] * phases.step[p];
        }
        self.mean = mean;
        self.n += len;
    }

    /// Writes the channel's seven indicators for the window `raw` the fold
    /// covers, running the per-window median-step pass.
    // lint: hot-path
    fn finish(&self, raw: &[f64], plan: &ProbePlan, steps: &mut Vec<u64>, out: &mut [f64]) {
        debug_assert_eq!(self.n, raw.len());
        let nf = raw.len() as f64;
        // Railed fraction: pinned samples (when the window has two distinct
        // rails), plus every non-finite sample (an overflowed ADC reads as
        // railed, not absent).
        let railed = if self.hi > self.lo {
            ((self.n_lo + self.n_hi + self.non_finite) as f64 / nf).min(1.0)
        } else {
            (self.non_finite as f64 / nf).min(1.0)
        };
        let amplitude = if self.lo <= self.hi {
            self.lo.abs().max(self.hi.abs())
        } else {
            0.0
        };
        let moments = if amplitude > LARGE_AMPLITUDE {
            Moments::sweep(raw, plan, steps)
        } else {
            steps.clear();
            steps.resize(raw.len() - 1, 0);
            let mut prev = sanitize(raw[0]);
            for (d, &v) in steps.iter_mut().zip(&raw[1..]) {
                let c = sanitize(v);
                *d = (c - prev).abs().to_bits();
                prev = c;
            }
            let mut power = [0.0; MAX_PROBES];
            for (p, z) in power.iter_mut().zip(&self.partials).take(plan.num_probes) {
                *p = z.magnitude_squared();
            }
            Moments {
                mean: self.mean,
                total_energy: self.m2 + nf * self.mean * self.mean,
                ac_energy: self.m2,
                step_sum: self.step_sum,
                max_step: self.max_step,
                power,
            }
        };
        out[IDX_RAILED_FRAC] = railed;
        out[IDX_FLAT_RUN_FRAC] = self.longest as f64 / nf;
        moments.indicators(nf, median_step(steps), plan, out);
    }
}

/// Median of the step magnitudes held as bit patterns: with the sign bit
/// clear, unsigned order is `f64::total_cmp` order, so the selection ranks
/// NaN and ∞ deterministically.
// lint: hot-path
fn median_step(steps: &mut [u64]) -> f64 {
    let mid = steps.len() / 2;
    let (_, median, _) = steps.select_nth_unstable(mid);
    f64::from_bits(*median)
}

/// The window-level sums the continuous indicators are read from.
struct Moments {
    mean: f64,
    /// `Σc²`.
    total_energy: f64,
    /// `Σ(c − mean)²`.
    ac_energy: f64,
    step_sum: f64,
    max_step: f64,
    /// Squared DFT magnitude per probe.
    power: [f64; MAX_PROBES],
}

impl Moments {
    /// The sequential sweep for large-amplitude windows: energy and sum,
    /// then the window-centred samples — AC energy, steps (into `steps`) and
    /// every Goertzel probe — in sample order, so IEEE overflow lands where
    /// a sample-by-sample evaluation puts it.
    fn sweep(raw: &[f64], plan: &ProbePlan, steps: &mut Vec<u64>) -> Self {
        let nf = raw.len() as f64;
        let mut total_energy = -0.0_f64;
        let mut sum = -0.0_f64;
        for &v in raw {
            let c = sanitize(v);
            total_energy += c * c;
            sum += c;
        }
        let mean = sum / nf;
        let mut s1 = [0.0_f64; MAX_PROBES];
        let mut s2 = [0.0_f64; MAX_PROBES];
        steps.clear();
        steps.resize(raw.len() - 1, 0);
        let mut prev = sanitize(raw[0]) - mean;
        let mut ac_energy = -0.0_f64 + prev * prev;
        let mut step_sum = -0.0_f64;
        let mut max_step = 0.0_f64;
        goertzel_step(&plan.coeffs, &mut s1, &mut s2, prev);
        for (d, &v) in steps.iter_mut().zip(&raw[1..]) {
            let x = sanitize(v) - mean;
            ac_energy += x * x;
            let step = (x - prev).abs();
            *d = step.to_bits();
            step_sum += step;
            max_step = max_step.max(step);
            goertzel_step(&plan.coeffs, &mut s1, &mut s2, x);
            prev = x;
        }
        let mut power = [0.0; MAX_PROBES];
        for (p, slot) in power.iter_mut().enumerate() {
            *slot = goertzel_power(plan.coeffs[p], s1[p], s2[p]);
        }
        Self {
            mean,
            total_energy,
            ac_energy,
            step_sum,
            max_step,
            power,
        }
    }

    /// Line length, hum, drift, jump and log-std of one channel.
    fn indicators(&self, nf: f64, median_step: f64, plan: &ProbePlan, out: &mut [f64]) {
        let std = (self.ac_energy / nf).sqrt();
        let log_std = (std + 1e-12).ln();
        let line_length = self.step_sum / (nf - 1.0);
        let max_jump = (self.max_step / (1.4826 * median_step + 1e-12)).min(1e6);

        // Aliased mains hum: tone-energy fraction at each observable folded
        // bin, weighted by spectral sharpness against ±2 Hz neighbours so
        // broadband (or ictal) energy cannot trip it.
        let tone_norm = 2.0 / (nf * self.ac_energy + 1e-12);
        let mut hum: f64 = 0.0;
        for probe in (0..plan.num_hum).step_by(PROBES_PER_HUM_BIN) {
            let p = self.power[probe];
            let p_lo = self.power[probe + 1];
            let p_hi = self.power[probe + 2];
            let sharpness = p / (p + p_lo + p_hi + 1e-12);
            // A pure tone scores sharpness ≈ 1, broadband noise ≈ 1/3.
            let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
            hum = hum.max((p * tone_norm).min(1.0) * weight);
        }

        // Baseline drift: DC offset plus the drift bins as a share of total
        // window energy.
        let mut drift_energy = nf * self.mean * self.mean;
        for &p in &self.power[plan.num_hum..plan.num_probes] {
            drift_energy += p * 2.0 / nf;
        }
        let drift = (drift_energy / (self.total_energy + 1e-12)).clamp(0.0, 1.0);

        out[IDX_LINE_LENGTH] = line_length;
        out[IDX_HUM_RATIO] = hum;
        out[IDX_DRIFT_RATIO] = drift;
        out[IDX_MAX_JUMP_SIGMA] = max_jump;
        out[IDX_LOG_STD] = log_std;
    }
}

/// Reusable buffers for one window's worth of quality arithmetic. Acquire
/// one per worker (or per streaming detector) and hand it to
/// [`QualityExtractor::assess_window_into`] so repeated assessments stay
/// allocation-free; [`QualityScratch::for_window`] sizes it up front so not
/// even the first window allocates. It also caches the probe tables of the
/// last window length it graded.
#[derive(Debug, Default)]
pub struct QualityScratch {
    /// Step magnitudes of the window as `f64` bit patterns.
    steps: Vec<u64>,
    plan: Option<ProbePlan>,
}

impl QualityScratch {
    /// Scratch pre-sized for windows of up to `window_samples` samples.
    #[must_use]
    pub fn for_window(window_samples: usize) -> Self {
        Self {
            steps: Vec::with_capacity(window_samples),
            plan: None,
        }
    }
}

/// Computes the per-window quality indicator matrix for a channel pair.
///
/// Construction pre-resolves which aliased mains bins are observable at the
/// given sampling rate and their Goertzel coefficients; everything else is
/// stateless.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityExtractor {
    fs: f64,
    hum_bins: Vec<f64>,
    /// Coefficients of the hum probes, `(bin, bin − 2, bin + 2)` per entry of
    /// `hum_bins`, then zeros.
    hum_coeffs: [f64; MAX_PROBES],
}

impl QualityExtractor {
    /// Creates the extractor for signals sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if `fs` is not a positive
    /// finite number.
    pub fn new(fs: f64) -> Result<Self, FeatureError> {
        check_sampling_frequency(fs)?;
        let mut hum_bins: Vec<f64> = Vec::new();
        for f in MAINS_FAMILY {
            let folded = alias(f, fs);
            // Keep bins clear of the seizure band and of Nyquist (their ±2 Hz
            // sharpness neighbours must also stay inside (0, fs/2)).
            if folded >= MIN_HUM_FREQ
                && folded + 2.0 < fs / 2.0
                && !hum_bins.iter().any(|&b| (b - folded).abs() < 1e-9)
            {
                hum_bins.push(folded);
            }
        }
        let mut hum_coeffs = [0.0; MAX_PROBES];
        for (probes, &bin) in hum_coeffs
            .chunks_exact_mut(PROBES_PER_HUM_BIN)
            .zip(&hum_bins)
        {
            probes[0] = goertzel_coeff(bin, fs);
            probes[1] = goertzel_coeff(bin - 2.0, fs);
            probes[2] = goertzel_coeff(bin + 2.0, fs);
        }
        Ok(Self {
            fs,
            hum_bins,
            hum_coeffs,
        })
    }

    /// Sampling frequency the extractor was built for.
    #[must_use]
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Aliased mains bins (Hz) actually probed at this sampling rate.
    #[must_use]
    pub fn hum_bins(&self) -> &[f64] {
        &self.hum_bins
    }

    /// Samples per chunk of the kernel: one second, `fs` rounded, at least
    /// one.
    #[must_use]
    pub fn chunk_samples(&self) -> usize {
        (self.fs.round() as usize).max(1)
    }

    /// Names of the produced quality features, in column order.
    #[must_use]
    pub fn feature_names() -> Vec<String> {
        let per_channel = [
            "line_length",
            "railed_frac",
            "flat_run_frac",
            "hum_ratio",
            "drift_ratio",
            "max_jump_sigma",
            "log_std",
        ];
        let mut names: Vec<String> = Vec::with_capacity(NUM_QUALITY_FEATURES);
        for prefix in ["f7t3", "f8t4"] {
            for name in per_channel {
                names.push(format!("quality_{prefix}_{name}"));
            }
        }
        names.push("quality_cross_channel_disagreement".to_string());
        names
    }

    /// Quality indicators of a single window pair as a fresh vector.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] on unequal channels
    /// and [`FeatureError::SignalTooShort`] for windows of fewer than four
    /// samples.
    pub fn assess_window(&self, f7t3: &[f64], f8t4: &[f64]) -> Result<Vec<f64>, FeatureError> {
        let mut out = vec![0.0; NUM_QUALITY_FEATURES];
        let mut scratch = QualityScratch::for_window(f7t3.len());
        self.assess_window_into(f7t3, f8t4, &mut out, &mut scratch)?;
        Ok(out)
    }

    /// Fills the quality feature matrix for every sliding window of the
    /// channel pair, reusing `matrix`'s allocation across calls. Runs a
    /// [`StreamingQuality`] over the record, so every one-second chunk is
    /// summarized once when chunks tile the hop; rows are bit-identical to
    /// [`QualityExtractor::assess_window_into`] on each window.
    ///
    /// # Errors
    ///
    /// Same contract as [`crate::extractor::RichFeatureSet::extract_batch_into`].
    pub fn extract_batch_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        config: &SlidingWindowConfig,
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        let count = config.num_windows(f7t3.len());
        if count == 0 {
            return Err(FeatureError::SignalTooShort {
                actual: f7t3.len(),
                required: config.window_samples(),
            });
        }
        matrix.ensure_names(Self::feature_names);
        let data = matrix.reset_rows(count);
        let mut stream = StreamingQuality::with_extractor(self.clone(), config);
        let (window, step) = (config.window_samples(), config.step_samples());
        // Windows advance by whole chunks: push each window's new full
        // chunks, then fold; a short last chunk is summarized per window.
        let full = stream.capacity * self.chunk_samples();
        let mut summarized = 0;
        for (w, row) in data.chunks_mut(NUM_QUALITY_FEATURES).enumerate() {
            let start = w * step;
            let end = start + full;
            stream.push_hop(&f7t3[summarized..end], &f8t4[summarized..end])?;
            summarized = end;
            stream.assess_window_into(
                &f7t3[start..start + window],
                &f8t4[start..start + window],
                row,
            )?;
        }
        Ok(())
    }

    /// Assesses one window pair into a caller-provided row of
    /// [`NUM_QUALITY_FEATURES`] slots, reusing `scratch` buffers — the
    /// definition of the indicators: the slice's one-second chunks are
    /// summarized and folded (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the windows differ
    /// in length and [`FeatureError::SignalTooShort`] below four samples.
    // lint: hot-path
    pub fn assess_window_into(
        &self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
        scratch: &mut QualityScratch,
    ) -> Result<(), FeatureError> {
        check_window(f7t3, f8t4)?;
        debug_assert_eq!(out.len(), NUM_QUALITY_FEATURES);
        let plan = ProbePlan::cached(&mut scratch.plan, self, f7t3.len());
        for (channel, raw) in [f7t3, f8t4].into_iter().enumerate() {
            let (head, rest) = raw.split_at(plan.chunk.min(raw.len()));
            let mut fold = WindowFold::first(&ChunkSummary::of(head, plan), head.len(), plan);
            for chunk in rest.chunks(plan.chunk) {
                fold.push(&ChunkSummary::of(chunk, plan), chunk.len(), plan);
            }
            fold.finish(raw, plan, &mut scratch.steps, channel_block(out, channel));
        }
        write_disagreement(out);
        Ok(())
    }
}

/// Shared window checks: equal channel lengths, at least four samples.
fn check_window(f7t3: &[f64], f8t4: &[f64]) -> Result<(), FeatureError> {
    if f7t3.len() != f8t4.len() {
        return Err(FeatureError::ChannelLengthMismatch {
            left: f7t3.len(),
            right: f8t4.len(),
        });
    }
    if f7t3.len() < 4 {
        return Err(FeatureError::SignalTooShort {
            actual: f7t3.len(),
            required: 4,
        });
    }
    Ok(())
}

/// The seven per-channel slots of `channel` in a quality row.
fn channel_block(out: &mut [f64], channel: usize) -> &mut [f64] {
    let at = channel * QUALITY_FEATURES_PER_CHANNEL;
    &mut out[at..at + QUALITY_FEATURES_PER_CHANNEL]
}

/// Fills the cross-channel column from the two `log_std` slots.
fn write_disagreement(out: &mut [f64]) {
    let log_a = out[channel_column(0, IDX_LOG_STD)];
    let log_b = out[channel_column(1, IDX_LOG_STD)];
    out[IDX_DISAGREEMENT] = (log_a - log_b).abs();
}

/// The quality kernel driven across overlapping windows: a ring of chunk
/// summaries per channel, so each one-second chunk is summarized once
/// however many windows cover it.
///
/// Feed every hop through [`StreamingQuality::push_hop`] as it lands, then
/// grade each completed window with [`StreamingQuality::assess_window_into`]
/// on its samples (the median step reads them; the rest comes from the
/// ring). When one-second chunks do not tile the hop, `push_hop` does
/// nothing and every window runs the window kernel. Either way the row is
/// bit-identical to [`QualityExtractor::assess_window_into`] on the same
/// samples.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::SlidingWindowConfig;
/// use seizure_features::quality::{
///     QualityExtractor, QualityScratch, StreamingQuality, NUM_QUALITY_FEATURES,
/// };
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let config = SlidingWindowConfig::paper_default(256.0)?;
/// let (window, hop) = (config.window_samples(), config.step_samples());
/// let a: Vec<f64> = (0..window + 2 * hop).map(|i| (i as f64 * 0.07).sin()).collect();
/// let b: Vec<f64> = (0..window + 2 * hop).map(|i| (i as f64 * 0.11).cos()).collect();
///
/// let mut stream = StreamingQuality::new(&config)?;
/// assert!(stream.folds());
/// let kernel = QualityExtractor::new(256.0)?;
/// let mut scratch = QualityScratch::default();
/// let (mut row, mut expected) = ([0.0; NUM_QUALITY_FEATURES], [0.0; NUM_QUALITY_FEATURES]);
/// for h in 0..a.len() / hop {
///     let at = h * hop;
///     stream.push_hop(&a[at..at + hop], &b[at..at + hop])?;
///     if at + hop >= window {
///         let w = at + hop - window;
///         let (wa, wb) = (&a[w..w + window], &b[w..w + window]);
///         stream.assess_window_into(wa, wb, &mut row)?;
///         kernel.assess_window_into(wa, wb, &mut expected, &mut scratch)?;
///         assert_eq!(row.map(f64::to_bits), expected.map(f64::to_bits));
///     }
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingQuality {
    quality: QualityExtractor,
    scratch: QualityScratch,
    window: usize,
    /// Full chunks per window when chunks tile the hop, else 0.
    capacity: usize,
    /// Summaries of the last `capacity` chunks per channel, by chunk
    /// number modulo `capacity`.
    ring: [Vec<ChunkSummary>; 2],
    /// Chunks pushed since construction or the last reset.
    pushed: usize,
}

impl StreamingQuality {
    /// Builds the streaming grader for the window geometry of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] if the sampling frequency is
    /// not positive and finite.
    pub fn new(config: &SlidingWindowConfig) -> Result<Self, FeatureError> {
        Ok(Self::with_extractor(
            QualityExtractor::new(config.sampling_frequency())?,
            config,
        ))
    }

    fn with_extractor(quality: QualityExtractor, config: &SlidingWindowConfig) -> Self {
        let window = config.window_samples();
        let chunk = quality.chunk_samples();
        let capacity = if config.step_samples().is_multiple_of(chunk) {
            window / chunk
        } else {
            0
        };
        let mut scratch = QualityScratch::for_window(window);
        ProbePlan::cached(&mut scratch.plan, &quality, window);
        Self {
            quality,
            scratch,
            window,
            capacity,
            ring: [
                vec![ChunkSummary::EMPTY; capacity],
                vec![ChunkSummary::EMPTY; capacity],
            ],
            pushed: 0,
        }
    }

    /// Whether chunk summaries are reused across windows (one-second chunks
    /// tile the hop); otherwise every window runs the window kernel.
    #[must_use]
    pub fn folds(&self) -> bool {
        self.capacity > 0
    }

    /// Bytes of carried state: the chunk-summary ring of both channels
    /// (`CHUNK_SUMMARY_F64_SLOTS` `f64` plus `CHUNK_SUMMARY_U32_SLOTS` `u32`
    /// per summary); zero when the geometry does not fold.
    #[must_use]
    pub fn state_bytes(&self) -> usize {
        2 * self.capacity * (CHUNK_SUMMARY_F64_SLOTS * 8 + CHUNK_SUMMARY_U32_SLOTS * 4)
    }

    /// Forgets the carried chunks so the next hop starts a new record.
    pub fn reset(&mut self) {
        self.pushed = 0;
    }

    /// Summarizes the one-second chunks of a newly landed hop (any whole
    /// number of chunks) into the ring; does nothing when the geometry does
    /// not fold.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the slices differ
    /// in length and [`FeatureError::DimensionMismatch`] if they are not a
    /// whole number of chunks.
    // lint: hot-path
    pub fn push_hop(&mut self, f7t3: &[f64], f8t4: &[f64]) -> Result<(), FeatureError> {
        if self.capacity == 0 {
            return Ok(());
        }
        let chunk = self.quality.chunk_samples();
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        if !f7t3.len().is_multiple_of(chunk) {
            return Err(chunk_mismatch(f7t3.len(), chunk));
        }
        let plan = ProbePlan::cached(&mut self.scratch.plan, &self.quality, self.window);
        for (a, b) in f7t3.chunks_exact(chunk).zip(f8t4.chunks_exact(chunk)) {
            let slot = self.pushed % self.capacity;
            self.ring[0][slot] = ChunkSummary::of(a, plan);
            self.ring[1][slot] = ChunkSummary::of(b, plan);
            self.pushed += 1;
        }
        Ok(())
    }

    /// Grades the window whose full chunks are the last ones pushed, given
    /// its samples, into a row of [`NUM_QUALITY_FEATURES`] slots.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] on unequal channels,
    /// [`FeatureError::SignalTooShort`] below four samples, and
    /// [`FeatureError::DimensionMismatch`] if a folding grader gets a window
    /// of the wrong length or fewer chunks than one window holds.
    // lint: hot-path
    pub fn assess_window_into(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        out: &mut [f64],
    ) -> Result<(), FeatureError> {
        if self.capacity == 0 {
            return self
                .quality
                .assess_window_into(f7t3, f8t4, out, &mut self.scratch);
        }
        check_window(f7t3, f8t4)?;
        if f7t3.len() != self.window || self.pushed < self.capacity {
            return Err(window_mismatch(f7t3.len(), self.window, self.pushed));
        }
        debug_assert_eq!(out.len(), NUM_QUALITY_FEATURES);
        let plan = ProbePlan::cached(&mut self.scratch.plan, &self.quality, self.window);
        let oldest = self.pushed - self.capacity;
        for (channel, raw) in [f7t3, f8t4].into_iter().enumerate() {
            let ring = &self.ring[channel];
            let slot = |j: usize| &ring[(oldest + j) % self.capacity];
            let mut fold = WindowFold::first(slot(0), plan.chunk, plan);
            for j in 1..self.capacity {
                fold.push(slot(j), plan.chunk, plan);
            }
            let tail = &raw[self.capacity * plan.chunk..];
            if !tail.is_empty() {
                fold.push(&ChunkSummary::of(tail, plan), tail.len(), plan);
            }
            fold.finish(
                raw,
                plan,
                &mut self.scratch.steps,
                channel_block(out, channel),
            );
        }
        write_disagreement(out);
        Ok(())
    }
}

/// Misuse-only error constructor for a hop that is not whole chunks.
#[cold]
fn chunk_mismatch(actual: usize, chunk: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!("hop has {actual} samples, not a whole number of {chunk}-sample chunks"),
    }
}

/// Misuse-only error constructor for a window the ring cannot fold.
#[cold]
fn window_mismatch(actual: usize, window: usize, pushed: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "window has {actual} samples (expected {window}) after {pushed} pushed chunks"
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sine(fs: f64, freq: f64, amp: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| amp * (2.0 * PI * freq * i as f64 / fs).sin())
            .collect()
    }

    fn noise(seed: u64, n: usize) -> Vec<f64> {
        // Tiny deterministic LCG; good enough for indicator-level tests.
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn names_match_layout() {
        let names = QualityExtractor::feature_names();
        assert_eq!(names.len(), NUM_QUALITY_FEATURES);
        assert_eq!(
            names[channel_column(0, IDX_HUM_RATIO)],
            "quality_f7t3_hum_ratio"
        );
        assert_eq!(
            names[channel_column(1, IDX_LOG_STD)],
            "quality_f8t4_log_std"
        );
        assert_eq!(
            names[IDX_DISAGREEMENT],
            "quality_cross_channel_disagreement"
        );
    }

    #[test]
    fn aliased_bins_skip_the_seizure_band() {
        // At 64 Hz: 50 → 14 and 100 → 28 are kept; 60 → 4 and 120 → 8 fold
        // into the ictal band and are skipped.
        let q = QualityExtractor::new(64.0).unwrap();
        assert_eq!(q.hum_bins(), &[14.0, 28.0]);
        // At 256 Hz nothing folds and everything is observable.
        let q = QualityExtractor::new(256.0).unwrap();
        assert_eq!(q.hum_bins(), &[50.0, 60.0, 100.0, 120.0]);
    }

    #[test]
    fn indicators_are_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(7, 256);
        let b = noise(9, 256);
        assert_eq!(
            q.assess_window(&a, &b).unwrap(),
            q.assess_window(&a, &b).unwrap()
        );
    }

    #[test]
    fn nan_laced_window_yields_finite_deterministic_indicators() {
        // Regression for the NaN-unsafe median-step sort: indicators must
        // come out finite and reproducible even when the raw window carries
        // NaN/±inf samples (they are sanitized to 0 before any arithmetic).
        let q = QualityExtractor::new(64.0).unwrap();
        let mut a = noise(11, 256);
        a[3] = f64::NAN;
        a[100] = f64::INFINITY;
        a[200] = f64::NEG_INFINITY;
        let b = noise(13, 256);
        let first = q.assess_window(&a, &b).unwrap();
        assert!(first.iter().all(|v| v.is_finite()), "{first:?}");
        assert_eq!(first, q.assess_window(&a, &b).unwrap());
    }

    #[test]
    fn hum_is_detected_and_clean_noise_is_not() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let clean = noise(3, n);
        let mut hummy = clean.clone();
        for (i, v) in hummy.iter_mut().enumerate() {
            // 50 Hz sampled at 64 Hz lands on the 14 Hz alias.
            *v += 2.0 * (2.0 * PI * 50.0 * i as f64 / 64.0).sin();
        }
        let base = q.assess_window(&clean, &clean).unwrap();
        let hum = q.assess_window(&hummy, &hummy).unwrap();
        assert!(base[IDX_HUM_RATIO] < 0.1, "clean {}", base[IDX_HUM_RATIO]);
        assert!(hum[IDX_HUM_RATIO] > 0.5, "hum {}", hum[IDX_HUM_RATIO]);
    }

    #[test]
    fn drift_is_detected() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let mut wander = noise(5, n);
        let slow = sine(64.0, 0.4, 6.0, n);
        for (v, s) in wander.iter_mut().zip(&slow) {
            *v += s;
        }
        let clean = q.assess_window(&noise(5, n), &noise(6, n)).unwrap();
        let drifted = q.assess_window(&wander, &wander).unwrap();
        assert!(drifted[IDX_DRIFT_RATIO] > 0.8);
        assert!(clean[IDX_DRIFT_RATIO] < drifted[IDX_DRIFT_RATIO]);
    }

    #[test]
    fn hostile_inputs_stay_finite_and_deterministic() {
        let q = QualityExtractor::new(64.0).unwrap();
        let n = 256;
        let flat = vec![3.25; n];
        let mut railed = noise(1, n);
        for v in railed.iter_mut() {
            *v = v.clamp(-0.1, 0.1);
        }
        let mut nans = noise(2, n);
        for v in nans.iter_mut().step_by(5) {
            *v = f64::NAN;
        }
        nans[17] = f64::INFINITY;
        nans[42] = f64::NEG_INFINITY;
        let all_nan = vec![f64::NAN; n];
        let zeros = vec![0.0; n];

        for (a, b) in [
            (&flat, &zeros),
            (&railed, &flat),
            (&nans, &railed),
            (&all_nan, &all_nan),
        ] {
            let row = q.assess_window(a, b).unwrap();
            assert_eq!(row.len(), NUM_QUALITY_FEATURES);
            assert!(row.iter().all(|v| v.is_finite()), "{row:?}");
            assert_eq!(row, q.assess_window(a, b).unwrap());
        }

        let flat_row = q.assess_window(&flat, &flat).unwrap();
        assert!(flat_row[IDX_FLAT_RUN_FRAC] > 0.99);
        let rail_row = q.assess_window(&railed, &railed).unwrap();
        assert!(
            rail_row[IDX_RAILED_FRAC] > 0.3,
            "{}",
            rail_row[IDX_RAILED_FRAC]
        );
        let nan_row = q.assess_window(&all_nan, &all_nan).unwrap();
        assert!(nan_row[IDX_RAILED_FRAC] > 0.99);
        assert!(nan_row[IDX_FLAT_RUN_FRAC] > 0.99);
    }

    #[test]
    fn electrode_pop_spikes_the_jump_indicator() {
        let q = QualityExtractor::new(64.0).unwrap();
        let mut popped = noise(11, 256);
        let rms = (popped.iter().map(|v| v * v).sum::<f64>() / 256.0).sqrt();
        for v in popped.iter_mut().skip(100) {
            *v += 12.0 * rms;
        }
        let clean = q.assess_window(&noise(11, 256), &noise(12, 256)).unwrap();
        let pop = q.assess_window(&popped, &popped).unwrap();
        assert!(pop[IDX_MAX_JUMP_SIGMA] > 3.0 * clean[IDX_MAX_JUMP_SIGMA]);
    }

    #[test]
    fn disagreement_tracks_amplitude_mismatch() {
        let q = QualityExtractor::new(64.0).unwrap();
        let a = noise(21, 256);
        let big: Vec<f64> = a.iter().map(|v| v * 40.0).collect();
        let same = q.assess_window(&a, &a).unwrap();
        let differ = q.assess_window(&a, &big).unwrap();
        assert!(same[IDX_DISAGREEMENT] < 1e-9);
        assert!((differ[IDX_DISAGREEMENT] - 40.0_f64.ln()).abs() < 1e-6);
    }

    #[test]
    fn batch_fill_matches_single_window_and_reuses_the_matrix() {
        let q = QualityExtractor::new(64.0).unwrap();
        let config = SlidingWindowConfig::new(64.0, 4.0, 0.75).unwrap();
        let a = noise(31, 64 * 20);
        let b = noise(32, 64 * 20);
        let mut matrix = FeatureMatrix::with_names(QualityExtractor::feature_names());
        q.extract_batch_into(&a, &b, &config, &mut matrix).unwrap();
        assert_eq!(matrix.num_features(), NUM_QUALITY_FEATURES);
        assert_eq!(matrix.num_windows(), config.num_windows(a.len()));
        let w = config.window_samples();
        let step = config.step_samples();
        for i in [0usize, 3, matrix.num_windows() - 1] {
            let s = i * step;
            let row = q.assess_window(&a[s..s + w], &b[s..s + w]).unwrap();
            assert_eq!(matrix.row(i), row.as_slice());
        }
        // Refill with a shorter signal: the matrix shrinks accordingly.
        q.extract_batch_into(&a[..64 * 8], &b[..64 * 8], &config, &mut matrix)
            .unwrap();
        assert_eq!(matrix.num_windows(), config.num_windows(64 * 8));
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        assert!(QualityExtractor::new(0.0).is_err());
        assert!(QualityExtractor::new(f64::NAN).is_err());
        let q = QualityExtractor::new(64.0).unwrap();
        assert!(q.assess_window(&[1.0; 8], &[1.0; 9]).is_err());
        assert!(q.assess_window(&[1.0; 2], &[1.0; 2]).is_err());
    }

    /// Sampling rates the bit-identity property covers.
    const ORACLE_RATES: [f64; 5] = [64.0, 100.0, 128.0, 173.0, 256.0];
    /// Number of window kinds [`oracle_window`] draws from.
    const ORACLE_KINDS: usize = 11;

    /// An `n`-sample window at `fs` Hz: random content (kind 0) or one of
    /// the hostile shapes the quality front end exists to absorb.
    fn oracle_window(kind: usize, seed: u64, n: usize, fs: f64) -> Vec<f64> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let scale = 10f64.powi((next() % 13) as i32 - 6);
        let base: Vec<f64> = noise(next(), n).iter().map(|v| v * scale).collect();
        let at = (next() % n as u64) as usize;
        match kind {
            0 => base,
            // NaN / ±∞ laced.
            1 => base
                .iter()
                .map(|&v| match next() % 9 {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    _ => v,
                })
                .collect(),
            // Nothing finite at all.
            2 => (0..n)
                .map(|_| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(next() % 3) as usize])
                .collect(),
            // Railed: clipped at both rails.
            3 => base
                .iter()
                .map(|v| v.clamp(-0.2 * scale, 0.2 * scale))
                .collect(),
            // Flat.
            4 => vec![base[0]; n],
            // All negative zero.
            5 => vec![-0.0; n],
            // Step pop plus a one-sample spike.
            6 => {
                let mut w = base;
                for v in &mut w[at..] {
                    *v += 50.0 * scale;
                }
                w[n - 1 - at] -= 200.0 * scale;
                w
            }
            // Quantized ADC codes: many tied steps, signed zeros.
            7 => base
                .iter()
                .map(|v| {
                    let code = (v / scale * 8.0).round();
                    if code == 0.0 && next() % 2 == 0 {
                        -0.0
                    } else {
                        code
                    }
                })
                .collect(),
            // Aliased mains hum on top of slow wander.
            8 => base
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    let t = i as f64 / fs;
                    v + scale
                        * (3.0 * (2.0 * PI * 50.0 * t).sin() + 5.0 * (2.0 * PI * 0.3 * t).sin())
                })
                .collect(),
            // Dropout: a flat stretch and a NaN stretch inside the signal.
            9 => {
                let mut w = base;
                let len = n / 3;
                let first = at.min(n - len);
                for v in &mut w[first..first + len] {
                    *v = 1.5 * scale;
                }
                for v in w.iter_mut().rev().take(len / 2) {
                    *v = f64::NAN;
                }
                w
            }
            // Huge finite samples: sums and steps overflow to ∞ and NaN.
            _ => base
                .iter()
                .map(|v| {
                    if v.is_sign_negative() {
                        -f64::MAX
                    } else {
                        f64::MAX / (1.0 + v.abs())
                    }
                })
                .collect(),
        }
    }

    fn bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// Largest finite sanitized magnitude of a window (0 if none).
    fn amplitude(raw: &[f64]) -> f64 {
        raw.iter()
            .filter(|v| v.is_finite())
            .fold(0.0_f64, |m, v| m.max(v.abs()))
    }

    /// Relative bound of the continuous indicators against the oracle.
    const ORACLE_TOL: f64 = 1e-9;

    /// Checks a kernel row against the oracle row per the module's error
    /// model; returns the first violation.
    fn check_against_oracle(
        row: &[f64],
        oracle: &[f64],
        a: &[f64],
        b: &[f64],
    ) -> Result<(), String> {
        if raw_level(row) != raw_level(oracle) {
            return Err(format!(
                "raw_level {} vs oracle {}",
                raw_level(row),
                raw_level(oracle)
            ));
        }
        // A large-amplitude channel takes the sequential sweep: its block is
        // bit-identical, non-finite values included.
        let large = [a, b].map(|raw| amplitude(raw) > LARGE_AMPLITUDE);
        for (channel, _) in large.iter().enumerate().filter(|(_, l)| **l) {
            let block = channel * QUALITY_FEATURES_PER_CHANNEL
                ..(channel + 1) * QUALITY_FEATURES_PER_CHANNEL;
            if bits(&row[block.clone()]) != bits(&oracle[block]) {
                return Err(format!(
                    "large-amplitude channel {channel} is not bit-identical"
                ));
            }
        }
        let dust = |raw: &[f64], log_std: f64| {
            let floor = 1e-12 * (1.0 + amplitude(raw));
            (log_std.exp() - 1e-12) <= floor
        };
        let dusty = [
            dust(a, oracle[channel_column(0, IDX_LOG_STD)])
                && dust(a, row[channel_column(0, IDX_LOG_STD)]),
            dust(b, oracle[channel_column(1, IDX_LOG_STD)])
                && dust(b, row[channel_column(1, IDX_LOG_STD)]),
        ];
        for (col, (&got, &want)) in row.iter().zip(oracle).enumerate() {
            let channel = col / QUALITY_FEATURES_PER_CHANNEL;
            let indicator = col % QUALITY_FEATURES_PER_CHANNEL;
            if channel < 2 && large[channel] {
                continue;
            }
            if !got.is_finite() || !want.is_finite() {
                // Only a large-amplitude channel can carry a non-finite
                // value into the disagreement column; its class must match.
                let same_class = (got.is_nan() && want.is_nan()) || got == want;
                if col == IDX_DISAGREEMENT && (large[0] || large[1]) && same_class {
                    continue;
                }
                return Err(format!("column {col}: non-finite {got} vs oracle {want}"));
            }
            let exact = col != IDX_DISAGREEMENT
                && (indicator == IDX_RAILED_FRAC || indicator == IDX_FLAT_RUN_FRAC);
            if exact {
                if got.to_bits() != want.to_bits() {
                    return Err(format!(
                        "column {col}: {got} vs oracle {want} must be exact"
                    ));
                }
                continue;
            }
            let carved = if col == IDX_DISAGREEMENT {
                dusty[0] || dusty[1]
            } else {
                indicator == IDX_LOG_STD && dusty[channel]
            };
            if !carved && (got - want).abs() > ORACLE_TOL * (1.0 + want.abs()) {
                return Err(format!("column {col}: {got} vs oracle {want}"));
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(768))]

        #[test]
        fn kernel_matches_reference_within_the_error_model(
            rate in 0usize..ORACLE_RATES.len(),
            n in 4usize..1100,
            kind_a in 0usize..ORACLE_KINDS,
            kind_b in 0usize..ORACLE_KINDS,
            seed in any::<u64>(),
        ) {
            let fs = ORACLE_RATES[rate];
            let q = QualityExtractor::new(fs).unwrap();
            let a = oracle_window(kind_a, seed, n, fs);
            let b = oracle_window(kind_b, seed ^ 0x5555, n, fs);
            let row = q.assess_window(&a, &b).unwrap();
            let oracle = reference::assess_window(&q, &a, &b);
            let verdict = check_against_oracle(&row, &oracle, &a, &b);
            prop_assert!(verdict.is_ok(), "fs {} n {} kinds {}/{}: {:?}", fs, n, kind_a, kind_b, verdict);
        }

        #[test]
        fn streaming_and_batch_drivers_are_bit_identical_to_the_kernel(
            rate in 0usize..ORACLE_RATES.len(),
            n in 4usize..1100,
            hop_chunks in 1usize..4,
            extra_hops in 0usize..4,
            kind_a in 0usize..ORACLE_KINDS,
            kind_b in 0usize..ORACLE_KINDS,
            seed in any::<u64>(),
        ) {
            let fs = ORACLE_RATES[rate];
            let q = QualityExtractor::new(fs).unwrap();
            let chunk = q.chunk_samples();
            // Hops of whole chunks fold; shorter windows fall back to the
            // kernel on a hop that does not tile.
            let hop = if hop_chunks * chunk <= n { hop_chunks * chunk } else { (n / 2).max(1) };
            let len = n + extra_hops * hop;
            let a = oracle_window(kind_a, seed, len, fs);
            let b = oracle_window(kind_b, seed ^ 0x5555, len, fs);
            let overlap = 1.0 - hop as f64 / n as f64;
            let config = SlidingWindowConfig::new(fs, n as f64 / fs, overlap).unwrap();
            prop_assume!(config.window_samples() == n && config.step_samples() == hop);

            let mut batch = FeatureMatrix::default();
            q.extract_batch_into(&a, &b, &config, &mut batch).unwrap();
            prop_assert_eq!(batch.num_windows(), extra_hops + 1);
            let mut scratch = QualityScratch::default();
            let mut kernel = [0.0; NUM_QUALITY_FEATURES];
            for w in 0..batch.num_windows() {
                let s = w * hop;
                q.assess_window_into(&a[s..s + n], &b[s..s + n], &mut kernel, &mut scratch).unwrap();
                prop_assert_eq!(bits(batch.row(w)), bits(&kernel), "batch window {} fs {} n {} hop {}", w, fs, n, hop);
            }

            // Hop-by-hop, the way `StreamingDetector::push` drives it, when
            // the window is a whole number of hops.
            if n.is_multiple_of(hop) {
                let mut stream = StreamingQuality::new(&config).unwrap();
                prop_assert_eq!(stream.folds(), hop.is_multiple_of(chunk));
                let mut row = [0.0; NUM_QUALITY_FEATURES];
                for h in 0..len / hop {
                    let at = h * hop;
                    stream.push_hop(&a[at..at + hop], &b[at..at + hop]).unwrap();
                    if at + hop >= n {
                        let w = (at + hop - n) / hop;
                        let s = w * hop;
                        stream.assess_window_into(&a[s..s + n], &b[s..s + n], &mut row).unwrap();
                        prop_assert_eq!(bits(&row), bits(batch.row(w)), "push window {} fs {} n {} hop {}", w, fs, n, hop);
                    }
                }
            }
        }

        #[test]
        fn bit_pattern_median_picks_the_total_cmp_element(
            n in 1usize..600,
            kind in 0usize..ORACLE_KINDS,
            seed in any::<u64>(),
        ) {
            // Hostile windows' step magnitudes, NaN and ∞ included.
            let raw = oracle_window(kind, seed, n + 1, 256.0);
            let mut floats: Vec<f64> = raw.windows(2).map(|p| (p[1] - p[0]).abs()).collect();
            let mut patterns: Vec<u64> = floats.iter().map(|v| v.to_bits()).collect();
            let mid = floats.len() / 2;
            let (_, want, _) = floats.select_nth_unstable_by(mid, f64::total_cmp);
            prop_assert_eq!(median_step(&mut patterns).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn every_window_kind_matches_the_reference_at_every_rate() {
        let mut scratch = QualityScratch::default();
        let mut row = [0.0; NUM_QUALITY_FEATURES];
        for fs in ORACLE_RATES {
            let q = QualityExtractor::new(fs).unwrap();
            for kind in 0..ORACLE_KINDS {
                for n in [4, 5, 7, 1024, 1025] {
                    let a = oracle_window(kind, 17 + kind as u64, n, fs);
                    let b = oracle_window((kind + 1) % ORACLE_KINDS, 29, n, fs);
                    // One scratch across every shape: reuse must not leak state.
                    q.assess_window_into(&a, &b, &mut row, &mut scratch)
                        .unwrap();
                    let oracle = reference::assess_window(&q, &a, &b);
                    if let Err(e) = check_against_oracle(&row, &oracle, &a, &b) {
                        panic!("fs {fs} n {n} kind {kind}: {e}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_large_dc_offset_does_not_cancel_the_probes() {
        // Hum and wander riding on an offset a million times the signal:
        // the mean-shifted partials must keep the oracle's hum and drift.
        let fs = 256.0;
        let q = QualityExtractor::new(fs).unwrap();
        let n = 1024;
        let base = oracle_window(8, 3, n, fs);
        let offset: Vec<f64> = base.iter().map(|v| v + 1e6).collect();
        let row = q.assess_window(&offset, &base).unwrap();
        let oracle = reference::assess_window(&q, &offset, &base);
        check_against_oracle(&row, &oracle, &offset, &base).unwrap();
        assert!(row[IDX_HUM_RATIO] > 0.0);
    }
}

/// The one-indicator-at-a-time formulation the fused kernel must reproduce
/// bit for bit: a sanitized copy, separate energy passes, a full sort for
/// the median step and one Goertzel pass per probe.
#[cfg(test)]
mod reference {
    use super::*;

    fn goertzel_power(x: &[f64], fs: f64, freq: f64) -> f64 {
        let coeff = 2.0 * (2.0 * PI * freq / fs).cos();
        let (mut s1, mut s2) = (0.0_f64, 0.0_f64);
        for &v in x {
            let s0 = v + coeff * s1 - s2;
            s2 = s1;
            s1 = s0;
        }
        (s1 * s1 + s2 * s2 - coeff * s1 * s2).max(0.0)
    }

    /// Reference quality row of one window pair.
    pub(super) fn assess_window(q: &QualityExtractor, f7t3: &[f64], f8t4: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; NUM_QUALITY_FEATURES];
        channel_into(q, f7t3, &mut out[..QUALITY_FEATURES_PER_CHANNEL]);
        channel_into(
            q,
            f8t4,
            &mut out[QUALITY_FEATURES_PER_CHANNEL..2 * QUALITY_FEATURES_PER_CHANNEL],
        );
        out[IDX_DISAGREEMENT] =
            (out[channel_column(0, IDX_LOG_STD)] - out[channel_column(1, IDX_LOG_STD)]).abs();
        out
    }

    fn channel_into(q: &QualityExtractor, raw: &[f64], out: &mut [f64]) {
        let n = raw.len();
        assert!(n >= 4);
        let nf = n as f64;

        let mut non_finite = 0usize;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in raw {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            } else {
                non_finite += 1;
            }
        }

        let railed = if hi > lo {
            let pinned = raw.iter().filter(|v| **v == lo || **v == hi).count();
            ((pinned + non_finite) as f64 / nf).min(1.0)
        } else {
            (non_finite as f64 / nf).min(1.0)
        };

        let mut longest = 1usize;
        let mut run = 1usize;
        for pair in raw.windows(2) {
            let same = pair[0] == pair[1] || (!pair[0].is_finite() && !pair[1].is_finite());
            run = if same { run + 1 } else { 1 };
            longest = longest.max(run);
        }
        let flat_run = longest as f64 / nf;

        let mut cleaned: Vec<f64> = raw
            .iter()
            .map(|v| if v.is_finite() { *v } else { 0.0 })
            .collect();
        let total_energy: f64 = cleaned.iter().map(|v| v * v).sum();
        let mean = cleaned.iter().sum::<f64>() / nf;
        for v in cleaned.iter_mut() {
            *v -= mean;
        }
        let ac_energy: f64 = cleaned.iter().map(|v| v * v).sum();
        let std = (ac_energy / nf).sqrt();
        let log_std = (std + 1e-12).ln();

        let mut diffs: Vec<f64> = cleaned.windows(2).map(|p| (p[1] - p[0]).abs()).collect();
        let line_length = diffs.iter().sum::<f64>() / (nf - 1.0);
        let max_step = diffs.iter().copied().fold(0.0_f64, f64::max);
        diffs.sort_by(f64::total_cmp);
        let median_step = diffs[diffs.len() / 2];
        let max_jump = (max_step / (1.4826 * median_step + 1e-12)).min(1e6);

        let fs = q.sampling_frequency();
        let tone_norm = 2.0 / (nf * ac_energy + 1e-12);
        let mut hum: f64 = 0.0;
        for &bin in q.hum_bins() {
            let p = goertzel_power(&cleaned, fs, bin);
            let p_lo = goertzel_power(&cleaned, fs, bin - 2.0);
            let p_hi = goertzel_power(&cleaned, fs, bin + 2.0);
            let sharpness = p / (p + p_lo + p_hi + 1e-12);
            let weight = ((sharpness - 1.0 / 3.0) / (2.0 / 3.0)).clamp(0.0, 1.0);
            hum = hum.max((p * tone_norm).min(1.0) * weight);
        }

        let mut drift_energy = nf * mean * mean;
        for k in 1..=3 {
            let freq = k as f64 * fs / nf;
            if freq < fs / 2.0 {
                drift_energy += goertzel_power(&cleaned, fs, freq) * 2.0 / nf;
            }
        }
        let drift = (drift_energy / (total_energy + 1e-12)).clamp(0.0, 1.0);

        out[IDX_LINE_LENGTH] = line_length;
        out[IDX_RAILED_FRAC] = railed;
        out[IDX_FLAT_RUN_FRAC] = flat_run;
        out[IDX_HUM_RATIO] = hum;
        out[IDX_DRIFT_RATIO] = drift;
        out[IDX_MAX_JUMP_SIGMA] = max_jump;
        out[IDX_LOG_STD] = log_std;
    }
}
