//! Discrete wavelet transform.
//!
//! The paper decomposes each 4-second EEG window "until level seven using the
//! Daubechies 4 (db4) wavelet basis function" (§III-A) and computes nonlinear
//! entropy features on the resulting sub-band coefficients. This module
//! implements the db4 analysis filter bank (alongside Haar and db2) with
//! periodic signal extension, as a reusable multi-level
//! [`WaveletWorkspace`] and a [`StreamingWavelet`] that carries coefficients
//! across overlapping windows.

use crate::error::DspError;

/// Wavelet families supported by the transform.
///
/// # Example
///
/// ```
/// use seizure_dsp::Wavelet;
///
/// let db4 = Wavelet::Daubechies4;
/// assert_eq!(db4.low_pass().len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Wavelet {
    /// Haar wavelet (db1), 2 filter taps.
    Haar,
    /// Daubechies-2 wavelet, 4 filter taps.
    Daubechies2,
    /// Daubechies-4 wavelet, 8 filter taps — the basis used by the paper.
    #[default]
    Daubechies4,
}

// db2 scaling coefficients (4 taps).
const DB2_LOW: [f64; 4] = [
    0.482_962_913_144_690_2,
    0.836_516_303_737_469,
    0.224_143_868_041_857_35,
    -0.129_409_522_550_921_45,
];

// db4 scaling coefficients (8 taps).
const DB4_LOW: [f64; 8] = [
    0.230_377_813_308_855_23,
    0.714_846_570_552_541_5,
    0.630_880_767_929_590_4,
    -0.027_983_769_416_983_85,
    -0.187_034_811_718_881_14,
    0.030_841_381_835_986_965,
    0.032_883_011_666_982_945,
    -0.010_597_401_784_997_278,
];

const HAAR_LOW: [f64; 2] = [
    std::f64::consts::FRAC_1_SQRT_2,
    std::f64::consts::FRAC_1_SQRT_2,
];

impl Wavelet {
    /// Low-pass (scaling) analysis filter coefficients.
    pub fn low_pass(&self) -> &'static [f64] {
        match self {
            Wavelet::Haar => &HAAR_LOW,
            Wavelet::Daubechies2 => &DB2_LOW,
            Wavelet::Daubechies4 => &DB4_LOW,
        }
    }

    /// High-pass (wavelet) analysis filter coefficients, derived from the
    /// low-pass filter by the quadrature-mirror relation.
    pub fn high_pass(&self) -> Vec<f64> {
        let low = self.low_pass();
        let n = low.len();
        (0..n)
            .map(|k| {
                let sign = if k % 2 == 0 { 1.0 } else { -1.0 };
                sign * low[n - 1 - k]
            })
            .collect()
    }

    /// Number of filter taps.
    pub fn filter_len(&self) -> usize {
        self.low_pass().len()
    }

    /// Short lowercase name of the wavelet (e.g. `"db4"`).
    pub fn name(&self) -> &'static str {
        match self {
            Wavelet::Haar => "haar",
            Wavelet::Daubechies2 => "db2",
            Wavelet::Daubechies4 => "db4",
        }
    }

    /// Maximum number of decomposition levels that keeps every level at least
    /// as long as the filter, following the usual `wmaxlev` convention.
    pub fn max_level(&self, signal_len: usize) -> usize {
        if signal_len < self.filter_len() {
            return 0;
        }
        let ratio = signal_len as f64 / (self.filter_len() as f64 - 1.0);
        ratio.log2().floor().max(0.0) as usize
    }
}

impl std::fmt::Display for Wavelet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Symmetrically maps an arbitrary (possibly negative) index into `0..len` via
/// periodic extension.
fn periodic_index(idx: isize, len: usize) -> usize {
    let len = len as isize;
    (((idx % len) + len) % len) as usize
}

/// One analysis filter-bank step with periodic extension, writing into
/// caller-provided coefficient slices of length `ceil(signal.len() / 2)`.
///
/// The output range is split into an interior part, where all filter taps
/// land inside the signal and index with a plain slice window, and a small
/// boundary tail that wraps periodically — the interior loop carries no
/// modulo arithmetic, which is where nearly all of the time goes on the
/// paper's 1024-sample windows.
fn dwt_step(signal: &[f64], low: &[f64], high: &[f64], approx: &mut [f64], detail: &mut [f64]) {
    let n = signal.len();
    let taps = low.len();
    // Outputs with 2i + taps - 1 < n never wrap.
    let interior = if n >= taps { (n - taps) / 2 + 1 } else { 0 };
    let interior = interior.min(approx.len());
    for (i, (a_slot, d_slot)) in approx[..interior]
        .iter_mut()
        .zip(detail[..interior].iter_mut())
        .enumerate()
    {
        let window = &signal[2 * i..2 * i + taps];
        let mut a = 0.0;
        let mut d = 0.0;
        for ((&lo, &hi), &x) in low.iter().zip(high.iter()).zip(window.iter()) {
            a += lo * x;
            d += hi * x;
        }
        *a_slot = a;
        *d_slot = d;
    }
    for (i, (a_slot, d_slot)) in approx
        .iter_mut()
        .zip(detail.iter_mut())
        .enumerate()
        .skip(interior)
    {
        let mut a = 0.0;
        let mut d = 0.0;
        for (k, (&lo, &hi)) in low.iter().zip(high.iter()).enumerate() {
            let idx = periodic_index(2 * i as isize + k as isize, n);
            a += lo * signal[idx];
            d += hi * signal[idx];
        }
        *a_slot = a;
        *d_slot = d;
    }
}

/// Reusable multi-level wavelet decomposition workspace.
///
/// A `WaveletWorkspace` is built once per (wavelet, signal length, depth)
/// triple; [`WaveletWorkspace::decompose`] then runs the `L`-level
/// decomposition (each level filters the previous approximation) into
/// preallocated flat coefficient storage with **zero heap allocations** per
/// call. This is the wavelet half of the batch inference engine's scratch
/// space: each worker thread owns one workspace and reuses it for every
/// sliding window it processes.
///
/// Coefficients live in one flat buffer laid out `[d1 | d2 | … | dL | aL]`
/// (finest detail first, approximation last); [`WaveletWorkspace::detail`]
/// and [`WaveletWorkspace::approximation`] expose the familiar views.
///
/// # Example
///
/// Decompose a 4-second, 256 Hz window to level 7, as the paper does:
///
/// ```
/// use seizure_dsp::wavelet::{WaveletWorkspace, Wavelet};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let window: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.05).sin()).collect();
/// let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, window.len(), 7)?;
/// ws.decompose(&window)?;
///
/// // Level 7 details at 256 Hz cover [1, 2] Hz.
/// assert_eq!(ws.detail(7).unwrap().len(), 8);
/// assert_eq!(ws.approximation().len(), 8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WaveletWorkspace {
    wavelet: Wavelet,
    levels: usize,
    signal_len: usize,
    /// Precomputed high-pass filter (the low-pass is borrowed from the
    /// wavelet's static table).
    high: Vec<f64>,
    /// Flat coefficient storage: `[d1 | d2 | … | dL | aL]`.
    coeffs: Vec<f64>,
    /// Per-level `(start, len)` of the detail bands in `coeffs`, finest
    /// (level 1) first.
    detail_bounds: Vec<(usize, usize)>,
    /// `(start, len)` of the deepest approximation band in `coeffs`.
    approx_bounds: (usize, usize),
    /// Ping/pong buffers holding the running approximation between levels.
    ping: Vec<f64>,
    pong: Vec<f64>,
    /// Whether `decompose` has run at least once.
    ready: bool,
}

impl WaveletWorkspace {
    /// Builds a workspace decomposing signals of `signal_len` samples down to
    /// `levels` levels.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::EmptyInput`] for a zero-length signal,
    /// [`DspError::InvalidParameter`] for zero levels and
    /// [`DspError::InvalidLength`] when the signal cannot support the depth.
    pub fn new(wavelet: Wavelet, signal_len: usize, levels: usize) -> Result<Self, DspError> {
        if signal_len == 0 {
            return Err(DspError::EmptyInput {
                operation: "WaveletWorkspace::new",
            });
        }
        if levels == 0 {
            return Err(DspError::InvalidParameter {
                name: "levels",
                reason: "decomposition requires at least one level".to_string(),
            });
        }
        if levels > wavelet.max_level(signal_len) || signal_len < wavelet.filter_len() * 2 {
            return Err(DspError::InvalidLength {
                operation: "WaveletWorkspace::new",
                actual: signal_len,
                requirement: "signal too short for the requested number of levels",
            });
        }
        let mut detail_bounds = Vec::with_capacity(levels);
        let mut offset = 0;
        let mut len = signal_len;
        for _ in 0..levels {
            len = len.div_ceil(2);
            detail_bounds.push((offset, len));
            offset += len;
        }
        let approx_bounds = (offset, len);
        let max_band = signal_len.div_ceil(2);
        Ok(Self {
            wavelet,
            levels,
            signal_len,
            high: wavelet.high_pass(),
            coeffs: vec![0.0; offset + len],
            detail_bounds,
            approx_bounds,
            ping: vec![0.0; max_band],
            pong: vec![0.0; max_band],
            ready: false,
        })
    }

    /// The wavelet family of the workspace.
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The signal length the workspace was built for.
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Decomposes `signal` in place of the previous contents. No heap
    /// allocations are performed.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `signal` does not match the
    /// planned length.
    pub fn decompose(&mut self, signal: &[f64]) -> Result<(), DspError> {
        if signal.len() != self.signal_len {
            return Err(DspError::InvalidLength {
                operation: "WaveletWorkspace::decompose",
                actual: signal.len(),
                requirement: "signal length must match the workspace's planned length",
            });
        }
        let low = self.wavelet.low_pass();
        let mut current_len = self.signal_len;
        for level in 0..self.levels {
            let (d_start, d_len) = self.detail_bounds[level];
            let detail = &mut self.coeffs[d_start..d_start + d_len];
            let half = current_len.div_ceil(2);
            debug_assert_eq!(half, d_len);
            if level == 0 {
                dwt_step(signal, low, &self.high, &mut self.ping[..half], detail);
            } else {
                dwt_step(
                    &self.pong[..current_len],
                    low,
                    &self.high,
                    &mut self.ping[..half],
                    detail,
                );
            }
            std::mem::swap(&mut self.ping, &mut self.pong);
            current_len = half;
        }
        let (a_start, a_len) = self.approx_bounds;
        debug_assert_eq!(a_len, current_len);
        self.coeffs[a_start..a_start + a_len].copy_from_slice(&self.pong[..a_len]);
        self.ready = true;
        Ok(())
    }

    /// Detail coefficients of the most recent decomposition, `1` being the
    /// finest level. Returns `None` before the first [`decompose`] call or
    /// for an out-of-range level.
    ///
    /// [`decompose`]: WaveletWorkspace::decompose
    pub fn detail(&self, level: usize) -> Option<&[f64]> {
        if !self.ready || level == 0 || level > self.levels {
            return None;
        }
        let (start, len) = self.detail_bounds[level - 1];
        Some(&self.coeffs[start..start + len])
    }

    /// Approximation coefficients at the deepest level of the most recent
    /// decomposition (empty before the first [`decompose`] call).
    ///
    /// [`decompose`]: WaveletWorkspace::decompose
    pub fn approximation(&self) -> &[f64] {
        if !self.ready {
            return &[];
        }
        let (start, len) = self.approx_bounds;
        &self.coeffs[start..start + len]
    }
}

/// Streaming multi-level DWT over sliding windows that advance by a fixed
/// hop, reusing every coefficient the window overlap already paid for.
///
/// With periodic extension, a window's level-`l` coefficient band splits into
/// a **clean prefix** — coefficients whose filter taps land entirely inside
/// the clean prefix of the band above, which are therefore shift-covariant:
/// window `w+1`'s clean coefficient `i` equals window `w`'s coefficient
/// `i + step/2^l` — and a short **corrupted tail** (at most `taps - 2`
/// coefficients per level for the wrap, plus the few that read the previous
/// band's own tail) that must be recomputed for every window. Per window this
/// operator shifts each clean prefix left with `copy_within`, computes only
/// the `step/2^l` newly exposed clean coefficients, and recomputes the tail,
/// instead of re-running the full filter bank — for the paper's 1024-sample
/// window with a 256-sample hop that is roughly a 4–5× reduction in filter
/// work.
///
/// Outputs are **bit-identical** to [`WaveletWorkspace::decompose`] on the
/// same window: clean, interior-tail and wrapping-tail coefficients are all
/// produced by the same ascending-tap accumulation as the batch filter step,
/// so there is no error model to carry — only the operation schedule changes.
///
/// Approximation bands are maintained for every level (each feeds the next);
/// detail bands are maintained only for `min_detail_level..=levels`, so
/// callers that consume only coarse sub-bands (like the rich feature set's
/// level 3–5 wavelet entropies) don't pay memory or shifts for the fine ones.
///
/// The contract is that consecutive [`StreamingWavelet::update`] calls
/// receive windows of the same record offset by exactly `step` samples;
/// [`StreamingWavelet::reset`] starts a new record.
///
/// # Example
///
/// ```
/// use seizure_dsp::wavelet::{StreamingWavelet, Wavelet, WaveletWorkspace};
///
/// # fn main() -> Result<(), seizure_dsp::DspError> {
/// let record: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.05).sin()).collect();
/// let mut streaming = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 3)?;
/// let mut batch = WaveletWorkspace::new(Wavelet::Daubechies4, 1024, 5)?;
/// for start in (0..=1024).step_by(256) {
///     let window = &record[start..start + 1024];
///     streaming.update(window)?;
///     batch.decompose(window)?;
///     assert_eq!(streaming.detail(4).unwrap(), batch.detail(4).unwrap());
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingWavelet {
    wavelet: Wavelet,
    levels: usize,
    window_len: usize,
    step: usize,
    min_detail_level: usize,
    /// Precomputed high-pass filter.
    high: Vec<f64>,
    /// Per-level clean-prefix length `c_l`, level 1 first; follows the
    /// recurrence `c_l = (c_{l-1} - taps) / 2 + 1` with `c_0 = window_len`.
    clean: Vec<usize>,
    /// Per-level approximation band of the current window, level 1 first,
    /// `window_len >> l` coefficients each: clean prefix then corrupted tail.
    approx: Vec<Vec<f64>>,
    /// Per-level detail band, empty below `min_detail_level`.
    detail: Vec<Vec<f64>>,
    /// Whether `update` has run at least once since construction/reset.
    ready: bool,
}

impl StreamingWavelet {
    /// Builds a streaming decomposition of `window_len`-sample windows
    /// advancing by `step` samples, down to `levels` levels, keeping detail
    /// bands from `min_detail_level` up.
    ///
    /// # Errors
    ///
    /// Returns the [`WaveletWorkspace::new`] errors for degenerate window
    /// geometry, plus [`DspError::InvalidParameter`] when `step` or
    /// `window_len` is not a positive multiple of `2^levels` or
    /// `min_detail_level` is outside `1..=levels`, and
    /// [`DspError::InvalidLength`] when the window/hop geometry leaves a
    /// level with fewer clean coefficients than it must produce per hop
    /// (i.e. nothing would be reusable and batch recompute is the answer).
    pub fn new(
        wavelet: Wavelet,
        window_len: usize,
        step: usize,
        levels: usize,
        min_detail_level: usize,
    ) -> Result<Self, DspError> {
        if window_len == 0 {
            return Err(DspError::EmptyInput {
                operation: "StreamingWavelet::new",
            });
        }
        if levels == 0 {
            return Err(DspError::InvalidParameter {
                name: "levels",
                reason: "decomposition requires at least one level".to_string(),
            });
        }
        if levels > wavelet.max_level(window_len) || window_len < wavelet.filter_len() * 2 {
            return Err(DspError::InvalidLength {
                operation: "StreamingWavelet::new",
                actual: window_len,
                requirement: "signal too short for the requested number of levels",
            });
        }
        let scale = 1usize << levels;
        if step == 0 || !step.is_multiple_of(scale) {
            return Err(DspError::InvalidParameter {
                name: "step",
                reason: format!(
                    "hop must be a positive multiple of 2^levels = {scale}, got {step}"
                ),
            });
        }
        if !window_len.is_multiple_of(scale) {
            return Err(DspError::InvalidParameter {
                name: "window_len",
                reason: format!(
                    "window length must be a multiple of 2^levels = {scale}, got {window_len}"
                ),
            });
        }
        if min_detail_level == 0 || min_detail_level > levels {
            return Err(DspError::InvalidParameter {
                name: "min_detail_level",
                reason: format!("must be within 1..=levels ({levels}), got {min_detail_level}"),
            });
        }
        let taps = wavelet.filter_len();
        let mut clean = Vec::with_capacity(levels);
        let mut c_prev = window_len;
        for level in 1..=levels {
            let c = if c_prev >= taps {
                (c_prev - taps) / 2 + 1
            } else {
                0
            };
            if c < step >> level {
                return Err(DspError::InvalidLength {
                    operation: "StreamingWavelet::new",
                    actual: window_len,
                    requirement:
                        "window/hop geometry must retain at least one hop of clean coefficients per level",
                });
            }
            clean.push(c);
            c_prev = c;
        }
        let approx = (1..=levels).map(|l| vec![0.0; window_len >> l]).collect();
        let detail = (1..=levels)
            .map(|l| {
                if l >= min_detail_level {
                    vec![0.0; window_len >> l]
                } else {
                    Vec::new()
                }
            })
            .collect();
        Ok(Self {
            wavelet,
            levels,
            window_len,
            step,
            min_detail_level,
            high: wavelet.high_pass(),
            clean,
            approx,
            detail,
            ready: false,
        })
    }

    /// The wavelet family of the operator.
    pub fn wavelet(&self) -> Wavelet {
        self.wavelet
    }

    /// Number of decomposition levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The window length the operator was built for.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Samples the window advances between consecutive `update` calls.
    pub fn step(&self) -> usize {
        self.step
    }

    /// Finest detail level that is maintained.
    pub fn min_detail_level(&self) -> usize {
        self.min_detail_level
    }

    /// Number of `f64` coefficient slots carried across windows (approximation
    /// plus maintained detail bands) — the retained state the edge memory
    /// model prices per channel.
    pub fn state_len(&self) -> usize {
        let approx: usize = self.approx.iter().map(Vec::len).sum();
        let detail: usize = self.detail.iter().map(Vec::len).sum();
        approx + detail
    }

    /// Forgets all carried coefficients so the next [`update`] treats its
    /// window as the start of a new record.
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn reset(&mut self) {
        self.ready = false;
    }

    /// Decomposes the next window of the record. The first call after
    /// construction or [`reset`] computes every band in full; subsequent
    /// calls assume `window` is the previous window advanced by exactly
    /// `step` samples and only compute what the overlap cannot supply.
    /// No heap allocations are performed.
    ///
    /// [`reset`]: StreamingWavelet::reset
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidLength`] if `window` does not match the
    /// planned length.
    // lint: hot-path
    pub fn update(&mut self, window: &[f64]) -> Result<(), DspError> {
        if window.len() != self.window_len {
            return Err(DspError::InvalidLength {
                operation: "StreamingWavelet::update",
                actual: window.len(),
                requirement: "window length must match the operator's planned length",
            });
        }
        let first = !self.ready;
        let low = self.wavelet.low_pass();
        let taps = low.len();
        for level in 1..=self.levels {
            let n = self.window_len >> level;
            let n_prev = self.window_len >> (level - 1);
            let c = self.clean[level - 1];
            let hop = self.step >> level;
            let (prev_bufs, cur_bufs) = self.approx.split_at_mut(level - 1);
            let prev_full: &[f64] = if level == 1 {
                window
            } else {
                &prev_bufs[level - 2]
            };
            let approx = &mut cur_bufs[0];
            let detail = &mut self.detail[level - 1];
            let has_detail = !detail.is_empty();
            let new_start = if first { 0 } else { c - hop };
            if !first {
                // Clean coefficients are shift-covariant: drop the first
                // `hop` of them, keep the rest.
                approx.copy_within(hop..c, 0);
                if has_detail {
                    detail.copy_within(hop..c, 0);
                }
            }
            // Newly exposed clean coefficients: every tap lands inside the
            // previous band's clean prefix (guaranteed by the `clean`
            // recurrence), so a plain slice window suffices — identical
            // arithmetic to the batch filter step's interior loop.
            for i in new_start..c {
                let input = &prev_full[2 * i..2 * i + taps];
                let mut a = 0.0;
                let mut d = 0.0;
                for ((&lo, &hi), &x) in low.iter().zip(self.high.iter()).zip(input.iter()) {
                    a += lo * x;
                    d += hi * x;
                }
                approx[i] = a;
                if has_detail {
                    detail[i] = d;
                }
            }
            // Corrupted tail: taps either read the previous band's own tail
            // or wrap around the periodic boundary; recomputed every window
            // with the same indexing as the batch boundary loop.
            for i in c..n {
                let mut a = 0.0;
                let mut d = 0.0;
                for (k, (&lo, &hi)) in low.iter().zip(self.high.iter()).enumerate() {
                    let idx = periodic_index(2 * i as isize + k as isize, n_prev);
                    let x = prev_full[idx];
                    a += lo * x;
                    d += hi * x;
                }
                approx[i] = a;
                if has_detail {
                    detail[i] = d;
                }
            }
        }
        self.ready = true;
        Ok(())
    }

    /// Detail coefficients of the most recent window, `1` being the finest
    /// level. Returns `None` before the first [`update`] call, for an
    /// out-of-range level, or for a level below `min_detail_level`.
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn detail(&self, level: usize) -> Option<&[f64]> {
        if !self.ready || level == 0 || level > self.levels {
            return None;
        }
        let buf = &self.detail[level - 1];
        if buf.is_empty() {
            None
        } else {
            Some(buf.as_slice())
        }
    }

    /// Approximation coefficients at the deepest level of the most recent
    /// window (empty before the first [`update`] call).
    ///
    /// [`update`]: StreamingWavelet::update
    pub fn approximation(&self) -> &[f64] {
        if !self.ready {
            return &[];
        }
        self.approx[self.levels - 1].as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::wavedec;

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
    fn filters_have_expected_lengths() {
        assert_eq!(Wavelet::Haar.filter_len(), 2);
        assert_eq!(Wavelet::Daubechies2.filter_len(), 4);
        assert_eq!(Wavelet::Daubechies4.filter_len(), 8);
    }

    #[test]
    fn low_pass_filters_sum_to_sqrt_two() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies4] {
            let sum: f64 = w.low_pass().iter().sum();
            assert!((sum - std::f64::consts::SQRT_2).abs() < 1e-9, "{w}");
        }
    }

    #[test]
    fn high_pass_filters_sum_to_zero() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies4] {
            let sum: f64 = w.high_pass().iter().sum();
            assert!(sum.abs() < 1e-9, "{w}");
        }
    }

    #[test]
    fn filters_are_orthonormal() {
        for w in [Wavelet::Haar, Wavelet::Daubechies2, Wavelet::Daubechies4] {
            let low = w.low_pass();
            let norm: f64 = low.iter().map(|c| c * c).sum();
            assert!((norm - 1.0).abs() < 1e-9, "{w}");
        }
    }

    /// Level-1 detail band of `x` from a one-level workspace.
    fn level1_detail(x: &[f64]) -> Vec<f64> {
        let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, x.len(), 1).unwrap();
        ws.decompose(x).unwrap();
        ws.detail(1).unwrap().to_vec()
    }

    #[test]
    fn constant_signal_has_zero_details() {
        let d = level1_detail(&[3.0; 128]);
        assert!(d.iter().all(|v| v.abs() < 1e-9));
    }

    #[test]
    fn db4_kills_cubic_polynomials_in_detail_band() {
        // db4 has 4 vanishing moments, so details of a cubic are ~0 away from
        // the periodic wrap-around boundary.
        let x: Vec<f64> = (0..256)
            .map(|i| {
                let t = i as f64 / 256.0;
                1.0 + t + t * t + t * t * t
            })
            .collect();
        let d = level1_detail(&x);
        // Ignore the last few coefficients affected by periodic wrap-around.
        let interior = &d[..d.len() - 4];
        assert!(interior.iter().all(|v| v.abs() < 1e-6));
    }

    #[test]
    fn workspace_level7_on_paper_window() {
        // 4-second window at 256 Hz = 1024 samples, decomposed to level 7.
        let x = test_signal(1024);
        let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, x.len(), 7).unwrap();
        ws.decompose(&x).unwrap();
        assert_eq!(ws.levels(), 7);
        assert_eq!(ws.approximation().len(), 8);
        assert_eq!(ws.detail(1).unwrap().len(), 512);
        assert_eq!(ws.detail(7).unwrap().len(), 8);
        assert!(ws.detail(8).is_none());
        assert!(ws.detail(0).is_none());
    }

    #[test]
    fn energy_is_preserved_by_orthonormal_transform() {
        let x = test_signal(512);
        let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, x.len(), 4).unwrap();
        ws.decompose(&x).unwrap();
        let coeff_energy: f64 = ws.approximation().iter().map(|c| c * c).sum::<f64>()
            + (1..=4)
                .map(|l| ws.detail(l).unwrap().iter().map(|c| c * c).sum::<f64>())
                .sum::<f64>();
        let signal_energy: f64 = x.iter().map(|v| v * v).sum();
        assert!((coeff_energy - signal_energy).abs() / signal_energy < 1e-9);
    }

    #[test]
    fn max_level_matches_wmaxlev_convention() {
        assert_eq!(Wavelet::Daubechies4.max_level(1024), 7);
        assert_eq!(Wavelet::Haar.max_level(1024), 10);
        assert_eq!(Wavelet::Daubechies4.max_level(4), 0);
    }

    #[test]
    fn workspace_matches_wavedec_exactly() {
        let x = test_signal(1024);
        for levels in [1usize, 3, 5, 7] {
            let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, x.len(), levels).unwrap();
            ws.decompose(&x).unwrap();
            let reference = wavedec(&x, Wavelet::Daubechies4, levels);
            for level in 1..=levels {
                assert_eq!(
                    ws.detail(level).unwrap(),
                    reference.detail(level),
                    "levels={levels} level={level}"
                );
            }
            assert_eq!(ws.approximation(), reference.approximation);
        }
    }

    #[test]
    fn workspace_is_reusable_across_signals() {
        let a = test_signal(256);
        let b: Vec<f64> = a.iter().map(|v| v * 2.0 + 1.0).collect();
        let mut ws = WaveletWorkspace::new(Wavelet::Daubechies4, 256, 4).unwrap();
        ws.decompose(&a).unwrap();
        let first_d2 = ws.detail(2).unwrap().to_vec();
        ws.decompose(&b).unwrap();
        let reference = wavedec(&b, Wavelet::Daubechies4, 4);
        assert_eq!(ws.detail(2).unwrap(), reference.detail(2));
        assert_ne!(ws.detail(2).unwrap(), &first_d2[..]);
        // Going back to the first signal reproduces the original output.
        ws.decompose(&a).unwrap();
        assert_eq!(ws.detail(2).unwrap(), &first_d2[..]);
    }

    #[test]
    fn workspace_on_odd_lengths_matches_wavedec() {
        let x = test_signal(100);
        let mut ws = WaveletWorkspace::new(Wavelet::Daubechies2, x.len(), 3).unwrap();
        ws.decompose(&x).unwrap();
        let reference = wavedec(&x, Wavelet::Daubechies2, 3);
        for level in 1..=3 {
            assert_eq!(ws.detail(level).unwrap(), reference.detail(level));
        }
        assert_eq!(ws.approximation(), reference.approximation);
    }

    #[test]
    fn workspace_validation_and_accessors() {
        assert!(WaveletWorkspace::new(Wavelet::Daubechies4, 0, 3).is_err());
        assert!(WaveletWorkspace::new(Wavelet::Daubechies4, 64, 0).is_err());
        assert!(WaveletWorkspace::new(Wavelet::Daubechies4, 64, 7).is_err());
        let mut ws = WaveletWorkspace::new(Wavelet::Haar, 64, 3).unwrap();
        assert_eq!(ws.wavelet(), Wavelet::Haar);
        assert_eq!(ws.levels(), 3);
        assert_eq!(ws.signal_len(), 64);
        // Before the first decomposition no views are available.
        assert!(ws.detail(1).is_none());
        assert!(ws.approximation().is_empty());
        assert!(ws.decompose(&[0.0; 32]).is_err());
        ws.decompose(&[1.0; 64]).unwrap();
        assert!(ws.detail(0).is_none());
        assert!(ws.detail(4).is_none());
        assert_eq!(ws.detail(1).unwrap().len(), 32);
        assert_eq!(ws.approximation().len(), 8);
    }

    #[test]
    fn streaming_matches_workspace_bit_exactly() {
        let record = test_signal(1024 + 12 * 256);
        let mut streaming = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 1).unwrap();
        let mut batch = WaveletWorkspace::new(Wavelet::Daubechies4, 1024, 5).unwrap();
        let mut windows = 0;
        for start in (0..=record.len() - 1024).step_by(256) {
            let window = &record[start..start + 1024];
            streaming.update(window).unwrap();
            batch.decompose(window).unwrap();
            for level in 1..=5 {
                assert_eq!(
                    streaming.detail(level).unwrap(),
                    batch.detail(level).unwrap(),
                    "start={start} level={level}"
                );
            }
            assert_eq!(
                streaming.approximation(),
                batch.approximation(),
                "start={start}"
            );
            windows += 1;
        }
        assert_eq!(windows, 13);
    }

    #[test]
    fn streaming_min_detail_level_skips_fine_bands() {
        let record = test_signal(1024 + 4 * 256);
        let mut streaming = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 3).unwrap();
        let mut batch = WaveletWorkspace::new(Wavelet::Daubechies4, 1024, 5).unwrap();
        for start in (0..=record.len() - 1024).step_by(256) {
            let window = &record[start..start + 1024];
            streaming.update(window).unwrap();
            batch.decompose(window).unwrap();
            assert!(streaming.detail(1).is_none());
            assert!(streaming.detail(2).is_none());
            for level in 3..=5 {
                assert_eq!(
                    streaming.detail(level).unwrap(),
                    batch.detail(level).unwrap(),
                    "start={start} level={level}"
                );
            }
        }
        // Skipped fine bands shrink the carried state accordingly.
        let full = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 1).unwrap();
        assert_eq!(full.state_len() - streaming.state_len(), 512 + 256);
    }

    #[test]
    fn streaming_matches_workspace_across_geometries() {
        for (wavelet, window, step, levels) in [
            (Wavelet::Daubechies4, 512usize, 128usize, 4usize),
            (Wavelet::Daubechies4, 256, 64, 5),
            (Wavelet::Daubechies2, 256, 64, 3),
            (Wavelet::Haar, 256, 128, 2),
        ] {
            let record = test_signal(window + 6 * step);
            let mut streaming = StreamingWavelet::new(wavelet, window, step, levels, 1).unwrap();
            let mut batch = WaveletWorkspace::new(wavelet, window, levels).unwrap();
            for start in (0..=record.len() - window).step_by(step) {
                let w = &record[start..start + window];
                streaming.update(w).unwrap();
                batch.decompose(w).unwrap();
                for level in 1..=levels {
                    assert_eq!(
                        streaming.detail(level).unwrap(),
                        batch.detail(level).unwrap(),
                        "{wavelet} window={window} step={step} start={start} level={level}"
                    );
                }
                assert_eq!(streaming.approximation(), batch.approximation());
            }
        }
    }

    #[test]
    fn streaming_reset_restarts_the_record() {
        let record = test_signal(1024 + 2 * 256);
        let mut streaming = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 1).unwrap();
        for start in (0..=record.len() - 1024).step_by(256) {
            streaming.update(&record[start..start + 1024]).unwrap();
        }
        // Jump to an unrelated offset: without a reset the shift assumption
        // is violated, with one the output matches a fresh decomposition.
        streaming.reset();
        assert!(streaming.detail(3).is_none());
        let window = &record[128..128 + 1024];
        streaming.update(window).unwrap();
        let mut batch = WaveletWorkspace::new(Wavelet::Daubechies4, 1024, 5).unwrap();
        batch.decompose(window).unwrap();
        assert_eq!(streaming.detail(3).unwrap(), batch.detail(3).unwrap());
    }

    #[test]
    fn streaming_validation() {
        // Hop not a multiple of 2^levels.
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 100, 5, 1).is_err());
        // Zero hop, zero levels, empty window.
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 0, 5, 1).is_err());
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 0, 1).is_err());
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 0, 256, 5, 1).is_err());
        // Non-overlapping windows leave no reusable coefficients.
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 1024, 5, 1).is_err());
        // min_detail_level outside 1..=levels.
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 0).is_err());
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 6).is_err());
        // Too deep for the window.
        assert!(StreamingWavelet::new(Wavelet::Daubechies4, 64, 32, 7, 1).is_err());

        let mut ok = StreamingWavelet::new(Wavelet::Daubechies4, 1024, 256, 5, 3).unwrap();
        assert_eq!(ok.wavelet(), Wavelet::Daubechies4);
        assert_eq!(ok.levels(), 5);
        assert_eq!(ok.window_len(), 1024);
        assert_eq!(ok.step(), 256);
        assert_eq!(ok.min_detail_level(), 3);
        assert!(ok.detail(3).is_none());
        assert!(ok.approximation().is_empty());
        assert!(ok.update(&[0.0; 512]).is_err());
    }

    #[test]
    fn display_names() {
        assert_eq!(Wavelet::Daubechies4.to_string(), "db4");
        assert_eq!(Wavelet::Haar.to_string(), "haar");
        assert_eq!(Wavelet::Daubechies2.to_string(), "db2");
    }
}
