//! Streaming (hop-structured) rich feature extraction.
//!
//! The paper slides 4-second windows with 75 % overlap, so consecutive
//! windows share three quarters of their samples — yet the batch extractor
//! recomputes every moment, spectrum and wavelet band from scratch for every
//! window. [`StreamingRichExtractor`] restructures the extraction into
//! per-hop operators that carry work across windows:
//!
//! * **Moments / Hjorth / waveform** — every hop is summarized once
//!   ([`MomentSummary`] of the raw samples, second-order
//!   [`SpreadSummary`]s of its internal first and second differences,
//!   partial line-length/Teager/zero-crossing/min-max
//!   folds, the hop's first and last four samples for the boundary terms);
//!   a window merges its `k = window/hop` hop summaries instead of
//!   rescanning `window` samples.
//! * **Permutation entropy** — each hop counts its ordinal patterns into a
//!   dense Lehmer table once; straddling patterns are added when the next
//!   hop arrives. Window tables are integer sums of hop tables, so the
//!   entropies are **bit-exact** against the batch path.
//! * **Wavelet** — a [`StreamingWavelet`] shifts clean db4 coefficients
//!   across windows and recomputes only the newly exposed ones plus the
//!   periodic-boundary tail; detail bands (and hence the Shannon wavelet
//!   entropies) are **bit-exact**.
//! * **Spectrum** — each completed window runs the same full-window
//!   rectangular periodogram ([`PsdPlan`]) as the batch extractor, so all
//!   eleven band-power features stay **bit-exact**.
//!
//! # Equivalence / error model
//!
//! Per 27-feature channel block (see [`RichFeatureSet`] for the layout):
//!
//! | columns | features | streaming vs batch |
//! |---|---|---|
//! | 0–10 | band powers, total power | bit-exact (same periodogram) |
//! | 11–15 | mean/variance/skew/kurtosis/rms | bounded error (merged vs two-pass moments, ≲1e-9 relative) |
//! | 16–17 | Hjorth mobility/complexity | bounded error (same reason) |
//! | 18–19 | line length, nonlinear energy | bounded error (re-associated sums) |
//! | 20–21 | zero crossings, peak-to-peak | exact (integer count, associative min/max) |
//! | 22–23 | permutation entropies | bit-exact (integer pattern tables) |
//! | 24–26 | wavelet Shannon entropies | bit-exact (identical coefficients) |
//!
//! The bounded-error columns differ only by floating-point re-association
//! (Chan-merged moments versus one two-pass scan); the property suite pins
//! the bound at `1e-7 · (1 + |batch|)` across random, hostile and geometric
//! cohorts. One carve-out: skewness and kurtosis are ill-conditioned when a
//! window's variance underflows relative to its power (e.g. a dropout
//! holding one constant value — the standardized residuals are pure rounding
//! dust in *both* paths, and their sign is an accident of summation order),
//! so the equivalence suite excludes those two columns on such degenerate
//! windows and only requires them to stay finite.

use crate::bandpower::band_powers_from_bins;
use crate::entropy::{
    accumulate_pattern_counts, accumulate_pattern_counts_delay1, entropy_from_counts,
    shannon_entropy_noalloc,
};
use crate::error::FeatureError;
use crate::extractor::{
    RichFeatureSet, SlidingWindowConfig, RICH_FEATURES_PER_CHANNEL, RICH_WAVELET_LEVELS,
};
use crate::matrix::FeatureMatrix;
use crate::statistics::{MomentSummary, SpreadSummary};
use seizure_dsp::fft::Complex;
use seizure_dsp::spectrum::PsdPlan;
use seizure_dsp::wavelet::{StreamingWavelet, Wavelet};

/// Number of `f64` fields a `HopSummary` carries (priced by
/// `edge::memory::streaming_state_bytes`).
pub const HOP_SUMMARY_F64_SLOTS: usize = 24;

/// Number of `u32` fields a `HopSummary` carries (the zero-crossing count
/// plus the order-3 and order-5 ordinal pattern tables).
pub const HOP_SUMMARY_U32_SLOTS: usize = 1 + 6 + 120;

/// Everything one hop contributes to the windows that cover it.
#[derive(Debug, Clone)]
struct HopSummary {
    /// Central moments of the hop's raw samples.
    raw: MomentSummary,
    /// Raw power sum `Σx²` of the hop (for the window RMS).
    sum_sq: f64,
    /// Second-order summary of the first differences internal to the hop.
    d1: SpreadSummary,
    /// Second-order summary of the second differences internal to the hop.
    d2: SpreadSummary,
    /// `Σ|Δ|` over the hop-internal differences.
    line_length: f64,
    /// Teager energy sum over the hop-internal triples.
    nle_sum: f64,
    /// Sign-change count over the hop-internal sample pairs.
    zero_crossings: u32,
    /// Minimum sample of the hop.
    lo: f64,
    /// Maximum sample of the hop.
    hi: f64,
    /// First four samples (boundary terms and pattern straddles).
    first: [f64; 4],
    /// Last four samples.
    last: [f64; 4],
    /// Order-3 ordinal pattern counts of the hop (own starts; straddling
    /// starts are added in place when the next hop arrives).
    counts3: [u32; 6],
    /// Order-5 ordinal pattern counts of the hop.
    counts5: [u32; 120],
}

impl HopSummary {
    /// Summarizes one hop of samples (`hop.len() >= 5`, enforced by the
    /// extractor's geometry validation).
    // lint: hot-path
    fn from_hop(hop: &[f64]) -> Self {
        let raw = MomentSummary::from_slice(hop);
        let sum_sq = hop.iter().map(|x| x * x).sum();
        let d1 = SpreadSummary::from_first_differences(hop);
        let d2 = SpreadSummary::from_second_differences(hop);
        let mut line_length = 0.0;
        let mut zero_crossings = 0u32;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for pair in hop.windows(2) {
            let diff = pair[1] - pair[0];
            line_length += diff.abs();
            if (pair[0] >= 0.0) != (pair[1] >= 0.0) {
                zero_crossings += 1;
            }
        }
        let mut nle_sum = 0.0;
        for triple in hop.windows(3) {
            nle_sum += triple[1] * triple[1] - triple[0] * triple[2];
        }
        for &x in hop {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        let mut counts3 = [0u32; 6];
        let mut counts5 = [0u32; 120];
        accumulate_pattern_counts_delay1(hop, 3, &mut counts3);
        accumulate_pattern_counts_delay1(hop, 5, &mut counts5);
        Self {
            raw,
            sum_sq,
            d1,
            d2,
            line_length,
            nle_sum,
            zero_crossings,
            lo,
            hi,
            first: [hop[0], hop[1], hop[2], hop[3]],
            last: [
                hop[hop.len() - 4],
                hop[hop.len() - 3],
                hop[hop.len() - 2],
                hop[hop.len() - 1],
            ],
            counts3,
            counts5,
        }
    }

    /// Adds the ordinal patterns that straddle from this hop into `next`,
    /// turning the hop's "own" tables into full tables. A pattern spans at
    /// most `span = 4` samples, so the straddle slice of the last four
    /// samples of this hop plus the first four of the next covers every
    /// crossing start exactly once.
    // lint: hot-path
    fn complete_with(&mut self, next: &HopSummary) {
        let straddle3 = [self.last[2], self.last[3], next.first[0], next.first[1]];
        accumulate_pattern_counts(&straddle3, 3, 1, &mut self.counts3);
        let straddle5 = [
            self.last[0],
            self.last[1],
            self.last[2],
            self.last[3],
            next.first[0],
            next.first[1],
            next.first[2],
            next.first[3],
        ];
        accumulate_pattern_counts(&straddle5, 5, 1, &mut self.counts5);
    }
}

/// Per-channel streaming state: the linearized current window, the ring of
/// hop summaries and the carried wavelet coefficients.
#[derive(Debug, Clone)]
struct ChannelStream {
    /// The last `window` samples, linearized (shifted left one hop at a
    /// time) — the input of the exact periodogram and the wavelet update.
    window_buf: Vec<f64>,
    /// Ring of the last `k` hop summaries, indexed by `hop_index % k`.
    ring: Vec<HopSummary>,
    /// Carried wavelet coefficients.
    wavelet: StreamingWavelet,
}

/// Stateful streaming twin of [`RichFeatureSet`]: feeds on one hop of both
/// channels at a time and emits one 54-feature row per completed window,
/// reusing all work the window overlap already paid for.
///
/// Use [`StreamingRichExtractor::extract_batch_into`] for record-level
/// workloads (fills a [`FeatureMatrix`] exactly like the batch extractor) or
/// [`StreamingRichExtractor::push_hop`] to drive it hop by hop in real time.
/// The batch extractor remains the bit-exact reference; see the module docs
/// for the per-column equivalence/error model.
///
/// # Example
///
/// ```
/// use seizure_features::extractor::{RichFeatureSet, SlidingWindowConfig};
/// use seizure_features::scratch::FeatureScratchPool;
/// use seizure_features::streaming::StreamingRichExtractor;
/// use seizure_features::FeatureMatrix;
///
/// # fn main() -> Result<(), seizure_features::FeatureError> {
/// let fs = 256.0;
/// let config = SlidingWindowConfig::paper_default(fs)?;
/// let n = 1024 + 3 * 256;
/// let a: Vec<f64> = (0..n).map(|i| (i as f64 * 0.07).sin()).collect();
/// let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
///
/// let mut streaming = StreamingRichExtractor::new(&config)?;
/// let mut matrix = FeatureMatrix::default();
/// streaming.extract_batch_into(&a, &b, &mut matrix)?;
///
/// let mut reference = FeatureMatrix::default();
/// RichFeatureSet::new(fs)?.extract_batch_into(
///     &a,
///     &b,
///     &config,
///     &FeatureScratchPool::new(),
///     &mut reference,
/// )?;
/// assert_eq!(matrix.num_windows(), reference.num_windows());
/// for (s, r) in matrix.data().iter().zip(reference.data().iter()) {
///     assert!((s - r).abs() <= 1e-7 * (1.0 + r.abs()));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingRichExtractor {
    fs: f64,
    window: usize,
    hop: usize,
    /// Hops per window.
    k: usize,
    /// Batch-identical feature definition, used for names.
    reference: RichFeatureSet,
    /// Full-window periodogram plan.
    psd: PsdPlan,
    /// Window-resolution PSD bins (transient scratch, not carried state).
    power: Vec<f64>,
    /// FFT scratch (transient, not carried state).
    spectrum: Vec<Complex>,
    channels: [ChannelStream; 2],
    /// Hops ingested since construction or [`StreamingRichExtractor::reset`].
    hops_seen: usize,
}

impl StreamingRichExtractor {
    /// Builds a streaming extractor for the window geometry of `config`.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::InvalidConfig`] when the geometry cannot be
    /// streamed: the window must be an integer number of hops (so hop
    /// summaries tile windows exactly), the hop must exceed the order-5
    /// ordinal pattern span of four samples, and the wavelet carry-over
    /// imposes `hop % 2^levels == 0` with at least one hop of reusable clean
    /// coefficients per level (propagated as [`FeatureError::Dsp`]). The
    /// paper's 4 s / 75 % geometry at 256 Hz satisfies all of these.
    pub fn new(config: &SlidingWindowConfig) -> Result<Self, FeatureError> {
        let fs = config.sampling_frequency();
        let window = config.window_samples();
        let hop = config.step_samples();
        if hop == 0 || !window.is_multiple_of(hop) || window / hop < 2 {
            return Err(FeatureError::InvalidConfig {
                name: "config",
                reason: format!(
                    "streaming extraction requires the window ({window} samples) to be an \
                     integer multiple (>= 2) of the hop ({hop} samples)"
                ),
            });
        }
        if hop <= 4 {
            return Err(FeatureError::InvalidConfig {
                name: "config",
                reason: format!(
                    "streaming extraction requires hops longer than the order-5 ordinal \
                     pattern span of 4 samples, got {hop}"
                ),
            });
        }
        let k = window / hop;
        let wavelet = Wavelet::Daubechies4;
        let levels = RICH_WAVELET_LEVELS.min(wavelet.max_level(window)).max(1);
        let min_detail = 3.min(levels);
        let psd = PsdPlan::new(window)?;
        let make_channel = || -> Result<ChannelStream, FeatureError> {
            Ok(ChannelStream {
                window_buf: vec![0.0; window],
                ring: Vec::with_capacity(k),
                wavelet: StreamingWavelet::new(wavelet, window, hop, levels, min_detail)?,
            })
        };
        // The ordinal-pattern transition tables are process-wide and built on
        // first use: build them here so the first hop does not allocate.
        crate::entropy::ordinal_transitions();
        Ok(Self {
            fs,
            window,
            hop,
            k,
            reference: RichFeatureSet::new(fs)?,
            power: vec![0.0; psd.num_bins()],
            spectrum: vec![Complex::zero(); psd.scratch_len()],
            psd,
            channels: [make_channel()?, make_channel()?],
            hops_seen: 0,
        })
    }

    /// Sampling frequency of the geometry.
    pub fn sampling_frequency(&self) -> f64 {
        self.fs
    }

    /// Window length in samples.
    pub fn window_samples(&self) -> usize {
        self.window
    }

    /// Hop length in samples.
    pub fn step_samples(&self) -> usize {
        self.hop
    }

    /// Number of features per emitted row (54: 27 per channel).
    pub fn num_features(&self) -> usize {
        2 * RICH_FEATURES_PER_CHANNEL
    }

    /// The linearized samples of the current window for `channel`
    /// (0 = F7T3, 1 = F8T4) — the exact slice the spectral and wavelet
    /// operators see. Meaningful once a [`StreamingRichExtractor::push_hop`]
    /// call has returned `true`; while the first window is still filling the
    /// tail of the buffer is zero. Lets streaming callers run window-level
    /// side analyses (e.g. signal-quality grading) without buffering the
    /// samples a second time.
    ///
    /// # Panics
    ///
    /// Panics if `channel > 1`.
    pub fn current_window(&self, channel: usize) -> &[f64] {
        &self.channels[channel].window_buf
    }

    /// Bytes of state carried across hops, counted semantically (`f64`
    /// slots × 8 plus `u32` slots × 4, both channels): the linearized window
    /// ring buffers, the hop-summary rings and the carried wavelet
    /// coefficients. Transient FFT
    /// scratch is excluded — it exists in the batch path too. The edge
    /// memory model (`edge::memory::streaming_state_bytes`) mirrors this
    /// number byte for byte.
    pub fn state_bytes(&self) -> usize {
        let per_channel_f64 =
            self.window + self.k * HOP_SUMMARY_F64_SLOTS + self.channels[0].wavelet.state_len();
        let per_channel_u32 = self.k * HOP_SUMMARY_U32_SLOTS;
        2 * (per_channel_f64 * 8 + per_channel_u32 * 4)
    }

    /// Forgets all carried state so the next hop starts a new record.
    pub fn reset(&mut self) {
        self.hops_seen = 0;
        for chan in &mut self.channels {
            chan.ring.clear();
            chan.wavelet.reset();
        }
    }

    /// Ingests one hop of both channels. Returns `Ok(false)` while the first
    /// window is still filling; once `window / hop` hops are buffered, every
    /// call completes a window, writes its 54 features into `row` and
    /// returns `Ok(true)`. `row` is only touched (and its length only
    /// validated) when a window completes. No heap allocations are performed
    /// after the first `k` hops of a record.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the hop slices
    /// differ in length, [`FeatureError::DimensionMismatch`] if they do not
    /// match the configured hop or `row` does not have 54 slots at window
    /// completion, and propagates numeric failures.
    // lint: hot-path
    pub fn push_hop(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        row: &mut [f64],
    ) -> Result<bool, FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        if f7t3.len() != self.hop {
            return Err(hop_size_mismatch(f7t3.len(), self.hop));
        }
        self.open_hop();
        let at = self.hop_start();
        for (chan, hop_samples) in self.channels.iter_mut().zip([f7t3, f8t4]) {
            chan.window_buf[at..at + self.hop].copy_from_slice(hop_samples);
        }
        self.push_staged_hop(row)
    }

    /// Writes sample `index` (`0..hop`) of the next hop of both channels
    /// straight into its slot of the window buffers, so a sample-at-a-time
    /// caller needs no staging copy of its own. Stage the samples in order:
    /// sample 0 first shifts a full window left by one hop, and until then
    /// [`current_window`] still shows the last completed window. Once all
    /// `hop` samples are written,
    /// [`push_staged_hop`] ingests them exactly as [`push_hop`] would.
    ///
    /// [`current_window`]: StreamingRichExtractor::current_window
    /// [`push_staged_hop`]: StreamingRichExtractor::push_staged_hop
    /// [`push_hop`]: StreamingRichExtractor::push_hop
    ///
    /// # Panics
    ///
    /// Panics if `index >= hop`.
    // lint: hot-path
    pub fn stage(&mut self, index: usize, f7t3: f64, f8t4: f64) {
        assert!(index < self.hop, "sample {index} is outside the hop");
        if index == 0 {
            self.open_hop();
        }
        let at = self.hop_start() + index;
        self.channels[0].window_buf[at] = f7t3;
        self.channels[1].window_buf[at] = f8t4;
    }

    /// Ingests the hop written through [`StreamingRichExtractor::stage`]
    /// (every one of its `hop` samples must have been staged). Same return
    /// value and errors as [`StreamingRichExtractor::push_hop`].
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::DimensionMismatch`] if `row` does not have 54
    /// slots at window completion, and propagates numeric failures.
    // lint: hot-path
    pub fn push_staged_hop(&mut self, row: &mut [f64]) -> Result<bool, FeatureError> {
        let slot = self.hops_seen % self.k;
        let at = self.hop_start();
        for chan in &mut self.channels {
            let summary = HopSummary::from_hop(&chan.window_buf[at..at + self.hop]);
            if self.hops_seen > 0 {
                // The previous hop can now count its straddling patterns.
                let prev_slot = (self.hops_seen - 1) % self.k;
                chan.ring[prev_slot].complete_with(&summary);
            }
            if chan.ring.len() < self.k {
                chan.ring.push(summary);
            } else {
                chan.ring[slot] = summary;
            }
        }
        self.hops_seen += 1;
        if self.hops_seen < self.k {
            return Ok(false);
        }
        if row.len() != 2 * RICH_FEATURES_PER_CHANNEL {
            return Err(row_size_mismatch(row.len()));
        }
        let base = self.hops_seen - self.k;
        let (left, right) = row.split_at_mut(RICH_FEATURES_PER_CHANNEL);
        for (chan, out) in self.channels.iter_mut().zip([left, right]) {
            finalize_channel(
                chan,
                &self.psd,
                &mut self.power,
                &mut self.spectrum,
                self.fs,
                self.window,
                self.k,
                base,
                out,
            )?;
        }
        Ok(true)
    }

    /// The samples of the most recently ingested hop for `channel` (0 =
    /// F7T3, 1 = F8T4); valid after a [`StreamingRichExtractor::push_hop`]
    /// or [`StreamingRichExtractor::push_staged_hop`] call, until the next
    /// hop is staged.
    ///
    /// # Panics
    ///
    /// Panics if `channel > 1` or no hop has been ingested.
    pub fn last_hop(&self, channel: usize) -> &[f64] {
        let at = (self.hops_seen - 1).min(self.k - 1) * self.hop;
        &self.channels[channel].window_buf[at..at + self.hop]
    }

    /// Start of the slot the next hop fills: the hop's place while the
    /// first window is filling, the window tail afterwards.
    fn hop_start(&self) -> usize {
        self.hops_seen.min(self.k - 1) * self.hop
    }

    /// Makes room for the next hop: once a full window is buffered, shifts
    /// it left by one hop.
    fn open_hop(&mut self) {
        if self.hops_seen >= self.k {
            for chan in &mut self.channels {
                chan.window_buf.copy_within(self.hop.., 0);
            }
        }
    }

    /// Extracts the full feature matrix of a record through the streaming
    /// path — the drop-in counterpart of
    /// [`RichFeatureSet::extract_batch_into`] (same rows, same column names,
    /// equivalence per the module-level error model). Resets any carried state first, so one
    /// extractor can process a whole cohort of records back to back while
    /// reusing the matrix allocation.
    ///
    /// # Errors
    ///
    /// Returns [`FeatureError::ChannelLengthMismatch`] if the channels
    /// differ in length, [`FeatureError::SignalTooShort`] if not even one
    /// window fits, and propagates numeric failures.
    pub fn extract_batch_into(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
        matrix: &mut FeatureMatrix,
    ) -> Result<(), FeatureError> {
        if f7t3.len() != f8t4.len() {
            return Err(FeatureError::ChannelLengthMismatch {
                left: f7t3.len(),
                right: f8t4.len(),
            });
        }
        if f7t3.len() < self.window {
            return Err(FeatureError::SignalTooShort {
                actual: f7t3.len(),
                required: self.window,
            });
        }
        self.reset();
        let rows = (f7t3.len() - self.window) / self.hop + 1;
        let num_features = self.num_features();
        matrix.ensure_names(|| self.reference.feature_names());
        let data = matrix.reset_rows(rows);
        let mut empty: [f64; 0] = [];
        for h in 0..rows + self.k - 1 {
            let start = h * self.hop;
            let hop_a = &f7t3[start..start + self.hop];
            let hop_b = &f8t4[start..start + self.hop];
            if h + 1 < self.k {
                self.push_hop(hop_a, hop_b, &mut empty)?;
            } else {
                let w = h + 1 - self.k;
                let row = &mut data[w * num_features..(w + 1) * num_features];
                let wrote = self.push_hop(hop_a, hop_b, row)?;
                debug_assert!(wrote, "window {w} must complete at hop {h}");
            }
        }
        Ok(())
    }

    /// Allocating convenience wrapper around
    /// [`StreamingRichExtractor::extract_batch_into`].
    ///
    /// # Errors
    ///
    /// Same contract as [`StreamingRichExtractor::extract_batch_into`].
    pub fn extract_batch(
        &mut self,
        f7t3: &[f64],
        f8t4: &[f64],
    ) -> Result<FeatureMatrix, FeatureError> {
        let mut matrix = FeatureMatrix::default();
        self.extract_batch_into(f7t3, f8t4, &mut matrix)?;
        Ok(matrix)
    }
}

/// Misuse-only error constructor, kept outside the hot blocks so the
/// formatting allocation never sits on the per-hop path.
#[cold]
fn hop_size_mismatch(actual: usize, expected: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "hop has {actual} samples but the extractor was built for {expected}-sample hops"
        ),
    }
}

/// Misuse-only error constructor for a wrongly sized output row.
#[cold]
fn row_size_mismatch(actual: usize) -> FeatureError {
    FeatureError::DimensionMismatch {
        detail: format!(
            "output row has {actual} slots but the rich set produces {} features",
            2 * RICH_FEATURES_PER_CHANNEL
        ),
    }
}

/// Merges one channel's hop ring into its 27-feature block. `base` is the
/// absolute index of the oldest hop of the window; ring slots are visited in
/// temporal order so the merged moments are a pure function of the hop
/// history.
// lint: hot-path
#[allow(clippy::too_many_arguments)]
fn finalize_channel(
    chan: &mut ChannelStream,
    psd: &PsdPlan,
    power: &mut [f64],
    spectrum: &mut [Complex],
    fs: f64,
    window: usize,
    k: usize,
    base: usize,
    out: &mut [f64],
) -> Result<(), FeatureError> {
    debug_assert_eq!(out.len(), RICH_FEATURES_PER_CHANNEL);
    // Spectral block: the batch extractor's full-window periodogram.
    psd.power_into(&chan.window_buf, fs, power, spectrum)?;
    let bands = band_powers_from_bins(power, fs, window)?;
    out[..5].copy_from_slice(&bands.absolute);
    out[5..10].copy_from_slice(&bands.relative);
    out[10] = bands.total;

    // Merge the hop summaries in temporal order, stitching the boundary
    // terms (one first difference, two second differences, two Teager
    // triples, one sign pair per hop boundary) from the carried edge
    // samples.
    let slot = |j: usize| (base + j) % k;
    let oldest = &chan.ring[slot(0)];
    let mut raw = oldest.raw;
    let mut sum_sq = oldest.sum_sq;
    let mut d1 = oldest.d1;
    let mut d2 = oldest.d2;
    let mut line_length = oldest.line_length;
    let mut nle_sum = oldest.nle_sum;
    let mut zero_crossings = oldest.zero_crossings;
    let mut lo = oldest.lo;
    let mut hi = oldest.hi;
    let mut counts3 = oldest.counts3;
    let mut counts5 = oldest.counts5;
    let mut prev_last = oldest.last;
    for j in 1..k {
        let cur = &chan.ring[slot(j)];
        let b_d1 = cur.first[0] - prev_last[3];
        d1.push(b_d1);
        d2.push(b_d1 - (prev_last[3] - prev_last[2]));
        d2.push((cur.first[1] - cur.first[0]) - b_d1);
        line_length += b_d1.abs();
        nle_sum += prev_last[3] * prev_last[3] - prev_last[2] * cur.first[0];
        nle_sum += cur.first[0] * cur.first[0] - prev_last[3] * cur.first[1];
        if (prev_last[3] >= 0.0) != (cur.first[0] >= 0.0) {
            zero_crossings += 1;
        }
        raw = raw.merge(cur.raw);
        sum_sq += cur.sum_sq;
        d1 = d1.merge(cur.d1);
        d2 = d2.merge(cur.d2);
        line_length += cur.line_length;
        nle_sum += cur.nle_sum;
        zero_crossings += cur.zero_crossings;
        lo = lo.min(cur.lo);
        hi = hi.max(cur.hi);
        for (acc, c) in counts3.iter_mut().zip(cur.counts3.iter()) {
            *acc += c;
        }
        for (acc, c) in counts5.iter_mut().zip(cur.counts5.iter()) {
            *acc += c;
        }
        prev_last = cur.last;
    }

    let stats = raw.statistics(sum_sq);
    out[11] = stats.mean;
    out[12] = stats.variance;
    out[13] = stats.skewness;
    out[14] = stats.kurtosis;
    out[15] = stats.rms;

    // Hjorth descriptors with the batch path's degenerate guards.
    let activity = raw.variance();
    let var_d1 = d1.variance();
    let var_d2 = d2.variance();
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
    out[16] = mobility;
    out[17] = if mobility > 0.0 {
        mobility_d1 / mobility
    } else {
        0.0
    };

    out[18] = line_length;
    out[19] = nle_sum / (window - 2) as f64;
    out[20] = f64::from(zero_crossings);
    out[21] = hi - lo;

    // Integer pattern tables sum exactly, so these match the batch
    // `permutation_entropy_scratch` bit for bit.
    out[22] = entropy_from_counts(&counts3, window - 2, 3);
    out[23] = entropy_from_counts(&counts5, window - 4, 5);

    chan.wavelet.update(&chan.window_buf)?;
    let levels = chan.wavelet.levels();
    for (slot, level) in out[24..27].iter_mut().zip([3usize, 4, 5]) {
        let clamped = level.min(levels).max(1);
        let detail = chan
            .wavelet
            .detail(clamped)
            .expect("clamped level is maintained by construction");
        *slot = shannon_entropy_noalloc(detail);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::FeatureScratchPool;

    /// The batch extractor's matrix of a record.
    fn batch(fs: f64, a: &[f64], b: &[f64], config: &SlidingWindowConfig) -> FeatureMatrix {
        let mut matrix = FeatureMatrix::default();
        RichFeatureSet::new(fs)
            .unwrap()
            .extract_batch_into(a, b, config, &FeatureScratchPool::new(), &mut matrix)
            .unwrap();
        matrix
    }

    fn synth(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed | 1;
        (0..n)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                (i as f64 * 0.043).sin() + 0.6 * (i as f64 * 0.171).cos() + 0.3 * noise
            })
            .collect()
    }

    fn assert_rows_equivalent(streaming: &FeatureMatrix, batch: &FeatureMatrix, tol: f64) {
        assert_eq!(streaming.num_windows(), batch.num_windows());
        for (i, (s, r)) in streaming.data().iter().zip(batch.data().iter()).enumerate() {
            assert!(
                (s - r).abs() <= tol * (1.0 + r.abs()),
                "flat index {i}: streaming {s} vs batch {r}"
            );
        }
    }

    #[test]
    fn streaming_matches_batch_on_paper_geometry() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 9 * 256, 7);
        let b = synth(1024 + 9 * 256, 99);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut matrix = FeatureMatrix::default();
        streaming.extract_batch_into(&a, &b, &mut matrix).unwrap();
        let batch = batch(fs, &a, &b, &config);
        assert_rows_equivalent(&matrix, &batch, 1e-9);
    }

    #[test]
    fn exact_columns_are_bitwise_equal() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 5 * 256, 21);
        let b = synth(1024 + 5 * 256, 22);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let matrix = streaming.extract_batch(&a, &b).unwrap();
        let batch = batch(fs, &a, &b, &config);
        // Bands, zero crossings, peak-to-peak, permutation and
        // wavelet entropies must match bit for bit, both channels.
        let exact: Vec<usize> = (0..11)
            .chain(20..=26)
            .flat_map(|c| [c, c + RICH_FEATURES_PER_CHANNEL])
            .collect();
        for w in 0..matrix.num_windows() {
            for &c in &exact {
                assert_eq!(
                    matrix.get(w, c),
                    batch.get(w, c),
                    "window {w} column {c} must be bit-exact"
                );
            }
        }
    }

    #[test]
    fn push_hop_streams_one_row_per_hop_after_warmup() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 3 * 256, 31);
        let b = synth(1024 + 3 * 256, 32);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut reference = StreamingRichExtractor::new(&config).unwrap();
        let expected = reference.extract_batch(&a, &b).unwrap();
        let mut row = vec![0.0; streaming.num_features()];
        let mut produced = 0usize;
        for h in 0..a.len() / 256 {
            let s = h * 256;
            let wrote = streaming
                .push_hop(&a[s..s + 256], &b[s..s + 256], &mut row)
                .unwrap();
            assert_eq!(wrote, h + 1 >= 4, "hop {h}");
            if wrote {
                assert_eq!(
                    row.as_slice(),
                    expected.row(produced),
                    "window {produced} must match the record-level streaming path bitwise"
                );
                produced += 1;
            }
        }
        assert_eq!(produced, expected.num_windows());
    }

    #[test]
    fn staged_samples_match_push_hop() {
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let a = synth(1024 + 3 * 256, 61);
        let b = synth(1024 + 3 * 256, 62);
        let mut sliced = StreamingRichExtractor::new(&config).unwrap();
        let mut staged = StreamingRichExtractor::new(&config).unwrap();
        let mut row_sliced = vec![0.0; 54];
        let mut row_staged = vec![0.0; 54];
        for h in 0..a.len() / 256 {
            let s = h * 256;
            let want = sliced
                .push_hop(&a[s..s + 256], &b[s..s + 256], &mut row_sliced)
                .unwrap();
            for i in 0..256 {
                staged.stage(i, a[s + i], b[s + i]);
            }
            let got = staged.push_staged_hop(&mut row_staged).unwrap();
            assert_eq!(got, want, "hop {h}");
            assert_eq!(row_staged, row_sliced, "hop {h}");
            for channel in 0..2 {
                assert_eq!(
                    staged.current_window(channel),
                    sliced.current_window(channel)
                );
                let hop = [&a, &b][channel];
                assert_eq!(staged.last_hop(channel), &hop[s..s + 256], "hop {h}");
            }
        }
        // Staging the next hop's first sample shifts the window.
        staged.stage(0, 7.0, 7.0);
        assert_eq!(
            staged.current_window(0)[..768],
            sliced.current_window(0)[256..]
        );
        assert_eq!(staged.current_window(0)[768], 7.0);
    }

    #[test]
    fn reset_isolates_records() {
        let fs = 256.0;
        let config = SlidingWindowConfig::paper_default(fs).unwrap();
        let a = synth(1024 + 2 * 256, 51);
        let b = synth(1024 + 2 * 256, 52);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let first = streaming.extract_batch(&a, &b).unwrap();
        // Second record through the same extractor: extract_batch_into
        // resets, so the output is identical.
        let second = streaming.extract_batch(&a, &b).unwrap();
        assert_eq!(first.data(), second.data());
    }

    #[test]
    fn rejects_unstreamable_geometries_and_bad_inputs() {
        // 60 % overlap: 1024-sample window, 410-sample step — not a divisor.
        let uneven = SlidingWindowConfig::new(256.0, 4.0, 0.6).unwrap();
        assert!(StreamingRichExtractor::new(&uneven).is_err());

        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut row = vec![0.0; 54];
        assert!(streaming
            .push_hop(&[0.0; 256], &[0.0; 100], &mut row)
            .is_err());
        assert!(streaming
            .push_hop(&[0.0; 100], &[0.0; 100], &mut row)
            .is_err());
        let short = vec![0.0; 512];
        let mut matrix = FeatureMatrix::default();
        assert!(streaming
            .extract_batch_into(&short, &short, &mut matrix)
            .is_err());
        let a = synth(1024, 1);
        let mut bad_row = vec![0.0; 10];
        for h in 0..3 {
            streaming
                .push_hop(
                    &a[h * 256..(h + 1) * 256],
                    &a[h * 256..(h + 1) * 256],
                    &mut bad_row,
                )
                .unwrap();
        }
        // The fourth hop completes a window and must reject the short row.
        assert!(streaming
            .push_hop(&a[768..1024], &a[768..1024], &mut bad_row)
            .is_err());
    }

    #[test]
    fn state_bytes_matches_semantic_count() {
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let streaming = StreamingRichExtractor::new(&config).unwrap();
        // window ring 1024 f64 + 4 hop summaries + carried wavelet coeffs,
        // per channel; wavelet: approx 512+256+128+64+32, details 128+64+32.
        let wavelet_slots = (512 + 256 + 128 + 64 + 32) + (128 + 64 + 32);
        let per_channel =
            (1024 + 4 * HOP_SUMMARY_F64_SLOTS + wavelet_slots) * 8 + 4 * HOP_SUMMARY_U32_SLOTS * 4;
        assert_eq!(streaming.state_bytes(), 2 * per_channel);
    }
}
