//! Memory budget of the a-posteriori labeling on the edge device.
//!
//! The labeling algorithm must keep the last hour of (feature-extracted) EEG
//! available when the patient triggers it. The paper states that the required
//! memory for one hour of data is 240 KB on a platform with 48 KB of RAM and
//! 384 KB of Flash — i.e. the hour-long buffer lives in Flash while the
//! per-window working set stays in RAM. This module reproduces that budget.

use crate::error::EdgeError;
use crate::platform::PlatformSpec;
use serde::{Deserialize, Serialize};

/// Memory requirement breakdown for the labeling pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryBudget {
    /// Size of the buffered history (the last hour of data) in bytes; stored in
    /// Flash on the target platform.
    pub history_bytes: usize,
    /// Size of the per-window working set (current window samples, feature
    /// vector and algorithm scratch space) in bytes; must fit in RAM.
    pub working_bytes: usize,
    /// `true` when the history buffer fits in Flash.
    pub fits_flash: bool,
    /// `true` when the working set fits in RAM.
    pub fits_ram: bool,
}

/// Memory model of the labeling pipeline on a given platform.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MemoryModel {
    spec: PlatformSpec,
}

/// Bytes per stored value in the history buffer. The paper's 240 KB/hour figure
/// corresponds to storing the buffered signal in a compressed/decimated form
/// rather than raw 24-bit samples; with 2 channels at 256 Hz for 3600 s this
/// works out to roughly 0.13 byte per raw sample, which matches storing the
/// per-second feature rows (10 features × 4 bytes) together with a decimated
/// 8-bit copy of the signal. We model the history as exactly the paper's
/// per-hour figure scaled by the buffer duration.
pub const PAPER_HISTORY_BYTES_PER_HOUR: usize = 240 * 1024;

/// Exact size in bytes of the quality gate's calibration block inside a
/// persisted detector snapshot (`seizure-core`'s `RealTimeDetector`): a
/// presence flag plus the two per-channel reference log-amplitudes and
/// their accumulated weight. Pinned against the real codec by
/// `tests/edge_platform.rs`.
pub const GATE_STATE_BYTES: usize = 1 + 3 * 8;

/// Per-window quality indicators of `seizure-features`' quality module
/// (seven per channel plus the cross-channel disagreement). Kept as a local
/// constant so the edge crate stays free of the feature crate's machinery;
/// `tests/edge_platform.rs` pins it to the real layout.
const QUALITY_FEATURES: usize = 15;

/// `f64` slots one hop summary of the streaming extractor carries (the raw
/// moment accumulator, the two second-order difference accumulators,
/// partial waveform folds and the eight boundary samples). Mirrors
/// `seizure-features`' `streaming::HOP_SUMMARY_F64_SLOTS`; pinned by
/// `tests/edge_platform.rs`.
const HOP_SUMMARY_F64: usize = 24;

/// `u32` slots per hop summary (zero-crossing count plus the order-3 and
/// order-5 ordinal pattern tables). Mirrors
/// `streaming::HOP_SUMMARY_U32_SLOTS`; pinned by `tests/edge_platform.rs`.
const HOP_SUMMARY_U32: usize = 1 + 6 + 120;

/// `f64` slots one chunk summary of the streaming quality grader carries
/// (extrema, edge samples, sum, second moment, step sum and maximum, and one
/// complex DFT partial for each of the 15 probes). Mirrors
/// `seizure-features`' `quality::CHUNK_SUMMARY_F64_SLOTS`; pinned by
/// `tests/edge_platform.rs`.
const CHUNK_SUMMARY_F64: usize = 8 + 2 * 15;

/// `u32` slots per chunk summary (samples on each extremum, the non-finite
/// count and three flat-run lengths). Mirrors
/// `quality::CHUNK_SUMMARY_U32_SLOTS`; pinned by `tests/edge_platform.rs`.
const CHUNK_SUMMARY_U32: usize = 6;

/// The rich feature set decomposes with db4 to at most this many levels.
const STREAM_WAVELET_MAX_LEVELS: usize = 5;

/// db4 filter length, for the `wmaxlev` clamp.
const STREAM_WAVELET_FILTER_LEN: usize = 8;

/// Coarsest detail level the rich set reads Shannon entropies from; the
/// streaming wavelet only maintains detail buffers from here up.
const STREAM_MIN_DETAIL_LEVEL: usize = 3;

/// Whole seconds of a `buffer_secs` history buffer, rounded up: the
/// labeler keeps one distance row and the quality gate one verdict byte per
/// second. Rejects a duration that is not positive and finite or that
/// exceeds `usize::MAX / 256` seconds.
fn buffer_seconds(buffer_secs: f64) -> Result<usize, EdgeError> {
    let longest = (usize::MAX / 256) as f64;
    // `false` for NaN and for ±∞ as well.
    if buffer_secs > 0.0 && buffer_secs <= longest {
        Ok(buffer_secs.ceil() as usize)
    } else {
        Err(EdgeError::InvalidParameter {
            name: "buffer_secs",
            reason: format!(
                "buffer duration must be positive and at most {longest} s, got {buffer_secs}"
            ),
        })
    }
}

impl MemoryModel {
    /// Creates a memory model for the given platform.
    pub fn new(spec: PlatformSpec) -> Self {
        Self { spec }
    }

    /// The platform specification.
    pub fn platform(&self) -> &PlatformSpec {
        &self.spec
    }

    /// Size in bytes of the feature matrix for `buffer_secs` seconds of signal
    /// with `num_features` features extracted every `step_secs` seconds and
    /// stored as `f32`.
    pub fn feature_matrix_bytes(
        &self,
        buffer_secs: f64,
        num_features: usize,
        step_secs: f64,
    ) -> usize {
        if step_secs <= 0.0 || buffer_secs <= 0.0 {
            return 0;
        }
        let rows = (buffer_secs / step_secs).ceil() as usize;
        rows * num_features * std::mem::size_of::<f32>()
    }

    /// Exact size in bytes of a persisted incremental-trainer snapshot
    /// (`seizure-ml`'s `persist::trainer_to_bytes`) for a pool of
    /// `num_samples` samples of `num_features` features, cached as `n_trees`
    /// trees totalling `total_nodes` nodes. Mirrors the format's layout term
    /// by term — envelope, fixed trainer fields, the column-major matrix
    /// with bit-packed labels (the presorted orders are rebuilt on load, not
    /// stored), and the per-tree arenas — so a wearable can budget its Flash
    /// before ever writing a snapshot. An integration test pins this formula
    /// to the real codec's output length.
    pub fn trainer_snapshot_bytes(
        &self,
        num_samples: usize,
        num_features: usize,
        n_trees: usize,
        total_nodes: usize,
    ) -> usize {
        // Envelope: magic 8 + version 2 + kind 2 + payload length 8 +
        // checksum 8.
        const ENVELOPE: usize = 28;
        // Forest config (41) + block_size, seed, last refit count (24) +
        // has-pool flag (1).
        const TRAINER_FIXED: usize = 66;
        // Pool: feature count + two slice length prefixes.
        const POOL_FIXED: usize = 24;
        // Per tree: the two fingerprint fields + five arena length prefixes.
        const PER_TREE: usize = 56;
        // Per node: feature u32 + threshold f64 + children 2xu32 + leaf f64.
        const PER_NODE: usize = 28;
        // An empty trainer (no retrain yet) stores no pool section at all.
        let pool = if num_samples == 0 {
            0
        } else {
            POOL_FIXED + num_samples.div_ceil(8) + 8 * num_samples * num_features
        };
        let trees = 8 + n_trees * PER_TREE + total_nodes * PER_NODE;
        ENVELOPE + TRAINER_FIXED + pool + trees
    }

    /// Exact size in bytes of one delta-journal entry (`seizure-ml`'s
    /// `persist::journal::JournalWriter`) recording a retrain batch of
    /// `batch_samples` rows of `num_features` features plus
    /// `annotation_bytes` of caller state (0 for the detector's entries; 40
    /// for the pipeline's, which annotates the produced seizure label and
    /// the gate calibration reached after the record).
    /// Mirrors the entry layout term by term — envelope, base fingerprint,
    /// pool position, feature count, bit-packed labels, the row matrix, the
    /// annotation — so a wearable can budget the per-seizure Flash append
    /// before writing it. Pinned to the real codec by
    /// `tests/edge_platform.rs`, like
    /// [`MemoryModel::trainer_snapshot_bytes`].
    pub fn journal_entry_bytes(
        &self,
        batch_samples: usize,
        num_features: usize,
        annotation_bytes: usize,
    ) -> usize {
        // Envelope 28 + fingerprint 8 + pool length 8 + feature count 8 +
        // three length prefixes (labels, rows, annotation) of 8 each.
        const ENTRY_FIXED: usize = 28 + 24 + 3 * 8;
        ENTRY_FIXED
            + batch_samples.div_ceil(8)
            + 8 * batch_samples * num_features
            + annotation_bytes
    }

    /// Exact RAM held by a training pool's presorted order storage under the
    /// block-run layout (`seizure-ml`'s `TrainingSet`): one u16 block-relative
    /// id per sample per feature. Runs are the only storage — every block's
    /// base offset is closed-form (`block * run_block * num_features`), so no
    /// offset table exists and the price is independent of the block length.
    /// Pinned byte-for-byte to `TrainingSet::order_bytes` in
    /// `tests/edge_platform.rs`.
    pub fn block_run_order_bytes(&self, num_samples: usize, num_features: usize) -> usize {
        2 * num_samples * num_features
    }

    /// RAM the pre-block-run layout held for the same orders: one flat u32
    /// global id per sample per feature — exactly twice
    /// [`MemoryModel::block_run_order_bytes`]. Kept as the comparison term so
    /// budget reviews can price the layout switch.
    pub fn flat_order_bytes(&self, num_samples: usize, num_features: usize) -> usize {
        4 * num_samples * num_features
    }

    /// [`MemoryModel::budget`] with a persisted-state snapshot stored in
    /// Flash next to the history buffer: the snapshot bytes are added to the
    /// Flash-resident side of the budget, so `fits_flash` answers whether
    /// the platform can hold **both** the last hour of data and the
    /// personalized trainer state across a power cycle.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_snapshot(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget = self.budget(buffer_secs)?;
        budget.history_bytes += snapshot_bytes;
        budget.fits_flash = budget.history_bytes <= self.spec.flash_bytes;
        Ok(budget)
    }

    /// Exact Flash footprint of `seizure-ml`'s crash-proof A/B store
    /// (`persist::store::FlashStore`) holding base snapshots up to
    /// `base_capacity` bytes next to a `journal_bytes` journal region: two
    /// alternating slots, each a 40-byte header plus the base capacity, and
    /// one journal region. Pinned to the real layout
    /// (`FlashGeometry::total_bytes`) by `tests/edge_platform.rs`.
    pub fn dual_slot_store_bytes(&self, base_capacity: usize, journal_bytes: usize) -> usize {
        // Slot header: magic 8 + sequence 8 + base length 8 + base
        // fingerprint 8 + header checksum 8.
        const SLOT_HEADER: usize = 40;
        2 * (SLOT_HEADER + base_capacity) + journal_bytes
    }

    /// [`MemoryModel::budget_with_snapshot`] for the crash-proof A/B store,
    /// the layout a device persists through: Flash holds the history buffer
    /// plus the full dual-slot image —
    /// **two** base slots (so compaction can write the fresh snapshot beside
    /// the committed one instead of over it) and the journal region.
    /// Crash-proofing doubles the base-snapshot reservation; `fits_flash`
    /// answers whether the platform affords that insurance.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_ab_store(
        &self,
        buffer_secs: f64,
        base_capacity: usize,
        journal_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        self.budget_with_snapshot(
            buffer_secs,
            self.dual_slot_store_bytes(base_capacity, journal_bytes),
        )
    }

    /// RAM scratch of the signal-quality front end over a `buffer_secs`
    /// history buffer: one live `f64` row of `QUALITY_FEATURES` indicators
    /// (windows are assessed streaming, so only the current row is resident),
    /// a one-byte verdict per analysis step (one step per second, matching
    /// the detector's 4 s windows at 75 % overlap — the full verdict ribbon
    /// is kept so the a-posteriori labeler can quarantine history windows),
    /// one two-channel 4-second window copy the slow gain correction
    /// rewrites in place, and the fused quality kernel's step buffer: one
    /// `f64` `|Δ|` per sample of a one-channel 4-second window (channels are
    /// assessed one after the other through the same buffer).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive and finite or too long to price (see
    /// [`MemoryModel::budget`]).
    pub fn quality_scratch_bytes(&self, buffer_secs: f64) -> Result<usize, EdgeError> {
        let verdict_rows = buffer_seconds(buffer_secs)?;
        let window = (4.0 * self.spec.eeg_sampling_hz) as usize;
        let corrected_window = window * self.spec.num_channels;
        Ok(QUALITY_FEATURES * std::mem::size_of::<f64>()
            + verdict_rows
            + corrected_window * std::mem::size_of::<f64>()
            + window * std::mem::size_of::<f64>())
    }

    /// [`MemoryModel::budget_with_snapshot`] for a quality-gated detector:
    /// Flash additionally holds the gate's [`GATE_STATE_BYTES`] calibration
    /// block next to the snapshot, and the RAM side grows by
    /// [`MemoryModel::quality_scratch_bytes`] — the per-window indicator
    /// rows, verdicts, the gain-correction window copy and the quality
    /// kernel's step buffer. `fits_ram` and
    /// `fits_flash` answer whether artifact rejection is affordable on the
    /// platform at all.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_quality_gate(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget =
            self.budget_with_snapshot(buffer_secs, snapshot_bytes + GATE_STATE_BYTES)?;
        budget.working_bytes += self.quality_scratch_bytes(buffer_secs)?;
        budget.fits_ram = budget.working_bytes <= self.spec.ram_bytes;
        Ok(budget)
    }

    /// Bytes of state the streaming feature extractor
    /// (`seizure-features`' `StreamingRichExtractor`) carries across hops
    /// for this platform's channel count: per channel, the linearized
    /// window ring buffer, `window / step` hop summaries
    /// (`HOP_SUMMARY_F64` `f64` + `HOP_SUMMARY_U32` `u32` slots each) and
    /// the carried db4 coefficients (approximations on every level, details
    /// from level `STREAM_MIN_DETAIL_LEVEL` up). The formula mirrors the
    /// extractor's own `state_bytes()` byte for byte (`tests/edge_platform.rs`
    /// pins the two against each other); transient FFT scratch is excluded on
    /// both sides. Returns 0 for geometries the streaming extractor rejects
    /// (window not a multiple of the step).
    pub fn streaming_state_bytes(&self, window_samples: usize, step_samples: usize) -> usize {
        if step_samples == 0 || !window_samples.is_multiple_of(step_samples) {
            return 0;
        }
        let k = window_samples / step_samples;
        // db4 `wmaxlev`, clamped to the rich set's decomposition depth.
        let max_level = if window_samples < STREAM_WAVELET_FILTER_LEN {
            0
        } else {
            let ratio = window_samples as f64 / (STREAM_WAVELET_FILTER_LEN as f64 - 1.0);
            ratio.log2().floor().max(0.0) as usize
        };
        let levels = STREAM_WAVELET_MAX_LEVELS.min(max_level).max(1);
        let min_detail = STREAM_MIN_DETAIL_LEVEL.min(levels);
        let mut wavelet_slots = 0usize;
        for level in 1..=levels {
            wavelet_slots += window_samples >> level;
            if level >= min_detail {
                wavelet_slots += window_samples >> level;
            }
        }
        let f64_slots = window_samples + k * HOP_SUMMARY_F64 + wavelet_slots;
        let u32_slots = k * HOP_SUMMARY_U32;
        self.spec.num_channels * (f64_slots * std::mem::size_of::<f64>() + u32_slots * 4)
    }

    /// Bytes of the quality grader's chunk-summary ring (`seizure-features`'
    /// `StreamingQuality`): per channel, one summary
    /// (`CHUNK_SUMMARY_F64` `f64` + `CHUNK_SUMMARY_U32` `u32` slots) for each
    /// one-second chunk of `chunk_samples` samples a window holds. Returns 0
    /// when chunks do not tile the step, where the grader keeps no ring and
    /// runs the window kernel on every window.
    pub fn quality_ring_bytes(
        &self,
        window_samples: usize,
        step_samples: usize,
        chunk_samples: usize,
    ) -> usize {
        if chunk_samples == 0 || !step_samples.is_multiple_of(chunk_samples) {
            return 0;
        }
        let summary = CHUNK_SUMMARY_F64 * std::mem::size_of::<f64>() + CHUNK_SUMMARY_U32 * 4;
        self.spec.num_channels * (window_samples / chunk_samples) * summary
    }

    /// Bytes of state a gated sample-at-a-time detector (`seizure-core`'s
    /// `StreamingDetector`) carries across hops: the extractor's
    /// [`MemoryModel::streaming_state_bytes`] plus the
    /// quality grader's [`MemoryModel::quality_ring_bytes`]. Samples are
    /// written straight into the extractor's window buffers, so there is no
    /// staging term. Mirrors `StreamingDetector::state_bytes()` byte for
    /// byte (`tests/edge_platform.rs`).
    pub fn streaming_detector_state_bytes(
        &self,
        window_samples: usize,
        step_samples: usize,
        chunk_samples: usize,
    ) -> usize {
        self.streaming_state_bytes(window_samples, step_samples)
            + self.quality_ring_bytes(window_samples, step_samples, chunk_samples)
    }

    /// [`MemoryModel::budget_with_quality_gate`] for a detector running the
    /// sample-at-a-time streaming front end: the RAM side additionally holds
    /// the [`MemoryModel::streaming_detector_state_bytes`] it carries across
    /// hops (`chunk_samples` is one second of samples). On the paper platform
    /// (STM32L151, 48 KB RAM) the full-precision 4 s / 75 % state at 256 Hz
    /// is ~44 KB — streamable on its own, but `fits_ram` turns `false` once
    /// the hour-long quality ribbon shares the RAM, documenting that a
    /// deployment would down-convert the carried state to `f32`.
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive.
    pub fn budget_with_streaming(
        &self,
        buffer_secs: f64,
        snapshot_bytes: usize,
        window_samples: usize,
        step_samples: usize,
        chunk_samples: usize,
    ) -> Result<MemoryBudget, EdgeError> {
        let mut budget = self.budget_with_quality_gate(buffer_secs, snapshot_bytes)?;
        budget.working_bytes +=
            self.streaming_detector_state_bytes(window_samples, step_samples, chunk_samples);
        budget.fits_ram = budget.working_bytes <= self.spec.ram_bytes;
        Ok(budget)
    }

    /// Computes the memory budget for a history buffer of `buffer_secs`
    /// seconds (the paper uses one hour, the maximum delay between a missed
    /// seizure and the patient's confirmation).
    ///
    /// # Errors
    ///
    /// Returns [`EdgeError::InvalidParameter`] if the buffer duration is not
    /// positive and finite, or longer than `usize::MAX / 256` seconds (every
    /// per-second term of the budget costs under 256 bytes, so within that
    /// bound no byte count can overflow).
    pub fn budget(&self, buffer_secs: f64) -> Result<MemoryBudget, EdgeError> {
        let rows = buffer_seconds(buffer_secs)?;
        let history_bytes =
            (PAPER_HISTORY_BYTES_PER_HOUR as f64 * buffer_secs / 3600.0).ceil() as usize;
        // Working set: one 4-second raw window on both channels (f32), the
        // 10-feature row, and the Algorithm 1 distance/accumulator vectors for
        // one hour of rows.
        let window_samples = (4.0 * self.spec.eeg_sampling_hz) as usize * self.spec.num_channels;
        let working_bytes = window_samples * std::mem::size_of::<f32>()
            + 10 * std::mem::size_of::<f32>()
            + rows * std::mem::size_of::<f32>() // distance array
            + 2 * 10 * std::mem::size_of::<f32>(); // edge + distance_vector
        Ok(MemoryBudget {
            history_bytes,
            working_bytes,
            fits_flash: history_bytes <= self.spec.flash_bytes,
            fits_ram: working_bytes <= self.spec.ram_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MemoryModel {
        MemoryModel::new(PlatformSpec::stm32l151_default())
    }

    #[test]
    fn one_hour_budget_matches_paper_and_fits_the_platform() {
        let budget = model().budget(3600.0).unwrap();
        assert_eq!(budget.history_bytes, 240 * 1024);
        assert!(budget.fits_flash);
        assert!(budget.fits_ram);
        // The working set is a tiny fraction of the 48 KB RAM.
        assert!(budget.working_bytes < 48 * 1024);
    }

    #[test]
    fn budget_scales_linearly_with_duration() {
        let half = model().budget(1800.0).unwrap();
        let full = model().budget(3600.0).unwrap();
        assert_eq!(half.history_bytes * 2, full.history_bytes);
    }

    #[test]
    fn oversized_buffer_does_not_fit_flash() {
        // Ten hours of history exceed the 384 KB Flash.
        let budget = model().budget(36_000.0).unwrap();
        assert!(!budget.fits_flash);
    }

    #[test]
    fn invalid_duration_is_rejected() {
        // Regression: an infinite or astronomically long buffer used to
        // overflow the byte counts (a panic in debug builds, a wrapped
        // `fits_ram: true` in release builds).
        let model = model();
        for secs in [0.0, -5.0, f64::NAN, f64::INFINITY, 1e300] {
            assert!(
                matches!(model.budget(secs), Err(EdgeError::InvalidParameter { .. })),
                "{secs}"
            );
            assert!(
                matches!(
                    model.quality_scratch_bytes(secs),
                    Err(EdgeError::InvalidParameter { .. })
                ),
                "{secs}"
            );
            assert!(model.budget_with_quality_gate(secs, 1).is_err(), "{secs}");
        }
        // The longest accepted buffer prices without overflowing.
        let longest = (usize::MAX / 256) as f64;
        assert!(model.budget_with_quality_gate(longest, 0).is_ok());
        assert!(model.budget(longest * 2.0).is_err());
    }

    #[test]
    fn feature_matrix_bytes_formula() {
        // One hour, 10 features, one row per second, f32 storage: 144 000 B.
        let bytes = model().feature_matrix_bytes(3600.0, 10, 1.0);
        assert_eq!(bytes, 3600 * 10 * 4);
        assert_eq!(model().feature_matrix_bytes(0.0, 10, 1.0), 0);
        assert_eq!(model().feature_matrix_bytes(10.0, 10, 0.0), 0);
    }

    #[test]
    fn platform_accessor() {
        assert_eq!(model().platform().ram_bytes, 48 * 1024);
    }

    #[test]
    fn snapshot_accounting_extends_the_flash_side_of_the_budget() {
        let model = model();
        // An empty trainer is pure overhead; a paper-scale pool dominates.
        let empty = model.trainer_snapshot_bytes(0, 0, 0, 0);
        assert_eq!(empty, 28 + 66 + 8);
        let pool = model.trainer_snapshot_bytes(4096, 54, 30, 30 * 200);
        assert!(pool > 8 * 4096 * 54);

        // The snapshot lands in Flash next to the history buffer.
        let base = model.budget(3600.0).unwrap();
        let with = model.budget_with_snapshot(3600.0, 64 * 1024).unwrap();
        assert_eq!(with.history_bytes, base.history_bytes + 64 * 1024);
        assert_eq!(with.working_bytes, base.working_bytes);
        assert!(with.fits_flash); // 240 KB + 64 KB < 384 KB
        let too_big = model.budget_with_snapshot(3600.0, 200 * 1024).unwrap();
        assert!(!too_big.fits_flash); // 240 KB + 200 KB > 384 KB
        assert!(model.budget_with_snapshot(0.0, 1).is_err());
    }

    #[test]
    fn journal_entry_accounting_stays_o_batch() {
        let model = model();
        // One balanced-seizure batch (~60 windows of 54 features) appends a
        // few tens of KB — an order of magnitude under the paper-scale full
        // snapshot it replaces.
        let entry = model.journal_entry_bytes(60, 54, 16);
        assert_eq!(entry, 76 + 60usize.div_ceil(8) + 8 * 60 * 54 + 16);
        let full = model.trainer_snapshot_bytes(4096, 54, 30, 30 * 200);
        assert!(entry * 5 < full);
    }

    #[test]
    fn quality_gate_accounting_extends_both_sides_of_the_budget() {
        let model = model();
        // Scratch formula: one live indicator row + a verdict byte per
        // second, plus one 4 s two-channel f64 window for the gain
        // correction and one 4 s one-channel f64 step buffer for the
        // quality kernel.
        let scratch = model.quality_scratch_bytes(1200.0).unwrap();
        assert_eq!(scratch, 15 * 8 + 1200 + 4 * 256 * 2 * 8 + 4 * 256 * 8);
        assert!(model.quality_scratch_bytes(0.0).is_err());
        assert!(model.quality_scratch_bytes(f64::NAN).is_err());

        // Flash grows by exactly the gate block, RAM by the scratch — and
        // the 20-minute gated budget still fits the platform.
        let base = model.budget_with_snapshot(1200.0, 64 * 1024).unwrap();
        let gated = model.budget_with_quality_gate(1200.0, 64 * 1024).unwrap();
        assert_eq!(gated.history_bytes, base.history_bytes + GATE_STATE_BYTES);
        assert_eq!(gated.working_bytes, base.working_bytes + scratch);
        assert!(gated.fits_flash);
        assert!(gated.fits_ram);
        assert!(model.budget_with_quality_gate(0.0, 1).is_err());

        // Even the full-hour buffer affords the gate: the scratch stays a
        // modest slice of the 48 KB RAM next to the labeler's working set.
        let hour = model.budget_with_quality_gate(3600.0, 0).unwrap();
        assert!(hour.fits_ram, "{} bytes", hour.working_bytes);
    }

    #[test]
    fn ab_store_accounting_doubles_the_base_reservation() {
        let model = model();
        // Layout arithmetic: two (header + base) slots plus the journal.
        assert_eq!(model.dual_slot_store_bytes(0, 0), 80);
        assert_eq!(
            model.dual_slot_store_bytes(64 * 1024, 32 * 1024),
            2 * (40 + 64 * 1024) + 32 * 1024
        );

        // Versus one base plus the journal region the A/B store costs
        // exactly one more slot: the price of never overwriting the
        // committed base.
        let single = model
            .budget_with_snapshot(1200.0, 64 * 1024 + 32 * 1024)
            .unwrap();
        let ab = model
            .budget_with_ab_store(1200.0, 64 * 1024, 32 * 1024)
            .unwrap();
        assert_eq!(ab.history_bytes, single.history_bytes + 2 * 40 + 64 * 1024);
        assert!(ab.fits_flash); // 80 KB history + 160 KB store < 384 KB
        assert!(
            !model
                .budget_with_ab_store(3600.0, 64 * 1024, 32 * 1024)
                .unwrap()
                .fits_flash
        ); // 240 KB history + 160 KB store > 384 KB
        assert!(model.budget_with_ab_store(0.0, 1, 1).is_err());
    }

    #[test]
    fn streaming_state_closed_form_prices_the_paper_geometry() {
        let model = model();
        // 1024-sample window, 256-sample hop, 5 db4 levels: per channel the
        // window ring (1024 f64), four hop summaries, the carried approx
        // bands 512+256+128+64+32 and detail bands 128+64+32.
        let wavelet_slots = (512 + 256 + 128 + 64 + 32) + (128 + 64 + 32);
        let per_channel =
            (1024 + 4 * HOP_SUMMARY_F64 + wavelet_slots) * 8 + 4 * HOP_SUMMARY_U32 * 4;
        assert_eq!(model.streaming_state_bytes(1024, 256), 2 * per_channel);
        // Unstreamable geometries price to zero.
        assert_eq!(model.streaming_state_bytes(1024, 0), 0);
        assert_eq!(model.streaming_state_bytes(1024, 300), 0);
    }

    #[test]
    fn quality_ring_prices_one_summary_per_chunk_and_channel() {
        let model = model();
        let summary = CHUNK_SUMMARY_F64 * 8 + CHUNK_SUMMARY_U32 * 4;
        assert_eq!(summary, 328);
        // Paper geometry: four one-second chunks per 4 s window.
        assert_eq!(model.quality_ring_bytes(1024, 256, 256), 2 * 4 * summary);
        // A 128-sample hop is half a chunk: no ring, the window kernel runs.
        assert_eq!(model.quality_ring_bytes(512, 128, 256), 0);
        assert_eq!(model.quality_ring_bytes(1024, 256, 0), 0);
        assert_eq!(
            model.streaming_detector_state_bytes(1024, 256, 256),
            model.streaming_state_bytes(1024, 256) + 2 * 4 * summary
        );
    }

    #[test]
    fn streaming_budget_extends_ram_and_documents_the_full_hour_boundary() {
        let model = model();
        let gated = model.budget_with_quality_gate(1200.0, 64 * 1024).unwrap();
        let streaming = model
            .budget_with_streaming(1200.0, 64 * 1024, 1024, 256, 256)
            .unwrap();
        assert_eq!(streaming.history_bytes, gated.history_bytes);
        assert_eq!(
            streaming.working_bytes,
            gated.working_bytes + model.streaming_detector_state_bytes(1024, 256, 256)
        );
        // The carried state alone fits the 48 KB RAM…
        assert!(model.streaming_detector_state_bytes(1024, 256, 256) <= 48 * 1024);
        // …but a full-precision f64 deployment next to the hour-long quality
        // ribbon does not: a real deployment stores the carried state as f32.
        let hour = model
            .budget_with_streaming(3600.0, 0, 1024, 256, 256)
            .unwrap();
        assert!(!hour.fits_ram, "{} bytes", hour.working_bytes);
        assert!(model.budget_with_streaming(0.0, 1, 1024, 256, 256).is_err());
    }
}
