//! Parallel, scratch-backed random-forest training engine.
//!
//! The textbook CART fit re-sorts the node's samples for every candidate
//! feature of every split and allocates a boxed node per tree position,
//! which would make retraining the dominant cost of the paper's
//! self-learning loop. This module is the training twin of
//! [`FlatForest`]: a [`TrainingSet`] stores the design matrix in **block-major
//! columns** — the pool is cut into fixed-size sample blocks, each block
//! holding its feature values feature-major — and keeps one **sorted run of
//! block-relative u16 ids per block per feature**; tree growth then runs on a
//! reusable `SplitScratch` whose per-feature index segments are kept sorted
//! by stable partitioning at each split (no per-node sorting), and nodes are
//! appended to a `NodeArena` in DFS preorder (no per-node boxing). Trees
//! are fitted in parallel over the `seizure-parallel` scoped threads.
//!
//! The block-run layout serves the self-learning loop, whose training set
//! only ever *grows* and whose incremental trainer refits each tree on the
//! block subset it owns:
//!
//! * [`TrainingSet::append_rows`] sorts the new ids into the tail block's run
//!   (one bounded in-place merge) and builds fresh runs for wholly new
//!   blocks, so growing the pool costs O(batch log batch) — no global merge
//!   over the untouched prefix;
//! * `load_tree` k-way-merges only the runs of the blocks a tree's job
//!   selects, so a subset-tree refit reads O(owned blocks) per feature
//!   instead of O(pool). The merge pops runs by `(value, block ordinal)` —
//!   value order via `f64::total_cmp`, ties broken toward the earlier block,
//!   and within a block toward the lower relative id — which reproduces the
//!   exact `(value, global id)` order of a whole-pool stable sort, keeping
//!   refits **node-identical** to a from-scratch fit (a property-tested
//!   invariant);
//! * sample ids inside a run are block-relative u16 (blocks never exceed
//!   65 536 samples), and the scratch's id width is chosen **per selection**:
//!   narrow (u16) words whenever the selected blocks hold fewer than 65 536
//!   samples, halving the memory traffic of every stable partition even when
//!   the full pool has long outgrown the u16 range; the wide (u32) path packs
//!   the label into bit 31 and both widths produce bit-identical forests (a
//!   tested invariant).
//!
//! The engine is **bit-identical** to the crate's test oracle, a boxed
//! sort-and-scan CART fit with a sequential bagging loop: bootstrap draws
//! come from one shared RNG stream consumed in tree order, each tree's
//! feature subsampling replays its own per-tree ChaCha8 stream, and the
//! split scan applies the oracle's floating-point operations in the same
//! order, so [`train_forest`] equals the oracle's forest node for node (a
//! property-tested invariant).
//!
//! For retraining that reuses trees across pool growth instead of refitting
//! the whole ensemble, see [`IncrementalTrainer`], which is built on the
//! same scratch machinery and aligns its ownership blocks with the run
//! blocks here.

use crate::dataset::Dataset;
use crate::error::MlError;
use crate::flat::{FlatForest, LEAF};
use crate::forest::RandomForestConfig;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

pub use crate::incremental::{IncrementalTrainer, IncrementalTrainerConfig};

/// Largest sample count the narrow (u16) id word can address.
const NARROW_LIMIT: usize = u16::MAX as usize + 1;

/// Largest permitted run-block length: block-relative ids must fit u16, so
/// blocks never exceed 65 536 samples. This is also the default block length
/// for standalone sets, where it keeps any pool up to 65 536 samples in a
/// single block (one run per feature — exactly the old global presort).
pub(crate) const MAX_RUN_BLOCK: usize = NARROW_LIMIT;

// Comparison counter for run sorting/merging, tallied in debug builds only
// so tests can assert that (re)building orders scales with the touched
// blocks, not the pool.
#[cfg(debug_assertions)]
thread_local! {
    static RUN_SORT_COMPARISONS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Drains the debug comparison counter (current thread).
#[cfg(all(debug_assertions, test))]
fn take_run_sort_comparisons() -> u64 {
    RUN_SORT_COMPARISONS.with(|c| c.replace(0))
}

#[inline]
fn count_run_comparison() {
    #[cfg(debug_assertions)]
    RUN_SORT_COMPARISONS.with(|c| c.set(c.get() + 1));
}

/// A design matrix prepared for scratch-backed tree growth: block-major
/// feature storage plus one presorted run of block-relative sample ids per
/// block per feature, shared read-only by every tree of the ensemble.
///
/// Storage geometry: the pool is cut into blocks of `run_block` samples
/// (only the last block may be partial), block `b` starts at flat offset
/// `b * run_block * num_features`, and within a block of `len` samples
/// feature `f` of relative sample `r` lives at `+ f * len + r`. The `order`
/// array mirrors the same geometry with u16 relative ids sorted by
/// `(value, relative id)` per `f64::total_cmp`. Every block base is
/// closed-form, so no offset table is stored.
///
/// # Example
///
/// ```
/// use seizure_ml::{RandomForestConfig, TrainingSet};
///
/// # fn main() -> Result<(), seizure_ml::MlError> {
/// // Four samples of two features, row-major.
/// let rows = [0.0, 1.0, 0.2, 0.8, 0.9, 0.1, 1.0, 0.0];
/// let set = TrainingSet::from_rows(&rows, 2, &[false, false, true, true])?;
/// let config = RandomForestConfig { n_trees: 5, ..RandomForestConfig::default() };
/// let forest = seizure_ml::train_forest(&set, &config, 1)?;
/// assert_eq!(forest.num_trees(), 5);
/// assert!(forest.predict(&[0.95, 0.05]));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingSet {
    num_samples: usize,
    num_features: usize,
    /// Block length of the block-major storage and of the sorted runs.
    run_block: usize,
    /// Block-major feature values (see the struct docs for the geometry).
    columns: Vec<f64>,
    labels: Vec<bool>,
    /// Per-block per-feature sorted runs of block-relative ids, in the same
    /// geometry as `columns`.
    order: Vec<u16>,
}

impl TrainingSet {
    /// Builds a training set from a flat row-major matrix
    /// (`labels.len() * num_features` values) and presorts every column.
    /// Uses the maximum run-block length, so pools up to 65 536 samples keep
    /// one run per feature.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidDataset`] for an empty set or zero feature
    /// count and [`MlError::DimensionMismatch`] if the buffer length does not
    /// equal `labels.len() * num_features`.
    pub fn from_rows(rows: &[f64], num_features: usize, labels: &[bool]) -> Result<Self, MlError> {
        Self::from_rows_in_blocks(rows, num_features, labels, MAX_RUN_BLOCK)
    }

    /// [`TrainingSet::from_rows`] with an explicit run-block length, aligning
    /// the sorted runs with an incremental trainer's ownership blocks.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainingSet::from_rows`].
    pub(crate) fn from_rows_in_blocks(
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
        run_block: usize,
    ) -> Result<Self, MlError> {
        if num_features == 0 {
            return Err(MlError::InvalidDataset {
                detail: "training set must contain at least one feature".to_string(),
            });
        }
        let n = labels.len();
        if rows.len() != n * num_features {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "flat matrix of {} values does not cover {n} samples x {num_features} features",
                    rows.len()
                ),
            });
        }
        let mut set = Self::empty_shell(n, num_features, labels.to_vec(), run_block)?;
        let rb = set.run_block;
        for (i, row) in rows.chunks_exact(num_features).enumerate() {
            let len = set.block_len(i / rb);
            let at = (i / rb) * rb * num_features + i % rb;
            for (f, &x) in row.iter().enumerate() {
                set.columns[at + f * len] = x;
            }
        }
        set.build_runs(0);
        Ok(set)
    }

    /// Builds a training set from flat **feature-major** storage
    /// (`columns[f * n + i]` is feature `f` of sample `i`) — the persisted
    /// representation. The persistence codec restores snapshots through this
    /// constructor; the runs are a pure function of the columns and the block
    /// length, so the rebuilt order arrays are identical to the saved set's.
    /// Rebuilding sorts each block's runs independently — O(n log block), a
    /// cost that scales with the block count rather than one O(n log n)
    /// global sort per feature (asserted by a debug comparison counter).
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainingSet::from_rows`].
    pub(crate) fn from_columns(
        columns: Vec<f64>,
        num_features: usize,
        labels: Vec<bool>,
        run_block: usize,
    ) -> Result<Self, MlError> {
        if num_features == 0 {
            return Err(MlError::InvalidDataset {
                detail: "training set must contain at least one feature".to_string(),
            });
        }
        let n = labels.len();
        if columns.len() != n * num_features {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "column storage of {} values does not cover {n} samples x {num_features} features",
                    columns.len()
                ),
            });
        }
        let mut set = Self::empty_shell(n, num_features, labels, run_block)?;
        let rb = set.run_block;
        for b in 0..set.num_blocks() {
            let len = set.block_len(b);
            let base = b * rb * num_features;
            for f in 0..num_features {
                set.columns[base + f * len..base + f * len + len]
                    .copy_from_slice(&columns[f * n + b * rb..f * n + b * rb + len]);
            }
        }
        set.build_runs(0);
        Ok(set)
    }

    /// Validates the shape and allocates zeroed block-major storage; the
    /// caller scatters values and then builds the runs.
    fn empty_shell(
        n: usize,
        num_features: usize,
        labels: Vec<bool>,
        run_block: usize,
    ) -> Result<Self, MlError> {
        if labels.is_empty() {
            return Err(MlError::InvalidDataset {
                detail: "training set must contain at least one sample".to_string(),
            });
        }
        if n > (u32::MAX >> 1) as usize {
            return Err(MlError::InvalidDataset {
                detail: "training sets are limited to 2^31 samples (31-bit ids + label bit)"
                    .to_string(),
            });
        }
        assert!(
            (1..=MAX_RUN_BLOCK).contains(&run_block),
            "run-block length must lie in [1, {MAX_RUN_BLOCK}], got {run_block}"
        );
        Ok(Self {
            num_samples: n,
            num_features,
            run_block,
            columns: vec![0.0; n * num_features],
            labels,
            order: vec![0u16; n * num_features],
        })
    }

    /// Builds a training set from a row-vector [`Dataset`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`TrainingSet::from_rows`].
    pub fn from_dataset(data: &Dataset) -> Result<Self, MlError> {
        let num_features = data.num_features();
        let mut rows = Vec::with_capacity(data.len() * num_features);
        for row in data.features() {
            rows.extend_from_slice(row);
        }
        Self::from_rows(&rows, num_features, data.labels())
    }

    /// Appends new samples (flat row-major, `labels.len() * num_features`
    /// values) to the set **without touching any full block's runs**: the
    /// tail block's run absorbs its share of the new ids through one bounded
    /// in-place merge and wholly new blocks sort their runs from scratch, so
    /// growth costs O(batch log batch) and the result is exactly the set
    /// [`TrainingSet::from_rows`] would build from the concatenated matrix
    /// (value ties keep ascending sample ids).
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidDataset`] for an empty append and
    /// [`MlError::DimensionMismatch`] if the buffer length does not equal
    /// `labels.len() * num_features` features.
    pub fn append_rows(&mut self, rows: &[f64], labels: &[bool]) -> Result<(), MlError> {
        if labels.is_empty() {
            return Err(MlError::InvalidDataset {
                detail: "append requires at least one sample".to_string(),
            });
        }
        let k = labels.len();
        let nf = self.num_features;
        if rows.len() != k * nf {
            return Err(MlError::DimensionMismatch {
                detail: format!(
                    "flat matrix of {} values does not cover {k} samples x {nf} features",
                    rows.len()
                ),
            });
        }
        let n = self.num_samples;
        let total = n + k;
        if total > (u32::MAX >> 1) as usize {
            return Err(MlError::InvalidDataset {
                detail: "training sets are limited to 2^31 samples (31-bit ids + label bit)"
                    .to_string(),
            });
        }
        let rb = self.run_block;
        let tail = (n - 1) / rb;
        let old_in = n - tail * rb;
        self.columns.resize(total * nf, 0.0);
        self.order.resize(total * nf, 0u16);
        self.labels.extend_from_slice(labels);
        self.num_samples = total;

        // The tail block grows in place: each of its per-feature regions
        // moves from stride `old_in` to the grown stride, relocated back to
        // front so no unread region is overwritten (relative ids stay valid).
        let new_in = self.block_len(tail);
        if old_in < new_in {
            let base = tail * rb * nf;
            // lint: hot-path
            for f in (1..nf).rev() {
                self.columns.copy_within(
                    base + f * old_in..base + f * old_in + old_in,
                    base + f * new_in,
                );
                self.order.copy_within(
                    base + f * old_in..base + f * old_in + old_in,
                    base + f * new_in,
                );
            }
        }

        // Scatter the appended rows into their blocks.
        // lint: hot-path
        for (i, row) in rows.chunks_exact(nf).enumerate() {
            let g = n + i;
            let len = self.block_len(g / rb);
            let at = (g / rb) * rb * nf + g % rb;
            for (f, &x) in row.iter().enumerate() {
                self.columns[at + f * len] = x;
            }
        }

        if old_in < rb {
            self.merge_tail_run(tail, old_in);
        }
        self.build_runs(tail + 1);
        Ok(())
    }

    /// Sorts the runs of every block from `first_block` on (each block's
    /// relative ids sorted by `(value, relative id)` — `f64::total_cmp` with
    /// stable ties).
    fn build_runs(&mut self, first_block: usize) {
        let rb = self.run_block;
        let nf = self.num_features;
        let columns = &self.columns;
        let order = &mut self.order;
        for b in first_block..self.num_samples.div_ceil(rb) {
            let len = (self.num_samples - b * rb).min(rb);
            let base = b * rb * nf;
            // lint: hot-path
            for f in 0..nf {
                let off = base + f * len;
                let vals = &columns[off..off + len];
                let run = &mut order[off..off + len];
                for (r, slot) in run.iter_mut().enumerate() {
                    *slot = r as u16;
                }
                // lint: allow(hot-path-alloc) — stable (value, id) ties are the run contract; per retrain
                run.sort_by(|&a, &b| {
                    count_run_comparison();
                    vals[a as usize].total_cmp(&vals[b as usize])
                });
            }
        }
    }

    /// Merges the tail block's fresh relative ids (`old_in..len`) into its
    /// existing sorted run, in place and back to front. The fresh ids are
    /// sorted among themselves first; on value ties the merge takes the fresh
    /// side, which is correct because every fresh relative id exceeds every
    /// existing one — so the result is the full stable `(value, id)` sort.
    fn merge_tail_run(&mut self, b: usize, old_in: usize) {
        let rb = self.run_block;
        let nf = self.num_features;
        let len = self.block_len(b);
        let base = b * rb * nf;
        let mut fresh: Vec<u16> = Vec::with_capacity(len - old_in);
        let columns = &self.columns;
        let order = &mut self.order;
        // lint: hot-path
        for f in 0..nf {
            let off = base + f * len;
            let vals = &columns[off..off + len];
            fresh.clear();
            fresh.extend((old_in..len).map(|r| r as u16));
            // lint: allow(hot-path-alloc) — the merge below needs stable (value, id) ties; per retrain
            fresh.sort_by(|&a, &b| {
                count_run_comparison();
                vals[a as usize].total_cmp(&vals[b as usize])
            });
            let run = &mut order[off..off + len];
            let mut i = old_in; // old run occupies run[..old_in]
            let mut j = fresh.len();
            for slot in (0..len).rev() {
                if j == 0 {
                    break; // the remaining old prefix is already in place
                }
                count_run_comparison();
                let take_fresh = i == 0
                    || vals[fresh[j - 1] as usize].total_cmp(&vals[run[i - 1] as usize])
                        != std::cmp::Ordering::Less;
                if take_fresh {
                    j -= 1;
                    run[slot] = fresh[j];
                } else {
                    i -= 1;
                    run[slot] = run[i];
                }
            }
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.num_samples
    }

    /// Returns `true` if the set holds no samples (never: construction
    /// rejects empty sets).
    pub fn is_empty(&self) -> bool {
        self.num_samples == 0
    }

    /// Number of features per sample.
    pub fn num_features(&self) -> usize {
        self.num_features
    }

    /// Labels, in sample order.
    pub fn labels(&self) -> &[bool] {
        &self.labels
    }

    /// Block length of the block-major storage and sorted runs.
    pub(crate) fn run_block(&self) -> usize {
        self.run_block
    }

    /// Number of storage blocks (`ceil(len / run_block)`).
    pub(crate) fn num_blocks(&self) -> usize {
        self.num_samples.div_ceil(self.run_block)
    }

    /// Sample count of block `b` (only the last block may be partial).
    pub(crate) fn block_len(&self, b: usize) -> usize {
        (self.num_samples - b * self.run_block).min(self.run_block)
    }

    /// Feature `f`'s values of block `b`, relative-id indexed.
    pub(crate) fn block_values(&self, f: usize, b: usize) -> &[f64] {
        let len = self.block_len(b);
        let off = b * self.run_block * self.num_features + f * len;
        &self.columns[off..off + len]
    }

    /// Feature `f`'s sorted run of block `b` (block-relative ids).
    fn block_run(&self, f: usize, b: usize) -> &[u16] {
        let len = self.block_len(b);
        let off = b * self.run_block * self.num_features + f * len;
        &self.order[off..off + len]
    }

    /// Block `b`'s full feature-major storage (`num_features * block_len`
    /// values) — already in the per-selection layout a single-block tree job
    /// reads, so such jobs borrow it zero-copy.
    fn block_storage(&self, b: usize) -> &[f64] {
        let len = self.block_len(b);
        let base = b * self.run_block * self.num_features;
        &self.columns[base..base + self.num_features * len]
    }

    /// Block `b`'s labels, relative-id indexed.
    fn block_labels(&self, b: usize) -> &[bool] {
        let start = b * self.run_block;
        &self.labels[start..start + self.block_len(b)]
    }

    /// Bytes held by the presorted order runs (u16 per sample per feature;
    /// block base offsets are closed-form, so nothing else is stored). The
    /// old flat u32 arrays cost exactly twice this.
    pub fn order_bytes(&self) -> usize {
        self.order.len() * std::mem::size_of::<u16>()
    }

    /// Value of `feature` for `sample`, off the block-major storage.
    #[cfg(test)]
    fn value(&self, feature: usize, sample: u32) -> f64 {
        let b = sample as usize / self.run_block;
        self.block_values(feature, b)[sample as usize % self.run_block]
    }
}

/// Mask extracting the sample id from a packed wide (u32) id+label word.
const ID_MASK: u32 = u32::MAX >> 1;

/// Sample-id word of the tree-growth scratch. The wide word (`u32`) packs
/// the sample's label into bit 31 so the split scan never gathers from the
/// label array; the narrow word (`u16`) holds the bare id — half the
/// partition traffic — and reads the label from the (cache-resident, at most
/// 64 KiB) label table instead. Ids are **selection-local**: they index the
/// job's gathered pool, not the global sample array.
pub(crate) trait SampleWord: Copy + Default + Send + 'static {
    /// Packs a sample id (wide words also pack the label).
    fn pack(id: u32, label: bool) -> Self;
    /// The sample id.
    fn id(self) -> usize;
    /// The sample's label as 0/1.
    fn label(self, labels: &[bool]) -> usize;
}

impl SampleWord for u32 {
    #[inline]
    fn pack(id: u32, label: bool) -> Self {
        id | ((label as u32) << 31)
    }

    #[inline]
    fn id(self) -> usize {
        (self & ID_MASK) as usize
    }

    #[inline]
    fn label(self, _labels: &[bool]) -> usize {
        (self >> 31) as usize
    }
}

impl SampleWord for u16 {
    #[inline]
    fn pack(id: u32, _label: bool) -> Self {
        id as u16
    }

    #[inline]
    fn id(self) -> usize {
        self as usize
    }

    #[inline]
    fn label(self, labels: &[bool]) -> usize {
        labels[self as usize] as usize
    }
}

/// Monotone key of `f64::total_cmp`: the unsigned order of the mapped bits
/// equals the total order of the floats (NaN-safe), so the k-way merge
/// compares run heads with one integer comparison.
#[inline]
fn total_cmp_key(v: f64) -> u64 {
    let bits = v.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// One run's merge cursor: the head value's order key, the run's position in
/// the job's block selection and the head's index within the run. Ordering
/// is `(key, ordinal)` — the ordinal tie-break keeps equal values in
/// ascending global-id order because selected blocks are listed in ascending
/// base order.
#[derive(Debug, Clone, Copy, Default)]
struct RunCursor {
    key: u64,
    ordinal: u32,
    pos: u32,
}

impl RunCursor {
    #[inline]
    fn precedes(self, other: RunCursor) -> bool {
        self.key < other.key || (self.key == other.key && self.ordinal < other.ordinal)
    }
}

/// Pushes a cursor onto the binary min-heap.
fn heap_push(heap: &mut Vec<RunCursor>, cur: RunCursor) {
    heap.push(cur);
    let mut i = heap.len() - 1;
    while i > 0 {
        let parent = (i - 1) / 2;
        if heap[i].precedes(heap[parent]) {
            heap.swap(i, parent);
            i = parent;
        } else {
            break;
        }
    }
}

/// Restores the min-heap property after the root was replaced.
fn heap_sift_down(heap: &mut [RunCursor]) {
    let n = heap.len();
    let mut i = 0;
    loop {
        let l = 2 * i + 1;
        if l >= n {
            break;
        }
        let mut c = l;
        if l + 1 < n && heap[l + 1].precedes(heap[l]) {
            c = l + 1;
        }
        if heap[c].precedes(heap[i]) {
            heap.swap(i, c);
            i = c;
        } else {
            break;
        }
    }
}

/// A tree job's sample pool in selection-local layout: feature-major columns
/// over the `n` selected samples plus their labels. Single-block selections
/// borrow the training set's storage directly; multi-block selections read
/// the gather buffers of a [`LocalPool`].
struct PoolView<'a> {
    /// Feature-major columns: `cols[f * n + i]` is feature `f` of local
    /// sample `i`.
    cols: &'a [f64],
    labels: &'a [bool],
    n: usize,
    num_features: usize,
}

/// Reusable per-worker gather buffers materializing a job's selected blocks
/// into the selection-local layout (and the running base offset of each
/// selected block within it).
#[derive(Debug, Default)]
pub(crate) struct LocalPool {
    cols: Vec<f64>,
    labels: Vec<bool>,
    bases: Vec<u32>,
}

impl LocalPool {
    /// Computes the selected blocks' local base offsets and materializes the
    /// selection-local pool. A single-block selection is returned zero-copy:
    /// the block-major storage is already feature-major over that block.
    fn prepare<'a>(
        &'a mut self,
        set: &'a TrainingSet,
        blocks: &[u32],
    ) -> (PoolView<'a>, &'a [u32]) {
        self.bases.clear();
        let mut sel = 0u32;
        for &b in blocks {
            self.bases.push(sel);
            sel += set.block_len(b as usize) as u32;
        }
        let sel = sel as usize;
        let nf = set.num_features();
        if blocks.len() == 1 {
            let b = blocks[0] as usize;
            let view = PoolView {
                cols: set.block_storage(b),
                labels: set.block_labels(b),
                n: sel,
                num_features: nf,
            };
            return (view, &self.bases);
        }
        self.cols.resize(sel * nf, 0.0);
        self.labels.resize(sel, false);
        // lint: hot-path
        for (o, &b) in blocks.iter().enumerate() {
            let b = b as usize;
            let base = self.bases[o] as usize;
            let len = set.block_len(b);
            self.labels[base..base + len].copy_from_slice(set.block_labels(b));
            for f in 0..nf {
                self.cols[f * sel + base..f * sel + base + len]
                    .copy_from_slice(set.block_values(f, b));
            }
        }
        let view = PoolView {
            cols: &self.cols,
            labels: &self.labels,
            n: sel,
            num_features: nf,
        };
        (view, &self.bases)
    }
}

/// Reusable per-worker scratch for growing one tree at a time: the per-tree
/// bootstrap multiset orders (one sorted segment per feature), the stable
/// partition buffer, the bootstrap count table, the run-merge heap and the
/// candidate-feature list. One scratch serves every tree a worker fits, so
/// tree growth touches the heap only when a buffer first grows.
#[derive(Debug, Default)]
struct SplitScratch<W> {
    /// Per-feature bootstrap multiset, column-major: `order[f * m ..][..m]`
    /// lists the drawn selection-local sample ids in ascending order of
    /// feature `f` as [`SampleWord`]s, so the split scan reads labels without
    /// a second gather (wide words) or from the small label table (narrow
    /// words).
    order: Vec<W>,
    /// Stable-partition staging buffer (`m` ids).
    buf: Vec<W>,
    /// Bootstrap multiplicity per selected sample (`n` counts).
    counts: Vec<u32>,
    /// Split-side table per selected sample (1 = left), evaluated once per
    /// split so partitioning the feature segments never re-gathers the split
    /// column.
    side: Vec<u8>,
    /// Candidate feature list shuffled per node.
    features: Vec<usize>,
    /// K-way run-merge heap (one cursor per selected block).
    heap: Vec<RunCursor>,
}

impl<W: SampleWord> SplitScratch<W> {
    /// Prepares the scratch for one tree: zeroes the count table, tallies the
    /// bootstrap draws and materializes the per-feature sorted multisets by
    /// k-way-merging the selected blocks' presorted runs — O(selection) per
    /// feature, regardless of the pool size. The merge pops the minimal
    /// `(value key, block ordinal)` head, so equal values come out in
    /// ascending local (hence global) id order, reproducing a whole-pool
    /// stable sort exactly.
    fn load_tree(
        &mut self,
        set: &TrainingSet,
        blocks: &[u32],
        bases: &[u32],
        view: &PoolView<'_>,
        draws: &[u32],
    ) {
        let sel = view.n;
        let m = draws.len();
        self.counts.clear();
        self.counts.resize(sel, 0);
        for &d in draws {
            self.counts[d as usize] += 1;
        }
        self.buf.resize(m, W::default());
        self.side.clear();
        self.side.resize(sel, 0);
        // Three spare slots absorb the unconditional overflow writes of the
        // branch-light emit below.
        let need = view.num_features * m + 3;
        if self.order.len() != need {
            self.order.resize(need, W::default());
        }
        let mut k = 0usize;
        if blocks.len() == 1 {
            // Single run: relative ids are the local ids, no merge needed.
            let b = blocks[0] as usize;
            // lint: hot-path
            for f in 0..view.num_features {
                for &rel in set.block_run(f, b) {
                    let local = rel as u32;
                    let c = self.counts[rel as usize] as usize;
                    let packed = W::pack(local, view.labels[rel as usize]);
                    // Branch-light emit: bootstrap multiplicities are almost
                    // always <= 3, so three unconditional stores cover ~98%
                    // of samples without a data-dependent branch; slots
                    // written past `k + c` are overwritten by the following
                    // samples (or land in the spare tail).
                    let end = k + c;
                    self.order[k] = packed;
                    self.order[k + 1] = packed;
                    self.order[k + 2] = packed;
                    if c > 3 {
                        for slot in &mut self.order[k + 3..end] {
                            *slot = packed;
                        }
                    }
                    k = end;
                }
            }
        } else {
            // lint: hot-path
            for f in 0..view.num_features {
                let heap = &mut self.heap;
                heap.clear();
                for (o, &b) in blocks.iter().enumerate() {
                    let run = set.block_run(f, b as usize);
                    let vals = set.block_values(f, b as usize);
                    heap_push(
                        heap,
                        RunCursor {
                            key: total_cmp_key(vals[run[0] as usize]),
                            ordinal: o as u32,
                            pos: 0,
                        },
                    );
                }
                loop {
                    let cur = self.heap[0];
                    let o = cur.ordinal as usize;
                    let b = blocks[o] as usize;
                    let run = set.block_run(f, b);
                    let rel = run[cur.pos as usize] as usize;
                    let local = bases[o] + rel as u32;
                    let c = self.counts[local as usize] as usize;
                    let packed = W::pack(local, view.labels[local as usize]);
                    let end = k + c;
                    self.order[k] = packed;
                    self.order[k + 1] = packed;
                    self.order[k + 2] = packed;
                    if c > 3 {
                        for slot in &mut self.order[k + 3..end] {
                            *slot = packed;
                        }
                    }
                    k = end;
                    let pos = cur.pos as usize + 1;
                    if pos < run.len() {
                        let vals = set.block_values(f, b);
                        self.heap[0] = RunCursor {
                            key: total_cmp_key(vals[run[pos] as usize]),
                            ordinal: cur.ordinal,
                            pos: pos as u32,
                        };
                        heap_sift_down(&mut self.heap);
                    } else {
                        match self.heap.pop() {
                            Some(last) if !self.heap.is_empty() => {
                                self.heap[0] = last;
                                heap_sift_down(&mut self.heap);
                            }
                            _ => break,
                        }
                    }
                }
            }
        }
        debug_assert_eq!(k, view.num_features * m);
    }
}

/// Append-only struct-of-arrays node storage for one growing tree, mirroring
/// the [`FlatForest`] layout (DFS preorder, [`LEAF`] sentinel in `feature`).
#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct NodeArena {
    pub(crate) feature: Vec<u32>,
    pub(crate) threshold: Vec<f64>,
    pub(crate) left: Vec<u32>,
    pub(crate) right: Vec<u32>,
    pub(crate) leaf_prob: Vec<f64>,
}

impl NodeArena {
    fn push(&mut self, feature: u32, threshold: f64, prob: f64) -> u32 {
        let idx = self.feature.len() as u32;
        self.feature.push(feature);
        self.threshold.push(threshold);
        self.left.push(0);
        self.right.push(0);
        self.leaf_prob.push(prob);
        idx
    }

    pub(crate) fn len(&self) -> usize {
        self.feature.len()
    }
}

/// The per-tree seed feeding each tree's private feature-subsampling stream.
pub(crate) fn tree_stream_seed(seed: u64, t: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(t as u64)
}

/// Gini impurity of a binary class mixture.
pub(crate) fn gini(p: f64) -> f64 {
    2.0 * p * (1.0 - p)
}

/// Per-tree growth limits, resolved from a [`RandomForestConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct TreeConfig {
    /// Maximum tree depth (the root is depth 0).
    pub(crate) max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub(crate) min_samples_split: usize,
    /// Number of features drawn as split candidates at each node.
    pub(crate) max_features: usize,
}

/// Validates the forest hyper-parameters against `set` and resolves them
/// into the per-tree configuration (shared by [`train_forest`] and the
/// incremental trainer).
pub(crate) fn resolve_tree_config(
    set: &TrainingSet,
    config: &RandomForestConfig,
) -> Result<TreeConfig, MlError> {
    if config.n_trees == 0 {
        return Err(MlError::InvalidParameter {
            name: "n_trees",
            reason: "the ensemble needs at least one tree".to_string(),
        });
    }
    if !(config.bootstrap_fraction > 0.0 && config.bootstrap_fraction <= 1.0) {
        return Err(MlError::InvalidParameter {
            name: "bootstrap_fraction",
            reason: format!("must lie in (0, 1], got {}", config.bootstrap_fraction),
        });
    }
    if config.max_depth == 0 {
        return Err(MlError::InvalidParameter {
            name: "max_depth",
            reason: "maximum depth must be at least 1".to_string(),
        });
    }
    let max_features = match config.max_features {
        Some(k) => {
            if k == 0 || k > set.num_features() {
                return Err(MlError::InvalidParameter {
                    name: "max_features",
                    reason: format!("must lie in [1, {}], got {k}", set.num_features()),
                });
            }
            k
        }
        None => ((set.num_features() as f64).sqrt().ceil() as usize).max(1),
    };
    Ok(TreeConfig {
        max_depth: config.max_depth,
        min_samples_split: config.min_samples_split,
        max_features,
    })
}

/// One tree-fitting job: the ascending list of selected storage blocks, the
/// bootstrap draw multiset (**selection-local** sample ids, repetitions
/// allowed) and the seed of the tree's feature-subsampling stream. Local id
/// `i` addresses the `i`-th sample of the selected blocks' concatenation in
/// list order; when the selection is the whole pool in block order, local
/// and global ids coincide.
pub(crate) struct TreeJob<'a> {
    pub blocks: &'a [u32],
    pub draws: &'a [u32],
    pub seed: u64,
}

/// Fits one arena per job in parallel (per-worker scratch, deterministic
/// per-tree RNG streams), dispatching each job on its selection's sample-id
/// width: narrow (u16) ids when the selection holds fewer than 65 536
/// samples, wide (u32) ids otherwise. `Some(narrow)` in `narrow_ids` forces
/// one width on every job instead (tests pin both widths to the same
/// forest), refusing a narrow width that cannot address a selection. Both
/// widths produce bit-identical arenas; the narrow path merely halves the
/// partition traffic.
pub(crate) fn fit_tree_jobs(
    set: &TrainingSet,
    tree_config: &TreeConfig,
    jobs: &[TreeJob<'_>],
    narrow_ids: Option<bool>,
) -> Result<Vec<NodeArena>, MlError> {
    let mut narrow = Vec::with_capacity(jobs.len());
    for job in jobs {
        let sel: usize = job.blocks.iter().map(|&b| set.block_len(b as usize)).sum();
        if narrow_ids == Some(true) && sel > NARROW_LIMIT {
            return Err(MlError::InvalidParameter {
                name: "id_width",
                reason: format!(
                    "narrow (u16) ids address at most {NARROW_LIMIT} samples, got {sel}"
                ),
            });
        }
        narrow.push(narrow_ids.unwrap_or(sel < NARROW_LIMIT));
    }
    seizure_parallel::par_map_init::<_, _, MlError, _, _>(
        jobs.len(),
        1,
        || {
            Ok((
                LocalPool::default(),
                SplitScratch::<u16>::default(),
                SplitScratch::<u32>::default(),
            ))
        },
        |state, t| {
            let (pool, narrow_scratch, wide_scratch) = state;
            Ok(if narrow[t] {
                build_tree(set, tree_config, &jobs[t], pool, narrow_scratch)
            } else {
                build_tree(set, tree_config, &jobs[t], pool, wide_scratch)
            })
        },
    )
}

/// Stitches per-tree arenas into one flat forest, offsetting split children
/// by each tree's base index (leaves keep 0/0 children, the layout the test
/// oracle's DFS flattening also emits, so forests compare exactly).
pub(crate) fn stitch_forest(num_features: usize, trees: &[&NodeArena]) -> FlatForest {
    let total: usize = trees.iter().map(|t| t.len()).sum();
    assert!(
        (total as u64) < LEAF as u64,
        "forest exceeds u32 node indexing"
    );
    let mut roots = Vec::with_capacity(trees.len());
    let mut feature = Vec::with_capacity(total);
    let mut threshold = Vec::with_capacity(total);
    let mut left = Vec::with_capacity(total);
    let mut right = Vec::with_capacity(total);
    let mut leaf_prob = Vec::with_capacity(total);
    for tree in trees {
        let base = feature.len() as u32;
        roots.push(base);
        for i in 0..tree.len() {
            let is_split = tree.feature[i] != LEAF;
            feature.push(tree.feature[i]);
            threshold.push(tree.threshold[i]);
            left.push(if is_split { tree.left[i] + base } else { 0 });
            right.push(if is_split { tree.right[i] + base } else { 0 });
            leaf_prob.push(tree.leaf_prob[i]);
        }
    }
    FlatForest::from_raw_parts(
        num_features,
        roots,
        feature,
        threshold,
        left,
        right,
        leaf_prob,
    )
}

/// Fits a random forest on a prepared [`TrainingSet`], producing the flat
/// compiled representation directly. Trees are fitted in parallel (one
/// deterministic RNG stream per tree), and the result is bit-identical to the
/// crate's boxed test oracle with the same configuration and seed —
/// **regardless of the set's run-block partitioning**, because the k-way run
/// merge reproduces the whole-pool sort exactly. Sample ids are sized per
/// tree selection (u16 below 65 536 samples).
///
/// The bit-identity contract holds for feature matrices without NaN values
/// (every real feature path). With NaNs, both split finders are panic-free
/// and deterministic (`f64::total_cmp` total order), but the presorted runs
/// here and the oracle's per-node sorts may order bit-identical NaNs
/// differently within a tie group and then choose different (degenerate)
/// splits.
///
/// # Errors
///
/// Returns [`MlError::InvalidParameter`] for zero `n_trees`, a bootstrap
/// fraction outside `(0, 1]`, zero `max_depth` or a `max_features` outside
/// `[1, num_features]`.
pub fn train_forest(
    set: &TrainingSet,
    config: &RandomForestConfig,
    seed: u64,
) -> Result<FlatForest, MlError> {
    fit_forest(set, config, seed, None)
}

/// [`train_forest`] with `narrow_ids` passed through to [`fit_tree_jobs`].
fn fit_forest(
    set: &TrainingSet,
    config: &RandomForestConfig,
    seed: u64,
    narrow_ids: Option<bool>,
) -> Result<FlatForest, MlError> {
    let tree_config = resolve_tree_config(set, config)?;

    // Bootstrap draws come from one shared RNG stream: all trees'
    // indices are drawn sequentially up front so the fan-out cannot perturb
    // the sequence. Every tree selects the whole pool, so the local draws
    // equal the global ids the stream produces.
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sample_count = ((set.len() as f64 * config.bootstrap_fraction).round() as usize).max(1);
    let mut draws: Vec<u32> = Vec::with_capacity(config.n_trees * sample_count);
    for _ in 0..config.n_trees * sample_count {
        draws.push(rng.gen_range(0..set.len()) as u32);
    }

    let all_blocks: Vec<u32> = (0..set.num_blocks() as u32).collect();
    let jobs: Vec<TreeJob<'_>> = (0..config.n_trees)
        .map(|t| TreeJob {
            blocks: &all_blocks,
            draws: &draws[t * sample_count..(t + 1) * sample_count],
            seed: tree_stream_seed(seed, t),
        })
        .collect();
    let trees = fit_tree_jobs(set, &tree_config, &jobs, narrow_ids)?;
    let refs: Vec<&NodeArena> = trees.iter().collect();
    Ok(stitch_forest(set.num_features(), &refs))
}

/// Grows one tree on the scratch and returns its arena: gathers the job's
/// selection-local pool, merges the selected runs into the per-feature
/// multisets and recurses over the splits.
fn build_tree<W: SampleWord>(
    set: &TrainingSet,
    config: &TreeConfig,
    job: &TreeJob<'_>,
    pool: &mut LocalPool,
    scratch: &mut SplitScratch<W>,
) -> NodeArena {
    let (view, bases) = pool.prepare(set, job.blocks);
    scratch.load_tree(set, job.blocks, bases, &view, job.draws);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let mut arena = NodeArena::default();
    let pos: usize = scratch.order[..job.draws.len()]
        .iter()
        .map(|&s| s.label(view.labels))
        .sum();
    build_node(
        &view,
        scratch,
        &mut arena,
        config,
        NodeSpan {
            lo: 0,
            hi: job.draws.len(),
            pos,
        },
        0,
        &mut rng,
    );
    arena
}

/// One node's multiset segment (`[lo, hi)` across every feature's sorted
/// order) plus its positive count, threaded through the recursion so no node
/// recounts its labels.
#[derive(Clone, Copy)]
struct NodeSpan {
    lo: usize,
    hi: usize,
    pos: usize,
}

/// Recursively grows the node covering `span` (the same `[lo, hi)` range
/// across every feature's sorted segment), appending to `arena` in DFS
/// preorder exactly like the test oracle's boxed recursion. All sample ids are
/// selection-local against `view`.
fn build_node<W: SampleWord>(
    view: &PoolView<'_>,
    scratch: &mut SplitScratch<W>,
    arena: &mut NodeArena,
    config: &TreeConfig,
    span: NodeSpan,
    depth: usize,
    rng: &mut ChaCha8Rng,
) -> u32 {
    let m = scratch.buf.len();
    let NodeSpan { lo, hi, pos } = span;
    let len = hi - lo;
    let p = pos as f64 / len as f64;
    if depth >= config.max_depth || len < config.min_samples_split || p == 0.0 || p == 1.0 {
        return arena.push(LEAF, 0.0, p);
    }

    let num_features = view.num_features;
    scratch.features.clear();
    scratch.features.extend(0..num_features);
    scratch.features.shuffle(rng);
    scratch.features.truncate(config.max_features);

    let parent_impurity = gini(p);
    let total_pos = pos;
    let labels = view.labels;
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)

    for &feature in &scratch.features {
        let seg = &scratch.order[feature * m + lo..feature * m + hi];
        let col = &view.cols[feature * view.n..];
        let mut left_pos = 0usize;
        let mut prev_id = seg[0];
        let mut prev = col[prev_id.id()];
        for (split_at, &next_id) in seg.iter().enumerate().skip(1) {
            left_pos += prev_id.label(labels);
            let next = col[next_id.id()];
            if prev == next {
                prev_id = next_id;
                continue; // cannot split between identical values
            }
            let left_n = split_at;
            let right_n = len - split_at;
            let p_left = left_pos as f64 / left_n as f64;
            let p_right = (total_pos - left_pos) as f64 / right_n as f64;
            let weighted =
                (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / len as f64;
            let gain = parent_impurity - weighted;
            if gain > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some((feature, 0.5 * (prev + next), gain));
            }
            prev_id = next_id;
            prev = next;
        }
    }

    let (feature, threshold) = match best {
        None => return arena.push(LEAF, 0.0, p),
        Some((feature, threshold, _)) => (feature, threshold),
    };

    // Evaluate the split predicate once per element into the side table,
    // counting the left side's size and positives; an empty side becomes a
    // leaf (as in the oracle) because midpoint rounding can push every
    // element to one side.
    let mut left_n = 0usize;
    let mut left_pos = 0usize;
    {
        let SplitScratch { order, side, .. } = scratch;
        let col = &view.cols[feature * view.n..];
        for &s in &order[feature * m + lo..feature * m + hi] {
            let id = s.id();
            let is_left = col[id] <= threshold;
            side[id] = is_left as u8;
            left_n += is_left as usize;
            left_pos += (is_left as usize) & s.label(labels);
        }
    }
    if left_n == 0 || left_n == len {
        return arena.push(LEAF, 0.0, p);
    }
    let right_n = len - left_n;
    let right_pos = pos - left_pos;

    // A child that will immediately become a leaf never reads its sorted
    // segments (and leaves consume no RNG), so when both children are
    // guaranteed leaves the partition below is skipped entirely — the
    // dominant saving on the deepest tree level.
    let is_leaf = |child_len: usize, child_pos: usize| {
        depth + 1 >= config.max_depth
            || child_len < config.min_samples_split
            || child_pos == 0
            || child_pos == child_len
    };
    let partition_needed = !(is_leaf(left_n, left_pos) && is_leaf(right_n, right_pos));

    // Stable-partition every feature's segment by the chosen split so both
    // children keep presorted segments, staging through the scratch buffer.
    if partition_needed {
        let SplitScratch {
            order, buf, side, ..
        } = scratch;
        for f in 0..num_features {
            let seg = &mut order[f * m + lo..f * m + hi];
            buf[..len].copy_from_slice(seg);
            let mut l = 0usize;
            let mut r = left_n;
            for &s in &buf[..len] {
                // Branch-light select: the destination cursor is chosen with
                // a conditional move, so the (data-dependent) split side
                // never costs a branch misprediction.
                let is_left = side[s.id()] as usize;
                let dst = if is_left == 1 { l } else { r };
                seg[dst] = s;
                l += is_left;
                r += 1 - is_left;
            }
        }
    }

    let idx = arena.push(feature as u32, threshold, 0.0);
    let mid = lo + left_n;
    let left_span = NodeSpan {
        lo,
        hi: mid,
        pos: left_pos,
    };
    let right_span = NodeSpan {
        lo: mid,
        hi,
        pos: pos - left_pos,
    };
    let left_idx = build_node(view, scratch, arena, config, left_span, depth + 1, rng);
    let right_idx = build_node(view, scratch, arena, config, right_span, depth + 1, rng);
    arena.left[idx as usize] = left_idx;
    arena.right[idx as usize] = right_idx;
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{blob_dataset, labeled_points};
    use proptest::prelude::*;

    /// Width of the sample-id words, forced so both widths can be compared.
    #[derive(Debug, Clone, Copy)]
    enum IdWidth {
        Narrow,
        Wide,
    }

    /// [`train_forest`] with every tree pinned to one sample-id width.
    fn train_forest_with_width(
        set: &TrainingSet,
        config: &RandomForestConfig,
        seed: u64,
        width: IdWidth,
    ) -> Result<FlatForest, MlError> {
        fit_forest(set, config, seed, Some(matches!(width, IdWidth::Narrow)))
    }

    /// Deterministic pseudo-random row-major matrix plus labels (only the
    /// debug-build comparison-count tests use it).
    #[cfg(debug_assertions)]
    fn hashed_rows(n: usize, num_features: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * num_features);
        for i in 0..n * num_features {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rows.push((h >> 11) as f64 / (1u64 << 53) as f64);
        }
        let labels = (0..n).map(|i| i % 3 == 0).collect();
        (rows, labels)
    }

    #[test]
    fn training_set_validation() {
        assert!(TrainingSet::from_rows(&[], 1, &[]).is_err());
        assert!(TrainingSet::from_rows(&[1.0], 0, &[true]).is_err());
        assert!(TrainingSet::from_rows(&[1.0, 2.0, 3.0], 2, &[true, false]).is_err());
        let set = TrainingSet::from_rows(&[1.0, 2.0, 3.0, 4.0], 2, &[true, false]).unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
        assert_eq!(set.num_features(), 2);
        assert_eq!(set.labels(), &[true, false]);
    }

    #[test]
    fn training_set_presorts_block_runs() {
        let rows = [3.0, 0.5, 1.0, 0.7, 2.0, 0.1];
        let set = TrainingSet::from_rows(&rows, 2, &[true, false, true]).unwrap();
        // One block: runs are the global presorted orders.
        assert_eq!(set.num_blocks(), 1);
        // Column 0 holds [3, 1, 2] -> ascending order 1, 2, 0.
        assert_eq!(set.block_run(0, 0), &[1, 2, 0]);
        // Column 1 holds [0.5, 0.7, 0.1] -> ascending order 2, 0, 1.
        assert_eq!(set.block_run(1, 0), &[2, 0, 1]);
        assert_eq!(set.value(0, 2), 2.0);
        assert_eq!(set.value(1, 0), 0.5);

        // Two-sample blocks: runs hold block-relative ids.
        let set = TrainingSet::from_rows_in_blocks(&rows, 2, &[true, false, true], 2).unwrap();
        assert_eq!(set.num_blocks(), 2);
        assert_eq!((set.block_len(0), set.block_len(1)), (2, 1));
        assert_eq!(set.block_run(0, 0), &[1, 0]); // block 0 col 0 holds [3, 1]
        assert_eq!(set.block_run(1, 0), &[0, 1]); // block 0 col 1 holds [0.5, 0.7]
        assert_eq!(set.block_run(0, 1), &[0]);
        assert_eq!(set.block_run(1, 1), &[0]);
        assert_eq!(set.block_values(0, 0), &[3.0, 1.0]);
        assert_eq!(set.block_values(0, 1), &[2.0]);
        assert_eq!(set.value(0, 2), 2.0);
        assert_eq!(set.value(1, 0), 0.5);
    }

    #[test]
    fn append_rows_matches_full_rebuild() {
        // Values with heavy ties across the prefix/suffix boundary exercise
        // the merge's stable tie-breaking.
        let full_rows: Vec<f64> = (0..60).map(|i| ((i * 7) % 5) as f64 * 0.5).collect();
        let full_labels: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        for cut in [1usize, 10, 17, 29] {
            let mut grown =
                TrainingSet::from_rows(&full_rows[..cut * 2], 2, &full_labels[..cut]).unwrap();
            grown
                .append_rows(&full_rows[cut * 2..], &full_labels[cut..])
                .unwrap();
            let rebuilt = TrainingSet::from_rows(&full_rows, 2, &full_labels).unwrap();
            assert_eq!(grown, rebuilt, "cut {cut}");
        }
    }

    #[test]
    fn append_rows_matches_full_rebuild_across_block_boundaries() {
        // Small run blocks force appends that grow a partial tail block AND
        // spill into wholly new blocks, with heavy value ties throughout.
        let full_rows: Vec<f64> = (0..60).map(|i| ((i * 7) % 5) as f64 * 0.5).collect();
        let full_labels: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        for rb in [1usize, 4, 7, 30] {
            for cut in [1usize, 10, 17, 29] {
                let mut grown = TrainingSet::from_rows_in_blocks(
                    &full_rows[..cut * 2],
                    2,
                    &full_labels[..cut],
                    rb,
                )
                .unwrap();
                grown
                    .append_rows(&full_rows[cut * 2..], &full_labels[cut..])
                    .unwrap();
                let rebuilt =
                    TrainingSet::from_rows_in_blocks(&full_rows, 2, &full_labels, rb).unwrap();
                assert_eq!(grown, rebuilt, "run block {rb}, cut {cut}");
            }
        }
    }

    #[test]
    fn append_rows_validation() {
        let mut set = TrainingSet::from_rows(&[1.0, 2.0], 2, &[true]).unwrap();
        assert!(set.append_rows(&[], &[]).is_err());
        assert!(set.append_rows(&[1.0], &[true]).is_err());
        assert!(set.append_rows(&[1.0, 2.0, 3.0], &[true]).is_err());
        set.append_rows(&[3.0, 4.0], &[false]).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.labels(), &[true, false]);
    }

    #[test]
    fn run_block_partitioning_is_invisible_to_training() {
        // The k-way run merge must reproduce the whole-pool sort exactly, so
        // the same data trains bit-identically under any block partitioning
        // (including single-sample blocks, the deepest merge fan-in).
        let data = blob_dataset(40, 1.5);
        let num_features = data.num_features();
        let mut rows = Vec::with_capacity(data.len() * num_features);
        for row in data.features() {
            rows.extend_from_slice(row);
        }
        let config = RandomForestConfig {
            n_trees: 7,
            max_depth: 6,
            ..RandomForestConfig::default()
        };
        let whole = TrainingSet::from_dataset(&data).unwrap();
        let reference = train_forest(&whole, &config, 11).unwrap();
        for rb in [1usize, 7, 16, 80, 128] {
            let blocked =
                TrainingSet::from_rows_in_blocks(&rows, num_features, data.labels(), rb).unwrap();
            assert_eq!(
                train_forest(&blocked, &config, 11).unwrap(),
                reference,
                "run block {rb}"
            );
            let wide = train_forest_with_width(&blocked, &config, 11, IdWidth::Wide).unwrap();
            assert_eq!(wide, reference, "run block {rb} (wide)");
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    fn from_columns_rebuild_cost_scales_with_block_count() {
        // Satellite: the persist load path must sort per block, not one
        // O(n log n) global sort per feature. With 256-sample blocks over
        // 32 768 samples the comparison count must drop well below the
        // global sort's (log2 256 = 8 vs log2 32768 = 15).
        let n = 32_768usize;
        let nf = 3usize;
        let (rows, labels) = hashed_rows(n, nf);
        let mut columns = vec![0.0; n * nf];
        for (i, row) in rows.chunks_exact(nf).enumerate() {
            for (f, &x) in row.iter().enumerate() {
                columns[f * n + i] = x;
            }
        }
        let _ = take_run_sort_comparisons();
        let whole =
            TrainingSet::from_columns(columns.clone(), nf, labels.clone(), MAX_RUN_BLOCK).unwrap();
        let whole_cmps = take_run_sort_comparisons();
        let blocked = TrainingSet::from_columns(columns, nf, labels, 256).unwrap();
        let blocked_cmps = take_run_sort_comparisons();
        assert!(whole_cmps > 0 && blocked_cmps > 0);
        assert!(
            blocked_cmps * 3 < whole_cmps * 2,
            "blocked rebuild cost {blocked_cmps} not clearly below global sort cost {whole_cmps}"
        );
        assert_eq!(whole.len(), blocked.len());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn append_cost_scales_with_batch_not_pool() {
        // Appending a small batch must only sort/merge the touched tail
        // block — never re-merge the 16 384-sample prefix.
        let n = 16_384usize;
        let nf = 3usize;
        let batch = 64usize;
        let (rows, labels) = hashed_rows(n + batch, nf);
        let mut set =
            TrainingSet::from_rows_in_blocks(&rows[..n * nf], nf, &labels[..n], 128).unwrap();
        let _ = take_run_sort_comparisons();
        set.append_rows(&rows[n * nf..], &labels[n..]).unwrap();
        let append_cmps = take_run_sort_comparisons();
        // Generous bound: per feature, sorting the batch (<= 16 per element)
        // plus merging through at most two touched blocks.
        let bound = (nf * (batch * 16 + 2 * 128)) as u64;
        assert!(
            append_cmps < bound,
            "append cost {append_cmps} exceeds touched-block bound {bound}"
        );
        let rebuilt = TrainingSet::from_rows_in_blocks(&rows, nf, &labels, 128).unwrap();
        assert_eq!(set, rebuilt);
    }

    /// An AND pattern (positive only when both features are high) needs
    /// depth >= 2; well-separated blobs are classified with extreme
    /// probabilities; the fit is a pure function of the seed.
    #[test]
    fn engine_learns_blobs_and_interactions() {
        let blobs = blob_dataset(60, 4.0);
        let set = TrainingSet::from_dataset(&blobs).unwrap();
        let forest = train_forest(&set, &RandomForestConfig::default(), 3).unwrap();
        let correct = blobs
            .features()
            .iter()
            .zip(blobs.labels())
            .filter(|(row, &label)| forest.predict(row) == label)
            .count();
        assert!(correct as f64 / blobs.len() as f64 > 0.97);
        assert!(forest.predict_proba(&[4.0, 4.0, 0.5]) > 0.9);
        assert!(forest.predict_proba(&[0.0, 0.0, 0.5]) < 0.1);
        assert_eq!(
            train_forest(&set, &RandomForestConfig::default(), 3).unwrap(),
            forest
        );
        assert_ne!(
            train_forest(&set, &RandomForestConfig::default(), 4).unwrap(),
            forest
        );

        let rows: Vec<f64> = (0..40)
            .flat_map(|i| {
                let jitter = (i / 4) as f64 * 0.01;
                let (hi_a, hi_b) = (i % 4 >= 2, i % 2 == 1);
                [
                    if hi_a { 1.0 - jitter } else { jitter },
                    if hi_b { 1.0 - jitter } else { jitter },
                ]
            })
            .collect();
        let labels: Vec<bool> = (0..40).map(|i| i % 4 == 3).collect();
        let set = TrainingSet::from_rows(&rows, 2, &labels).unwrap();
        let errors = |max_depth: usize| {
            let config = RandomForestConfig {
                n_trees: 1,
                max_depth,
                max_features: Some(2),
                bootstrap_fraction: 1.0,
                ..RandomForestConfig::default()
            };
            let tree = train_forest(&set, &config, 0).unwrap();
            let predictions = tree.predict_batch(&rows, 2).unwrap();
            predictions
                .iter()
                .zip(&labels)
                .filter(|(p, l)| p != l)
                .count()
        };
        assert!(errors(1) > 0);
        assert_eq!(errors(12), 0);
    }

    #[test]
    fn engine_rejects_invalid_parameters() {
        let set = TrainingSet::from_rows(&[1.0, 2.0], 1, &[true, false]).unwrap();
        let bad = |config: RandomForestConfig| train_forest(&set, &config, 0).is_err();
        assert!(bad(RandomForestConfig {
            n_trees: 0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            bootstrap_fraction: 0.0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            bootstrap_fraction: 1.5,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_depth: 0,
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_features: Some(0),
            ..RandomForestConfig::default()
        }));
        assert!(bad(RandomForestConfig {
            max_features: Some(9),
            ..RandomForestConfig::default()
        }));
    }

    #[test]
    fn pure_training_set_yields_single_leaves() {
        let set = TrainingSet::from_rows(&[1.0, 2.0, 3.0], 1, &[true, true, true]).unwrap();
        let config = RandomForestConfig {
            n_trees: 4,
            ..RandomForestConfig::default()
        };
        let forest = train_forest(&set, &config, 0).unwrap();
        assert_eq!(forest.num_nodes(), 4);
        assert_eq!(forest.predict_proba(&[9.0]), 1.0);
    }

    #[test]
    fn nan_features_train_without_panicking() {
        // A column of NaNs cannot anchor a usable split; training must fall
        // back to the clean column instead of panicking mid-retrain.
        let rows: Vec<f64> = (0..40)
            .flat_map(|i| [if i % 4 == 0 { f64::NAN } else { 0.5 }, i as f64])
            .collect();
        let labels: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        let set = TrainingSet::from_rows(&rows, 2, &labels).unwrap();
        let config = RandomForestConfig {
            n_trees: 5,
            max_depth: 4,
            max_features: Some(2),
            ..RandomForestConfig::default()
        };
        let forest = train_forest(&set, &config, 1).unwrap();
        assert!(forest.predict(&[0.5, 39.0]));
        assert!(!forest.predict(&[0.5, 0.0]));

        // NaNs must also merge deterministically across block runs: the
        // blocked set trains identically to the single-block set because the
        // merge key preserves total_cmp order bit for bit.
        let blocked = TrainingSet::from_rows_in_blocks(&rows, 2, &labels, 8).unwrap();
        assert_eq!(train_forest(&blocked, &config, 1).unwrap(), forest);
    }

    /// Forests split on per-feature thresholds, so per-column
    /// standardization changes no decision: with the same seed, the engine
    /// grows the same trees on raw rows and on z-scored rows (population
    /// std, constant columns only centred) — equal topology, split features
    /// and leaf probabilities — and each z-scored threshold `t'` maps back
    /// to the raw threshold `t` as `t'·s + m` within
    /// `8·ε·(|m| + |t'·s|)`: a few roundings of the scaling, the midpoint
    /// and the map back, each relative to the column's offset and spread.
    ///
    /// Carve-out: the z-score is monotone but rounds, so two raw values of
    /// one column closer than an ulp of the column's scale can merge into
    /// one scaled value (or their midpoint can round onto one of them), and
    /// a split between them vanishes or moves. Continuous random columns
    /// stay far from that.
    #[test]
    fn standardization_changes_no_split() {
        // (scale, offset) per column: spreads from 1e-6 to 1e6, offsets far
        // from zero, and a constant column (index 3).
        let columns = [
            (1e-6, 0.0),
            (1.0, 3.0),
            (1e3, -2e4),
            (0.0, 42.0),
            (1e6, 5e7),
            (0.25, -0.5),
        ];
        let nf = columns.len();
        let config = RandomForestConfig {
            n_trees: 15,
            max_depth: 8,
            ..RandomForestConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(0x5ca1e);
        for case in 0..8u64 {
            let n = 120 + 20 * case as usize;
            let mut raw = Vec::with_capacity(n * nf);
            let mut labels = Vec::with_capacity(n);
            for _ in 0..n {
                let u: Vec<f64> = (0..nf).map(|_| rng.gen_range(0.0..1.0)).collect();
                raw.extend(columns.iter().zip(&u).map(|(&(s, m), x)| m + s * x));
                labels.push(u[0] + 0.5 * u[2] + 0.4 * rng.gen_range(0.0..1.0) > 1.0);
            }

            // The z-score oracle: column sums in row order, population std.
            let mut means = vec![0.0; nf];
            for row in raw.chunks_exact(nf) {
                for (m, x) in means.iter_mut().zip(row) {
                    *m += x;
                }
            }
            means.iter_mut().for_each(|m| *m /= n as f64);
            let mut stds = vec![0.0; nf];
            for row in raw.chunks_exact(nf) {
                for ((s, x), m) in stds.iter_mut().zip(row).zip(&means) {
                    *s += (x - m) * (x - m);
                }
            }
            stds.iter_mut().for_each(|s| *s = (*s / n as f64).sqrt());
            assert_eq!(stds[3], 0.0);
            let scaled: Vec<f64> = raw
                .chunks_exact(nf)
                .flat_map(|row| {
                    row.iter()
                        .zip(means.iter().zip(&stds))
                        .map(|(x, (m, s))| if *s > 0.0 { (x - m) / s } else { x - m })
                        .collect::<Vec<_>>()
                })
                .collect();

            let fit = |rows: &[f64]| {
                let set = TrainingSet::from_rows(rows, nf, &labels).unwrap();
                train_forest(&set, &config, case).unwrap()
            };
            let (a, b) = (fit(&raw), fit(&scaled));
            assert_eq!(a.roots, b.roots, "case {case}");
            assert_eq!(a.feature, b.feature, "case {case}");
            assert_eq!(a.left, b.left, "case {case}");
            assert_eq!(a.right, b.right, "case {case}");
            assert_eq!(a.leaf_prob, b.leaf_prob, "case {case}");
            let mut splits = 0;
            for (node, &f) in a.feature.iter().enumerate() {
                if f == LEAF {
                    continue;
                }
                let f = f as usize;
                assert_ne!(f, 3, "case {case}: the constant column never splits");
                let spread = b.threshold[node] * stds[f];
                let back = spread + means[f];
                let bound = 8.0 * f64::EPSILON * (means[f].abs() + spread.abs());
                assert!(
                    (back - a.threshold[node]).abs() <= bound,
                    "case {case}, node {node}: {back} vs {}",
                    a.threshold[node]
                );
                splits += 1;
            }
            assert!(splits > 2 * config.n_trees, "case {case}: trees must split");
            for (x, z) in raw.chunks_exact(nf).zip(scaled.chunks_exact(nf)) {
                assert_eq!(
                    a.predict_proba(x).to_bits(),
                    b.predict_proba(z).to_bits(),
                    "case {case}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn narrow_and_wide_sample_ids_fit_bit_identical_forests(
            (rows, labels) in labeled_points(6..50),
            seed in 0u64..30,
            n_trees in 1usize..10,
        ) {
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let set = TrainingSet::from_rows(&flat, 3, &labels).unwrap();
            let config = RandomForestConfig { n_trees, max_depth: 6, ..Default::default() };
            let narrow = train_forest_with_width(&set, &config, seed, IdWidth::Narrow).unwrap();
            let wide = train_forest_with_width(&set, &config, seed, IdWidth::Wide).unwrap();
            prop_assert_eq!(&narrow, &wide);
            // Auto resolves to the narrow path below the 65536-sample boundary.
            prop_assert_eq!(&train_forest(&set, &config, seed).unwrap(), &narrow);
        }
    }

    /// A large pseudo-random training set for the id-width boundary check.
    fn boundary_set(n: usize) -> TrainingSet {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let h = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            rows.push((h % 9973) as f64);
            rows.push(((h >> 32) % 101) as f64);
            labels.push(h % 89 < 44);
        }
        TrainingSet::from_rows(&rows, 2, &labels).unwrap()
    }

    /// The narrow (u16) and wide (u32) sample-id paths must agree exactly on
    /// both sides of the 65535/65536 boundary, where the auto selection flips
    /// from narrow to wide; one sample past the narrow address space the
    /// forced narrow path must refuse instead of truncating ids.
    #[test]
    fn u16_sample_ids_are_bit_identical_at_the_65536_boundary() {
        let config = RandomForestConfig {
            n_trees: 2,
            max_depth: 4,
            bootstrap_fraction: 0.02,
            max_features: Some(2),
            ..RandomForestConfig::default()
        };
        // n = 65535: auto selects narrow ids.
        let below = boundary_set(65535);
        let narrow = train_forest_with_width(&below, &config, 3, IdWidth::Narrow).unwrap();
        let wide = train_forest_with_width(&below, &config, 3, IdWidth::Wide).unwrap();
        assert_eq!(narrow, wide);
        assert_eq!(train_forest(&below, &config, 3).unwrap(), narrow);
        // n = 65536: auto switches to wide ids; narrow still addresses
        // exactly 65536 samples (ids 0..=65535) and stays bit-identical.
        let at = boundary_set(65536);
        let wide = train_forest_with_width(&at, &config, 3, IdWidth::Wide).unwrap();
        assert_eq!(train_forest(&at, &config, 3).unwrap(), wide);
        assert_eq!(
            train_forest_with_width(&at, &config, 3, IdWidth::Narrow).unwrap(),
            wide
        );
        // n = 65537: the narrow address space is exhausted.
        let past = boundary_set(65537);
        assert!(train_forest_with_width(&past, &config, 3, IdWidth::Narrow).is_err());
        assert_eq!(
            train_forest(&past, &config, 3).unwrap(),
            train_forest_with_width(&past, &config, 3, IdWidth::Wide).unwrap()
        );
    }
}
