//! Incremental forest retraining engine.
//!
//! The paper's self-learning loop retrains its random forest every time a
//! missed seizure is observed, even though the personalized training set only
//! ever *grows*. [`IncrementalTrainer`] is a stateful retraining engine built
//! on the scratch machinery of [`crate::training`]: it owns a growable
//! [`TrainingSet`] whose per-block sorted runs are **aligned with the
//! ownership blocks below** (appends sort only the touched tail/new block
//! runs, no prefix re-sort), and caches one fitted arena per tree together
//! with a fingerprint of the sample pool the tree's bootstrap stream drew
//! from. On [`IncrementalTrainer::retrain`] only the trees whose pools were
//! touched by the growth are refitted; the rest are reused verbatim. A
//! refitted tree hands `fit_tree_jobs` exactly its owned block list, so its
//! scratch load k-way-merges O(owned blocks) of presorted runs instead of
//! scanning the whole pool — the per-seizure retrain cost is O(batch) end to
//! end, independent of how large the pool has grown.
//!
//! # Pool partitioning
//!
//! The sample pool is cut into contiguous **blocks** of
//! [`IncrementalTrainerConfig::block_size`] samples; block `b` is owned by
//! tree `b % n_trees`, and each tree bootstraps (with replacement, scaled by
//! `bootstrap_fraction`) from the union of its blocks. A tree that owns no
//! block yet — fewer blocks than trees, the cold-start regime — falls back to
//! bootstrapping from the **whole pool**, so small ensembles behave like a
//! classic bagged forest until enough data arrives for trees to specialize.
//! Appending samples therefore touches exactly: the owner of the final
//! (possibly partial) block, the owners of newly created blocks, and the
//! full-pool fallback trees. Everything else is reused.
//!
//! # Equivalence guarantee
//!
//! Every retrained state is a pure function of `(final training set, config,
//! seed)`: block ownership depends only on the final sample count, each
//! tree's bootstrap draws replay a private ChaCha8 stream parameterized by
//! its pool length, [`TrainingSet::append_rows`] reproduces the exact
//! per-block sorted runs a from-scratch build would produce, and the
//! owned-run k-way merge reproduces the whole-pool `(value, id)` sort over
//! the owned subset. Consequently a
//! trainer grown through **any** schedule of appends emits a [`FlatForest`]
//! identical — node for node, hence prediction-equivalent on any matrix — to
//! a fresh trainer fitted once on the final dataset with the same seed (a
//! property-tested invariant; see `crates/ml/tests/properties.rs`).
//!
//! # Example
//!
//! ```
//! use seizure_ml::training::{IncrementalTrainer, IncrementalTrainerConfig};
//! use seizure_ml::RandomForestConfig;
//!
//! # fn main() -> Result<(), seizure_ml::MlError> {
//! let config = IncrementalTrainerConfig {
//!     forest: RandomForestConfig { n_trees: 4, ..RandomForestConfig::default() },
//!     block_size: 8,
//! };
//! let mut trainer = IncrementalTrainer::new(config, 7);
//!
//! // Initial fit: one feature, 32 samples.
//! let rows: Vec<f64> = (0..32).map(f64::from).collect();
//! let labels: Vec<bool> = (0..32).map(|i| i >= 16).collect();
//! let forest = trainer.retrain(&rows, 1, &labels)?;
//! assert!(forest.predict(&[30.0]));
//!
//! // Growing the pool refits only the affected trees.
//! let forest = trainer.retrain(&[40.0, 41.0], 1, &[true, true])?;
//! assert!(trainer.last_refit_count() < trainer.num_trees());
//! assert!(forest.predict(&[40.5]));
//! # Ok(())
//! # }
//! ```

use crate::error::MlError;
use crate::flat::FlatForest;
use crate::forest::RandomForestConfig;
use crate::training::{
    fit_tree_jobs, resolve_tree_config, stitch_forest, tree_stream_seed, NodeArena, TrainingSet,
    TreeJob, MAX_RUN_BLOCK,
};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Configuration of an [`IncrementalTrainer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IncrementalTrainerConfig {
    /// Hyper-parameters shared with the batch forest engines.
    pub forest: RandomForestConfig,
    /// Samples per ownership block (at most 65 536 — block-relative sample
    /// ids are u16). Smaller blocks spread fresh data over more (cheaper)
    /// trees and reach tree specialization sooner; larger blocks keep each
    /// tree's pool bigger. The default (128) puts every tree of a 30-tree
    /// ensemble on its own data once ~4k samples arrived. The training set's
    /// per-block sorted runs are aligned with these blocks.
    pub block_size: usize,
}

impl Default for IncrementalTrainerConfig {
    fn default() -> Self {
        Self {
            forest: RandomForestConfig::default(),
            block_size: 128,
        }
    }
}

/// One cached tree: its fitted arena plus the fingerprint of the pool the
/// bootstrap stream drew from. A tree is refitted exactly when its
/// fingerprint changes (pools only ever grow, so equal fingerprints imply an
/// identical pool).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct TreeState {
    pub(crate) arena: NodeArena,
    pub(crate) blocks_owned: usize,
    pub(crate) pool_len: usize,
}

/// Stateful incremental retraining engine — see the [module docs](self) for
/// the pool partitioning scheme and the from-scratch equivalence guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalTrainer {
    config: IncrementalTrainerConfig,
    seed: u64,
    set: Option<TrainingSet>,
    trees: Vec<TreeState>,
    last_refit: usize,
    /// Diagnostic mode: refitted trees select the **whole pool** and draw
    /// global ids (the pre-block-run behaviour), emulating the old O(pool)
    /// scratch load. Output forests are bit-identical to the owned-block
    /// path; the retrain bench uses this as its speedup baseline. Never
    /// persisted; restored trainers reset to `false`.
    reference_loads: bool,
}

impl IncrementalTrainer {
    /// Creates an empty trainer; the first [`IncrementalTrainer::retrain`]
    /// call builds the training set and fits every tree.
    pub fn new(config: IncrementalTrainerConfig, seed: u64) -> Self {
        Self {
            config,
            seed,
            set: None,
            trees: Vec::new(),
            last_refit: 0,
            reference_loads: false,
        }
    }

    /// Switches between owned-block scratch loads (`false`, the default) and
    /// the whole-pool reference loads described on the field — forests are
    /// bit-identical either way; only the retrain cost differs.
    pub fn set_reference_loads(&mut self, on: bool) {
        self.reference_loads = on;
    }

    /// The trainer's configuration.
    pub fn config(&self) -> &IncrementalTrainerConfig {
        &self.config
    }

    /// Number of trees in the ensemble.
    pub fn num_trees(&self) -> usize {
        self.config.forest.n_trees
    }

    /// Number of samples accumulated so far.
    pub fn num_samples(&self) -> usize {
        self.set.as_ref().map_or(0, TrainingSet::len)
    }

    /// The accumulated training set, once the first retrain happened.
    pub fn training_set(&self) -> Option<&TrainingSet> {
        self.set.as_ref()
    }

    /// How many trees the last [`IncrementalTrainer::retrain`] actually
    /// refitted (the remaining `num_trees - last_refit_count` were reused).
    pub fn last_refit_count(&self) -> usize {
        self.last_refit
    }

    /// The seed the per-tree draw and feature-subsampling streams derive
    /// from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Re-stitches the forest the last [`IncrementalTrainer::retrain`]
    /// emitted from the cached per-tree arenas (`None` until the first
    /// retrain). Used when restoring a persisted trainer, whose snapshot
    /// stores the arenas but not the stitched copy.
    pub fn current_forest(&self) -> Option<FlatForest> {
        let set = self.set.as_ref()?;
        if self.trees.len() != self.config.forest.n_trees || self.trees.is_empty() {
            return None;
        }
        let refs: Vec<&NodeArena> = self.trees.iter().map(|s| &s.arena).collect();
        Some(stitch_forest(set.num_features(), &refs))
    }

    /// Decomposes the trainer into the parts the persistence codec stores:
    /// configuration, seed, pool, cached trees with their draw-stream
    /// fingerprints, and the last refit count.
    pub(crate) fn snapshot_parts(
        &self,
    ) -> (
        &IncrementalTrainerConfig,
        u64,
        Option<&TrainingSet>,
        &[TreeState],
        usize,
    ) {
        (
            &self.config,
            self.seed,
            self.set.as_ref(),
            &self.trees,
            self.last_refit,
        )
    }

    /// Reassembles a trainer from persisted parts (the codec validates the
    /// cross-field invariants before calling this).
    pub(crate) fn from_snapshot_parts(
        config: IncrementalTrainerConfig,
        seed: u64,
        set: Option<TrainingSet>,
        trees: Vec<TreeState>,
        last_refit: usize,
    ) -> Self {
        Self {
            config,
            seed,
            set,
            trees,
            last_refit,
            reference_loads: false,
        }
    }

    /// Appends new samples (flat row-major, `labels.len() * num_features`
    /// values) to the pool, refits exactly the trees whose bootstrap pools
    /// were affected by the growth, and emits the full flat forest.
    ///
    /// # Errors
    ///
    /// Returns [`MlError::InvalidParameter`] for a zero `block_size`, a
    /// `block_size` above 65 536 (block-relative ids are u16) or
    /// invalid forest hyper-parameters, [`MlError::DimensionMismatch`] if
    /// the matrix does not match `labels.len() * num_features` or
    /// `num_features` differs from earlier appends, and
    /// [`MlError::InvalidDataset`] for an empty append — or for a
    /// **single-class** append longer than `block_size`: such a batch fills
    /// whole ownership blocks with one label, so every block-specialized
    /// tree drawing from them would silently degrade into a single-class
    /// stump. The error is raised before the pool is touched; interleave
    /// classes in the batch (the pipeline's balanced batches do) or raise
    /// `block_size` above the stream's longest single-class run.
    pub fn retrain(
        &mut self,
        rows: &[f64],
        num_features: usize,
        labels: &[bool],
    ) -> Result<FlatForest, MlError> {
        let block = self.config.block_size;
        if block == 0 {
            return Err(MlError::InvalidParameter {
                name: "block_size",
                reason: "ownership blocks must hold at least one sample".to_string(),
            });
        }
        if block > MAX_RUN_BLOCK {
            return Err(MlError::InvalidParameter {
                name: "block_size",
                reason: format!(
                    "ownership blocks are limited to {MAX_RUN_BLOCK} samples (block-relative \
                     u16 ids), got {block}"
                ),
            });
        }
        if self.config.forest.n_trees > 1
            && labels.len() > block
            && labels.windows(2).all(|w| w[0] == w[1])
        {
            return Err(MlError::InvalidDataset {
                detail: format!(
                    "single-class append of {} samples exceeds block_size {}: every ownership \
                     block it fills holds one label only, silently degrading block-specialized \
                     tree diversity; interleave both classes in the batch or raise block_size \
                     above the stream's longest single-class run",
                    labels.len(),
                    block
                ),
            });
        }
        match &mut self.set {
            // Align the set's sorted-run blocks with the ownership blocks,
            // so a tree's owned pool is exactly a list of presorted runs.
            None => {
                self.set = Some(TrainingSet::from_rows_in_blocks(
                    rows,
                    num_features,
                    labels,
                    block,
                )?)
            }
            Some(set) => {
                if num_features != set.num_features() {
                    return Err(MlError::DimensionMismatch {
                        detail: format!(
                            "append has {num_features} features but the pool was built with {}",
                            set.num_features()
                        ),
                    });
                }
                set.append_rows(rows, labels)?;
            }
        }
        let set = self.set.as_ref().expect("training set installed above");
        debug_assert_eq!(set.run_block(), block, "run blocks track ownership blocks");
        let tree_config = resolve_tree_config(set, &self.config.forest)?;
        let n = set.len();
        let n_trees = self.config.forest.n_trees;
        let num_blocks = n.div_ceil(block);
        let tail_short = num_blocks * block - n;

        // Fingerprint every tree's pool and draw fresh bootstrap streams for
        // the ones whose pool grew (or that were never fitted). Draws are
        // **selection-local**: a tree's owned blocks (ascending `t,
        // t + n_trees, ...`) are all full except possibly the global tail,
        // so local id `j` addresses the `j`-th sample of their concatenation
        // and the draw maps onto the owned pool with no arithmetic at all.
        let mut draw_buf: Vec<u32> = Vec::new();
        let mut block_buf: Vec<u32> = Vec::new();
        // (tree index, draw range, block range, new fingerprint) per
        // refitted tree.
        type Pending = (
            usize,
            std::ops::Range<usize>,
            std::ops::Range<usize>,
            TreeState,
        );
        let mut pending: Vec<Pending> = Vec::new();
        for t in 0..n_trees {
            let blocks_owned = if t < num_blocks {
                (num_blocks - 1 - t) / n_trees + 1
            } else {
                0
            };
            let owns_tail = num_blocks >= 1 && (num_blocks - 1) % n_trees == t;
            let pool_len = if blocks_owned == 0 {
                // Cold start: no block reached this tree yet, bootstrap from
                // the whole pool like a classic bagged forest.
                n
            } else {
                blocks_owned * block - if owns_tail { tail_short } else { 0 }
            };
            let unchanged = self
                .trees
                .get(t)
                .is_some_and(|s| s.blocks_owned == blocks_owned && s.pool_len == pool_len);
            if unchanged {
                continue;
            }
            let block_start = block_buf.len();
            if blocks_owned == 0 || self.reference_loads {
                block_buf.extend(0..num_blocks as u32);
            } else {
                block_buf.extend((0..blocks_owned).map(|i| (t + i * n_trees) as u32));
            }
            let m =
                ((pool_len as f64 * self.config.forest.bootstrap_fraction).round() as usize).max(1);
            let start = draw_buf.len();
            let mut rng = ChaCha8Rng::seed_from_u64(draw_stream_seed(self.seed, t));
            for _ in 0..m {
                let j = rng.gen_range(0..pool_len);
                let id = if blocks_owned > 0 && self.reference_loads {
                    // Reference mode selects the whole pool, so the draw must
                    // be mapped back to a global id (the old O(pool) layout);
                    // the drawn sample is the same either way.
                    let b = t + (j / block) * n_trees;
                    b * block + j % block
                } else {
                    j
                };
                draw_buf.push(id as u32);
            }
            pending.push((
                t,
                start..draw_buf.len(),
                block_start..block_buf.len(),
                TreeState {
                    arena: NodeArena::default(),
                    blocks_owned,
                    pool_len,
                },
            ));
        }

        let jobs: Vec<TreeJob<'_>> = pending
            .iter()
            .map(|(t, draws, blocks, _)| TreeJob {
                blocks: &block_buf[blocks.clone()],
                draws: &draw_buf[draws.clone()],
                seed: tree_stream_seed(self.seed, *t),
            })
            .collect();
        let arenas = fit_tree_jobs(set, &tree_config, &jobs, None)?;

        self.trees.resize(n_trees, TreeState::default());
        self.last_refit = pending.len();
        for ((t, _, _, mut state), arena) in pending.into_iter().zip(arenas) {
            state.arena = arena;
            self.trees[t] = state;
        }

        let refs: Vec<&NodeArena> = self.trees.iter().map(|s| &s.arena).collect();
        Ok(stitch_forest(set.num_features(), &refs))
    }
}

/// The per-tree bootstrap-draw stream seed, decoupled from the tree's
/// feature-subsampling stream so the two never correlate.
fn draw_stream_seed(seed: u64, t: usize) -> u64 {
    tree_stream_seed(seed, t) ^ 0x5851_F42D_4C95_7F2D
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic two-class rows: one informative feature, one noisy.
    fn rows_and_labels(n: usize) -> (Vec<f64>, Vec<bool>) {
        let mut rows = Vec::with_capacity(n * 2);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let noise = ((i * 37 + 11) % 23) as f64 / 23.0;
            let positive = i % 2 == 0;
            rows.push(if positive { 4.0 + noise } else { noise });
            rows.push(((i * 7) % 13) as f64);
            labels.push(positive);
        }
        (rows, labels)
    }

    fn small_config() -> IncrementalTrainerConfig {
        IncrementalTrainerConfig {
            forest: RandomForestConfig {
                n_trees: 6,
                max_depth: 5,
                ..RandomForestConfig::default()
            },
            block_size: 16,
        }
    }

    #[test]
    fn incremental_equals_from_scratch() {
        let (rows, labels) = rows_and_labels(200);
        for cuts in [vec![200], vec![120, 200], vec![50, 60, 130, 200]] {
            let mut trainer = IncrementalTrainer::new(small_config(), 9);
            let mut prev = 0;
            let mut forest = None;
            for cut in cuts {
                forest = Some(
                    trainer
                        .retrain(&rows[prev * 2..cut * 2], 2, &labels[prev..cut])
                        .unwrap(),
                );
                prev = cut;
            }
            let mut scratch = IncrementalTrainer::new(small_config(), 9);
            let reference = scratch.retrain(&rows, 2, &labels).unwrap();
            assert_eq!(forest.unwrap(), reference);
        }
    }

    #[test]
    fn small_appends_reuse_most_trees() {
        let (rows, labels) = rows_and_labels(400);
        let mut trainer = IncrementalTrainer::new(small_config(), 3);
        trainer.retrain(&rows[..768], 2, &labels[..384]).unwrap();
        // 384 samples / block 16 = 24 blocks over 6 trees: every tree owns
        // blocks, none is on the full-pool fallback. Appending one block's
        // worth of samples touches the tail owner and one fresh block owner.
        assert_eq!(trainer.last_refit_count(), 6);
        trainer.retrain(&rows[768..], 2, &labels[384..]).unwrap();
        assert!(
            trainer.last_refit_count() <= 2,
            "refit {} of {} trees",
            trainer.last_refit_count(),
            trainer.num_trees()
        );
        assert_eq!(trainer.num_samples(), 400);
    }

    #[test]
    fn cold_start_falls_back_to_full_pool() {
        let (rows, labels) = rows_and_labels(20);
        let mut trainer = IncrementalTrainer::new(small_config(), 1);
        let forest = trainer.retrain(&rows, 2, &labels).unwrap();
        // 20 samples -> 2 blocks, so 4 of 6 trees bootstrap the whole pool;
        // the ensemble still separates the classes.
        assert_eq!(forest.num_trees(), 6);
        assert!(forest.predict(&[4.5, 1.0]));
        assert!(!forest.predict(&[0.1, 1.0]));
    }

    #[test]
    fn retrain_validation() {
        let mut trainer = IncrementalTrainer::new(small_config(), 0);
        assert!(trainer.retrain(&[], 2, &[]).is_err());
        assert!(trainer.retrain(&[1.0], 2, &[true]).is_err());
        let (rows, labels) = rows_and_labels(20);
        trainer.retrain(&rows, 2, &labels).unwrap();
        // Feature-count drift across appends is rejected.
        assert!(trainer.retrain(&[1.0, 2.0, 3.0], 3, &[true]).is_err());
        let mut zero_block = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                block_size: 0,
                ..small_config()
            },
            0,
        );
        assert!(zero_block.retrain(&rows, 2, &labels).is_err());
        let mut zero_trees = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                forest: RandomForestConfig {
                    n_trees: 0,
                    ..RandomForestConfig::default()
                },
                ..small_config()
            },
            0,
        );
        assert!(zero_trees.retrain(&rows, 2, &labels).is_err());
    }

    #[test]
    fn single_class_append_longer_than_a_block_is_rejected() {
        // block_size 16 (small_config); a 17-sample one-label batch would
        // fill a whole ownership block with a single class.
        let (rows, labels) = rows_and_labels(40);
        let mut trainer = IncrementalTrainer::new(small_config(), 2);
        trainer.retrain(&rows, 2, &labels).unwrap();
        let bad_rows: Vec<f64> = (0..34).map(f64::from).collect();
        let err = trainer.retrain(&bad_rows, 2, &[true; 17]).unwrap_err();
        assert!(matches!(err, MlError::InvalidDataset { .. }));
        assert!(err.to_string().contains("block_size"), "{err}");
        // The rejected batch never touched the pool.
        assert_eq!(trainer.num_samples(), 40);
        // At exactly block_size a single-class batch is still allowed...
        let ok_rows: Vec<f64> = (0..32).map(f64::from).collect();
        trainer.retrain(&ok_rows, 2, &[true; 16]).unwrap();
        // ...as is a longer batch that mixes classes.
        let mut mixed = vec![true; 17];
        mixed[8] = false;
        trainer.retrain(&bad_rows, 2, &mixed).unwrap();
        assert_eq!(trainer.num_samples(), 40 + 16 + 17);
        // Single-tree ensembles always bootstrap the whole pool, so the
        // block-diversity concern (and the guard) do not apply.
        let mut single = IncrementalTrainer::new(
            IncrementalTrainerConfig {
                forest: RandomForestConfig {
                    n_trees: 1,
                    ..RandomForestConfig::default()
                },
                block_size: 4,
            },
            0,
        );
        single.retrain(&rows, 2, &labels).unwrap();
        single.retrain(&bad_rows, 2, &[true; 17]).unwrap();
    }

    #[test]
    fn current_forest_matches_last_retrain_output() {
        let mut trainer = IncrementalTrainer::new(small_config(), 5);
        assert!(trainer.current_forest().is_none());
        let (rows, labels) = rows_and_labels(60);
        let emitted = trainer.retrain(&rows, 2, &labels).unwrap();
        assert_eq!(trainer.current_forest().unwrap(), emitted);
        assert_eq!(trainer.seed(), 5);
    }

    #[test]
    fn accessors_report_state() {
        let mut trainer = IncrementalTrainer::new(small_config(), 5);
        assert_eq!(trainer.num_samples(), 0);
        assert!(trainer.training_set().is_none());
        assert_eq!(trainer.num_trees(), 6);
        let (rows, labels) = rows_and_labels(40);
        trainer.retrain(&rows, 2, &labels).unwrap();
        assert_eq!(trainer.num_samples(), 40);
        assert_eq!(trainer.training_set().unwrap().num_features(), 2);
        assert_eq!(trainer.config().block_size, 16);
    }
}
