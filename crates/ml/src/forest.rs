//! Random-forest hyper-parameters.
//!
//! The paper's real-time detector (following Sopic et al., e-Glass) is an
//! ensemble of CART trees, each trained on a bootstrap sample with per-split
//! feature subsampling, predicting by majority vote. The ensemble is fitted
//! by [`train_forest`](crate::training::train_forest) or an
//! [`IncrementalTrainer`](crate::incremental::IncrementalTrainer) and stored
//! as a [`FlatForest`](crate::flat::FlatForest).

/// Hyper-parameters of a random forest.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomForestConfig {
    /// Number of trees in the ensemble.
    pub n_trees: usize,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum number of samples required to attempt a split.
    pub min_samples_split: usize,
    /// Number of features considered at each split; `None` uses
    /// `ceil(sqrt(F))`, the usual random-forest default.
    pub max_features: Option<usize>,
    /// Fraction of the training set drawn (with replacement) for each tree.
    pub bootstrap_fraction: f64,
}

impl Default for RandomForestConfig {
    fn default() -> Self {
        Self {
            n_trees: 50,
            max_depth: 10,
            min_samples_split: 2,
            max_features: None,
            bootstrap_fraction: 1.0,
        }
    }
}
