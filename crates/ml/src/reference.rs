//! The boxed CART random forest that the training engine and the flat
//! traversal must reproduce bit for bit: `Box`ed nodes, a per-node
//! sort-and-scan split finder and a sequential bagging loop over one shared
//! RNG stream. It exists only as a test oracle.

use crate::dataset::Dataset;
use crate::flat::{FlatForest, LEAF};
use crate::forest::RandomForestConfig;
use crate::training::gini;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

enum Node {
    /// Fraction of positive samples that reached the leaf.
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict_proba(&self, sample: &[f64]) -> f64 {
        let mut node = self;
        loop {
            match node {
                Node::Leaf(p) => return *p,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    node = if sample[*feature] <= *threshold {
                        left
                    } else {
                        right
                    }
                }
            }
        }
    }
}

/// A fitted boxed forest.
pub(crate) struct BoxedForest {
    trees: Vec<Node>,
    num_features: usize,
}

impl BoxedForest {
    /// Bags `config.n_trees` trees: each tree's bootstrap indices come from
    /// one shared stream in tree order, its feature subsampling from a
    /// private per-tree stream. Expects valid hyper-parameters.
    pub(crate) fn fit(data: &Dataset, config: &RandomForestConfig, seed: u64) -> Self {
        let max_features = config
            .max_features
            .unwrap_or(((data.num_features() as f64).sqrt().ceil() as usize).max(1));
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let sample_count =
            ((data.len() as f64 * config.bootstrap_fraction).round() as usize).max(1);
        let trees = (0..config.n_trees)
            .map(|t| {
                let indices: Vec<usize> = (0..sample_count)
                    .map(|_| rng.gen_range(0..data.len()))
                    .collect();
                let tree_seed = seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(t as u64);
                let mut tree_rng = ChaCha8Rng::seed_from_u64(tree_seed);
                build_node(data, &indices, config, max_features, 0, &mut tree_rng)
            })
            .collect();
        Self {
            trees,
            num_features: data.num_features(),
        }
    }

    /// Mean positive-class probability over the trees, summed in tree order.
    pub(crate) fn predict_proba(&self, sample: &[f64]) -> f64 {
        let sum: f64 = self.trees.iter().map(|t| t.predict_proba(sample)).sum();
        sum / self.trees.len() as f64
    }

    /// Majority vote of the trees' 0.5-thresholded probabilities.
    pub(crate) fn predict(&self, sample: &[f64]) -> bool {
        let votes = self
            .trees
            .iter()
            .filter(|t| t.predict_proba(sample) >= 0.5)
            .count();
        2 * votes >= self.trees.len()
    }

    /// Compiles the trees into flat node storage in DFS preorder (leaves
    /// keep 0/0 children).
    pub(crate) fn to_flat(&self) -> FlatForest {
        let mut flat = FlatForest {
            num_features: self.num_features,
            roots: Vec::new(),
            feature: Vec::new(),
            threshold: Vec::new(),
            left: Vec::new(),
            right: Vec::new(),
            leaf_prob: Vec::new(),
        };
        for tree in &self.trees {
            let root = flatten(&mut flat, tree);
            flat.roots.push(root);
        }
        flat
    }
}

fn flatten(flat: &mut FlatForest, node: &Node) -> u32 {
    let idx = flat.feature.len() as u32;
    let (feature, threshold, prob) = match node {
        Node::Leaf(p) => (LEAF, 0.0, *p),
        Node::Split {
            feature, threshold, ..
        } => (*feature as u32, *threshold, 0.0),
    };
    flat.feature.push(feature);
    flat.threshold.push(threshold);
    flat.left.push(0);
    flat.right.push(0);
    flat.leaf_prob.push(prob);
    if let Node::Split { left, right, .. } = node {
        let left = flatten(flat, left);
        let right = flatten(flat, right);
        flat.left[idx as usize] = left;
        flat.right[idx as usize] = right;
    }
    idx
}

fn build_node(
    data: &Dataset,
    indices: &[usize],
    config: &RandomForestConfig,
    max_features: usize,
    depth: usize,
    rng: &mut ChaCha8Rng,
) -> Node {
    let labels = data.labels();
    let p = indices.iter().filter(|&&i| labels[i]).count() as f64 / indices.len() as f64;
    if depth >= config.max_depth || indices.len() < config.min_samples_split || p == 0.0 || p == 1.0
    {
        return Node::Leaf(p);
    }

    let mut candidate_features: Vec<usize> = (0..data.num_features()).collect();
    candidate_features.shuffle(rng);
    candidate_features.truncate(max_features);

    let value = |i: usize, feature: usize| data.features()[i][feature];
    let parent_impurity = gini(p);
    let mut best: Option<(usize, f64, f64)> = None; // (feature, threshold, gain)
    for &feature in &candidate_features {
        // Sort the node's samples by this feature and scan the thresholds.
        let mut sorted = indices.to_vec();
        sorted.sort_by(|&a, &b| value(a, feature).total_cmp(&value(b, feature)));
        let total_pos = sorted.iter().filter(|&&i| labels[i]).count();
        let n = sorted.len();
        let mut left_pos = 0usize;
        for split_at in 1..n {
            if labels[sorted[split_at - 1]] {
                left_pos += 1;
            }
            let prev = value(sorted[split_at - 1], feature);
            let next = value(sorted[split_at], feature);
            if prev == next {
                continue; // cannot split between identical values
            }
            let left_n = split_at;
            let right_n = n - split_at;
            let p_left = left_pos as f64 / left_n as f64;
            let p_right = (total_pos - left_pos) as f64 / right_n as f64;
            let weighted =
                (left_n as f64 * gini(p_left) + right_n as f64 * gini(p_right)) / n as f64;
            let gain = parent_impurity - weighted;
            if gain > best.map_or(1e-12, |(_, _, g)| g) {
                best = Some((feature, 0.5 * (prev + next), gain));
            }
        }
    }

    let Some((feature, threshold, _)) = best else {
        return Node::Leaf(p);
    };
    let (left, right): (Vec<usize>, Vec<usize>) = indices
        .iter()
        .partition(|&&i| value(i, feature) <= threshold);
    if left.is_empty() || right.is_empty() {
        return Node::Leaf(p);
    }
    Node::Split {
        feature,
        threshold,
        left: Box::new(build_node(
            data,
            &left,
            config,
            max_features,
            depth + 1,
            rng,
        )),
        right: Box::new(build_node(
            data,
            &right,
            config,
            max_features,
            depth + 1,
            rng,
        )),
    }
}

/// Two overlapping three-feature blobs, `n_per_class` samples each.
pub(crate) fn blob_dataset(n_per_class: usize, separation: f64) -> Dataset {
    let mut rows = Vec::new();
    let mut labels = Vec::new();
    for i in 0..n_per_class {
        let jitter1 = ((i * 37 + 13) % 101) as f64 / 101.0 - 0.5;
        let jitter2 = ((i * 53 + 29) % 97) as f64 / 97.0 - 0.5;
        rows.push(vec![jitter1, jitter2, ((i % 7) as f64) / 7.0]);
        labels.push(false);
        rows.push(vec![
            separation + jitter2,
            separation + jitter1,
            ((i % 5) as f64) / 5.0,
        ]);
        labels.push(true);
    }
    Dataset::new(rows, labels).unwrap()
}

/// Random labeled three-feature rows, as many as `n` draws.
pub(crate) fn labeled_points(
    n: std::ops::Range<usize>,
) -> impl proptest::strategy::Strategy<Value = (Vec<Vec<f64>>, Vec<bool>)> {
    use proptest::prelude::*;
    prop::collection::vec((prop::collection::vec(-50.0f64..50.0, 3), any::<bool>()), n)
        .prop_map(|rows| rows.into_iter().unzip())
}

mod tests {
    use super::*;
    use crate::training::{train_forest, TrainingSet};
    use proptest::prelude::*;

    /// The shape of a paper-scale training batch: 54 feature columns, a few
    /// hundred rows, values quantized to a handful of levels (heavy ties),
    /// one constant column and both classes.
    fn bench_shaped_dataset() -> Dataset {
        let mut rng = ChaCha8Rng::seed_from_u64(0xbe9c);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..320 {
            let mut row: Vec<f64> = (0..54).map(|_| rng.gen_range(0..6) as f64 * 0.5).collect();
            row[17] = 3.0;
            labels.push(row[0] + row[1] + rng.gen_range(0.0..2.0) > 3.5);
            rows.push(row);
        }
        Dataset::new(rows, labels).unwrap()
    }

    /// Engine equals oracle node for node, and the flat batch predictions
    /// equal the oracle's boxed traversal (probabilities by `to_bits()`).
    #[test]
    fn engine_matches_boxed_forest_exactly() {
        let config = RandomForestConfig {
            n_trees: 13,
            max_depth: 7,
            ..RandomForestConfig::default()
        };
        let bench_config = RandomForestConfig {
            n_trees: 30,
            max_depth: 8,
            bootstrap_fraction: 1.0,
            ..RandomForestConfig::default()
        };
        let blobs = blob_dataset(40, 1.5);
        let bench = bench_shaped_dataset();
        assert!(bench.num_positive() > 0 && bench.num_negative() > 0);
        let cases = [0, 1, 7, 42]
            .map(|seed| (&blobs, config, seed))
            .into_iter()
            .chain([(&bench, bench_config, 7)]);
        for (data, config, seed) in cases {
            let oracle = BoxedForest::fit(data, &config, seed);
            let set = TrainingSet::from_dataset(data).unwrap();
            let engine = train_forest(&set, &config, seed).unwrap();
            assert_eq!(engine, oracle.to_flat(), "seed {seed}");
            let matrix: Vec<f64> = data.features().concat();
            let nf = data.num_features();
            let probas = engine.predict_proba_batch(&matrix, nf).unwrap();
            let classes = engine.predict_batch(&matrix, nf).unwrap();
            for ((row, p), c) in data.features().iter().zip(&probas).zip(&classes) {
                assert_eq!(oracle.predict_proba(row).to_bits(), p.to_bits());
                assert_eq!(oracle.predict(row), *c);
            }
        }
    }

    #[test]
    fn engine_handles_duplicate_feature_values() {
        // Constant column plus a discrete column with heavy ties.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![1.0, (i % 3) as f64, (i % 5) as f64])
            .collect();
        let labels: Vec<bool> = (0..30).map(|i| i % 3 == 0).collect();
        let data = Dataset::new(rows, labels).unwrap();
        let config = RandomForestConfig {
            n_trees: 9,
            max_depth: 5,
            ..RandomForestConfig::default()
        };
        let reference = BoxedForest::fit(&data, &config, 3).to_flat();
        let set = TrainingSet::from_dataset(&data).unwrap();
        assert_eq!(train_forest(&set, &config, 3).unwrap(), reference);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn flat_forest_is_bit_identical_to_boxed_forest((rows, labels) in labeled_points(6..50), seed in 0u64..50) {
            let data = Dataset::new(rows.clone(), labels).unwrap();
            let config = RandomForestConfig { n_trees: 9, max_depth: 6, ..Default::default() };
            let forest = BoxedForest::fit(&data, &config, seed);
            let flat = forest.to_flat();
            prop_assert_eq!(flat.num_trees(), 9);

            let matrix: Vec<f64> = rows.iter().flatten().copied().collect();
            let probas = flat.predict_proba_batch(&matrix, 3).unwrap();
            let classes = flat.predict_batch(&matrix, 3).unwrap();
            for ((row, p), c) in rows.iter().zip(&probas).zip(&classes) {
                // Bit-identical probabilities: same traversals, same
                // accumulation order, compared through the raw IEEE-754
                // representation.
                prop_assert_eq!(forest.predict_proba(row).to_bits(), p.to_bits());
                prop_assert_eq!(flat.predict_proba(row).to_bits(), p.to_bits());
                prop_assert_eq!(forest.predict(row), *c);
            }
        }

        #[test]
        fn parallel_training_engine_is_bit_identical_to_sequential_fit(
            (rows, labels) in labeled_points(6..50),
            seed in 0u64..50,
            n_trees in 1usize..12,
            bootstrap_thirds in 1usize..4,
        ) {
            let data = Dataset::new(rows.clone(), labels.clone()).unwrap();
            let config = RandomForestConfig {
                n_trees,
                max_depth: 6,
                bootstrap_fraction: bootstrap_thirds as f64 / 3.0,
                ..Default::default()
            };
            // Sequential reference: the boxed per-tree fit compiled to flat form.
            let reference = BoxedForest::fit(&data, &config, seed).to_flat();
            // Engine: presorted columns, scratch-backed growth, parallel trees.
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let set = TrainingSet::from_rows(&flat, 3, &labels).unwrap();
            let engine = train_forest(&set, &config, seed).unwrap();
            prop_assert_eq!(&engine, &reference);
            for row in rows.iter().take(8) {
                prop_assert_eq!(
                    engine.predict_proba(row).to_bits(),
                    reference.predict_proba(row).to_bits()
                );
            }
        }

        #[test]
        fn presorted_split_finder_matches_seed_split_finder(
            (rows, labels) in labeled_points(8..60),
            seed in 0u64..30,
        ) {
            // A single tree over all features isolates the split finder:
            // every chosen (feature, threshold) pair of the presorted-column
            // scan must equal the oracle's per-node sort-and-scan choice.
            let data = Dataset::new(rows.clone(), labels.clone()).unwrap();
            let config = RandomForestConfig {
                n_trees: 1,
                max_depth: 5,
                max_features: Some(3),
                ..Default::default()
            };
            let reference = BoxedForest::fit(&data, &config, seed).to_flat();
            let flat: Vec<f64> = rows.iter().flatten().copied().collect();
            let set = TrainingSet::from_rows(&flat, 3, &labels).unwrap();
            let engine = train_forest(&set, &config, seed).unwrap();
            prop_assert_eq!(engine, reference);
        }
    }
}
