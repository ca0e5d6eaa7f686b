//! Retraining benchmark: incremental engine vs from-scratch forest fitting.
//!
//! Reproduces the self-learning loop's dominant cost: the training pool has
//! accumulated windows from earlier missed seizures, a new batch arrives
//! (≤ 10 % of the pool) and the forest must be retrained. Two paths are
//! compared at paper scale:
//!
//! * **scratch**: what the loop paid before — rebuild the `TrainingSet`
//!   (full per-feature presort) and refit every tree with `train_forest`;
//! * **incremental**: `IncrementalTrainer::retrain` — merge the new rows
//!   into the presorted columns and refit only the trees whose bootstrap
//!   pools the growth touched.
//!
//! Before any timing, the incrementally grown forest is asserted identical
//! (node for node, and on batch predictions) to a single-shot incremental
//! fit of the final pool. Results are printed and written to
//! `BENCH_retrain.json` at the workspace root (skipped in `--quick` mode,
//! which the CI smoke job uses).
//!
//! A **pool-size sweep** (≈8 k / 32 k / 131 k windows, fixed 10 % append)
//! then times the block-local retrain against the trainer's
//! `reference_loads` mode, where every refitted tree scans the *whole*
//! presorted pool — the O(pool) load path the block-run layout replaced.
//! Both modes must produce bit-identical forests. Two gates run in every
//! mode (including `--quick`, so CI holds the floor):
//!
//! * **flatness** — per-refit cost normalised per owned sample must not
//!   grow with pool size (the largest pool may cost at most
//!   `SWEEP_FLAT_LIMIT`× the smallest per sample);
//! * **speedup** — at the largest pool the owned-block path must beat the
//!   O(pool) reference by at least `SWEEP_SPEEDUP_FLOOR`×.
//!
//! Run with: `cargo bench -p seizure-bench --bench retrain [-- --quick]`

use std::time::Instant;

use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{RichFeatureSet, SlidingWindowConfig};
use seizure_features::{FeatureMatrix, FeatureScratchPool};
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::training::{train_forest, TrainingSet};

/// Largest-to-smallest spread allowed in per-owned-sample refit cost across
/// the sweep. The owned-block path loads O(pool / n_trees) samples per
/// refitted tree, so this ratio sits near 1 with scheduling noise on top;
/// the replaced O(pool) path would push it toward `n_trees`.
const SWEEP_FLAT_LIMIT: f64 = 4.0;
/// Minimum speedup of the owned-block path over `reference_loads` at the
/// largest sweep pool.
const SWEEP_SPEEDUP_FLOOR: f64 = 5.0;

/// Deterministic synthetic feature rows for the pool-size sweep: hashed
/// noise in every column plus a class offset on feature 0 so the forest
/// grows real splits. Row-major, `nf` features per sample.
fn sweep_rows(n: usize, nf: usize) -> (Vec<f64>, Vec<bool>) {
    let labels: Vec<bool> = (0..n).map(|i| (i / 16) % 2 == 0).collect();
    let mut rows = Vec::with_capacity(n * nf);
    for i in 0..n * nf {
        let mut x = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x243F_6A88_85A3_08D3;
        x ^= x >> 31;
        x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        x ^= x >> 33;
        let mut v = (x % 100_000) as f64 / 1_000.0;
        if i % nf == 0 && labels[i / nf] {
            v += 40.0;
        }
        rows.push(v);
    }
    (rows, labels)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fs = 256.0;
    let secs = if quick { 40.0 } else { 3600.0 };
    let reps = if quick { 2 } else { 5 };

    // Paper-scale pool: rich features of a synthetic record. Labels
    // alternate in record-sized runs so ownership blocks mix both classes,
    // like the pipeline's balanced per-record batches do.
    let (a, b) = synth_channels(secs, fs, 0x1357_9bdf_2468_acee);
    let cfg = SlidingWindowConfig::paper_default(fs).expect("paper config");
    let extractor = RichFeatureSet::new(fs).expect("extractor");
    let mut matrix = FeatureMatrix::default();
    extractor
        .extract_batch_into(&a, &b, &cfg, &FeatureScratchPool::new(), &mut matrix)
        .expect("features");
    let samples = matrix.num_windows();
    let num_features = matrix.num_features();
    let labels: Vec<bool> = (0..samples).map(|i| (i / 20) % 2 == 0).collect();
    let rows = matrix.data();

    let forest_config = RandomForestConfig {
        n_trees: 30,
        max_depth: 8,
        ..RandomForestConfig::default()
    };
    let trainer_config = IncrementalTrainerConfig {
        forest: forest_config,
        block_size: 128,
    };
    let seed = 7;

    // The pool before the new batch (90 %) and the appended batch (10 %).
    let base = samples - samples / 10;
    let appended = samples - base;

    // Correctness gate: growing the pool in two steps must equal the
    // single-shot fit of the final pool, node for node and on predictions.
    let mut grown = IncrementalTrainer::new(trainer_config, seed);
    grown
        .retrain(&rows[..base * num_features], num_features, &labels[..base])
        .expect("base fit");
    let grown_forest = grown
        .retrain(&rows[base * num_features..], num_features, &labels[base..])
        .expect("incremental retrain");
    let refit_trees = grown.last_refit_count();
    let mut single = IncrementalTrainer::new(trainer_config, seed);
    let single_forest = single
        .retrain(rows, num_features, &labels)
        .expect("single-shot fit");
    assert_eq!(
        grown_forest, single_forest,
        "incremental retraining diverged from the from-scratch fit"
    );
    assert_eq!(
        grown_forest.predict_batch(rows, num_features).unwrap(),
        single_forest.predict_batch(rows, num_features).unwrap(),
        "prediction mismatch between incremental and from-scratch forests"
    );

    // --- Scratch path: full presort + full refit (what the loop paid). ---
    let mut scratch_time = f64::INFINITY;
    for _ in 0..=reps {
        let start = Instant::now();
        let set = TrainingSet::from_rows(rows, num_features, &labels).expect("training set");
        let forest = train_forest(&set, &forest_config, seed).expect("scratch forest");
        scratch_time = scratch_time.min(start.elapsed().as_secs_f64());
        assert_eq!(forest.num_trees(), forest_config.n_trees);
    }

    // --- Incremental path: append 10 % to the warm 90 % pool. ---
    let mut warm = IncrementalTrainer::new(trainer_config, seed);
    warm.retrain(&rows[..base * num_features], num_features, &labels[..base])
        .expect("warm fit");
    let mut incremental_time = f64::INFINITY;
    for _ in 0..=reps {
        let mut trainer = warm.clone();
        let start = Instant::now();
        let forest = trainer
            .retrain(&rows[base * num_features..], num_features, &labels[base..])
            .expect("incremental retrain");
        incremental_time = incremental_time.min(start.elapsed().as_secs_f64());
        assert_eq!(forest.num_trees(), forest_config.n_trees);
    }

    let speedup = scratch_time / incremental_time;
    let threads = seizure_parallel::num_threads();
    println!(
        "retrain bench ({samples} samples x {num_features} features, +{appended} appended, {} trees, {threads} thread(s))",
        forest_config.n_trees
    );
    println!(
        "  scratch refit (full train_forest): {:>8.1} ms",
        1e3 * scratch_time
    );
    println!(
        "  incremental retrain:               {:>8.1} ms ({refit_trees}/{} trees refitted, {speedup:.2}x)",
        1e3 * incremental_time,
        forest_config.n_trees
    );

    // --- Pool-size sweep: block-local loads vs the O(pool) reference. ---
    let sweep_sizes: [usize; 3] = [8192, 32_768, 131_072];
    let sweep_nf = 8;
    let sweep_reps = if quick { 1 } else { 4 };
    let n_trees = forest_config.n_trees;
    println!(
        "pool sweep ({sweep_nf} features, 10% append, {} trees, block {}):",
        n_trees, trainer_config.block_size
    );
    let mut sweep = Vec::new();
    for &pool in &sweep_sizes {
        let (rows, labels) = sweep_rows(pool, sweep_nf);
        let base = pool - pool / 10;
        let appended = pool - base;
        let mut warm = IncrementalTrainer::new(trainer_config, seed);
        warm.retrain(&rows[..base * sweep_nf], sweep_nf, &labels[..base])
            .expect("sweep warm fit");

        // Owned-block path: refitted trees load only the blocks they own.
        let mut owned_time = f64::INFINITY;
        let mut refit_trees = 0;
        let mut owned_forest = None;
        for _ in 0..=sweep_reps {
            let mut trainer = warm.clone();
            let start = Instant::now();
            let forest = trainer
                .retrain(&rows[base * sweep_nf..], sweep_nf, &labels[base..])
                .expect("sweep retrain");
            owned_time = owned_time.min(start.elapsed().as_secs_f64());
            refit_trees = trainer.last_refit_count();
            owned_forest = Some(forest);
        }

        // Reference path: same trees, same draws, same forest — but every
        // refitted tree selects the whole presorted pool, the load cost the
        // global flat order forced on every refit.
        let mut reference_time = f64::INFINITY;
        let mut reference_forest = None;
        for _ in 0..=sweep_reps {
            let mut trainer = warm.clone();
            trainer.set_reference_loads(true);
            let start = Instant::now();
            let forest = trainer
                .retrain(&rows[base * sweep_nf..], sweep_nf, &labels[base..])
                .expect("sweep reference retrain");
            reference_time = reference_time.min(start.elapsed().as_secs_f64());
            reference_forest = Some(forest);
        }
        assert_eq!(
            owned_forest, reference_forest,
            "owned-block loads diverged from whole-pool reference loads at pool {pool}"
        );

        // Per-refit cost normalised by the samples a refitted tree owns
        // (pool / n_trees): flat when loads are block-local, growing
        // linearly in pool when they are not.
        let owned_samples = refit_trees as f64 * pool as f64 / n_trees as f64;
        let ns_per_owned_sample = 1e9 * owned_time / owned_samples;
        let speedup = reference_time / owned_time;
        println!(
            "  pool {pool:>6}: owned {:>8.2} ms  reference {:>8.2} ms  ({refit_trees}/{n_trees} trees, {:.1} ns/owned sample, {speedup:.2}x)",
            1e3 * owned_time,
            1e3 * reference_time,
            ns_per_owned_sample
        );
        sweep.push((
            pool,
            appended,
            refit_trees,
            owned_time,
            reference_time,
            ns_per_owned_sample,
            speedup,
        ));
    }

    // CI floor: per-refit cost stays ~flat per owned sample across the
    // sweep, and the largest pool beats the O(pool) reference path.
    let first_ns = sweep.first().expect("sweep ran").5;
    let last = sweep.last().expect("sweep ran");
    assert!(
        last.5 <= SWEEP_FLAT_LIMIT * first_ns,
        "per-refit cost is not flat: {:.1} ns/owned sample at pool {} vs {:.1} at pool {} (limit {SWEEP_FLAT_LIMIT}x)",
        last.5,
        last.0,
        first_ns,
        sweep[0].0,
    );
    assert!(
        last.6 >= SWEEP_SPEEDUP_FLOOR,
        "owned-block loads only {:.2}x faster than the O(pool) reference at pool {} (floor {SWEEP_SPEEDUP_FLOOR}x)",
        last.6,
        last.0,
    );

    if quick {
        println!("--quick: skipping BENCH_retrain.json");
        return;
    }
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|(pool, appended, refits, owned, reference, ns, speedup)| {
            format!(
                concat!(
                    "    {{\n",
                    "      \"pool_samples\": {},\n",
                    "      \"appended_samples\": {},\n",
                    "      \"refitted_trees\": {},\n",
                    "      \"owned_block_retrain_ms\": {:.3},\n",
                    "      \"reference_pool_retrain_ms\": {:.3},\n",
                    "      \"ns_per_owned_sample\": {:.1},\n",
                    "      \"speedup_vs_pool_loads\": {:.2}\n",
                    "    }}"
                ),
                pool,
                appended,
                refits,
                1e3 * owned,
                1e3 * reference,
                ns,
                speedup,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"retrain\",\n",
            "  \"samples\": {},\n",
            "  \"appended_samples\": {},\n",
            "  \"features\": {},\n",
            "  \"trees\": {},\n",
            "  \"refitted_trees\": {},\n",
            "  \"threads\": {},\n",
            "  \"scratch_retrain_ms\": {:.2},\n",
            "  \"incremental_retrain_ms\": {:.2},\n",
            "  \"speedup\": {:.2},\n",
            "  \"pool_sweep\": [\n{}\n  ]\n",
            "}}\n"
        ),
        samples,
        appended,
        num_features,
        forest_config.n_trees,
        refit_trees,
        threads,
        1e3 * scratch_time,
        1e3 * incremental_time,
        speedup,
        sweep_json.join(",\n"),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_retrain.json");
    std::fs::write(&path, &json).expect("write BENCH_retrain.json");
    println!("wrote {}", path.display());
}
