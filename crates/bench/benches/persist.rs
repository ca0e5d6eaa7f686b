//! Persistence benchmark: delta-journal appends vs full snapshots.
//!
//! Reproduces the self-learning loop's per-seizure Flash write at paper
//! scale: the training pool has accumulated windows from earlier missed
//! seizures, a new batch arrives (10 % of the pool) and the trainer's state
//! must be made durable. Two writes are compared:
//!
//! * **full**: what the loop paid before — `persist::trainer_to_bytes`
//!   re-serializes the whole O(pool) trainer after every retrain;
//! * **delta**: `persist::journal::JournalWriter::append_retrain` — one
//!   checksummed O(batch) entry appended after the base snapshot.
//!
//! Before any timing, `journal::replay(base, journal)` is asserted to
//! reconstruct the exact uninterrupted trainer (node-identical forest), and
//! the per-retrain delta write is asserted ≥5x smaller than the full
//! snapshot for the 10 % append. Results are printed and written to
//! `BENCH_persist.json` at the workspace root (skipped in `--quick` mode,
//! which the CI smoke job uses).
//!
//! Run with: `cargo bench -p seizure-bench --bench persist [-- --quick]`

use std::time::Instant;

use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{RichFeatureSet, SlidingWindowConfig};
use seizure_features::{FeatureMatrix, FeatureScratchPool};
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::incremental::{IncrementalTrainer, IncrementalTrainerConfig};
use seizure_ml::persist::journal::{replay, JournalWriter};
use seizure_ml::persist::trainer_to_bytes;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let fs = 256.0;
    let secs = if quick { 40.0 } else { 3600.0 };
    let reps = if quick { 2 } else { 10 };

    // Paper-scale pool, built exactly like the retrain bench's.
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

    let trainer_config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 30,
            max_depth: 8,
            ..RandomForestConfig::default()
        },
        block_size: 128,
    };
    let seed = 7;

    // The pool before the new batch (90 %) and the appended batch (10 %).
    let base_n = samples - samples / 10;
    let appended = samples - base_n;

    let mut trainer = IncrementalTrainer::new(trainer_config, seed);
    trainer
        .retrain(
            &rows[..base_n * num_features],
            num_features,
            &labels[..base_n],
        )
        .expect("base fit");
    let base = trainer_to_bytes(&trainer);
    let mut writer = JournalWriter::new(&base, trainer.num_samples()).expect("writer");
    trainer
        .retrain(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
        )
        .expect("append retrain");
    writer
        .append_retrain(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
        )
        .expect("journal append");
    let journal = writer.take_unflushed();
    let entry_bytes = journal.len();

    // Correctness gate: base + journal reconstruct the exact trainer, and a
    // replay costs one retrain, not a from-scratch fit.
    let replay_start = Instant::now();
    let replayed = replay(&base, &journal).expect("replay");
    let replay_time = replay_start.elapsed().as_secs_f64();
    assert_eq!(
        replayed.trainer, trainer,
        "journal replay diverged from the uninterrupted trainer"
    );
    assert_eq!(
        replayed.trainer.current_forest(),
        trainer.current_forest(),
        "replayed forest is not node-identical"
    );

    // --- Full path: re-serialize the whole pool after the retrain. ---
    let full_bytes = trainer_to_bytes(&trainer).len();
    let mut full_time = f64::INFINITY;
    for _ in 0..=reps {
        let start = Instant::now();
        let snapshot = trainer_to_bytes(&trainer);
        full_time = full_time.min(start.elapsed().as_secs_f64());
        assert_eq!(snapshot.len(), full_bytes);
    }

    // --- Delta path: one journal entry for the same batch. ---
    let mut delta_time = f64::INFINITY;
    for _ in 0..=reps {
        let mut w = JournalWriter::new(&base, base_n).expect("writer");
        let start = Instant::now();
        w.append_retrain(
            &rows[base_n * num_features..],
            num_features,
            &labels[base_n..],
        )
        .expect("journal append");
        delta_time = delta_time.min(start.elapsed().as_secs_f64());
        assert_eq!(w.len(), entry_bytes);
    }

    let write_reduction = full_bytes as f64 / entry_bytes as f64;
    println!(
        "persist bench ({samples} samples x {num_features} features, +{appended} appended, {} trees)",
        trainer_config.forest.n_trees
    );
    println!(
        "  full snapshot:  {:>9} bytes, {:>8.2} ms",
        full_bytes,
        1e3 * full_time
    );
    println!(
        "  journal append: {:>9} bytes, {:>8.2} ms ({write_reduction:.2}x smaller write)",
        entry_bytes,
        1e3 * delta_time
    );
    println!("  replay (base + 1 entry): {:>8.2} ms", 1e3 * replay_time);
    assert!(
        write_reduction >= 5.0,
        "a 10 % append must shrink the per-seizure write >=5x, got {write_reduction:.2}x"
    );

    if quick {
        println!("--quick: skipping BENCH_persist.json");
        return;
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"persist\",\n",
            "  \"samples\": {},\n",
            "  \"appended_samples\": {},\n",
            "  \"features\": {},\n",
            "  \"trees\": {},\n",
            "  \"full_snapshot_bytes\": {},\n",
            "  \"journal_entry_bytes\": {},\n",
            "  \"write_reduction\": {:.2},\n",
            "  \"full_snapshot_ms\": {:.3},\n",
            "  \"journal_append_ms\": {:.3},\n",
            "  \"replay_ms\": {:.2}\n",
            "}}\n"
        ),
        samples,
        appended,
        num_features,
        trainer_config.forest.n_trees,
        full_bytes,
        entry_bytes,
        write_reduction,
        1e3 * full_time,
        1e3 * delta_time,
        1e3 * replay_time,
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_persist.json");
    std::fs::write(&path, &json).expect("write BENCH_persist.json");
    println!("wrote {}", path.display());
}
