//! End-to-end inference benchmark: batch engine vs streaming.
//!
//! Measures windows/second for the full hot path of the real-time detector —
//! sliding-window rich-feature extraction followed by random-forest
//! classification — in two configurations:
//!
//! * **batch**: `RichFeatureSet::extract_batch_into` into a fresh matrix
//!   through a fresh scratch pool (flat matrix, per-thread scratch, parallel
//!   windows) + `FlatForest::predict_proba_batch` over the flat buffer;
//! * **streaming**: `StreamingRichExtractor::extract_batch_into` — the
//!   hop-structured path that carries moments, ordinal pattern tables and
//!   wavelet coefficients across the 75 % window overlap instead of
//!   recomputing each window from scratch — plus the same flat forest.
//!
//! Results are printed and written to `BENCH_inference.json` at the
//! workspace root.
//!
//! Run with: `cargo bench -p seizure-bench --bench inference`
//!
//! Pass `--quick` (the CI smoke gate) for a shortened signal and rep count
//! that still asserts streaming-vs-batch probability equivalence and a
//! conservative streaming speedup floor, without rewriting the JSON.

use std::time::Instant;

use seizure_bench::synth::synth_channels;
use seizure_features::extractor::{RichFeatureSet, SlidingWindowConfig};
use seizure_features::streaming::StreamingRichExtractor;
use seizure_features::{FeatureMatrix, FeatureScratchPool};
use seizure_ml::forest::RandomForestConfig;
use seizure_ml::training::{train_forest, TrainingSet};

/// Best-of-`reps` wall time of `f`, after one warmup run.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut result = f(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        result = f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    (best, result)
}

/// The batch engine's matrix of a record, built the way a one-off caller
/// builds it: a fresh matrix and a fresh scratch pool per record.
fn batch_matrix(
    extractor: &RichFeatureSet,
    a: &[f64],
    b: &[f64],
    cfg: &SlidingWindowConfig,
) -> FeatureMatrix {
    let mut matrix = FeatureMatrix::default();
    extractor
        .extract_batch_into(a, b, cfg, &FeatureScratchPool::new(), &mut matrix)
        .expect("batch features");
    matrix
}

fn main() {
    let quick = std::env::args().any(|arg| arg == "--quick");
    let fs = 256.0;
    let secs = if quick { 24.0 } else { 120.0 };
    let reps = if quick { 2 } else { 5 };
    let (a, b) = synth_channels(secs, fs, 0x1234_5678_9abc_def0);
    let cfg = SlidingWindowConfig::paper_default(fs).expect("paper config");
    let extractor = RichFeatureSet::new(fs).expect("extractor");
    let windows = cfg.num_windows(a.len());

    // Train a forest on the record's own features with a synthetic seizure
    // band so both classes are present (the band scales with the signal so
    // `--quick`'s short record still trains).
    let matrix = batch_matrix(&extractor, &a, &b, &cfg);
    let seizure_band = windows / 3..windows / 3 + windows / 4;
    let labels: Vec<bool> = (0..windows).map(|i| seizure_band.contains(&i)).collect();
    let set = TrainingSet::from_rows(matrix.data(), matrix.num_features(), &labels)
        .expect("training set");
    let forest_config = RandomForestConfig {
        n_trees: 30,
        max_depth: 8,
        ..RandomForestConfig::default()
    };
    let flat = train_forest(&set, &forest_config, 7).expect("forest");

    // --- End-to-end: batch engine (flat matrix + flat forest). ---
    let (batch_time, batch_probas) = best_of(reps, || {
        let m = batch_matrix(&extractor, &a, &b, &cfg);
        flat.predict_proba_batch(m.data(), m.num_features())
            .expect("batch probas")
    });

    // --- End-to-end: streaming engine (hop-structured recompute
    // elimination + flat forest), steady-state buffers reused across reps.
    let mut stream = StreamingRichExtractor::new(&cfg).expect("streaming extractor");
    let mut stream_matrix = FeatureMatrix::default();
    let mut streaming_probas: Vec<f64> = Vec::new();
    let (streaming_time, _) = best_of(reps, || {
        stream
            .extract_batch_into(&a, &b, &mut stream_matrix)
            .expect("streaming features");
        flat.predict_proba_batch_into(
            stream_matrix.data(),
            stream_matrix.num_features(),
            &mut streaming_probas,
        )
        .expect("streaming probas");
    });

    assert_eq!(streaming_probas.len(), batch_probas.len());
    for (s, p) in streaming_probas.iter().zip(batch_probas.iter()) {
        assert!(
            (s - p).abs() < 1e-6,
            "streaming path diverged from batch path: {s} vs {p}"
        );
    }

    let batch_wps = windows as f64 / batch_time;
    let streaming_wps = windows as f64 / streaming_time;
    let streaming_speedup = streaming_wps / batch_wps;
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    println!("inference bench ({windows} windows, {secs} s at {fs} Hz, {threads} thread(s))");
    println!(
        "  end-to-end batch path:  {batch_wps:>10.1} windows/s ({:.3} ms/window)",
        1e3 * batch_time / windows as f64
    );
    println!(
        "  end-to-end streaming:   {streaming_wps:>10.1} windows/s ({:.3} ms/window)",
        1e3 * streaming_time / windows as f64
    );
    println!("  streaming vs batch:     {streaming_speedup:>10.2}x");

    if quick {
        // CI smoke gate: probability equivalence was asserted above; the
        // speedup floor is deliberately conservative (a one-thread full run
        // measures ~4x; more threads narrow it, since only batch fans
        // windows out) so a loaded CI worker doesn't flake the build.
        assert!(
            streaming_speedup >= 1.2,
            "streaming gate: expected at least a 1.2x end-to-end win over the \
             batch path even on a short signal, measured {streaming_speedup:.2}x"
        );
        println!("quick gate passed (streaming {streaming_speedup:.2}x batch, probas within 1e-6)");
        return;
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"inference\",\n",
            "  \"signal_seconds\": {:.1},\n",
            "  \"sampling_hz\": {:.1},\n",
            "  \"windows\": {},\n",
            "  \"threads\": {},\n",
            "  \"batch_windows_per_sec\": {:.1},\n",
            "  \"streaming\": {{\n",
            "    \"windows_per_sec\": {:.1},\n",
            "    \"speedup_vs_batch\": {:.2}\n",
            "  }}\n",
            "}}\n"
        ),
        secs, fs, windows, threads, batch_wps, streaming_wps, streaming_speedup,
    );
    // cargo runs benches with the package directory as cwd; anchor the
    // result file at the workspace root.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_inference.json");
    std::fs::write(&path, &json).expect("write BENCH_inference.json");
    println!("wrote {}", path.display());
}
