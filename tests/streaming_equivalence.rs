//! Streaming-vs-batch equivalence of the hop-structured feature extraction.
//!
//! The batch extractor is the bit-exact reference; the streaming extractor
//! must reproduce it per the documented error model: band powers (in exact
//! spectral mode), zero crossings, peak-to-peak, permutation entropies and
//! wavelet Shannon entropies bitwise, everything else within
//! `1e-7 · (1 + |batch|)` of floating-point re-association slack — across
//! random cohorts, hostile degradations and window geometries, down to the
//! sample-at-a-time `push()` front end.

use proptest::prelude::*;
use selflearn_seizure::core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
use selflearn_seizure::core::SeizureLabel;
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::extractor::{RichFeatureSet, SlidingWindowConfig};
use selflearn_seizure::features::streaming::StreamingRichExtractor;
use selflearn_seizure::features::{FeatureMatrix, FeatureScratchPool};

/// The batch extractor's matrix of a record.
fn batch_matrix(fs: f64, a: &[f64], b: &[f64], config: &SlidingWindowConfig) -> FeatureMatrix {
    let mut matrix = FeatureMatrix::default();
    RichFeatureSet::new(fs)
        .unwrap()
        .extract_batch_into(a, b, config, &FeatureScratchPool::new(), &mut matrix)
        .unwrap();
    matrix
}

/// Relative tolerance of the bounded-error columns (merged vs two-pass
/// moments); observed slack is ~1e-12, the bound leaves two orders of room.
const BOUNDED_TOL: f64 = 1e-7;

/// Per-channel feature columns that must match bit for bit in exact
/// spectral mode: the 11 band-power slots, zero crossings (20),
/// peak-to-peak (21), both permutation entropies (22–23) and the three
/// wavelet Shannon entropies (24–26).
fn is_exact_column(channel_col: usize) -> bool {
    channel_col < 11 || (20..=26).contains(&channel_col)
}

fn assert_equivalent(streaming: &FeatureMatrix, batch: &FeatureMatrix, context: &str) {
    assert_eq!(streaming.num_windows(), batch.num_windows(), "{context}");
    assert_eq!(streaming.num_features(), batch.num_features(), "{context}");
    let per_channel = batch.num_features() / 2;
    for w in 0..batch.num_windows() {
        for c in 0..batch.num_features() {
            let s = streaming.get(w, c);
            let b = batch.get(w, c);
            let channel_base = (c / per_channel) * per_channel;
            // Skewness and kurtosis are ill-conditioned when the window's
            // variance underflows relative to its power (a dropout holding
            // one constant: both paths standardize pure rounding dust, and
            // the sign of that dust is not meaningful). The documented error
            // model excludes them there; everything else still holds.
            let variance = batch.get(w, channel_base + 12);
            let rms = batch.get(w, channel_base + 15);
            let degenerate = variance <= 1e-16 * (1.0 + rms * rms);
            if degenerate && (c % per_channel == 13 || c % per_channel == 14) {
                assert!(s.is_finite(), "{context}: window {w} column {c} not finite");
                continue;
            }
            if is_exact_column(c % per_channel) {
                assert!(
                    s == b || (s.is_nan() && b.is_nan()),
                    "{context}: window {w} column {c} must be bit-exact, \
                     streaming {s} vs batch {b}"
                );
            } else {
                assert!(
                    (s - b).abs() <= BOUNDED_TOL * (1.0 + b.abs()),
                    "{context}: window {w} column {c} out of bound, \
                     streaming {s} vs batch {b}"
                );
            }
        }
    }
}

fn synth_channel(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    (0..n)
        .map(|i| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let noise = (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
            (i as f64 * 0.031).sin() + 0.7 * (i as f64 * 0.149).cos() + 0.4 * noise
        })
        .collect()
}

/// The streamable geometries the suite sweeps: the paper default plus
/// shorter windows, a lower rate and a 50 % overlap.
const GEOMETRIES: [(f64, f64, f64); 4] = [
    (256.0, 4.0, 0.75),
    (256.0, 2.0, 0.75),
    (64.0, 4.0, 0.75),
    (256.0, 2.0, 0.5),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random signals, every streamable geometry: the record-level streaming
    /// sweep reproduces the batch matrix per the error model.
    #[test]
    fn streaming_matches_batch_on_random_signals(
        seed in 0u64..10_000,
        extra_hops in 0usize..10,
        geometry in 0usize..GEOMETRIES.len(),
    ) {
        let (fs, window_secs, overlap) = GEOMETRIES[geometry];
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let n = config.window_samples() + extra_hops * config.step_samples();
        let a = synth_channel(n, seed);
        let b = synth_channel(n, seed ^ 0xABCD);
        let batch = batch_matrix(fs, &a, &b, &config);
        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        let mut matrix = FeatureMatrix::default();
        streaming.extract_batch_into(&a, &b, &mut matrix).unwrap();
        assert_equivalent(
            &matrix,
            &batch,
            &format!("seed {seed}, {extra_hops} extra hops, geometry {geometry}"),
        );
    }

    /// Feeding `push_hop` one hop at a time (reusing one extractor across
    /// consecutive records without reconstruction) is bitwise identical to
    /// the record-level driver.
    #[test]
    fn hop_by_hop_push_is_bitwise_identical_to_the_record_driver(
        seed in 0u64..10_000,
        extra_hops in 1usize..8,
    ) {
        let config = SlidingWindowConfig::paper_default(256.0).unwrap();
        let hop = config.step_samples();
        let n = config.window_samples() + extra_hops * hop;
        let a = synth_channel(n, seed.wrapping_add(17));
        let b = synth_channel(n, seed.wrapping_add(18));
        let mut reference = StreamingRichExtractor::new(&config).unwrap();
        let expected = reference.extract_batch(&a, &b).unwrap();

        let mut streaming = StreamingRichExtractor::new(&config).unwrap();
        // A burned prior record: reset semantics must fully isolate it.
        let burn = synth_channel(config.window_samples() + hop, !seed);
        streaming.extract_batch(&burn, &burn).unwrap();
        streaming.reset();

        let mut row = vec![0.0; streaming.num_features()];
        let mut produced = 0usize;
        for h in 0..n / hop {
            let s = h * hop;
            if streaming.push_hop(&a[s..s + hop], &b[s..s + hop], &mut row).unwrap() {
                prop_assert_eq!(row.as_slice(), expected.row(produced));
                produced += 1;
            }
        }
        prop_assert_eq!(produced, expected.num_windows());
    }
}

/// Every hostile scenario at three severities: artifact-dominated signals
/// (rail clipping, dropouts, pops, wander) stay inside the error model.
#[test]
fn streaming_survives_hostile_scenarios_within_the_error_model() {
    let cohort = Cohort::chb_mit_like(5);
    let sample = SampleConfig::new(180.0, 220.0, 64.0).unwrap();
    let record = cohort.sample_record(2, 0, &sample, 40).unwrap();
    let fs = record.signal().sampling_frequency();
    let config = SlidingWindowConfig::paper_default(fs).unwrap();
    let mut streaming = StreamingRichExtractor::new(&config).unwrap();
    let mut matrix = FeatureMatrix::default();
    for scenario in HostileScenario::all() {
        for severity in [0.25, 0.6, 1.0] {
            let degraded = degrade_signal(record.signal(), scenario, severity, 99).unwrap();
            let batch = batch_matrix(fs, degraded.f7t3(), degraded.f8t4(), &config);
            streaming
                .extract_batch_into(degraded.f7t3(), degraded.f8t4(), &mut matrix)
                .unwrap();
            assert_equivalent(
                &matrix,
                &batch,
                &format!("{} at severity {severity}", scenario.name()),
            );
        }
    }
}

/// The full sample-at-a-time path: a trained detector streamed one sample
/// pair per tick agrees with its own batch `detect` on clean and degraded
/// records (the gate is uncalibrated, so no record-level gain correction
/// separates the two paths).
#[test]
fn sample_at_a_time_push_matches_batch_detect() {
    let cohort = Cohort::chb_mit_like(3);
    let sample = SampleConfig::new(60.0, 100.0, 64.0).unwrap();
    let record = cohort.sample_record(8, 0, &sample, 5).unwrap();
    let truth =
        SeizureLabel::new(record.annotation().onset(), record.annotation().offset()).unwrap();
    let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
    let training = detector
        .build_training_windows(record.signal(), &truth)
        .unwrap();
    detector.train(&training).unwrap();

    let probe = cohort.sample_record(8, 1, &sample, 6).unwrap();
    let degraded = degrade_signal(probe.signal(), HostileScenario::MainsHum, 0.8, 123).unwrap();
    for signal in [probe.signal(), &degraded] {
        let batch = detector.detect(signal).unwrap();
        let mut streaming = detector.streaming(signal.sampling_frequency()).unwrap();
        let mut alarms = Vec::new();
        for (&a, &b) in signal.f7t3().iter().zip(signal.f8t4().iter()) {
            if let Some(detection) = streaming.push(a, b).unwrap() {
                assert_eq!(detection.window_index, alarms.len());
                alarms.push(detection.alarm);
            }
        }
        assert_eq!(alarms, batch);
    }
}
