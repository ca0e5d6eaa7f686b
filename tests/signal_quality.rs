//! Cross-crate tests of the signal-quality front end: the gate must never
//! cost a detection on clean recordings, and its calibrated state must be as
//! crash-durable as the model it protects.

use proptest::prelude::*;
use selflearn_seizure::core::labeler::LabelerConfig;
use selflearn_seizure::core::pipeline::{LabelSource, SelfLearningPipeline};
use selflearn_seizure::core::realtime::{
    QualityGate, QualityVerdict, RealTimeDetector, RealTimeDetectorConfig,
};
use selflearn_seizure::data::cohort::Cohort;
use selflearn_seizure::data::sampler::SampleConfig;
use selflearn_seizure::data::signal::EegSignal;
use selflearn_seizure::data::synth::{degrade_signal, HostileScenario};
use selflearn_seizure::features::quality::{QualityExtractor, StreamingQuality};
use selflearn_seizure::features::{FeatureMatrix, SlidingWindowConfig};
use selflearn_seizure::ml::dataset::Dataset;
use selflearn_seizure::ml::forest::RandomForestConfig;
use selflearn_seizure::ml::persist::store::{FaultyFlash, FlashGeometry, FlashStore};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Safety invariant of the gate: on clean synthetic records — any
    /// patient, any seizure, any sampling draw — no window overlapping the
    /// annotated seizure is ever rejected. Rejecting artifacts must never
    /// cost a detection on a healthy signal.
    #[test]
    fn gate_never_rejects_an_annotated_seizure_window_on_clean_records(
        cohort_seed in 0u64..50,
        patient in 0usize..9,
        record_seed in 0u64..1000,
    ) {
        let cohort = Cohort::chb_mit_like(cohort_seed);
        let seizure = (record_seed as usize) % cohort.seizures_of(patient).unwrap().len();
        let config = SampleConfig::new(150.0, 200.0, 64.0).unwrap();
        let record = cohort
            .sample_record(patient, seizure, &config, record_seed)
            .unwrap();
        let signal = record.signal();
        let fs = signal.sampling_frequency();

        // The realtime detector's analysis grid: 4 s windows, 75 % overlap.
        let windows = SlidingWindowConfig::new(fs, 4.0, 0.75).unwrap();
        let extractor = QualityExtractor::new(fs).unwrap();
        let mut quality = FeatureMatrix::default();
        extractor
            .extract_batch_into(signal.f7t3(), signal.f8t4(), &windows, &mut quality)
            .unwrap();
        let mut verdicts = Vec::new();
        QualityGate::verdicts_into(&quality, &mut verdicts);

        let onset = record.annotation().onset();
        let offset = record.annotation().offset();
        let step_secs = windows.step_samples() as f64 / fs;
        let window_secs = windows.window_samples() as f64 / fs;
        let mut seizure_windows = 0;
        for (w, verdict) in verdicts.iter().enumerate() {
            let start = w as f64 * step_secs;
            let end = start + window_secs;
            if start < offset && end > onset {
                seizure_windows += 1;
                prop_assert_ne!(
                    *verdict,
                    QualityVerdict::Reject,
                    "window {} ([{:.1}, {:.1}] s) overlaps the seizure \
                     ([{:.1}, {:.1}] s) yet was rejected",
                    w, start, end, onset, offset
                );
            }
        }
        prop_assert!(seizure_windows > 0, "the annotation must cover windows");
    }
}

/// The calibrated gate reference travels with the detector snapshot: after a
/// power cut at any tested point of a store save, the rebooted device's gate
/// equals either the pre-save or the committed post-save calibration — never
/// a torn in-between or a silently reset default.
#[test]
fn gate_state_survives_save_crash_resume() {
    let cohort = Cohort::chb_mit_like(37);
    let config = SampleConfig::new(150.0, 200.0, 64.0).unwrap();
    let patient = 8;
    let w = cohort.average_seizure_duration(patient).unwrap();
    let detector_config = RealTimeDetectorConfig {
        forest: RandomForestConfig {
            n_trees: 8,
            max_depth: 6,
            ..RandomForestConfig::default()
        },
        ..RealTimeDetectorConfig::default()
    };
    let mut pipeline = SelfLearningPipeline::new(LabelerConfig::default(), detector_config);

    // Seizure 1 calibrates the gate and becomes the stored base.
    let first = cohort.sample_record(patient, 0, &config, 91).unwrap();
    pipeline
        .observe_missed_seizure(&first, w, LabelSource::Algorithm)
        .unwrap()
        .expect("clean record must pass the gate");
    let gate_before = pipeline.detector().quality_gate().clone();
    assert!(gate_before.calibration_weight() > 0.0);

    let base_len = pipeline.save().len();
    let geometry = FlashGeometry::for_base(base_len * 6, base_len * 4);
    let mut store = pipeline
        .init_store(FaultyFlash::new(geometry.total_bytes()), geometry)
        .unwrap();
    let image = store.flash().image().to_vec();
    let written_before = store.flash().bytes_written();
    let armed = pipeline.clone();

    // Fault-free pass: seizure 2 advances the calibration and appends.
    let second = cohort.sample_record(patient, 1, &config, 92).unwrap();
    pipeline
        .observe_missed_seizure(&second, w, LabelSource::Algorithm)
        .unwrap()
        .expect("clean record must pass the gate");
    pipeline.save_to_store(&mut store).unwrap();
    let gate_after = pipeline.detector().quality_gate().clone();
    assert_ne!(
        gate_after, gate_before,
        "the second record must advance the calibration"
    );
    let save_bytes = store.flash().bytes_written() - written_before;

    // Pull the plug at 1/4, 1/2 and 3/4 of that save's write stream.
    for quarter in 1..4 {
        let cut = save_bytes * quarter / 4;
        let flash = FaultyFlash::from_image(image.clone()).power_loss_after(cut);
        let mut live = armed.clone();
        let mut store = FlashStore::mount(flash, geometry).map(|(s, _)| s).unwrap();
        live.observe_missed_seizure(&second, w, LabelSource::Algorithm)
            .unwrap()
            .expect("clean record must pass the gate");
        assert!(
            live.save_to_store(&mut store).is_err(),
            "cut {cut} must kill the save"
        );
        let (store, _) = FlashStore::mount(store.into_flash().reboot(), geometry)
            .unwrap_or_else(|e| panic!("cut {cut}: store lost: {e}"));
        let (resumed, _) = SelfLearningPipeline::resume_from_store(&store)
            .unwrap_or_else(|e| panic!("cut {cut}: resume failed: {e}"));
        let gate = resumed.detector().quality_gate();
        assert!(
            *gate == gate_before || *gate == gate_after,
            "cut {cut}: recovered gate is neither the pre-save nor the \
             committed calibration"
        );
    }
}

/// The device's gate is the batch gate: streaming a record sample by sample
/// through a gated `StreamingDetector::push` yields, window for window, the
/// verdicts `QualityGate::verdicts_into` assigns to the record's
/// `extract_batch_into` quality matrix — on clean records, under every
/// hostile scenario and under the wander+hum overlay. Covers the paper
/// geometry at 256 Hz, where one-second chunk summaries are folded across
/// windows, and a half-second hop, where every window runs the window
/// kernel.
#[test]
fn streamed_verdicts_equal_the_batch_gate() {
    let fs = 256.0;
    let cohort = Cohort::chb_mit_like(23);
    let sample = SampleConfig::new(150.0, 200.0, fs).unwrap();
    let mut records: Vec<(String, EegSignal)> = Vec::new();
    for (i, patient) in [4usize, 8].into_iter().enumerate() {
        let record = cohort
            .sample_record(patient, 0, &sample, 40 + i as u64)
            .unwrap();
        records.push((format!("clean patient {patient}"), record.signal().clone()));
    }
    let base = records[0].1.clone();
    for (i, scenario) in HostileScenario::all().into_iter().enumerate() {
        let degraded = degrade_signal(&base, scenario, 1.0, 70 + i as u64).unwrap();
        records.push((scenario.name().to_string(), degraded));
    }
    let wander = degrade_signal(&base, HostileScenario::BaselineWander, 1.0, 80).unwrap();
    let overlay = degrade_signal(&wander, HostileScenario::MainsHum, 1.0, 81).unwrap();
    records.push(("baseline_wander+mains_hum".to_string(), overlay));

    // Any trained forest opens the device path; verdicts do not read it.
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| (0..54).map(|c| ((i * 7 + c) % 13) as f64).collect())
        .collect();
    let labels: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
    let training = Dataset::new(rows, labels).unwrap();

    for (window_secs, overlap, folds) in [(4.0, 0.75, true), (2.0, 0.75, false)] {
        let geometry = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        assert_eq!(StreamingQuality::new(&geometry).unwrap().folds(), folds);
        let mut detector = RealTimeDetector::new(RealTimeDetectorConfig {
            window_secs,
            overlap,
            forest: RandomForestConfig {
                n_trees: 4,
                max_depth: 4,
                ..RandomForestConfig::default()
            },
            ..RealTimeDetectorConfig::default()
        });
        detector.train(&training).unwrap();
        let mut device = detector.streaming(fs).unwrap();
        let batch = QualityExtractor::new(fs).unwrap();
        let mut quality = FeatureMatrix::default();
        let mut expected = Vec::new();
        let mut rejected = 0;
        for (name, signal) in &records {
            batch
                .extract_batch_into(signal.f7t3(), signal.f8t4(), &geometry, &mut quality)
                .unwrap();
            QualityGate::verdicts_into(&quality, &mut expected);
            device.reset();
            let mut streamed = Vec::new();
            for (&a, &b) in signal.f7t3().iter().zip(signal.f8t4()) {
                if let Some(detection) = device.push(a, b).unwrap() {
                    streamed.push(detection.verdict);
                }
            }
            assert_eq!(
                streamed, expected,
                "{name}: {window_secs} s windows, {overlap} overlap"
            );
            rejected += expected
                .iter()
                .filter(|v| **v == QualityVerdict::Reject)
                .count();
        }
        assert!(rejected > 0, "the hostile records must exercise Reject");
    }
}
