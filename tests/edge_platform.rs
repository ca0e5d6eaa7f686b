//! Integration test: the edge-platform model reproduces the paper's §VI-C
//! numbers (Table III, Fig. 5 and the lifetime ranges) end to end.

use selflearn_seizure::edge::energy::{EnergyModel, OperatingMode};
use selflearn_seizure::edge::memory::MemoryModel;
use selflearn_seizure::edge::platform::PlatformSpec;
use selflearn_seizure::edge::timing::TimingModel;
use selflearn_seizure::ml::forest::RandomForestConfig;
use selflearn_seizure::ml::persist::trainer_to_bytes;
use selflearn_seizure::ml::training::{IncrementalTrainer, IncrementalTrainerConfig};

#[test]
fn table_iii_is_reproduced() {
    let model = EnergyModel::new(PlatformSpec::stm32l151_default());
    let report = model.lifetime(OperatingMode::Combined, 1.0).unwrap();
    let tasks = report.tasks().tasks();

    // Row order and values of Table III (worst case, one seizure per day).
    assert_eq!(tasks[0].name, "EEG Acquisition (x2)");
    assert!((tasks[0].current_ma - 0.870).abs() < 1e-9);
    assert!((tasks[0].duty_cycle - 1.0).abs() < 1e-9);

    assert_eq!(tasks[1].name, "EEG Sup. Detection");
    assert!((tasks[1].current_ma - 10.5).abs() < 1e-9);
    assert!((tasks[1].duty_cycle - 0.75).abs() < 1e-9);
    assert!((tasks[1].average_current_ma() - 7.875).abs() < 1e-9);

    assert_eq!(tasks[2].name, "EEG Labeling");
    assert!((tasks[2].duty_cycle - 0.0417).abs() < 5e-4);
    assert!((tasks[2].average_current_ma() - 0.438).abs() < 5e-3);

    assert_eq!(tasks[3].name, "Idle");
    assert!((tasks[3].duty_cycle - 0.2083).abs() < 5e-4);

    // Bottom line: 2.59 days.
    assert!((report.lifetime_days() - 2.59).abs() < 0.02);
}

#[test]
fn figure_five_energy_shares_are_reproduced() {
    let model = EnergyModel::new(PlatformSpec::stm32l151_default());
    let report = model.lifetime(OperatingMode::Combined, 1.0).unwrap();
    let pct = report.energy_percentages();
    // Supervised detection dominates, labeling is a small extra cost.
    assert!((pct[0] - 9.47).abs() < 0.3);
    assert!((pct[1] - 85.72).abs() < 0.3);
    assert!((pct[2] - 4.77).abs() < 0.3);
    assert!(pct[3] < 0.1);
    assert!(pct[1] > 10.0 * pct[2]);
}

#[test]
fn lifetime_ranges_match_section_vi_c() {
    let model = EnergyModel::new(PlatformSpec::stm32l151_default());

    // Labeling only: 631.46 h .. 430.16 h for one seizure per month .. per day.
    let monthly = model
        .lifetime(OperatingMode::LabelingOnly, 1.0 / 30.0)
        .unwrap();
    let daily = model.lifetime(OperatingMode::LabelingOnly, 1.0).unwrap();
    assert!((monthly.lifetime_hours() - 631.46).abs() / 631.46 < 0.02);
    assert!((daily.lifetime_hours() - 430.16).abs() / 430.16 < 0.02);

    // Detection only: 65.15 h (2.71 days).
    let detection = model.lifetime(OperatingMode::DetectionOnly, 0.0).unwrap();
    assert!((detection.lifetime_hours() - 65.15).abs() / 65.15 < 0.02);

    // Combined: 2.71 .. 2.59 days.
    let combined_monthly = model.lifetime(OperatingMode::Combined, 1.0 / 30.0).unwrap();
    let combined_daily = model.lifetime(OperatingMode::Combined, 1.0).unwrap();
    assert!((combined_monthly.lifetime_days() - 2.71).abs() < 0.02);
    assert!((combined_daily.lifetime_days() - 2.59).abs() < 0.02);
}

#[test]
fn memory_and_timing_claims_hold_on_the_platform() {
    let spec = PlatformSpec::stm32l151_default();

    // One hour of buffered data needs 240 KB and fits the 384 KB Flash.
    let budget = MemoryModel::new(spec).budget(3600.0).unwrap();
    assert_eq!(budget.history_bytes, 240 * 1024);
    assert!(budget.fits_flash);
    assert!(budget.fits_ram);

    // The labeling pass over one hour stays within the same order of magnitude
    // as real time (the paper: one second of signal per second of processing).
    let timing = TimingModel::new(spec);
    let cost = timing.labeling_cost(3600.0, 60.0, 10).unwrap();
    assert!(cost.seconds_per_signal_second < 2.0);
    // And the real-time detector's duty cycle is the 75 % used in Table III.
    assert!((timing.detection_duty_cycle() - 0.75).abs() < 1e-12);
}

/// The edge memory model's snapshot-size formula must agree byte for byte
/// with what `seizure-ml`'s persistence codec actually emits, for the empty
/// pool and for fitted trainers alike — otherwise the Flash budgeting the
/// wearable plans its power cycles around would drift from reality.
#[test]
fn snapshot_size_formula_matches_the_real_codec() {
    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 5,
            max_depth: 5,
            ..RandomForestConfig::default()
        },
        block_size: 16,
    };

    let empty = IncrementalTrainer::new(config, 9);
    assert_eq!(
        trainer_to_bytes(&empty).len(),
        memory.trainer_snapshot_bytes(0, 0, 0, 0)
    );

    let mut trainer = IncrementalTrainer::new(config, 9);
    let n = 300;
    let rows: Vec<f64> = (0..n * 2)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 7.0)
        .collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    trainer.retrain(&rows, 2, &labels).unwrap();
    let total_nodes: usize = trainer.current_forest().unwrap().num_nodes();
    assert_eq!(
        trainer_to_bytes(&trainer).len(),
        memory.trainer_snapshot_bytes(n, 2, 5, total_nodes)
    );

    // And a few-seizure personalized pool (the paper trains on 2-5 balanced
    // seizures, ~256 windows of 54 features, 30 trees) fits the 384 KB Flash
    // alongside a 20-minute history buffer — exactly the budgeting question
    // a self-learning wearable has to answer before committing to
    // persistence. A much larger pool visibly does not, so the model can
    // also tell the device when to stop growing on-flash state.
    let few_seizures = memory.trainer_snapshot_bytes(256, 54, 30, 30 * 128);
    let budget = memory.budget_with_snapshot(1200.0, few_seizures).unwrap();
    assert!(budget.fits_flash, "{} bytes", budget.history_bytes);
    let oversized = memory.trainer_snapshot_bytes(2048, 54, 30, 30 * 256);
    assert!(
        !memory
            .budget_with_snapshot(1200.0, oversized)
            .unwrap()
            .fits_flash
    );
}

/// The edge memory model's block-run order pricing must agree byte for byte
/// with the RAM `seizure-ml`'s `TrainingSet` actually holds for its
/// presorted runs — fresh pools, grown pools and incremental-trainer pools
/// alike — and the old flat-u32 layout must price at exactly twice that,
/// documenting what the block-run refactor bought.
#[test]
fn block_run_order_pricing_matches_the_real_training_set() {
    use selflearn_seizure::ml::training::TrainingSet;

    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());

    // A fresh pool (any run-block partitioning prices identically: the runs
    // hold one u16 per sample per feature, bases are closed-form).
    let n = 300;
    let nf = 2;
    let rows: Vec<f64> = (0..n * nf)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 7.0)
        .collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let mut set = TrainingSet::from_rows(&rows, nf, &labels).unwrap();
    assert_eq!(set.order_bytes(), memory.block_run_order_bytes(n, nf));

    // Growth reprices linearly in the appended samples.
    set.append_rows(&rows, &labels).unwrap();
    assert_eq!(set.order_bytes(), memory.block_run_order_bytes(2 * n, nf));

    // An incremental trainer's pool (ownership-block-aligned runs) prices
    // the same way.
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 5,
            max_depth: 5,
            ..RandomForestConfig::default()
        },
        block_size: 16,
    };
    let mut trainer = IncrementalTrainer::new(config, 9);
    trainer.retrain(&rows, nf, &labels).unwrap();
    assert_eq!(
        trainer.training_set().unwrap().order_bytes(),
        memory.block_run_order_bytes(n, nf)
    );

    // The paper-scale pool: the flat u32 layout cost exactly twice the
    // block runs, so the refactor halves the order RAM of every pool.
    assert_eq!(
        memory.flat_order_bytes(2048, 54),
        2 * memory.block_run_order_bytes(2048, 54)
    );
    assert_eq!(memory.block_run_order_bytes(2048, 54), 2 * 2048 * 54);
}

/// The edge memory model's journal-entry formula must agree byte for byte
/// with what the delta journal actually appends — with and without an
/// annotation — so the per-seizure Flash budgeting matches the write the
/// device performs.
#[test]
fn journal_entry_size_formula_matches_the_real_codec() {
    use selflearn_seizure::ml::persist::journal::JournalWriter;

    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());
    let config = IncrementalTrainerConfig {
        forest: RandomForestConfig {
            n_trees: 5,
            max_depth: 5,
            ..RandomForestConfig::default()
        },
        block_size: 16,
    };
    let mut trainer = IncrementalTrainer::new(config, 9);
    let n = 120;
    let rows: Vec<f64> = (0..n * 2)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 7.0)
        .collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    trainer.retrain(&rows, 2, &labels).unwrap();

    let base = trainer_to_bytes(&trainer);
    let mut writer = JournalWriter::new(&base, n).unwrap();

    // A plain retrain entry (detector-level: no annotation).
    let batch = 33;
    let batch_rows: Vec<f64> = (0..batch * 2).map(|i| i as f64).collect();
    let batch_labels: Vec<bool> = (0..batch).map(|i| i % 2 == 0).collect();
    writer
        .append_retrain(&batch_rows, 2, &batch_labels)
        .unwrap();
    assert_eq!(writer.len(), memory.journal_entry_bytes(batch, 2, 0));

    // A pipeline-level entry annotating the 40-byte produced label + gate
    // calibration block.
    let before = writer.len();
    writer
        .append_with(&batch_rows, 2, &batch_labels, &[0u8; 40])
        .unwrap();
    assert_eq!(
        writer.len() - before,
        memory.journal_entry_bytes(batch, 2, 40)
    );

    // Budget sanity at paper scale: a 10 % batch append is an order of
    // magnitude below the full snapshot it replaces.
    let full = memory.trainer_snapshot_bytes(4096, 54, 30, 30 * 200);
    let entry = memory.journal_entry_bytes(410, 54, 40);
    assert!(entry * 5 < full, "entry {entry} vs full {full}");
}

/// The edge memory model's quality-gate budget must agree byte for byte with
/// the real layouts it mirrors: the gate's persisted calibration block inside
/// a detector snapshot, and the indicator-row width of the feature crate's
/// quality module.
#[test]
fn quality_gate_budget_matches_the_real_snapshot_and_feature_layout() {
    use selflearn_seizure::core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
    use selflearn_seizure::edge::memory::GATE_STATE_BYTES;
    use selflearn_seizure::features::quality::NUM_QUALITY_FEATURES;

    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());

    // An untrained detector snapshot is the 28-byte envelope, the config
    // block (window + overlap + 41-byte forest config + seed + incremental
    // block size), the gate's calibration block and the "no model" marker.
    // Pinning the whole length keeps GATE_STATE_BYTES honest: a gate-block
    // format change moves this number.
    let untrained = RealTimeDetector::new(RealTimeDetectorConfig::default()).save_state();
    const ENVELOPE: usize = 28;
    const CONFIG_BYTES: usize = 8 + 8 + 41 + 8 + 8;
    assert_eq!(
        untrained.len(),
        ENVELOPE + CONFIG_BYTES + GATE_STATE_BYTES + 1
    );

    // The scratch formula's feature count is the quality module's, not a
    // copy that can drift; spelled out: one live f64 indicator row, one
    // verdict byte per second, one corrected 4 s two-channel f64 window and
    // the quality kernel's one-channel 4 s f64 step buffer.
    let scratch = memory.quality_scratch_bytes(1200.0).unwrap();
    assert_eq!(
        scratch,
        NUM_QUALITY_FEATURES * 8 + 1200 + 4 * 256 * 2 * 8 + 4 * 256 * 8
    );

    // Gated budget = snapshot budget + gate block in Flash + scratch in RAM,
    // and a 20-minute gated wearable still fits the STM32L151 outright.
    let snapshot = memory.trainer_snapshot_bytes(256, 54, 30, 30 * 128);
    let base = memory.budget_with_snapshot(1200.0, snapshot).unwrap();
    let gated = memory.budget_with_quality_gate(1200.0, snapshot).unwrap();
    assert_eq!(gated.history_bytes, base.history_bytes + GATE_STATE_BYTES);
    assert_eq!(gated.working_bytes, base.working_bytes + scratch);
    assert!(gated.fits_flash);
    assert!(gated.fits_ram);
}

/// The edge memory model's dual-slot store formula must agree byte for byte
/// with the crash-proof A/B store's real layout — slot-header size included —
/// so the Flash budget a wearable plans around covers exactly the image
/// `FlashStore::format` writes.
#[test]
fn dual_slot_store_formula_matches_the_real_layout() {
    use selflearn_seizure::ml::persist::store::{FlashGeometry, SLOT_HEADER_LEN};

    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());
    // The formula's baked-in header size is the store's, not a copy that can
    // drift silently.
    assert_eq!(memory.dual_slot_store_bytes(0, 0), 2 * SLOT_HEADER_LEN);
    for (base, journal) in [(0usize, 0usize), (64 * 1024, 32 * 1024), (7, 13)] {
        assert_eq!(
            memory.dual_slot_store_bytes(base, journal),
            FlashGeometry::for_base(base, journal).total_bytes()
        );
    }

    // Paper-scale budgeting: a compact personalized base (held twice for
    // crash-proof compaction) plus a two-seizure journal region fits the
    // 384 KB part next to a 20-minute history buffer…
    let journal_bytes = 2 * memory.journal_entry_bytes(60, 54, 16);
    let compact_base = memory.trainer_snapshot_bytes(128, 54, 30, 30 * 64);
    let budget = memory
        .budget_with_ab_store(1200.0, compact_base, journal_bytes)
        .unwrap();
    assert!(budget.fits_flash, "{} bytes", budget.history_bytes);

    // …but the 256-window pool that fits a *single*-slot budget does not
    // survive being doubled: crash-proofing has a real, visible Flash price,
    // and the model tells the device where that line is.
    let few_seizures = memory.trainer_snapshot_bytes(256, 54, 30, 30 * 128);
    assert!(
        memory
            .budget_with_snapshot(1200.0, few_seizures)
            .unwrap()
            .fits_flash
    );
    assert!(
        !memory
            .budget_with_ab_store(1200.0, few_seizures, journal_bytes)
            .unwrap()
            .fits_flash
    );
}

/// The edge memory model's streaming-state formulas must agree byte for
/// byte with the real accounting, for both spectral modes and across window
/// geometries: the extractor's `state_bytes()`, and the gated
/// `StreamingDetector::state_bytes()` the device reserves (extractor plus the
/// quality grader's chunk-summary ring, which exists only when one-second
/// chunks tile the hop) — so the RAM a wearable reserves covers exactly the
/// state the device path carries.
#[test]
fn streaming_state_formula_matches_the_real_extractor() {
    use selflearn_seizure::core::realtime::{RealTimeDetector, RealTimeDetectorConfig};
    use selflearn_seizure::features::extractor::SlidingWindowConfig;
    use selflearn_seizure::features::quality::QualityExtractor;
    use selflearn_seizure::features::streaming::StreamingRichExtractor;
    use selflearn_seizure::ml::dataset::Dataset;

    // A trained detector (any forest will do) to open the device path on.
    let rows: Vec<Vec<f64>> = (0..40)
        .map(|i| (0..54).map(|c| ((i * 7 + c) % 13) as f64).collect())
        .collect();
    let labels: Vec<bool> = (0..40).map(|i| i % 2 == 0).collect();
    let training = Dataset::new(rows, labels).unwrap();

    let memory = MemoryModel::new(PlatformSpec::stm32l151_default());
    let mut folding = 0;
    for (fs, window_secs, overlap) in [
        (256.0, 4.0, 0.75),
        (256.0, 2.0, 0.75),
        (64.0, 4.0, 0.75),
        (256.0, 2.0, 0.5),
    ] {
        let config = SlidingWindowConfig::new(fs, window_secs, overlap).unwrap();
        let window = config.window_samples();
        let step = config.step_samples();
        let extractor = StreamingRichExtractor::new(&config).unwrap();
        assert_eq!(
            memory.streaming_state_bytes(window, step),
            extractor.state_bytes(),
            "extractor, fs {fs}, {window_secs} s window, {overlap} overlap"
        );

        let mut detector = RealTimeDetector::new(RealTimeDetectorConfig {
            window_secs,
            overlap,
            ..RealTimeDetectorConfig::default()
        });
        detector.train(&training).unwrap();
        let device = detector.streaming(fs).unwrap();
        let chunk = QualityExtractor::new(fs).unwrap().chunk_samples();
        assert_eq!(
            memory.streaming_detector_state_bytes(window, step, chunk),
            device.state_bytes(),
            "gated detector, fs {fs}, {window_secs} s window, {overlap} overlap"
        );
        folding += usize::from(memory.quality_ring_bytes(window, step, chunk) > 0);
    }
    // Three geometries fold one-second chunks; 2 s / 75 % at 256 Hz has a
    // half-second hop and grades each window with the window kernel.
    assert_eq!(folding, 3);

    // The budget the wearable actually plans around: the detector's carried
    // state on the RAM side, gate accounting unchanged.
    let mut detector = RealTimeDetector::new(RealTimeDetectorConfig::default());
    detector.train(&training).unwrap();
    let snapshot = memory.trainer_snapshot_bytes(256, 54, 30, 30 * 128);
    let gated = memory.budget_with_quality_gate(1200.0, snapshot).unwrap();
    let streaming = memory
        .budget_with_streaming(1200.0, snapshot, 1024, 256, 256)
        .unwrap();
    assert_eq!(streaming.history_bytes, gated.history_bytes);
    assert_eq!(
        streaming.working_bytes,
        gated.working_bytes + detector.streaming(256.0).unwrap().state_bytes()
    );
}
