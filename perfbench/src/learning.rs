//! `learning_loop`: missed-seizure reports made durable, then a reboot.
//!
//! One patient reports missed seizures back to back, one report in flight.
//! Each report is `observe_missed_seizure(.., LabelSource::Algorithm)`
//! followed by `save_to_store` on an in-memory A/B Flash; every fifth report
//! carries a sustained artifact, so the quarantine path runs. An episode
//! ends with `FlashStore::mount` and `SelfLearningPipeline::resume_from_store`.
//! Episodes start from a fresh pipeline and repeat until the run time is
//! used up; every episode must reproduce the first one exactly.

use std::time::Instant;

use seizure_core::label::window_labels;
use seizure_core::metric::median;
use seizure_core::pipeline::{LabelSource, SelfLearningPipeline, QUARANTINE_REJECT_FRACTION};
use seizure_core::realtime::{balanced_indices, QualityGate, QualityVerdict, RealTimeDetector};
use seizure_core::workspace::FeatureWorkspace;
use seizure_core::{deviation_seconds, posteriori_detect, PosterioriLabeler, SeizureLabel};
use seizure_data::sampler::EegRecord;
use seizure_data::synth::HostileScenario;
use seizure_features::extractor::SlidingWindowConfig;
use seizure_features::matrix::FeatureMatrix;
use seizure_features::quality::QualityExtractor;
use seizure_ml::metrics::ConfusionMatrix;
use seizure_ml::persist::store::{Flash, FlashGeometry, FlashStore, MemFlash, StoreSave};
use seizure_ml::persist::PersistError;

use crate::common::{
    learn_all, new_pipeline, score_windows, stream_record, Checks, Degradation, Outcome, Patient,
    Report, FS,
};
use crate::stats::{self, mean, ratio, tail_percentile};
use crate::trace::Tracer;

/// Reports the device was personalised on before the timed loop.
const BOOTSTRAP_REPORTS: u64 = 1;
/// Timed reports per episode.
const REPORTS: usize = 10;
/// Every `HOSTILE_EVERY`-th report is degraded.
const HOSTILE_EVERY: usize = 5;
/// Sustained artifacts, which the gate must quarantine, in rotation.
const HOSTILE: [HostileScenario; 3] = [
    HostileScenario::Saturation,
    HostileScenario::MainsHum,
    HostileScenario::BaselineWander,
];
/// Flash layout: room for a 4 MiB base per slot and a 384 KiB journal,
/// which compacts after about five appends, so an episode appends,
/// compacts and still leaves entries for the resume to replay.
const BASE_CAPACITY: usize = 4 << 20;
const JOURNAL_BYTES: usize = 384 << 10;
/// Held-out clean records the learned detector is scored on.
const PROBE_RECORDS: u64 = 3;

/// In-memory Flash that counts the bytes programmed into it.
#[derive(Debug, Clone)]
struct CountingFlash {
    inner: MemFlash,
    programmed: usize,
}

impl Flash for CountingFlash {
    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn read(&self, offset: usize, len: usize) -> Result<Vec<u8>, PersistError> {
        self.inner.read(offset, len)
    }

    fn program(&mut self, offset: usize, data: &[u8]) -> Result<(), PersistError> {
        self.programmed += data.len();
        self.inner.program(offset, data)
    }

    fn erase(&mut self, offset: usize, len: usize) -> Result<(), PersistError> {
        self.inner.erase(offset, len)
    }
}

struct Reported {
    record: EegRecord,
    hostile: bool,
}

/// Everything an episode produced that must repeat exactly.
#[derive(Debug, Clone, PartialEq)]
struct Outputs {
    labels: Vec<Option<SeizureLabel>>,
    saves: Vec<StoreSave>,
    training_windows: usize,
    snapshot_bytes: usize,
    flash_bytes: usize,
    replayed_entries: usize,
}

/// Timings of one episode, in seconds.
#[derive(Default)]
struct Timings {
    setup: f64,
    reports: Vec<f64>,
    sequence: f64,
    mount: f64,
    replay: f64,
}

/// Layer timings of one traced report, in seconds; `None` where the layer
/// did not run (a quarantined report never reaches the labeler).
#[derive(Default)]
struct ReportLayers {
    quality: f64,
    labeler_features: Option<f64>,
    posteriori: Option<f64>,
    rich_features: Option<f64>,
    retrain: Option<f64>,
    trees_refit: Option<usize>,
    num_trees: usize,
    observe: f64,
    save: f64,
    /// The label and retrained detector the layers predict for the report,
    /// compared with the pipeline's after `observe`.
    expected: Option<(SeizureLabel, RealTimeDetector)>,
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut report = Report::default();

    // Inputs, synthesised outside every timed region.
    let patient = Patient::new(seed);
    let w = patient.average_seizure_secs;
    let bootstrap: Vec<EegRecord> = (0..BOOTSTRAP_REPORTS)
        .map(|k| patient.report_record(k))
        .collect();
    let reports: Vec<Reported> = (0..REPORTS)
        .map(|i| {
            let clean = patient.report_record(BOOTSTRAP_REPORTS + i as u64);
            let hostile = (i + 1) % HOSTILE_EVERY == 0;
            let record = if hostile {
                let scenario = HOSTILE[(i / HOSTILE_EVERY) % HOSTILE.len()];
                Degradation::Hostile(scenario).apply(&clean, seed.wrapping_mul(77) + i as u64)
            } else {
                clean
            };
            Reported { record, hostile }
        })
        .collect();
    let probes: Vec<EegRecord> = (0..PROBE_RECORDS)
        .map(|k| patient.report_record(500 + k))
        .collect();
    let geometry = FlashGeometry::for_base(BASE_CAPACITY, JOURNAL_BYTES);

    let mut tracer = trace.then(Tracer::new);
    let mut scratch = LayerScratch::default();
    let mut first: Option<Outputs> = None;
    let mut timings: Vec<Timings> = Vec::new();
    let mut layers: Vec<ReportLayers> = Vec::new();
    let mut deltas = Vec::new();
    let mut learned_quality = ConfusionMatrix::default();
    let start = Instant::now();
    while timings.is_empty() || start.elapsed().as_secs_f64() < seconds {
        let episode = timings.len() as u64;
        let mut t = Timings::default();

        // Set-up: personalise from the bootstrap reports and format the store.
        let begin = Instant::now();
        let mut pipeline = new_pipeline();
        let learned = learn_all(&mut pipeline, &bootstrap, w);
        let flash = CountingFlash {
            inner: MemFlash::new(geometry.total_bytes()),
            programmed: 0,
        };
        let store = pipeline.init_store(flash, geometry);
        t.setup = begin.elapsed().as_secs_f64();
        checks.require(learned == bootstrap.len(), || {
            format!(
                "set-up learned {learned} of {} bootstrap reports",
                bootstrap.len()
            )
        });
        let mut store = match store {
            Ok(store) => store,
            Err(e) => {
                checks.require(false, || format!("formatting the store failed: {e}"));
                break;
            }
        };
        let programmed_at_setup = store.flash().programmed;

        // The timed report sequence.
        let mut out = Outputs {
            labels: Vec::with_capacity(REPORTS),
            saves: Vec::with_capacity(REPORTS),
            training_windows: 0,
            snapshot_bytes: 0,
            flash_bytes: 0,
            replayed_entries: 0,
        };
        let sequence = Instant::now();
        for (i, r) in reports.iter().enumerate() {
            let seizures_before = pipeline.num_seizures_collected();
            let request = episode * 1_000 + i as u64;
            // The traced run re-runs the layers on the pre-report detector
            // after the report, so `observe` itself is timed untouched.
            let pre_report = tracer.as_ref().map(|_| pipeline.detector().clone());
            let begin = Instant::now();
            let observed = pipeline.observe_missed_seizure(&r.record, w, LabelSource::Algorithm);
            let observed_at = Instant::now();
            let saved = pipeline.save_to_store(&mut store);
            let end = Instant::now();
            t.reports.push((end - begin).as_secs_f64());
            checks.attempted += 1;
            let (label, save) = match (observed, saved) {
                (Ok(label), Ok(save)) => (label, save),
                (observed, saved) => {
                    checks.failed += 1;
                    checks.require(false, || {
                        format!(
                            "report {i}: observe {:?}, save {:?}",
                            observed.err(),
                            saved.err()
                        )
                    });
                    continue;
                }
            };
            let learned = pipeline.num_seizures_collected() == seizures_before + 1;
            checks.require(
                if r.hostile {
                    label.is_none()
                } else {
                    label.is_some() && learned
                },
                || {
                    format!(
                        "report {i} ({}): got {label:?}, learned {learned}",
                        if r.hostile {
                            "hostile, must be quarantined"
                        } else {
                            "clean, must learn"
                        }
                    )
                },
            );
            if let Some(l) = label {
                if first.is_none() {
                    let a = r.record.annotation();
                    match deviation_seconds((a.onset(), a.offset()), l.as_interval()) {
                        Ok(delta) => deltas.push(delta),
                        Err(e) => checks.require(false, || format!("report {i}: δ failed: {e}")),
                    }
                }
            }
            if let (Some(tr), Some(pre)) = (tracer.as_mut(), &pre_report) {
                tr.record("core.pipeline.observe", request, None, begin, observed_at);
                tr.record("ml.persist.save", request, None, observed_at, end);
                let labeler = pipeline.labeler();
                let mut l = trace_layers(
                    tr,
                    &mut scratch,
                    labeler,
                    pre,
                    &r.record,
                    w,
                    request,
                    &mut checks,
                );
                l.observe = (observed_at - begin).as_secs_f64();
                l.save = (end - observed_at).as_secs_f64();
                check_traced(&mut l, &label, &pipeline, i, &mut checks);
                layers.push(l);
            }
            out.labels.push(label);
            out.saves.push(save);
        }
        t.sequence = sequence.elapsed().as_secs_f64();
        out.training_windows = pipeline.training_windows();
        out.snapshot_bytes = store.base_len();
        out.flash_bytes = store.flash().programmed - programmed_at_setup;

        // Reboot: mount the Flash image and replay the journal.
        let flash = store.into_flash();
        let begin = Instant::now();
        let mounted = FlashStore::mount(flash, geometry);
        let mounted_at = Instant::now();
        let resumed = mounted
            .as_ref()
            .map_err(|e| e.to_string())
            .and_then(|(s, _)| {
                SelfLearningPipeline::resume_from_store(s).map_err(|e| e.to_string())
            });
        let end = Instant::now();
        if let Some(tr) = tracer.as_mut() {
            tr.record(
                "ml.persist.mount",
                episode * 1_000 + 999,
                None,
                begin,
                mounted_at,
            );
            tr.record(
                "ml.persist.replay",
                episode * 1_000 + 999,
                None,
                mounted_at,
                end,
            );
        }
        t.mount = (mounted_at - begin).as_secs_f64();
        t.replay = (end - mounted_at).as_secs_f64();
        checks.attempted += 1;
        match (&mounted, resumed) {
            (Ok((store, mount)), Ok((resumed, replay))) => {
                out.replayed_entries = replay.entries_applied;
                check_resume(&pipeline, &resumed, &probes[0], &mut checks);
                checks.require(
                    replay.torn_bytes == 0
                        && !mount.fell_back
                        && replay.entries_applied == store.journal_entries(),
                    || format!("resume after a clean shutdown: {mount:?}, {replay:?}"),
                );
            }
            (_, resumed) => {
                checks.failed += 1;
                checks.require(false, || {
                    format!("mount or resume failed: {:?}", resumed.err())
                });
            }
        }
        if first.is_none() {
            // What the loop delivered: the learned detector, streamed over
            // held-out records as the device runs it.
            match pipeline.detector().streaming(FS) {
                Ok(mut stream) => {
                    for probe in &probes {
                        match stream_record(&mut stream, probe) {
                            Ok(d) => {
                                let alarms: Vec<bool> = d.iter().map(|d| d.alarm).collect();
                                score_windows(&mut learned_quality, probe, &alarms);
                            }
                            Err(e) => checks.require(false, || format!("probe stream: {e}")),
                        }
                    }
                }
                Err(e) => checks.require(false, || format!("learned detector cannot stream: {e}")),
            }
        }
        match &first {
            None => first = Some(out),
            Some(f) => checks.require(*f == out, || {
                format!("episode {episode} differs from the first: {out:?} vs {f:?}")
            }),
        }
        timings.push(t);
    }
    let out = first.expect("one episode ran");

    let setup: Vec<f64> = timings.iter().map(|t| t.setup).collect();
    let latencies_ms: Vec<f64> = timings
        .iter()
        .flat_map(|t| &t.reports)
        .map(|s| s * 1e3)
        .collect();
    let sequences: Vec<f64> = timings.iter().map(|t| t.sequence).collect();
    let resume_ms: Vec<f64> = timings.iter().map(|t| (t.mount + t.replay) * 1e3).collect();
    let setup_s = median(&setup).expect("set-up ran");
    let p50_ms = median(&latencies_ms).unwrap_or(0.0);
    let reports_per_s = latencies_ms.len() as f64 / sequences.iter().sum::<f64>();
    let quarantined = out.labels.iter().filter(|l| l.is_none()).count();

    report.add_sampled("setup_s", setup_s, "s", setup.len());
    report.add(
        "error_rate",
        stats::error_rate(checks.failed, checks.attempted),
        "ratio",
    );
    report.add_sampled("report_to_durable_ms_p50", p50_ms, "ms", latencies_ms.len());
    if let Some(p90) = tail_percentile(&latencies_ms, 0.9) {
        report.add_sampled("report_to_durable_ms_p90", p90, "ms", latencies_ms.len());
    }
    report.add_sampled(
        "learning_loop_s",
        median(&sequences).unwrap_or(0.0),
        "s",
        sequences.len(),
    );
    if let Some(delta) = median(&deltas) {
        report.add_sampled("label_delta_s", delta, "s", deltas.len());
    }
    report.add(
        "flash_bytes_per_report",
        out.flash_bytes as f64 / REPORTS as f64,
        "B",
    );
    report.add("snapshot_bytes", out.snapshot_bytes as f64, "B");
    report.add_sampled(
        "resume_ms",
        median(&resume_ms).unwrap_or(0.0),
        "ms",
        resume_ms.len(),
    );
    for (name, v) in [
        ("window_sensitivity", learned_quality.sensitivity()),
        ("window_specificity", learned_quality.specificity()),
        ("window_gmean", learned_quality.geometric_mean()),
    ] {
        checks.unit_interval(name, v);
        report.add(name, v, "ratio");
    }
    report.add("reports_per_episode", REPORTS as f64, "count");
    report.add("episodes", timings.len() as f64, "count");
    report.add("quarantined_per_episode", quarantined as f64, "count");

    let metrics = match &tracer {
        Some(tracer) => {
            crate::write_trace(tracer, "learning_loop");
            let med = |v: Vec<f64>| median(&v).unwrap_or(0.0) * 1e3;
            let some = |f: fn(&ReportLayers) -> Option<f64>| -> Vec<f64> {
                layers.iter().filter_map(f).collect()
            };
            let self_ms: Vec<f64> = layers
                .iter()
                .map(|l| {
                    let children = l.quality
                        + l.labeler_features.unwrap_or(0.0)
                        + l.posteriori.unwrap_or(0.0)
                        + l.rich_features.unwrap_or(0.0)
                        + l.retrain.unwrap_or(0.0);
                    l.observe - children
                })
                .collect();
            let refits: Vec<f64> = layers
                .iter()
                .filter_map(|l| l.trees_refit)
                .map(|n| n as f64)
                .collect();
            let refit_fracs: Vec<f64> = layers
                .iter()
                .filter_map(|l| l.trees_refit.map(|n| ratio(n, l.num_trees)))
                .collect();
            let count = |s: StoreSave| out.saves.iter().filter(|&&x| x == s).count() as f64;
            let m = vec![
                (
                    "features.quality.extract_batch_ms",
                    med(layers.iter().map(|l| l.quality).collect()),
                ),
                (
                    "core.realtime.extract_feature_matrix_ms",
                    med(some(|l| l.rich_features)),
                ),
                (
                    "core.labeler.extract_features_ms",
                    med(some(|l| l.labeler_features)),
                ),
                (
                    "core.algorithm.posteriori_detect_ms",
                    med(some(|l| l.posteriori)),
                ),
                ("ml.incremental.retrain_ms", med(some(|l| l.retrain))),
                ("ml.incremental.trees_refit", median(&refits).unwrap_or(0.0)),
                ("ml.incremental.refit_frac", mean(&refit_fracs)),
                ("ml.incremental.pool_rows", out.training_windows as f64),
                (
                    "core.pipeline.observe_ms",
                    med(layers.iter().map(|l| l.observe).collect()),
                ),
                (
                    "core.pipeline.observe_self_ms",
                    median(&self_ms).unwrap_or(0.0) * 1e3,
                ),
                ("core.pipeline.quarantine_frac", ratio(quarantined, REPORTS)),
                (
                    "ml.persist.save_ms",
                    med(layers.iter().map(|l| l.save).collect()),
                ),
                ("ml.persist.appends", count(StoreSave::Appended)),
                ("ml.persist.rebases", count(StoreSave::Rebased)),
                ("ml.persist.flash_bytes", out.flash_bytes as f64),
                (
                    "ml.persist.mount_ms",
                    med(timings.iter().map(|t| t.mount).collect()),
                ),
                (
                    "ml.persist.replay_ms",
                    med(timings.iter().map(|t| t.replay).collect()),
                ),
                ("ml.persist.replayed_entries", out.replayed_entries as f64),
            ];
            checks.unit_interval("ml.incremental.refit_frac", mean(&refit_fracs));
            checks.unit_interval("core.pipeline.quarantine_frac", ratio(quarantined, REPORTS));
            m
        }
        None => vec![
            ("setup_s", setup_s),
            ("latency_p50_ms", p50_ms),
            ("throughput_per_s", reports_per_s),
            ("state_bytes", out.snapshot_bytes as f64),
        ],
    };
    Outcome {
        checks,
        metrics,
        report,
    }
}

/// Buffers the traced layer calls reuse across reports, as the pipeline
/// reuses its own workspace.
#[derive(Default)]
struct LayerScratch {
    quality_matrix: FeatureMatrix,
    verdicts: Vec<QualityVerdict>,
    labeler: FeatureWorkspace,
    rich: FeatureWorkspace,
}

/// Times each layer `observe_missed_seizure` runs on the record, side by
/// side with the pipeline rather than inside it and after it (so on warm
/// caches): batch quality and the quarantine decision, the labeler's
/// features and Algorithm 1, the rich batch features, and the incremental
/// retrain of a clone of the pre-report detector with the report's
/// balanced batch.
#[allow(clippy::too_many_arguments)]
fn trace_layers(
    tracer: &mut Tracer,
    scratch: &mut LayerScratch,
    labeler: &PosterioriLabeler,
    detector: &RealTimeDetector,
    record: &EegRecord,
    average_seizure_secs: f64,
    request: u64,
    checks: &mut Checks,
) -> ReportLayers {
    let signal = record.signal();
    let config = detector.config();
    let window =
        SlidingWindowConfig::new(FS, config.window_secs, config.overlap).expect("geometry");
    let mut layers = ReportLayers {
        num_trees: config.forest.n_trees,
        ..ReportLayers::default()
    };
    let root = tracer.open("core.pipeline.report", request, None);

    let LayerScratch {
        quality_matrix,
        verdicts,
        labeler: ws,
        rich,
    } = scratch;
    let quality = QualityExtractor::new(FS).expect("quality extractor");
    let span = tracer.open("features.quality.extract_batch", request, Some(&root));
    let extracted =
        quality.extract_batch_into(signal.f7t3(), signal.f8t4(), &window, quality_matrix);
    QualityGate::verdicts_into(quality_matrix, verdicts);
    layers.quality = tracer.close(span);
    checks.require(extracted.is_ok(), || {
        format!("report {request}: batch quality failed")
    });
    let rejected = verdicts
        .iter()
        .filter(|&&v| v == QualityVerdict::Reject)
        .count();
    if rejected as f64 > QUARANTINE_REJECT_FRACTION * verdicts.len() as f64 {
        tracer.close(root);
        return layers;
    }

    // The labeler: paper features, then Algorithm 1 over them.
    let span = tracer.open("core.labeler.extract_features", request, Some(&root));
    let features = labeler.extract_features_with(signal, ws);
    layers.labeler_features = Some(tracer.close(span));
    let labeler_window =
        SlidingWindowConfig::new(FS, labeler.config().window_secs, labeler.config().overlap)
            .expect("labeler geometry");
    let step = labeler_window.step_seconds();
    let w_rows = ((average_seizure_secs / step).round() as usize).max(1);
    let span = tracer.open("core.algorithm.posteriori_detect", request, Some(&root));
    let detection = posteriori_detect(ws.matrix(), w_rows, &labeler.config().detector);
    layers.posteriori = Some(tracer.close(span));
    let (Ok(()), Ok(detection)) = (features, detection) else {
        checks.require(false, || format!("report {request}: labeling failed"));
        tracer.close(root);
        return layers;
    };
    let onset = labeler_window.window_start_seconds(detection.window_index);
    let offset = (onset + w_rows as f64 * step).min(signal.duration_secs());
    let label = SeizureLabel::new(onset, offset).expect("label");

    // The detector's rich batch features of the record.
    let span = tracer.open("core.realtime.extract_feature_matrix", request, Some(&root));
    let extracted = detector.extract_feature_matrix_with(signal, rich);
    layers.rich_features = Some(tracer.close(span));
    checks.require(extracted.is_ok(), || {
        format!("report {request}: rich features failed")
    });

    // The report's balanced batch, staged as the pipeline stages it: gate
    // rejects struck out, then positives spread evenly through negatives.
    let matrix = rich.matrix();
    let labels = window_labels(
        &label,
        matrix.num_windows(),
        window.window_seconds(),
        window.step_seconds(),
    )
    .expect("window labels");
    let eligible: Vec<usize> = (0..labels.len())
        .filter(|&k| verdicts.get(k) != Some(&QualityVerdict::Reject))
        .collect();
    let eligible_labels: Vec<bool> = eligible.iter().map(|&k| labels[k]).collect();
    let Ok(selected) = balanced_indices(&eligible_labels) else {
        tracer.close(root);
        return layers;
    };
    let num_pos = eligible_labels.iter().filter(|&&l| l).count();
    let (pos, neg) = selected.split_at(num_pos.min(selected.len()));
    let (mut p, mut n) = (0, 0);
    let mut rows = Vec::with_capacity(selected.len() * matrix.num_features());
    let mut batch_labels = Vec::with_capacity(selected.len());
    while p < pos.len() || n < neg.len() {
        let take_pos = n >= neg.len() || (p < pos.len() && p * neg.len() <= n * pos.len());
        let k = if take_pos {
            p += 1;
            pos[p - 1]
        } else {
            n += 1;
            neg[n - 1]
        };
        rows.extend_from_slice(matrix.row(eligible[k]));
        batch_labels.push(eligible_labels[k]);
    }

    let mut clone = detector.clone();
    let span = tracer.open("ml.incremental.retrain", request, Some(&root));
    let retrained = clone.retrain_incremental(&rows, matrix.num_features(), &batch_labels);
    layers.retrain = Some(tracer.close(span));
    tracer.close(root);
    checks.require(retrained.is_ok(), || {
        format!("report {request}: retrain failed")
    });
    layers.trees_refit = clone.incremental_trainer().map(|t| t.last_refit_count());
    layers.expected = Some((label, clone));
    layers
}

/// The recomposed layers must predict what `observe` did: the quarantine
/// decision, the label, and the retrained forest.
fn check_traced(
    layers: &mut ReportLayers,
    label: &Option<SeizureLabel>,
    pipeline: &SelfLearningPipeline,
    i: usize,
    checks: &mut Checks,
) {
    let expected = layers.expected.take();
    checks.require(layers.labeler_features.is_some() == label.is_some(), || {
        format!("report {i}: batch quality predicts the wrong quarantine decision")
    });
    if let (Some((expected_label, retrained)), Some(label)) = (expected, label) {
        checks.require(expected_label == *label, || {
            format!("report {i}: traced label {expected_label:?} differs from observe's {label:?}")
        });
        checks.require(
            retrained.flat_forest() == pipeline.detector().flat_forest()
                && retrained.incremental_trainer().map(|t| t.num_samples())
                    == Some(pipeline.training_windows()),
            || format!("report {i}: the traced retrain differs from observe's"),
        );
    }
}

/// The resumed pipeline must match the live one.
fn check_resume(
    live: &SelfLearningPipeline,
    resumed: &SelfLearningPipeline,
    probe: &EegRecord,
    checks: &mut Checks,
) {
    checks.require(
        resumed.training_windows() == live.training_windows()
            && resumed.num_seizures_collected() == live.num_seizures_collected(),
        || {
            format!(
                "resume restored {} windows / {} seizures, live has {} / {}",
                resumed.training_windows(),
                resumed.num_seizures_collected(),
                live.training_windows(),
                live.num_seizures_collected()
            )
        },
    );
    let detections = |p: &SelfLearningPipeline| {
        p.detector()
            .streaming(FS)
            .and_then(|mut stream| stream_record(&mut stream, probe))
            .ok()
    };
    let live_detections = detections(live);
    checks.require(
        live_detections.is_some() && live_detections == detections(resumed),
        || "the resumed detector raises different alarms on the probe record".to_string(),
    );
}
