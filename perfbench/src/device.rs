//! `device_clean` and `device_hostile`: the shipped device path.
//!
//! A detector personalised by `observe_missed_seizure` (quality gate on and
//! calibrated) streams long one-seizure records sample-at-a-time through
//! `StreamingDetector::push`, one sample in flight, as fast as `push`
//! returns. Records are replayed in order until the run time is used up;
//! every record is streamed at least once.

use std::time::Instant;

use seizure_core::metric::median;
use seizure_core::realtime::{
    QualityGate, QualityVerdict, RealTimeDetector, StreamingDetection, StreamingDetector,
};
use seizure_core::{alarms_from_windows, evaluate_events, AlarmConfig, SeizureLabel};
use seizure_data::sampler::{EegRecord, SampleConfig};
use seizure_features::extractor::SlidingWindowConfig;
use seizure_features::matrix::FeatureMatrix;
use seizure_features::quality::{QualityExtractor, QualityScratch, NUM_QUALITY_FEATURES};
use seizure_features::streaming::StreamingRichExtractor;
use seizure_ml::metrics::ConfusionMatrix;

use crate::common::{
    learn_all, new_pipeline, score_windows, Checks, Degradation, Outcome, Patient, Report, FS,
};
use crate::stats::{self, metric_suffix, ratio, tail_percentile, SCENARIO_SUFFIXES};
use crate::trace::Tracer;

/// Reports the detector is personalised on during set-up.
const TRAIN_REPORTS: u64 = 3;
/// Set-up is repeated this many times; `setup_s` is the median.
const SETUP_REPEATS: usize = 3;
/// Records streamed per pass: seven, so the hostile workload covers each
/// scenario once plus the mixed overlay.
const STREAM_RECORDS: usize = 7;
/// Alarm-to-seizure matching tolerance of the event scoring, in seconds.
pub const EVENT_TOLERANCE_SECS: f64 = 5.0;

struct Streamed {
    degradation: Degradation,
    record: EegRecord,
}

/// Result of the untraced `push` loop.
struct PushPhase {
    windows: usize,
    wall_secs: f64,
    /// Duration of every `push` call that completed a window, in µs.
    latencies_us: Vec<f64>,
}

pub fn run(hostile: bool, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut checks = Checks::default();
    let mut report = Report::default();

    // Inputs: synthesised from the seed, outside every timed region.
    let patient = Patient::new(seed);
    let train: Vec<EegRecord> = (0..TRAIN_REPORTS)
        .map(|k| patient.report_record(k))
        .collect();
    let paper = SampleConfig::paper_default().expect("paper sampling");
    let streamed: Vec<Streamed> = (0..STREAM_RECORDS)
        .map(|i| {
            let degradation = if hostile {
                Degradation::hostile_rotation()[i]
            } else {
                Degradation::Clean
            };
            let clean = patient.record(100 + i as u64, &paper);
            Streamed {
                degradation,
                record: degradation.apply(&clean, seed.wrapping_mul(31) + i as u64),
            }
        })
        .collect();

    // Set-up: personalise the detector from missed-seizure reports (which
    // also calibrates the quality gate) and open the streaming front end.
    let mut setup_secs = Vec::with_capacity(SETUP_REPEATS);
    let mut pipeline = None;
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        let mut p = new_pipeline();
        let learned = learn_all(&mut p, &train, patient.average_seizure_secs);
        let opened = p.detector().streaming(FS).is_ok();
        setup_secs.push(start.elapsed().as_secs_f64());
        checks.require(learned == train.len() && opened, || {
            format!("set-up learned {learned} of {} clean reports", train.len())
        });
        pipeline = Some(p);
    }
    let pipeline = pipeline.expect("at least one set-up");
    let detector = pipeline.detector();
    checks.require(
        detector.config().quality_gate && detector.quality_gate().is_calibrated(),
        || "the device detector must run a calibrated quality gate".to_string(),
    );
    let mut stream = detector.streaming(FS).expect("trained detector streams");
    let state_bytes = stream.state_bytes();

    // Timed phase. The traced run splits its time between the untraced loop
    // (for the overhead baseline) and the recomposed, traced one.
    let mut reference: Vec<Option<Vec<StreamingDetection>>> = vec![None; streamed.len()];
    let push_secs = if trace { seconds / 2.0 } else { seconds };
    let push = push_phase(
        &mut stream,
        &streamed,
        push_secs,
        &mut reference,
        &mut checks,
    );
    let reference: Vec<Vec<StreamingDetection>> = reference
        .into_iter()
        .map(|r| r.expect("every record streamed"))
        .collect();
    let windows_per_s = push.windows as f64 / push.wall_secs;
    let p50_us = median(&push.latencies_us).expect("windows completed");

    let error_rate = stats::error_rate(checks.failed, checks.attempted);
    report.add_sampled(
        "setup_s",
        median(&setup_secs).expect("set-up ran"),
        "s",
        SETUP_REPEATS,
    );
    report.add("error_rate", error_rate, "ratio");
    report.add("device_windows_per_s", windows_per_s, "windows/s");
    report.add_sampled(
        "window_latency_p50_us",
        p50_us,
        "us",
        push.latencies_us.len(),
    );
    if let Some(p99) = tail_percentile(&push.latencies_us, 0.99) {
        report.add_sampled("window_latency_p99_us", p99, "us", push.latencies_us.len());
    }
    report.add("device_state_bytes", state_bytes as f64, "B");
    score_detection(&streamed, &reference, &mut report, &mut checks);
    report.add("event_tolerance_s", EVENT_TOLERANCE_SECS, "s");
    report.add("windows_streamed", push.windows as f64, "count");
    let hours: f64 = streamed
        .iter()
        .map(|s| s.record.signal().duration_secs())
        .sum::<f64>()
        / 3600.0;
    report.add("signal_hours_per_pass", hours, "h");

    let metrics = if trace {
        let mut tracer = Tracer::new();
        let traced = recomposed_phase(
            detector,
            &streamed,
            seconds - push_secs,
            &reference,
            &mut tracer,
            &mut checks,
        );
        crate::write_trace(
            &tracer,
            if hostile {
                "device_hostile"
            } else {
                "device_clean"
            },
        );
        let per_window = |name: &str| tracer.total_secs(name) * 1e6 / traced.windows as f64;
        let p99 = tail_percentile(&push.latencies_us, 0.99);
        checks.require(p99.is_some(), || {
            format!("{} windows cannot support a p99", push.latencies_us.len())
        });
        let all: Vec<&StreamingDetection> = reference.iter().flatten().collect();
        let verdict_frac =
            |v: QualityVerdict| ratio(all.iter().filter(|d| d.verdict == v).count(), all.len());
        let mut m = vec![
            (
                "features.streaming.push_hop_us",
                per_window("features.streaming.push_hop"),
            ),
            (
                "features.quality.assess_window_us",
                per_window("features.quality.assess_window"),
            ),
            ("core.gate.verdict_us", per_window("core.gate.verdict")),
            ("ml.flat.predict_us", per_window("ml.flat.predict")),
            ("device.window_latency_p99_us", p99.unwrap_or(0.0)),
            (
                "device.trace_overhead_frac",
                (traced.windows as f64 / traced.wall_secs) / windows_per_s - 1.0,
            ),
            (
                "core.gate.reject_frac",
                verdict_frac(QualityVerdict::Reject),
            ),
            (
                "core.gate.suspect_frac",
                verdict_frac(QualityVerdict::Suspect),
            ),
            (
                "ml.flat.positive_frac",
                ratio(traced.positives, traced.first_pass_windows),
            ),
        ];
        for suffix in SCENARIO_SUFFIXES {
            let (mut rejected, mut total) = (0, 0);
            for (s, outs) in streamed.iter().zip(&reference) {
                if metric_suffix(&s.degradation.name()) == suffix {
                    rejected += outs
                        .iter()
                        .filter(|d| d.verdict == QualityVerdict::Reject)
                        .count();
                    total += outs.len();
                }
            }
            let name = stats::lookup(&format!("core.gate.reject_frac.{suffix}"))
                .expect("declared in the catalogue")
                .name;
            m.push((name, ratio(rejected, total)));
        }
        for (name, value) in &m {
            if name.contains("_frac") && *name != "device.trace_overhead_frac" {
                checks.unit_interval(name, *value);
            }
        }
        m
    } else {
        vec![
            ("setup_s", median(&setup_secs).expect("set-up ran")),
            ("latency_p50_ms", p50_us * 1e-3),
            ("throughput_per_s", windows_per_s),
            ("state_bytes", state_bytes as f64),
        ]
    };
    Outcome {
        checks,
        metrics,
        report,
    }
}

/// Streams records through `push` until `seconds` have passed and every
/// record was streamed once. The first pass over each record is kept in
/// `reference`; later passes must reproduce it exactly.
fn push_phase(
    stream: &mut StreamingDetector<'_>,
    streamed: &[Streamed],
    seconds: f64,
    reference: &mut [Option<Vec<StreamingDetection>>],
    checks: &mut Checks,
) -> PushPhase {
    let window = stream.window_samples();
    let hop = stream.step_samples();
    let mut latencies_us = Vec::with_capacity(1 << 16);
    let mut out: Vec<StreamingDetection> = Vec::new();
    let mut windows = 0;
    let start = Instant::now();
    for (n, (i, s)) in streamed.iter().enumerate().cycle().enumerate() {
        if n >= streamed.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (a, b) = (s.record.signal().f7t3(), s.record.signal().f8t4());
        stream.reset();
        out.clear();
        let (mut missing, mut unexpected, mut failed) = (0usize, 0usize, 0usize);
        let mut completes_at = window - 1;
        for (t, (&x, &y)) in a.iter().zip(b).enumerate() {
            if t == completes_at {
                completes_at += hop;
                let call = Instant::now();
                let result = stream.push(x, y);
                latencies_us.push(call.elapsed().as_nanos() as f64 * 1e-3);
                match result {
                    Ok(Some(d)) => out.push(d),
                    Ok(None) => missing += 1,
                    Err(_) => failed += 1,
                }
            } else {
                match stream.push(x, y) {
                    Ok(None) => {}
                    Ok(Some(_)) => unexpected += 1,
                    Err(_) => failed += 1,
                }
            }
        }
        checks.attempted += a.len();
        checks.failed += failed;
        windows += out.len();
        let expected = (a.len() - window) / hop + 1;
        checks.require(
            missing == 0 && unexpected == 0 && out.len() == expected,
            || {
                format!(
                    "record {i}: {} windows emitted, {expected} expected ({missing} missing, \
                 {unexpected} off-hop)",
                    out.len()
                )
            },
        );
        checks.require(
            out.iter().enumerate().all(|(k, d)| d.window_index == k),
            || format!("record {i}: window indices are not consecutive from 0"),
        );
        match &reference[i] {
            None => reference[i] = Some(out.clone()),
            Some(first) => checks.require(*first == out, || {
                format!("record {i}: a replay changed the detections")
            }),
        }
    }
    PushPhase {
        windows,
        wall_secs: start.elapsed().as_secs_f64(),
        latencies_us,
    }
}

struct TracedPhase {
    windows: usize,
    wall_secs: f64,
    /// Forest-positive windows (before gating) in the first pass.
    positives: usize,
    first_pass_windows: usize,
}

/// The gate's Schmitt trigger over consecutive windows: the verdict of a
/// window whose own indicators read `raw`, given the previous verdict.
fn hysteresis(raw: QualityVerdict, prev: QualityVerdict) -> QualityVerdict {
    use QualityVerdict::{Clean, Reject, Suspect};
    match (raw, prev) {
        (Reject, _) | (Suspect, Reject) => Reject,
        (Suspect, _) | (Clean, Reject) => Suspect,
        (Clean, _) => Clean,
    }
}

/// Recomposes `push` from its layers, each call in its own span: hop
/// extraction, window quality, gate verdict, forest. Every window's alarm
/// and verdict must equal what `push` emitted for it.
fn recomposed_phase(
    detector: &RealTimeDetector,
    streamed: &[Streamed],
    seconds: f64,
    reference: &[Vec<StreamingDetection>],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> TracedPhase {
    let config = detector.config();
    let window = SlidingWindowConfig::new(FS, config.window_secs, config.overlap)
        .expect("detector window geometry");
    let mut extractor = StreamingRichExtractor::new(&window).expect("streamable geometry");
    let quality = QualityExtractor::new(FS).expect("quality extractor");
    let mut scratch = QualityScratch::default();
    let mut quality_row = FeatureMatrix::from_flat(
        QualityExtractor::feature_names(),
        vec![0.0; NUM_QUALITY_FEATURES],
    )
    .expect("one quality row");
    let mut raw = Vec::with_capacity(1);
    let mut row = vec![0.0; extractor.num_features()];
    let forest = detector.flat_forest().expect("trained forest");
    let hop = window.step_samples();
    let warmup_hops = window.window_samples() / hop - 1;

    let mut seen = vec![false; streamed.len()];
    let (mut windows, mut positives, mut first_pass_windows) = (0usize, 0usize, 0usize);
    let mut request = 0u64;
    let start = Instant::now();
    for (n, (i, s)) in streamed.iter().enumerate().cycle().enumerate() {
        if n >= streamed.len() && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let (a, b) = (s.record.signal().f7t3(), s.record.signal().f8t4());
        extractor.reset();
        let mut prev = QualityVerdict::Clean;
        let mut emitted = 0usize;
        let mut mismatches = 0usize;
        for (h, (ha, hb)) in a.chunks_exact(hop).zip(b.chunks_exact(hop)).enumerate() {
            request += 1;
            if h < warmup_hops {
                let span = tracer.open("features.streaming.push_hop", request, None);
                let filled = extractor.push_hop(ha, hb, &mut row);
                tracer.close(span);
                checks.require(matches!(filled, Ok(false)), || {
                    format!("record {i}: warm-up hop {h} completed a window")
                });
                continue;
            }
            let win = tracer.open("device.window", request, None);
            let span = tracer.open("features.streaming.push_hop", request, Some(&win));
            let completed = extractor.push_hop(ha, hb, &mut row);
            tracer.close(span);
            let span = tracer.open("features.quality.assess_window", request, Some(&win));
            let assessed = quality.assess_window_into(
                extractor.current_window(0),
                extractor.current_window(1),
                quality_row.data_mut(),
                &mut scratch,
            );
            tracer.close(span);
            let span = tracer.open("core.gate.verdict", request, Some(&win));
            QualityGate::verdicts_into(&quality_row, &mut raw);
            let verdict = hysteresis(raw[0], prev);
            prev = verdict;
            tracer.close(span);
            let span = tracer.open("ml.flat.predict", request, Some(&win));
            let positive = forest.predict(&row);
            tracer.close(span);
            tracer.close(win);

            if !matches!(completed, Ok(true)) || assessed.is_err() {
                checks.failed += 1;
            }
            let alarm = positive && verdict != QualityVerdict::Reject;
            match reference[i].get(emitted) {
                Some(d) if d.alarm == alarm && d.verdict == verdict => {}
                _ => mismatches += 1,
            }
            if !seen[i] {
                positives += usize::from(positive);
                first_pass_windows += 1;
            }
            emitted += 1;
        }
        checks.attempted += a.len() / hop;
        windows += emitted;
        seen[i] = true;
        checks.require(mismatches == 0 && emitted == reference[i].len(), || {
            format!(
                "record {i}: the recomposed layers disagree with push on {mismatches} of \
                 {emitted} windows ({} expected)",
                reference[i].len()
            )
        });
    }
    TracedPhase {
        windows,
        wall_secs: start.elapsed().as_secs_f64(),
        positives,
        first_pass_windows,
    }
}

/// Per-window and per-event detection quality of the first pass, scored
/// against the annotations.
fn score_detection(
    streamed: &[Streamed],
    reference: &[Vec<StreamingDetection>],
    report: &mut Report,
    checks: &mut Checks,
) {
    let window = SlidingWindowConfig::new(FS, 4.0, 0.75).expect("paper geometry");
    let alarm_config = AlarmConfig {
        window_step_secs: window.step_seconds(),
        ..AlarmConfig::default()
    };
    let mut confusion = ConfusionMatrix::default();
    let (mut detected, mut false_alarms, mut hours) = (0usize, 0usize, 0.0);
    let mut delays = Vec::new();
    for (s, outs) in streamed.iter().zip(reference) {
        let annotation = s.record.annotation();
        let truth = SeizureLabel::new(annotation.onset(), annotation.offset()).expect("annotation");
        let decisions: Vec<bool> = outs.iter().map(|d| d.alarm).collect();
        score_windows(&mut confusion, &s.record, &decisions);
        let alarms = alarms_from_windows(&decisions, &alarm_config).expect("alarm config");
        let duration = s.record.signal().duration_secs();
        let events = evaluate_events(&alarms, &truth, duration, EVENT_TOLERANCE_SECS)
            .expect("event scoring");
        if events.detected {
            detected += 1;
            delays.push(events.detection_latency_secs.unwrap_or(0.0));
        }
        false_alarms += events.false_alarms;
        hours += duration / 3600.0;
    }
    let event_sensitivity = ratio(detected, streamed.len());
    for (name, v) in [
        ("window_sensitivity", confusion.sensitivity()),
        ("window_specificity", confusion.specificity()),
        ("window_gmean", confusion.geometric_mean()),
        ("event_sensitivity", event_sensitivity),
    ] {
        checks.unit_interval(name, v);
        report.add(name, v, "ratio");
    }
    report.add("false_alarms_per_h", false_alarms as f64 / hours, "1/h");
    if let Some(delay) = median(&delays) {
        report.add_sampled("detection_delay_s", delay, "s", delays.len());
    }
}
