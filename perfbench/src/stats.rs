//! Tail percentiles and the metric catalogue (medians come from
//! `seizure_core::metric::median`).
//!
//! Every number the benchmark prints is declared here once, with its unit
//! and the direction in which it improves; `main` refuses to print a
//! result whose metric set differs from the catalogue.

/// Tail percentiles are reported only when at least this many samples lie
/// beyond them, so a single outlier cannot be the whole tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1)`) of `samples`, or `None` when
/// fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn tail_percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 1.0, "percentile {p} outside (0, 1)");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if rank > n || n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Arithmetic mean, `0` for an empty slice (an idle layer).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `numerator / denominator`, `0` when nothing was counted.
pub fn ratio(numerator: usize, denominator: usize) -> f64 {
    if denominator == 0 {
        0.0
    } else {
        numerator as f64 / denominator as f64
    }
}

/// Failed operations as a share of attempted ones.
pub fn error_rate(failed: usize, attempted: usize) -> f64 {
    assert!(failed <= attempted, "{failed} failures out of {attempted}");
    ratio(failed, attempted)
}

/// `true` for names of the grammar `[A-Za-z0-9_.-]+`, starting with a
/// letter or digit and at most 64 characters long.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Maps an arbitrary label (a scenario name) onto the metric-name grammar.
pub fn metric_suffix(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// The direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, printed with tracing off on every workload. Their
/// meaning per workload is documented in `README.md`.
pub const END_TO_END: &[MetricSpec] = &[
    spec("setup_s", "s", Lower),
    spec("latency_p50_ms", "ms", Lower),
    spec("throughput_per_s", "1/s", Higher),
    spec("state_bytes", "B", Lower),
];

/// Hostile scenario labels, as suffixes of the per-scenario gate metric.
pub const SCENARIO_SUFFIXES: [&str; 7] = [
    "electrode_pop",
    "mains_hum",
    "baseline_wander",
    "channel_dropout",
    "saturation",
    "gain_drift",
    "baseline_wander_mains_hum",
];

/// Per-layer metrics of the device path, per completed window; idle (0)
/// on `learning_loop`.
pub const DEVICE_LAYERS: &[MetricSpec] = &[
    spec("features.streaming.push_hop_us", "us", Lower),
    spec("features.quality.assess_window_us", "us", Lower),
    spec("core.gate.verdict_us", "us", Lower),
    spec("ml.flat.predict_us", "us", Lower),
    spec("device.window_latency_p99_us", "us", Lower),
    spec("device.trace_overhead_frac", "ratio", Higher),
    spec("core.gate.reject_frac", "ratio", Lower),
    spec("core.gate.suspect_frac", "ratio", Lower),
    spec("ml.flat.positive_frac", "ratio", Lower),
    spec("core.gate.reject_frac.electrode_pop", "ratio", Lower),
    spec("core.gate.reject_frac.mains_hum", "ratio", Lower),
    spec("core.gate.reject_frac.baseline_wander", "ratio", Lower),
    spec("core.gate.reject_frac.channel_dropout", "ratio", Lower),
    spec("core.gate.reject_frac.saturation", "ratio", Lower),
    spec("core.gate.reject_frac.gain_drift", "ratio", Lower),
    spec(
        "core.gate.reject_frac.baseline_wander_mains_hum",
        "ratio",
        Lower,
    ),
];

/// Per-layer metrics of the learning loop, per report; idle (0) on the
/// device workloads.
pub const LEARNING_LAYERS: &[MetricSpec] = &[
    spec("features.quality.extract_batch_ms", "ms", Lower),
    spec("core.realtime.extract_feature_matrix_ms", "ms", Lower),
    spec("core.labeler.extract_features_ms", "ms", Lower),
    spec("core.algorithm.posteriori_detect_ms", "ms", Lower),
    spec("ml.incremental.retrain_ms", "ms", Lower),
    spec("ml.incremental.trees_refit", "count", Lower),
    spec("ml.incremental.refit_frac", "ratio", Lower),
    spec("ml.incremental.pool_rows", "count", Lower),
    spec("core.pipeline.observe_ms", "ms", Lower),
    spec("core.pipeline.observe_self_ms", "ms", Lower),
    spec("core.pipeline.quarantine_frac", "ratio", Lower),
    spec("ml.persist.save_ms", "ms", Lower),
    spec("ml.persist.appends", "count", Lower),
    spec("ml.persist.rebases", "count", Lower),
    spec("ml.persist.flash_bytes", "B", Lower),
    spec("ml.persist.mount_ms", "ms", Lower),
    spec("ml.persist.replay_ms", "ms", Lower),
    spec("ml.persist.replayed_entries", "count", Lower),
];

/// Per-layer metrics every workload reports.
pub const COMMON_LAYERS: &[MetricSpec] = &[
    spec("parallel.threads", "count", Higher),
    spec("error_rate", "ratio", Lower),
];

/// Every per-layer metric, printed by the traced run on every workload.
pub fn per_layer() -> impl Iterator<Item = &'static MetricSpec> {
    DEVICE_LAYERS
        .iter()
        .chain(LEARNING_LAYERS)
        .chain(COMMON_LAYERS)
}

/// Looks a metric up in either catalogue.
pub fn lookup(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END
        .iter()
        .chain(per_layer())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples leaves exactly ten beyond the 990th.
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&samples, 0.99), Some(990.0));
        // 999 samples leave only nine beyond the nearest rank.
        assert_eq!(tail_percentile(&samples[1..], 0.99), None);
        // p90 of 100 samples: rank 90, ten beyond.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&hundred, 0.9), Some(90.0));
        assert_eq!(tail_percentile(&hundred[..99], 0.9), None);
        assert_eq!(tail_percentile(&[], 0.5), None);
    }

    #[test]
    fn metric_names_follow_the_grammar() {
        for ok in [
            "setup_s",
            "core.gate.reject_frac.gain_drift",
            "a-b.c_d",
            "9lives",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a+b", "µs", "a/b", &"x".repeat(65)] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert_eq!(
            metric_suffix("baseline_wander+mains_hum"),
            "baseline_wander_mains_hum"
        );
        for m in END_TO_END.iter().chain(per_layer()) {
            assert!(valid_metric_name(m.name), "{}", m.name);
            assert_eq!(lookup(m.name).map(|s| s.name), Some(m.name), "duplicate");
        }
        for suffix in SCENARIO_SUFFIXES {
            let name = format!("core.gate.reject_frac.{suffix}");
            assert!(lookup(&name).is_some(), "{name} is not declared");
        }
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        assert_eq!(error_rate(0, 10), 0.0);
        assert_eq!(error_rate(1, 4), 0.25);
        assert_eq!(error_rate(3, 3), 1.0);
        assert_eq!(error_rate(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "failures out of")]
    fn more_failures_than_attempts_is_a_bug() {
        error_rate(2, 1);
    }

    #[test]
    fn better_directions() {
        let dir = |name: &str| lookup(name).map(|m| m.better);
        // Costs: time, bytes, work and failures improve downwards.
        for name in [
            "setup_s",
            "latency_p50_ms",
            "state_bytes",
            "features.quality.assess_window_us",
            "ml.persist.flash_bytes",
            "ml.incremental.trees_refit",
            "error_rate",
        ] {
            assert_eq!(dir(name), Some(Better::Lower), "{name}");
        }
        // Work done per second improves upwards.
        for name in ["throughput_per_s", "parallel.threads"] {
            assert_eq!(dir(name), Some(Better::Higher), "{name}");
        }
        // Every timing improves downwards.
        for m in END_TO_END.iter().chain(per_layer()) {
            if matches!(m.unit, "s" | "ms" | "us") {
                assert_eq!(m.better, Better::Lower, "{}", m.name);
            }
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for m in END_TO_END.iter().chain(per_layer()) {
            let entry = format!(
                "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{}\"",
                m.name,
                m.unit,
                m.better.as_str()
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = compact.matches("{\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(
            declared - workloads,
            END_TO_END.len() + per_layer().count(),
            "BENCHMARK.json declares metrics the benchmark does not print"
        );
    }
}
