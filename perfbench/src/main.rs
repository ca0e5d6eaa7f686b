//! The repository benchmark: the shipped device path and the
//! missed-seizure learning loop, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload device_clean --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `device_clean`, `device_hostile`, `learning_loop` (see
//! `README.md`). Inputs are synthesised from `--seed` before any timing.
//! With `--trace 0` the last line of standard output carries the
//! end-to-end metrics, with `--trace 1` the per-layer ones; earlier lines
//! carry the run metadata and every workload-specific metric. Any failed
//! correctness check makes the command exit nonzero.

mod common;
mod device;
mod learning;
mod meta;
mod stats;
mod trace;

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

use common::{Outcome, Report};
use stats::{lookup, per_layer, DEVICE_LAYERS, END_TO_END, LEARNING_LAYERS};

const WORKLOADS: [&str; 3] = ["device_clean", "device_hostile", "learning_loop"];
const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 10.0;
const USAGE: &str = "usage: perfbench --workload <device_clean|device_hostile|learning_loop> \
                     [--seed <u64, default 1>] [--seconds <s, default 10>] [--trace <0|1>]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => parsed.workload = value,
            "--workload" => return Err(bad("a workload")),
            "--seed" => parsed.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                parsed.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| bad("a positive duration"))?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    Ok(parsed)
}

/// Where traced runs write their spans: beside the build outputs.
fn trace_path(workload: &str) -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/target")))
        .join("perfbench-trace")
        .join(format!("{workload}.tsv"))
}

/// Writes the traced run's spans once, after the workload finished.
pub fn write_trace(tracer: &trace::Tracer, workload: &str) {
    let path = trace_path(workload);
    match tracer.write(&path) {
        Ok(()) => eprintln!("wrote {} spans to {}", tracer.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite number in JSON, with every digit Rust's shortest round-trip
/// formatting gives it.
fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "non-finite metric {v}");
    format!("{v}")
}

fn report_line(workload: &str, seed: u64, report: &Report) -> String {
    let entries: Vec<String> = report
        .entries
        .iter()
        .map(|e| {
            let samples = e
                .samples
                .map_or_else(String::new, |n| format!(", \"samples\": {n}"));
            format!(
                "{}: {{\"value\": {}, \"unit\": {}{samples}}}",
                json_str(&e.name),
                json_num(e.value),
                json_str(e.unit)
            )
        })
        .collect();
    format!(
        "{{\"report\": {{\"workload\": {}, \"seed\": {seed}, \"metrics\": {{{}}}}}}}",
        json_str(workload),
        entries.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = meta::nproc();
    let requested = std::env::var("SEIZURE_NUM_THREADS").ok();
    let threads = meta::thread_count(requested.as_deref(), nproc);
    // The library reads its fan-out from the environment on every call.
    std::env::set_var("SEIZURE_NUM_THREADS", threads.to_string());
    println!(
        "{{\"meta\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"nproc\": {nproc}, \"SEIZURE_NUM_THREADS\": {threads}, \"cpu\": {}, \"rustc\": {}, \
         \"commit\": {}}}}}",
        json_str(&args.workload),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        json_str(&meta::cpu_model()),
        json_str(&meta::rustc_version()),
        json_str(&meta::git_commit()),
    );

    let Outcome {
        mut checks,
        mut metrics,
        report,
    } = match args.workload.as_str() {
        "device_clean" => device::run(false, args.seed, args.seconds, args.trace),
        "device_hostile" => device::run(true, args.seed, args.seconds, args.trace),
        _ => learning::run(args.seed, args.seconds, args.trace),
    };

    let expected: Vec<&str> = if args.trace {
        // Layers the workload leaves idle report 0.
        let idle = if args.workload == "learning_loop" {
            DEVICE_LAYERS
        } else {
            LEARNING_LAYERS
        };
        metrics.extend(idle.iter().map(|m| (m.name, 0.0)));
        metrics.push(("parallel.threads", threads as f64));
        let error_rate = stats::error_rate(checks.failed, checks.attempted);
        metrics.push(("error_rate", error_rate));
        per_layer().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let emitted: BTreeSet<&str> = metrics.iter().map(|(n, _)| *n).collect();
    checks.require(
        emitted.len() == metrics.len() && emitted == expected.iter().copied().collect(),
        || format!("emitted metrics {emitted:?} differ from the catalogue {expected:?}"),
    );
    for (name, value) in &metrics {
        checks.require(value.is_finite(), || format!("{name} = {value}"));
    }
    for e in &report.entries {
        checks.require(
            stats::valid_metric_name(&e.name) && e.value.is_finite(),
            || format!("report entry {} = {}", e.name, e.value),
        );
    }
    metrics.retain(|(_, v)| v.is_finite());
    let mut report = report;
    report.entries.retain(|e| e.value.is_finite());

    println!("{}", report_line(&args.workload, args.seed, &report));
    for failure in &checks.failures {
        eprintln!("correctness check failed: {failure}");
    }
    let correct = checks.failures.is_empty();
    let body: Vec<String> = expected
        .iter()
        .filter_map(|name| {
            let value = metrics.iter().find(|(n, _)| n == name)?.1;
            let unit = lookup(name).expect("catalogued").unit;
            Some(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            ))
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn arguments_have_recorded_defaults() {
        let args = parse("--workload learning_loop").expect("valid");
        assert_eq!(args.seed, DEFAULT_SEED);
        assert_eq!(args.seconds, DEFAULT_SECONDS);
        assert!(!args.trace);
        let args =
            parse("--workload device_clean --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 2.5, true));
    }

    #[test]
    fn bad_arguments_are_refused() {
        for line in [
            "",
            "--workload nope",
            "--workload device_clean --trace 2",
            "--workload device_clean --seconds -1",
            "--workload device_clean --seed",
            "--workload device_clean --verbose 1",
        ] {
            assert!(parse(line).is_err(), "{line:?}");
        }
    }

    #[test]
    fn json_output_escapes_and_keeps_digits() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(0.1234567891234), "0.1234567891234");
        assert_eq!(json_num(3.0), "3");
    }
}
