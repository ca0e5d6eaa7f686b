//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files around calls into
//! each layer's public functions; the program itself carries no tracing.
//! Spans stay in memory while the workload runs and are written out once,
//! at the end, as tab-separated text.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed call. Spans of one request (a window, a report) share its
/// `request` number; `parent` is the index of the causing span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.dur_ns as f64 * 1e-9
    }
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Open {
    pub fn index(&self) -> usize {
        self.0
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Starts a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<&Open>) -> Open {
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent: parent.map(Open::index),
            start_ns,
            dur_ns: 0,
        });
        Open(self.spans.len() - 1)
    }

    /// Ends a span and returns its duration in seconds.
    pub fn close(&mut self, open: Open) -> f64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let span = &mut self.spans[open.0];
        span.dur_ns = end_ns - span.start_ns;
        span.secs()
    }

    /// Records a span measured by the caller between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns,
            dur_ns: (end - start).as_nanos() as u64,
        });
    }

    /// Total seconds spent in spans called `name`.
    pub fn total_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(File::create(path)?);
        writeln!(out, "index\tparent\trequest\tname\tstart_ns\tdur_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}
