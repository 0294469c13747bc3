//! In-memory spans recorded by the benchmark's own code around each call
//! it makes into a layer. Each thread keeps its own list (no shared lock
//! on the measured path); lists are merged and written out when the run
//! ends. A disabled list records nothing, so the untraced runs share
//! the same code at the cost of a branch per span.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    /// The task the span belongs to; empty for layer probes.
    pub task: String,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
}

/// A span handle: `None` when tracing is off.
pub type SpanId = Option<usize>;

pub struct Spans {
    /// `None` when tracing is off.
    epoch: Option<Instant>,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(epoch: Option<Instant>) -> Spans {
        Spans {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Open a span now under `parent`; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, task: &str, parent: SpanId) -> SpanId {
        let now = self.epoch?.elapsed();
        self.spans.push(Span {
            name,
            task: task.to_string(),
            start: now,
            end: now,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    /// Close span `id` now.
    pub fn close(&mut self, id: SpanId) {
        if let (Some(epoch), Some(id)) = (self.epoch, id) {
            self.spans[id].end = epoch.elapsed();
        }
    }

    pub fn set_task(&mut self, id: SpanId, task: &str) {
        if let Some(id) = id {
            self.spans[id].task = task.to_string();
        }
    }

    /// Run `f` inside a span and return its result and duration (timed
    /// whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, "", parent);
        let t0 = Instant::now();
        let out = f();
        let took = t0.elapsed();
        self.close(id);
        (out, took)
    }

    /// Append another thread's spans, re-basing their parent links.
    pub fn absorb(&mut self, other: Spans) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e6)
            .collect()
    }

    /// The task of the last span called `name`.
    pub fn last_task(&self, name: &str) -> Option<String> {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name && !s.task.is_empty())
            .map(|s| s.task.clone())
    }

    /// Write every span as a tab-separated line, after `header` lines
    /// prefixed with `#`.
    pub fn write(&self, path: &Path, header: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in header {
            writeln!(out, "# {line}")?;
        }
        writeln!(out, "id\tparent\tname\ttask\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let task = if s.task.is_empty() { "-" } else { &s.task };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{task}\t{}\t{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}
