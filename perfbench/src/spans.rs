//! The benchmark's own spans, recorded around calls into each layer.
//!
//! A span has a name, start and end (nanoseconds since the run began), its
//! parent, and the calling thread's on-CPU and run-queue nanoseconds over
//! its interval (`/proc/thread-self/schedstat`). All spans of one run share
//! the run id. Spans stay in memory and are written once, at the end.
//! A disabled tracer records nothing and only runs the timed closure.

use std::time::Instant;

use serde_json::Value;

use crate::procfs::{Probe, Reading};

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Name, `<layer>.<call>`.
    pub name: String,
    /// Index of the enclosing span in the run's span list.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run began.
    pub start_ns: u64,
    /// End, nanoseconds since the run began.
    pub end_ns: u64,
    /// Calling thread's on-CPU nanoseconds inside the span.
    pub on_cpu_ns: Option<u64>,
    /// Calling thread's run-queue nanoseconds inside the span.
    pub runq_ns: Option<u64>,
}

/// Totals over a set of same-named spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanSum {
    /// Spans summed.
    pub count: usize,
    /// Wall seconds.
    pub wall_s: f64,
    /// On-CPU seconds (wall when `/proc` is missing).
    pub cpu_s: f64,
    /// Run-queue seconds (0 when `/proc` is missing).
    pub runq_s: f64,
}

/// Records spans for one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    run_id: String,
    origin: Instant,
    probe: Probe,
    spans: Vec<Span>,
    open: Vec<(usize, Reading)>,
}

impl Tracer {
    /// A tracer for run `run_id`; records only while enabled.
    pub fn new(run_id: String, probe: Probe) -> Tracer {
        Tracer {
            enabled: false,
            run_id,
            origin: Instant::now(),
            probe,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "tracer toggled inside a span");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Recorded spans so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Position after the spans recorded so far; pass it to
    /// [`sum`](Self::sum) to total only later spans.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Opens a span; close it with [`end`](Self::end). Spans nest: the
    /// innermost open span is the parent. Returns `None` when disabled.
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.probe.reading();
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().map(|(p, _)| *p),
            start_ns: self.nanos(start.at),
            end_ns: 0,
            on_cpu_ns: None,
            runq_ns: None,
        });
        self.open.push((idx, start));
        Some(idx)
    }

    /// Closes the span `begin` returned.
    pub fn end(&mut self, token: Option<usize>) {
        let Some(idx) = token else { return };
        let (open_idx, start) = self.open.pop().expect("span end without a matching begin");
        assert_eq!(open_idx, idx, "spans must close innermost first");
        let end = self.probe.reading();
        let both = start.thread.zip(end.thread);
        let end_ns = self.nanos(end.at);
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.on_cpu_ns = both.map(|(a, b)| b.on_cpu_ns.saturating_sub(a.on_cpu_ns));
        span.runq_ns = both.map(|(a, b)| b.runq_ns.saturating_sub(a.runq_ns));
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let token = self.begin(name);
        let out = f();
        self.end(token);
        out
    }

    /// Totals of the spans named `name` recorded at or after `from`.
    pub fn sum(&self, from: usize, name: &str) -> SpanSum {
        let mut total = SpanSum::default();
        for s in self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name)
        {
            let wall_s = s.end_ns.saturating_sub(s.start_ns) as f64 / 1e9;
            total.count += 1;
            total.wall_s += wall_s;
            total.cpu_s += s.on_cpu_ns.map_or(wall_s, |ns| ns as f64 / 1e9);
            total.runq_s += s.runq_ns.map_or(0.0, |ns| ns as f64 / 1e9);
        }
        total
    }

    /// The spans as JSON lines: a header naming the run, then one object
    /// per span (`id` is its index, `parent` the enclosing span's).
    pub fn to_jsonl(&self, header: Value) -> String {
        let mut out = serde_json::to_string(&header).expect("header serializes");
        out.push('\n');
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or(Value::Null, Value::U64);
            let line = Value::Object(vec![
                ("run".into(), Value::Str(self.run_id.clone())),
                ("id".into(), Value::U64(id as u64)),
                ("parent".into(), opt(s.parent.map(|p| p as u64))),
                ("name".into(), Value::Str(s.name.clone())),
                ("start_ns".into(), Value::U64(s.start_ns)),
                ("end_ns".into(), Value::U64(s.end_ns)),
                ("on_cpu_ns".into(), opt(s.on_cpu_ns)),
                ("runq_ns".into(), opt(s.runq_ns)),
            ]);
            out.push_str(&serde_json::to_string(&line).expect("span serializes"));
            out.push('\n');
        }
        out
    }

    fn nanos(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }
}
