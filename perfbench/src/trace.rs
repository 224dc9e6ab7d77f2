//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions; nothing inside the program is traced. Each
//! span has a name (`layer.what`), a start and an end, the span that
//! caused it, and the id of the operation it belongs to. The spans stay
//! in memory and are written out once, at the end of the run, as Chrome
//! `trace_event` JSON — the shape `car trace --format chrome` emits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use crate::stats::Samples;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

/// Span id: the index of the span in the recorder.
pub type SpanId = usize;

/// Records spans when enabled; when disabled every call is a no-op that
/// reads no clock, so the same code runs traced and untraced.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    next_op: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), next_op: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos())
            .unwrap_or(u64::MAX)
    }

    /// Opens the root span of a new operation.
    pub fn begin_op(&mut self, name: &'static str) -> SpanId {
        self.next_op += 1;
        let op = self.next_op;
        self.open(name, None, op)
    }

    /// Opens a child span of `parent` in the same operation.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let op = self.spans.get(parent).map_or(0, |s| s.op);
        self.open(name, Some(parent), op)
    }

    fn open(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span { name, parent, op, start_ns, end_ns: start_ns });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Times `f` as a child span of `parent`.
    pub fn child<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records a span measured elsewhere (a phase time a library call
    /// returned, or a request timed by the client).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start: Instant,
        dur: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let op = self.spans.get(parent).map_or(0, |s| s.op);
        let start_ns = self.ns(start);
        let end_ns =
            start_ns.saturating_add(u64::try_from(dur.as_nanos()).unwrap_or(u64::MAX));
        self.spans.push(Span { name, parent: Some(parent), op, start_ns, end_ns });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Samples {
        let mut out = Samples::default();
        for s in self.spans.iter().filter(|s| s.name == name) {
            out.push((s.end_ns - s.start_ns) as f64 / 1e6);
        }
        out
    }

    /// Self time of every span: its duration minus the part of it that
    /// its child spans cover.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0u64, s.start_ns);
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Prints total and self time per span name and per layer (the part
    /// of the name before the first dot).
    pub fn print_self_times(&self) {
        let selfs = self.self_times_ns();
        let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        let mut by_layer: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
            e.2 += self_ns;
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *by_layer.entry(layer).or_default() += self_ns;
        }
        println!("self time by span ({} spans):", self.spans.len());
        println!("  {:<36} {:>7} {:>12} {:>12}", "span", "count", "total_ms", "self_ms");
        for (name, (count, total, own)) in &by_name {
            println!(
                "  {name:<36} {count:>7} {:>12.3} {:>12.3}",
                *total as f64 / 1e6,
                *own as f64 / 1e6
            );
        }
        println!("self time by layer:");
        for (layer, own) in &by_layer {
            println!("  {layer:<36} {:>12.3} ms", *own as f64 / 1e6);
        }
    }

    /// The recorded spans as Chrome `trace_event` JSON.
    pub fn chrome_json(&self, label: &str) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent =
                s.parent.map_or_else(|| "-".to_string(), |p| format!("{p:016x}"));
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"car\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":0,\"args\":{{\"uid\":\"{i:016x}\",\"parent\":\"{parent}\",\
                 \"op\":\"{}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op
            );
        }
        let _ = write!(out, "],\"otherData\":{{\"run\":\"{label}\"}}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let mut t = Tracer::new(true);
        let root = t.begin_op("op.x");
        let origin = t.origin;
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        t.record(
            "a.one",
            root,
            origin + Duration::from_nanos(10),
            Duration::from_nanos(30),
        );
        t.record(
            "a.two",
            root,
            origin + Duration::from_nanos(20),
            Duration::from_nanos(30),
        );
        // Children cover 10..50 — 40 of the root's 100 ns.
        assert_eq!(t.self_times_ns(), vec![60, 30, 30]);
        assert_eq!(t.durations_ms("a.one").len(), 1);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let root = t.begin_op("op.x");
        t.child("a.one", root, || ());
        t.end(root);
        assert_eq!(t.spans.len(), 0);
        assert!(t.chrome_json("x").contains("\"traceEvents\":[]"));
    }
}
