//! In-memory spans recorded around calls into each layer's public
//! functions, written out when the run ends.
//!
//! A span has a name (`<layer>.<what>`), a start and end in nanoseconds
//! since the tracer's epoch, a parent span, the id of the op it belongs
//! to, and the number of calls it covers (a span may wrap a batch of
//! identical calls so the clock reads do not dominate a ~100 ns call).

use crate::stats;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per run; later spans are counted but not kept.
const SPAN_CAP: usize = 400_000;

/// Index of a recorded span.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<SpanId>,
    op: u64,
    calls: u32,
}

/// A single-threaded span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::with_epoch(Instant::now())
    }

    /// A recorder sharing `epoch` with others (one per thread), so their
    /// spans can be merged.
    pub fn with_epoch(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            dropped: 0,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span covering `calls` calls; returns its id, or
    /// `None` when the cap is reached.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        op: u64,
        calls: u32,
    ) -> Option<SpanId> {
        if self.spans.len() >= SPAN_CAP {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
            calls,
        });
        Some((self.spans.len() - 1) as SpanId)
    }

    /// Opens a span now; close it with [`Self::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> Option<SpanId> {
        let now = self.now();
        self.record(name, now, now, parent, op, 1)
    }

    pub fn end(&mut self, id: Option<SpanId>) {
        let now = self.now();
        if let Some(s) = id.and_then(|i| self.spans.get_mut(i as usize)) {
            s.end_ns = now;
        }
    }

    /// Runs `f` inside a span of `calls` calls.
    pub fn wrap<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        op: u64,
        calls: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, op, calls);
        out
    }

    /// Appends `other`'s spans (same epoch), re-basing parent ids.
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len() as SpanId;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= SPAN_CAP {
                self.dropped += 1;
                continue;
            }
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Mean nanoseconds per call over spans named `name`; 0 if none.
    pub fn ns_per_call(&self, name: &str) -> f64 {
        let (mut ns, mut calls) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.name == name) {
            ns += s.end_ns - s.start_ns;
            calls += u64::from(s.calls);
        }
        if calls == 0 {
            0.0
        } else {
            ns as f64 / calls as f64
        }
    }

    /// The `p`-quantile of the durations (µs) of spans named `name`.
    pub fn quantile_us(&self, name: &str, p: f64) -> f64 {
        let durs: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        stats::quantile(&stats::sorted(durs), p)
    }

    /// Self time per layer (the name up to the first `.`): each span's
    /// duration minus the part its children cover.
    pub fn self_time_by_layer(&self) -> BTreeMap<String, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            *out.entry(layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(kids);
        }
        out
    }
}

/// Writes the spans as JSON lines to `perfbench/out/trace-<workload>-<seed>.jsonl`.
pub fn write_spans(workload: &str, seed: u64, tracer: &Tracer) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-{seed}.jsonl"));
    let result = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        for (i, s) in tracer.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op\": {}, \"calls\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            )?;
        }
        w.flush()
    });
    match result {
        Ok(()) => eprintln!(
            "{workload}: {} spans written to {} ({} dropped past the cap)",
            tracer.spans.len(),
            path.display(),
            tracer.dropped
        ),
        Err(e) => eprintln!("{workload}: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.record("coord.roll", 0, 100, None, 1, 1);
        t.record("sched.plan", 10, 40, root, 1, 1);
        t.record("enforce.credit_install", 50, 60, root, 1, 1);
        let by = t.self_time_by_layer();
        assert_eq!(by["coord"], 60);
        assert_eq!(by["sched"], 30);
        assert_eq!(by["enforce"], 10);
        assert_eq!(t.ns_per_call("sched.plan"), 30.0);
    }
}
