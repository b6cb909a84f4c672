//! In-memory spans recorded around the benchmark's calls into each
//! layer of the program, written out when the run ends.
//!
//! A span's name is `<layer>.<call>`; its layer is the part before the
//! first dot. A layer's self time is the duration of its spans minus
//! the part of each span that its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span timed elsewhere (another thread, or a call whose
    /// bounds were captured before the tracer saw them).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let span = Span {
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Closes a span at `at`, a moment captured elsewhere.
    pub fn end_at(&mut self, id: SpanId, at: Instant) {
        self.spans[id].end_ns = self.ns(at);
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-6)
            .collect()
    }

    /// Nanoseconds of each span covered by its children (the union of
    /// the children's intervals, clipped to the parent).
    fn child_cover_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                if hi > lo {
                    children[p].push((lo, hi));
                }
            }
        }
        children
            .into_iter()
            .map(|mut iv| {
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (lo, hi) in iv {
                    let lo = lo.max(reach);
                    if hi > lo {
                        covered += hi - lo;
                        reach = hi;
                    }
                }
                covered
            })
            .collect()
    }

    /// Self time in milliseconds per layer, in first-seen order.
    pub fn self_ms_by_layer(&self) -> Vec<(&'static str, f64)> {
        let cover = self.child_cover_ns();
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for (s, c) in self.spans.iter().zip(cover) {
            let ms = s.duration_ns().saturating_sub(c) as f64 * 1e-6;
            match out.iter_mut().find(|(l, _)| *l == s.layer()) {
                Some((_, acc)) => *acc += ms,
                None => out.push((s.layer(), ms)),
            }
        }
        out
    }

    /// The share of the root spans called `root` that their child
    /// spans explain.
    pub fn coverage(&self, root: &str) -> f64 {
        let cover = self.child_cover_ns();
        let (mut covered, mut total) = (0u64, 0u64);
        for (s, c) in self.spans.iter().zip(cover) {
            if s.name == root {
                covered += c;
                total += s.duration_ns();
            }
        }
        covered as f64 / total as f64
    }

    /// The spans as JSON lines: `{"id", "parent", "name", "start_ns",
    /// "end_ns"}`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    fn tracer(spans: Vec<Span>) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = tracer(vec![
            span("bench.op", None, 0, 10_000_000),
            span("thermal.assemble", Some(0), 0, 2_000_000),
            span("solver.solve", Some(0), 2_000_000, 9_000_000),
            // Overlaps the solve: counted once in the parent's cover.
            span("solver.spmv", Some(2), 8_000_000, 9_000_000),
            span("solver.spmv", Some(0), 8_500_000, 9_500_000),
        ]);
        let by_layer = t.self_ms_by_layer();
        assert_eq!(
            by_layer,
            vec![
                ("bench", 0.5),
                ("thermal", 2.0),
                ("solver", 6.0 + 1.0 + 1.0)
            ]
        );
        assert!((t.coverage("bench.op") - 0.95).abs() < 1e-12);
    }

    #[test]
    fn recorded_spans_nest_and_serialise() {
        let mut t = Tracer::new();
        let root = t.begin("bench.op", None);
        let v = t.time("thermal.assemble", Some(root), || 21 * 2);
        t.end(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.durations_ms("thermal.assemble").len(), 1);
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\":0,\"name\":\"thermal.assemble\""));
        assert!(t.coverage("bench.op") <= 1.0);
    }
}
