//! In-memory spans and their reduction to per-layer self times.
//!
//! A [`Tracer`] records one [`Span`] per call into a layer: name, start,
//! end, parent and request id. Spans are kept in memory while the workload
//! replays and written out once at the end ([`Tracer::write_jsonl`]). A
//! span's *self time* is its duration minus the part of its interval that
//! its children cover; children may nest or overlap, so the covered part
//! is the union of their intervals clipped to the parent.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.search`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a request's root.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans in memory, nesting each new span under the innermost open
/// one.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                span.name, span.start_ns, span.end_ns, span.request
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Children's covered nanoseconds of every span.
fn child_coverage(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| covered(kids, span.start_ns, span.end_ns))
        .collect()
}

/// Self time of every span: its duration minus the union of its children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_coverage(spans))
        .map(|(span, kids)| span.duration_ns() - kids)
        .collect()
}

/// Share of the duration of each span named `name` that its children
/// cover, in start order (1 for a zero-length span).
pub fn coverage(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(child_coverage(spans))
        .filter(|(span, _)| span.name == name)
        .map(|(span, kids)| match span.duration_ns() {
            0 => 1.0,
            total => kids as f64 / total as f64,
        })
        .collect()
}

/// Durations in milliseconds of the spans named `name`, in start order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|span| span.name == name)
        .map(|span| span.duration_ns() as f64 / 1e6)
        .collect()
}

/// Per-name aggregate of a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans with this name.
    pub calls: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
}

impl LayerTotals {
    /// Mean duration per call in milliseconds (0 without calls).
    pub fn mean_ms(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.total_ns as f64 / self.calls as f64 / 1e6
    }

    /// Mean self time per call in milliseconds (0 without calls).
    pub fn mean_self_ms(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.self_ns as f64 / self.calls as f64 / 1e6
    }
}

/// Reduces a trace to per-name call counts, durations and self times.
pub fn reduce(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let totals = out.entry(span.name).or_default();
        totals.calls += 1;
        totals.total_ns += span.duration_ns();
        totals.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 40, Some(0)),
            span("grandchild", 20, 30, Some(1)),
            span("child", 50, 60, Some(0)),
        ];
        // The grandchild is inside its parent, so it never counts against
        // the root a second time.
        assert_eq!(self_times(&spans), vec![60, 20, 10, 10]);
        assert_eq!(coverage(&spans, "root"), vec![0.4]);
        assert_eq!(durations_ms(&spans, "child"), vec![30e-6, 10e-6]);
        let totals = reduce(&spans);
        assert_eq!(totals["child"].calls, 2);
        assert_eq!(totals["child"].total_ns, 40);
        assert_eq!(totals["child"].self_ns, 30);
        assert_eq!(totals["root"].self_ns, 60);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 35, 45, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 40);
        assert_eq!(coverage(&spans, "root"), vec![0.6]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![
            span("root", 100, 200, None),
            span("early", 50, 120, Some(0)),
            span("late", 190, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 70);
    }

    #[test]
    fn the_tracer_nests_spans_and_keeps_request_ids() {
        let mut tracer = Tracer::new();
        tracer.span("root", 7, |t| {
            t.span("inner", 7, |t| t.span("leaf", 7, |_| ()));
            t.span("inner", 7, |_| ());
        });
        tracer.span("root", 8, |_| ());
        let spans = tracer.spans();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!(spans[4].parent, None);
        assert_eq!(spans[4].request, 8);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let times = self_times(spans);
        assert!(times.iter().zip(spans).all(|(t, s)| *t <= s.duration_ns()));
    }
}
