//! Spans recorded in the benchmark's own code, around each call into a
//! layer's public functions. Kept in memory; written out when the run ends.

use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant every span of this process is timed against, so spans from
/// different windows, threads and probes share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One timed interval: which layer call, for which operation, caused by
/// which enclosing span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Spans of one operation (statement, request, ingest call) share an id.
    pub op: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-threaded span recorder. Threads that trace concurrently each
/// own one and are merged afterwards.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { epoch: epoch(), spans: Vec::new(), open: Vec::new() }
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// tracer it receives become children.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span { name, op, parent, start_ns, end_ns: start_ns });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Append another tracer's spans.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(
            other.spans.into_iter().map(|s| Span { parent: s.parent.map(|p| p + offset), ..s }),
        );
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span: its duration minus the part its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per span name: how many, total duration, total self time (ns).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times_ns(spans);
    let mut totals: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (span, own) in spans.iter().zip(own) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += span.duration_ns();
        entry.2 += own;
    }
    totals
}

/// Render the spans as one JSON document (hand-written: span names are
/// identifiers, nothing needs escaping).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times_ns(spans);
    let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
    for (i, (span, own)) in spans.iter().zip(own).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            span.name, span.op, span.start_ns, span.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, op: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("query", None, 0, 100),
            span("build", Some(0), 10, 40),
            span("draw", Some(0), 40, 90),
            span("scatter", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 40, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["query"], (1, 100, 20));
        assert_eq!(totals["draw"], (1, 50, 40));
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut tracer = Tracer::new();
        tracer.span("outer", 7, |t| {
            t.span("first", 7, |_| ());
            t.span("second", 7, |t| t.span("leaf", 7, |_| ()));
        });
        tracer.span("next", 8, |_| ());
        let parents: Vec<Option<usize>> = tracer.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2), None]);
        for s in tracer.spans() {
            assert!(s.end_ns >= s.start_ns);
        }
    }

    #[test]
    fn absorbing_keeps_parent_links() {
        let mut a = Tracer::new();
        a.span("a", 0, |_| ());
        let mut b = Tracer::new();
        b.span("b", 1, |t| t.span("b.child", 1, |_| ()));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(to_json("w", a.spans()).contains("\"name\":\"b.child\""));
    }
}
