//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! around calls into a layer's public functions, and around the staged
//! replays that re-run a call's stages one by one. Each span carries a
//! name, start and end (nanoseconds on one clock), an optional parent and
//! the id of the request or round it belongs to. A layer's *self time* is
//! its span's duration minus the part of that interval its children
//! cover, so overlapping children are not subtracted twice.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One finished (or open, `end == start`) span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        self.ns_at(Instant::now())
    }

    /// An [`Instant`] expressed on the tracer's clock.
    pub fn ns_at(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an already-timed span and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        request: u64,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            request,
        });
        self.spans.len() - 1
    }

    /// Opens a span that [`Tracer::close`] ends.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        let span = &mut self.spans[id];
        span.end = now.max(span.start);
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.record(name, start, end, parent, request);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-request self time of every span named `name`, summed over the
    /// request's spans of that name (a request that ran a stage 16 times
    /// reports the total), keyed by request id.
    pub fn self_time_by_request(&self, name: &str) -> BTreeMap<u64, u64> {
        let selfs = self_times(&self.spans);
        let mut out = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(selfs) {
            if span.name == name {
                *out.entry(span.request).or_insert(0) += own;
            }
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to the span itself.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start.clamp(parent.start, parent.end);
            let end = span.end.clamp(parent.start, parent.end);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| (span.end - span.start).saturating_sub(covered(kids)))
        .collect()
}

/// Total length of the union of `intervals`.
fn covered(mut intervals: Vec<(u64, u64)>) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 10, 25, None)]), vec![15]);
    }

    #[test]
    fn nested_children_are_subtracted_once_per_level() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        // The root loses only its direct child's 50; the grandchild is
        // already inside that interval.
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two children overlapping on [30,40): union is [20,50) = 30.
        let spans = [
            span("root", 0, 100, None),
            span("a", 20, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 30 - 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that started before and ends after its parent (clock
        // skew between threads) covers at most the parent itself.
        let spans = [span("root", 10, 20, None), span("a", 0, 30, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 30]);
        let spans = [span("root", 10, 20, None), span("a", 15, 30, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn per_request_sums_repeated_stages() {
        let mut t = Tracer::new();
        let root = t.record("batch", 0, 100, None, 7);
        t.record("eval", 10, 20, Some(root), 7);
        t.record("eval", 30, 45, Some(root), 7);
        t.record("eval", 0, 5, None, 8);
        let by = t.self_time_by_request("eval");
        assert_eq!(by.get(&7), Some(&25));
        assert_eq!(by.get(&8), Some(&5));
        assert_eq!(t.self_time_by_request("batch").get(&7), Some(&75));
    }

    #[test]
    fn timed_spans_nest_by_parent() {
        let mut t = Tracer::new();
        let outer = t.open("outer", None, 1);
        let x = t.time("inner", Some(outer), 1, || 6 * 7);
        t.close(outer);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        let selfs = self_times(spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].end - spans[0].start);
    }
}
