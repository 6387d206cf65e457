//! In-memory spans recorded around calls into the simulator's layers.
//!
//! Spans are kept in memory while the benchmark runs and written out
//! once at the end, so tracing adds no I/O to the measured calls.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One timed call: its name, the span that made it, and its interval in
/// nanoseconds since the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, such as `netsim.des`.
    pub name: String,
    /// The enclosing span.
    pub parent: Option<SpanId>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; `f` receives the new span's
    /// id so it can open child spans.
    pub fn span<R>(&self, name: &str, parent: Option<SpanId>, f: impl FnOnce(SpanId) -> R) -> R {
        let id = {
            let mut spans = self
                .spans
                .lock()
                .expect("no thread panics holding the span list");
            spans.push(Span {
                name: name.to_string(),
                parent,
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics holding the span list")[id]
            .end_ns = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics holding the span list")
            .clone()
    }

    /// An empty tracer on the same clock, for spans kept apart until
    /// they are absorbed.
    pub fn sibling(&self) -> Tracer {
        Tracer {
            epoch: self.epoch,
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Appends spans recorded by a sibling, keeping their parent links.
    pub fn absorb(&self, spans: Vec<Span>) {
        let mut mine = self
            .spans
            .lock()
            .expect("no thread panics holding the span list");
        let offset = mine.len();
        mine.extend(spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + offset),
            ..s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children covers. Children may overlap (two
/// clients running cells at once) and are clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            let (lo, hi) = (s.start_ns, s.end_ns.max(s.start_ns));
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = lo;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(hi));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

/// Self time summed per span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Spans as JSON lines, one object per span, for the trace file.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            // Two clients: [10, 50) and [30, 70) overlap on [30, 50).
            span("cell", Some(0), 10, 50),
            span("cell", Some(0), 30, 70),
            // Nested inside the first cell; it does not count for `pass`.
            span("des", Some(1), 20, 40),
            // Runs past its parent's end: clipped to [90, 100).
            span("cell", Some(0), 90, 120),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 60 - 10);
        assert_eq!(own[1], 40 - 20);
        assert_eq!(own[2], 40);
        assert_eq!(own[3], 20);
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["cell"], (20 + 40 + 30) as f64 / 1e6);
    }

    #[test]
    fn identical_and_nested_children_count_once() {
        let spans = vec![
            span("root", None, 0, 10),
            span("a", Some(0), 2, 6),
            span("a", Some(0), 2, 6),
            span("b", Some(0), 3, 4),
        ];
        assert_eq!(self_times_ns(&spans)[0], 6);
    }

    #[test]
    fn tracer_links_children_to_parents() {
        let t = Tracer::default();
        let inner = t.span("outer", None, |id| t.span("inner", Some(id), |inner| inner));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[inner].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        assert!(to_json_lines(&spans).contains("\"parent\":0"));
    }
}
