//! In-memory span recording for the traced run.
//!
//! The traced run calls each layer's public entry point itself and wraps
//! the call in a span: name, trace id (the round ordinal; 0 for
//! campaign-level work), parent, start and end. Spans stay in memory and
//! are written out once the run ends. A span's *self time* is its
//! duration minus the part of its interval that its direct children
//! cover, so the self times of a well-nested tree sum to the root's
//! duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary name, e.g. `netsim.run`.
    pub name: &'static str,
    /// Round ordinal the span belongs to (0 = campaign-level work).
    pub trace: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin (equal to `start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records a tree of spans; the innermost open span parents the next.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one; returns its index.
    pub fn enter(&mut self, name: &'static str, trace: u64) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            trace,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, trace: u64, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, trace);
        let out = f();
        self.exit(id);
        out
    }

    /// Consume the recorder, keeping its spans.
    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "a span was left open");
        self.spans
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time summed per span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trace: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 40),
            span("a.leaf", Some(1), 15, 25),
            span("b", Some(0), 60, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 10, 30]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 100, "self times of a nested tree sum to the root");
    }

    #[test]
    fn overlapping_children_count_once() {
        // Two children cover [10, 30) and [20, 50): the union is 40 ns.
        let spans = vec![
            span("root", None, 0, 100),
            span("x", Some(0), 20, 50),
            span("y", Some(0), 10, 30),
        ];
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("root", None, 10, 50),
            span("early", Some(0), 0, 20),
            span("late", Some(0), 45, 70),
        ];
        assert_eq!(self_times(&spans)[0], 25, "covers [10,20) and [45,50)");
    }

    #[test]
    fn self_time_by_name_sums_repeats() {
        let spans = vec![
            span("root", None, 0, 100),
            span("run", Some(0), 0, 30),
            span("run", Some(0), 50, 60),
        ];
        let by = self_time_by_name(&spans);
        assert_eq!(by["run"], 40);
        assert_eq!(by["root"], 60);
    }

    #[test]
    fn recorder_nests_and_times() {
        let mut rec = Recorder::new();
        let root = rec.enter("root", 0);
        let v = rec.time("leaf", 7, || 41 + 1);
        rec.exit(root);
        assert_eq!(v, 42);
        let spans = rec.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].trace, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].start_ns >= spans[0].start_ns);
    }
}
