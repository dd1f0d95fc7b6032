//! In-memory span recorder for the traced runs.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the program is instrumented. A span's
//! name is `<layer>.<what>`, so per-layer totals group by the prefix. Spans
//! stay in memory until the run ends, then go out as Chrome trace-event
//! JSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<what>`.
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root span.
    pub parent: Option<usize>,
    /// Training round the span belongs to.
    pub round: u64,
    /// Thread lane (0 = the driving thread).
    pub lane: u32,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer prefix of the name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records nested spans on one thread; [`Tracer::fork`] hands a child
/// tracer to another thread and [`Tracer::join`] folds its spans back.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Parent, in the tracer forked from, of this tracer's root spans.
    base: Option<usize>,
    round: u64,
    lane: u32,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            base: None,
            round: 0,
            lane: 0,
        }
    }

    /// Seconds since the origin.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Tags spans opened from now on with `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            round: self.round,
            lane: self.lane,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.now();
        out
    }

    /// A tracer for another thread whose root spans become children of the
    /// innermost span open here.
    pub fn fork(&self, lane: u32) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
            open: Vec::new(),
            base: self.open.last().copied(),
            round: self.round,
            lane,
        }
    }

    /// Folds a forked tracer's spans back in.
    pub fn join(&mut self, child: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = match s.parent {
                Some(p) => Some(p + offset),
                None => child.base,
            };
            s
        }));
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// Total length of the union of `intervals`.
pub fn union_len(intervals: &mut [(f64, f64)]) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for &(s, e) in intervals.iter() {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children running in parallel on other threads
/// are covered once, not once per thread.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let ps = &spans[p];
            let (a, b) = (s.start.max(ps.start), s.end.min(ps.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, c)| (s.secs() - union_len(c)).max(0.0))
        .collect()
}

/// Self time summed per layer.
pub fn layer_self(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer()).or_insert(0.0) += t;
    }
    out
}

/// Summed duration of every span called `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    // A fold from +0.0: an empty f64 `sum` is -0.0.
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold(0.0, |acc, s| acc + s.secs())
}

/// Number of spans called `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Share of `[from, to]` covered by root spans, leaving out roots whose
/// layer is `skip` (and their time from the window as well).
pub fn coverage(spans: &[Span], from: f64, to: f64, skip: &str) -> f64 {
    let mut roots: Vec<(f64, f64)> = Vec::new();
    let mut skipped: Vec<(f64, f64)> = Vec::new();
    for s in spans.iter().filter(|s| s.parent.is_none()) {
        let iv = (s.start.max(from), s.end.min(to));
        if iv.1 <= iv.0 {
            continue;
        }
        if s.layer() == skip {
            skipped.push(iv);
        } else {
            roots.push(iv);
        }
    }
    let window = (to - from) - union_len(&mut skipped);
    if window <= 0.0 {
        return 0.0;
    }
    union_len(&mut roots) / window
}

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) for `spans`.
pub fn chrome_json(spans: &[Span]) -> String {
    use serde::Value;
    let events: Vec<Value> = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Value::Obj(vec![
                ("name".into(), Value::Str(s.name.into())),
                ("cat".into(), Value::Str(s.layer().into())),
                ("ph".into(), Value::Str("X".into())),
                ("ts".into(), Value::F64(s.start * 1e6)),
                ("dur".into(), Value::F64(s.secs() * 1e6)),
                ("pid".into(), Value::U64(1)),
                ("tid".into(), Value::U64(u64::from(s.lane))),
                (
                    "args".into(),
                    Value::Obj(vec![
                        ("id".into(), Value::U64(i as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Value::Null, |p| Value::U64(p as u64)),
                        ),
                        ("round".into(), Value::U64(s.round)),
                    ]),
                ),
            ])
        })
        .collect();
    serde_json::to_string(&Value::Obj(vec![(
        "traceEvents".into(),
        Value::Arr(events),
    )]))
    .expect("trace events serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            round: 0,
            lane: 0,
        }
    }

    #[test]
    fn union_merges_overlaps_and_gaps() {
        assert_eq!(union_len(&mut []), 0.0);
        assert_eq!(union_len(&mut [(0.0, 1.0), (0.5, 2.0), (3.0, 4.0)]), 3.0);
        assert_eq!(union_len(&mut [(2.0, 3.0), (0.0, 1.0), (0.0, 1.0)]), 2.0);
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        // round [0,10] ⊃ fanout [1,6] ⊃ two parallel workers, grad inside one.
        let spans = vec![
            span("cluster.round", 0.0, 10.0, None),
            span("cluster.fanout", 1.0, 6.0, Some(0)),
            span("cluster.worker", 1.5, 5.0, Some(1)),
            span("cluster.worker", 2.0, 5.5, Some(1)),
            span("ml.grad", 2.0, 4.0, Some(2)),
            span("ml.apply", 7.0, 9.0, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 5.0 - 2.0);
        // Parallel workers cover [1.5, 5.5] once.
        assert_eq!(st[1], 5.0 - 4.0);
        assert_eq!(st[2], 3.5 - 2.0);
        assert_eq!(st[3], 3.5);
        assert_eq!(st[4], 2.0);
        assert_eq!(st[5], 2.0);
        let layers = layer_self(&spans);
        assert_eq!(layers["cluster"], 3.0 + 1.0 + 1.5 + 3.5);
        assert_eq!(layers["ml"], 4.0);
    }

    #[test]
    fn child_time_outside_the_parent_is_clipped() {
        let spans = vec![span("a.x", 0.0, 2.0, None), span("b.y", 1.0, 3.0, Some(0))];
        assert_eq!(self_times(&spans), vec![1.0, 2.0]);
    }

    #[test]
    fn coverage_counts_roots_once_and_skips_a_layer() {
        let spans = vec![
            span("cluster.round", 0.0, 4.0, None),
            span("ml.grad", 1.0, 2.0, Some(0)),
            span("ml.eval", 5.0, 6.0, None),
            span("replay.stages", 6.0, 8.0, None),
        ];
        // Window [0, 10] minus 2 s of replay = 8 s, of which 5 s covered.
        assert_eq!(coverage(&spans, 0.0, 10.0, "replay"), 5.0 / 8.0);
        assert_eq!(coverage(&spans, 0.0, 4.0, "replay"), 1.0);
    }

    #[test]
    fn forked_spans_join_under_the_open_parent() {
        let mut t = Tracer::new();
        t.span("cluster.fanout", |t| {
            let mut child = t.fork(1);
            child.span("cluster.worker", |c| c.span("ml.grad", |_| ()));
            t.join(child);
        });
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[0].name, "cluster.fanout");
        assert_eq!(s[1].name, "cluster.worker");
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].lane, 1);
        assert_eq!(s[2].parent, Some(1));
        assert!(s.iter().all(|x| x.end >= x.start));
        let json = chrome_json(s);
        assert!(json.starts_with("{\"traceEvents\":["));
    }
}
