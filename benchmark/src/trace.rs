//! Spans recorded by the benchmark around its calls into each layer.
//! Kept in memory during the run and written out once it ends.

use std::time::Instant;

use crate::json::Json;

/// One timed interval. Times are microseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one op share this.
    pub op_id: u64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op_id: u64) -> usize {
        let now = self.now_us();
        self.spans.push(Span { name, start_us: now, end_us: now, parent, op_id });
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize) {
        self.spans[span].end_us = self.now_us();
    }

    /// Runs `f` inside a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: usize, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, Some(parent), self.spans[parent].op_id);
        let out = f();
        self.end(span);
        out
    }

    /// Records a span whose interval was measured elsewhere (the daemon
    /// reports its build time; the benchmark cannot see its start).
    pub fn record(&mut self, name: &'static str, parent: usize, start_us: f64, end_us: f64) {
        let op_id = self.spans[parent].op_id;
        self.spans.push(Span { name, start_us, end_us, parent: Some(parent), op_id });
    }

    pub fn to_json(&self) -> Json {
        let self_us = self_times_us(&self.spans);
        Json::Arr(
            self.spans
                .iter()
                .zip(self_us)
                .map(|(s, own)| {
                    Json::obj([
                        ("name", Json::str(s.name)),
                        ("start_us", Json::Num(s.start_us)),
                        ("end_us", Json::Num(s.end_us)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("op_id", Json::Num(s.op_id as f64)),
                        ("self_us", Json::Num(own)),
                    ])
                })
                .collect(),
        )
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its direct children cover. Overlapping children (two threads)
/// are counted once; a child reaching outside its parent is clipped.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_us.max(spans[p].start_us), s.end_us.min(spans[p].end_us));
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let (mut covered, mut reach) = (0.0, f64::NEG_INFINITY);
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span { name: "s", start_us, end_us, parent, op_id: 1 }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(0.0, 100.0, None),     // op
            span(10.0, 30.0, Some(0)),  // child
            span(20.0, 50.0, Some(0)),  // overlaps the first: union is 10..50
            span(60.0, 120.0, Some(0)), // clipped to 60..100
            span(22.0, 28.0, Some(2)),  // grandchild: charged to span 2 only
        ];
        assert_eq!(self_times_us(&spans), vec![20.0, 20.0, 24.0, 60.0, 6.0]);
    }

    #[test]
    fn tracer_nests_children_under_their_op() {
        let mut t = Tracer::new();
        let op = t.begin("op", None, 7);
        let v = t.child("stage", op, || 3);
        t.record("remote", op, t.spans[op].start_us, t.spans[op].start_us);
        t.end(op);
        assert_eq!(v, 3);
        assert_eq!(t.spans[1].parent, Some(op));
        assert_eq!(t.spans[2].op_id, 7);
        assert!(t.spans[op].end_us >= t.spans[1].end_us);
        let doc = t.to_json();
        assert_eq!(doc.as_arr().unwrap().len(), 3);
        assert_eq!(Json::parse(&doc.render()).unwrap(), doc);
    }
}
