//! Spans around the benchmark's calls into each layer.
//!
//! The traced run is single-threaded at this level (one layer drive or one
//! workload repetition at a time), so the recorder is a plain stack: a
//! span's parent is whatever span was open when it began. Spans stay in
//! memory and are written out once, at the end of the run. Counts taken
//! at a span's boundaries (messages, epochs, iterations) ride on the span,
//! so ratios are computed where the work happened.

use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Counts taken at this span's boundaries.
    pub counts: Vec<(String, f64)>,
}

/// In-memory span recorder for one traced run.
pub struct Tracer {
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &str) -> Tracer {
        Tracer {
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`; spans opened by `f` become its
    /// children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            counts: Vec::new(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Attach a count to the innermost open span.
    pub fn count(&mut self, name: &str, value: f64) {
        if let Some(&id) = self.open.last() {
            self.spans[id].counts.push((name.to_string(), value));
        }
    }

    /// The `trace.json` document: every span with its parent, duration
    /// and self time.
    pub fn to_json(&self) -> Value {
        let self_ns = self_times(&self.spans);
        Value::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Value::obj([
                        ("id", Value::Num(id as f64)),
                        ("name", Value::str(&s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("workload", Value::str(&self.workload)),
                        ("self_ns", Value::Num(self_ns[id] as f64)),
                        (
                            "counts",
                            Value::obj(s.counts.iter().map(|(k, v)| (k.as_str(), Value::Num(*v)))),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// A span's self time: its duration minus the part its direct children
/// cover. Children of one parent never overlap here (the recorder is a
/// stack), so the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let spans = vec![
            Span {
                name: "root".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
                counts: vec![],
            },
            Span {
                name: "a".into(),
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                counts: vec![],
            },
            Span {
                name: "a1".into(),
                start_ns: 15,
                end_ns: 25,
                parent: Some(1),
                counts: vec![],
            },
            Span {
                name: "b".into(),
                start_ns: 50,
                end_ns: 90,
                parent: Some(0),
                counts: vec![],
            },
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_assigns_parents_from_the_open_stack() {
        let mut t = Tracer::new("w");
        t.span("outer", |t| {
            t.count("messages", 3.0);
            t.span("inner", |_| ());
            t.span("inner2", |t| t.count("iters", 7.0));
        });
        t.span("sibling", |_| ());
        let parents: Vec<_> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert_eq!(t.spans[0].counts, vec![("messages".to_string(), 3.0)]);
        assert_eq!(t.spans[2].counts, vec![("iters".to_string(), 7.0)]);
        assert!(t.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let doc = t.to_json();
        assert_eq!(doc.as_arr().unwrap().len(), 4);
        assert_eq!(
            doc.as_arr().unwrap()[1].get("workload").unwrap().as_str(),
            Some("w")
        );
    }
}
