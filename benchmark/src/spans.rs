//! The benchmark's own spans: recorded in memory around its calls into each
//! layer, written out once when the run ends. Nothing is recorded inside the
//! program under test.

use crate::clock;
use jobserver::json::Json;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

/// An open span; close it with [`Recorder::exit`].
#[derive(Debug)]
#[must_use]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Span recorder for one workload. A disabled recorder still times (so the
/// untraced pass shares the code path) but stores nothing.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: clock::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enter(&mut self, name: &str) -> Open {
        let start = clock::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name: name.to_string(),
                parent: self.stack.last().copied(),
                start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
                end_us: f64::NAN,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, start }
    }

    /// Close `open` and return its duration in seconds.
    pub fn exit(&mut self, open: Open) -> f64 {
        let end = clock::now();
        if let Some(index) = open.index {
            self.spans[index].end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
            self.stack.retain(|&i| i != index);
        }
        end.duration_since(open.start).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per closed span, with its self time.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let selfs = self_times_us(&self.spans);
        let mut out = String::new();
        for (i, (span, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            if span.end_us.is_nan() {
                continue;
            }
            let parent = span.parent.map_or(Json::Null, |p| Json::num(p as u64));
            let line = Json::obj(vec![
                ("id", Json::num(i as u64)),
                ("parent", parent),
                ("workload", Json::str(workload)),
                ("name", Json::str(span.name.clone())),
                ("start_us", Json::Num(span.start_us)),
                ("end_us", Json::Num(span.end_us)),
                ("self_us", Json::Num(self_us)),
            ]);
            out.push_str(&line.encode());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            let parent = &spans[p];
            let start = span.start_us.max(parent.start_us);
            let end = span.end_us.min(parent.end_us);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (start, end) in kids {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            span.end_us - span.start_us - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: name.to_string(),
            parent,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let spans = vec![
            span("root", None, 0.0, 100.0),
            span("a", Some(0), 10.0, 40.0),
            // Overlaps `a` by 10: the union covers 10..60, not 30 + 30.
            span("b", Some(0), 30.0, 60.0),
            span("c", Some(0), 80.0, 90.0),
            // A grandchild takes from `a`, not from the root.
            span("a1", Some(1), 15.0, 25.0),
            // Sticks out of its parent: only the part inside counts.
            span("late", Some(3), 85.0, 95.0),
        ];
        assert_eq!(
            self_times_us(&spans),
            vec![40.0, 20.0, 30.0, 5.0, 10.0, 10.0]
        );
    }

    #[test]
    fn recorder_nests_and_a_disabled_one_stores_nothing() {
        let mut rec = Recorder::new(true);
        let outer = rec.enter("outer");
        let inner = rec.enter("inner");
        assert!(rec.exit(inner) >= 0.0);
        rec.exit(outer);
        let sibling = rec.enter("sibling");
        rec.exit(sibling);
        let parents: Vec<_> = rec.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), None]);
        let jsonl = rec.to_jsonl("w");
        assert_eq!(jsonl.lines().count(), 3);
        let first = Json::parse(jsonl.lines().nth(1).unwrap()).unwrap();
        assert_eq!(first.get("name").and_then(Json::as_str), Some("inner"));
        assert_eq!(first.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(first.get("workload").and_then(Json::as_str), Some("w"));

        let mut off = Recorder::new(false);
        let open = off.enter("x");
        assert!(off.exit(open) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
