//! Post-run profile: span aggregates, counter summary, histogram percentiles.
//!
//! [`render`] produces the human-readable table appended to the execution
//! report (stderr), and [`to_json`] the machine-readable `profile.json`.
//! Unlike `metrics.json`, the profile includes both planes and the span
//! durations — it is a timing artifact and makes no determinism claims.

use std::collections::BTreeMap;

use crate::metrics;
use crate::spans::SpanEvent;

/// Aggregate statistics for one span name.
#[derive(Debug, Clone)]
pub(crate) struct SpanAgg {
    /// Span name.
    pub name: &'static str,
    /// Number of occurrences.
    pub count: u64,
    /// Total wall-clock time, microseconds.
    pub total_us: u64,
    /// Total time not attributed to child spans, microseconds.
    pub self_us: u64,
}

/// Aggregate span events by name, ordered by descending total time (name as
/// tiebreak, so the order is stable).
pub(crate) fn aggregate(events: &[SpanEvent]) -> Vec<SpanAgg> {
    let mut by_name: BTreeMap<&'static str, SpanAgg> = BTreeMap::new();
    for e in events {
        let agg = by_name.entry(e.name).or_insert(SpanAgg {
            name: e.name,
            count: 0,
            total_us: 0,
            self_us: 0,
        });
        agg.count += 1;
        agg.total_us += e.dur_us;
        agg.self_us += e.self_us;
    }
    let mut aggs: Vec<SpanAgg> = by_name.into_values().collect();
    aggs.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(b.name)));
    aggs
}

fn fmt_us(us: u64) -> String {
    if us >= 10_000_000 {
        format!("{:.1}s", us as f64 / 1e6)
    } else if us >= 10_000 {
        format!("{:.1}ms", us as f64 / 1e3)
    } else {
        format!("{us}us")
    }
}

/// Render the profile table (goes to stderr via the execution report).
pub(crate) fn render(events: &[SpanEvent]) -> String {
    let mut s = String::new();
    s.push_str("-- run profile ------------------------------------------------\n");
    let aggs = aggregate(events);
    if aggs.is_empty() {
        s.push_str("no spans recorded\n");
    } else {
        s.push_str(&format!(
            "{:<12} {:>8} {:>12} {:>12} {:>12}\n",
            "span", "count", "total", "self", "mean"
        ));
        for a in &aggs {
            let mean = a.total_us.checked_div(a.count).unwrap_or(0);
            s.push_str(&format!(
                "{:<12} {:>8} {:>12} {:>12} {:>12}\n",
                a.name,
                a.count,
                fmt_us(a.total_us),
                fmt_us(a.self_us),
                fmt_us(mean)
            ));
        }
    }
    s.push_str(&format!(
        "{:<32} {:>14} {:>8}\n",
        "counter", "value", "plane"
    ));
    for c in metrics::counters() {
        s.push_str(&format!(
            "{:<32} {:>14} {:>8}\n",
            c.name(),
            c.get(),
            c.plane().name()
        ));
    }
    s.push_str(&format!(
        "{:<20} {:>10} {:>10} {:>10} {:>10}\n",
        "histogram", "count", "p50", "p90", "p99"
    ));
    for h in metrics::histograms() {
        s.push_str(&format!(
            "{:<20} {:>10} {:>10} {:>10} {:>10}\n",
            h.name(),
            h.count(),
            h.percentile(50),
            h.percentile(90),
            h.percentile(99)
        ));
    }
    s.push_str("---------------------------------------------------------------\n");
    s
}

/// Machine-readable profile (both planes). Names are static identifiers, so
/// no JSON string escaping is required.
pub(crate) fn to_json(events: &[SpanEvent]) -> String {
    let mut s = String::new();
    s.push_str("{\n  \"version\": 1,\n  \"spans\": [\n");
    let aggs = aggregate(events);
    for (i, a) in aggs.iter().enumerate() {
        let sep = if i + 1 == aggs.len() { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"total_us\": {}, \"self_us\": {}}}{}\n",
            a.name, a.count, a.total_us, a.self_us, sep
        ));
    }
    s.push_str("  ],\n  \"counters\": [\n");
    let n = metrics::counters().len();
    for (i, c) in metrics::counters().iter().enumerate() {
        let sep = if i + 1 == n { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"plane\": \"{}\", \"value\": {}}}{}\n",
            c.name(),
            c.plane().name(),
            c.get(),
            sep
        ));
    }
    s.push_str("  ],\n  \"histograms\": [\n");
    let n = metrics::histograms().len();
    for (i, h) in metrics::histograms().iter().enumerate() {
        let sep = if i + 1 == n { "" } else { "," };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"plane\": \"{}\", \"count\": {}, \"sum\": {}, \
             \"p50\": {}, \"p90\": {}, \"p99\": {}}}{}\n",
            h.name(),
            h.plane().name(),
            h.count(),
            h.sum(),
            h.percentile(50),
            h.percentile(90),
            h.percentile(99),
            sep
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, dur: u64, self_us: u64, seq: u64) -> SpanEvent {
        SpanEvent {
            cell: 0,
            seed: 0,
            attempt: 0,
            seq,
            name,
            depth: 0,
            detail: 0,
            dur_us: dur,
            self_us,
        }
    }

    #[test]
    fn aggregation_orders_by_total_time() {
        let events = vec![
            ev("round", 10, 5, 0),
            ev("round", 30, 10, 1),
            ev("train", 100, 100, 2),
        ];
        let aggs = aggregate(&events);
        assert_eq!(aggs[0].name, "train");
        assert_eq!(aggs[1].name, "round");
        assert_eq!(aggs[1].count, 2);
        assert_eq!(aggs[1].total_us, 40);
        assert_eq!(aggs[1].self_us, 15);
    }

    #[test]
    fn render_and_json_include_catalogue() {
        let events = vec![ev("grid", 50, 50, 0)];
        let text = render(&events);
        assert!(text.contains("run profile"));
        assert!(text.contains("grid"));
        assert!(text.contains("engine.rounds"));
        assert!(text.contains("gemm.mnk"));
        let json = to_json(&events);
        assert!(json.contains("\"version\": 1"));
        assert!(json.contains("\"spans\""));
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"plane\": \"sched\""));
    }

    #[test]
    fn fmt_us_ranges() {
        assert_eq!(fmt_us(999), "999us");
        assert_eq!(fmt_us(20_000), "20.0ms");
        assert_eq!(fmt_us(12_000_000), "12.0s");
    }
}
