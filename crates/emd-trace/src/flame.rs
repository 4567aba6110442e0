//! Self-profiling: collapse `PhaseSpan` events into flamegraph.pl's
//! collapsed-stack text format.
//!
//! Each output line is `frame1;frame2;... <self-nanoseconds>` — the exact
//! input `flamegraph.pl` (or `inferno-flamegraph`) consumes. The root
//! frame is always `emd`; a span with a `parent` phase nests one level
//! deeper (`emd;finalize;scan`). Parent frames report **self time**
//! (their total minus their direct children), saturating at zero when
//! clock jitter makes children sum past the parent.

use crate::event::{TraceEvent, TraceEventKind};
use std::collections::BTreeMap;

/// Aggregate the `PhaseSpan` events of a trace into collapsed-stack text.
/// Returns an empty string when the trace holds no spans.
pub fn to_collapsed_stacks(events: &[TraceEvent]) -> String {
    let mut totals: BTreeMap<String, u64> = BTreeMap::new();
    for ev in events {
        if ev.kind != TraceEventKind::PhaseSpan {
            continue;
        }
        let (Some(phase), Some(dur)) = (ev.phase, ev.dur_ns) else {
            continue;
        };
        let stack = match ev.parent {
            Some(parent) => format!("emd;{};{}", parent.name(), phase.name()),
            None => format!("emd;{}", phase.name()),
        };
        *totals.entry(stack).or_insert(0) += dur;
    }
    render(totals)
}

/// Turn per-stack totals into self-time lines, sorted by stack name.
fn render(totals: BTreeMap<String, u64>) -> String {
    let mut out = String::new();
    for (stack, total) in &totals {
        let children_ns: u64 = totals
            .iter()
            .filter(|(other, _)| is_direct_child(stack, other))
            .map(|(_, ns)| *ns)
            .sum();
        let self_ns = total.saturating_sub(children_ns);
        if self_ns > 0 {
            out.push_str(stack);
            out.push(' ');
            out.push_str(&self_ns.to_string());
            out.push('\n');
        }
    }
    out
}

fn is_direct_child(parent: &str, candidate: &str) -> bool {
    candidate
        .strip_prefix(parent)
        .and_then(|rest| rest.strip_prefix(';'))
        .is_some_and(|tail| !tail.contains(';'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent, TraceEventKind as K, TracePhase as P};

    fn span(phase: P, parent: Option<P>, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            phase: Some(phase),
            parent,
            dur_ns: Some(dur_ns),
            ..TraceEvent::of(K::PhaseSpan)
        }
    }

    #[test]
    fn aggregates_and_subtracts_children() {
        let events = vec![
            span(P::LocalInfer, None, 100),
            span(P::LocalInfer, None, 50),
            span(P::Finalize, None, 1000),
            span(P::Scan, Some(P::Finalize), 300),
            span(P::Emit, Some(P::Finalize), 200),
        ];
        let text = to_collapsed_stacks(&events);
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"emd;local_infer 150"));
        assert!(lines.contains(&"emd;finalize;scan 300"));
        assert!(lines.contains(&"emd;finalize;emit 200"));
        assert!(
            lines.contains(&"emd;finalize 500"),
            "finalize reports self time: {text}"
        );
    }

    #[test]
    fn children_exceeding_parent_saturate() {
        let events = vec![
            span(P::Finalize, None, 100),
            span(P::Scan, Some(P::Finalize), 150),
        ];
        let text = to_collapsed_stacks(&events);
        assert!(text.contains("emd;finalize;scan 150"));
        assert!(!text.contains("emd;finalize 0"), "zero lines dropped");
        assert!(!text.contains("emd;finalize "), "no negative self time");
    }

    #[test]
    fn non_span_events_are_ignored() {
        let events = vec![TraceEvent::of(K::BatchStart)];
        assert!(to_collapsed_stacks(&events).is_empty());
    }

    #[test]
    fn output_is_wellformed_collapsed_stack() {
        let events = vec![
            span(P::LocalInfer, None, 10),
            span(P::Scan, Some(P::Finalize), 20),
        ];
        for line in to_collapsed_stacks(&events).lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("space-separated");
            assert!(stack.starts_with("emd"));
            assert!(stack.split(';').all(|f| !f.is_empty()));
            ns.parse::<u64>().expect("numeric self time");
        }
    }
}
