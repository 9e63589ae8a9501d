//! The Chrome trace-event projection of a run's event stream.
//!
//! [`write_chrome_trace`] renders a run's [`JournalEvent`]s as the JSON
//! array format that `chrome://tracing`, Perfetto, and Speedscope all
//! ingest — one lane per simulated rank, simulated microseconds on the
//! x-axis. Each rank's lane carries a `thread_name` metadata event
//! (`"ph": "M"`) so viewers label it "rank N"; counter series
//! (`"ph": "C"`) render as per-rank counter tracks. No JSON dependency:
//! the format is simple enough to emit directly.

use crate::{JournalEvent, MetricOp};
use std::collections::BTreeSet;
use std::io::{self, Write};

/// Minimal JSON string escaping (quotes, backslashes, control chars).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a run's events as a Chrome trace-event JSON array
/// (timestamps in microseconds, as the format requires):
///
/// - each [`JournalEvent::Span`] becomes a `ph: "X"` event;
/// - each rank's share of a collective becomes an `alltoallv` X event
///   (a hierarchical collective's intra-node relay and injection events
///   merge into one span), plus a `count(overlap)` X event for the
///   compute it hid, and a cumulative `alltoallv bytes` counter sample
///   at the instant the rank's charge ends;
/// - each [`JournalEvent::Sample`] becomes a `ph: "C"` counter sample.
///
/// A span's length is `end - start`, or the two tier events' wire times,
/// which can be off from the charge in the last bit. The engine records
/// the exact charge right after the span as a metric observation (a
/// compute step's `compute_seconds_total`, a hierarchical collective's
/// `alltoallv_wire_seconds_total`), and that is the length drawn.
pub fn write_chrome_trace<W: Write>(w: &mut W, events: &[JournalEvent]) -> io::Result<()> {
    // (name, rank, start, duration) spans and (name, rank, ts, value)
    // counter samples, in simulated seconds.
    let mut spans: Vec<(&str, usize, f64, f64)> = Vec::new();
    let mut samples: Vec<(&str, usize, f64, f64)> = Vec::new();
    let mut sent: Vec<u64> = Vec::new();
    // A hierarchical collective's pending intra-node relay event:
    // (step, rank, start, wire, charged, physical bytes sent).
    let mut relay: Option<(u64, usize, f64, f64, f64, u64)> = None;
    // The span just recorded, and the metric that carries its exact
    // length when the event itself is off in the last bit.
    let mut open_span: Option<(usize, &str)> = None;
    for ev in events {
        let span = open_span.take();
        match ev {
            JournalEvent::Span {
                rank,
                phase,
                start,
                end,
                ..
            } => {
                open_span = Some((spans.len(), "compute_seconds_total"));
                spans.push((phase, *rank, *start, end - start));
            }
            JournalEvent::Metric {
                name,
                rank: Some(rank),
                op: MetricOp::GaugeAdd(exact),
            } => {
                if let Some((i, _)) =
                    span.filter(|&(i, carrier)| carrier == name && spans[i].1 == *rank)
                {
                    spans[i].3 = *exact;
                }
            }
            JournalEvent::Collective {
                step,
                rank,
                start,
                wire,
                hidden,
                charged,
                tier,
                comp_bytes,
                ..
            } => {
                if tier == "intra" {
                    relay = Some((*step, *rank, *start, *wire, *charged, comp_bytes / 2));
                    continue;
                }
                let (start, wire, charged, bytes) = match relay.take() {
                    Some((s, r, start, intra, intra_charged, bytes))
                        if (s, r) == (*step, *rank) =>
                    {
                        open_span = Some((spans.len(), "alltoallv_wire_seconds_total"));
                        (start, intra + wire, intra_charged + charged, bytes)
                    }
                    _ => (*start, *wire, *charged, *comp_bytes),
                };
                spans.push(("alltoallv", *rank, start, wire));
                if *hidden != 0.0 {
                    // The hidden count kernel runs on the rank's device
                    // stream while the wire is busy; it shares the
                    // collective's start.
                    spans.push(("count(overlap)", *rank, start, *hidden));
                }
                if sent.len() <= *rank {
                    sent.resize(rank + 1, 0);
                }
                sent[*rank] += bytes;
                samples.push((
                    "alltoallv bytes",
                    *rank,
                    start + charged,
                    sent[*rank] as f64,
                ));
            }
            JournalEvent::Sample {
                name,
                rank,
                ts,
                value,
            } => samples.push((name, *rank, *ts, *value)),
            _ => {}
        }
    }
    let ranks: BTreeSet<usize> = spans
        .iter()
        .chain(&samples)
        .map(|&(_, rank, ..)| rank)
        .collect();
    let mut lines: Vec<String> = Vec::with_capacity(ranks.len() + spans.len() + samples.len());
    for r in ranks {
        lines.push(format!(
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 0, \"tid\": {r}, \"args\": {{\"name\": \"rank {r}\"}}}}"
        ));
    }
    for (name, rank, start, duration) in spans {
        lines.push(format!(
            "  {{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 0, \"tid\": {rank}, \"ts\": {:.3}, \"dur\": {:.3}}}",
            escape(name),
            start * 1e6,
            duration * 1e6,
        ));
    }
    for (name, rank, ts, value) in samples {
        lines.push(format!(
            "  {{\"name\": \"{}\", \"ph\": \"C\", \"pid\": 0, \"tid\": {rank}, \"ts\": {:.3}, \"args\": {{\"value\": {value}}}}}",
            escape(name),
            ts * 1e6,
        ));
    }
    writeln!(w, "[")?;
    if !lines.is_empty() {
        writeln!(w, "{}", lines.join(",\n"))?;
    }
    writeln!(w, "]")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, rank: usize, start_us: f64, dur_us: f64) -> JournalEvent {
        JournalEvent::Span {
            step: 1,
            rank,
            phase: name.into(),
            start: start_us * 1e-6,
            end: (start_us + dur_us) * 1e-6,
        }
    }

    fn render(events: &[JournalEvent]) -> String {
        let mut buf = Vec::new();
        write_chrome_trace(&mut buf, events).unwrap();
        String::from_utf8(buf).unwrap()
    }

    #[allow(clippy::too_many_arguments)]
    fn collective(
        step: u64,
        rank: usize,
        tier: &str,
        start_us: f64,
        wire_us: f64,
        hidden_us: f64,
        comp_bytes: u64,
    ) -> JournalEvent {
        JournalEvent::Collective {
            step,
            rank,
            label: "alltoallv".into(),
            start: start_us * 1e-6,
            wire: wire_us * 1e-6,
            hidden: hidden_us * 1e-6,
            charged: wire_us.max(hidden_us) * 1e-6,
            bytes: comp_bytes,
            tier: tier.into(),
            comp_bytes,
        }
    }

    #[test]
    fn emits_valid_chrome_json() {
        let text = render(&[ev("parse", 0, 0.0, 100.0), ev("bucket", 1, 100.0, 50.5)]);
        assert!(text.trim_start().starts_with('['));
        assert!(text.trim_end().ends_with(']'));
        assert!(text.contains("\"name\": \"parse\""));
        assert!(text.contains("\"tid\": 1"));
        assert!(text.contains("\"dur\": 50.500"));
        // Two metadata events (ranks 0 and 1) + two span events = four
        // objects, so exactly three separating commas.
        assert_eq!(text.matches("},").count(), 3);
    }

    #[test]
    fn labels_every_rank_lane() {
        let text = render(&[ev("a", 0, 0.0, 1.0), ev("b", 3, 0.0, 1.0)]);
        assert!(text.contains("\"ph\": \"M\""));
        assert!(text.contains("\"args\": {\"name\": \"rank 0\"}"));
        assert!(text.contains("\"args\": {\"name\": \"rank 3\"}"));
        assert_eq!(text.matches("thread_name").count(), 2);
    }

    #[test]
    fn samples_become_counter_events() {
        let sample = |ts_us: f64, value: f64| JournalEvent::Sample {
            name: "spill k-mers".into(),
            rank: 0,
            ts: ts_us * 1e-6,
            value,
        };
        let text = render(&[
            ev("count", 0, 0.0, 10.0),
            sample(10.0, 4096.0),
            sample(20.0, 8192.0),
        ]);
        assert_eq!(text.matches("\"ph\": \"C\"").count(), 2);
        assert!(text.contains(
            "\"name\": \"spill k-mers\", \"ph\": \"C\", \"pid\": 0, \"tid\": 0, \"ts\": 10.000, \"args\": {\"value\": 4096}"
        ));
    }

    #[test]
    fn collectives_become_spans_and_a_cumulative_byte_lane() {
        let text = render(&[
            // Direct, overlapped: the hidden kernel gets its own span.
            collective(1, 0, "inject", 0.0, 4.0, 6.0, 64),
            // Hierarchical: one span from the relay's start, as long as
            // the exact wire time recorded after the tier events.
            collective(2, 0, "intra", 10.0, 1.0, 0.0, 2 * 32),
            collective(2, 0, "inject", 11.0, 3.0, 0.0, 16),
            JournalEvent::Metric {
                name: "alltoallv_wire_seconds_total".into(),
                rank: Some(0),
                op: MetricOp::GaugeAdd(4.5e-6),
            },
        ]);
        assert!(text.contains("\"name\": \"alltoallv\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 0.000, \"dur\": 4.000"));
        assert!(text.contains("\"name\": \"count(overlap)\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 0.000, \"dur\": 6.000"));
        assert!(text.contains("\"name\": \"alltoallv\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 10.000, \"dur\": 4.500"));
        assert_eq!(text.matches("\"name\": \"alltoallv\"").count(), 2);
        // Cumulative physical bytes, sampled where each charge ends.
        assert!(text.contains("\"ts\": 6.000, \"args\": {\"value\": 64}"));
        assert!(text.contains("\"ts\": 14.000, \"args\": {\"value\": 96}"));
    }

    #[test]
    fn span_lengths_come_from_the_exact_compute_charge() {
        let charge = |rank: usize, us: f64| JournalEvent::Metric {
            name: "compute_seconds_total".into(),
            rank: Some(rank),
            op: MetricOp::GaugeAdd(us * 1e-6),
        };
        let text = render(&[
            // A span whose `end` is off: the charge recorded after it wins.
            ev("count", 0, 0.0, 2.0),
            charge(0, 1.0),
            // A zero charge on another rank records no span and must not
            // touch the previous one; a span with no charge keeps its own.
            charge(1, 0.0),
            ev("retry-backoff", 0, 5.0, 3.0),
        ]);
        assert!(text.contains("\"name\": \"count\", \"ph\": \"X\", \"pid\": 0, \"tid\": 0, \"ts\": 0.000, \"dur\": 1.000"));
        assert!(text.contains("\"ts\": 5.000, \"dur\": 3.000"));
        assert!(!text.contains("\"tid\": 1"), "a zero charge draws nothing");
    }

    #[test]
    fn empty_trace_is_valid() {
        assert_eq!(render(&[]).split_whitespace().collect::<String>(), "[]");
    }

    #[test]
    fn escapes_hostile_names() {
        let text = render(&[ev("we\"ird\\name\n", 0, 0.0, 1.0)]);
        assert!(text.contains("we\\\"ird\\\\name\\u000a"));
    }
}
