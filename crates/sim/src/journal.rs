//! The run's event stream — the one recorder of a run — and its JSONL
//! projection.
//!
//! Every fact a run reports about itself is recorded once, as a typed
//! [`JournalEvent`], into one [`Journal`]. Three outputs are projections
//! of that one stream, so they agree by construction:
//!
//! - the JSONL journal ([`write_journal`]) for machines: one flat JSON
//!   object per line, rich enough to reconstruct the superstep DAG
//!   offline — every charge against a simulated rank clock is journaled,
//!   so [`crate::analyze`](mod@crate::analyze) can re-derive the makespan, walk the critical
//!   path, and reconcile per-phase totals exactly;
//! - the Chrome trace ([`crate::trace::write_chrome_trace`]) for human
//!   eyeballs in a timeline viewer;
//! - the metrics snapshot ([`crate::MetricsSnapshot::from_events`]).
//!
//! Two kinds live in memory only and never reach the JSONL:
//! [`JournalEvent::Sample`] (trace counter lanes no other event carries)
//! and [`JournalEvent::Metric`] (metric observations no other event
//! carries). Recording is opt-in: a run without a journal records
//! nothing, and is bit-identical to one with it (pinned by
//! `tests/journal_schema.rs`). Events are recorded in a deterministic
//! order (rank-major within each superstep), so two identical runs
//! produce identical streams.
//!
//! No JSON dependency: lines are emitted directly and parsed by the small
//! flat-object parser in [`parse_flat_json`], which `dedukt analyze` and
//! `dedukt-bench --check` reuse.

use crate::metrics::MetricOp;
use crate::trace::escape;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::Mutex;

/// One typed event of a run's stream (one JSONL line, for every kind but
/// the in-memory-only [`JournalEvent::Sample`] and
/// [`JournalEvent::Metric`]).
///
/// The `ev` field on the wire names the variant; the vocabulary is pinned
/// by `tests/journal_schema.rs`. All times are simulated seconds unless a
/// variant says otherwise.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalEvent {
    /// Run header: what was run, on how many simulated resources.
    Meta {
        /// Pipeline mode label (e.g. `gpu-supermer`).
        mode: String,
        /// Simulated node count.
        nodes: usize,
        /// Simulated rank count.
        nranks: usize,
        /// Free-form configuration detail (k, fault/mem plans, …).
        detail: String,
    },
    /// One compute span on one rank's simulated timeline.
    Span {
        /// Superstep index (global, monotonically increasing).
        step: u64,
        /// Rank whose clock was charged.
        rank: usize,
        /// Step name (e.g. `build-supermers`, `count`, `retry-backoff`).
        phase: String,
        /// Span start on the rank's simulated clock, seconds.
        start: f64,
        /// Span end on the rank's simulated clock, seconds.
        end: f64,
    },
    /// One rank's share of a synchronizing collective.
    Collective {
        /// Collective index (the exchange superstep counter).
        step: u64,
        /// Participating rank.
        rank: usize,
        /// Collective label (e.g. `alltoallv`).
        label: String,
        /// Synchronized start instant (all ranks align here), seconds.
        start: f64,
        /// Pure wire time charged to this rank, seconds.
        wire: f64,
        /// Overlapped compute hidden behind the wire, seconds.
        hidden: f64,
        /// Time actually charged: `max(wire, hidden)`, seconds.
        charged: f64,
        /// Payload bytes this rank contributed to the collective
        /// (*logical* — pre-codec — bytes when wire compression is on).
        bytes: u64,
        /// Network tier the charge belongs to: `"inject"` (the fat-tree
        /// injection tier — all direct-route collectives and barriers) or
        /// `"intra"` (the intra-node gather/scatter tier of hierarchical
        /// routing). Journals written before routing landed omit the
        /// field; the parser defaults it to `"inject"`.
        tier: String,
        /// Bytes actually put on the wire after the codec — equals
        /// `bytes` when compression is off (and when the field is absent
        /// in an old journal).
        comp_bytes: u64,
    },
    /// A retry attempt after failed or corrupt bucket deliveries.
    Retry {
        /// Exchange round the retry belongs to.
        round: u64,
        /// Attempt index (1 = first retry).
        attempt: u32,
        /// Buckets whose send failed in flight on the previous attempt.
        failed: u64,
        /// Buckets that arrived corrupt and were discarded.
        corrupt: u64,
        /// Backoff charged to every rank before this attempt, seconds.
        backoff: f64,
    },
    /// Count-table grow-and-rehash total for one rank.
    Regrow {
        /// Rank whose table grew.
        rank: usize,
        /// Number of successful regrows.
        count: u64,
    },
    /// Host-spill total for one rank.
    Spill {
        /// Rank that spilled.
        rank: usize,
        /// k-mer instances parked on the host spill list.
        kmers: u64,
    },
    /// Device memory exhausted beyond recovery.
    Oom {
        /// Rank that ran out of device memory.
        rank: usize,
        /// Human-readable failure detail.
        detail: String,
    },
    /// A whole rank died at a round boundary and its key ranges were
    /// re-partitioned across the survivors.
    RankDead {
        /// Rank that died.
        rank: usize,
        /// Zero-based exchange round whose boundary detected the death.
        round: u64,
    },
    /// An elastic rescale shrank or grew the active rank set at a round
    /// boundary.
    Rescale {
        /// Zero-based exchange round the rescale took effect before.
        round: u64,
        /// Active ranks before the rescale.
        from: usize,
        /// Active ranks after the rescale.
        to: usize,
    },
    /// One storage-tier operation on the out-of-core bin store: a bin
    /// write or read, a transient-read retry, a quarantine after
    /// detected corruption, or a re-derive replaying the bin's input
    /// slice (DESIGN.md §12). Annotation only — the simulated seconds
    /// are charged through the owning rank's compute spans.
    Io {
        /// Operation: `write`, `read`, `retry`, `quarantine`, or
        /// `rederive`.
        op: String,
        /// Bin the operation touched.
        bin: u64,
        /// Payload bytes moved (0 for retries and quarantines).
        bytes: u64,
        /// Simulated seconds the operation cost its owning rank.
        secs: f64,
    },
    /// Driver phase summary, computed from the same accumulators as the
    /// run report and the metrics snapshot (reconciles exactly).
    Phase {
        /// Phase name: `parse`, `exchange`, or `count`.
        phase: String,
        /// Simulated seconds attributed to the phase.
        secs: f64,
    },
    /// Wall-clock stage timing (host `Instant`, *not* simulated time).
    Wall {
        /// Driver stage name.
        stage: String,
        /// Real elapsed seconds on the host.
        secs: f64,
    },
    /// Run trailer: the simulated makespan (max over rank clocks).
    Run {
        /// Simulated makespan, seconds.
        makespan: f64,
    },
    /// One sample of a Chrome-trace counter lane whose values no other
    /// event carries (`retry buckets`, `spill k-mers`, `hbm bytes`). In
    /// memory only: [`write_journal`] skips it.
    Sample {
        /// Counter-lane name.
        name: String,
        /// Rank the sample belongs to.
        rank: usize,
        /// Sample instant on the rank's simulated clock, seconds.
        ts: f64,
        /// Sampled value.
        value: f64,
    },
    /// One metric observation no other event carries (probe histograms,
    /// load factors, device peaks, wait seconds, …). In memory only:
    /// [`write_journal`] skips it.
    Metric {
        /// Series name.
        name: String,
        /// Per-rank lane, or `None` for a run-global series.
        rank: Option<usize>,
        /// How the observation folds into the series.
        op: MetricOp,
    },
}

/// Formats an `f64` so that parsing the text recovers the exact bits
/// (Rust's shortest-roundtrip `Display`).
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        // Journals never contain non-finite values; clamp defensively so
        // the output stays valid JSON.
        "0".to_string()
    }
}

impl JournalEvent {
    /// A [`JournalEvent::Metric`] observation.
    pub fn metric(name: &str, rank: Option<usize>, op: MetricOp) -> JournalEvent {
        JournalEvent::Metric {
            name: name.to_string(),
            rank,
            op,
        }
    }

    /// The `ev` discriminator this event serializes with.
    pub fn kind(&self) -> &'static str {
        match self {
            JournalEvent::Meta { .. } => "meta",
            JournalEvent::Span { .. } => "span",
            JournalEvent::Collective { .. } => "collective",
            JournalEvent::Retry { .. } => "retry",
            JournalEvent::Regrow { .. } => "regrow",
            JournalEvent::Spill { .. } => "spill",
            JournalEvent::Oom { .. } => "oom",
            JournalEvent::RankDead { .. } => "rankdead",
            JournalEvent::Rescale { .. } => "rescale",
            JournalEvent::Io { .. } => "io",
            JournalEvent::Phase { .. } => "phase",
            JournalEvent::Wall { .. } => "wall",
            JournalEvent::Run { .. } => "run",
            JournalEvent::Sample { .. } => "sample",
            JournalEvent::Metric { .. } => "metric",
        }
    }

    /// Serializes the event as one flat JSON object (no trailing newline);
    /// `None` for the in-memory-only kinds.
    pub fn to_json(&self) -> Option<String> {
        Some(match self {
            JournalEvent::Meta {
                mode,
                nodes,
                nranks,
                detail,
            } => format!(
                "{{\"ev\":\"meta\",\"mode\":\"{}\",\"nodes\":{nodes},\"nranks\":{nranks},\"detail\":\"{}\"}}",
                escape(mode),
                escape(detail)
            ),
            JournalEvent::Span {
                step,
                rank,
                phase,
                start,
                end,
            } => format!(
                "{{\"ev\":\"span\",\"step\":{step},\"rank\":{rank},\"phase\":\"{}\",\"start\":{},\"end\":{}}}",
                escape(phase),
                num(*start),
                num(*end)
            ),
            JournalEvent::Collective {
                step,
                rank,
                label,
                start,
                wire,
                hidden,
                charged,
                bytes,
                tier,
                comp_bytes,
            } => format!(
                "{{\"ev\":\"collective\",\"step\":{step},\"rank\":{rank},\"label\":\"{}\",\"start\":{},\"wire\":{},\"hidden\":{},\"charged\":{},\"bytes\":{bytes},\"tier\":\"{}\",\"comp_bytes\":{comp_bytes}}}",
                escape(label),
                num(*start),
                num(*wire),
                num(*hidden),
                num(*charged),
                escape(tier)
            ),
            JournalEvent::Retry {
                round,
                attempt,
                failed,
                corrupt,
                backoff,
            } => format!(
                "{{\"ev\":\"retry\",\"round\":{round},\"attempt\":{attempt},\"failed\":{failed},\"corrupt\":{corrupt},\"backoff\":{}}}",
                num(*backoff)
            ),
            JournalEvent::Regrow { rank, count } => {
                format!("{{\"ev\":\"regrow\",\"rank\":{rank},\"count\":{count}}}")
            }
            JournalEvent::Spill { rank, kmers } => {
                format!("{{\"ev\":\"spill\",\"rank\":{rank},\"kmers\":{kmers}}}")
            }
            JournalEvent::Oom { rank, detail } => format!(
                "{{\"ev\":\"oom\",\"rank\":{rank},\"detail\":\"{}\"}}",
                escape(detail)
            ),
            JournalEvent::RankDead { rank, round } => {
                format!("{{\"ev\":\"rankdead\",\"rank\":{rank},\"round\":{round}}}")
            }
            JournalEvent::Rescale { round, from, to } => {
                format!("{{\"ev\":\"rescale\",\"round\":{round},\"from\":{from},\"to\":{to}}}")
            }
            JournalEvent::Io {
                op,
                bin,
                bytes,
                secs,
            } => format!(
                "{{\"ev\":\"io\",\"op\":\"{}\",\"bin\":{bin},\"bytes\":{bytes},\"secs\":{}}}",
                escape(op),
                num(*secs)
            ),
            JournalEvent::Phase { phase, secs } => format!(
                "{{\"ev\":\"phase\",\"phase\":\"{}\",\"secs\":{}}}",
                escape(phase),
                num(*secs)
            ),
            JournalEvent::Wall { stage, secs } => format!(
                "{{\"ev\":\"wall\",\"stage\":\"{}\",\"secs\":{}}}",
                escape(stage),
                num(*secs)
            ),
            JournalEvent::Run { makespan } => {
                format!("{{\"ev\":\"run\",\"makespan\":{}}}", num(*makespan))
            }
            JournalEvent::Sample { .. } | JournalEvent::Metric { .. } => return None,
        })
    }

    /// Parses one JSONL line back into a typed event.
    pub fn parse(line: &str) -> Result<JournalEvent, String> {
        let map = parse_flat_json(line)?;
        let ev = map.str_field("ev")?;
        let event = match ev {
            "meta" => JournalEvent::Meta {
                mode: map.str_field("mode")?.to_string(),
                nodes: map.u64_field("nodes")? as usize,
                nranks: map.u64_field("nranks")? as usize,
                detail: map.str_field("detail")?.to_string(),
            },
            "span" => JournalEvent::Span {
                step: map.u64_field("step")?,
                rank: map.u64_field("rank")? as usize,
                phase: map.str_field("phase")?.to_string(),
                start: map.f64_field("start")?,
                end: map.f64_field("end")?,
            },
            "collective" => JournalEvent::Collective {
                step: map.u64_field("step")?,
                rank: map.u64_field("rank")? as usize,
                label: map.str_field("label")?.to_string(),
                start: map.f64_field("start")?,
                wire: map.f64_field("wire")?,
                hidden: map.f64_field("hidden")?,
                charged: map.f64_field("charged")?,
                bytes: map.u64_field("bytes")?,
                // Pre-routing journals lack the tier/codec fields; default
                // to the injection tier with an identity codec so old
                // journals keep analyzing.
                tier: match map.get("tier") {
                    Some(_) => map.str_field("tier")?.to_string(),
                    None => "inject".to_string(),
                },
                comp_bytes: match map.get("comp_bytes") {
                    Some(_) => map.u64_field("comp_bytes")?,
                    None => map.u64_field("bytes")?,
                },
            },
            "retry" => JournalEvent::Retry {
                round: map.u64_field("round")?,
                attempt: map.u64_field("attempt")? as u32,
                failed: map.u64_field("failed")?,
                corrupt: map.u64_field("corrupt")?,
                backoff: map.f64_field("backoff")?,
            },
            "regrow" => JournalEvent::Regrow {
                rank: map.u64_field("rank")? as usize,
                count: map.u64_field("count")?,
            },
            "spill" => JournalEvent::Spill {
                rank: map.u64_field("rank")? as usize,
                kmers: map.u64_field("kmers")?,
            },
            "oom" => JournalEvent::Oom {
                rank: map.u64_field("rank")? as usize,
                detail: map.str_field("detail")?.to_string(),
            },
            "rankdead" => JournalEvent::RankDead {
                rank: map.u64_field("rank")? as usize,
                round: map.u64_field("round")?,
            },
            "rescale" => JournalEvent::Rescale {
                round: map.u64_field("round")?,
                from: map.u64_field("from")? as usize,
                to: map.u64_field("to")? as usize,
            },
            "io" => JournalEvent::Io {
                op: map.str_field("op")?.to_string(),
                bin: map.u64_field("bin")?,
                bytes: map.u64_field("bytes")?,
                secs: map.f64_field("secs")?,
            },
            "phase" => JournalEvent::Phase {
                phase: map.str_field("phase")?.to_string(),
                secs: map.f64_field("secs")?,
            },
            "wall" => JournalEvent::Wall {
                stage: map.str_field("stage")?.to_string(),
                secs: map.f64_field("secs")?,
            },
            "run" => JournalEvent::Run {
                makespan: map.f64_field("makespan")?,
            },
            other => return Err(format!("unknown journal event kind `{other}`")),
        };
        Ok(event)
    }
}

/// A scalar value in a flat JSON object: string or number.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonScalar {
    /// An unescaped string value.
    Str(String),
    /// A numeric value (integers are exact up to 2^53).
    Num(f64),
}

/// A parsed flat JSON object (no nesting): field name → scalar.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FlatJson(BTreeMap<String, JsonScalar>);

impl FlatJson {
    /// Looks up a field.
    pub fn get(&self, key: &str) -> Option<&JsonScalar> {
        self.0.get(key)
    }

    /// A required string field.
    pub fn str_field(&self, key: &str) -> Result<&str, String> {
        match self.0.get(key) {
            Some(JsonScalar::Str(s)) => Ok(s),
            Some(JsonScalar::Num(_)) => Err(format!("field `{key}` is a number, not a string")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// A required numeric field.
    pub fn f64_field(&self, key: &str) -> Result<f64, String> {
        match self.0.get(key) {
            Some(JsonScalar::Num(n)) => Ok(*n),
            Some(JsonScalar::Str(_)) => Err(format!("field `{key}` is a string, not a number")),
            None => Err(format!("missing field `{key}`")),
        }
    }

    /// A required non-negative integer field.
    pub fn u64_field(&self, key: &str) -> Result<u64, String> {
        let n = self.f64_field(key)?;
        if n < 0.0 || n.fract() != 0.0 {
            return Err(format!("field `{key}`={n} is not a non-negative integer"));
        }
        Ok(n as u64)
    }
}

/// Parses one flat JSON object (`{"key": value, …}` with string or
/// numeric values, no nesting). This is deliberately the smallest parser
/// that reads what [`JournalEvent::to_json`] and the bench baseline rows
/// emit; it is not a general JSON parser.
pub fn parse_flat_json(line: &str) -> Result<FlatJson, String> {
    let mut chars = line.trim().chars().peekable();
    let mut map = BTreeMap::new();
    let skip_ws = |chars: &mut std::iter::Peekable<std::str::Chars>| {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
    };
    let parse_string =
        |chars: &mut std::iter::Peekable<std::str::Chars>| -> Result<String, String> {
            if chars.next() != Some('"') {
                return Err("expected `\"`".to_string());
            }
            let mut out = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(out),
                    Some('\\') => match chars.next() {
                        Some('"') => out.push('"'),
                        Some('\\') => out.push('\\'),
                        Some('n') => out.push('\n'),
                        Some('t') => out.push('\t'),
                        Some('r') => out.push('\r'),
                        Some('/') => out.push('/'),
                        Some('u') => {
                            let hex: String = (0..4).filter_map(|_| chars.next()).collect();
                            let cp = u32::from_str_radix(&hex, 16)
                                .map_err(|_| format!("bad \\u escape `{hex}`"))?;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape `\\{other:?}`")),
                    },
                    Some(c) => out.push(c),
                    None => return Err("unterminated string".to_string()),
                }
            }
        };
    skip_ws(&mut chars);
    if chars.next() != Some('{') {
        return Err("expected `{`".to_string());
    }
    loop {
        skip_ws(&mut chars);
        match chars.peek() {
            Some('}') => {
                chars.next();
                break;
            }
            Some('"') => {}
            other => return Err(format!("expected field name, found {other:?}")),
        }
        let key = parse_string(&mut chars)?;
        skip_ws(&mut chars);
        if chars.next() != Some(':') {
            return Err(format!("expected `:` after field `{key}`"));
        }
        skip_ws(&mut chars);
        let value = match chars.peek() {
            Some('"') => JsonScalar::Str(parse_string(&mut chars)?),
            Some(c) if *c == '-' || *c == '+' || c.is_ascii_digit() => {
                let mut text = String::new();
                while matches!(
                    chars.peek(),
                    Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E')
                ) {
                    text.push(chars.next().expect("peeked"));
                }
                JsonScalar::Num(
                    text.parse::<f64>()
                        .map_err(|_| format!("field `{key}`: bad number `{text}`"))?,
                )
            }
            other => return Err(format!("field `{key}`: unsupported value {other:?}")),
        };
        map.insert(key, value);
        skip_ws(&mut chars);
        match chars.next() {
            Some(',') => continue,
            Some('}') => break,
            other => return Err(format!("expected `,` or `}}`, found {other:?}")),
        }
    }
    skip_ws(&mut chars);
    if chars.next().is_some() {
        return Err("trailing characters after object".to_string());
    }
    Ok(FlatJson(map))
}

/// A thread-safe event collector, shared between the network engine and
/// the driver: the run's one recorder.
///
/// Pushes are cheap appends under a mutex; a run that never attaches a
/// journal pays nothing.
#[derive(Debug, Default)]
pub struct Journal {
    events: Mutex<Vec<JournalEvent>>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Journal {
        Journal::default()
    }

    /// Appends one event.
    pub fn push(&self, ev: JournalEvent) {
        self.events.lock().expect("journal poisoned").push(ev);
    }

    /// Appends many events in order.
    pub fn extend(&self, evs: impl IntoIterator<Item = JournalEvent>) {
        self.events.lock().expect("journal poisoned").extend(evs);
    }

    /// Drains the recorded events, leaving the journal empty.
    pub fn take(&self) -> Vec<JournalEvent> {
        std::mem::take(&mut *self.events.lock().expect("journal poisoned"))
    }
}

/// Writes events as JSONL: one [`JournalEvent::to_json`] object per line,
/// skipping the in-memory-only kinds.
pub fn write_journal<W: Write>(w: &mut W, events: &[JournalEvent]) -> io::Result<()> {
    for line in events.iter().filter_map(JournalEvent::to_json) {
        writeln!(w, "{line}")?;
    }
    Ok(())
}

/// Parses a JSONL journal back into typed events. Blank lines are
/// skipped; any malformed line is an error naming its line number.
pub fn read_journal(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut events = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = JournalEvent::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: JournalEvent) {
        let line = ev.to_json().expect("persisted kind");
        let back = JournalEvent::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        assert_eq!(back, ev, "roundtrip failed for {line}");
    }

    #[test]
    fn every_variant_roundtrips() {
        roundtrip(JournalEvent::Meta {
            mode: "gpu-supermer".into(),
            nodes: 2,
            nranks: 12,
            detail: "k=17 m=7 fault=\"none\"".into(),
        });
        roundtrip(JournalEvent::Span {
            step: 3,
            rank: 7,
            phase: "build-supermers".into(),
            start: 0.125,
            end: 0.3333333333333333,
        });
        roundtrip(JournalEvent::Collective {
            step: 5,
            rank: 1,
            label: "alltoallv".into(),
            start: 1.5e-3,
            wire: 2.0e-4,
            hidden: 0.0,
            charged: 2.0e-4,
            bytes: 1 << 40,
            tier: "inject".into(),
            comp_bytes: 1 << 40,
        });
        roundtrip(JournalEvent::Collective {
            step: 6,
            rank: 0,
            label: "alltoallv".into(),
            start: 2.0e-3,
            wire: 1.0e-4,
            hidden: 0.0,
            charged: 1.0e-4,
            bytes: 9_000,
            tier: "intra".into(),
            comp_bytes: 6_200, // compressed supermer payload
        });
        roundtrip(JournalEvent::Retry {
            round: 2,
            attempt: 1,
            failed: 3,
            corrupt: 1,
            backoff: 0.05,
        });
        roundtrip(JournalEvent::Regrow { rank: 4, count: 2 });
        roundtrip(JournalEvent::Spill {
            rank: 4,
            kmers: 100_000,
        });
        roundtrip(JournalEvent::Oom {
            rank: 9,
            detail: "spill limit exceeded\nafter 3 grows".into(),
        });
        roundtrip(JournalEvent::RankDead { rank: 5, round: 2 });
        roundtrip(JournalEvent::Rescale {
            round: 3,
            from: 12,
            to: 8,
        });
        roundtrip(JournalEvent::Io {
            op: "rederive".into(),
            bin: 17,
            bytes: 1 << 22,
            secs: 0.0625,
        });
        roundtrip(JournalEvent::Phase {
            phase: "exchange".into(),
            secs: 8.25,
        });
        roundtrip(JournalEvent::Wall {
            stage: "count".into(),
            secs: 0.001953125,
        });
        roundtrip(JournalEvent::Run { makespan: 10.75 });
    }

    #[test]
    fn floats_roundtrip_exactly() {
        // Shortest-roundtrip display must recover the exact bits even for
        // awkward values.
        for &x in &[0.1, 1.0 / 3.0, 1e-300, 123456.789012345, f64::MIN_POSITIVE] {
            let ev = JournalEvent::Run { makespan: x };
            match JournalEvent::parse(&ev.to_json().unwrap()).unwrap() {
                JournalEvent::Run { makespan } => assert_eq!(makespan.to_bits(), x.to_bits()),
                other => panic!("wrong variant {other:?}"),
            }
        }
    }

    #[test]
    fn journal_collects_in_order_and_drains() {
        let j = Journal::new();
        j.push(JournalEvent::Run { makespan: 1.0 });
        j.extend([
            JournalEvent::Run { makespan: 2.0 },
            JournalEvent::Run { makespan: 3.0 },
        ]);
        let evs = j.take();
        assert!(j.take().is_empty());
        assert_eq!(
            evs,
            vec![
                JournalEvent::Run { makespan: 1.0 },
                JournalEvent::Run { makespan: 2.0 },
                JournalEvent::Run { makespan: 3.0 },
            ]
        );
    }

    #[test]
    fn jsonl_write_read_roundtrip() {
        let events = vec![
            JournalEvent::Meta {
                mode: "cpu".into(),
                nodes: 1,
                nranks: 4,
                detail: "k=17".into(),
            },
            JournalEvent::Span {
                step: 0,
                rank: 0,
                phase: "parse".into(),
                start: 0.0,
                end: 0.5,
            },
            JournalEvent::Run { makespan: 0.5 },
        ];
        let mut buf = Vec::new();
        write_journal(&mut buf, &events).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert_eq!(read_journal(&text).unwrap(), events);
        // The in-memory-only kinds never reach the JSONL.
        let mut with_memory_only = events.clone();
        with_memory_only.insert(
            1,
            JournalEvent::Sample {
                name: "spill k-mers".into(),
                rank: 0,
                ts: 0.25,
                value: 7.0,
            },
        );
        with_memory_only.push(JournalEvent::Metric {
            name: "device_peak_bytes".into(),
            rank: Some(0),
            op: MetricOp::GaugeMax(4096.0),
        });
        let mut buf2 = Vec::new();
        write_journal(&mut buf2, &with_memory_only).unwrap();
        assert_eq!(buf2, text.as_bytes());
        // Blank lines are tolerated.
        assert_eq!(read_journal(&format!("\n{text}\n")).unwrap(), events);
    }

    #[test]
    fn legacy_collective_lines_default_tier_and_comp_bytes() {
        // A pre-routing journal line: no `tier`, no `comp_bytes`.
        let line = "{\"ev\":\"collective\",\"step\":2,\"rank\":3,\"label\":\"alltoallv\",\
                    \"start\":0.5,\"wire\":0.25,\"hidden\":0,\"charged\":0.25,\"bytes\":128}";
        match JournalEvent::parse(line).unwrap() {
            JournalEvent::Collective {
                tier,
                comp_bytes,
                bytes,
                ..
            } => {
                assert_eq!(tier, "inject");
                assert_eq!(comp_bytes, bytes);
                assert_eq!(bytes, 128);
            }
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(JournalEvent::parse("not json").is_err());
        assert!(JournalEvent::parse("{\"ev\":\"nope\"}").is_err());
        assert!(JournalEvent::parse("{\"ev\":\"run\"}")
            .unwrap_err()
            .contains("makespan"));
        assert!(read_journal("{\"ev\":\"run\",\"makespan\":1}\ngarbage")
            .unwrap_err()
            .contains("line 2"));
    }

    #[test]
    fn flat_parser_handles_escapes_and_numbers() {
        let map = parse_flat_json(
            "{\"a\": \"he said \\\"hi\\\"\\n\", \"b\": -1.5e3, \"c\": 42, \"d\": \"\\u0041\"}",
        )
        .unwrap();
        assert_eq!(map.str_field("a").unwrap(), "he said \"hi\"\n");
        assert_eq!(map.f64_field("b").unwrap(), -1500.0);
        assert_eq!(map.u64_field("c").unwrap(), 42);
        assert_eq!(map.str_field("d").unwrap(), "A");
        assert!(map.u64_field("b").is_err());
        assert!(map.str_field("missing").is_err());
        assert!(parse_flat_json("{\"a\": [1]}").is_err(), "no nesting");
        assert!(parse_flat_json("{\"a\": 1} trailing").is_err());
    }
}
