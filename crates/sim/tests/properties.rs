//! Property tests for the telemetry layer: histogram shards must merge
//! losslessly, and the Chrome-trace emitter must always produce
//! well-formed JSON, no matter how hostile the span/counter names are.

use dedukt_sim::{write_chrome_trace, Histogram, JournalEvent};
use proptest::prelude::*;

// ── A minimal JSON syntax checker ────────────────────────────────────────
// The workspace has no JSON dependency (by design — see trace.rs), so the
// tests prove well-formedness with a tiny recursive-descent recogniser.
// It accepts exactly RFC 8259 syntax and produces no values.

fn check_json(s: &str) -> Result<(), String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    json_value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing garbage at byte {i}"));
    }
    Ok(())
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && matches!(b[*i], b' ' | b'\t' | b'\n' | b'\r') {
        *i += 1;
    }
}

fn json_value(b: &[u8], i: &mut usize) -> Result<(), String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'{') => {
            *i += 1;
            json_seq(b, i, b'}', |b, i| {
                json_string(b, i)?;
                skip_ws(b, i);
                if b.get(*i) != Some(&b':') {
                    return Err(format!("expected ':' at byte {i}"));
                }
                *i += 1;
                json_value(b, i)
            })
        }
        Some(b'[') => {
            *i += 1;
            json_seq(b, i, b']', json_value)
        }
        Some(b'"') => json_string(b, i),
        Some(b't') => json_literal(b, i, b"true"),
        Some(b'f') => json_literal(b, i, b"false"),
        Some(b'n') => json_literal(b, i, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => json_number(b, i),
        _ => Err(format!("unexpected byte at {i}")),
    }
}

/// Parses `member (',' member)* close` or an immediate `close`.
fn json_seq(
    b: &[u8],
    i: &mut usize,
    close: u8,
    member: fn(&[u8], &mut usize) -> Result<(), String>,
) -> Result<(), String> {
    skip_ws(b, i);
    if b.get(*i) == Some(&close) {
        *i += 1;
        return Ok(());
    }
    loop {
        skip_ws(b, i);
        member(b, i)?;
        skip_ws(b, i);
        match b.get(*i) {
            Some(b',') => *i += 1,
            Some(c) if *c == close => {
                *i += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '{}' at byte {i}", close as char)),
        }
    }
}

fn json_string(b: &[u8], i: &mut usize) -> Result<(), String> {
    if b.get(*i) != Some(&b'"') {
        return Err(format!("expected '\"' at byte {i}"));
    }
    *i += 1;
    while let Some(&c) = b.get(*i) {
        match c {
            b'"' => {
                *i += 1;
                return Ok(());
            }
            b'\\' => {
                *i += 1;
                match b.get(*i) {
                    Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => *i += 1,
                    Some(b'u') => {
                        for k in 1..=4 {
                            if !b.get(*i + k).is_some_and(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {i}"));
                            }
                        }
                        *i += 5;
                    }
                    _ => return Err(format!("bad escape at byte {i}")),
                }
            }
            0x00..=0x1F => return Err(format!("raw control byte in string at {i}")),
            _ => *i += 1, // UTF-8 continuation bytes pass through
        }
    }
    Err("unterminated string".into())
}

fn json_number(b: &[u8], i: &mut usize) -> Result<(), String> {
    let start = *i;
    if b.get(*i) == Some(&b'-') {
        *i += 1;
    }
    let digits = |b: &[u8], i: &mut usize| {
        let from = *i;
        while b.get(*i).is_some_and(u8::is_ascii_digit) {
            *i += 1;
        }
        *i > from
    };
    if !digits(b, i) {
        return Err(format!("bad number at byte {start}"));
    }
    if b.get(*i) == Some(&b'.') {
        *i += 1;
        if !digits(b, i) {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(b.get(*i), Some(b'e' | b'E')) {
        *i += 1;
        if matches!(b.get(*i), Some(b'+' | b'-')) {
            *i += 1;
        }
        if !digits(b, i) {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn json_literal(b: &[u8], i: &mut usize, lit: &[u8]) -> Result<(), String> {
    if b.len() - *i >= lit.len() && &b[*i..*i + lit.len()] == lit {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {i}"))
    }
}

#[test]
fn json_checker_rejects_malformed_text() {
    for bad in [
        "",
        "[",
        "[1,]",
        "{\"a\" 1}",
        "[1] trailing",
        "\"unterminated",
        "\"bad \u{1} control\"",
        "[01e]",
        "{\"k\": }",
    ] {
        assert!(check_json(bad).is_err(), "accepted malformed: {bad:?}");
    }
    for good in ["[]", "[1.5, -2e9, \"a\\nb\", {\"k\": null}]", "{}"] {
        check_json(good).unwrap_or_else(|e| panic!("rejected {good:?}: {e}"));
    }
}

fn render_trace(events: &[JournalEvent]) -> String {
    let mut buf = Vec::new();
    write_chrome_trace(&mut buf, events).unwrap();
    String::from_utf8(buf).unwrap()
}

#[test]
fn trace_with_counters_and_hostile_names_is_valid_json() {
    let hostile = "quote\" slash\\ newline\n tab\t nul\u{0} unicode\u{1F9EC}";
    let events = vec![
        JournalEvent::Span {
            step: 1,
            rank: 0,
            phase: hostile.to_string(),
            start: 0.5e-6,
            end: 1.75e-6,
        },
        JournalEvent::Sample {
            name: hostile.to_string(),
            rank: 3,
            ts: 2e-6,
            value: 1e18,
        },
    ];
    let text = render_trace(&events);
    check_json(&text).unwrap_or_else(|e| panic!("invalid trace JSON ({e}):\n{text}"));
    // The metadata, span, and counter events all survived.
    assert_eq!(text.matches("\"ph\": \"M\"").count(), 2);
    assert_eq!(text.matches("\"ph\": \"X\"").count(), 1);
    assert_eq!(text.matches("\"ph\": \"C\"").count(), 1);
}

// Strategy for arbitrary span/counter names, biased toward JSON-hostile
// characters (the vendored proptest's string strategy is charset-based).
fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(0u32..128, 0..12).prop_map(|codes| {
        codes
            .into_iter()
            .map(|c| char::from_u32(c).unwrap_or('\u{FFFD}'))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Telemetry invariant: merging per-shard histograms gives exactly
    /// the histogram of the concatenated samples — bucket-wise and in
    /// every summary statistic. This is what lets every rank record its
    /// own histograms and the metrics fold merge them into one series.
    #[test]
    fn histogram_merge_equals_histogram_of_concatenation(
        shards in prop::collection::vec(
            prop::collection::vec(0u64..1 << 48, 0..40),
            0..6,
        ),
    ) {
        let mut merged = Histogram::new();
        for shard in &shards {
            let mut h = Histogram::new();
            for &v in shard {
                h.observe(v);
            }
            merged.merge(&h);
        }
        let mut whole = Histogram::new();
        for &v in shards.iter().flatten() {
            whole.observe(v);
        }
        prop_assert_eq!(merged.buckets(), whole.buckets());
        prop_assert_eq!(merged.count(), whole.count());
        prop_assert_eq!(merged.sum(), whole.sum());
        prop_assert_eq!(merged.min(), whole.min());
        prop_assert_eq!(merged.max(), whole.max());
    }

    /// Every histogram observation lands in the bucket whose bound
    /// brackets it, so merge order can never move samples across buckets.
    #[test]
    fn histogram_buckets_bracket_their_samples(v in 0u64..=u64::MAX) {
        let b = Histogram::bucket_of(v);
        prop_assert!(v <= Histogram::bucket_bound(b));
        if b > 0 {
            prop_assert!(v > Histogram::bucket_bound(b - 1));
        }
    }

    /// Quantile estimates are monotone in `q` and never leave the
    /// observed `[min, max]` range — the guarantees the analyzer's
    /// p50/p99 imbalance lines rest on.
    #[test]
    fn histogram_quantiles_are_monotone_and_bounded(
        samples in prop::collection::vec(0u64..1 << 48, 1..200),
        q_millis in prop::collection::vec(0u32..=1000, 2..12),
    ) {
        let mut h = Histogram::new();
        for &v in &samples {
            h.observe(v);
        }
        let mut sorted_q: Vec<f64> = q_millis.iter().map(|&m| m as f64 / 1000.0).collect();
        sorted_q.sort_by(f64::total_cmp);
        let mut last = None;
        for &q in &sorted_q {
            let est = h.quantile(q);
            prop_assert!(est >= h.min(), "q={q}: {est} < min {}", h.min());
            prop_assert!(est <= h.max(), "q={q}: {est} > max {}", h.max());
            if let Some(prev) = last {
                prop_assert!(est >= prev, "q={q}: {est} < previous {prev}");
            }
            last = Some(est);
        }
    }

    /// The trace emitter produces well-formed JSON for arbitrary names,
    /// ranks, timestamps, and counter values.
    #[test]
    fn chrome_trace_is_always_valid_json(
        names in prop::collection::vec(name_strategy(), 1..5),
        ranks in prop::collection::vec(0usize..16, 1..5),
        micros in prop::collection::vec(0u32..1_000_000, 1..5),
        values in prop::collection::vec(0u64..1 << 52, 1..5),
    ) {
        let n = names.len().min(ranks.len()).min(micros.len()).min(values.len());
        let mut events = Vec::new();
        for j in 0..n {
            let ts = micros[j] as f64 / 7.0 * 1e-6;
            events.push(JournalEvent::Span {
                step: j as u64,
                rank: ranks[j],
                phase: names[j].clone(),
                start: ts,
                end: ts + values[j] as f64 / 3.0 * 1e-6,
            });
            events.push(JournalEvent::Sample {
                name: names[j].clone(),
                rank: ranks[j],
                ts,
                value: values[j] as f64,
            });
        }
        let text = render_trace(&events);
        if let Err(e) = check_json(&text) {
            prop_assert!(false, "invalid trace JSON ({}):\n{}", e, text);
        }
    }
}
