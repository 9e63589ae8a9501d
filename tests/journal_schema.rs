//! Golden tests for the run journal (`--journal` / `dedukt analyze`):
//! the event vocabulary is a schema the offline analyzer keys on, so
//! this file pins it, pins the zero-observer-effect guarantee (a run
//! without a journal is bit-identical to one with it), pins that the
//! trace, metrics and journal outputs are projections of one stream
//! (any of the three flags records the same events), and pins the
//! accounting the analyzer's invariant check relies on — journal phase
//! totals reconcile *exactly* with the report and the metrics gauges,
//! and `critical path ≤ makespan ≤ total rank-seconds` holds under
//! overlap, faults, and memory pressure alike.

use dedukt::core::pipeline::{run, RunReport};
use dedukt::core::{Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ReadSet, ScalePreset};
use dedukt::gpu::{MemPlan, MemSpec};
use dedukt::net::{FaultPlan, FaultSpec, RankPlan, RankSpec};
use dedukt::sim::{analyze, JournalEvent, MetricValue};
use std::collections::BTreeSet;

fn tiny_reads() -> ReadSet {
    Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate()
}

/// A fault plan that actually retries, a memory plan that actually
/// fires regrow + spill + denied-grow recovery on the tiny slice (the
/// distinct-key count per rank is far below the instance count, so the
/// shrink factor must be harsh before the estimate-sized table
/// overflows), and a rank plan + rescale schedule that kill a rank and
/// shrink the world — the round cap forces enough exchange rounds for
/// both boundary events to fire.
fn hostile_config(mode: Mode) -> RunConfig {
    let mut rc = RunConfig::new(mode, 2);
    rc.collect_journal = true;
    rc.round_limit_bytes = Some(4096);
    rc.fault = Some(FaultPlan::new(
        42,
        FaultSpec::parse("fail=0.2,corrupt=0.1,retries=8").unwrap(),
    ));
    rc.mem = Some(MemPlan::new(
        5,
        MemSpec::parse("under=0.6,shrink=0.04,afail=0.4,spill=1048576").unwrap(),
    ));
    rc.rank = Some(RankPlan::new(
        9,
        RankSpec::parse("rate=0,kill=1:1").unwrap(),
    ));
    rc.checkpoint_rounds = Some(2);
    rc.rescale = vec![(2, 10)];
    rc
}

/// Every `ev` kind the pipelines may write to the JSONL. Renaming or
/// adding one is a breaking change for `dedukt analyze` — update
/// DESIGN.md §9 alongside this list.
const EVENT_KINDS: &[&str] = &[
    "meta",
    "span",
    "collective",
    "retry",
    "regrow",
    "spill",
    "oom",
    "rankdead",
    "rescale",
    "io",
    "phase",
    "wall",
    "run",
];

/// A two-pass run whose io plan provably damages bins (quarantine +
/// re-derive) and draws transient read errors (io retries), with budgets
/// big enough to survive. Seed pinned — the draws are deterministic.
fn hostile_two_pass_config(mode: Mode) -> RunConfig {
    let mut rc = RunConfig::new(mode, 2);
    rc.collect_journal = true;
    rc.two_pass_dir = Some(std::env::temp_dir().join(format!(
        "dedukt-journal-two-pass-{}-{}",
        std::process::id(),
        mode.label()
    )));
    rc.io = Some(dedukt::store::IoPlan::new(
        7,
        dedukt::store::IoSpec::parse("torn=0.05,rot=0.05,readerr=0.3,retries=8,rederive=8")
            .unwrap(),
    ));
    rc
}

#[test]
fn journal_event_vocabulary_is_pinned() {
    let reads = tiny_reads();
    let report = run(&reads, &hostile_config(Mode::GpuSupermer)).expect("survivable plans");
    let events = report.events.as_ref().expect("journal requested");

    // The out-of-core lane is the only emitter of `io` events; union its
    // hostile run into the coverage check.
    let tp_rc = hostile_two_pass_config(Mode::GpuSupermer);
    let tp = run(&reads, &tp_rc).expect("survivable io plan");
    std::fs::remove_dir_all(tp_rc.two_pass_dir.as_ref().unwrap()).ok();
    let tp_events = tp.events.as_ref().expect("journal requested");

    // The in-memory-only kinds never reach the JSONL; both are recorded.
    let kinds: BTreeSet<&str> = events.iter().chain(tp_events).map(|e| e.kind()).collect();
    for k in ["sample", "metric"] {
        assert!(kinds.contains(k), "hostile runs recorded no {k:?} events");
    }
    let kinds: BTreeSet<&str> = events
        .iter()
        .chain(tp_events)
        .filter(|e| e.to_json().is_some())
        .map(|e| e.kind())
        .collect();
    for k in &kinds {
        assert!(EVENT_KINDS.contains(k), "unknown event kind {k:?}");
    }
    // The two hostile runs together exercise the whole vocabulary.
    for k in EVENT_KINDS {
        assert!(kinds.contains(k), "hostile runs emitted no {k:?} events");
    }

    // The io lane itself covers its whole op vocabulary, and the
    // two-pass meta header names the out-of-core knobs.
    let ops: BTreeSet<&str> = tp_events
        .iter()
        .filter_map(|e| match e {
            JournalEvent::Io { op, .. } => Some(op.as_str()),
            _ => None,
        })
        .collect();
    for op in ["write", "read", "retry", "quarantine", "rederive"] {
        assert!(
            ops.contains(op),
            "hostile two-pass run emitted no {op:?} io events"
        );
    }
    match &tp_events[0] {
        JournalEvent::Meta { detail, .. } => {
            assert!(
                detail.contains("two-pass"),
                "detail missing two-pass: {detail}"
            );
            assert!(detail.contains("io["), "detail missing io spec: {detail}");
        }
        other => panic!("first event is {other:?}"),
    }

    // Envelope: exactly one meta first, exactly one run trailer last.
    assert_eq!(events.first().map(|e| e.kind()), Some("meta"));
    assert_eq!(events.last().map(|e| e.kind()), Some("run"));
    assert_eq!(events.iter().filter(|e| e.kind() == "meta").count(), 1);
    assert_eq!(events.iter().filter(|e| e.kind() == "run").count(), 1);

    // The meta header carries the run configuration for the report.
    match &events[0] {
        JournalEvent::Meta {
            mode,
            nodes,
            nranks,
            detail,
        } => {
            assert_eq!(mode, "gpu-supermer");
            assert_eq!(*nodes, 2);
            assert_eq!(*nranks, report.nranks);
            assert!(
                detail.contains("fault["),
                "detail missing fault spec: {detail}"
            );
            assert!(detail.contains("mem["), "detail missing mem spec: {detail}");
            assert!(
                detail.contains("rank["),
                "detail missing rank spec: {detail}"
            );
            assert!(
                detail.contains("checkpoint-rounds=2") && detail.contains("rescale=2:10"),
                "detail missing recovery knobs: {detail}"
            );
        }
        other => panic!("first event is {other:?}"),
    }
}

/// Everything the JSONL carries survives the round trip bit-exactly;
/// only the in-memory-only kinds are dropped, and the analysis of the
/// reparsed file is the analysis of the run's own events.
#[test]
fn journal_roundtrips_through_jsonl_bit_exactly() {
    let reads = tiny_reads();
    let report = run(&reads, &hostile_config(Mode::GpuKmer)).expect("survivable plans");
    let events = report.events.expect("journal requested");
    let mut buf = Vec::new();
    dedukt::sim::write_journal(&mut buf, &events).unwrap();
    let parsed = dedukt::sim::read_journal(std::str::from_utf8(&buf).unwrap()).unwrap();
    let persisted: Vec<JournalEvent> = events
        .iter()
        .filter(|e| !matches!(e, JournalEvent::Sample { .. } | JournalEvent::Metric { .. }))
        .cloned()
        .collect();
    assert!(
        persisted.len() < events.len(),
        "hostile runs record in-memory kinds"
    );
    assert_eq!(parsed, persisted, "JSONL round-trip must be lossless");
    assert_eq!(
        analyze(&parsed).expect("well-formed journal"),
        analyze(&events).expect("well-formed events"),
        "the analysis must not depend on the in-memory-only kinds"
    );
}

/// Recording on or off changes nothing else a run reports: not a single
/// simulated time, volume, load, or count.
#[test]
fn journal_off_runs_are_bit_identical() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        let off = run(&reads, &rc).expect("valid config");
        rc.collect_journal = true;
        let on = run(&reads, &rc).expect("valid config");
        assert!(off.events.is_none());
        assert!(on.events.is_some());
        assert_eq!(off.phases.parse, on.phases.parse, "mode {mode:?}");
        assert_eq!(off.phases.exchange, on.phases.exchange, "mode {mode:?}");
        assert_eq!(off.phases.count, on.phases.count, "mode {mode:?}");
        assert_eq!(off.makespan, on.makespan, "mode {mode:?}");
        assert_eq!(off.total_kmers, on.total_kmers);
        assert_eq!(off.distinct_kmers, on.distinct_kmers);
        assert_eq!(off.exchange.bytes, on.exchange.bytes);
        assert_eq!(off.load.kmers_per_rank, on.load.kmers_per_rank);
        // Every other report field, down to the last simulated bit.
        let rest = |r: &RunReport| {
            let mut r = r.clone();
            r.events = None;
            r.wall = Default::default();
            format!("{r:?}")
        };
        assert_eq!(rest(&off), rest(&on), "mode {mode:?}");
    }
}

/// The trace, the metrics and the journal are projections of one event
/// stream: asking for any one of them records the same events.
#[test]
fn every_output_flag_records_the_same_stream() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let asks: [fn(&mut RunConfig); 3] = [
            |rc| rc.collect_trace = true,
            |rc| rc.collect_metrics = true,
            |rc| rc.collect_journal = true,
        ];
        let runs: Vec<Vec<JournalEvent>> = asks
            .iter()
            .map(|ask| {
                let mut rc = RunConfig::new(mode, 2);
                ask(&mut rc);
                let mut events = run(&reads, &rc).expect("valid config").events.unwrap();
                // Host seconds are the one nondeterministic fact.
                for e in &mut events {
                    if let JournalEvent::Wall { secs, .. } = e {
                        *secs = 0.0;
                    }
                }
                events
            })
            .collect();
        assert_eq!(runs[0], runs[1], "{mode:?}: trace-only vs metrics-only");
        assert_eq!(runs[0], runs[2], "{mode:?}: trace-only vs journal-only");
    }
}

/// The analyzer's reconciliation is *exact*, not epsilon-close: the
/// journal's phase events, the report's phase breakdown, and the
/// `phase_seconds:*` metrics gauges all come from the same accumulators.
#[test]
fn journal_phases_reconcile_exactly_with_report_and_metrics() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_journal = true;
        rc.collect_metrics = true;
        let report = run(&reads, &rc).expect("valid config");
        let a = analyze(report.events.as_ref().unwrap()).expect("well-formed journal");
        a.check_invariants().expect("journal accounting reconciles");

        assert_eq!(a.phase("parse"), report.phases.parse.as_secs(), "{mode:?}");
        assert_eq!(
            a.phase("exchange"),
            report.phases.exchange.as_secs(),
            "{mode:?}"
        );
        assert_eq!(a.phase("count"), report.phases.count.as_secs(), "{mode:?}");
        assert_eq!(a.makespan, report.makespan.as_secs(), "{mode:?}");

        let snap = report.metrics().unwrap();
        for (name, phase) in [
            ("phase_seconds:parse", "parse"),
            ("phase_seconds:exchange", "exchange"),
            ("phase_seconds:count", "count"),
        ] {
            match snap.get(name, None) {
                Some(MetricValue::Gauge(g)) => assert_eq!(*g, a.phase(phase), "{mode:?} {name}"),
                other => panic!("{mode:?}: {name} is {other:?}"),
            }
        }
        match snap.get("makespan_seconds", None) {
            Some(MetricValue::Gauge(g)) => assert_eq!(*g, a.makespan, "{mode:?}"),
            other => panic!("{mode:?}: makespan_seconds is {other:?}"),
        }

        // The wall lane is nondeterministic but internally consistent:
        // four stages, all finite and non-negative, totalled in the
        // report, the journal, and the metrics alike.
        assert_eq!(a.wall.len(), 4, "{mode:?}");
        assert_eq!(a.wall_stage("total"), report.wall.total, "{mode:?}");
        assert!(report.wall.total > 0.0, "{mode:?}");
        assert!(
            report.wall.parse + report.wall.rounds + report.wall.finish <= report.wall.total,
            "{mode:?}: stage walls exceed the run wall"
        );
        match snap.get("wall_seconds:total", None) {
            Some(MetricValue::Gauge(g)) => assert_eq!(*g, report.wall.total, "{mode:?}"),
            other => panic!("{mode:?}: wall_seconds:total is {other:?}"),
        }
    }
}

/// The DAG invariants hold under every scheduling regime, not just the
/// clean path: memory-bounded rounds, overlapped rounds, faults, and
/// memory pressure.
#[test]
fn critical_path_invariants_hold_under_every_regime() {
    let reads = tiny_reads();
    let mut configs: Vec<(String, RunConfig)> = Vec::new();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut clean = RunConfig::new(mode, 2);
        clean.collect_journal = true;
        configs.push((format!("{mode:?} clean"), clean));
        configs.push((format!("{mode:?} hostile"), hostile_config(mode)));

        let mut rounds = RunConfig::new(mode, 2);
        rounds.collect_journal = true;
        rounds.round_limit_bytes = Some(4096);
        configs.push((format!("{mode:?} rounds"), rounds));

        let mut overlap = RunConfig::new(mode, 2);
        overlap.collect_journal = true;
        overlap.round_limit_bytes = Some(4096);
        overlap.overlap_rounds = true;
        configs.push((format!("{mode:?} overlap"), overlap));
    }
    for (tag, rc) in configs {
        let report = run(&reads, &rc).expect("survivable config");
        let a = analyze(report.events.as_ref().unwrap()).expect("well-formed journal");
        a.check_invariants()
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        assert!(
            a.critical_len <= a.makespan + 1e-12,
            "{tag}: critical path {} > makespan {}",
            a.critical_len,
            a.makespan
        );
        assert!(
            a.makespan <= a.total_rank_seconds + 1e-12,
            "{tag}: makespan {} > rank-seconds {}",
            a.makespan,
            a.total_rank_seconds
        );
        assert!(!a.critical_path.is_empty(), "{tag}: empty critical path");
        // The critical path segments chain contiguously in time.
        for w in a.critical_path.windows(2) {
            assert!(
                w[1].start >= w[0].start + w[0].duration - 1e-9,
                "{tag}: critical path segments overlap"
            );
        }
    }
}

/// Recovery accounting: the hostile run's retry, regrow, spill, and OOM
/// events in the journal agree with the report's exchange summary and
/// are attributed to real ranks.
#[test]
fn recovery_events_reconcile_with_the_report() {
    let reads = tiny_reads();
    let report = run(&reads, &hostile_config(Mode::GpuSupermer)).expect("survivable plans");
    let a = analyze(report.events.as_ref().unwrap()).expect("well-formed journal");

    // Each journal retry event carries the failed + corrupt bucket
    // counts that forced it; their sum is exactly what the exchange
    // summary calls `retries`.
    let redelivered: u64 = a.retries.iter().map(|r| r.2 + r.3).sum();
    assert_eq!(
        redelivered, report.exchange.retries,
        "journal retry events must account for every redelivered bucket"
    );
    assert!(a.retry_attempts() > 0, "hostile fault plan forces retries");
    assert!(a.backoff_seconds() > 0.0, "retries charge backoff time");
    assert!(a.regrow_count() > 0, "hostile mem plan fires regrows");
    assert!(a.spilled_kmers() > 0, "hostile mem plan fires spills");
    assert!(
        !a.ooms.is_empty(),
        "hostile mem plan denies at least one grow"
    );
    for (rank, _) in a.regrows.iter().chain(&a.spills) {
        assert!(*rank < report.nranks);
    }
}

/// Collective events carry the exchange tier (`intra` | `inject`) and
/// the physical `comp_bytes` next to the logical `bytes`: direct
/// uncompressed runs stay single-tier with the two byte counts equal
/// (the legacy schema, now explicit), hierarchical + `--wire-compress`
/// runs split into both tiers with the codec undercutting the logical
/// injection volume — and the analyzer reconciles either shape.
#[test]
fn collective_events_carry_tier_and_comp_bytes() {
    let reads = tiny_reads();
    let tiers = |r: &RunReport| -> Vec<(String, u64, u64)> {
        r.events
            .as_ref()
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Collective {
                    tier,
                    bytes,
                    comp_bytes,
                    ..
                } => Some((tier.clone(), *bytes, *comp_bytes)),
                _ => None,
            })
            .collect()
    };

    let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
    rc.collect_journal = true;
    let direct = run(&reads, &rc).expect("valid config");
    let d = tiers(&direct);
    assert!(!d.is_empty(), "supermer run emits collective events");
    for (tier, bytes, comp) in &d {
        assert_eq!(tier, "inject", "direct routing is single-tier");
        assert_eq!(comp, bytes, "no codec: physical equals logical");
    }

    rc.exchange_algo = dedukt::net::cost::ExchangeAlgo::NodeAggregated;
    rc.wire_compress = true;
    let routed = run(&reads, &rc).expect("valid config");
    assert_eq!(routed.total_kmers, direct.total_kmers);
    assert_eq!(routed.distinct_kmers, direct.distinct_kmers);
    let h = tiers(&routed);
    let seen: BTreeSet<&str> = h.iter().map(|(t, ..)| t.as_str()).collect();
    assert_eq!(
        seen,
        BTreeSet::from(["intra", "inject"]),
        "hierarchical runs emit both tiers and nothing else"
    );
    let (mut logical, mut physical) = (0u64, 0u64);
    for (tier, bytes, comp) in &h {
        if tier == "inject" {
            logical += bytes;
            physical += comp;
        }
    }
    assert!(
        physical < logical,
        "codec must shrink the injection tier: {physical} physical vs {logical} logical"
    );

    let a = analyze(routed.events.as_ref().unwrap()).expect("well-formed journal");
    a.check_invariants().expect("tiered journal reconciles");
    assert!(a.intra_seconds() > 0.0, "intra tier charges time");
    assert!(a.inject_seconds() > 0.0, "injection tier charges time");
    assert_eq!(a.exchange_comp_bytes(), physical);
}

/// The `hbm bytes` trace-counter lane only exists when pressure actually
/// fired: zero-pressure traces stay byte-identical to the pre-lane
/// schema.
#[test]
fn hbm_trace_lane_is_gated_on_pressure() {
    let reads = tiny_reads();
    let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
    rc.collect_trace = true;
    let clean = run(&reads, &rc).expect("valid config");
    // `(lane, rank, value)` of every recorded counter sample.
    let samples = |r: &RunReport| -> Vec<(String, usize, f64)> {
        r.events
            .as_ref()
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Sample {
                    name, rank, value, ..
                } => Some((name.clone(), *rank, *value)),
                _ => None,
            })
            .collect()
    };
    let lanes = |r: &RunReport| -> BTreeSet<String> {
        samples(r).into_iter().map(|(name, ..)| name).collect()
    };
    assert!(
        !lanes(&clean).contains("hbm bytes"),
        "zero-pressure trace must not grow an hbm lane"
    );

    let mut hostile = hostile_config(Mode::GpuSupermer);
    hostile.collect_trace = true;
    hostile.fault = None;
    let pressured = run(&reads, &hostile).expect("survivable plan");
    assert!(
        lanes(&pressured).contains("hbm bytes"),
        "pressured trace carries the hbm lane"
    );
    let hbm: Vec<_> = samples(&pressured)
        .into_iter()
        .filter(|(name, ..)| name == "hbm bytes")
        .collect();
    assert!(!hbm.is_empty());
    for (_, rank, value) in &hbm {
        assert!(*rank < pressured.nranks);
        assert!(*value > 0.0, "hbm samples are high-water bytes");
    }
    // The trace projection draws them as its counter lane.
    let mut trace = Vec::new();
    dedukt::sim::write_chrome_trace(&mut trace, pressured.events.as_ref().unwrap()).unwrap();
    let trace = String::from_utf8(trace).unwrap();
    assert!(trace.contains("\"name\": \"hbm bytes\", \"ph\": \"C\""));
}
