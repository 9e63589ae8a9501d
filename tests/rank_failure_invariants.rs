//! Property tests of rank-level failure and elastic rescale (DESIGN.md
//! §11): for any deterministic rank plan — drawn deaths, pinned kills,
//! checkpoint cadence, rescale schedule — on any engine, any key width,
//! any routing × codec, the counted spectrum is bit-identical to the
//! undisturbed run or the run fails cleanly (`RanksLost` when the
//! recovery budget is exhausted, `DeviceOom` when rerouted load
//! legitimately overwhelms a survivor). Deaths re-home minimizer ranges
//! to survivors, so per-rank placement is *not* part of the contract —
//! only the instance-total conservation that `assert_counts_identical`
//! pins.

mod common;

use common::{assert_counts_identical, instrumented_config, run_maybe_spooled, tiny_reads};
use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::{Mode, PackedKmer, RunConfig};
use dedukt::dna::ReadSet;
use dedukt::gpu::{MemPlan, MemSpec};
use dedukt::net::cost::ExchangeAlgo;
use dedukt::net::{FaultPlan, FaultSpec, RankPlan, RankSpec};
use dedukt::sim::JournalEvent;
use proptest::prelude::*;

/// Ranks per node by engine (the Summit shapes the simulator models).
fn ranks_per_node(mode: Mode) -> usize {
    match mode {
        Mode::CpuBaseline => 42,
        Mode::GpuKmer | Mode::GpuSupermer => 6,
    }
}

/// Runs `mode` with and without the recovery plan and checks every
/// rank-failure invariant. Returns the disturbed report for further
/// assertions, or `None` when the plan legitimately failed cleanly
/// (budget exhausted, or rerouted load OOMing a survivor) — which must
/// surface as `RanksLost` / `DeviceOom`, never a panic. With
/// `two_pass` the disturbed run spools out of core and is held to the
/// same in-memory reference.
#[allow(clippy::too_many_arguments)]
fn check_rank_failure_invariants<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    plan: Option<RankPlan>,
    checkpoint: Option<u64>,
    rescale: Vec<(u64, usize)>,
    algo: ExchangeAlgo,
    compress: bool,
    two_pass: bool,
) -> Option<RunReport<K>> {
    let mut rc = instrumented_config(mode, nodes, k);
    rc.collect_journal = true;
    // Deaths fire at round boundaries: cap rounds so there are several.
    rc.round_limit_bytes = Some(4096);
    rc.exchange_algo = algo;
    rc.wire_compress = compress;
    let clean = run_typed::<K>(reads, &rc).expect("undisturbed run cannot fail");

    let has_plan = plan.is_some();
    rc.rank = plan;
    rc.checkpoint_rounds = checkpoint;
    rc.rescale = rescale.clone();
    let disturbed = match run_maybe_spooled::<K>(reads, &rc, two_pass) {
        Ok(r) => r,
        // Exhausting the recovery budget is a legitimate clean failure —
        // and only a death-capable plan may produce it.
        Err(RunError::RanksLost { dead, round: _ }) => {
            assert!(has_plan, "RanksLost without a rank plan");
            assert!(dead > 0);
            return None;
        }
        // Rerouted load can legitimately overwhelm a survivor's table.
        Err(RunError::DeviceOom { rank, .. }) => {
            assert!(rank < clean.nranks);
            return None;
        }
        Err(other) => panic!("unexpected run error: {other}"),
    };

    // The headline guarantee: whatever died, whatever was replayed or
    // re-homed, the counted spectrum is bit-identical.
    assert_counts_identical(&disturbed, &clean);
    assert_eq!(disturbed.exchange.units, clean.exchange.units);

    // The journal agrees with the report: one rankdead event per death,
    // rescale events only for scheduled rounds the run reached, and
    // every event names a real rank / world size.
    let events = disturbed.events.as_ref().expect("journal requested");
    let mut deaths = 0u64;
    let mut rescales = 0usize;
    for e in events {
        match e {
            JournalEvent::RankDead { rank, .. } => {
                deaths += 1;
                assert!(*rank < disturbed.nranks);
            }
            JournalEvent::Rescale { round, from, to } => {
                assert!(
                    rescale.iter().any(|(r, w)| r == round && w == to),
                    "unscheduled rescale to {to} at round {round}"
                );
                assert!(*from <= disturbed.nranks && *to <= disturbed.nranks);
                rescales += 1;
            }
            _ => {}
        }
    }
    assert_eq!(deaths, disturbed.exchange.rank_deaths);
    assert!(rescales <= rescale.len());
    if !has_plan {
        assert_eq!(disturbed.exchange.rank_deaths, 0);
        assert_eq!(disturbed.exchange.replayed_bytes, 0);
    }

    // Metric gating, both directions: the death series exist exactly
    // when a rank actually died (no fault plan runs here, so retries
    // never co-own `recovery_seconds_total`).
    let snap = disturbed.metrics().expect("metrics requested");
    let has = |name: &str| snap.entries.iter().any(|e| e.name == name);
    if disturbed.exchange.rank_deaths > 0 {
        assert_eq!(
            snap.counter_total("rank_deaths_total"),
            disturbed.exchange.rank_deaths
        );
        assert_eq!(
            snap.counter_total("exchange_replay_bytes_total"),
            disturbed.exchange.replayed_bytes
        );
        assert!(has("recovery_seconds_total"));
    } else {
        for name in [
            "rank_deaths_total",
            "exchange_replay_bytes_total",
            "recovery_seconds_total",
        ] {
            assert!(!has(name), "zero-death run must not export {name}");
        }
    }
    Some(disturbed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any engine, any seed, any death rate, pinned kills or not,
    /// checkpointed or not, rescaled or not, both key widths, both
    /// routes, codec on or off: the spectrum never moves (or the run
    /// fails cleanly).
    #[test]
    fn rank_failures_count_exactly_like_undisturbed_runs(
        seed in 0u64..1_000_000,
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        rate in 0.0f64..0.04,
        max_dead in 1usize..4,
        kill_pin in any::<bool>(),
        checkpointed in any::<bool>(),
        rescaled in any::<bool>(),
        hierarchical in any::<bool>(),
        compress in any::<bool>(),
        wide in any::<bool>(),
        two_pass in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let nranks = nodes * ranks_per_node(mode);
        let mut s = format!("rate={rate},max-dead={max_dead}");
        if kill_pin {
            s.push_str(&format!(",kill=1:{}", seed as usize % nranks));
        }
        let plan = RankPlan::new(seed, RankSpec::parse(&s).unwrap());
        let checkpoint = checkpointed.then_some(2);
        let rescale = if rescaled {
            vec![(2u64, nranks.max(2) - 1)]
        } else {
            Vec::new()
        };
        let algo = if hierarchical {
            ExchangeAlgo::NodeAggregated
        } else {
            ExchangeAlgo::Direct
        };
        let reads = tiny_reads();
        if wide {
            check_rank_failure_invariants::<u128>(
                &reads, mode, nodes, 41, Some(plan), checkpoint, rescale, algo, compress,
                two_pass,
            );
        } else {
            check_rank_failure_invariants::<u64>(
                &reads, mode, nodes, 17, Some(plan), checkpoint, rescale, algo, compress,
                two_pass,
            );
        }
    }

    /// The same rank plan replays the same run: deaths, replay volume,
    /// simulated recovery time and spectrum all repeat — or the run
    /// fails identically. Engines consult the plan independently, so
    /// this is what makes cross-engine agreement possible at all.
    #[test]
    fn same_plan_reruns_are_identical(
        seed in 0u64..1_000_000,
        mode_idx in 0usize..3,
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let reads = tiny_reads();
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_spectrum = true;
        rc.round_limit_bytes = Some(4096);
        rc.rank = Some(RankPlan::new(seed, RankSpec::parse("rate=0.03,max-dead=3").unwrap()));
        let a = run_typed::<u64>(&reads, &rc);
        let b = run_typed::<u64>(&reads, &rc);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.spectrum, b.spectrum);
                prop_assert_eq!(a.exchange.rank_deaths, b.exchange.rank_deaths);
                prop_assert_eq!(a.exchange.replayed_bytes, b.exchange.replayed_bytes);
                prop_assert_eq!(a.exchange.recovery_time, b.exchange.recovery_time);
                prop_assert_eq!(a.makespan, b.makespan);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}

/// A pinned kill on every engine × route × codec cell, so the property
/// above is never vacuously green: a rank really dies, its range really
/// replays onto a survivor, and the spectrum still lands bit-identical.
#[test]
fn pinned_kill_recovers_on_every_engine_and_route() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        for algo in [ExchangeAlgo::Direct, ExchangeAlgo::NodeAggregated] {
            for (compress, two_pass) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let plan = RankPlan::new(0, RankSpec::parse("rate=0,kill=1:1").unwrap());
                let r = check_rank_failure_invariants::<u64>(
                    &reads,
                    mode,
                    2,
                    17,
                    Some(plan),
                    None,
                    Vec::new(),
                    algo,
                    compress,
                    two_pass,
                )
                .expect("one death inside a budget of two must survive");
                assert_eq!(r.exchange.rank_deaths, 1, "{mode:?}/{algo:?}/{compress}");
                assert!(
                    r.exchange.replayed_bytes > 0,
                    "{mode:?}/{algo:?}/{compress}: a round-1 death must replay round 0"
                );
                assert!(
                    r.exchange.recovery_time > dedukt::sim::SimTime::ZERO,
                    "{mode:?}/{algo:?}/{compress}: replay charges simulated time"
                );
            }
        }
    }
}

/// Checkpoints bound replay: a round-3 death replays everything since
/// the range was acquired without them, and only since the last
/// checkpoint with a cadence of 2 — strictly less wire volume, same
/// spectrum either way.
#[test]
fn checkpoints_bound_replay_volume() {
    let reads = tiny_reads();
    for two_pass in [false, true] {
        let plan = || RankPlan::new(0, RankSpec::parse("rate=0,kill=3:1").unwrap());
        let unchecked = check_rank_failure_invariants::<u64>(
            &reads,
            Mode::GpuKmer,
            2,
            17,
            Some(plan()),
            None,
            Vec::new(),
            ExchangeAlgo::Direct,
            false,
            two_pass,
        )
        .expect("one death must survive");
        let checked = check_rank_failure_invariants::<u64>(
            &reads,
            Mode::GpuKmer,
            2,
            17,
            Some(plan()),
            Some(2),
            Vec::new(),
            ExchangeAlgo::Direct,
            false,
            two_pass,
        )
        .expect("one death must survive");
        assert_eq!(unchecked.exchange.rank_deaths, 1);
        assert_eq!(checked.exchange.rank_deaths, 1);
        assert!(
            unchecked.exchange.replayed_bytes > 0,
            "a round-3 death with no checkpoint replays rounds 0..3"
        );
        assert!(
            checked.exchange.replayed_bytes < unchecked.exchange.replayed_bytes,
            "a cadence-2 checkpoint must shrink the replay: {} vs {}",
            checked.exchange.replayed_bytes,
            unchecked.exchange.replayed_bytes
        );
        assert_eq!(checked.spectrum, unchecked.spectrum);
    }
}

/// Elastic rescale round-trips: shrink 12 -> 8 at round 1, grow back to
/// 12 at round 3. Both boundaries land in the journal with the exact
/// scheduled worlds, and the spectrum never moves.
#[test]
fn rescale_shrink_and_grow_preserve_counts() {
    let reads = tiny_reads();
    for two_pass in [false, true] {
        let r = check_rank_failure_invariants::<u64>(
            &reads,
            Mode::GpuSupermer,
            2,
            17,
            None,
            None,
            vec![(1, 8), (3, 12)],
            ExchangeAlgo::Direct,
            false,
            two_pass,
        )
        .expect("a rescale without deaths cannot exhaust any budget");
        let rescales: Vec<(u64, usize, usize)> = r
            .events
            .as_ref()
            .unwrap()
            .iter()
            .filter_map(|e| match e {
                JournalEvent::Rescale { round, from, to } => Some((*round, *from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(
            rescales,
            vec![(1, 12, 8), (3, 8, 12)],
            "both scheduled boundaries must fire, in order"
        );
    }
}

/// Deaths compose with rescale and checkpoints: kill a rank inside a
/// shrunken world and the survivors still reconstruct the spectrum.
#[test]
fn death_inside_a_shrunken_world_recovers() {
    let reads = tiny_reads();
    for two_pass in [false, true] {
        let plan = RankPlan::new(0, RankSpec::parse("rate=0,kill=2:0").unwrap());
        let r = check_rank_failure_invariants::<u64>(
            &reads,
            Mode::GpuKmer,
            2,
            17,
            Some(plan),
            Some(2),
            vec![(1, 9)],
            ExchangeAlgo::Direct,
            false,
            two_pass,
        )
        .expect("one death in a 9-rank world is inside the budget");
        assert_eq!(r.exchange.rank_deaths, 1);
    }
}

/// An unsurvivable plan (two pinned kills against a budget of one) is a
/// clean, reportable `RanksLost` on every engine — never a panic, and
/// the error names the boundary that broke the budget.
#[test]
fn exhausted_recovery_budget_fails_cleanly() {
    let reads = tiny_reads();
    let spec = RankSpec::parse("rate=0,max-dead=1,kill=1:0,kill=1:1").unwrap();
    for (mode, two_pass) in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer]
        .into_iter()
        .flat_map(|mode| [(mode, false), (mode, true)])
    {
        let mut rc = RunConfig::new(mode, 1);
        rc.round_limit_bytes = Some(4096);
        rc.rank = Some(RankPlan::new(7, spec.clone()));
        match run_maybe_spooled::<u64>(&reads, &rc, two_pass) {
            Err(RunError::RanksLost { dead, round }) => {
                assert_eq!(dead, 2, "mode {mode:?}");
                assert_eq!(round, 1, "mode {mode:?}");
            }
            other => panic!("mode {mode:?}: expected RanksLost, got {other:?}"),
        }
    }
}

/// Semantically-empty specs are normalized to absent plans on every
/// engine: `rate=0` rank plans, zero-rate fault plans and zero-rate
/// memory plans all leave the run byte-identical to one configured with
/// no plan at all — same spectrum, same tables, same simulated times,
/// and no recovery series in the metrics export.
#[test]
fn noop_specs_are_normalized_to_absent_on_every_engine() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut bare = instrumented_config(mode, 2, 17);
        let mut noop = bare.clone();
        noop.fault = Some(FaultPlan::new(3, FaultSpec::none()));
        noop.mem = Some(MemPlan::new(5, MemSpec::none()));
        noop.rank = Some(RankPlan::new(7, RankSpec::none()));
        let a = run_typed::<u64>(&reads, &bare).expect("valid config");
        let b = run_typed::<u64>(&reads, &noop).expect("valid config");
        assert_eq!(b.spectrum, a.spectrum, "mode {mode:?}");
        assert_eq!(b.tables, a.tables, "mode {mode:?}");
        assert_eq!(b.makespan, a.makespan, "mode {mode:?}");
        assert_eq!(b.exchange.bytes, a.exchange.bytes, "mode {mode:?}");
        assert_eq!(b.exchange.rank_deaths, 0, "mode {mode:?}");
        let snap = b.metrics().unwrap();
        for name in [
            "retries_total",
            "rank_deaths_total",
            "exchange_replay_bytes_total",
            "recovery_seconds_total",
        ] {
            assert!(
                !snap.entries.iter().any(|e| e.name == name),
                "mode {mode:?}: noop-plan run must not export {name}"
            );
        }
        // And the run detail announces neither plan, on either side.
        bare.collect_journal = true;
        noop.collect_journal = true;
        let a = run_typed::<u64>(&reads, &bare).unwrap();
        let b = run_typed::<u64>(&reads, &noop).unwrap();
        let detail = |r: &RunReport| match &r.events.as_ref().unwrap()[0] {
            JournalEvent::Meta { detail, .. } => detail.clone(),
            other => panic!("first event is {other:?}"),
        };
        assert_eq!(detail(&b), detail(&a), "mode {mode:?}");
        assert!(!detail(&b).contains("rank["), "mode {mode:?}");
    }
}
