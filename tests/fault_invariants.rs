//! Property tests of the fault-injection layer (DESIGN.md §7): for any
//! deterministic fault plan the driver survives, the counted results are
//! bit-identical to the fault-free run — faults may only cost simulated
//! time, never correctness — and the recovery accounting is consistent
//! everywhere it surfaces (report, metrics, wire-byte split).

mod common;

use common::{assert_counts_identical, instrumented_config, run_maybe_spooled, tiny_reads};
use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::{Mode, PackedKmer, RunConfig};
use dedukt::dna::ReadSet;
use dedukt::net::{FaultPlan, FaultSpec};
use dedukt::sim::write_chrome_trace;
use proptest::prelude::*;

/// Runs `mode` with and without `plan` at width `K` and checks every
/// fault invariant; with `two_pass` the faulty run spools out of core
/// and is held to the same in-memory reference. Returns the faulty
/// report for further assertions, or `None` when the plan legitimately
/// exhausted the retry budget.
fn check_fault_invariants<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    plan: FaultPlan,
    two_pass: bool,
) -> Option<RunReport<K>> {
    let mut rc = instrumented_config(mode, nodes, k);
    let clean = run_typed::<K>(reads, &rc).expect("fault-free run cannot fail");
    rc.fault = Some(plan);
    let faulty = match run_maybe_spooled::<K>(reads, &rc, two_pass) {
        Ok(r) => r,
        // Exhausting the retry budget is a legitimate clean failure —
        // but it must be *that* failure, reported, not a panic.
        Err(RunError::ExchangeFailed { attempts, .. }) => {
            assert_eq!(attempts, plan.spec().max_retries + 1);
            return None;
        }
        Err(other) => panic!("unexpected run error: {other}"),
    };

    // The headline guarantee: counted results are bit-identical — and
    // since faults never re-home a minimizer range, placement is pinned
    // too: identical per-rank loads and sorted per-rank tables.
    assert_counts_identical(&faulty, &clean);
    assert_eq!(faulty.load.kmers_per_rank, clean.load.kmers_per_rank);
    assert_eq!(faulty.tables, clean.tables);

    // Exchange accounting: every attempt's bytes are on the wire total,
    // and the retry share is exactly what the clean run didn't send.
    assert_eq!(faulty.exchange.units, clean.exchange.units);
    assert_eq!(
        faulty.exchange.bytes,
        clean.exchange.bytes + faulty.exchange.retry_bytes
    );
    assert!(faulty.exchange.corrupt_buckets <= faulty.exchange.retries);
    if faulty.exchange.retries == 0 {
        assert_eq!(faulty.exchange.retry_bytes, 0);
        assert_eq!(faulty.exchange.recovery_time, dedukt::sim::SimTime::ZERO);
    } else {
        assert!(faulty.exchange.recovery_time > dedukt::sim::SimTime::ZERO);
    }

    // Telemetry agrees with the report, and the fault series exist
    // exactly when recovery happened.
    let snap = faulty.metrics().expect("metrics requested");
    let has = |name: &str| snap.entries.iter().any(|e| e.name == name);
    if faulty.exchange.retries > 0 {
        assert_eq!(snap.counter_total("retries_total"), faulty.exchange.retries);
        assert_eq!(
            snap.counter_total("corrupt_buckets_total"),
            faulty.exchange.corrupt_buckets
        );
        assert_eq!(
            snap.counter_total("exchange_retry_bytes_total"),
            faulty.exchange.retry_bytes
        );
        assert!(has("recovery_seconds_total"));
    } else {
        for name in [
            "retries_total",
            "corrupt_buckets_total",
            "recovery_seconds_total",
            "exchange_retry_bytes_total",
        ] {
            assert!(!has(name), "zero-retry run must not export {name}");
        }
    }
    Some(faulty)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any engine, any seed, any survivable-or-not fault mix, both key
    /// widths: spectra match the fault-free run bit for bit (or the run
    /// fails cleanly), and the accounting stays consistent.
    #[test]
    fn fault_runs_count_exactly_like_fault_free_runs(
        seed in 0u64..1_000_000,
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        fail in 0.0f64..0.4,
        corrupt in 0.0f64..0.3,
        straggle in 0.0f64..0.3,
        wide in any::<bool>(),
        two_pass in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let mut spec = FaultSpec::none();
        spec.fail_rate = fail;
        spec.corrupt_rate = corrupt;
        spec.straggle_rate = straggle;
        spec.straggle_factor = 3.0;
        spec.max_retries = 6;
        spec.backoff_secs = 1e-4;
        let reads = tiny_reads();
        let plan = FaultPlan::new(seed, spec);
        if wide {
            check_fault_invariants::<u128>(&reads, mode, nodes, 41, plan, two_pass);
        } else {
            check_fault_invariants::<u64>(&reads, mode, nodes, 17, plan, two_pass);
        }
    }

    /// The same fault seed replays the same run, byte for byte: counted
    /// tables, retry counts, simulated times and makespan all repeat.
    #[test]
    fn same_seed_reruns_are_byte_identical(
        seed in 0u64..1_000_000,
        mode_idx in 0usize..3,
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let reads = tiny_reads();
        let mut rc = RunConfig::new(mode, 1);
        rc.collect_tables = true;
        rc.fault = Some(FaultPlan::new(seed, FaultSpec::default()));
        let a = run_typed::<u64>(&reads, &rc);
        let b = run_typed::<u64>(&reads, &rc);
        match (a, b) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.tables.as_ref().unwrap(), b.tables.as_ref().unwrap());
                prop_assert_eq!(a.exchange.retries, b.exchange.retries);
                prop_assert_eq!(a.exchange.retry_bytes, b.exchange.retry_bytes);
                prop_assert_eq!(a.exchange.recovery_time, b.exchange.recovery_time);
                prop_assert_eq!(a.phases.exchange, b.phases.exchange);
                prop_assert_eq!(a.makespan, b.makespan);
            }
            (a, b) => prop_assert_eq!(a.err(), b.err()),
        }
    }
}

/// A pinned seed that actually retries on every engine, so the property
/// above is never vacuously true: injected faults really fire, really
/// get retried, and the wire/time split behaves as documented.
#[test]
fn pinned_seed_exercises_recovery_on_every_engine() {
    let reads = tiny_reads();
    let spec = FaultSpec::parse("fail=0.25,corrupt=0.15,straggle=0,retries=8,backoff=1e-4")
        .expect("valid spec");
    for (mode, two_pass) in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer]
        .into_iter()
        .flat_map(|mode| [(mode, false), (mode, true)])
    {
        let plan = FaultPlan::new(42, spec);
        let faulty = check_fault_invariants::<u64>(&reads, mode, 1, 17, plan, two_pass)
            .expect("seed 42 must survive 8 retries at these rates");
        assert!(
            faulty.exchange.retries > 0,
            "mode {mode:?}: seed 42 must actually retry"
        );
        assert!(faulty.exchange.retry_bytes > 0, "mode {mode:?}");
        // Without stragglers the first-attempt wire time is untouched by
        // the fault machinery; recovery is charged separately.
        let mut rc = RunConfig::new(mode, 1);
        let clean = run_typed::<u64>(&reads, &rc).unwrap();
        assert_eq!(
            faulty.exchange.alltoallv_time,
            clean.exchange.alltoallv_time
        );
        assert!(faulty.phases.exchange > clean.phases.exchange);
        rc.fault = Some(FaultPlan::new(42, spec));
        rc.collect_trace = true;
        let traced = run_maybe_spooled::<u64>(&reads, &rc, two_pass).unwrap();
        // Recovery shows up in the trace: backoff spans and the retry
        // counter lane both exist.
        let mut trace = Vec::new();
        write_chrome_trace(&mut trace, traced.events.as_ref().unwrap()).unwrap();
        let trace = String::from_utf8(trace).unwrap();
        assert!(trace.contains("\"name\": \"retry-backoff\", \"ph\": \"X\""));
        assert!(trace.contains("\"name\": \"retry buckets\", \"ph\": \"C\""));
    }
}

/// An unsurvivable plan (every bucket fails every attempt) is a clean,
/// reportable error on every engine — never a panic, never a hang.
#[test]
fn exhausted_retry_budget_fails_cleanly() {
    let reads = tiny_reads();
    let mut spec = FaultSpec::none();
    spec.fail_rate = 1.0;
    spec.max_retries = 2;
    for (mode, two_pass) in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer]
        .into_iter()
        .flat_map(|mode| [(mode, false), (mode, true)])
    {
        let mut rc = RunConfig::new(mode, 1);
        rc.fault = Some(FaultPlan::new(7, spec));
        match run_maybe_spooled::<u64>(&reads, &rc, two_pass) {
            Err(RunError::ExchangeFailed { round, attempts }) => {
                assert_eq!(round, 0, "mode {mode:?}");
                assert_eq!(attempts, 3, "mode {mode:?}: 1 first attempt + 2 retries");
            }
            other => panic!("mode {mode:?}: expected ExchangeFailed, got {other:?}"),
        }
    }
}

/// Stragglers alone (no delivery faults) stretch simulated time but
/// leave volumes, retries and results untouched.
#[test]
fn stragglers_cost_time_not_correctness() {
    let reads = tiny_reads();
    let spec = FaultSpec::parse("fail=0,corrupt=0,straggle=0.5,slow=4.0").expect("valid spec");
    let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
    rc.collect_tables = true;
    let clean = run_typed::<u64>(&reads, &rc).unwrap();
    rc.fault = Some(FaultPlan::new(11, spec));
    let slowed = run_typed::<u64>(&reads, &rc).unwrap();
    assert_eq!(slowed.exchange.retries, 0);
    assert_eq!(slowed.exchange.bytes, clean.exchange.bytes);
    assert_eq!(
        slowed.tables.as_ref().unwrap(),
        clean.tables.as_ref().unwrap()
    );
    assert!(
        slowed.makespan > clean.makespan,
        "a 4x slowdown on half the ranks must stretch the makespan: {} vs {}",
        slowed.makespan,
        clean.makespan
    );
}
