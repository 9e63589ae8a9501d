//! Property tests of the memory-pressure layer (DESIGN.md §8): for any
//! deterministic memory plan the counting stage survives via regrow or
//! host spill, the counted spectra are bit-identical to the
//! unconstrained run — pressure may only cost simulated time, never
//! correctness — and exhausting the spill budget is a clean
//! `DeviceOom` error, never a panic.
//!
//! Under pressure the *set* of k-mers that bounces off a full table
//! follows the table's probe history, not the counted result, so these
//! tests deliberately assert only result-level facts: spectra, totals,
//! sorted per-rank tables, and plan-draw determinism — never raw spill
//! counts or makespans of pressured runs.

mod common;

use common::{assert_counts_identical, instrumented_config, tiny_reads};
use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::{Mode, PackedKmer, RunConfig};
use dedukt::dna::ReadSet;
use dedukt::gpu::mem_plan::{alloc_fails, estimate_factor, underestimates};
use dedukt::gpu::{MemPlan, MemSpec};
use dedukt::sim::JournalEvent;
use proptest::prelude::*;

/// The four series the recovery machinery may add to the export; they
/// must appear exactly when pressure actually fired (DESIGN.md §8).
const PRESSURE_SERIES: &[&str] = &[
    "table_regrows_total",
    "spill_kmers_total",
    "device_oom_events_total",
    "hbm_high_water_bytes",
];

/// Runs `mode` unconstrained and under `(safety, plan, hbm)` at width
/// `K` and checks every memory invariant. Returns the pressured report
/// for further assertions, or `None` when the plan legitimately
/// exhausted the device (creation-time denial or spill budget) — which
/// must surface as `DeviceOom`, never a panic.
fn check_memory_invariants<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    safety: f64,
    plan: MemPlan,
    hbm: Option<u64>,
) -> Option<RunReport<K>> {
    let mut rc = instrumented_config(mode, nodes, k);
    let clean = run_typed::<K>(reads, &rc).expect("unconstrained run cannot fail");

    rc.table_safety = safety;
    rc.mem = Some(plan);
    if let Some(bytes) = hbm {
        rc.gpu_device.memory_bytes = bytes;
    }
    let pressured = match run_typed::<K>(reads, &rc) {
        Ok(r) => r,
        Err(RunError::DeviceOom {
            rank,
            detail,
            high_water_bytes,
        }) => {
            // A clean, attributable failure: the offending rank exists
            // and every rank reported its allocation high-water mark.
            assert!(rank < clean.nranks, "mode {mode:?}: rank {rank}");
            assert_eq!(high_water_bytes.len(), clean.nranks, "mode {mode:?}");
            assert!(!detail.is_empty(), "mode {mode:?}");
            return None;
        }
        Err(other) => panic!("unexpected run error: {other}"),
    };

    // The headline guarantee: counted results are bit-identical no
    // matter how much regrowing and spilling happened on the way — and
    // since pressure never re-homes a minimizer range, placement is
    // pinned too: identical per-rank loads and sorted per-rank tables.
    assert_counts_identical(&pressured, &clean);
    assert_eq!(pressured.load.kmers_per_rank, clean.load.kmers_per_rank);
    assert_eq!(pressured.tables, clean.tables);

    // Exchange is upstream of counting: pressure must not touch it.
    assert_eq!(pressured.exchange.bytes, clean.exchange.bytes);
    assert_eq!(pressured.exchange.units, clean.exchange.units);
    assert_eq!(pressured.exchange.rounds, clean.exchange.rounds);

    // Metric gating, both directions: the unconstrained run exports no
    // pressure series at all, and in the pressured run the high-water
    // gauge appears exactly when at least one event counter does.
    let has =
        |r: &RunReport<K>, name: &str| r.metrics().unwrap().entries.iter().any(|e| e.name == name);
    for name in PRESSURE_SERIES {
        assert!(
            !has(&clean, name),
            "mode {mode:?}: unconstrained run must not export {name}"
        );
    }
    let any_event = has(&pressured, "table_regrows_total")
        || has(&pressured, "spill_kmers_total")
        || has(&pressured, "device_oom_events_total");
    assert_eq!(
        has(&pressured, "hbm_high_water_bytes"),
        any_event,
        "mode {mode:?}: high-water gauge must track pressure events"
    );
    Some(pressured)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any engine, any seed, any mix of underestimates and allocation
    /// failures, both key widths, optionally a starved device: spectra
    /// match the unconstrained run bit for bit, or the run fails as a
    /// clean `DeviceOom`.
    #[test]
    fn pressured_runs_count_exactly_like_unconstrained_runs(
        seed in 0u64..1_000_000,
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        safety in 0.01f64..1.5,
        under in 0.0f64..1.0,
        shrink in 0.1f64..1.0,
        afail in 0.0f64..0.8,
        tight_hbm in any::<bool>(),
        wide in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let mut spec = MemSpec::none();
        spec.underestimate_rate = under;
        spec.shrink_factor = shrink;
        spec.alloc_fail_rate = afail;
        spec.spill_limit = 1 << 20;
        let reads = tiny_reads();
        let plan = MemPlan::new(seed, spec);
        let hbm = tight_hbm.then_some(64 * 1024);
        if wide {
            check_memory_invariants::<u128>(&reads, mode, nodes, 41, safety, plan, hbm);
        } else {
            check_memory_invariants::<u64>(&reads, mode, nodes, 17, safety, plan, hbm);
        }
    }

    /// The plan itself replays exactly: every estimate and allocation
    /// draw is a pure function of (seed, coordinates), so engines can
    /// consult it independently without coordination and still agree.
    #[test]
    fn mem_plan_draws_replay_for_the_same_seed(
        seed in any::<u64>(),
        rate in 0.0f64..1.0,
    ) {
        let mut spec = MemSpec::none();
        spec.underestimate_rate = rate;
        spec.alloc_fail_rate = rate;
        spec.shrink_factor = 0.5;
        let a = MemPlan::new(seed, spec);
        let b = MemPlan::new(seed, spec);
        for rank in 0..16usize {
            prop_assert_eq!(underestimates(&a, rank), underestimates(&b, rank));
            let fa = estimate_factor(&a, rank);
            prop_assert_eq!(fa, estimate_factor(&b, rank));
            prop_assert!((0.0..=1.0).contains(&fa));
            for attempt in 0..8u64 {
                prop_assert_eq!(alloc_fails(&a, rank, attempt), alloc_fails(&b, rank, attempt));
            }
        }
    }
}

/// A pinned configuration that regrows (and only regrows) on every GPU
/// engine, so the property above is never vacuously true: with a
/// deliberately tiny safety factor and no allocation failures, every
/// rank's table overflows, doubles on device, and the spectrum still
/// lands bit-identical. The CPU baseline under the same plan never
/// pressures — its host table grows transparently.
#[test]
fn pinned_underestimate_regrows_on_device() {
    let reads = tiny_reads();
    // No injected failures: pressure comes purely from the 1% sizing.
    let plan = MemPlan::new(42, MemSpec::none());
    for mode in [Mode::GpuKmer, Mode::GpuSupermer] {
        let pressured = check_memory_invariants::<u64>(&reads, mode, 1, 17, 0.01, plan, None)
            .expect("regrow alone always survives");
        let snap = pressured.metrics().unwrap();
        assert!(
            snap.counter_total("table_regrows_total") > 0,
            "mode {mode:?}: a 1% estimate must force at least one regrow"
        );
        let has = |name: &str| snap.entries.iter().any(|e| e.name == name);
        assert!(!has("spill_kmers_total"), "mode {mode:?}: nothing spills");
        assert!(!has("device_oom_events_total"), "mode {mode:?}");
        assert!(has("hbm_high_water_bytes"), "mode {mode:?}");
    }
    let cpu = check_memory_invariants::<u64>(&reads, Mode::CpuBaseline, 1, 17, 0.01, plan, None)
        .expect("host counting cannot OOM");
    let snap = cpu.metrics().unwrap();
    for name in PRESSURE_SERIES {
        assert!(
            !snap.entries.iter().any(|e| e.name == *name),
            "cpu baseline must never export {name}"
        );
    }
}

/// A pinned configuration where every allocation is denied, so the
/// regrow path is closed and recovery must go through the host spill
/// list — and the spill trace lane appears exactly then.
#[test]
fn pinned_alloc_denial_spills_to_host() {
    let reads = tiny_reads();
    let mut spec = MemSpec::none();
    spec.alloc_fail_rate = 1.0;
    spec.spill_limit = 1 << 20;
    let plan = MemPlan::new(7, spec);
    for mode in [Mode::GpuKmer, Mode::GpuSupermer] {
        let pressured = check_memory_invariants::<u64>(&reads, mode, 1, 17, 0.01, plan, None)
            .expect("the spill budget is ample: the run must survive");
        let snap = pressured.metrics().unwrap();
        assert!(
            snap.counter_total("spill_kmers_total") > 0,
            "mode {mode:?}: with regrow denied, overflow must spill"
        );
        assert!(
            snap.counter_total("device_oom_events_total") > 0,
            "mode {mode:?}: each denied regrow is an OOM event"
        );
        // The spill lane exists in the trace exactly because spilling
        // happened; zero-pressure traces never carry it.
        let mut rc = RunConfig::new(mode, 1);
        rc.table_safety = 0.01;
        rc.mem = Some(plan);
        rc.collect_trace = true;
        let traced = run_typed::<u64>(&reads, &rc).unwrap();
        let events = traced.events.as_ref().unwrap();
        assert!(
            events
                .iter()
                .any(|e| matches!(e, JournalEvent::Sample { name, .. } if name == "spill k-mers")),
            "mode {mode:?}: spilling must surface as a counter lane"
        );
    }
}

/// A starved device (16 KiB simulated HBM) exercises the *real* budget
/// path rather than injected denials: the first doubling fits, the
/// next is refused by the device allocator, and the remainder spills —
/// with the spectrum still bit-identical.
#[test]
fn real_hbm_budget_denial_recovers_via_spill() {
    let reads = tiny_reads();
    let mut spec = MemSpec::none();
    spec.spill_limit = 1 << 20;
    let plan = MemPlan::new(0, spec);
    let pressured = check_memory_invariants::<u64>(
        &reads,
        Mode::GpuSupermer,
        1,
        17,
        0.01,
        plan,
        Some(16 * 1024),
    )
    .expect("an ample spill budget survives a 16 KiB device");
    let snap = pressured.metrics().unwrap();
    assert!(snap.counter_total("table_regrows_total") > 0);
    assert!(snap.counter_total("device_oom_events_total") > 0);
    assert!(snap.counter_total("spill_kmers_total") > 0);
}

/// An unsurvivable plan (all allocations denied, spill budget of ten
/// k-mers) is a clean, reportable `DeviceOom` on every GPU engine —
/// never a panic — and carries per-rank high-water marks for triage.
#[test]
fn exhausted_spill_budget_fails_cleanly() {
    let reads = tiny_reads();
    let mut spec = MemSpec::none();
    spec.alloc_fail_rate = 1.0;
    spec.spill_limit = 10;
    let plan = MemPlan::new(7, spec);
    for mode in [Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 1);
        rc.table_safety = 0.01;
        rc.mem = Some(plan);
        match run_typed::<u64>(&reads, &rc) {
            Err(RunError::DeviceOom {
                rank,
                detail,
                high_water_bytes,
            }) => {
                assert!(rank < 6, "mode {mode:?}: rank {rank} out of range");
                assert!(
                    detail.contains("spill budget exhausted"),
                    "mode {mode:?}: {detail}"
                );
                assert_eq!(high_water_bytes.len(), 6, "mode {mode:?}");
                assert!(
                    high_water_bytes.iter().any(|&b| b > 0),
                    "mode {mode:?}: high-water marks must be populated"
                );
            }
            other => panic!("mode {mode:?}: expected DeviceOom, got {other:?}"),
        }
    }
    // The CPU baseline shrugs off the same plan: host tables grow.
    let mut rc = RunConfig::new(Mode::CpuBaseline, 1);
    rc.table_safety = 0.01;
    rc.mem = Some(plan);
    run_typed::<u64>(&reads, &rc).expect("host counting cannot OOM");
}
