//! Property tests of the out-of-core two-pass mode (DESIGN.md §12): for
//! any deterministic I/O fault plan, any engine, and either key width,
//! the two-pass spectrum is bit-identical to the single-pass in-memory
//! reference — or the run fails *cleanly* with `StorageFailed` once the
//! retry/re-derive budget is exhausted. Pass-1 bin placement is a true
//! partition, every planned bin fits the device table budget, and a
//! pinned hostile plan provably exercises the whole recovery ladder:
//! read retry, quarantine + re-derivation, and manifest resume.

mod common;

use common::{assert_counts_identical, instrumented_config, run_maybe_spooled, tiny_reads};
use dedukt::core::pipeline::two_pass::{plan_bins, BIN_SKEW_MARGIN};
use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::table::capacity_for;
use dedukt::core::{Mode, PackedKmer};
use dedukt::dna::ReadSet;
use dedukt::gpu::{MemPlan, MemSpec};
use dedukt::store::{BinStore, IoPlan, IoSpec};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::path::PathBuf;

/// A unique scratch store per case so suites (and proptest shrink
/// reruns) never trample each other's bins.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dedukt-two-pass-prop-{}-{tag}", std::process::id()))
}

/// Runs `mode` in-memory and out-of-core at width `K` under `plan`,
/// checking the headline invariant: identical counted results, or a
/// clean reported `StorageFailed` — never a panic, never silent drift.
/// When the plan kills the run mid-pass-2, resumes from the manifest
/// (same rates, kill disarmed) and holds the resumed run to the same
/// bit-identity bar. Returns the surviving two-pass report, if any.
fn check_two_pass<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    plan: Option<IoPlan>,
    tag: &str,
) -> Option<RunReport<K>> {
    let mut rc = instrumented_config(mode, nodes, k);
    let clean = run_typed::<K>(reads, &rc).expect("in-memory run cannot fail");
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    rc.two_pass_dir = Some(dir.clone());
    rc.io = plan;
    let result = match run_typed::<K>(reads, &rc) {
        Ok(r) => {
            assert_counts_identical(&r, &clean);
            // Telemetry agrees with the report wherever recovery shows.
            let snap = r.metrics().expect("metrics requested");
            let has = |name: &str| snap.entries.iter().any(|e| e.name == name);
            assert!(has("storage_write_bytes_total"));
            assert!(has("storage_read_bytes_total"));
            let storage = r.storage.as_ref().expect("two-pass reports storage");
            assert_eq!(snap.counter_total("io_retries_total"), storage.io_retries);
            assert_eq!(
                snap.counter_total("quarantined_bins_total"),
                storage.quarantined_bins
            );
            if storage.io_retries == 0 && storage.quarantined_bins == 0 {
                assert!(
                    !has("recovery_seconds_total"),
                    "recovery-free run must not export recovery_seconds_total"
                );
                assert_eq!(storage.recovery_time, dedukt::sim::SimTime::ZERO);
            } else {
                assert!(storage.recovery_time > dedukt::sim::SimTime::ZERO);
            }
            Some(r)
        }
        Err(RunError::StorageFailed { detail, .. }) if detail.contains("injected kill") => {
            // The injected kill names the recovery path; take it. The
            // resumed run keeps the same fault rates but disarms the
            // kill, and must reproduce the reference spectrum exactly
            // (or exhaust its budget cleanly like any hostile run).
            assert!(detail.contains("--resume"), "kill must point at --resume");
            let mut spec = *rc.io.as_ref().expect("kill requires a plan").spec();
            let seed = rc.io.as_ref().unwrap().seed();
            spec.kill_after = None;
            rc.io = Some(IoPlan::new(seed, spec));
            rc.two_pass_resume = true;
            match run_typed::<K>(reads, &rc) {
                Ok(r) => {
                    assert_counts_identical(&r, &clean);
                    Some(r)
                }
                Err(RunError::StorageFailed { detail, .. }) => {
                    assert!(!detail.is_empty());
                    None
                }
                Err(other) => panic!("unexpected resume error: {other}"),
            }
        }
        // Exhausting the retry/re-derive budget is a legitimate clean
        // failure — but it must be *that* failure, with per-bin detail.
        Err(RunError::StorageFailed { detail, .. }) => {
            assert!(
                detail.contains("re-derive") || detail.contains("read attempt"),
                "budget exhaustion must say what ran out: {detail}"
            );
            None
        }
        Err(other) => panic!("unexpected run error: {other}"),
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any engine, any I/O seed, any survivable-or-not fault mix, both
    /// key widths, fresh or killed-and-resumed: the out-of-core spectrum
    /// matches the in-memory reference bit for bit, or the run fails
    /// cleanly with a reported per-bin `StorageFailed`.
    #[test]
    fn two_pass_counts_exactly_like_the_in_memory_reference(
        seed in 0u64..1_000_000,
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        torn in 0.0f64..0.05,
        rot in 0.0f64..0.05,
        readerr in 0.0f64..0.3,
        kill_idx in 0u64..4,
        wide in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let mut spec = IoSpec::none();
        spec.torn_rate = torn;
        spec.rot_rate = rot;
        spec.read_error_rate = readerr;
        spec.max_retries = 6;
        spec.max_rederives = 4;
        // 0 disarms the kill; 1..=3 kill after that many counted bins.
        spec.kill_after = (kill_idx > 0).then_some(kill_idx);
        let reads = tiny_reads();
        let plan = Some(IoPlan::new(seed, spec));
        let tag = format!("any-{seed}-{nodes}-{mode_idx}-{wide}");
        if wide {
            check_two_pass::<u128>(&reads, mode, nodes, 41, plan, &tag);
        } else {
            check_two_pass::<u64>(&reads, mode, nodes, 17, plan, &tag);
        }
    }

    /// Pass-1 placement is a partition: the manifest's per-bin instance
    /// counts conserve the reference total, and the union of the counted
    /// bins is — as a multiset — exactly the in-memory count table. Holds
    /// on every engine at either width, for any hash seed.
    #[test]
    fn pass_one_bin_placement_is_a_partition(
        hash_seed in 0u64..1_000_000,
        nodes in 1usize..3,
        mode_idx in 0usize..3,
        wide in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let reads = tiny_reads();
        let tag = format!("part-{hash_seed}-{nodes}-{mode_idx}-{wide}");
        if wide {
            check_partition::<u128>(&reads, mode, nodes, 41, hash_seed, &tag)?;
        } else {
            check_partition::<u64>(&reads, mode, nodes, 17, hash_seed, &tag)?;
        }
    }

    /// The bin planner's guarantee, checked directly over its whole
    /// domain: for any instance total, rank count, safety factor, load
    /// factor, device budget and slot width, every planned bin's
    /// worst-case table allocation fits the budget — unless splitting
    /// has reached one expected instance per bin — and the bin count is
    /// always a power-of-two multiple of the rank count.
    #[test]
    fn planned_bins_always_fit_the_device_budget(
        total in 0u64..50_000_000,
        nranks in 1usize..256,
        safety in 0.25f64..4.0,
        lf in 0.3f64..0.9,
        budget_pow in 10u32..34,
        slot in 8u64..24,
    ) {
        let budget = 1u64 << budget_pow;
        let nbins = plan_bins(total, nranks, safety, lf, budget, slot);
        prop_assert!(nbins >= nranks);
        prop_assert!(nbins.is_multiple_of(nranks));
        prop_assert!((nbins / nranks).is_power_of_two());
        let per_bin = (total as f64 / nbins as f64) * BIN_SKEW_MARGIN;
        let expected = (per_bin * safety.max(1.0)).ceil().max(1.0) as usize;
        let table_bytes = capacity_for(expected, lf) as u64 * slot;
        prop_assert!(
            table_bytes <= budget || per_bin <= 1.0,
            "planned bin table ({table_bytes} B) exceeds budget ({budget} B) \
             with {per_bin:.1} expected instances per bin"
        );
    }

    /// Gerbil-style `--min-count` pre-filter conserves instances: what
    /// the filter drops plus what survives equals the unfiltered total,
    /// and nothing below the threshold reaches the spectrum.
    #[test]
    fn min_count_filter_conserves_instances(
        min_count in 2u32..5,
        mode_idx in 0usize..3,
        nodes in 1usize..3,
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let reads = tiny_reads();
        let mut rc = instrumented_config(mode, nodes, 17);
        let clean = run_typed::<u64>(&reads, &rc).expect("in-memory run cannot fail");
        let dir = scratch(&format!("minc-{min_count}-{mode_idx}-{nodes}"));
        let _ = std::fs::remove_dir_all(&dir);
        rc.two_pass_dir = Some(dir.clone());
        rc.min_count = min_count;
        let filtered = run_typed::<u64>(&reads, &rc).expect("clean plan cannot fail");
        let _ = std::fs::remove_dir_all(&dir);
        let snap = filtered.metrics().expect("metrics requested");
        let dropped = snap.counter_total("filtered_kmer_instances_total");
        prop_assert_eq!(filtered.total_kmers + dropped, clean.total_kmers);
        prop_assert_eq!(
            filtered.distinct_kmers + snap.counter_total("filtered_kmers_total"),
            clean.distinct_kmers
        );
        let spectrum = filtered.spectrum.as_ref().expect("spectrum requested");
        prop_assert!(
            spectrum.iter().all(|(count, _)| count >= min_count),
            "a count below --min-count leaked into the spectrum"
        );
    }
}

/// The partition body shared by both key widths: clean two-pass run,
/// manifest conservation, and multiset equality of the counted tables.
fn check_partition<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    hash_seed: u64,
    tag: &str,
) -> Result<(), TestCaseError> {
    let mut rc = instrumented_config(mode, nodes, k);
    rc.counting.hash_seed = hash_seed;
    let clean = run_typed::<K>(reads, &rc).expect("in-memory run cannot fail");
    let dir = scratch(tag);
    let _ = std::fs::remove_dir_all(&dir);
    rc.two_pass_dir = Some(dir.clone());
    let two = run_typed::<K>(reads, &rc).expect("clean plan cannot fail");
    let store = BinStore::create(&dir).expect("store exists");
    let manifest = store
        .read_manifest()
        .expect("manifest readable")
        .expect("manifest written");
    let _ = std::fs::remove_dir_all(&dir);
    // Conservation: every k-mer instance was placed in exactly one bin.
    let placed: u64 = manifest.bins.iter().map(|b| b.instances).sum();
    prop_assert_eq!(placed, clean.total_kmers);
    // Disjointness + exactness: the union of the per-bin tables is the
    // in-memory count table, as a multiset of (key, count) pairs.
    let flatten = |r: &RunReport<K>| {
        let mut all: Vec<(K, u32)> = r
            .tables
            .as_ref()
            .expect("tables requested")
            .iter()
            .flatten()
            .copied()
            .collect();
        all.sort_unstable();
        all
    };
    prop_assert_eq!(flatten(&two), flatten(&clean));
    assert_counts_identical(&two, &clean);
    Ok(())
}

/// Bins nest inside owner ranges: under a device budget small enough to
/// split every rank's range into several bins, the two-pass run still
/// returns, rank by rank, the tables the in-memory run counts at the
/// default budget — on every engine, at either key width, and under
/// balanced-minimizer routing.
#[test]
fn split_bins_return_the_in_memory_per_rank_tables() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        check_per_rank_tables::<u64>(&reads, mode, 17, false);
        check_per_rank_tables::<u128>(&reads, mode, 41, false);
    }
    check_per_rank_tables::<u64>(&reads, Mode::GpuSupermer, 17, true);
}

fn check_per_rank_tables<K: PackedKmer>(reads: &ReadSet, mode: Mode, k: usize, balanced: bool) {
    let mut rc = instrumented_config(mode, 1, k);
    rc.balanced_minimizers = balanced;
    let clean = run_typed::<K>(reads, &rc).expect("in-memory run cannot fail");
    rc.gpu_device.memory_bytes = 1 << 16;
    let two = run_maybe_spooled::<K>(reads, &rc, true).expect("clean plan cannot fail");
    let bins = two.storage.as_ref().expect("two-pass reports storage").bins;
    assert!(
        bins > two.nranks as u64,
        "{mode:?} k={k}: a 64 KiB budget must split ranges ({bins} bins)"
    );
    assert_counts_identical(&two, &clean);
    assert_eq!(two.tables, clean.tables, "{mode:?} k={k}: per-rank tables");
}

/// The acceptance pin: a hostile plan that provably walks the entire
/// recovery ladder on the supermer engine — transient read retries,
/// quarantine + re-derivation of damaged generations — and still lands
/// bit-identical on the in-memory reference; then the same plan with an
/// injected kill proves the manifest resume path end to end.
#[test]
fn pinned_hostile_plan_exercises_retry_rederive_and_resume() {
    let reads = tiny_reads();
    let spec =
        IoSpec::parse("torn=0.05,rot=0.05,readerr=0.3,retries=8,rederive=8").expect("valid spec");
    let survived = check_two_pass::<u64>(
        &reads,
        Mode::GpuSupermer,
        2,
        17,
        Some(IoPlan::new(7, spec)),
        "pinned-hostile",
    )
    .expect("seed 7 must survive 8 retries / 8 re-derives at these rates");
    let storage = survived.storage.as_ref().expect("two-pass reports storage");
    assert!(
        storage.io_retries > 0,
        "seed 7 must actually retry a transient read error"
    );
    assert!(
        storage.quarantined_bins > 0,
        "seed 7 must actually quarantine and re-derive a damaged bin"
    );
    assert!(storage.rederived_bytes > 0);

    // Same plan, kill armed: pass 2 dies after two bins pointing at
    // --resume, and check_two_pass's resume leg must reproduce the
    // reference spectrum from the manifest.
    let mut killer = spec;
    killer.kill_after = Some(2);
    let resumed = check_two_pass::<u64>(
        &reads,
        Mode::GpuSupermer,
        2,
        17,
        Some(IoPlan::new(7, killer)),
        "pinned-kill",
    )
    .expect("seed 7 must survive the resumed run too");
    assert_eq!(resumed.spectrum, survived.spectrum);
}

/// An unsurvivable plan (every read attempt errors, no re-derive
/// budget) is a clean, per-bin-reported error on every engine — never a
/// panic, never a hang, never a partial spectrum.
#[test]
fn exhausted_storage_budget_fails_cleanly_on_every_engine() {
    let reads = tiny_reads();
    let mut spec = IoSpec::none();
    spec.read_error_rate = 1.0;
    spec.max_retries = 2;
    spec.max_rederives = 1;
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let dir = scratch(&format!("exhaust-{}", mode.label()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut rc = instrumented_config(mode, 1, 17);
        rc.two_pass_dir = Some(dir.clone());
        rc.io = Some(IoPlan::new(3, spec));
        match run_typed::<u64>(&reads, &rc) {
            Err(RunError::StorageFailed { bin, detail }) => {
                assert_eq!(bin, 0, "mode {mode:?}: the first bin is unreadable");
                assert!(detail.contains("re-derive"), "mode {mode:?}: {detail}");
            }
            other => panic!("mode {mode:?}: expected StorageFailed, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The bins of the store in `dir` whose counts file exists, and the
/// manifest's bin count.
fn finished_bins(dir: &std::path::Path) -> (Vec<u32>, usize) {
    let store = BinStore::create(dir).expect("store dir");
    let manifest = store
        .read_manifest()
        .expect("readable manifest")
        .expect("pass 1 wrote a manifest");
    let done = manifest
        .bins
        .iter()
        .map(|b| b.bin)
        .filter(|&bin| store.counts_path(bin).exists())
        .collect();
    (done, manifest.bins.len())
}

/// An injected kill cuts pass 2 in manifest order even though ranks
/// count their bins in parallel: exactly the first K bins the run would
/// count have counts files, the error names the (K+1)-th, a resumed run
/// with a second kill counts exactly K more, and a final resume lands on
/// the in-memory spectrum.
#[test]
fn kill_cuts_pass_two_in_manifest_order_and_resume_finishes() {
    let reads = tiny_reads();
    let mut rc = instrumented_config(Mode::GpuSupermer, 2, 17);
    let clean = run_typed::<u64>(&reads, &rc).expect("in-memory run cannot fail");
    let dir = scratch("kill-order");
    let _ = std::fs::remove_dir_all(&dir);
    rc.two_pass_dir = Some(dir.clone());
    rc.gpu_device.memory_bytes = 1 << 16;
    let kill = |after: u64| {
        let mut spec = IoSpec::none();
        spec.kill_after = Some(after);
        Some(IoPlan::new(7, spec))
    };
    let expect_kill =
        |rc: &dedukt::core::RunConfig, after: u64, at: u32| match run_typed::<u64>(&reads, rc) {
            Err(RunError::StorageFailed { bin, detail }) => {
                assert_eq!(bin, at as u64, "the kill strikes bin {at}: {detail}");
                assert!(
                    detail.contains(&format!("after {after} completed bins")),
                    "{detail}"
                );
            }
            other => panic!("expected an injected kill, got {:?}", other.map(|_| ())),
        };

    rc.io = kill(3);
    expect_kill(&rc, 3, 3);
    let (done, nbins) = finished_bins(&dir);
    let per_rank = nbins / rc.nranks();
    assert!(
        per_rank >= 2,
        "a 64 KiB budget must split ranges ({nbins} bins)"
    );
    assert_eq!(done, vec![0, 1, 2]);

    // Resumed with a second kill: the three finished bins are loaded, and
    // the next `2 * per_rank` bins — spanning rank boundaries — are
    // counted before the cut.
    let more = 2 * per_rank as u64;
    rc.two_pass_resume = true;
    rc.io = kill(more);
    let cut = 3 + more as u32;
    expect_kill(&rc, more, cut);
    let (done, _) = finished_bins(&dir);
    assert_eq!(done, (0..cut).collect::<Vec<_>>());

    rc.io = None;
    let resumed = run_typed::<u64>(&reads, &rc).expect("resume finishes the store");
    assert_counts_identical(&resumed, &clean);
    assert_eq!(resumed.tables, clean.tables);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pass-2 `DeviceOom` (regrows denied, no spill budget) reports what
/// a walk over the manifest would: the owner of the lowest failing bin,
/// the high-water marks of the ranks below it, and zero for every rank
/// above it — even though those ranks counted their bins in parallel.
#[test]
fn pass_two_oom_names_the_owner_of_the_lowest_failing_bin() {
    let reads = tiny_reads();
    let dir = scratch("oom-order");
    let _ = std::fs::remove_dir_all(&dir);
    let mut rc = instrumented_config(Mode::GpuSupermer, 2, 17);
    rc.two_pass_dir = Some(dir.clone());
    rc.gpu_device.memory_bytes = 16 * 1024;
    // Default under/shrink rates undersize some tables; every regrow is
    // denied and nothing may spill.
    let spec = MemSpec::parse("afail=1,spill=0").expect("valid spec");
    rc.mem = Some(MemPlan::new(1, spec));
    let (rank, high_water_bytes) = match run_typed::<u64>(&reads, &rc) {
        Err(RunError::DeviceOom {
            rank,
            detail,
            high_water_bytes,
        }) => {
            assert!(detail.contains("spill budget exhausted"), "{detail}");
            (rank, high_water_bytes)
        }
        other => panic!("expected a pass-2 DeviceOom, got {:?}", other.map(|_| ())),
    };
    // Every bin before the failing one finished; ranks above it may have
    // finished bins of their own, but the lowest unfinished bin is the
    // one that failed.
    let (done, nbins) = finished_bins(&dir);
    let per_rank = nbins / rc.nranks();
    let failing = (0..nbins as u32)
        .find(|bin| !done.contains(bin))
        .expect("some bin failed");
    assert_eq!(rank, failing as usize / per_rank);
    assert!(
        rank > 0,
        "this plan must let rank 0 finish (failed at {rank})"
    );
    assert_eq!(high_water_bytes.len(), rc.nranks());
    assert!(high_water_bytes[..=rank].iter().all(|&hw| hw > 0));
    assert!(
        high_water_bytes[rank + 1..].iter().all(|&hw| hw == 0),
        "ranks above {rank} report zero: {high_water_bytes:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
