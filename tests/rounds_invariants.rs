//! Tier-1 invariants of the staged round driver (§III-A): memory-bounded
//! rounds and compute/exchange overlap change *time*, never *results*.
//! Every counter, every round count, overlap on or off — the counted
//! multiset, distinct totals, spectrum, and per-rank tables are identical.

mod common;

use common::run_maybe_spooled;
use dedukt::core::pipeline::gpu_common::split_rounds_weighted;
use dedukt::core::{Mode, PackedKmer, RunConfig, RunReport};
use dedukt::dna::{Dataset, DatasetId, ReadSet, ScalePreset};
use proptest::prelude::*;

fn run(reads: &ReadSet, mode: Mode, cap: Option<u64>, overlap: bool) -> RunReport {
    run_w::<u64>(reads, mode, cap, overlap, false, |_| {})
}

/// Width-generic runner: same collection flags at any key width, in
/// memory or spooled out of core (`two_pass`), with a hook to adjust the
/// counting parameters (e.g. into the wide regime).
fn run_w<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    cap: Option<u64>,
    overlap: bool,
    two_pass: bool,
    tweak: impl Fn(&mut RunConfig),
) -> RunReport<K> {
    let mut rc = RunConfig::new(mode, 2);
    rc.collect_spectrum = true;
    rc.collect_tables = true;
    rc.round_limit_bytes = cap;
    rc.overlap_rounds = overlap;
    tweak(&mut rc);
    run_maybe_spooled::<K>(reads, &rc, two_pass).expect("valid config")
}

fn assert_same_counts<K: PackedKmer + Ord>(r: &RunReport<K>, baseline: &RunReport<K>, what: &str) {
    assert_eq!(r.total_kmers, baseline.total_kmers, "{what}: total");
    assert_eq!(
        r.distinct_kmers, baseline.distinct_kmers,
        "{what}: distinct"
    );
    assert_eq!(r.spectrum, baseline.spectrum, "{what}: spectrum");
    assert_eq!(r.tables, baseline.tables, "{what}: per-rank tables");
    assert_eq!(r.exchange.bytes, baseline.exchange.bytes, "{what}: volume");
}

/// All three counters, sliced into ~4 and ~16 rounds, blocking and
/// overlapped: results are bit-identical to the single-round baseline,
/// the round count grows as the cap shrinks, and overlap never makes a
/// multi-round run slower (it charges max(wire, count) per round instead
/// of wire + count).
#[test]
fn rounds_and_overlap_change_time_not_results() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let baseline = run(&reads, mode, None, false);
        assert_eq!(
            baseline.exchange.rounds, 1,
            "{mode:?}: unlimited is 1 round"
        );
        let per_rank = baseline.exchange.bytes / baseline.nranks as u64;

        let mut prev_rounds = 1;
        for (divisor, two_pass) in [(4u64, false), (4, true), (16, false), (16, true)] {
            let cap = (per_rank / divisor).max(1);
            let blocking = run_w::<u64>(&reads, mode, Some(cap), false, two_pass, |_| {});
            let overlapped = run_w::<u64>(&reads, mode, Some(cap), true, two_pass, |_| {});

            assert_same_counts(&blocking, &baseline, &format!("{mode:?} /{divisor}"));
            assert_same_counts(
                &overlapped,
                &baseline,
                &format!("{mode:?} /{divisor} overlapped"),
            );

            assert!(
                blocking.exchange.rounds >= prev_rounds,
                "{mode:?}: smaller cap must not reduce rounds ({} < {prev_rounds})",
                blocking.exchange.rounds
            );
            assert!(
                blocking.exchange.rounds >= 2,
                "{mode:?} /{divisor}: cap {cap} B should force multiple rounds"
            );
            assert_eq!(
                blocking.exchange.rounds, overlapped.exchange.rounds,
                "{mode:?}: overlap must not change the round schedule"
            );
            // Tiny float slack: phase sums associate differently.
            assert!(
                overlapped.total_time().as_secs() <= blocking.total_time().as_secs() * (1.0 + 1e-9),
                "{mode:?} /{divisor}: overlap slower ({} > {})",
                overlapped.total_time(),
                blocking.total_time()
            );
            // Makespan shrinks too on the GPU counters. The CPU baseline
            // is exempt: with 42 ranks/node its per-rank count times vary
            // enough that syncing on max(wire, count) every round can
            // accumulate more straggler wait than blocking's single
            // end-of-run count barrier — the mean (total_time) still wins.
            if mode != Mode::CpuBaseline {
                assert!(
                    overlapped.makespan.as_secs() <= blocking.makespan.as_secs() * (1.0 + 1e-9),
                    "{mode:?} /{divisor}: overlap worsened makespan"
                );
            }
            prev_rounds = blocking.exchange.rounds;
        }
    }
}

/// With an unlimited budget there is a single round, so overlap has
/// nothing to hide behind: the run degenerates to blocking exactly.
#[test]
fn overlap_is_identity_on_a_single_round() {
    let reads = Dataset::new(DatasetId::PAeruginosa30x, ScalePreset::Tiny).generate();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let blocking = run(&reads, mode, None, false);
        let overlapped = run(&reads, mode, None, true);
        assert_same_counts(&overlapped, &blocking, &format!("{mode:?}"));
        assert_eq!(overlapped.exchange.rounds, 1);
        assert_eq!(
            overlapped.total_time(),
            blocking.total_time(),
            "{mode:?}: single-round overlap must cost exactly the same"
        );
    }
}

/// The same invariant in the wide regime (k = 41, u128 keys, 16-byte
/// wire items): round caps and overlap never change results, and every
/// configuration stays bit-identical to the independent wide oracle.
#[test]
fn wide_rounds_and_overlap_change_time_not_results() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    let wide = |rc: &mut RunConfig| {
        rc.counting.k = 41;
        rc.counting.m = 11;
        rc.counting.window = 24;
    };
    let mut oracle: Vec<(u128, u32)> = {
        let mut rc = RunConfig::new(Mode::CpuBaseline, 2);
        wide(&mut rc);
        dedukt::core::wide::wide_reference_counts(&reads, &rc.counting)
            .into_iter()
            .map(|(k, c)| (k, c as u32))
            .collect()
    };
    oracle.sort_unstable();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let baseline = run_w::<u128>(&reads, mode, None, false, false, wide);
        assert_eq!(
            baseline.exchange.rounds, 1,
            "{mode:?}: unlimited is 1 round"
        );
        let mut merged: Vec<(u128, u32)> = baseline.tables.clone().unwrap().concat();
        merged.sort_unstable();
        assert_eq!(merged, oracle, "{mode:?}: baseline vs wide oracle");

        let cap = (baseline.exchange.bytes / baseline.nranks as u64 / 4).max(1);
        for two_pass in [false, true] {
            let blocking = run_w::<u128>(&reads, mode, Some(cap), false, two_pass, wide);
            let overlapped = run_w::<u128>(&reads, mode, Some(cap), true, two_pass, wide);
            assert!(
                blocking.exchange.rounds >= 2,
                "{mode:?}: cap {cap} B should force multiple rounds"
            );
            assert_same_counts(&blocking, &baseline, &format!("wide {mode:?}"));
            assert_same_counts(&overlapped, &baseline, &format!("wide {mode:?} overlapped"));
            assert_eq!(
                blocking.exchange.rounds, overlapped.exchange.rounds,
                "{mode:?}: overlap must not change the round schedule"
            );
            assert!(
                overlapped.total_time().as_secs() <= blocking.total_time().as_secs() * (1.0 + 1e-9),
                "{mode:?}: overlap slower"
            );
        }
    }
}

/// Tag an element with its (src, dst, index) so conservation and order
/// are checkable after slicing.
fn tag(src: usize, dst: usize, i: usize) -> u64 {
    ((src as u64) << 40) | ((dst as u64) << 20) | i as u64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Round slicing is a partition: concatenating each (src, dst)
    /// payload across rounds restores the original, in order, for any
    /// cap — including caps smaller than one item's wire size — and any
    /// item weight. When the cap is binding (not clamped by the largest
    /// payload), each round's per-source outflow respects it up to the
    /// one-extra-item-per-destination slack of near-equal chunking.
    #[test]
    fn split_rounds_weighted_conserves_payloads(
        nranks in 1usize..5,
        sizes in prop::collection::vec(0usize..40, 25),
        cap in 1u64..1000,
        weight_idx in 0usize..4,
    ) {
        let item_bytes = [1u64, 8, 9, 16][weight_idx];
        let buckets: Vec<Vec<Vec<u64>>> = (0..nranks)
            .map(|src| {
                (0..nranks)
                    .map(|dst| {
                        let n = sizes[(src * 5 + dst) % sizes.len()];
                        (0..n).map(|i| tag(src, dst, i)).collect()
                    })
                    .collect()
            })
            .collect();
        let max_out: u64 = buckets
            .iter()
            .map(|row| row.iter().map(|v| v.len() as u64 * item_bytes).sum())
            .max()
            .unwrap_or(0);
        let max_items: u64 = buckets
            .iter()
            .flat_map(|row| row.iter().map(|v| v.len() as u64))
            .max()
            .unwrap_or(0);
        let rounds = split_rounds_weighted(buckets.clone(), Some(cap), item_bytes);

        prop_assert!(!rounds.is_empty());
        let unclamped = max_out.div_ceil(cap);
        prop_assert_eq!(
            rounds.len() as u64,
            unclamped.clamp(1, max_items.max(1)),
            "round count"
        );
        for round in &rounds {
            prop_assert_eq!(round.len(), nranks, "every round has all sources");
            for row in round {
                prop_assert_eq!(row.len(), nranks, "every source has all destinations");
            }
        }
        // Conservation with order: concatenation restores the input.
        for src in 0..nranks {
            for dst in 0..nranks {
                let glued: Vec<u64> = rounds
                    .iter()
                    .flat_map(|round| round[src][dst].iter().copied())
                    .collect();
                prop_assert_eq!(&glued, &buckets[src][dst], "payload ({}, {})", src, dst);
            }
        }
        // Cap respected (within chunking slack) when it was binding.
        if unclamped <= max_items {
            let slack = nranks as u64 * item_bytes;
            for (r, round) in rounds.iter().enumerate() {
                for (src, row) in round.iter().enumerate() {
                    let out: u64 = row.iter().map(|v| v.len() as u64 * item_bytes).sum();
                    prop_assert!(
                        out <= cap + slack,
                        "round {} src {}: {} B exceeds cap {} B + slack {} B",
                        r, src, out, cap, slack
                    );
                }
            }
        }
    }
}
