//! Property tests of the hierarchical exchange and the wire codec
//! (DESIGN.md §10): for any combination of routing × compression ×
//! pipeline × key width × fault plan × overlap, the counted spectra are
//! bit-identical to the direct uncompressed reference — routing and
//! codec choices may only move simulated time and wire bytes, never
//! counts — and the per-tier byte accounting is exact everywhere it
//! surfaces. A cost-model unit test pins the crossover the ablation
//! demonstrates: aggregation wins at the paper's 2,688-rank CPU shape
//! and loses on two fat-payload GPU nodes.

mod common;

use common::{assert_counts_identical, run_maybe_spooled, spectrum_config, tiny_reads};
use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::{Mode, PackedKmer};
use dedukt::dna::ReadSet;
use dedukt::net::cost::{ExchangeAlgo, Network};
use dedukt::net::{FaultPlan, FaultSpec};
use dedukt::sim::SimTime;
use proptest::prelude::*;

/// Runs `mode` under (algo, compress) and checks it against the direct
/// uncompressed reference: identical spectra, exact tier accounting.
/// With `two_pass` the routed run spools out of core, held to the same
/// in-memory reference. Returns false when the fault plan legitimately
/// exhausted its retry budget (a clean failure, which must be identical
/// across routes).
#[allow(clippy::too_many_arguments)]
fn check_exchange_invariants<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    k: usize,
    algo: ExchangeAlgo,
    compress: bool,
    fault: Option<FaultPlan>,
    overlap: bool,
    two_pass: bool,
) -> bool {
    let mut reference = spectrum_config(mode, nodes, k);
    if overlap {
        reference.round_limit_bytes = Some(4096);
        reference.overlap_rounds = true;
    }
    let mut routed = reference.clone();
    let faulted_is_none = fault.is_none();
    reference.fault = fault;
    routed.fault = fault;
    routed.exchange_algo = algo;
    routed.wire_compress = compress;
    let (a, b) = (
        run_typed::<K>(reads, &reference),
        run_maybe_spooled::<K>(reads, &routed, two_pass),
    );
    let (a, b) = match (a, b) {
        (Ok(a), Ok(b)) => (a, b),
        // Retry exhaustion must be route-independent: the same plan
        // fails the same way under either routing.
        (Err(RunError::ExchangeFailed { .. }), Err(RunError::ExchangeFailed { .. })) => {
            return false;
        }
        (a, b) => panic!("routes disagree on failure: {:?} vs {:?}", a.err(), b.err()),
    };

    // The headline guarantee: nothing about what was counted changes —
    // routing never re-homes a range, so loads are pinned element-wise.
    assert_counts_identical(&b, &a);
    assert_eq!(b.load.kmers_per_rank, a.load.kmers_per_rank);
    assert_eq!(b.exchange.units, a.exchange.units);
    assert_eq!(b.exchange.rounds, a.exchange.rounds);

    // Exact tier accounting, both routes: the two tiers partition the
    // payload total, and the relay/coalescing fields exist exactly when
    // hierarchical routing is on (and the topology has > 1 node).
    for r in [&a, &b] {
        assert_eq!(
            r.exchange.intra_node_bytes + r.exchange.off_node_bytes,
            r.exchange.bytes
        );
    }
    match algo {
        ExchangeAlgo::Direct => {
            assert_eq!(b.exchange.intra_tier_bytes, 0);
            assert_eq!(b.exchange.coalesced_messages, 0);
        }
        ExchangeAlgo::NodeAggregated => {
            if nodes > 1 && b.exchange.off_node_bytes > 0 {
                assert!(
                    b.exchange.coalesced_messages > 0,
                    "off-node traffic must ride coalesced frames"
                );
                assert!(
                    b.exchange.intra_tier_bytes > 0,
                    "leader gather/scatter must move intra-tier bytes"
                );
            }
        }
    }
    // Fault-free, codec off (or a pipeline the codec doesn't touch —
    // the k-mer pipelines' words are already maximally packed): routing
    // moves payloads over different tiers but the off-node payload
    // volume itself is route-independent. Under faults the comparison
    // is void: frame-level and bucket-level retry fates legitimately
    // resend different volumes.
    if faulted_is_none && !(compress && mode == Mode::GpuSupermer) {
        assert_eq!(b.exchange.off_node_bytes, a.exchange.off_node_bytes);
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Any pipeline, any routing, codec on or off, both key widths,
    /// any fault mix, overlapped or not: the spectrum never moves.
    #[test]
    fn routing_and_compression_never_change_counts(
        seed in 0u64..1_000_000,
        nodes in 1usize..4,
        mode_idx in 0usize..3,
        hierarchical in any::<bool>(),
        compress in any::<bool>(),
        faulty in any::<bool>(),
        overlap in any::<bool>(),
        wide in any::<bool>(),
        two_pass in any::<bool>(),
    ) {
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let algo = if hierarchical {
            ExchangeAlgo::NodeAggregated
        } else {
            ExchangeAlgo::Direct
        };
        let fault = faulty.then(|| {
            let mut spec = FaultSpec::none();
            spec.fail_rate = 0.2;
            spec.corrupt_rate = 0.1;
            spec.straggle_rate = 0.1;
            spec.straggle_factor = 3.0;
            spec.max_retries = 6;
            spec.backoff_secs = 1e-4;
            FaultPlan::new(seed, spec)
        });
        let reads = tiny_reads();
        if wide {
            check_exchange_invariants::<u128>(
                &reads, mode, nodes, 41, algo, compress, fault, overlap, two_pass,
            );
        } else {
            check_exchange_invariants::<u64>(
                &reads, mode, nodes, 17, algo, compress, fault, overlap, two_pass,
            );
        }
    }
}

/// The full matrix at a pinned hostile seed, so the property above is
/// never vacuously green: every (route, codec) cell on every pipeline
/// survives real retries and lands on the same spectrum.
#[test]
fn pinned_hostile_matrix_is_bit_identical_everywhere() {
    let reads = tiny_reads();
    let spec = FaultSpec::parse("fail=0.2,corrupt=0.1,retries=8,backoff=1e-4").unwrap();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        for algo in [ExchangeAlgo::Direct, ExchangeAlgo::NodeAggregated] {
            for (compress, two_pass) in [(false, false), (true, false), (false, true), (true, true)]
            {
                let survived = check_exchange_invariants::<u64>(
                    &reads,
                    mode,
                    2,
                    17,
                    algo,
                    compress,
                    Some(FaultPlan::new(42, spec)),
                    false,
                    two_pass,
                );
                assert!(
                    survived,
                    "{mode:?}/{algo:?}: seed 42 must survive 8 retries"
                );
            }
        }
    }
}

/// The §VI crossover, straight from the α-β cost model: aggregation's
/// message-count saving wins where software latency dominates (the
/// 2,688-rank Summit CPU shape on modest payloads) and its doubled
/// intra-node hop loses where bandwidth dominates (two GPU nodes
/// shipping fat payloads).
#[test]
fn cost_model_crossover_matches_the_paper_shape() {
    let max = |v: &[SimTime]| v.iter().copied().fold(SimTime::ZERO, SimTime::max);
    let uniform = |p: usize, bytes: u64| vec![vec![bytes; p]; p];

    // 64 Summit CPU nodes × 42 ranks = 2,688 ranks, 64 B per pair: the
    // per-message software latency dwarfs the payload.
    let p_cpu = 64 * 42;
    let small = uniform(p_cpu, 64);
    let mut net = Network::summit_cpu(64);
    net.params.algo = ExchangeAlgo::Direct;
    let direct = max(&net.alltoallv_times(&small));
    net.params.algo = ExchangeAlgo::NodeAggregated;
    let aggregated = max(&net.alltoallv_times(&small));
    assert!(
        aggregated < direct,
        "aggregation must win at the CPU shape: {aggregated} vs {direct}"
    );

    // 2 GPU nodes × 6 ranks = 12 ranks, 64 MiB per pair: the double
    // intra-node crossing costs more than 11 messages save.
    let p_gpu = 2 * 6;
    let big = uniform(p_gpu, 64 << 20);
    let mut net = Network::summit_gpu(2);
    net.params.algo = ExchangeAlgo::Direct;
    let direct = max(&net.alltoallv_times(&big));
    net.params.algo = ExchangeAlgo::NodeAggregated;
    let aggregated = max(&net.alltoallv_times(&big));
    assert!(
        direct < aggregated,
        "aggregation must lose on fat few-node payloads: {direct} vs {aggregated}"
    );
}

/// Overlap keeps its contract under hierarchical routing: each round
/// charges `intra + max(inject, hidden)`, so overlapping can only help,
/// and the functional results stay pinned to the non-overlapped run.
#[test]
fn overlap_composes_with_hierarchical_routing() {
    let reads = tiny_reads();
    let base = {
        let mut rc = spectrum_config(Mode::GpuSupermer, 2, 17);
        rc.exchange_algo = ExchangeAlgo::NodeAggregated;
        rc.wire_compress = true;
        rc.round_limit_bytes = Some(4096);
        rc
    };
    let plain = run_typed::<u64>(&reads, &base).expect("valid config");
    let mut overlapped_rc = base.clone();
    overlapped_rc.overlap_rounds = true;
    let overlapped = run_typed::<u64>(&reads, &overlapped_rc).expect("valid config");
    assert_eq!(overlapped.spectrum, plain.spectrum);
    assert_eq!(overlapped.exchange.bytes, plain.exchange.bytes);
    assert_eq!(
        overlapped.exchange.intra_tier_bytes,
        plain.exchange.intra_tier_bytes
    );
    assert!(
        overlapped.makespan <= plain.makespan,
        "hiding compute behind the wire cannot slow the run: {} vs {}",
        overlapped.makespan,
        plain.makespan
    );
}

#[test]
fn default_reports_carry_zero_tier_fields() {
    // The default (direct, uncompressed) path reports zeros for every
    // new field — pinning that the pre-routing schema is a strict
    // subset of this one.
    let reads = tiny_reads();
    let rc = spectrum_config(Mode::GpuSupermer, 2, 17);
    let r: RunReport = run_typed::<u64>(&reads, &rc).expect("valid config");
    assert_eq!(r.exchange.intra_tier_bytes, 0);
    assert_eq!(r.exchange.coalesced_messages, 0);
    assert_eq!(
        r.exchange.intra_node_bytes + r.exchange.off_node_bytes,
        r.exchange.bytes
    );
}
