//! Determinism guarantees across repeated runs.
//!
//! Thread blocks execute concurrently, so *slot layouts* inside the
//! device tables (and hence iteration order, and the handful of
//! probe-count cost tallies) may differ between runs — exactly as on a
//! real GPU. Everything a user consumes must not: counts, volumes,
//! loads, spectra, and the generated datasets themselves.

mod common;

use common::sorted_tables;
use dedukt::core::{pipeline, Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ScalePreset};

#[test]
fn dataset_generation_is_bit_stable() {
    for id in DatasetId::ALL {
        let d = Dataset::new(id, ScalePreset::Tiny);
        assert_eq!(d.generate(), d.generate(), "{id:?}");
    }
}

#[test]
fn pipeline_results_are_stable_across_runs() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_tables = true;
        rc.collect_spectrum = true;
        let a = pipeline::run(&reads, &rc).expect("valid config");
        let b = pipeline::run(&reads, &rc).expect("valid config");
        assert_eq!(a.total_kmers, b.total_kmers, "{mode:?}");
        assert_eq!(a.distinct_kmers, b.distinct_kmers, "{mode:?}");
        assert_eq!(a.exchange.units, b.exchange.units, "{mode:?}");
        assert_eq!(a.exchange.bytes, b.exchange.bytes, "{mode:?}");
        assert_eq!(
            a.exchange.off_node_bytes, b.exchange.off_node_bytes,
            "{mode:?}"
        );
        assert_eq!(a.load.kmers_per_rank, b.load.kmers_per_rank, "{mode:?}");
        assert_eq!(a.spectrum, b.spectrum, "{mode:?}");
        assert_eq!(sorted_tables(&a), sorted_tables(&b), "{mode:?}");
        // Exchange wire time is a pure function of the (deterministic)
        // volumes — it must be bit-identical too.
        assert_eq!(
            a.exchange.alltoallv_time.as_secs(),
            b.exchange.alltoallv_time.as_secs(),
            "{mode:?}"
        );
    }
}

#[test]
fn cpu_pipeline_times_are_fully_deterministic() {
    // The CPU baseline has no concurrent-insert tallies, so even its
    // simulated phase times must be bit-identical.
    let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
    let rc = RunConfig::new(Mode::CpuBaseline, 1);
    let a = pipeline::run(&reads, &rc).expect("valid config");
    let b = pipeline::run(&reads, &rc).expect("valid config");
    assert_eq!(a.phases.parse.as_secs(), b.phases.parse.as_secs());
    assert_eq!(a.phases.exchange.as_secs(), b.phases.exchange.as_secs());
    assert_eq!(a.phases.count.as_secs(), b.phases.count.as_secs());
    assert_eq!(a.makespan.as_secs(), b.makespan.as_secs());
}
