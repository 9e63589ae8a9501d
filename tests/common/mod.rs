//! Helpers shared by the integration suites (fault, memory, exchange,
//! rank failure, rounds, determinism): dataset slices, instrumented
//! configs, and the bit-identity assertions every recovery layer is held
//! to. Each test binary compiles its own copy, so helpers a given suite
//! doesn't use are expected.
#![allow(dead_code)]

use dedukt::core::pipeline::{run_typed, RunError, RunReport};
use dedukt::core::{Mode, PackedKmer, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ReadSet, ScalePreset};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The canonical tiny slice every invariant suite runs on.
pub fn tiny_reads() -> ReadSet {
    Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate()
}

/// Runs `rc` at width `K`, out of core through a fresh scratch bin store
/// when `two_pass` is set: the suites' two-pass axis.
pub fn run_maybe_spooled<K: PackedKmer>(
    reads: &ReadSet,
    rc: &RunConfig,
    two_pass: bool,
) -> Result<RunReport<K>, RunError> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dedukt-spool-{}-{id}", std::process::id()));
    let mut rc = rc.clone();
    rc.two_pass_dir = two_pass.then(|| dir.clone());
    let report = run_typed::<K>(reads, &rc);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// A config with key width `k` dialed in — wide keys (`k > 31`) widen
/// the minimizer geometry to match — and only the spectrum collected.
pub fn spectrum_config(mode: Mode, nodes: usize, k: usize) -> RunConfig {
    let mut rc = RunConfig::new(mode, nodes);
    rc.counting.k = k;
    if k > 31 {
        rc.counting.m = 11;
        rc.counting.window = 24;
    }
    rc.collect_spectrum = true;
    rc
}

/// [`spectrum_config`] plus the per-rank tables and the metrics export,
/// for suites that reconcile recovery accounting.
pub fn instrumented_config(mode: Mode, nodes: usize, k: usize) -> RunConfig {
    let mut rc = spectrum_config(mode, nodes, k);
    rc.collect_tables = true;
    rc.collect_metrics = true;
    rc
}

/// The headline guarantee shared by every suite: whatever the recovery
/// machinery did on the way, the counted results are bit-identical to
/// the reference run. Per-rank placement is deliberately *not* asserted
/// here — rank failure re-homes ranges, so only the suites whose plans
/// keep ownership fixed may pin `load.kmers_per_rank` element-wise.
pub fn assert_counts_identical<K: PackedKmer>(got: &RunReport<K>, reference: &RunReport<K>) {
    assert_eq!(got.total_kmers, reference.total_kmers);
    assert_eq!(got.distinct_kmers, reference.distinct_kmers);
    assert_eq!(
        got.spectrum, reference.spectrum,
        "spectra must be bit-identical"
    );
    assert_eq!(
        got.load.kmers_per_rank.iter().sum::<u64>(),
        reference.load.kmers_per_rank.iter().sum::<u64>(),
        "per-rank loads must conserve the instance total"
    );
}
