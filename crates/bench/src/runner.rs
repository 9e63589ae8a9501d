//! Dataset materialisation and pipeline invocation for the regenerators.

use dedukt_core::{Mode, RunConfig, RunReport};
use dedukt_dna::{Dataset, DatasetId, ReadSet};

use crate::args::ExperimentArgs;

/// Generates (or regenerates) a dataset under the experiment's flags.
pub fn generate(id: DatasetId, args: &ExperimentArgs) -> ReadSet {
    let mut ds = Dataset::new(id, args.scale);
    if let Some(seed) = args.seed {
        ds.seed = seed;
    }
    let reads = ds.generate();
    eprintln!(
        "  [data] {}: {} reads, {} bases, {} k-mers (k=17)",
        id.short_name(),
        reads.len(),
        reads.total_bases(),
        reads.total_kmers(17)
    );
    reads
}

/// Runs `rc`, exiting with status 2 and the error on stderr if the run
/// is rejected or fails.
fn run(reads: &ReadSet, rc: &RunConfig) -> RunReport {
    dedukt_core::pipeline::run(reads, rc).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Runs the experiment's run template at `mode` on `nodes` nodes.
pub fn run_mode(reads: &ReadSet, mode: Mode, nodes: usize, args: &ExperimentArgs) -> RunReport {
    run(reads, &args.config(mode, nodes))
}

/// Runs the supermer engine out-of-core through the two-pass bin store
/// (DESIGN.md §12) in a scratch directory. The store is a simulation
/// artifact, not a result, so it is removed after the run; all reported
/// fields are deterministic (the simulated NVMe tier has fixed
/// bandwidth/latency and no io plan is armed).
pub fn run_two_pass(reads: &ReadSet, nodes: usize, args: &ExperimentArgs) -> RunReport {
    let mut rc = args.config(Mode::GpuSupermer, nodes);
    let dir = std::env::temp_dir().join(format!("dedukt-bench-two-pass-{}", std::process::id()));
    rc.two_pass_dir = Some(dir.clone());
    let _ = std::fs::remove_dir_all(&dir);
    let report = run(reads, &rc);
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// Like [`run_mode`] with an explicit minimizer length (for sweeps).
pub fn run_mode_with_m(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    m: usize,
    args: &ExperimentArgs,
) -> RunReport {
    let mut rc = args.config(mode, nodes);
    rc.counting.m = m;
    run(reads, &rc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(flags: &[&str]) -> ExperimentArgs {
        let args = ["--scale", "tiny"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string());
        ExperimentArgs::try_parse(args).unwrap()
    }

    #[test]
    fn generate_and_run_tiny() {
        let args = tiny(&[]);
        let reads = generate(DatasetId::EColi30x, &args);
        let r = run_mode(&reads, Mode::GpuKmer, 1, &args);
        assert!(r.total_kmers > 0);
        assert_eq!(r.nranks, 6);
    }

    #[test]
    fn m_override_applies() {
        let args = tiny(&["--m", "9"]);
        let reads = generate(DatasetId::ABaumannii30x, &args);
        let r9 = run_mode(&reads, Mode::GpuSupermer, 1, &args);
        let r7 = run_mode_with_m(&reads, Mode::GpuSupermer, 1, 7, &args);
        // Longer minimizers → shorter supermers → more of them (Table II).
        assert!(r9.exchange.units > r7.exchange.units);
    }
}
