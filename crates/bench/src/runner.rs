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

/// Applies the flags every experiment honours to a fresh `RunConfig`.
fn apply_common_flags(rc: &mut RunConfig, args: &ExperimentArgs) {
    rc.gpu_direct = args.gpu_direct;
    rc.round_limit_bytes = args.round_limit;
    rc.overlap_rounds = args.overlap_rounds;
    if let Some(algo) = args.exchange_algo {
        rc.exchange_algo = algo;
    }
    rc.wire_compress = args.wire_compress;
    if args.fault_seed.is_some() || args.fault_spec.is_some() {
        let spec = match &args.fault_spec {
            Some(s) => dedukt_net::FaultSpec::parse(s).expect("fault spec validated at parse"),
            None => dedukt_net::FaultSpec::default(),
        };
        rc.fault = Some(dedukt_net::FaultPlan::new(
            args.fault_seed.unwrap_or(0),
            spec,
        ));
    }
    if args.mem_seed.is_some() || args.mem_spec.is_some() {
        let spec = match &args.mem_spec {
            Some(s) => dedukt_gpu::MemSpec::parse(s).expect("mem spec validated at parse"),
            None => dedukt_gpu::MemSpec::default(),
        };
        rc.mem = Some(dedukt_gpu::MemPlan::new(args.mem_seed.unwrap_or(0), spec));
    }
    if args.rank_seed.is_some() || args.rank_spec.is_some() {
        let spec = match &args.rank_spec {
            Some(s) => dedukt_net::RankSpec::parse(s).expect("rank spec validated at parse"),
            None => dedukt_net::RankSpec::default(),
        };
        rc.rank = Some(dedukt_net::RankPlan::new(args.rank_seed.unwrap_or(0), spec));
    }
    rc.checkpoint_rounds = args.checkpoint_rounds;
    rc.rescale = args.rescale.clone();
    if let Some(f) = args.table_safety {
        rc.table_safety = f;
    }
    if let Some(b) = args.device_hbm {
        rc.gpu_device.memory_bytes = b;
    }
}

/// Builds a `RunConfig` honouring the experiment flags and runs it.
pub fn run_mode(reads: &ReadSet, mode: Mode, nodes: usize, args: &ExperimentArgs) -> RunReport {
    let mut rc = RunConfig::new(mode, nodes);
    if let Some(m) = args.m {
        rc.counting.m = m;
    }
    apply_common_flags(&mut rc, args);
    dedukt_core::pipeline::run(reads, &rc).expect("valid experiment config")
}

/// Runs the supermer engine out-of-core through the two-pass bin store
/// (DESIGN.md §12) in a scratch directory. The store is a simulation
/// artifact, not a result, so it is removed after the run; all reported
/// fields are deterministic (the simulated NVMe tier has fixed
/// bandwidth/latency and no fault plan is armed). Returns `None`, after
/// one stderr line naming the flags, when a common flag cannot be
/// combined with `--two-pass`.
pub fn run_two_pass(reads: &ReadSet, nodes: usize, args: &ExperimentArgs) -> Option<RunReport> {
    let mut rc = RunConfig::new(Mode::GpuSupermer, nodes);
    if let Some(m) = args.m {
        rc.counting.m = m;
    }
    apply_common_flags(&mut rc, args);
    let dir = std::env::temp_dir().join(format!("dedukt-bench-two-pass-{}", std::process::id()));
    rc.two_pass_dir = Some(dir.clone());
    if let Err(e) = rc.validate() {
        eprintln!("  [bench] skipping the two_pass row: {e}");
        return None;
    }
    let _ = std::fs::remove_dir_all(&dir);
    let report = dedukt_core::pipeline::run(reads, &rc).expect("valid experiment config");
    let _ = std::fs::remove_dir_all(&dir);
    Some(report)
}

/// Like [`run_mode`] with an explicit minimizer length (for sweeps).
pub fn run_mode_with_m(
    reads: &ReadSet,
    mode: Mode,
    nodes: usize,
    m: usize,
    args: &ExperimentArgs,
) -> RunReport {
    let mut rc = RunConfig::new(mode, nodes);
    rc.counting.m = m;
    apply_common_flags(&mut rc, args);
    dedukt_core::pipeline::run(reads, &rc).expect("valid experiment config")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dedukt_dna::ScalePreset;

    #[test]
    fn generate_and_run_tiny() {
        let args = ExperimentArgs {
            scale: ScalePreset::Tiny,
            ..Default::default()
        };
        let reads = generate(DatasetId::EColi30x, &args);
        let r = run_mode(&reads, Mode::GpuKmer, 1, &args);
        assert!(r.total_kmers > 0);
        assert_eq!(r.nranks, 6);
    }

    #[test]
    fn m_override_applies() {
        let args = ExperimentArgs {
            scale: ScalePreset::Tiny,
            m: Some(9),
            ..Default::default()
        };
        let reads = generate(DatasetId::ABaumannii30x, &args);
        let r9 = run_mode(&reads, Mode::GpuSupermer, 1, &args);
        let r7 = run_mode_with_m(&reads, Mode::GpuSupermer, 1, 7, &args);
        // Longer minimizers → shorter supermers → more of them (Table II).
        assert!(r9.exchange.units > r7.exchange.units);
    }

    #[test]
    fn two_pass_row_is_skipped_when_a_flag_conflicts() {
        let args = ExperimentArgs {
            scale: ScalePreset::Tiny,
            round_limit: Some(4096),
            ..Default::default()
        };
        let reads = generate(DatasetId::EColi30x, &args);
        assert!(run_two_pass(&reads, 1, &args).is_none());
    }
}
