//! The four count workloads: input, engine configuration, and why each
//! one is in the benchmark.

use dedukt::core::{Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ScalePreset};
use dedukt::net::cost::ExchangeAlgo;
use std::path::Path;

/// One workload: a synthetic input plus the engine that counts it.
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload is in the benchmark (one line).
    pub why: &'static str,
    dataset: DatasetId,
    scale: f64,
    mode: Mode,
    shape: Shape,
}

/// What a workload changes from the paper-default `RunConfig`.
enum Shape {
    /// One exchange round, direct routing.
    OneRound,
    /// Memory-bounded rounds of at most this many bytes per rank,
    /// overlapped, node-aggregated routing.
    Rounds(u64),
    /// Out-of-core two-pass counting on a device of this many bytes.
    TwoPass(u64),
}

/// All workloads, in the order a full run measures them.
///
/// Input sizes keep every rank's count table clear of a power-of-two
/// sizing step (tables hold `expected / 0.7` slots rounded up to a power
/// of two): E. coli at 2.0 gives ≈70 K k-mers per CPU rank and ≈490 K per
/// GPU rank, H. sapiens at 0.25 ≈1.15 M per GPU rank and 192 bins. Near
/// a step, seeds flip some tables between two sizes and the timings
/// with them.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cpu-ecoli",
        why: "host-table inserts and murmur3 partitioning into 84x84 buckets; no kernels, \
              minimizers or disk, so the control for GPU-launch, supermer and store changes",
        dataset: DatasetId::EColi30x,
        scale: 2.0,
        mode: Mode::CpuBaseline,
        shape: Shape::OneRound,
    },
    Workload {
        name: "gpu-kmer-rounds",
        why: "per-round overhead: 61 node-aggregated rounds with a count launch per rank per \
              round; cpu-ecoli counts the same input in one round",
        dataset: DatasetId::EColi30x,
        scale: 2.0,
        mode: Mode::GpuKmer,
        shape: Shape::Rounds(65_536),
    },
    Workload {
        name: "supermer-hsapiens",
        why: "the paper's headline engine on the most repeat-rich input: minimizer and \
              supermer building dominate parsing, and it has the largest footprint",
        dataset: DatasetId::HSapiens54x,
        scale: 0.25,
        mode: Mode::GpuSupermer,
        shape: Shape::OneRound,
    },
    Workload {
        name: "two-pass-hsapiens",
        why: "the only workload that writes and reads the bin store; shares every other layer \
              with supermer-hsapiens and guards the out-of-core memory bound",
        dataset: DatasetId::HSapiens54x,
        scale: 0.25,
        mode: Mode::GpuSupermer,
        shape: Shape::TwoPass(4_000_000),
    },
];

impl Workload {
    /// The workload called `name`.
    pub fn find(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The synthetic dataset for `seed`; seed 0 is the catalog's own.
    pub fn dataset(&self, seed: u64) -> Dataset {
        let mut d = Dataset::new(self.dataset, ScalePreset::Custom(self.scale));
        d.seed ^= seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        d
    }

    /// The run configuration of one job. `store` is where a two-pass
    /// workload keeps its bin store; the others ignore it.
    pub fn run_config(&self, store: &Path) -> RunConfig {
        let mut rc = RunConfig::new(self.mode, 2);
        rc.collect_tables = true;
        match self.shape {
            Shape::OneRound => {}
            Shape::Rounds(limit) => {
                rc.round_limit_bytes = Some(limit);
                rc.overlap_rounds = true;
                rc.exchange_algo = ExchangeAlgo::NodeAggregated;
            }
            Shape::TwoPass(device_bytes) => {
                rc.two_pass_dir = Some(store.to_path_buf());
                rc.gpu_device.memory_bytes = device_bytes;
            }
        }
        rc
    }
}
