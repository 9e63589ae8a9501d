//! The three distributed counting pipelines and their shared reporting.
//!
//! All pipelines are bulk-synchronous (compute → Alltoallv → compute) and
//! run on [`dedukt_net::BspWorld`]; the GPU pipelines additionally drive
//! one simulated V100 per rank. Functional results (counts, buckets,
//! volumes, loads) are exact; *times* are simulated (see DESIGN.md §4).

pub mod cpu;
pub(crate) mod driver;
pub mod gpu_common;
pub mod gpu_kmer;
pub mod gpu_supermer;
pub mod two_pass;

use crate::config::{ConfigError, Mode, RunConfig};
use crate::pipeline::driver::run_staged;
use crate::stats::{ExchangeSummary, LoadSummary, PhaseBreakdown, StorageSummary};
use crate::table::TableKey;
use crate::width::PackedKmer;
use dedukt_dna::spectrum::Spectrum;
use dedukt_dna::ReadSet;
use dedukt_sim::plan::drop_noop;
use dedukt_sim::{Rate, SimTime};
use rayon::prelude::*;
use std::marker::PhantomData;

/// Everything a pipeline run reports, generic over the packed key width
/// (`u64` for the paper's k ≤ 31 regime, `u128` for wide k ≤ 63 — only
/// the optional per-rank tables carry the key type).
#[derive(Clone, Debug)]
pub struct RunReport<K: TableKey = u64> {
    /// Which counter ran.
    pub mode: Mode,
    /// Nodes simulated.
    pub nodes: usize,
    /// Total ranks.
    pub nranks: usize,
    /// Simulated time per module (Fig. 3 / Fig. 7). Bars are per-rank
    /// *means*, like the paper's breakdowns; straggler waits appear in
    /// [`RunReport::makespan`].
    pub phases: PhaseBreakdown,
    /// End-to-end simulated makespan: when the slowest rank finished,
    /// including all straggler waits at the bulk-synchronous boundaries.
    pub makespan: dedukt_sim::SimTime,
    /// Exchange volume accounting (Table II / Fig. 8).
    pub exchange: ExchangeSummary,
    /// Bin-store accounting, set only under `--two-pass`.
    pub storage: Option<StorageSummary>,
    /// Per-rank counting loads (Table III).
    pub load: LoadSummary,
    /// Total k-mer instances counted (must equal the oracle's).
    pub total_kmers: u64,
    /// Distinct k-mers across all rank tables.
    pub distinct_kmers: u64,
    /// Merged k-mer spectrum, if requested.
    pub spectrum: Option<Spectrum>,
    /// Per-rank `(kmer, count)` tables, if requested (verification).
    pub tables: Option<Vec<Vec<(K, u32)>>>,
    /// Real host wall-clock seconds per driver stage — always measured,
    /// and the report's only nondeterministic numbers (they time this
    /// process, not the simulated machine).
    pub wall: crate::stats::WallClock,
    /// The run's event stream, recorded when any of
    /// [`crate::config::RunConfig::collect_trace`], `collect_metrics` or
    /// `collect_journal` is set. The Chrome trace
    /// ([`dedukt_sim::write_chrome_trace`]), the metrics snapshot
    /// ([`RunReport::metrics`]) and the JSONL journal for `dedukt analyze`
    /// ([`dedukt_sim::write_journal`]) are projections of it.
    pub events: Option<Vec<dedukt_sim::JournalEvent>>,
}

impl<K: TableKey> RunReport<K> {
    /// The run's metrics snapshot, folded from its event stream (`None`
    /// when nothing was recorded).
    pub fn metrics(&self) -> Option<dedukt_sim::MetricsSnapshot> {
        self.events
            .as_deref()
            .map(dedukt_sim::MetricsSnapshot::from_events)
    }

    /// End-to-end simulated time (excl. I/O): the sum of the phase bars,
    /// matching how the paper's stacked breakdowns read.
    pub fn total_time(&self) -> SimTime {
        self.phases.total()
    }

    /// Overall speedup of this run relative to `baseline` (which may have
    /// run at a different key width).
    pub fn speedup_over<K2: TableKey>(&self, baseline: &RunReport<K2>) -> f64 {
        baseline.total_time() / self.total_time()
    }

    /// Fig. 9's metric: k-mers per second through the compute kernels
    /// (exchange excluded).
    pub fn insertion_rate(&self) -> Option<Rate> {
        crate::stats::insertion_rate(self.total_kmers, self.phases.parse, self.phases.count)
    }
}

/// A failed pipeline run: either the configuration was rejected up
/// front, or the run itself died in a way the driver reports cleanly
/// (today: an exchange round exhausting its fault-retry budget, or a
/// rank exhausting device memory *and* its host spill budget).
#[derive(Clone, Debug, PartialEq)]
pub enum RunError {
    /// The run configuration was rejected before any work was done.
    Config(ConfigError),
    /// An exchange round still had undelivered buckets after the fault
    /// plan's full retry budget (`1 + max_retries` attempts).
    ExchangeFailed {
        /// Zero-based exchange round that could not complete.
        round: u64,
        /// Delivery attempts made (first attempt + retries).
        attempts: u32,
    },
    /// A rank ran out of device memory for its count table and could not
    /// recover: the grow-and-rehash path was denied and the host spill
    /// list hit its budget (DESIGN.md §8). The run unwinds cleanly —
    /// never a panic — carrying every rank's allocation high-water mark
    /// for post-mortem sizing.
    DeviceOom {
        /// Rank that exhausted both the device budget and the spill list.
        rank: usize,
        /// What failed (allocation request, spill budget), from the
        /// counting stage.
        detail: String,
        /// Per-rank device-allocation high-water marks in bytes, indexed
        /// by rank.
        high_water_bytes: Vec<u64>,
    },
    /// The rank-failure plan killed more ranks than the recovery budget
    /// tolerates — either `RankSpec::max_dead` was exceeded or no rank
    /// survived to inherit the dead ranges (DESIGN.md §11). The run
    /// unwinds cleanly — never a panic, never a partial spectrum.
    RanksLost {
        /// Ranks dead when the budget check failed.
        dead: usize,
        /// Zero-based exchange round whose boundary detected the loss.
        round: u64,
    },
    /// The out-of-core bin store failed beyond its recovery budget: a
    /// bin stayed unreadable after every retry and re-derive the
    /// [`dedukt_store::IoSpec`] allows, the run hit the plan's injected
    /// kill, or the store/manifest itself could not be used
    /// (DESIGN.md §12). The run unwinds cleanly — never a panic, never
    /// a partial spectrum — and an injected kill leaves the manifest
    /// and every finished bin behind for `--resume`.
    StorageFailed {
        /// Bin the failure is attributed to.
        bin: u64,
        /// What happened (attempts made, generations tried, or the kill
        /// notice with resume instructions).
        detail: String,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Config(e) => e.fmt(f),
            RunError::ExchangeFailed { round, attempts } => write!(
                f,
                "exchange round {round} failed: buckets still undelivered after \
                 {attempts} attempts (fault retry budget exhausted)"
            ),
            RunError::DeviceOom {
                rank,
                detail,
                high_water_bytes,
            } => write!(
                f,
                "device out of memory on rank {rank}: {detail}; per-rank HBM \
                 high-water marks {high_water_bytes:?} bytes"
            ),
            RunError::RanksLost { dead, round } => write!(
                f,
                "{dead} ranks dead at round {round}: rank-failure recovery budget \
                 exhausted"
            ),
            RunError::StorageFailed { bin, detail } => {
                write!(f, "storage failed at bin {bin}: {detail}")
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> RunError {
        RunError::Config(e)
    }
}

/// Runs the pipeline selected by `rc.mode`.
///
/// Validates the whole run configuration first and returns a
/// [`RunError`] instead of panicking on a bad configuration or an
/// unsurvivable fault plan — CLI and library callers can surface the
/// message cleanly.
pub fn run(reads: &ReadSet, rc: &RunConfig) -> Result<RunReport, RunError> {
    run_typed::<u64>(reads, rc)
}

/// [`run`] at an explicit packed key width: `u64` serves k ≤ 31 (and is
/// exactly [`run`]), `u128` serves wide k ≤ 63. All three modes, round
/// splitting, overlap, metrics, and tracing behave identically at either
/// width; only the wire bytes per item (and hence exchange volumes and
/// simulated times) differ.
pub fn run_typed<K: PackedKmer>(reads: &ReadSet, rc: &RunConfig) -> Result<RunReport<K>, RunError> {
    rc.validate_for_width(K::MAX_COUNTING_K, K::MAX_SUPERMER_BASES)
        .map_err(RunError::Config)?;
    // Normalize semantically empty injection plans to absent ones, so a
    // spec like `fail=0,corrupt=0,straggle=0` runs byte-identically to an
    // unset flag on every engine (same journal meta, same report fields).
    // The mem normalization additionally requires exact table sizing:
    // with `table_safety < 1` a plan-free run and a noop-plan run differ
    // in spill budget, so the plan must be kept.
    let mut rc = rc.clone();
    drop_noop(&mut rc.fault);
    if rc.table_safety == 1.0 {
        drop_noop(&mut rc.mem);
    }
    drop_noop(&mut rc.rank);
    drop_noop(&mut rc.io);
    let rc = &rc;
    match rc.mode {
        Mode::CpuBaseline => run_staged(&mut cpu::CpuStages::<K>(PhantomData), reads, rc),
        Mode::GpuKmer => run_staged(&mut gpu_kmer::GpuKmerStages::<K>(PhantomData), reads, rc),
        Mode::GpuSupermer => run_staged(&mut gpu_supermer::SupermerStages::<K>::new(rc), reads, rc),
    }
}

/// Shared post-processing: assemble the report pieces every pipeline
/// produces the same way.
pub(crate) struct RankCountResult<K: TableKey = u64> {
    /// `(kmer, count)` pairs of this rank's table.
    pub entries: Vec<(K, u32)>,
    /// k-mer instances this rank counted.
    pub instances: u64,
}

/// `(load, total, distinct, spectrum, tables)` — the report pieces in
/// the order [`RunReport`] consumes them.
pub(crate) type AssembledCounts<K> = (
    LoadSummary,
    u64,
    u64,
    Option<Spectrum>,
    Option<Vec<Vec<(K, u32)>>>,
);

pub(crate) fn assemble_counts<K: TableKey>(
    rank_results: Vec<RankCountResult<K>>,
    collect_spectrum: bool,
    collect_tables: bool,
) -> AssembledCounts<K> {
    let kmers_per_rank: Vec<u64> = rank_results.iter().map(|r| r.instances).collect();
    let total: u64 = kmers_per_rank.iter().sum();
    let distinct: u64 = rank_results.iter().map(|r| r.entries.len() as u64).sum();
    let spectrum = collect_spectrum.then(|| {
        let mut s = Spectrum::new();
        for r in &rank_results {
            for &(_, c) in &r.entries {
                s.record(c);
            }
        }
        s
    });
    // Tables leave in key order: slot order depends on the table size and
    // its recovery history (regrows, spills), so it is not part of the
    // result. Each rank sorts its own table.
    let tables = collect_tables.then(|| {
        rank_results
            .into_par_iter()
            .map(|mut r| {
                r.entries.sort_unstable_by_key(|&(k, _)| k);
                r.entries
            })
            .collect()
    });
    (
        LoadSummary { kmers_per_rank },
        total,
        distinct,
        spectrum,
        tables,
    )
}
