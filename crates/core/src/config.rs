//! Configuration for the counting pipelines.

use dedukt_dna::Encoding;
use dedukt_sim::plan::{self, Spec};
use dedukt_sim::Rate;

use crate::minimizer::{MinimizerScheme, OrderingKind};

/// Algorithmic parameters shared by all pipelines.
#[derive(Clone, Copy, Debug)]
pub struct CountingConfig {
    /// k-mer length. The paper evaluates k = 17 throughout (§V-A).
    pub k: usize,
    /// Minimizer length (paper: m = 7 or m = 9).
    pub m: usize,
    /// Supermer window in k-mer positions (paper: 15, chosen so a supermer
    /// packs into one 64-bit word for k = 17, §IV-C).
    pub window: usize,
    /// 2-bit base encoding. The paper's supermer counter uses the
    /// randomized encoding A=1, C=0, T=2, G=3 (§IV-A).
    pub encoding: Encoding,
    /// Minimizer ordering.
    pub ordering: OrderingKind,
    /// Count canonical k-mers (strand-neutral). The paper does not
    /// canonicalize; this is a reproduction extension.
    pub canonical: bool,
    /// Seed of the shared MurmurHash3 used for owner-rank routing.
    pub hash_seed: u64,
    /// Count-table load factor used when sizing tables.
    pub table_load_factor: f64,
}

impl Default for CountingConfig {
    /// The paper's defaults: k = 17, m = 7, window = 15, randomized
    /// encoding, no canonicalization.
    fn default() -> Self {
        CountingConfig {
            k: 17,
            m: 7,
            window: 15,
            encoding: Encoding::PaperRandom,
            ordering: OrderingKind::EncodedLexicographic,
            canonical: false,
            hash_seed: 0x6B6D_6572, // "kmer"
            table_load_factor: 0.7,
        }
    }
}

impl CountingConfig {
    /// Validates internal consistency at the narrow (`u64`) key width;
    /// call before running a pipeline. Equivalent to
    /// [`CountingConfig::validate_for_width`]`(31, 32)`.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_for_width(31, 32)
    }

    /// Validates internal consistency against an explicit key width:
    /// `max_counting_k` is the width's largest countable k (31 for `u64`
    /// keys, 63 for `u128` — one below the packing bound so no packed
    /// k-mer collides with the all-ones empty-table sentinel), and
    /// `max_supermer_bases` is the largest supermer one packed word can
    /// hold (32 or 64), bounding `window + k - 1`.
    pub fn validate_for_width(
        &self,
        max_counting_k: usize,
        max_supermer_bases: usize,
    ) -> Result<(), String> {
        if self.k < 2 || self.k > max_counting_k {
            return Err(format!(
                "k = {} outside supported range 2..={max_counting_k}",
                self.k
            ));
        }
        if self.m == 0 || self.m >= self.k {
            return Err(format!(
                "m = {} must satisfy 0 < m < k = {}",
                self.m, self.k
            ));
        }
        if self.m > 31 {
            // Minimizer words are u64 at every key width.
            return Err(format!(
                "m = {} exceeds 31 (minimizers stay 64-bit)",
                self.m
            ));
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        // A supermer spans at most window + k - 1 bases and must pack into
        // a single word (the paper's design constraint, §IV-C).
        if self.window + self.k - 1 > max_supermer_bases {
            return Err(format!(
                "window {} + k {} - 1 = {} bases exceed one {}-base packed word",
                self.window,
                self.k,
                self.window + self.k - 1,
                max_supermer_bases
            ));
        }
        if !(0.1..=0.95).contains(&self.table_load_factor) {
            return Err(format!(
                "load factor {} unreasonable",
                self.table_load_factor
            ));
        }
        Ok(())
    }

    /// The minimizer scheme induced by `encoding` + `ordering`.
    pub fn minimizer_scheme(&self) -> MinimizerScheme {
        MinimizerScheme {
            encoding: self.encoding,
            ordering: self.ordering,
            m: self.m,
        }
    }

    /// Maximum supermer length in bases under the window constraint.
    pub fn max_supermer_bases(&self) -> usize {
        self.window + self.k - 1
    }
}

/// A rejected [`RunConfig`], with the reason.
///
/// Returned by [`RunConfig::validate`] (and hence
/// [`crate::pipeline::run`]) so callers can surface a clean diagnostic
/// instead of a panic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// The algorithmic parameters are inconsistent
    /// ([`CountingConfig::validate`]'s message).
    Counting(String),
    /// Canonical counting requested together with the supermer pipeline.
    CanonicalSupermer,
    /// `nodes == 0` — there is no machine to simulate.
    ZeroNodes,
    /// `round_limit_bytes == Some(0)` — no round could carry anything.
    ZeroRoundLimit,
    /// The fault plan's rates or retry policy are out of range
    /// ([`dedukt_net::fault::FaultSpec::validate`]'s message).
    Fault(String),
    /// The memory-pressure plan, table safety factor or device memory
    /// budget is out of range ([`dedukt_gpu::MemSpec::validate`]'s
    /// message, a bad `table_safety`, or a zero `--device-hbm`).
    Mem(String),
    /// The rank-failure plan, checkpoint cadence or rescale schedule is
    /// out of range ([`dedukt_net::fault::RankSpec::validate`]'s
    /// message, or a bad `--checkpoint-rounds` / `--rescale`).
    Rank(String),
    /// The out-of-core configuration is inconsistent: a bad storage
    /// fault plan ([`dedukt_store::IoSpec::validate`]'s message), or
    /// `--resume` / `--io-seed` / `--io-spec` / `--min-count` used
    /// without `--two-pass`.
    Io(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Counting(msg) => f.write_str(msg),
            ConfigError::CanonicalSupermer => f.write_str(
                "canonical counting is incompatible with minimizer routing of raw supermers; \
                 use the k-mer pipelines for canonical mode",
            ),
            ConfigError::ZeroNodes => f.write_str("node count must be positive"),
            ConfigError::ZeroRoundLimit => f.write_str("round limit must be positive"),
            ConfigError::Fault(msg) => f.write_str(msg),
            ConfigError::Mem(msg) => f.write_str(msg),
            ConfigError::Rank(msg) => f.write_str(msg),
            ConfigError::Io(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which of the three counters to run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// CPU baseline (Algorithm 1), 42 ranks/node.
    CpuBaseline,
    /// GPU k-mer counter (§III), 6 ranks/node, one V100 each.
    GpuKmer,
    /// GPU supermer counter (§IV), 6 ranks/node.
    GpuSupermer,
}

impl Mode {
    /// Ranks per Summit node for this mode (§V-A).
    pub fn ranks_per_node(self) -> usize {
        match self {
            Mode::CpuBaseline => 42,
            Mode::GpuKmer | Mode::GpuSupermer => 6,
        }
    }

    /// Stable lowercase label used by run journals and bench reports.
    pub fn label(self) -> &'static str {
        match self {
            Mode::CpuBaseline => "cpu",
            Mode::GpuKmer => "gpu-kmer",
            Mode::GpuSupermer => "gpu-supermer",
        }
    }
}

/// Effective per-core throughput of the CPU baseline.
///
/// Calibrated against Fig. 3a: the H. sapiens 54X run on 64 nodes
/// (2,688 Power9 cores) spends roughly 1,200 s parsing and 2,500 s
/// counting 167 G k-mers, i.e. ≈52 K bases/s and ≈25 K k-mers/s per core
/// end-to-end (diBELLA's k-mer analysis includes routing, buffering and
/// copying, hence far below raw memory speed). See EXPERIMENTS.md.
#[derive(Clone, Copy, Debug)]
pub struct CpuCoreModel {
    /// Bases parsed (k-mer extraction + routing) per second per core.
    pub parse_rate: Rate,
    /// k-mers inserted into the host table per second per core.
    pub count_rate: Rate,
}

impl Default for CpuCoreModel {
    fn default() -> Self {
        CpuCoreModel {
            parse_rate: Rate::per_sec(52_000.0),
            count_rate: Rate::per_sec(25_000.0),
        }
    }
}

/// Effective GPU kernel throughput calibration.
///
/// The simulator's roofline model prices the *architectural* work
/// (instructions, memory transactions, atomics), but the paper's measured
/// kernels are latency-bound far below those peaks: Fig. 9 implies
/// ~100-150 M k-mers/s *per V100* across parse + count. The `*_cycles_*`
/// charges below are *effective device-cycle* costs per item — calibrated
/// so a fully occupied V100 reproduces the paper's measured rates — while
/// the *ratios* between pipeline variants implement the paper's measured
/// overheads (+27-33% parse and +23-27% count for supermers, §V-C).
#[derive(Clone, Copy, Debug)]
pub struct GpuTuning {
    /// Effective instruction slots per k-mer in the k-mer parse kernel.
    pub parse_cycles_per_kmer: f64,
    /// Same, for the supermer parse kernel (minimizer scan on top).
    pub supermer_parse_cycles_per_kmer: f64,
    /// Effective instruction slots per k-mer in the count kernel.
    pub count_cycles_per_kmer: f64,
    /// Extra slots per k-mer for extracting k-mers out of received
    /// supermers before counting.
    pub extract_cycles_per_kmer: f64,
}

impl Default for GpuTuning {
    fn default() -> Self {
        // 7.83 T effective slots/s (80 SM × 64 IPC × 1.53 GHz) divided by
        // these charges gives ≈ 157 M k-mers/s parse and ≈ 142 M/s count —
        // the paper's measured per-GPU envelope.
        GpuTuning {
            parse_cycles_per_kmer: 50_000.0,
            supermer_parse_cycles_per_kmer: 65_000.0, // 1.30× (§V-C: +27-33%)
            count_cycles_per_kmer: 55_000.0,
            extract_cycles_per_kmer: 13_750.0, // 1.25× total (§V-C: +23-27%)
        }
    }
}

/// A full experiment description: algorithm + machine shape.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Algorithmic parameters.
    pub counting: CountingConfig,
    /// Which counter to run.
    pub mode: Mode,
    /// Number of Summit nodes to simulate.
    pub nodes: usize,
    /// Use GPUDirect for the exchange (skip host staging). §III-B2.
    pub gpu_direct: bool,
    /// CPU-baseline core model.
    pub cpu_model: CpuCoreModel,
    /// GPU kernel calibration.
    pub gpu_tuning: GpuTuning,
    /// Simulated GPU model (default: the Summit V100; swap in
    /// [`dedukt_gpu::DeviceConfig::a100`] for the "newer hardware"
    /// ablation).
    pub gpu_device: dedukt_gpu::DeviceConfig,
    /// Supermer pipeline only: replace minimizer *hashing* with the
    /// frequency-aware balanced assignment (this reproduction's
    /// implementation of the paper's §VII future-work item). Costs a
    /// sampling pre-pass plus an Allgather of the weight map.
    pub balanced_minimizers: bool,
    /// Fraction of reads sampled to build the balanced assignment's
    /// minimizer weights (only used with `balanced_minimizers`).
    pub balance_sample_fraction: f64,
    /// Exchange routing: direct `MPI_Alltoallv` (the paper's) or the
    /// node-aggregated variant (see
    /// [`dedukt_net::cost::ExchangeAlgo`]).
    pub exchange_algo: dedukt_net::cost::ExchangeAlgo,
    /// Supermer pipeline only: ship each minimizer bucket through the
    /// KMC 2-style wire codec ([`crate::wire`]) — varint/delta-coded
    /// lengths plus 2-bit base packing — instead of the flat
    /// `WORD_BYTES + 1` record per supermer. The wire is charged the
    /// encoded size; spectra are bit-identical either way, and only the
    /// physical wire bytes (and hence simulated exchange time) change.
    /// No effect on the k-mer pipelines, whose payloads are already
    /// maximally packed words.
    pub wire_compress: bool,
    /// Split the exchange (and counting) into rounds so that no rank
    /// sends more than this many bytes per round — the paper's
    /// memory-bounded operation ("the computation and communication may
    /// proceed in multiple rounds", §III-A). `None` = single round.
    pub round_limit_bytes: Option<u64>,
    /// Double-buffer the exchange rounds: while round *r* is on the wire,
    /// round *r − 1*'s count kernel runs, so each rank pays
    /// max(wire, count) per overlapped round instead of their sum.
    /// Functional results are bit-identical either way; only the simulated
    /// times change. Needs `round_limit_bytes` to produce ≥ 2 rounds to
    /// have any effect.
    pub overlap_rounds: bool,
    /// Build the merged k-mer spectrum in the report (costs memory).
    pub collect_spectrum: bool,
    /// Keep every rank's `(kmer, count)` table in the report (costs
    /// memory; used for verification against the oracle).
    pub collect_tables: bool,
    /// Record the run's event stream into
    /// [`crate::pipeline::RunReport::events`], for its Chrome-trace
    /// projection ([`dedukt_sim::write_chrome_trace`], viewable with
    /// `chrome://tracing`). Any one of the three `collect_*` flags records
    /// the same stream.
    pub collect_trace: bool,
    /// Record the run's event stream, for its metrics projection
    /// ([`crate::pipeline::RunReport::metrics`]: per-rank exchange
    /// counters, probe-step and supermer-length histograms, occupancy and
    /// memory high-water gauges).
    pub collect_metrics: bool,
    /// Record the run's event stream, for its JSONL projection
    /// ([`dedukt_sim::write_journal`]) — one typed event per superstep
    /// span, collective, retry, regrow/spill/OOM recovery, phase total,
    /// and wall-clock stage — for offline analysis with `dedukt analyze`.
    /// With all three flags off a run records nothing; simulated times
    /// are identical either way (they come from the analytic cost
    /// models).
    pub collect_journal: bool,
    /// Deterministic fault schedule for the exchange layer (stragglers,
    /// transient send failures, bucket corruption — DESIGN.md §7). The
    /// driver retries failed/corrupt buckets with bounded backoff; final
    /// counts are bit-identical to a fault-free run whenever the plan is
    /// survivable. `None` (the default) models a perfect fabric.
    pub fault: Option<dedukt_net::fault::FaultPlan>,
    /// Safety factor applied to every rank's expected-instance estimate
    /// when sizing count tables (DESIGN.md §8). `1.0` (the default)
    /// preserves exact sizing — tables are sized for the full expected
    /// load and byte-for-byte identical to earlier releases; values
    /// below 1.0 deliberately undersize tables to exercise the
    /// grow/spill recovery.
    pub table_safety: f64,
    /// Deterministic memory-pressure schedule for the counting phase
    /// (distinct-count underestimates, denied grow allocations —
    /// DESIGN.md §8). Counting survives pressure by growing tables on
    /// device or spilling overflowing k-mers to the host; final counts
    /// are bit-identical to an unconstrained run whenever the spill
    /// budget holds. `None` (the default) models a perfect memory
    /// estimate and allocator.
    pub mem: Option<dedukt_gpu::MemPlan>,
    /// Deterministic rank-death schedule (DESIGN.md §11). The driver
    /// detects a death at the next round boundary, re-partitions the
    /// dead rank's key ranges across survivors by rendezvous hashing,
    /// and replays the lost items from the deterministic exchange
    /// history; final counts are bit-identical to a failure-free run
    /// whenever the deaths stay within [`dedukt_net::fault::RankSpec`]'s
    /// budget. `None` (the default) models immortal ranks and keeps the
    /// driver on the exact pre-recovery code path.
    pub rank: Option<dedukt_net::fault::RankPlan>,
    /// Snapshot every rank's count table every N rounds so a death only
    /// replays the rounds since the last snapshot (DESIGN.md §11).
    /// `None` replays from the start of the dead rank's ranges.
    pub checkpoint_rounds: Option<u64>,
    /// Elastic rescale schedule: `(round, world)` pairs shrinking or
    /// growing the active rank set at round boundaries (DESIGN.md §11).
    /// Departures are graceful — a leaving rank's counts are salvaged,
    /// not replayed. Empty (the default) keeps the world fixed.
    pub rescale: Vec<(u64, usize)>,
    /// Out-of-core two-pass mode (DESIGN.md §12): pass 1 is the ordinary
    /// exchange, but every rank spools what it receives into bins under
    /// this directory on a simulated NVMe tier instead of counting it;
    /// in pass 2 each rank counts its own bins, each sized to fit its
    /// count table. Composes with every exchange, fault, rank and
    /// routing option. `None` (the default) counts fully in memory.
    pub two_pass_dir: Option<std::path::PathBuf>,
    /// Resume an interrupted two-pass run from its manifest: skip pass 1
    /// and re-count only the bins without a completed result file.
    pub two_pass_resume: bool,
    /// Deterministic storage-fault schedule for the bin store (torn
    /// writes, bit rot, transient read errors, injected mid-run kill —
    /// DESIGN.md §12). Recovery retries bounded times, then quarantines
    /// the bin and re-derives it from its input slice; final spectra are
    /// bit-identical to the in-memory reference whenever the budgets
    /// hold. `None` (the default) models a perfect drive.
    pub io: Option<dedukt_store::IoPlan>,
    /// Gerbil-style pre-filter applied as each pass-2 bin completes:
    /// k-mers with fewer than this many occurrences are dropped before
    /// they reach the merged tables/spectrum (and are reported via the
    /// `filtered_kmers_total` metric). `1` (the default) keeps
    /// everything.
    pub min_count: u32,
}

/// Usage lines for every flag [`RunConfig::apply_flag`] accepts, shared
/// by the front ends' usage texts.
pub const RUN_FLAGS_USAGE: &str = "\
\x20        [--m M] [--gpu-direct] [--round-limit BYTES] [--overlap-rounds]
\x20        [--exchange-algo direct|hierarchical] [--wire-compress]
\x20        [--fault-seed N] [--fault-spec fail=F,corrupt=C,straggle=S,slow=X,retries=R,backoff=B]
\x20        [--mem-seed N] [--mem-spec under=U,shrink=S,afail=A,spill=N]
\x20        [--rank-seed N] [--rank-spec rate=R,max-dead=D,kill=ROUND:RANK]
\x20        [--checkpoint-rounds N] [--rescale ROUND:WORLD,...]
\x20        [--table-safety F] [--device-hbm BYTES]";

/// Parses a `--rescale` schedule: a comma list of `round:world` pairs,
/// e.g. `1:10,3:12`. Ordering and range checks live in
/// [`RunConfig::validate`].
fn parse_rescale(s: &str) -> Result<Vec<(u64, usize)>, String> {
    let mut out = Vec::new();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let part = part.trim();
        let (round, world) = part
            .split_once(':')
            .ok_or_else(|| format!("rescale entry `{part}` is not round:world"))?;
        let round = round
            .trim()
            .parse::<u64>()
            .map_err(|_| format!("rescale round `{}` is not an integer", round.trim()))?;
        let world = world
            .trim()
            .parse::<usize>()
            .map_err(|_| format!("rescale world `{}` is not an integer", world.trim()))?;
        out.push((round, world));
    }
    Ok(out)
}

impl RunConfig {
    /// A run of `mode` on `nodes` nodes with paper-default parameters.
    pub fn new(mode: Mode, nodes: usize) -> RunConfig {
        RunConfig {
            counting: CountingConfig::default(),
            mode,
            nodes,
            gpu_direct: false,
            cpu_model: CpuCoreModel::default(),
            gpu_tuning: GpuTuning::default(),
            gpu_device: dedukt_gpu::DeviceConfig::v100(),
            balanced_minimizers: false,
            balance_sample_fraction: 0.05,
            exchange_algo: dedukt_net::cost::ExchangeAlgo::Direct,
            wire_compress: false,
            round_limit_bytes: None,
            overlap_rounds: false,
            collect_spectrum: false,
            collect_tables: false,
            collect_trace: false,
            collect_metrics: false,
            collect_journal: false,
            fault: None,
            table_safety: 1.0,
            mem: None,
            rank: None,
            checkpoint_rounds: None,
            rescale: Vec::new(),
            two_pass_dir: None,
            two_pass_resume: false,
            io: None,
            min_count: 1,
        }
    }

    /// Total ranks for this run.
    pub fn nranks(&self) -> usize {
        self.nodes * self.mode.ranks_per_node()
    }

    /// Applies one of the run flags every front end shares (listed in
    /// [`RUN_FLAGS_USAGE`]), taking its value, if it has one, from
    /// `args`. Returns `Ok(false)` for any other flag, which the caller
    /// handles itself. Only parses: range checks live in
    /// [`RunConfig::validate`]. Errors name the flag.
    pub fn apply_flag<'a>(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, String> {
        let mut value = || {
            args.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag}: bad value `{v}`"))
        }
        let named = |e: String| format!("{flag}: {e}");
        match flag {
            "--m" => self.counting.m = number(flag, value()?)?,
            "--gpu-direct" => self.gpu_direct = true,
            "--round-limit" => self.round_limit_bytes = Some(number(flag, value()?)?),
            "--overlap-rounds" => self.overlap_rounds = true,
            "--exchange-algo" => {
                self.exchange_algo =
                    dedukt_net::cost::ExchangeAlgo::parse(value()?).map_err(named)?
            }
            "--wire-compress" => self.wire_compress = true,
            "--fault-seed" | "--fault-spec" => plan::apply_flag(&mut self.fault, flag, value()?)?,
            "--mem-seed" | "--mem-spec" => plan::apply_flag(&mut self.mem, flag, value()?)?,
            "--rank-seed" | "--rank-spec" => plan::apply_flag(&mut self.rank, flag, value()?)?,
            "--checkpoint-rounds" => self.checkpoint_rounds = Some(number(flag, value()?)?),
            "--rescale" => self.rescale = parse_rescale(value()?).map_err(named)?,
            "--table-safety" => self.table_safety = number(flag, value()?)?,
            "--device-hbm" => self.gpu_device.memory_bytes = number(flag, value()?)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Validates the full run description (algorithmic parameters plus
    /// machine shape) at the narrow key width; [`crate::pipeline::run`]
    /// calls this before doing any work.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.validate_for_width(31, 32)
    }

    /// [`RunConfig::validate`] against an explicit key width (see
    /// [`CountingConfig::validate_for_width`]);
    /// [`crate::pipeline::run_typed`] calls this with the bounds of its
    /// key type.
    pub fn validate_for_width(
        &self,
        max_counting_k: usize,
        max_supermer_bases: usize,
    ) -> Result<(), ConfigError> {
        self.counting
            .validate_for_width(max_counting_k, max_supermer_bases)
            .map_err(ConfigError::Counting)?;
        if self.nodes == 0 {
            return Err(ConfigError::ZeroNodes);
        }
        if self.counting.canonical && self.mode == Mode::GpuSupermer {
            return Err(ConfigError::CanonicalSupermer);
        }
        if self.round_limit_bytes == Some(0) {
            return Err(ConfigError::ZeroRoundLimit);
        }
        if let Some(plan) = &self.fault {
            plan.spec().validate().map_err(ConfigError::Fault)?;
        }
        if !self.table_safety.is_finite() || self.table_safety <= 0.0 || self.table_safety > 100.0 {
            return Err(ConfigError::Mem(format!(
                "table safety factor {} must be a finite value in (0, 100]",
                self.table_safety
            )));
        }
        if let Some(plan) = &self.mem {
            plan.spec().validate().map_err(ConfigError::Mem)?;
        }
        if self.gpu_device.memory_bytes == 0 {
            return Err(ConfigError::Mem("--device-hbm must be positive".into()));
        }
        if let Some(plan) = &self.rank {
            plan.spec().validate().map_err(ConfigError::Rank)?;
        }
        if self.checkpoint_rounds == Some(0) {
            return Err(ConfigError::Rank(
                "checkpoint cadence must be at least 1 round".into(),
            ));
        }
        let mut prev_round = None;
        for &(round, world) in &self.rescale {
            if prev_round.is_some_and(|p| round <= p) {
                return Err(ConfigError::Rank(format!(
                    "rescale rounds must be strictly increasing (round {round} repeats or \
                     goes backwards)"
                )));
            }
            prev_round = Some(round);
            if world == 0 || world > self.nranks() {
                return Err(ConfigError::Rank(format!(
                    "rescale world {world} must be in 1..={} (the initial rank count)",
                    self.nranks()
                )));
            }
        }
        if let Some(plan) = &self.io {
            plan.spec().validate().map_err(ConfigError::Io)?;
        }
        if self.min_count == 0 {
            return Err(ConfigError::Io(
                "--min-count must be at least 1 (1 keeps every k-mer)".into(),
            ));
        }
        if self.two_pass_dir.is_none() {
            if self.two_pass_resume {
                return Err(ConfigError::Io(
                    "--resume requires --two-pass (there is no bin store to resume from)".into(),
                ));
            }
            if self.io.is_some() {
                return Err(ConfigError::Io(
                    "--io-seed/--io-spec require --two-pass (there is no bin store to fault)"
                        .into(),
                ));
            }
            if self.min_count > 1 {
                return Err(ConfigError::Io(
                    "--min-count requires --two-pass (the pre-filter runs in pass 2)".into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_validate() {
        let c = CountingConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.k, 17);
        assert_eq!(c.window, 15);
        // §IV-C: supermer must fit one 64-bit word: 15 + 17 - 1 = 31 ≤ 32.
        assert_eq!(c.max_supermer_bases(), 31);
    }

    #[test]
    fn invalid_configs_rejected() {
        let bad = [
            CountingConfig {
                k: 32,
                ..Default::default()
            },
            CountingConfig {
                m: 17,
                ..Default::default()
            },
            CountingConfig {
                window: 20, // 20 + 16 = 36 > 32
                ..Default::default()
            },
            CountingConfig {
                table_load_factor: 0.99,
                ..Default::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err());
        }
    }

    #[test]
    fn run_config_validation_covers_machine_shape() {
        assert!(RunConfig::new(Mode::GpuSupermer, 2).validate().is_ok());
        let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
        rc.counting.canonical = true;
        assert_eq!(rc.validate(), Err(ConfigError::CanonicalSupermer));
        rc.mode = Mode::GpuKmer; // canonical is fine on the k-mer paths
        assert!(rc.validate().is_ok());
        let mut rc = RunConfig::new(Mode::CpuBaseline, 0);
        assert_eq!(rc.validate(), Err(ConfigError::ZeroNodes));
        rc.nodes = 1;
        rc.round_limit_bytes = Some(0);
        assert_eq!(rc.validate(), Err(ConfigError::ZeroRoundLimit));
        rc.round_limit_bytes = Some(1);
        assert!(rc.validate().is_ok());
        rc.counting.k = 64;
        assert!(matches!(rc.validate(), Err(ConfigError::Counting(_))));
    }

    #[test]
    fn wide_width_bounds_validate() {
        let mut c = CountingConfig {
            k: 41,
            m: 11,
            window: 24,
            ..Default::default()
        };
        // Narrow validation rejects wide k; the wide bounds accept it.
        assert!(c.validate().is_err());
        assert!(c.validate_for_width(63, 64).is_ok());
        // m ≥ 32 must be rejected even at the wide width (minimizer
        // words stay u64) — no silent clamping anywhere.
        c.m = 32;
        assert!(c.validate_for_width(63, 64).is_err());
        c.m = 11;
        c.window = 25; // 25 + 41 - 1 = 65 > 64
        assert!(c.validate_for_width(63, 64).is_err());
        c.window = 24;
        c.k = 64; // all-ones sentinel collision
        assert!(c.validate_for_width(63, 64).is_err());
    }

    #[test]
    fn fault_plan_is_validated_with_the_run() {
        use dedukt_net::fault::{FaultPlan, FaultSpec};
        let mut rc = RunConfig::new(Mode::GpuKmer, 1);
        rc.fault = Some(FaultPlan::new(1, FaultSpec::default()));
        assert!(rc.validate().is_ok());
        rc.fault = Some(FaultPlan::new(1, FaultSpec::parse("fail=1.5").unwrap()));
        match rc.validate() {
            Err(ConfigError::Fault(msg)) => assert!(msg.contains("[0, 1]"), "{msg}"),
            other => panic!("expected a fault config error, got {other:?}"),
        }
        rc.fault = Some(FaultPlan::new(1, FaultSpec::parse("retries=0").unwrap()));
        assert!(matches!(rc.validate(), Err(ConfigError::Fault(_))));
    }

    #[test]
    fn mem_plan_and_table_safety_are_validated_with_the_run() {
        use dedukt_gpu::{MemPlan, MemSpec};
        let mut rc = RunConfig::new(Mode::GpuKmer, 1);
        rc.mem = Some(MemPlan::new(1, MemSpec::default()));
        assert!(rc.validate().is_ok());
        rc.mem = Some(MemPlan::new(1, MemSpec::parse("under=1.5").unwrap()));
        match rc.validate() {
            Err(ConfigError::Mem(msg)) => assert!(msg.contains("[0, 1]"), "{msg}"),
            other => panic!("expected a mem config error, got {other:?}"),
        }
        rc.mem = None;
        rc.table_safety = 0.0;
        assert!(matches!(rc.validate(), Err(ConfigError::Mem(_))));
        rc.table_safety = f64::NAN;
        assert!(matches!(rc.validate(), Err(ConfigError::Mem(_))));
        rc.table_safety = 0.25;
        assert!(rc.validate().is_ok());
    }

    #[test]
    fn rank_plan_and_rescale_are_validated_with_the_run() {
        use dedukt_net::fault::{RankPlan, RankSpec};
        let mut rc = RunConfig::new(Mode::GpuKmer, 1); // 6 ranks
        rc.rank = Some(RankPlan::new(1, RankSpec::default()));
        assert!(rc.validate().is_ok());
        rc.rank = Some(RankPlan::new(1, RankSpec::parse("rate=1.5").unwrap()));
        match rc.validate() {
            Err(ConfigError::Rank(msg)) => assert!(msg.contains("[0, 1]"), "{msg}"),
            other => panic!("expected a rank config error, got {other:?}"),
        }
        rc.rank = None;
        rc.checkpoint_rounds = Some(0);
        assert!(matches!(rc.validate(), Err(ConfigError::Rank(_))));
        rc.checkpoint_rounds = Some(2);
        assert!(rc.validate().is_ok());
        rc.rescale = vec![(1, 4), (1, 5)];
        assert!(matches!(rc.validate(), Err(ConfigError::Rank(_))));
        rc.rescale = vec![(1, 4), (2, 7)]; // 7 > 6 ranks
        assert!(matches!(rc.validate(), Err(ConfigError::Rank(_))));
        rc.rescale = vec![(1, 0)];
        assert!(matches!(rc.validate(), Err(ConfigError::Rank(_))));
        rc.rescale = vec![(1, 4), (2, 6)];
        assert!(rc.validate().is_ok());
    }

    #[test]
    fn io_plan_and_two_pass_flags_are_validated_with_the_run() {
        use dedukt_store::{IoPlan, IoSpec};
        let mut rc = RunConfig::new(Mode::GpuKmer, 1);
        rc.two_pass_dir = Some(std::path::PathBuf::from("/tmp/x"));
        rc.io = Some(IoPlan::new(1, IoSpec::default()));
        rc.min_count = 2;
        rc.two_pass_resume = true;
        assert!(rc.validate().is_ok());
        rc.io = Some(IoPlan::new(1, IoSpec::parse("torn=1.5").unwrap()));
        match rc.validate() {
            Err(ConfigError::Io(msg)) => assert!(msg.contains("[0, 1]"), "{msg}"),
            other => panic!("expected an io config error, got {other:?}"),
        }
        rc.io = Some(IoPlan::new(1, IoSpec::default()));
        rc.min_count = 0;
        assert!(matches!(rc.validate(), Err(ConfigError::Io(_))));
        rc.min_count = 1;
        // Every out-of-core companion flag requires --two-pass.
        rc.two_pass_dir = None;
        rc.two_pass_resume = false;
        match rc.validate() {
            Err(ConfigError::Io(msg)) => assert!(msg.contains("--two-pass"), "{msg}"),
            other => panic!("expected an io config error, got {other:?}"),
        }
        rc.io = None;
        rc.two_pass_resume = true;
        match rc.validate() {
            Err(ConfigError::Io(msg)) => assert!(msg.contains("--resume"), "{msg}"),
            other => panic!("expected an io config error, got {other:?}"),
        }
        rc.two_pass_resume = false;
        rc.min_count = 3;
        assert!(matches!(rc.validate(), Err(ConfigError::Io(_))));
        rc.min_count = 1;
        assert!(rc.validate().is_ok());
    }

    /// Applies space-separated `flags` through the shared run-flag table.
    fn apply(flags: &str) -> Result<RunConfig, String> {
        let args: Vec<String> = flags.split_whitespace().map(String::from).collect();
        let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if !rc.apply_flag(flag, &mut it)? {
                return Err(format!("not a run flag: {flag}"));
            }
        }
        Ok(rc)
    }

    #[test]
    fn run_flags_parse_through_one_table() {
        use dedukt_gpu::{MemPlan, MemSpec};
        use dedukt_net::cost::ExchangeAlgo;
        use dedukt_net::fault::{FaultSpec, RankSpec};
        let rc = apply(
            "--m 9 --gpu-direct --round-limit 4096 --overlap-rounds --exchange-algo hierarchical \
             --wire-compress --fault-spec fail=0.1 --fault-seed 7 --rank-spec kill=1:2 \
             --checkpoint-rounds 2 --rescale 1:8,3:12 --table-safety 0.5 --device-hbm 1048576",
        )
        .unwrap();
        assert_eq!(rc.counting.m, 9);
        assert!(rc.gpu_direct && rc.overlap_rounds && rc.wire_compress);
        assert_eq!(rc.round_limit_bytes, Some(4096));
        assert_eq!(rc.exchange_algo, ExchangeAlgo::NodeAggregated);
        // A spec then a seed, or a spec alone (seed 0), or a seed alone
        // (default spec): each activates its plan.
        let fault = rc.fault.unwrap();
        assert_eq!((fault.seed(), fault.spec().fail_rate), (7, 0.1));
        assert_eq!(fault.spec().corrupt_rate, FaultSpec::default().corrupt_rate);
        let rank = rc.rank.as_ref().unwrap();
        assert_eq!((rank.seed(), &rank.spec().kill), (0, &vec![(1, 2)]));
        assert_eq!(rank.spec().rate, RankSpec::default().rate);
        assert_eq!(rc.mem, None);
        assert_eq!(rc.checkpoint_rounds, Some(2));
        assert_eq!(rc.rescale, vec![(1, 8), (3, 12)]);
        assert_eq!(rc.table_safety, 0.5);
        assert_eq!(rc.gpu_device.memory_bytes, 1048576);
        assert!(rc.validate().is_ok());
        let rc = apply("--mem-seed 5").unwrap();
        assert_eq!(rc.mem, Some(MemPlan::new(5, MemSpec::default())));

        // Parse errors name the flag; other flags are left to the caller.
        for (flags, needle) in [
            (
                "--fault-spec bogus=1",
                "--fault-spec: unknown fault spec key",
            ),
            (
                "--mem-spec spill",
                "--mem-spec: mem spec entry `spill` is not key=value",
            ),
            ("--rank-seed many", "--rank-seed: bad seed"),
            ("--round-limit lots", "--round-limit: bad value `lots`"),
            ("--exchange-algo fancy", "--exchange-algo: "),
            (
                "--rescale 5",
                "--rescale: rescale entry `5` is not round:world",
            ),
            ("--m", "--m needs a value"),
            ("--nodes 2", "not a run flag: --nodes"),
        ] {
            let err = apply(flags).unwrap_err();
            assert!(err.contains(needle), "{flags}: {err}");
        }
        // Range checks are left to `validate`.
        for (flags, needle) in [
            ("--round-limit 0", "round limit"),
            ("--checkpoint-rounds 0", "checkpoint"),
            ("--table-safety 200", "table safety"),
            ("--device-hbm 0", "--device-hbm must be positive"),
            ("--fault-spec fail=1.5", "[0, 1]"),
            ("--mem-spec shrink=0", "(0, 1]"),
            ("--rescale 1:999", "rescale world"),
        ] {
            let err = apply(flags).unwrap().validate().unwrap_err().to_string();
            assert!(err.contains(needle), "{flags}: {err}");
        }
    }

    #[test]
    fn rescale_schedules_parse() {
        assert_eq!(parse_rescale("1:10, 3:12").unwrap(), vec![(1, 10), (3, 12)]);
        assert_eq!(parse_rescale("").unwrap(), vec![]);
        assert!(parse_rescale("5").unwrap_err().contains("round:world"));
        assert!(parse_rescale("a:1").unwrap_err().contains("not an integer"));
        assert!(parse_rescale("1:b").unwrap_err().contains("not an integer"));
    }

    #[test]
    fn config_errors_render_human_messages() {
        assert!(ConfigError::CanonicalSupermer
            .to_string()
            .contains("canonical"));
        assert!(ConfigError::ZeroRoundLimit.to_string().contains("round"));
        assert_eq!(ConfigError::Counting("bad k".into()).to_string(), "bad k");
    }

    #[test]
    fn mode_rank_counts_match_section_5a() {
        assert_eq!(Mode::CpuBaseline.ranks_per_node(), 42);
        assert_eq!(Mode::GpuKmer.ranks_per_node(), 6);
        assert_eq!(RunConfig::new(Mode::GpuKmer, 64).nranks(), 384);
        assert_eq!(RunConfig::new(Mode::CpuBaseline, 64).nranks(), 2688);
    }

    #[test]
    fn cpu_model_calibration_reproduces_fig3a_scale() {
        // 167 G k-mers over 2,688 cores at the default rates should land
        // in the paper's Fig. 3a ballpark (minutes, not seconds).
        let m = CpuCoreModel::default();
        let cores = 2688.0;
        let parse = m.parse_rate.time_for(167e9 / cores);
        let count = m.count_rate.time_for(167e9 / cores);
        assert!((1000.0..1500.0).contains(&parse.as_secs()), "{parse}");
        assert!((2000.0..3000.0).contains(&count.as_secs()), "{count}");
    }
}
