//! The GPU supermer counter (§IV): communicate supermers, not k-mers.
//!
//! Differences from the k-mer pipeline:
//!
//! * **Parse** — one thread per *window* of `window` k-mer positions
//!   (§IV-B, Fig. 5): the thread scans its window's k-mers, tracks the
//!   minimizer, extends the supermer in a register while the minimizer is
//!   unchanged, and writes each finished supermer (packed word + length
//!   byte) to the outgoing buffer of `HASH(minimizer) % P`. All k-mers of
//!   a supermer share its minimizer, so they all land on the same rank.
//! * **Exchange** — two `MPI_Alltoallv`s (Algorithm 2): the supermer
//!   words and their lengths. 9 bytes per supermer instead of 8 bytes per
//!   k-mer — the up-to-4× volume reduction of Table II.
//! * **Count** — the same device counter as the k-mer pipeline
//!   (`DeviceRoundCounter`, fed supermers), its kernel reading each
//!   block's k-mers straight out of the received supermers
//!   (`SupermerKmers`): the re-parse happens inside the kernel (charged
//!   as the paper's measured +23-27% counting overhead), so no rank ever
//!   holds an expanded k-mer array.
//!
//! The phase skeleton (bucket → exchange rounds → count) lives in the
//! shared staged driver (`pipeline::driver`); this module supplies the
//! supermer-specific stages, including the two-collective traffic and
//! the §VII balanced-minimizer pre-pass.

use crate::config::RunConfig;
use crate::partition::{minimizer_owner, BalancedAssignment};
use crate::pipeline::driver::{BucketOut, CounterOom, CounterStages, DriverCtx};
use crate::pipeline::gpu_common::{
    block_range, chunked_launch, staging, DeviceItem, DeviceRoundCounter, KmerSource,
};
use crate::supermer::{build_supermers_reference, num_windows, supermers_of_windows};
use crate::width::PackedKmer;
use dedukt_net::bsp::Traffic;
use dedukt_net::cost::Network;
use dedukt_net::{BspWorld, WireHash};
use dedukt_sim::{DataVolume, Histogram, MetricOp, SimTime};
use std::collections::HashMap;
use std::marker::PhantomData;

/// A supermer between bucketing and counting: the packed word and its
/// length, stored unaligned so it occupies exactly its flat wire bytes
/// (9 narrow, 17 wide) rather than a padded tuple's 16 or 32.
#[derive(Clone, Copy)]
#[repr(C, packed)]
pub(crate) struct PackedSupermer<K: Copy> {
    /// Packed bases, `2 × len` bits.
    pub word: K,
    /// Length in bases.
    pub len: u8,
}

impl<K: Copy + WireHash> WireHash for PackedSupermer<K> {
    fn wire_hash(&self) -> u64 {
        (self.word, self.len).wire_hash()
    }
}

impl<K: PackedKmer> PackedSupermer<K> {
    /// Number of k-mers packed inside, for k-mer length `k`: a supermer
    /// of `len` bases yields `len - k + 1` (zero if shorter than k).
    pub fn num_kmers(&self, k: usize) -> usize {
        (self.len as usize).saturating_sub(k - 1)
    }

    /// Its k-mers, left to right.
    pub fn kmers(self, k: usize) -> impl Iterator<Item = K> {
        let (word, len) = (self.word, self.len as usize);
        (0..self.num_kmers(k)).map(move |i| word.subword(len, i, k))
    }
}

/// The count kernel's view of a round's received supermers: the k-mers
/// of the concatenated buckets, extracted block by block into one buffer
/// reused from block to block, so no rank holds the round's k-mers as an
/// array (§IV-C: the receiver re-parses supermers inside the count
/// kernel). Each bucket is freed once its last k-mer is read.
pub(crate) struct SupermerKmers<K, I> {
    kmers: I,
    total: usize,
    /// The first k-mer of the next block.
    next: usize,
    buf: Vec<K>,
}

/// The k-mers of `buckets`, in bucket order, as a count-kernel source.
pub(crate) fn supermer_kmers<K: PackedKmer>(
    buckets: Vec<Vec<PackedSupermer<K>>>,
    k: usize,
) -> SupermerKmers<K, impl Iterator<Item = K>> {
    SupermerKmers {
        total: buckets.iter().flatten().map(|s| s.num_kmers(k)).sum(),
        kmers: buckets.into_iter().flatten().flat_map(move |s| s.kmers(k)),
        next: 0,
        buf: Vec::new(),
    }
}

impl<K, I: Iterator<Item = K>> KmerSource<K> for SupermerKmers<K, I> {
    fn total(&self) -> usize {
        self.total
    }

    fn read(&mut self, lo: usize, hi: usize, mut f: impl FnMut(&[K])) {
        assert_eq!(lo, self.next, "blocks read their k-mers in order");
        self.buf.clear();
        self.buf.extend(self.kmers.by_ref().take(hi - lo));
        assert_eq!(self.buf.len(), hi - lo, "k-mer range past the round");
        self.next = hi;
        f(&self.buf);
    }
}

/// The count kernel extracts each block's k-mers itself (§IV-C); the
/// extraction's cost is the surcharge on the count kernel.
impl<K: PackedKmer> DeviceItem<K> for PackedSupermer<K> {
    fn count(
        counter: &mut DeviceRoundCounter<K>,
        buckets: Vec<Vec<Self>>,
    ) -> Result<SimTime, CounterOom> {
        let tuning = counter.tuning;
        let kmers = supermer_kmers(buckets, counter.k);
        counter.count(
            kmers,
            tuning.count_cycles_per_kmer + tuning.extract_cycles_per_kmer,
        )
    }
}

pub(crate) struct SupermerStages<K: PackedKmer> {
    assignment: Option<BalancedAssignment>,
    /// Ship buckets through the [`crate::wire`] codec (`--wire-compress`)
    /// instead of the flat word + length-byte records.
    compress: bool,
    _key: PhantomData<K>,
}

impl<K: PackedKmer> SupermerStages<K> {
    pub(crate) fn new(rc: &RunConfig) -> Self {
        SupermerStages {
            assignment: None,
            compress: rc.wire_compress,
            _key: PhantomData,
        }
    }

    fn owner(&self, ctx: &DriverCtx, mz: u64) -> usize {
        match &self.assignment {
            Some(a) => a.owner(mz),
            None => minimizer_owner(&ctx.hasher, mz, ctx.nranks),
        }
    }
}

impl<K: PackedKmer> CounterStages for SupermerStages<K> {
    type Key = K;
    type Item = PackedSupermer<K>;
    type Counter = DeviceRoundCounter<K>;

    const ITEM_WIRE_BYTES: u64 = K::SUPERMER_WIRE_BYTES;
    const BUCKET_PHASE: &'static str = "build-supermers";

    fn network(&self, rc: &RunConfig) -> Network {
        Network::summit_gpu(rc.nodes)
    }

    // ── Optional pre-pass: frequency-aware balanced assignment (§VII) ─
    // Each rank samples a deterministic stride of its reads, weights are
    // merged (an Allgather in real MPI), and every rank derives the same
    // minimizer→rank map. Sampling time joins the parse phase.
    fn prepass(&mut self, ctx: &DriverCtx, world: &mut BspWorld) -> SimTime {
        let rc = ctx.rc;
        if !rc.balanced_minimizers {
            return SimTime::ZERO;
        }
        let cfg = &ctx.cfg;
        let nranks = ctx.nranks;
        let scheme = cfg.minimizer_scheme();
        let tuning = rc.gpu_tuning;
        let stride = (1.0 / rc.balance_sample_fraction.clamp(0.001, 1.0)).round() as usize;
        let (rank_weights, sample_times) = world.compute_step_named("sample-minimizers", |rank| {
            let mut weights: HashMap<u64, u64> = HashMap::new();
            let mut sampled_kmers = 0u64;
            for read in ctx.parts[rank].iter().step_by(stride.max(1)) {
                for sm in build_supermers_reference::<K>(&read.codes, cfg.k, &scheme) {
                    let nk = sm.num_kmers(cfg.k) as u64;
                    *weights.entry(sm.minimizer).or_insert(0) += nk;
                    sampled_kmers += nk;
                }
            }
            let dt = SimTime::from_secs(
                sampled_kmers as f64 * tuning.supermer_parse_cycles_per_kmer
                    / rc.gpu_device.peak_instr_rate().units_per_sec(),
            );
            (weights, dt)
        });
        let mut merged: HashMap<u64, u64> = HashMap::new();
        let mut weight_bytes = 0u64;
        for w in rank_weights {
            weight_bytes += w.len() as u64 * 16;
            for (mz, n) in w {
                *merged.entry(mz).or_insert(0) += n;
            }
        }
        self.assignment = Some(BalancedAssignment::build(&merged, nranks, cfg.hash_seed));
        sample_times.mean
            + world
                .network()
                .allreduce_time(weight_bytes / nranks.max(1) as u64)
    }

    // ── Phase 1: build supermers on the device (§IV-B) ────────────────
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<PackedSupermer<K>> {
        let rc = ctx.rc;
        let cfg = &ctx.cfg;
        let nranks = ctx.nranks;
        let tuning = rc.gpu_tuning;
        let scheme = cfg.minimizer_scheme();
        let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
        let part = ctx.parts[rank];

        // Window index: prefix sums of per-read window counts. The real
        // kernel computes this on the host while batching reads.
        let mut win_offsets = Vec::with_capacity(part.len() + 1);
        win_offsets.push(0usize);
        for r in part {
            win_offsets.push(win_offsets.last().unwrap() + num_windows(r.len(), cfg.k, cfg.window));
        }
        let total_windows = *win_offsets.last().unwrap();
        let total_bases: usize = part.iter().map(|r| r.len()).sum();
        let h2d = staging(
            rc,
            DataVolume::from_bytes((total_bases / 4 + part.len() * 8) as u64),
        );

        let mut buckets: Vec<Vec<PackedSupermer<K>>> = vec![Vec::new(); nranks];
        let launch = chunked_launch(total_windows.max(1));
        let report = device.launch_map("build_supermers", launch, |b| {
            let (lo, hi) = block_range(total_windows, b.cfg.grid_blocks, b.block);
            let mut kmers_scanned = 0u64;
            let mut smers_built = 0u64;
            // The block's windows, read by read: the first read is the
            // one owning window `lo`.
            let mut ri = win_offsets.partition_point(|&o| o <= lo) - 1;
            while ri < part.len() && win_offsets[ri] < hi {
                let first = win_offsets[ri];
                let windows = lo.max(first) - first..hi.min(win_offsets[ri + 1]) - first;
                let codes = &part[ri].codes;
                supermers_of_windows(codes, windows, cfg.k, cfg.window, &scheme, |sm| {
                    buckets[self.owner(ctx, sm.minimizer)].push(PackedSupermer {
                        word: sm.word,
                        len: sm.len,
                    });
                    kmers_scanned += sm.num_kmers(cfg.k) as u64;
                    smers_built += 1;
                });
                ri += 1;
            }
            // Calibrated compute per k-mer scanned (includes the rolling
            // minimizer search — the paper's +27-33% parse overhead), plus
            // real traffic: packed reads in, word + length byte per
            // supermer out (9 B narrow, 17 B wide), one warp-aggregated
            // append per supermer.
            b.instr((kmers_scanned as f64 * tuning.supermer_parse_cycles_per_kmer) as u64);
            b.gmem_coalesced(kmers_scanned / 4 + cfg.k as u64);
            b.gmem_random(smers_built * K::SUPERMER_WIRE_BYTES);
            let atomics = smers_built / 32 + 1;
            b.atomic(atomics, atomics / (nranks as u64).max(32));
        });

        let out_bytes: u64 = buckets
            .iter()
            .map(|v| v.len() as u64 * K::SUPERMER_WIRE_BYTES)
            .sum();
        let d2h = staging(rc, DataVolume::from_bytes(out_bytes));
        ctx.rank_metrics(rank, || {
            // Supermer-length distribution and the wire-compression ratio
            // this rank achieved: one k-mer word each (8/16 B) had they
            // been sent raw vs one word + length byte (9/17 B) per
            // supermer actually sent (Table II's saving).
            let mut length_hist = Histogram::new();
            let mut kmer_count = 0u64;
            for s in buckets.iter().flatten() {
                length_hist.observe(s.len as u64);
                kmer_count += s.num_kmers(cfg.k) as u64;
            }
            let supermer_count = length_hist.count();
            let mut observed = vec![
                (
                    "supermer_length_bases",
                    MetricOp::HistogramMerge(length_hist),
                ),
                (
                    "supermers_built_total",
                    MetricOp::CounterAdd(supermer_count),
                ),
            ];
            if supermer_count > 0 {
                observed.push((
                    "supermer_compression_ratio",
                    MetricOp::GaugeSet(
                        (kmer_count * K::KMER_WIRE_BYTES) as f64
                            / (supermer_count * K::SUPERMER_WIRE_BYTES) as f64,
                    ),
                ));
            }
            observed.push((
                "kernel_occupancy:build_supermers",
                MetricOp::GaugeSet(report.occupancy),
            ));
            observed.push((
                "device_peak_bytes",
                MetricOp::GaugeMax(device.peak_bytes() as f64),
            ));
            observed
        });
        BucketOut {
            buckets,
            compute: h2d + report.time,
            stage_out: d2h,
        }
    }

    fn item_instances(&self, ctx: &DriverCtx, item: &PackedSupermer<K>) -> u64 {
        // Exactly what `SupermerKmers` extracts.
        item.num_kmers(ctx.cfg.k) as u64
    }

    // The wire carries no minimizer, so it is recomputed from the
    // supermer's first k-mer (every k-mer of a supermer shares it). The
    // sub-bin hash splits an owner's range; under hash routing the
    // formula is exactly `minimizer_owner` over `nbins`.
    fn bin_of(&self, ctx: &DriverCtx, item: &PackedSupermer<K>, nbins: usize) -> usize {
        let (word, len) = (item.word, item.len);
        let k = ctx.cfg.k;
        let mz = ctx
            .cfg
            .minimizer_scheme()
            .minimizer_of(word.subword(len as usize, 0, k), k)
            .word;
        let per_rank = nbins / ctx.nranks;
        self.owner(ctx, mz) * per_rank + minimizer_owner(&ctx.hasher, mz, nbins) % per_rank
    }

    // ── Phase 2: exchange supermers + lengths (Algorithm 2) ───────────
    // Two collectives per round: the packed words, then the length bytes
    // (word + 1 B = the 9 or 17 wire bytes per supermer). Hidden compute,
    // when present, overlaps the words collective — the bulk of the
    // volume. Both collectives share the round's fault fates: a bucket's
    // words and lengths fail or deliver together.
    //
    // Under `--wire-compress` each minimizer bucket rides the
    // [`crate::wire`] codec as a single byte stream (lengths varint/delta
    // coded, bases packed 2 bits each), so words and lengths collapse
    // into *one* collective. The wire is charged the codec's physical
    // bytes while the journal and metrics keep reporting the *logical*
    // flat volume (`units × (WORD_BYTES + 1)`). The codec's size depends
    // on the lengths alone ([`crate::wire::encoded_len`]), and the items
    // themselves move uncoded, so counts are those of the flat exchange.
    fn traffic(&self, round: &[Vec<Vec<PackedSupermer<K>>>]) -> Vec<Traffic> {
        if self.compress {
            let bytes = round
                .iter()
                .map(|row| {
                    row.iter()
                        .map(|payload| crate::wire::encoded_len(payload.iter().map(|s| s.len)))
                        .collect()
                })
                .collect();
            let flat = Traffic::flat(round, crate::wire::flat_wire_bytes::<K>());
            vec![Traffic {
                bytes,
                logical: Some(flat.bytes),
            }]
        } else {
            vec![
                Traffic::flat(round, K::KMER_WIRE_BYTES),
                Traffic::flat(round, 1),
            ]
        }
    }

    fn stage_in(&self, ctx: &DriverCtx, received_items: u64) -> SimTime {
        staging(
            ctx.rc,
            DataVolume::from_bytes(received_items * K::SUPERMER_WIRE_BYTES),
        )
    }

    // ── Phase 3: extract k-mers from supermers and count (§IV-C) ──────
    fn make_counter(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        expected_instances: u64,
    ) -> Result<DeviceRoundCounter<K>, CounterOom> {
        DeviceRoundCounter::new(ctx.rc, rank, expected_instances)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigError;
    use crate::config::Mode;
    use crate::pipeline::{run, RunError};
    use crate::verify::{check_against_reference, reference_total};
    use dedukt_dna::{Dataset, DatasetId, ReadSet, ScalePreset};

    fn tiny(nodes: usize) -> (ReadSet, RunConfig) {
        let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuSupermer, nodes);
        rc.collect_tables = true;
        (reads, rc)
    }

    /// Every rank's supermer buckets equal, per destination, its reads'
    /// windowed supermers in read order, each routed to its minimizer's
    /// owner.
    fn assert_buckets_match_windowed<K: PackedKmer>(ctx: &DriverCtx) {
        let stages = SupermerStages::<K>::new(ctx.rc);
        let cfg = &ctx.cfg;
        let scheme = cfg.minimizer_scheme();
        for rank in 0..ctx.nranks {
            let mut expected: Vec<Vec<(K, u8)>> = vec![Vec::new(); ctx.nranks];
            for read in ctx.parts[rank] {
                for sm in crate::supermer::build_supermers_windowed_w::<K>(
                    &read.codes,
                    cfg.k,
                    cfg.window,
                    &scheme,
                ) {
                    expected[stages.owner(ctx, sm.minimizer)].push((sm.word, sm.len));
                }
            }
            let got: Vec<Vec<(K, u8)>> = stages
                .bucket(ctx, rank)
                .buckets
                .iter()
                .map(|b| b.iter().map(|s| (s.word, s.len)).collect())
                .collect();
            assert!(
                expected.iter().any(|b| !b.is_empty()),
                "rank {rank} routed nothing"
            );
            assert!(got == expected, "rank {rank}: supermer buckets differ");
        }
    }

    #[test]
    fn buckets_equal_routed_windowed_supermers_at_both_widths() {
        let (reads, mut rc) = tiny(1);
        let ctx = DriverCtx::new(&rc, &reads, None);
        assert_buckets_match_windowed::<u64>(&ctx);
        rc.counting.k = 41;
        rc.counting.m = 11;
        let ctx = DriverCtx::new(&rc, &reads, None);
        assert_buckets_match_windowed::<u128>(&ctx);
    }

    #[test]
    fn counts_match_oracle() {
        let (reads, rc) = tiny(1);
        let report = run(&reads, &rc).unwrap();
        assert_eq!(report.total_kmers, reference_total(&reads, rc.counting.k));
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn counts_match_oracle_multi_node() {
        let (reads, rc) = tiny(2);
        let report = run(&reads, &rc).unwrap();
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn agrees_with_kmer_pipeline() {
        let (reads, rc) = tiny(1);
        let sm = run(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = run(&reads, &rck).unwrap();
        assert_eq!(sm.total_kmers, km.total_kmers);
        assert_eq!(sm.distinct_kmers, km.distinct_kmers);
    }

    #[test]
    fn fewer_units_and_bytes_than_kmer_pipeline() {
        // Table II's claim: supermers cut exchanged units ~3-4× and bytes
        // accordingly (9 B per supermer vs 8 B per k-mer).
        let (reads, rc) = tiny(1);
        let sm = run(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = run(&reads, &rck).unwrap();
        assert!(
            sm.exchange.units * 2 < km.exchange.units,
            "supermers {} vs k-mers {}",
            sm.exchange.units,
            km.exchange.units
        );
        assert!(sm.exchange.bytes * 2 < km.exchange.bytes);
        assert_eq!(sm.exchange.bytes, sm.exchange.units * 9);
    }

    #[test]
    fn supermer_compute_is_slower_but_exchange_faster() {
        // §V-C's trade-off, at matched node count.
        let (reads, rc) = tiny(1);
        let sm = run(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = run(&reads, &rck).unwrap();
        assert!(
            sm.phases.parse > km.phases.parse,
            "supermer parse must cost more"
        );
        assert!(
            sm.phases.count > km.phases.count,
            "supermer count must cost more"
        );
        assert!(
            sm.exchange.alltoallv_time < km.exchange.alltoallv_time,
            "supermer Alltoallv must be faster: {} vs {}",
            sm.exchange.alltoallv_time,
            km.exchange.alltoallv_time
        );
    }

    #[test]
    fn supermer_load_is_more_imbalanced_than_kmer_load() {
        // Table III: minimizer-based routing skews per-rank loads.
        let (reads, rc) = tiny(2); // 12 ranks
        let sm = run(&reads, &rc).unwrap();
        let mut rck = rc.clone();
        rck.mode = Mode::GpuKmer;
        let km = run(&reads, &rck).unwrap();
        assert!(
            sm.load.imbalance() > km.load.imbalance(),
            "supermer imbalance {} must exceed k-mer imbalance {}",
            sm.load.imbalance(),
            km.load.imbalance()
        );
    }

    #[test]
    fn wire_compression_preserves_counts_and_shrinks_the_wire() {
        let (reads, rc) = tiny(2);
        let flat = run(&reads, &rc).unwrap();
        let mut rcc = rc.clone();
        rcc.wire_compress = true;
        let packed = run(&reads, &rcc).unwrap();
        // Bit-identical functional results: the codec only changes what
        // the wire carries, never what arrives.
        assert_eq!(packed.total_kmers, flat.total_kmers);
        assert_eq!(packed.distinct_kmers, flat.distinct_kmers);
        assert_eq!(packed.tables, flat.tables);
        // Logical volume (units × 9 B) is unchanged; the *physical*
        // exchange gets cheaper, so the simulated collective is faster.
        assert_eq!(packed.exchange.units, flat.exchange.units);
        assert!(
            packed.exchange.bytes < flat.exchange.bytes,
            "encoded wire {} B must undercut flat {} B",
            packed.exchange.bytes,
            flat.exchange.bytes
        );
        assert!(
            packed.exchange.alltoallv_time < flat.exchange.alltoallv_time,
            "compressed wire {} must beat flat {}",
            packed.exchange.alltoallv_time,
            flat.exchange.alltoallv_time
        );
    }

    #[test]
    fn canonical_mode_is_rejected() {
        let (reads, mut rc) = tiny(1);
        rc.counting.canonical = true;
        assert!(matches!(
            run(&reads, &rc),
            Err(RunError::Config(ConfigError::CanonicalSupermer))
        ));
    }

    #[test]
    fn balanced_assignment_preserves_counts_and_reduces_imbalance() {
        // §VII future-work extension: frequency-aware routing must change
        // *where* k-mers are counted, never *what* is counted.
        let reads = Dataset::new(DatasetId::CElegans40x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuSupermer, 4);
        rc.collect_tables = true;
        let hashed = run(&reads, &rc).unwrap();
        rc.balanced_minimizers = true;
        rc.balance_sample_fraction = 0.25;
        let balanced = run(&reads, &rc).unwrap();
        assert_eq!(balanced.total_kmers, hashed.total_kmers);
        assert_eq!(balanced.distinct_kmers, hashed.distinct_kmers);
        crate::verify::check_against_reference(
            &reads,
            &rc.counting,
            balanced.tables.as_ref().unwrap(),
        )
        .unwrap();
        assert!(
            balanced.load.imbalance() < hashed.load.imbalance(),
            "balanced {} should beat hashed {}",
            balanced.load.imbalance(),
            hashed.load.imbalance()
        );
        // The pre-pass costs parse time.
        assert!(balanced.phases.parse > hashed.phases.parse);
    }
}
