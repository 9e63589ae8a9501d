//! The GPU k-mer counter (§III-B): parse and count on the device,
//! exchange unchanged.
//!
//! Per rank (6 per node, one V100 each):
//!
//! 1. **Parse & process** — copy the rank's reads to the device as one
//!    concatenated, 2-bit packed base array, and launch the parse kernel:
//!    thread blocks take contiguous chunks of the concatenated base
//!    index, threads build k-mers with a rolling window (coalesced reads,
//!    §III-B1), hash each k-mer with MurmurHash3 and append it to the
//!    outgoing buffer of its owner rank (atomic appends in the real
//!    kernel, tallied as such). The simulator prices that layout without
//!    building it: the host→device copy is charged `ceil(bases / 4)`
//!    bytes plus one 8-byte read-end offset per read, each block charges
//!    a quarter byte per base it reads, and blocks take their
//!    [`block_range`] over the prefix sums of the read lengths while the
//!    kernel walks the reads' base codes in place.
//! 2. **Exchange** — stage outgoing buffers to the host (unless
//!    GPUDirect), `MPI_Alltoallv`, stage received k-mers back in.
//! 3. **Count** — the device CAS/linear-probing table kernel (§III-B3):
//!    the rank's `DeviceRoundCounter` reads each delivery's k-mers in
//!    place.
//!
//! The phase skeleton (bucket → exchange rounds → count) lives in the
//! shared staged driver (`pipeline::driver`); this module only supplies
//! the device-side stages.

use crate::config::RunConfig;
use crate::partition::key_owner;
use crate::pipeline::driver::{BucketOut, CounterOom, CounterStages, DriverCtx};
use crate::pipeline::gpu_common::{block_range, chunked_launch, staging, DeviceRoundCounter};
use crate::width::PackedKmer;
use dedukt_dna::kmer::{kmer_words_w, KmerWord};
use dedukt_dna::{Encoding, Read};
use dedukt_net::cost::Network;
use dedukt_sim::{DataVolume, MetricOp, SimTime};
use std::marker::PhantomData;

/// Exclusive end offsets of a part's reads in its concatenated base
/// index — the prefix sums of the read lengths. Read `i` spans
/// `ends[i - 1]..ends[i]` (with `ends[-1] = 0`): the out-of-band form of
/// the paper's in-band read-end bases.
pub(crate) fn read_ends(part: &[Read]) -> Vec<usize> {
    part.iter()
        .scan(0, |end, read| {
            *end += read.codes.len();
            Some(*end)
        })
        .collect()
}

/// Calls `f` with every packed k-mer whose start position lies in
/// `[lo, hi)` of the part's concatenated base index (`ends` from
/// [`read_ends`]), in order, never spanning a read boundary. Each read
/// segment inside the range is walked in place with [`kmer_words_w`].
/// Returns the number of k-mers visited and the number of bases read
/// (each segment's span: its k-mers plus `k - 1`). Both k-mer stages
/// share this walk: a GPU block over its [`block_range`], the CPU rank
/// over its whole part.
pub(crate) fn for_kmers_in_range<W: KmerWord>(
    part: &[Read],
    ends: &[usize],
    (lo, hi): (usize, usize),
    k: usize,
    encoding: Encoding,
    mut f: impl FnMut(W),
) -> (u64, u64) {
    let mut kmers = 0u64;
    let mut bases = 0u64;
    let first = ends.partition_point(|&e| e <= lo);
    for (read, &re) in part[first..].iter().zip(&ends[first..]) {
        let rs = re - read.codes.len();
        if rs >= hi {
            break;
        }
        // A k-mer starting at p stays within its read iff p + k <= re.
        let start = rs.max(lo);
        let stop = (re + 1).saturating_sub(k).min(hi);
        if start < stop {
            let segment = &read.codes[start - rs..stop - rs + k - 1];
            kmer_words_w::<W>(segment, k, encoding).for_each(&mut f);
            kmers += (stop - start) as u64;
            bases += segment.len() as u64;
        }
    }
    (kmers, bases)
}

/// Routes every k-mer whose start lies in `range` of rank `rank`'s part
/// to the bucket of its owner rank: canonicalized when the run counts
/// canonical k-mers, then placed by [`key_owner`]. Returns what
/// [`for_kmers_in_range`] returns. Both k-mer stages bucket with it: the
/// CPU rank over its whole part, each GPU parse block over its
/// [`block_range`].
pub(crate) fn route_kmers_in_range<K: PackedKmer>(
    ctx: &DriverCtx,
    rank: usize,
    ends: &[usize],
    range: (usize, usize),
    buckets: &mut [Vec<K>],
) -> (u64, u64) {
    let cfg = &ctx.cfg;
    for_kmers_in_range::<K>(ctx.parts[rank], ends, range, cfg.k, cfg.encoding, |w| {
        let key = if cfg.canonical {
            w.canonical_word(cfg.k)
        } else {
            w
        };
        buckets[key_owner(&ctx.hasher, key, ctx.nranks)].push(key);
    })
}

pub(crate) struct GpuKmerStages<K: PackedKmer>(pub(crate) PhantomData<K>);

impl<K: PackedKmer> CounterStages for GpuKmerStages<K> {
    type Key = K;
    type Item = K;
    type Counter = DeviceRoundCounter<K>;

    const ITEM_WIRE_BYTES: u64 = K::KMER_WIRE_BYTES;
    const BUCKET_PHASE: &'static str = "parse";

    fn network(&self, rc: &RunConfig) -> Network {
        Network::summit_gpu(rc.nodes)
    }

    // ── Phase 1: parse & process on the device ────────────────────────
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<K> {
        let rc = ctx.rc;
        let nranks = ctx.nranks;
        let tuning = rc.gpu_tuning;
        let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
        let ends = read_ends(ctx.parts[rank]);
        let nbases = ends.last().copied().unwrap_or(0);
        // The packed layout's bytes: 2-bit bases plus the read-end offsets.
        let h2d = staging(
            rc,
            DataVolume::from_bytes((nbases.div_ceil(4) + ends.len() * 8) as u64),
        );

        let mut out: Vec<Vec<K>> = vec![Vec::new(); nranks];
        let launch = chunked_launch(nbases);
        let report = device.launch_map("parse_kmers", launch, |b| {
            let range = block_range(nbases, b.cfg.grid_blocks, b.block);
            let (nk, nb) = route_kmers_in_range(ctx, rank, &ends, range, &mut out);
            // Calibrated compute plus real traffic: packed reads stream
            // in coalesced; bucket appends scatter key-width words and
            // bump per-destination offsets atomically (warp-aggregated).
            b.instr((nk as f64 * tuning.parse_cycles_per_kmer) as u64);
            b.gmem_coalesced(nb / 4);
            b.gmem_random(nk * K::KMER_WIRE_BYTES);
            let atomics = nk / 32 + 1;
            b.atomic(atomics, atomics / (nranks as u64).max(32));
        });

        let out_bytes: u64 = out
            .iter()
            .map(|v| v.len() as u64 * K::KMER_WIRE_BYTES)
            .sum();
        let d2h = staging(rc, DataVolume::from_bytes(out_bytes));
        ctx.rank_metrics(rank, || {
            [
                (
                    "kernel_occupancy:parse_kmers",
                    MetricOp::GaugeSet(report.occupancy),
                ),
                (
                    "device_peak_bytes",
                    MetricOp::GaugeMax(device.peak_bytes() as f64),
                ),
            ]
        });
        BucketOut {
            buckets: out,
            compute: h2d + report.time,
            stage_out: d2h,
        }
    }

    fn item_instances(&self, _ctx: &DriverCtx, _item: &K) -> u64 {
        1
    }

    fn bin_of(&self, ctx: &DriverCtx, key: &K, nbins: usize) -> usize {
        key_owner(&ctx.hasher, *key, nbins)
    }

    // ── Phase 2: exchange (stage out, Alltoallv rounds, stage in) ─────
    // The rounds are the driver's default: one collective of packed
    // k-mers each.
    fn stage_in(&self, ctx: &DriverCtx, received_items: u64) -> SimTime {
        staging(
            ctx.rc,
            DataVolume::from_bytes(received_items * K::KMER_WIRE_BYTES),
        )
    }

    // ── Phase 3: count on the device ──────────────────────────────────
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
    use crate::config::Mode;
    use crate::pipeline::cpu::CpuStages;
    use crate::pipeline::run;
    use crate::verify::{check_against_reference, reference_total};
    use dedukt_dna::{Dataset, DatasetId, ReadSet, ScalePreset};

    fn tiny(nodes: usize) -> (ReadSet, RunConfig) {
        let reads = Dataset::new(DatasetId::VVulnificus30x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuKmer, nodes);
        rc.collect_tables = true;
        (reads, rc)
    }

    /// Splits `part` at every block count from 1 up to the grid the
    /// parse kernel launches for it, and checks the blocks' walks against
    /// [`kmer_words_w`] over each whole read.
    fn check_walk<W: KmerWord>(
        part: &[Read],
        k: usize,
        encoding: Encoding,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let ends = read_ends(part);
        let nbases = ends.last().copied().unwrap_or(0);
        let expected: Vec<W> = part
            .iter()
            .flat_map(|r| kmer_words_w::<W>(&r.codes, k, encoding))
            .collect();
        let total: usize = part
            .iter()
            .map(|r| (r.codes.len() + 1).saturating_sub(k))
            .sum();
        proptest::prop_assert_eq!(expected.len(), total);
        for nblocks in 1..=chunked_launch(nbases).grid_blocks {
            let mut seen: Vec<W> = Vec::new();
            let mut nk_sum = 0;
            for b in 0..nblocks {
                let (lo, hi) = block_range(nbases, nblocks, b);
                let mut block: Vec<W> = Vec::new();
                let (nk, nb) =
                    for_kmers_in_range::<W>(part, &ends, (lo, hi), k, encoding, |w| block.push(w));
                proptest::prop_assert_eq!(nk as usize, block.len());
                // A block reads the span of each read segment it walks:
                // its k-mer starts in the read, plus k - 1.
                let spans: usize = part
                    .iter()
                    .zip(&ends)
                    .map(|(r, &re)| {
                        let rs = re - r.codes.len();
                        let starts = (rs..(re + 1).saturating_sub(k))
                            .filter(|p| (lo..hi).contains(p))
                            .count();
                        if starts > 0 {
                            starts + k - 1
                        } else {
                            0
                        }
                    })
                    .sum();
                proptest::prop_assert_eq!(nb as usize, spans, "block {} of {}", b, nblocks);
                nk_sum += nk as usize;
                seen.extend(block);
            }
            proptest::prop_assert_eq!(nk_sum, total);
            proptest::prop_assert!(seen == expected, "{} blocks reorder k-mers", nblocks);
        }
        Ok(())
    }

    /// Reads of `pick`-driven lengths in `0..=2k`: exactly `k`, shorter
    /// than `k`, or anywhere in the range.
    fn part_of(reads: &[(usize, Vec<u8>)], k: usize) -> Vec<Read> {
        reads
            .iter()
            .map(|(pick, bases)| {
                let len = match pick % 4 {
                    0 => k,
                    1 => pick / 4 % k,
                    _ => pick / 4 % (2 * k + 1),
                };
                Read {
                    id: String::new(),
                    codes: bases[..len].to_vec(),
                    quals: None,
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// The in-place walk visits exactly each read's k-mers, in read
        /// order, at either key width and however the part is split into
        /// blocks; reads shorter than k contribute none.
        #[test]
        fn walk_matches_per_read_kmers_at_every_split(
            parts in proptest::collection::vec(
                proptest::collection::vec((0usize..1024, proptest::collection::vec(0u8..4, 126)), 0..10),
                1..4,
            ),
            k_pick in 0usize..1024,
            paper_encoding in proptest::prelude::any::<bool>(),
        ) {
            let encoding = if paper_encoding {
                Encoding::PaperRandom
            } else {
                Encoding::Alphabetical
            };
            let narrow_k = 1 + k_pick % 31;
            let wide_k = 32 + k_pick % 32;
            check_walk::<u64>(&[], narrow_k, encoding)?;
            check_walk::<u128>(&[], wide_k, encoding)?;
            for reads in &parts {
                check_walk::<u64>(&part_of(reads, narrow_k), narrow_k, encoding)?;
                check_walk::<u128>(&part_of(reads, wide_k), wide_k, encoding)?;
            }
        }
    }

    /// Every rank's GPU parse buckets equal the CPU engine's, per
    /// destination and in order.
    fn assert_buckets_match_cpu<K: PackedKmer>(ctx: &DriverCtx) {
        for rank in 0..ctx.nranks {
            let gpu = GpuKmerStages::<K>(PhantomData).bucket(ctx, rank).buckets;
            let cpu = CpuStages::<K>(PhantomData).bucket(ctx, rank).buckets;
            assert_eq!(gpu.len(), ctx.nranks);
            assert!(
                gpu.iter().any(|b| !b.is_empty()),
                "rank {rank} routed nothing"
            );
            assert!(gpu == cpu, "rank {rank}: GPU and CPU buckets differ");
        }
    }

    #[test]
    fn buckets_equal_cpu_buckets_at_both_widths() {
        let (reads, mut rc) = tiny(1);
        for (k, m) in [(17, 7), (41, 11)] {
            for canonical in [false, true] {
                rc.counting.k = k;
                rc.counting.m = m;
                rc.counting.canonical = canonical;
                let ctx = DriverCtx::new(&rc, &reads, None);
                if k < 32 {
                    assert_buckets_match_cpu::<u64>(&ctx);
                } else {
                    assert_buckets_match_cpu::<u128>(&ctx);
                }
            }
        }
    }

    #[test]
    fn counts_match_oracle() {
        let (reads, rc) = tiny(1);
        let report = run(&reads, &rc).unwrap();
        assert_eq!(report.total_kmers, reference_total(&reads, rc.counting.k));
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn gpu_and_cpu_agree_on_counts() {
        let (reads, rc) = tiny(2);
        let gpu = run(&reads, &rc).unwrap();
        let mut rc_cpu = rc.clone();
        rc_cpu.mode = Mode::CpuBaseline;
        let cpu = run(&reads, &rc_cpu).unwrap();
        assert_eq!(gpu.total_kmers, cpu.total_kmers);
        assert_eq!(gpu.distinct_kmers, cpu.distinct_kmers);
    }

    #[test]
    fn gpu_compute_is_much_faster_than_cpu_compute() {
        // The paper's headline (Fig. 3): GPU parse+count is orders of
        // magnitude faster than the CPU baseline on the same node count.
        let (reads, rc) = tiny(1);
        let gpu = run(&reads, &rc).unwrap();
        let mut rc_cpu = rc.clone();
        rc_cpu.mode = Mode::CpuBaseline;
        let cpu = run(&reads, &rc_cpu).unwrap();
        let cpu_compute = cpu.phases.parse + cpu.phases.count;
        let gpu_compute = gpu.phases.parse + gpu.phases.count;
        let ratio = cpu_compute / gpu_compute;
        assert!(ratio > 20.0, "GPU compute speedup too small: {ratio}");
    }

    #[test]
    fn gpu_direct_reduces_exchange_time() {
        let (reads, mut rc) = tiny(1);
        let staged = run(&reads, &rc).unwrap();
        rc.gpu_direct = true;
        let direct = run(&reads, &rc).unwrap();
        assert!(direct.phases.exchange < staged.phases.exchange);
        // Functional results identical.
        assert_eq!(direct.total_kmers, staged.total_kmers);
        assert_eq!(direct.distinct_kmers, staged.distinct_kmers);
    }

    #[test]
    fn wire_bytes_are_eight_per_kmer() {
        let (reads, rc) = tiny(1);
        let report = run(&reads, &rc).unwrap();
        assert_eq!(report.exchange.bytes, report.exchange.units * 8);
        assert_eq!(report.exchange.units, report.total_kmers);
    }
}
