//! The GPU k-mer counter (§III-B): parse and count on the device,
//! exchange unchanged.
//!
//! Per rank (6 per node, one V100 each):
//!
//! 1. **Parse & process** — concatenate the rank's reads into one packed
//!    base array, copy to the device, and launch the parse kernel: thread
//!    blocks take contiguous base chunks, threads build k-mers with a
//!    rolling window (coalesced reads, §III-B1), hash each k-mer with
//!    MurmurHash3 and append it to the outgoing buffer of its owner rank
//!    (atomic appends in the real kernel, tallied as such).
//! 2. **Exchange** — stage outgoing buffers to the host (unless
//!    GPUDirect), `MPI_Alltoallv`, stage received k-mers back in.
//! 3. **Count** — the device CAS/linear-probing table kernel (§III-B3).
//!
//! The phase skeleton (bucket → exchange rounds → count) lives in the
//! shared [`driver`](crate::pipeline::driver); this module only supplies
//! the device-side stages.

use crate::config::RunConfig;
use crate::partition::key_owner;
use crate::pipeline::driver::{
    exchange_items_round, run_staged, BucketOut, CounterOom, CounterStages, DriverCtx,
    PressureStats, RoundRecv,
};
use crate::pipeline::gpu_common::{
    block_range, chunked_launch, concat_rank_reads, reads_h2d_volume, staging, DeviceRoundCounter,
};
use crate::pipeline::{RankCountResult, RunError, RunReport};
use crate::width::PackedKmer;
use dedukt_dna::kmer::KmerWord;
use dedukt_dna::packed::ConcatReads;
use dedukt_dna::ReadSet;
use dedukt_net::cost::Network;
use dedukt_net::BspWorld;
use dedukt_sim::{DataVolume, MetricOp, SimTime};
use std::marker::PhantomData;

/// Calls `f` with every packed k-mer whose start position lies in
/// `[lo, hi)` of the concatenated base array, honouring read boundaries.
/// Returns the number of k-mers visited and the number of bases read.
/// Width-generic: the rolling window packs into any [`KmerWord`].
pub(crate) fn for_kmers_in_range<W: KmerWord>(
    concat: &ConcatReads,
    lo: usize,
    hi: usize,
    k: usize,
    mut f: impl FnMut(W),
) -> (u64, u64) {
    let mask = W::kmer_mask(k);
    let mut kmers = 0u64;
    let mut bases = 0u64;
    let mut ri = concat.ends.partition_point(|&e| e <= lo);
    while ri < concat.num_reads() {
        let (rs, re) = concat.read_span(ri);
        if rs >= hi {
            break;
        }
        let first = rs.max(lo);
        // A k-mer starting at p stays within its read iff p + k <= re.
        let last_excl = (re + 1).saturating_sub(k).min(hi);
        if first < last_excl {
            let mut w = W::ZERO;
            for p in first..first + k {
                w = w.roll_sym(concat.bases.symbol(p), mask);
            }
            f(w);
            kmers += 1;
            bases += k as u64;
            for p in first + 1..last_excl {
                w = w.roll_sym(concat.bases.symbol(p + k - 1), mask);
                f(w);
                kmers += 1;
                bases += 1;
            }
        }
        ri += 1;
    }
    (kmers, bases)
}

struct GpuKmerStages<K: PackedKmer>(PhantomData<K>);

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
        let cfg = &ctx.cfg;
        let nranks = ctx.nranks;
        let tuning = rc.gpu_tuning;
        let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
        let concat = concat_rank_reads(ctx.parts[rank], cfg);
        let h2d = staging(&device, rc, reads_h2d_volume(&concat));

        let nbases = concat.num_bases().max(1);
        let launch = chunked_launch(nbases);
        let (report, block_buckets) = device.launch_map("parse_kmers", launch, |b| {
            let (lo, hi) = block_range(nbases.min(concat.num_bases()), b.cfg.grid_blocks, b.block);
            let mut local: Vec<Vec<K>> = vec![Vec::new(); nranks];
            let (nk, nb) = for_kmers_in_range::<K>(&concat, lo, hi, cfg.k, |w| {
                let key = if cfg.canonical {
                    w.canonical_word(cfg.k)
                } else {
                    w
                };
                local[key_owner(&ctx.hasher, key, nranks)].push(key);
            });
            // Calibrated compute plus real traffic: packed reads stream
            // in coalesced; bucket appends scatter key-width words and
            // bump per-destination offsets atomically (warp-aggregated).
            b.instr((nk as f64 * tuning.parse_cycles_per_kmer) as u64);
            b.gmem_coalesced(nb / 4);
            b.gmem_random(nk * K::KMER_WIRE_BYTES);
            let atomics = nk / 32 + 1;
            b.atomic(atomics, atomics / (nranks as u64).max(32));
            local
        });

        // Merge per-block buckets (device-side compaction; charged above).
        let mut out: Vec<Vec<K>> = vec![Vec::new(); nranks];
        for blocks in block_buckets {
            for (dst, v) in blocks.into_iter().enumerate() {
                out[dst].extend(v);
            }
        }
        let out_bytes: u64 = out
            .iter()
            .map(|v| v.len() as u64 * K::KMER_WIRE_BYTES)
            .sum();
        let d2h = staging(&device, rc, DataVolume::from_bytes(out_bytes));
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
    fn exchange_round(
        &self,
        world: &mut BspWorld,
        round: Vec<Vec<Vec<K>>>,
        hidden: Option<&[SimTime]>,
    ) -> RoundRecv<K> {
        exchange_items_round(world, round, hidden)
    }

    fn stage_in(&self, ctx: &DriverCtx, received_items: u64) -> SimTime {
        let device = dedukt_gpu::Device::new(ctx.rc.gpu_device.clone());
        staging(
            &device,
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
        DeviceRoundCounter::new(ctx.rc, &ctx.cfg, rank, expected_instances)
    }

    fn count_round(
        &self,
        ctx: &DriverCtx,
        counter: &mut DeviceRoundCounter<K>,
        items: Vec<K>,
    ) -> Result<SimTime, CounterOom> {
        counter.count(&items, ctx.rc.gpu_tuning.count_cycles_per_kmer)
    }

    fn pressure(&self, counter: &DeviceRoundCounter<K>) -> PressureStats {
        counter.pressure()
    }

    fn snapshot_counts(&self, counter: &DeviceRoundCounter<K>) -> (Vec<(K, u32)>, u64) {
        counter.snapshot()
    }

    fn finish(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        counter: DeviceRoundCounter<K>,
    ) -> RankCountResult<K> {
        counter.finish(ctx, rank)
    }
}

/// Runs the GPU k-mer counter at the narrow (`u64`) key width.
///
/// Panics on an invalid configuration or an unsurvivable fault plan; use
/// [`crate::pipeline::run`] for the fallible entry point.
pub fn run_gpu_kmer(reads: &ReadSet, rc: &RunConfig) -> RunReport {
    run_gpu_kmer_typed::<u64>(reads, rc).expect("run failed")
}

/// Runs the GPU k-mer counter at an explicit key width.
pub fn run_gpu_kmer_typed<K: PackedKmer>(
    reads: &ReadSet,
    rc: &RunConfig,
) -> Result<RunReport<K>, RunError> {
    run_staged(&mut GpuKmerStages::<K>(PhantomData), reads, rc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::verify::{check_against_reference, reference_total};
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};

    fn tiny(nodes: usize) -> (ReadSet, RunConfig) {
        let reads = Dataset::new(DatasetId::VVulnificus30x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::GpuKmer, nodes);
        rc.collect_tables = true;
        (reads, rc)
    }

    #[test]
    fn kmer_iteration_respects_read_boundaries() {
        use dedukt_dna::base::Base;
        use dedukt_dna::Encoding;
        let r1: Vec<u8> = b"ACGTACG"
            .iter()
            .map(|&c| Base::from_ascii(c).unwrap().code())
            .collect();
        let r2: Vec<u8> = b"GGTT"
            .iter()
            .map(|&c| Base::from_ascii(c).unwrap().code())
            .collect();
        let concat = ConcatReads::from_reads([&r1[..], &r2[..]], Encoding::Alphabetical);
        let k = 3;
        let mut seen: Vec<u64> = Vec::new();
        let (nk, _) = for_kmers_in_range(&concat, 0, concat.num_bases(), k, |w| seen.push(w));
        // r1 has 5 k-mers, r2 has 2; none spanning the boundary.
        assert_eq!(nk, 7);
        assert_eq!(seen.len(), 7);
        // Splitting the range must visit exactly the same k-mers.
        for split in 1..concat.num_bases() {
            let mut split_seen: Vec<u64> = Vec::new();
            for_kmers_in_range(&concat, 0, split, k, |w| split_seen.push(w));
            for_kmers_in_range(&concat, split, concat.num_bases(), k, |w| {
                split_seen.push(w)
            });
            assert_eq!(split_seen, seen, "split at {split}");
        }
        // The wide instantiation visits the identical k-mers (values fit
        // narrow words at k=3, so the two widths must agree bit-for-bit).
        let mut wide: Vec<u128> = Vec::new();
        for_kmers_in_range(&concat, 0, concat.num_bases(), k, |w| wide.push(w));
        assert_eq!(wide, seen.iter().map(|&w| w as u128).collect::<Vec<_>>());
    }

    #[test]
    fn counts_match_oracle() {
        let (reads, rc) = tiny(1);
        let report = run_gpu_kmer(&reads, &rc);
        assert_eq!(report.total_kmers, reference_total(&reads, rc.counting.k));
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn gpu_and_cpu_agree_on_counts() {
        let (reads, rc) = tiny(2);
        let gpu = run_gpu_kmer(&reads, &rc);
        let mut rc_cpu = rc.clone();
        rc_cpu.mode = Mode::CpuBaseline;
        let cpu = crate::pipeline::cpu::run_cpu(&reads, &rc_cpu);
        assert_eq!(gpu.total_kmers, cpu.total_kmers);
        assert_eq!(gpu.distinct_kmers, cpu.distinct_kmers);
    }

    #[test]
    fn gpu_compute_is_much_faster_than_cpu_compute() {
        // The paper's headline (Fig. 3): GPU parse+count is orders of
        // magnitude faster than the CPU baseline on the same node count.
        let (reads, rc) = tiny(1);
        let gpu = run_gpu_kmer(&reads, &rc);
        let mut rc_cpu = rc.clone();
        rc_cpu.mode = Mode::CpuBaseline;
        let cpu = crate::pipeline::cpu::run_cpu(&reads, &rc_cpu);
        let cpu_compute = cpu.phases.parse + cpu.phases.count;
        let gpu_compute = gpu.phases.parse + gpu.phases.count;
        let ratio = cpu_compute / gpu_compute;
        assert!(ratio > 20.0, "GPU compute speedup too small: {ratio}");
    }

    #[test]
    fn gpu_direct_reduces_exchange_time() {
        let (reads, mut rc) = tiny(1);
        let staged = run_gpu_kmer(&reads, &rc);
        rc.gpu_direct = true;
        let direct = run_gpu_kmer(&reads, &rc);
        assert!(direct.phases.exchange < staged.phases.exchange);
        // Functional results identical.
        assert_eq!(direct.total_kmers, staged.total_kmers);
        assert_eq!(direct.distinct_kmers, staged.distinct_kmers);
    }

    #[test]
    fn wire_bytes_are_eight_per_kmer() {
        let (reads, rc) = tiny(1);
        let report = run_gpu_kmer(&reads, &rc);
        assert_eq!(report.exchange.bytes, report.exchange.units * 8);
        assert_eq!(report.exchange.units, report.total_kmers);
    }
}
