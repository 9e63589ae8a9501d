//! Shared machinery of the two GPU pipelines (§III-B / §IV-B).

use crate::config::{GpuTuning, RunConfig};
use crate::pipeline::driver::{Counter, CounterOom, DriverCtx, PressureStats, Sink};
use crate::pipeline::RankCountResult;
use crate::table::{table_capacity, DeviceCountTable, InsertOutcome};
use crate::width::PackedKmer;
use dedukt_gpu::mem_plan::{alloc_fails, estimate_factor};
use dedukt_gpu::transfer::staging_time;
use dedukt_gpu::{Device, LaunchConfig, MemPlan};
use dedukt_sim::{DataVolume, Histogram, MetricOp, SimTime};
use rayon::prelude::*;

/// Thread-block size used by all pipeline kernels.
pub const BLOCK_THREADS: u32 = 256;

/// Upper bound on grid size: blocks process chunks grid-stride style, as
/// the paper's kernels do ("the copied array is evenly partitioned into
/// smaller chunks of bases and is assigned to different thread blocks").
pub const MAX_GRID_BLOCKS: u32 = 640; // 80 SMs × 8 resident blocks

/// A launch covering `work_items` with chunked blocks.
///
/// Prefers 256-thread blocks; for small batches it steps the block size
/// down (to a floor of 32) so the grid still spreads across the SMs —
/// the same tuning a production kernel applies to avoid running a tiny
/// grid on a mostly idle device.
pub fn chunked_launch(work_items: usize) -> LaunchConfig {
    let work = work_items.max(1);
    let mut block_threads = BLOCK_THREADS;
    while block_threads > 32 && work.div_ceil(block_threads as usize) < 80 {
        block_threads /= 2;
    }
    let blocks = work
        .div_ceil(block_threads as usize)
        .clamp(1, MAX_GRID_BLOCKS as usize) as u32;
    LaunchConfig {
        grid_blocks: blocks,
        block_threads,
    }
}

/// The contiguous sub-range of `total` items assigned to block `b` of
/// `nblocks` (balanced to within one item).
pub fn block_range(total: usize, nblocks: u32, b: u32) -> (usize, usize) {
    let nb = nblocks as usize;
    let bi = b as usize;
    let base = total / nb;
    let rem = total % nb;
    let lo = bi * base + bi.min(rem);
    let hi = lo + base + usize::from(bi < rem);
    (lo, hi)
}

/// The items `lo..hi` of the concatenation of `buckets`, as the slices of
/// the buckets they fall in, in order.
fn pieces<T>(buckets: &[Vec<T>], lo: usize, hi: usize) -> impl Iterator<Item = &[T]> {
    let mut start = 0;
    buckets.iter().filter_map(move |bucket| {
        let (from, to) = (start, start + bucket.len());
        start = to;
        (from < hi && lo < to).then(|| &bucket[lo.max(from) - from..hi.min(to) - from])
    })
}

/// Where a count launch reads its k-mers from: the round's k-mers in
/// arrival order, handed out block by block. Blocks run in block order,
/// so block `b` asks for its range `[lo, hi)` right after block `b - 1`.
pub(crate) trait KmerSource<K> {
    /// Number of k-mers in the round.
    fn total(&self) -> usize;

    /// Passes k-mers `lo..hi`, in order, to `f` as one or more slices.
    fn read(&mut self, lo: usize, hi: usize, f: impl FnMut(&[K]));
}

/// K-mer buckets as they arrived, read in place.
impl<K> KmerSource<K> for &[Vec<K>] {
    fn total(&self) -> usize {
        self.iter().map(Vec::len).sum()
    }

    fn read(&mut self, lo: usize, hi: usize, f: impl FnMut(&[K])) {
        pieces(self, lo, hi).for_each(f);
    }
}

/// Staging cost for moving `volume` between host and device, zero when
/// GPUDirect is enabled (§III-B2).
pub fn staging(rc: &RunConfig, volume: DataVolume) -> SimTime {
    if rc.gpu_direct {
        SimTime::ZERO
    } else {
        staging_time(&rc.gpu_device, volume)
    }
}

/// Scales rank `rank`'s expected-instance estimate by the combined
/// `--table-safety` × injected-underestimate factor — the one sizing rule
/// of every engine's count table. A factor of exactly 1.0 skips the float
/// round trip entirely so default runs size tables byte-identically to
/// earlier releases.
pub(crate) fn scaled_estimate(rc: &RunConfig, rank: usize, expected: u64) -> usize {
    let factor = rc.table_safety * rc.mem.map_or(1.0, |p| estimate_factor(&p, rank));
    if factor == 1.0 {
        expected as usize
    } else {
        ((expected as f64) * factor).ceil().max(1.0) as usize
    }
}

/// Per-rank device-side counting state threaded through the staged
/// driver's exchange rounds: one device, one count table sized from the
/// rank's (possibly scaled-down) load estimate, and the counting
/// telemetry of the round-by-round count kernels (the kernels the
/// overlapped exchange hides behind the wire).
///
/// Under memory pressure — an undersized estimate, a shrunk safety
/// factor, or a tight `--device-hbm` budget — the table can fill. The
/// counter then recovers in two tiers (DESIGN.md §8): grow-and-rehash on
/// the device when the allocation is granted, else park the bounced
/// k-mers on a bounded host spill list merged back at [`finish`]. Both
/// paths preserve exact counts; only when even the spill budget is
/// exhausted does counting fail, cleanly, with a [`CounterOom`].
///
/// It counts whatever [`DeviceItem`] arrives: k-mers, or supermers whose
/// k-mers the count kernel extracts itself.
///
/// [`finish`]: Counter::finish
pub(crate) struct DeviceRoundCounter<K: PackedKmer = u64> {
    device: Device,
    table: DeviceCountTable<K>,
    probe_hist: Histogram,
    probe_steps: u64,
    instances: u64,
    last_occupancy: f64,
    rank: usize,
    hash_seed: u64,
    mem: Option<MemPlan>,
    spill_limit: u64,
    spill: Vec<K>,
    spilled: u64,
    regrows: u64,
    oom_events: u64,
    grow_attempts: u64,
    /// The run's k-mer length, for extracting k-mers from supermers.
    pub(crate) k: usize,
    /// The kernels' calibrated cycle costs.
    pub(crate) tuning: GpuTuning,
}

impl<K: PackedKmer> DeviceRoundCounter<K> {
    /// A counter for rank `rank` expecting `expected_instances` inserts
    /// in total — the table is sized once for the full (scaled) load so
    /// splitting the exchange into rounds cannot change probe sequences.
    /// Errs only when even the initial table allocation exceeds the
    /// device budget.
    pub(crate) fn new(
        rc: &RunConfig,
        rank: usize,
        expected_instances: u64,
    ) -> Result<Self, CounterOom> {
        let cfg = &rc.counting;
        let device = dedukt_gpu::Device::new(rc.gpu_device.clone());
        let capacity = table_capacity(cfg, scaled_estimate(rc, rank, expected_instances));
        let hash_seed = cfg.hash_seed ^ 0xC0C0;
        let table =
            DeviceCountTable::<K>::new(&device, capacity, hash_seed).map_err(|e| CounterOom {
                detail: format!("initial count table allocation failed: {e}"),
                high_water_bytes: device.peak_bytes(),
            })?;
        Ok(DeviceRoundCounter {
            device,
            table,
            probe_hist: Histogram::new(),
            probe_steps: 0,
            instances: 0,
            last_occupancy: 0.0,
            rank,
            hash_seed,
            mem: rc.mem,
            spill_limit: rc.mem.map_or(u64::MAX, |p| p.spec().spill_limit),
            spill: Vec::new(),
            spilled: 0,
            regrows: 0,
            oom_events: 0,
            grow_attempts: 0,
            k: cfg.k,
            tuning: rc.gpu_tuning,
        })
    }

    /// Inserts one round's k-mers — everything `source` holds, in its
    /// order — and returns the round's simulated device time (count
    /// kernel plus any regrow kernels and spill staging). Errs only when
    /// the table filled, no grow allocation was granted, and the host
    /// spill budget is exhausted.
    pub(crate) fn count(
        &mut self,
        mut source: impl KmerSource<K>,
        cycles_per_kmer: f64,
    ) -> Result<SimTime, CounterOom> {
        self.instances += source.total() as u64;
        let mut dt = SimTime::ZERO;
        let mut pending = self.launch_count(&mut source, cycles_per_kmer, &mut dt);
        // Two-tier recovery: regrow on device while allocations are
        // granted, then spill to the host. Each regrow doubles capacity,
        // so the loop strictly shrinks `pending` or exits via spill.
        while !pending.is_empty() {
            if self.try_regrow(cycles_per_kmer, &mut dt) {
                let mut bounced = std::slice::from_ref(&pending);
                pending = self.launch_count(&mut bounced, cycles_per_kmer, &mut dt);
            } else {
                self.spill_pending(pending, &mut dt)?;
                pending = Vec::new();
            }
        }
        Ok(dt)
    }

    /// One launch of the counting kernel (§III-B3) into the current
    /// table: one thread per k-mer, priced as the paper's CAS +
    /// atomicAdd. Records each counted insert's probe steps and returns
    /// the k-mers the table could not take because every slot was
    /// occupied (none for a table sized for its full load; some only
    /// under memory pressure, when the caller regrows or spills).
    ///
    /// Bounced k-mers still pay their full probe circuit in the cost
    /// tally, but are *not* observed in the histogram — exactly one
    /// observation per successfully counted instance, whenever it
    /// finally lands.
    fn launch_count(
        &mut self,
        source: &mut impl KmerSource<K>,
        cycles_per_kmer: f64,
        dt: &mut SimTime,
    ) -> Vec<K> {
        let (table, probe_hist, probe_steps) =
            (&self.table, &mut self.probe_hist, &mut self.probe_steps);
        let mut overflow = Vec::new();
        let total = source.total();
        let launch = chunked_launch(total.max(1));
        let report = self.device.launch_map("count_kmers", launch, |b| {
            let (lo, hi) = block_range(total, b.cfg.grid_blocks, b.block);
            let mut probes = 0u64;
            let mut fresh = 0u64;
            source.read(lo, hi, |kmers| {
                table.insert_all(kmers, |k, outcome| match outcome {
                    InsertOutcome::Inserted(r) => {
                        probes += r.steps as u64;
                        fresh += u64::from(r.new);
                        probe_hist.observe(r.steps as u64);
                    }
                    InsertOutcome::Full { steps } => {
                        probes += steps as u64;
                        overflow.push(k);
                    }
                })
            });
            *probe_steps += probes;
            let n = (hi - lo) as u64;
            // Effective compute (calibrated) + real memory/atomic traffic:
            // each probe touches a key-width-sized key (8 B narrow, 16 B
            // wide) + the hit updates a 4B count, all effectively random;
            // CAS + atomicAdd per insert, where repeat occurrences of hot
            // k-mers collide on their slot.
            b.instr((n as f64 * cycles_per_kmer) as u64);
            b.gmem_coalesced(n * K::KMER_WIRE_BYTES); // streaming the received k-mers
            b.gmem_random(probes * K::KMER_WIRE_BYTES + n * 4);
            b.atomic(2 * n, n - fresh);
        });
        self.last_occupancy = report.occupancy;
        *dt += report.time;
        overflow
    }

    /// Attempts a grow-and-rehash to a 2×-capacity table. Returns false
    /// — after recording the OOM event — when the allocation is denied,
    /// either by the injected plan or by the real device budget; the
    /// caller then falls back to spilling.
    fn try_regrow(&mut self, cycles_per_kmer: f64, dt: &mut SimTime) -> bool {
        let attempt = self.grow_attempts;
        self.grow_attempts += 1;
        if self
            .mem
            .is_some_and(|p| alloc_fails(&p, self.rank, attempt))
        {
            self.oom_events += 1;
            return false;
        }
        // The new table is allocated while the old one is still resident
        // — exactly the transient doubling a real CUDA rehash pays.
        let new_table = match DeviceCountTable::<K>::new(
            &self.device,
            self.table.capacity() * 2,
            self.hash_seed,
        ) {
            Ok(t) => t,
            Err(_) => {
                self.oom_events += 1;
                return false;
            }
        };
        // Rehash kernel: migrate every resident (key, accumulated count)
        // with a single probe sequence each. A 2× table always fits the
        // old resident set (distinct ≤ old capacity = new capacity / 2),
        // so `Full` is unreachable here.
        let old = self.table.to_host();
        let launch = chunked_launch(old.len().max(1));
        let report = self.device.launch_map("regrow_table", launch, |b| {
            let (lo, hi) = block_range(old.len(), b.cfg.grid_blocks, b.block);
            let mut probes = 0u64;
            for &(k, c) in &old[lo..hi] {
                match new_table.insert_counted(k, c) {
                    InsertOutcome::Inserted(r) => probes += r.steps as u64,
                    InsertOutcome::Full { .. } => {
                        unreachable!("a 2x regrow table cannot fill during migration")
                    }
                }
            }
            let n = (hi - lo) as u64;
            // Migration is insert-shaped work: stream the old entries in,
            // probe the new table randomly, CAS + add per entry.
            b.instr((n as f64 * cycles_per_kmer) as u64);
            b.gmem_coalesced(n * (K::KMER_WIRE_BYTES + 4));
            b.gmem_random(probes * K::KMER_WIRE_BYTES + n * 4);
            b.atomic(2 * n, 0);
        });
        *dt += report.time;
        self.table = new_table; // the old table drops, freeing its slots
        self.regrows += 1;
        true
    }

    /// Parks bounced k-mers on the host spill list, charging the
    /// device→host staging of the bounced batch. Errs when the batch
    /// would blow the spill budget — the rank is genuinely out of
    /// memory everywhere.
    fn spill_pending(&mut self, pending: Vec<K>, dt: &mut SimTime) -> Result<(), CounterOom> {
        let n = pending.len() as u64;
        if self.spilled.saturating_add(n) > self.spill_limit {
            return Err(CounterOom {
                detail: format!(
                    "host spill budget exhausted: {} k-mers spilled, {} more bounced, \
                     limit {}",
                    self.spilled, n, self.spill_limit
                ),
                high_water_bytes: self.device.peak_bytes(),
            });
        }
        *dt += staging_time(
            self.device.config(),
            DataVolume::from_bytes(n * K::KMER_WIRE_BYTES),
        );
        self.spilled += n;
        self.spill.extend(pending);
        Ok(())
    }
}

/// What a [`DeviceRoundCounter`] counts: the k-mer pipeline's k-mers,
/// or the supermer pipeline's supermers.
pub(crate) trait DeviceItem<K: PackedKmer>: Sized {
    /// Counts one delivery, `buckets` in arrival order, into `counter`
    /// ([`DeviceRoundCounter::count`]).
    fn count(
        counter: &mut DeviceRoundCounter<K>,
        buckets: Vec<Vec<Self>>,
    ) -> Result<SimTime, CounterOom>;
}

/// Received k-mers are read in place, at the count kernel's own cost.
impl<K: PackedKmer> DeviceItem<K> for K {
    fn count(
        counter: &mut DeviceRoundCounter<K>,
        buckets: Vec<Vec<K>>,
    ) -> Result<SimTime, CounterOom> {
        let cycles = counter.tuning.count_cycles_per_kmer;
        counter.count(&buckets[..], cycles)
    }
}

impl<K: PackedKmer, I: DeviceItem<K>> Sink<I> for DeviceRoundCounter<K> {
    type Held = RankCountResult<K>;

    fn absorb(&mut self, buckets: Vec<Vec<I>>) -> Result<SimTime, CounterOom> {
        I::count(self, buckets)
    }

    /// All zero on an unconstrained run, apart from the high-water mark.
    fn pressure(&self) -> PressureStats {
        PressureStats {
            spilled: self.spilled,
            regrows: self.regrows,
            oom_events: self.oom_events,
            high_water_bytes: self.device.peak_bytes(),
        }
    }

    /// The device table merged with any host-spilled k-mers. Powers the
    /// driver's `--checkpoint-rounds` snapshots and graceful rescale
    /// departures.
    fn snapshot(&self) -> RankCountResult<K> {
        let mut entries = self.table.to_host();
        merge_spill(&mut entries, self.spill.clone());
        RankCountResult {
            entries,
            instances: self.instances,
        }
    }
}

impl<K: PackedKmer, I: DeviceItem<K>> Counter<K, I> for DeviceRoundCounter<K> {
    /// Drains the table into the rank's result — merging any host-spilled
    /// k-mers back in by key, so pressured runs report exactly the counts
    /// an unconstrained run would — and records the counting telemetry
    /// (same series as the single-launch pipelines, plus the pressure
    /// series, which exist only when pressure actually fired). The
    /// regrow and spill totals are not among them: the driver journals
    /// those facts once ([`crate::pipeline::driver::journal_pressure`]).
    fn finish(mut self, ctx: &DriverCtx, rank: usize) -> RankCountResult<K> {
        let mut entries = self.table.to_host();
        // Device residency metrics reflect the table alone, before the
        // spill merge changes the entry list.
        let device_load = entries.len() as f64 / self.table.capacity() as f64;
        merge_spill(&mut entries, std::mem::take(&mut self.spill));
        ctx.rank_metrics(rank, || {
            let peak = self.device.peak_bytes() as f64;
            let mut observed = vec![
                ("kmers_counted_total", MetricOp::CounterAdd(self.instances)),
                (
                    "count_probe_steps",
                    MetricOp::HistogramMerge(std::mem::take(&mut self.probe_hist)),
                ),
                ("count_table_load_factor", MetricOp::GaugeSet(device_load)),
                (
                    "kernel_occupancy:count_kmers",
                    MetricOp::GaugeSet(self.last_occupancy),
                ),
                ("device_peak_bytes", MetricOp::GaugeMax(peak)),
            ];
            // Pressure series are emitted only when the event happened, so
            // an unconstrained run's metrics schema is byte-identical to
            // earlier releases.
            if self.oom_events > 0 {
                observed.push((
                    "device_oom_events_total",
                    MetricOp::CounterAdd(self.oom_events),
                ));
            }
            if self.regrows + self.spilled + self.oom_events > 0 {
                observed.push(("hbm_high_water_bytes", MetricOp::GaugeMax(peak)));
            }
            observed
        });
        RankCountResult {
            entries,
            instances: self.instances,
        }
    }
}

/// Merges host-spilled k-mers back into a device-table snapshot by key:
/// spilled keys that later re-entered the (regrown) table add onto their
/// resident count, unseen keys append in key order.
fn merge_spill<K: PackedKmer>(entries: &mut Vec<(K, u32)>, mut spill: Vec<K>) {
    if spill.is_empty() {
        return;
    }
    spill.sort_unstable();
    // Sorted key → entry-position index over the device snapshot.
    let mut index: Vec<(K, usize)> = entries
        .iter()
        .enumerate()
        .map(|(i, &(k, _))| (k, i))
        .collect();
    index.sort_unstable_by_key(|&(k, _)| k);
    let mut i = 0;
    while i < spill.len() {
        let key = spill[i];
        let mut j = i + 1;
        while j < spill.len() && spill[j] == key {
            j += 1;
        }
        let count = (j - i) as u32;
        match index.binary_search_by_key(&key, |&(k, _)| k) {
            Ok(pos) => entries[index[pos].1].1 += count,
            Err(_) => entries.push((key, count)),
        }
        i = j;
    }
}

/// Splits per-rank outgoing buckets into exchange rounds so that no rank
/// sends more than `limit_bytes` per round (§III-A's memory-bounded
/// operation), pricing each item at its serialized `item_bytes` (a
/// supermer moves as 8 payload bytes + 1 length byte). Returns one bucket
/// matrix per round; concatenating the rounds restores the input exactly
/// (order preserved per destination). The round count is clamped to the largest
/// per-destination payload so caps smaller than one item still make
/// progress (each round then carries at least one item per payload).
pub fn split_rounds_weighted<T: Send>(
    buckets: Vec<Vec<Vec<T>>>,
    limit_bytes: Option<u64>,
    item_bytes: u64,
) -> Vec<Vec<Vec<Vec<T>>>> {
    assert!(item_bytes > 0, "item wire size must be positive");
    let nrounds = match limit_bytes {
        None => 1,
        Some(cap) => {
            assert!(cap > 0, "round limit must be positive");
            let max_out = buckets
                .iter()
                .map(|row| row.iter().map(|v| v.len() as u64 * item_bytes).sum::<u64>())
                .max()
                .unwrap_or(0);
            let max_items = buckets
                .iter()
                .flat_map(|row| row.iter().map(|v| v.len() as u64))
                .max()
                .unwrap_or(0);
            max_out.div_ceil(cap).clamp(1, max_items.max(1)) as usize
        }
    };
    if nrounds == 1 {
        return vec![buckets];
    }
    // Each source rank cuts its own row, rank-parallel: `cuts[src][r]`
    // is its round-`r` row, every payload cut into `nrounds` near-equal
    // chunks.
    let cuts: Vec<Vec<Vec<Vec<T>>>> = buckets
        .into_par_iter()
        .map(|row| {
            let mut cut: Vec<Vec<Vec<T>>> = (0..nrounds)
                .map(|_| Vec::with_capacity(row.len()))
                .collect();
            for payload in row {
                let len = payload.len();
                let mut iter = payload.into_iter();
                for (r, round) in cut.iter_mut().enumerate() {
                    let lo = r * len / nrounds;
                    let hi = (r + 1) * len / nrounds;
                    round.push(iter.by_ref().take(hi - lo).collect());
                }
            }
            cut
        })
        .collect();
    let mut rounds: Vec<Vec<Vec<Vec<T>>>> = (0..nrounds)
        .map(|_| Vec::with_capacity(cuts.len()))
        .collect();
    for cut in cuts {
        for (round, row) in rounds.iter_mut().zip(cut) {
            round.push(row);
        }
    }
    rounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CountingConfig, Mode};
    use crate::pipeline::cpu::CpuStages;
    use crate::pipeline::driver::CounterStages;
    use crate::pipeline::gpu_kmer::GpuKmerStages;
    use crate::pipeline::gpu_supermer::{supermer_kmers, PackedSupermer, SupermerStages};
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};
    use dedukt_gpu::mem_plan::MemSpec;
    use std::marker::PhantomData;

    #[test]
    fn pieces_cover_exactly_the_requested_range() {
        let buckets: Vec<Vec<u32>> = vec![vec![0, 1, 2], vec![], vec![3, 4], vec![5]];
        let flat: Vec<u32> = buckets.concat();
        for lo in 0..=flat.len() {
            for hi in lo..=flat.len() {
                let got: Vec<u32> = pieces(&buckets, lo, hi).flatten().copied().collect();
                assert_eq!(got, flat[lo..hi], "{lo}..{hi}");
            }
        }
    }

    #[test]
    fn split_rounds_roundtrip_and_cap() {
        let nranks = 3;
        let buckets: Vec<Vec<Vec<u64>>> = (0..nranks)
            .map(|s| {
                (0..nranks)
                    .map(|d| (0..(s * 10 + d * 3)).map(|i| i as u64).collect())
                    .collect()
            })
            .collect();
        let original = buckets.clone();
        // Cap at 64 bytes per rank per round (8 u64s).
        let rounds = split_rounds_weighted(buckets, Some(64), 8);
        assert!(rounds.len() > 1);
        // Per-round cap holds for every source rank.
        for round in &rounds {
            for row in round {
                let bytes: u64 = row.iter().map(|v| v.len() as u64 * 8).sum();
                assert!(bytes <= 64 + 8 * nranks as u64, "round bytes {bytes}");
            }
        }
        // Concatenating rounds restores the original, in order.
        for src in 0..nranks {
            for dst in 0..nranks {
                let rebuilt: Vec<u64> = rounds
                    .iter()
                    .flat_map(|round| round[src][dst].iter().copied())
                    .collect();
                assert_eq!(rebuilt, original[src][dst]);
            }
        }
    }

    #[test]
    fn split_rounds_single_round_when_unlimited() {
        let buckets: Vec<Vec<Vec<u64>>> = vec![vec![vec![1, 2, 3]; 2]; 2];
        let rounds = split_rounds_weighted(buckets.clone(), None, 8);
        assert_eq!(rounds.len(), 1);
        assert_eq!(rounds[0], buckets);
        // Large cap also yields one round.
        let rounds = split_rounds_weighted(buckets.clone(), Some(1 << 20), 8);
        assert_eq!(rounds.len(), 1);
    }

    #[test]
    fn block_ranges_partition_exactly() {
        for total in [0usize, 1, 7, 100, 1000, 12345] {
            for nblocks in [1u32, 2, 3, 7, 640] {
                let mut covered = 0;
                let mut prev_hi = 0;
                for b in 0..nblocks {
                    let (lo, hi) = block_range(total, nblocks, b);
                    assert_eq!(lo, prev_hi, "ranges must be contiguous");
                    assert!(hi >= lo);
                    covered += hi - lo;
                    prev_hi = hi;
                }
                assert_eq!(covered, total, "total {total} nblocks {nblocks}");
                assert_eq!(prev_hi, total);
            }
        }
    }

    #[test]
    fn block_ranges_are_balanced() {
        let nblocks = 7u32;
        let total = 100;
        let sizes: Vec<usize> = (0..nblocks)
            .map(|b| {
                let (lo, hi) = block_range(total, nblocks, b);
                hi - lo
            })
            .collect();
        let min = sizes.iter().min().unwrap();
        let max = sizes.iter().max().unwrap();
        assert!(max - min <= 1, "sizes {sizes:?}");
    }

    #[test]
    fn chunked_launch_caps_grid() {
        assert_eq!(chunked_launch(10_000_000).grid_blocks, MAX_GRID_BLOCKS);
        assert_eq!(chunked_launch(10_000_000).block_threads, BLOCK_THREADS);
        assert_eq!(chunked_launch(0).grid_blocks, 1);
    }

    #[test]
    fn chunked_launch_shrinks_blocks_for_small_batches() {
        // 2,000 items: 256-thread blocks would yield only 8 blocks; the
        // adaptive sizing drops to 32 threads to spread across SMs.
        let c = chunked_launch(2_000);
        assert_eq!(c.block_threads, 32);
        assert_eq!(c.grid_blocks, 63);
        // Large batches keep full blocks.
        assert_eq!(chunked_launch(100_000).block_threads, 256);
        // The grid is always non-empty and within device limits.
        for n in [1usize, 31, 32, 1000, 20479, 20480, 1_000_000] {
            let c = chunked_launch(n);
            assert!(c.grid_blocks >= 1 && c.grid_blocks <= MAX_GRID_BLOCKS);
            assert!(c.block_threads >= 32 && c.block_threads <= BLOCK_THREADS);
        }
    }

    /// One round into a fresh counter sized for the exact batch:
    /// `(round time, counter)`.
    fn count_once<K: PackedKmer>(kmers: &[K]) -> (SimTime, DeviceRoundCounter<K>) {
        let rc = RunConfig::new(Mode::GpuKmer, 1);
        fn oom<T>(e: CounterOom) -> T {
            panic!("{}", e.detail)
        }
        let mut counter =
            DeviceRoundCounter::<K>::new(&rc, 0, kmers.len() as u64).unwrap_or_else(oom);
        let dt = counter
            .count(&[kmers.to_vec()][..], 1000.0)
            .unwrap_or_else(oom);
        assert!(
            counter.regrows + counter.spilled == 0,
            "a table sized for the batch cannot overflow"
        );
        (dt, counter)
    }

    #[test]
    fn device_count_kernel_counts_exactly() {
        // 100 distinct keys with multiplicities 1..=100.
        let mut kmers = Vec::new();
        for key in 0..100u64 {
            for _ in 0..=key {
                kmers.push(key);
            }
        }
        let (dt, counter) = count_once(&kmers);
        let entries = counter.table.to_host();
        let (probe_steps, probe_hist) = (counter.probe_steps, &counter.probe_hist);
        let load_factor = entries.len() as f64 / counter.table.capacity() as f64;
        assert_eq!(entries.len(), 100);
        let total: u64 = entries.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(total, kmers.len() as u64);
        for &(k, c) in &entries {
            assert_eq!(c as u64, k + 1, "key {k}");
        }
        assert!(probe_steps >= kmers.len() as u64);
        assert!(dt > SimTime::ZERO);
        // The probe histogram covers every insert and sums to the probe
        // total; the load factor reflects 100 distinct keys in the table.
        assert_eq!(probe_hist.count(), kmers.len() as u64);
        assert_eq!(probe_hist.sum(), probe_steps);
        assert!(probe_hist.min() >= 1);
        assert!(load_factor > 0.0 && load_factor <= 1.0);
        // Blocks run in block order, so counting the same batch into a
        // second fresh table takes the same probe paths: equal probe
        // totals, histogram buckets and slot order.
        let (_, again) = count_once(&kmers);
        assert_eq!(again.probe_steps, probe_steps);
        assert_eq!(&again.probe_hist, probe_hist);
        assert_eq!(again.table.to_host(), entries);
    }

    #[test]
    fn empty_input_yields_empty_table() {
        assert!(count_once::<u64>(&[]).1.table.to_host().is_empty());
    }

    #[test]
    fn wide_device_kernel_counts_exactly() {
        // Keys above the u64 range so the wide table path is exercised.
        let mut kmers: Vec<u128> = Vec::new();
        for key in 0..50u128 {
            for _ in 0..=key % 5 {
                kmers.push((key << 64) | key);
            }
        }
        let (dt, counter) = count_once(&kmers);
        let entries = counter.table.to_host();
        assert_eq!(entries.len(), 50);
        let total: u64 = entries.iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(total, kmers.len() as u64);
        assert!(dt > SimTime::ZERO);
        assert_eq!(counter.probe_hist.count(), kmers.len() as u64);
    }

    /// Two rounds of supermer buckets built from the tiny A. baumannii
    /// reads at `W`: each round's buckets are the reads' windowed
    /// supermers spread by minimizer over four of six buckets, so two
    /// stay empty.
    fn supermer_rounds<W: PackedKmer>(
        reads: &dedukt_dna::ReadSet,
        cfg: &CountingConfig,
    ) -> Vec<Vec<Vec<PackedSupermer<W>>>> {
        let scheme = cfg.minimizer_scheme();
        let mut rounds = vec![vec![Vec::new(); 6]; 2];
        for (i, read) in reads.reads.iter().enumerate() {
            let smers = crate::supermer::build_supermers_windowed_w::<W>(
                &read.codes,
                cfg.k,
                cfg.window,
                &scheme,
            );
            for sm in smers {
                let bucket = [0, 1, 3, 5][(sm.minimizer % 4) as usize];
                rounds[i % 2][bucket].push(PackedSupermer {
                    word: sm.word,
                    len: sm.len,
                });
            }
        }
        rounds
    }

    /// Counts `rounds` twice on fresh counters — through the supermer
    /// cursor and through the flat-expanded k-mers — and requires the
    /// same device time, pressure, probe telemetry and entries.
    fn assert_extraction_parity<W: PackedKmer>(rc: &RunConfig) -> PressureStats {
        let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
        let cfg = &rc.counting;
        let rounds = supermer_rounds::<W>(&reads, cfg);
        let flat: Vec<Vec<W>> = rounds
            .iter()
            .map(|round| {
                round
                    .iter()
                    .flatten()
                    .flat_map(|s| s.kmers(cfg.k))
                    .collect()
            })
            .collect();
        let instances: u64 = flat.iter().map(|f| f.len() as u64).sum();
        // Some block of the first round starts inside a supermer.
        let starts: Vec<usize> = rounds[0]
            .iter()
            .flatten()
            .scan(0, |at, s| {
                let start = *at;
                *at += s.num_kmers(cfg.k);
                Some(start)
            })
            .collect();
        let grid = chunked_launch(flat[0].len()).grid_blocks;
        assert!((0..grid).any(|b| {
            let lo = block_range(flat[0].len(), grid, b).0;
            starts.binary_search(&lo).is_err()
        }));
        let cycles = rc.gpu_tuning.count_cycles_per_kmer + rc.gpu_tuning.extract_cycles_per_kmer;
        let fresh = || {
            DeviceRoundCounter::<W>::new(rc, 0, instances)
                .unwrap_or_else(|e| panic!("{}", e.detail))
        };
        let (mut streamed, mut expanded) = (fresh(), fresh());
        for (round, kmers) in rounds.iter().zip(&flat) {
            let a = streamed.count(supermer_kmers(round.clone(), cfg.k), cycles);
            let b = expanded.count(std::slice::from_ref(kmers), cycles);
            assert_eq!(a.map_err(|e| e.detail), b.map_err(|e| e.detail));
        }
        let pressure = Sink::<W>::pressure(&streamed);
        assert_eq!(pressure, Sink::<W>::pressure(&expanded));
        assert_eq!(streamed.probe_steps, expanded.probe_steps);
        assert_eq!(streamed.probe_hist, expanded.probe_hist);
        assert_eq!(streamed.probe_hist.count() + pressure.spilled, instances);
        let ctx = DriverCtx::new(rc, &reads, None);
        let finish = |c: DeviceRoundCounter<W>| Counter::<W, W>::finish(c, &ctx, 0);
        let (a, b) = (finish(streamed), finish(expanded));
        assert_eq!(a.instances, instances);
        assert_eq!(a.instances, b.instances);
        assert_eq!(a.entries, b.entries);
        pressure
    }

    #[test]
    fn supermer_cursor_counts_like_the_expanded_kmers() {
        for k in [17, 41] {
            let mut rc = RunConfig::new(Mode::GpuSupermer, 1);
            rc.counting.k = k;
            if k > 32 {
                rc.counting.m = 11;
            }
            let check = |rc: &RunConfig| {
                if k > 32 {
                    assert_extraction_parity::<u128>(rc)
                } else {
                    assert_extraction_parity::<u64>(rc)
                }
            };
            // A table sized for the load: no bounce.
            let roomy = check(&rc);
            assert_eq!(roomy.regrows + roomy.spilled, 0);
            // A 1% table with half its regrows denied: bounces, regrows
            // and spills.
            rc.table_safety = 0.01;
            rc.mem = Some(MemPlan::new(
                7,
                MemSpec::parse("under=0,afail=0.5,spill=100000000").unwrap(),
            ));
            let pressure = check(&rc);
            assert!(pressure.regrows > 0, "k = {k}: no regrow");
            assert!(pressure.spilled > 0, "k = {k}: no spill");
        }
    }

    /// Counts `rounds` on fresh counters from `stages`' factory, once per
    /// prefix of them, and requires each counter's snapshot after the
    /// prefix to equal what it then finishes with. Returns the pressure
    /// after all of `rounds`.
    fn assert_snapshots_match_finish<S: CounterStages>(
        stages: &S,
        ctx: &DriverCtx,
        rounds: &[Vec<Vec<S::Item>>],
    ) -> PressureStats {
        let expected = rounds
            .iter()
            .flatten()
            .flatten()
            .map(|item| stages.item_instances(ctx, item))
            .sum();
        let mut pressure = PressureStats::default();
        for absorbed in 0..=rounds.len() {
            let mut counter = stages
                .make_counter(ctx, 0, expected)
                .unwrap_or_else(|e| panic!("{}", e.detail));
            for round in &rounds[..absorbed] {
                if let Err(e) = counter.absorb(round.clone()) {
                    panic!("{}", e.detail);
                }
            }
            let snapshot = counter.snapshot();
            pressure = counter.pressure();
            let finished = counter.finish(ctx, 0);
            assert_eq!(snapshot.instances, finished.instances, "{absorbed} absorbs");
            assert!(snapshot.entries == finished.entries, "{absorbed} absorbs");
        }
        pressure
    }

    /// [`assert_snapshots_match_finish`] over two deliveries for every
    /// counter: the CPU engine's and the device counter fed k-mers, each
    /// on the supermers' k-mers, and the device counter fed the supermers.
    /// Returns the two device counters' pressure.
    fn check_snapshots<W: PackedKmer>(rc: &RunConfig) -> [PressureStats; 2] {
        let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
        let ctx = DriverCtx::new(rc, &reads, None);
        let k = rc.counting.k;
        let smers = supermer_rounds::<W>(&reads, &rc.counting);
        let kmers: Vec<Vec<Vec<W>>> = smers
            .iter()
            .map(|round| {
                let bucket =
                    |b: &Vec<PackedSupermer<W>>| b.iter().flat_map(|s| s.kmers(k)).collect();
                round.iter().map(bucket).collect()
            })
            .collect();
        let cpu = assert_snapshots_match_finish(&CpuStages::<W>(PhantomData), &ctx, &kmers);
        assert_eq!(cpu, PressureStats::default());
        [
            assert_snapshots_match_finish(&GpuKmerStages::<W>(PhantomData), &ctx, &kmers),
            assert_snapshots_match_finish(&SupermerStages::<W>::new(rc), &ctx, &smers),
        ]
    }

    #[test]
    fn snapshots_equal_what_the_counters_finish_with() {
        for k in [17, 41] {
            let mut rc = RunConfig::new(Mode::GpuSupermer, 1);
            rc.counting.k = k;
            if k > 32 {
                rc.counting.m = 11;
            }
            let check = |rc: &RunConfig| {
                if k > 32 {
                    check_snapshots::<u128>(rc)
                } else {
                    check_snapshots::<u64>(rc)
                }
            };
            for roomy in check(&rc) {
                assert_eq!(roomy.regrows + roomy.spilled, 0);
            }
            // A 1% table with half its regrows denied: the snapshots
            // must merge the spill list as `finish` does.
            rc.table_safety = 0.01;
            rc.mem = Some(MemPlan::new(
                7,
                MemSpec::parse("under=0,afail=0.5,spill=100000000").unwrap(),
            ));
            for pressured in check(&rc) {
                assert!(pressured.spilled > 0, "k = {k}: no spill");
            }
        }
    }
}
