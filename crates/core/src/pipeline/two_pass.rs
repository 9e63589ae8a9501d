//! Out-of-core two-pass counting over the checksummed bin store
//! (DESIGN.md §12): the staged driver's spool stage.
//!
//! Pass 1 is the ordinary exchange — retries, rank death, rescale,
//! checkpoints, overlap, the wire codec, hierarchical routing — except
//! that each rank *spools* what it receives into its bins
//! (`CounterStages::bin_of`) instead of counting it, and the bins land
//! on a simulated NVMe tier ([`dedukt_store::BinStore`]) with a manifest.
//! Bins nest inside owner ranges, so per-rank tables match the in-memory
//! run's. In pass 2 each rank counts its own bins, rank-parallel, in
//! manifest order, with the stage's own counter on a table [`plan_bins`]
//! sized to the `--device-hbm` budget; folding the ranks in rank order
//! replays the manifest order, so the report is the serial walk's.
//!
//! A deterministic [`dedukt_store::IoPlan`] injects torn writes, bit rot
//! and transient read errors; recovery re-reads, then quarantines the
//! bin and re-derives it from the deterministic input at a fresh
//! generation, within the plan's budgets. Exhausting them is a clean
//! [`RunError::StorageFailed`]; any plan that lets the run finish leaves
//! spectra bit-identical to the in-memory run. Every finished bin's
//! counts land on disk at once, so `--resume` re-counts only the rest.

use crate::config::{ConfigError, RunConfig};
use crate::pipeline::driver::{
    exchange_rounds, journal_pressure, Bucketed, Counted, Counter, CounterOom, CounterStages,
    DriverCtx, Sink,
};
use crate::pipeline::gpu_supermer::PackedSupermer;
use crate::pipeline::{RankCountResult, RunError};
use crate::stats::{ExchangeSummary, StorageSummary};
use crate::table::capacity_for;
use crate::width::PackedKmer;
use dedukt_dna::ReadSet;
use dedukt_net::cost::SsdParams;
use dedukt_net::BspWorld;
use dedukt_sim::rng::mix_coords;
use dedukt_sim::{JournalEvent, MetricOp, SimTime};
use dedukt_store::plan::read_errors;
use dedukt_store::{
    read_bin_counts, write_bin_counts, BinCounts, BinMeta, BinStore, IoPlan, Manifest,
};
use rayon::prelude::*;
use std::path::Path;
use std::time::Instant;

/// Headroom multiplier on the mean per-bin load when sizing bins:
/// minimizer-keyed bins are skewed, so a bin is only *guaranteed* to fit
/// its table budget with slack for the heavy tail.
pub const BIN_SKEW_MARGIN: f64 = 2.0;

/// Number of bins for pass 1: the smallest power-of-two multiple of
/// `nranks` whose per-bin count table — sized exactly like the live
/// pipelines size theirs ([`capacity_for`] over the expected load scaled
/// by `BIN_SKEW_MARGIN` × `table_safety`) — fits `device_budget_bytes`.
///
/// Public so the property tests can check the guarantee directly: for
/// any instance total, every planned bin's worst-case table allocation
/// stays within the budget (or bin splitting has hit the point of
/// diminishing returns — one expected instance per bin).
pub fn plan_bins(
    total_instances: u64,
    nranks: usize,
    table_safety: f64,
    load_factor: f64,
    device_budget_bytes: u64,
    slot_bytes: u64,
) -> usize {
    let nranks = nranks.max(1);
    let mut nbins = nranks;
    loop {
        let per_bin = (total_instances as f64 / nbins as f64) * BIN_SKEW_MARGIN;
        let expected = (per_bin * table_safety.max(1.0)).ceil().max(1.0) as usize;
        let table_bytes = capacity_for(expected, load_factor) as u64 * slot_bytes;
        if table_bytes <= device_budget_bytes || per_bin <= 1.0 {
            return nbins;
        }
        nbins *= 2;
    }
}

/// The on-disk form of one exchanged item: the packed word, plus a
/// length byte for a supermer (mirroring the flat wire format, §V-D).
pub(crate) trait Record: Sized {
    /// Bytes of one record.
    const BYTES: usize;
    /// Appends the record to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reads one record back from exactly [`Record::BYTES`] bytes.
    fn decode(bytes: &[u8]) -> Self;
}

impl<K: PackedKmer> Record for K {
    const BYTES: usize = K::WORD_BYTES;
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_u128().to_le_bytes()[..K::WORD_BYTES]);
    }
    fn decode(bytes: &[u8]) -> Self {
        let mut word = [0u8; 16];
        word[..K::WORD_BYTES].copy_from_slice(&bytes[..K::WORD_BYTES]);
        K::from_u128(u128::from_le_bytes(word))
    }
}

impl<K: PackedKmer> Record for PackedSupermer<K> {
    const BYTES: usize = K::BYTES + 1;
    fn encode(&self, out: &mut Vec<u8>) {
        let word = self.word; // copied out: a packed field cannot be borrowed
        word.encode(out);
        out.push(self.len);
    }
    fn decode(bytes: &[u8]) -> Self {
        let (word, len) = (K::decode(bytes), bytes[K::BYTES]);
        PackedSupermer { word, len }
    }
}

/// One rank's pass-1 sink: every record it received, serialized into
/// its bin ([`CounterStages::bin_of`]) on arrival so the items themselves
/// can be dropped. Spooling costs no simulated kernel time; the disk is
/// priced when the bins are written.
pub(crate) struct Spool<'a, S> {
    stages: &'a S,
    ctx: &'a DriverCtx<'a>,
    /// `bins[b]` — serialized records of bin `b`.
    bins: Vec<Vec<u8>>,
    /// `instances[b]` — k-mer instances those records expand to.
    instances: Vec<u64>,
}

impl<'a, S> Spool<'a, S> {
    /// An empty spool of `nbins` bins.
    fn new(stages: &'a S, ctx: &'a DriverCtx<'a>, nbins: usize) -> Self {
        Spool {
            stages,
            ctx,
            bins: vec![Vec::new(); nbins],
            instances: vec![0; nbins],
        }
    }
}

impl<S: CounterStages> Sink<S::Item> for Spool<'_, S> {
    type Held = Self;

    fn absorb(&mut self, buckets: Vec<Vec<S::Item>>) -> Result<SimTime, CounterOom> {
        let nbins = self.bins.len();
        for item in buckets.iter().flatten() {
            let bin = self.stages.bin_of(self.ctx, item, nbins);
            item.encode(&mut self.bins[bin]);
            self.instances[bin] += self.stages.item_instances(self.ctx, item);
        }
        Ok(SimTime::ZERO)
    }

    fn snapshot(&self) -> Self {
        Spool {
            bins: self.bins.clone(),
            instances: self.instances.clone(),
            ..*self
        }
    }
}

/// Run fingerprint stored in the manifest: everything that shapes what
/// the bins contain — counting parameters, routing, bin layout, the
/// pre-filter, and a digest of the input reads. The fault, rank and io
/// plans are deliberately *excluded*: they never change what lands in a
/// bin, and a killed run must resume under a different (or absent) io
/// plan; the fates of already-finished bins are history.
fn run_fingerprint(rc: &RunConfig, nranks: usize, nbins: usize, reads: &ReadSet) -> String {
    let mut h = 0x0F1E_2D3C_4B5A_6978u64;
    for label_byte in rc.mode.label().bytes() {
        h = mix_coords(h, &[label_byte as u64]);
    }
    let cfg = &rc.counting;
    h = mix_coords(
        h,
        &[
            cfg.k as u64,
            cfg.m as u64,
            cfg.window as u64,
            cfg.canonical as u64,
            cfg.hash_seed,
            nranks as u64,
            nbins as u64,
            rc.min_count as u64,
            rc.balanced_minimizers as u64,
            rc.balance_sample_fraction.to_bits(),
        ],
    );
    h = mix_coords(h, &[reads.reads.len() as u64]);
    for read in &reads.reads {
        h = mix_coords(h, &[read.codes.len() as u64]);
        for chunk in read.codes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h = mix_coords(h, &[u64::from_le_bytes(w)]);
        }
    }
    format!("{h:016x}")
}

/// Shorthand: a store-level failure (mkdir, manifest, file write) that
/// is not attributable to one bin's recovery budget.
fn store_failed(bin: u64, detail: String) -> RunError {
    RunError::StorageFailed { bin, detail }
}

/// The out-of-core counting path, dispatched by the staged driver when
/// `rc.two_pass_dir` is set. Pass 1 runs the exchange rounds into
/// [`Spool`] sinks and lands the bins; `bucketed` is `None` under
/// `--resume`, which skips straight to pass 2 from the manifest. Disk
/// seconds are charged to the exchange phase, pass-2 kernels to the
/// count phase.
pub(crate) fn count_out_of_core<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
    reads: &ReadSet,
    dir: &Path,
    bucketed: Option<Bucketed<S::Item>>,
) -> Result<Counted<S::Key>, RunError> {
    let rounds_start = Instant::now();
    let rc = ctx.rc;
    let nranks = ctx.nranks;
    let disk = Disk {
        store: BinStore::create(dir).map_err(|e| store_failed(0, e))?,
        ssd: SsdParams::nvme(),
        ctx,
    };

    // ── Pass 1: the exchange, spooled into bins on the NVMe tier ───────
    let mut summary = ExchangeSummary::default();
    let mut exchange = SimTime::ZERO;
    let manifest = match bucketed {
        Some(bucketed) => {
            // The exact instance total is known once bucketing is done,
            // before anything is written.
            let slot_bytes = std::mem::size_of::<S::Key>() as u64 + 4;
            let nbins = plan_bins(
                bucketed.expected.iter().sum(),
                nranks,
                rc.table_safety,
                rc.counting.table_load_factor,
                rc.gpu_device.memory_bytes,
                slot_bytes,
            );
            let ex = exchange_rounds(stages, ctx, world, bucketed, |_, _| {
                Ok(Spool::new(stages, ctx, nbins))
            })?;
            // Salvaged spools rejoin their bins: a checkpoint or a
            // departure holds exactly the records its live successor
            // lacks, so every instance lands in one bin once.
            let mut spools = ex.sinks;
            spools.extend(ex.salvaged.into_iter().map(|(_, spool)| spool));
            let fingerprint = run_fingerprint(rc, nranks, nbins, reads);
            let (manifest, write_secs) = disk.write_bins(nranks, spools, fingerprint)?;
            let (_, write_step) =
                world.compute_step_named("bin-write", |rank| ((), write_secs[rank]));
            summary = ex.summary;
            exchange = ex.exchange + write_step.mean;
            manifest
        }
        None => disk.resume_manifest(rc, reads)?,
    };
    let nbins = manifest.bins.len();
    let per_rank = nbins / nranks;
    let total: u64 = manifest.bins.iter().map(|b| b.instances).sum();
    let planned_load = ((total as f64 / nbins as f64) * BIN_SKEW_MARGIN).ceil() as u64;
    let mut storage = StorageSummary {
        bins: nbins as u64,
        write_bytes: manifest.bins.iter().map(|b| b.bytes).sum(),
        ..Default::default()
    };

    // ── Pass 2: each rank counts its own bins, rank-parallel ───────────
    // A finished bin's counts are already on disk — under `--resume` they
    // are loaded, not recounted. (A fresh run ignores and overwrites any
    // counts a killed predecessor left behind.)
    let finished: Vec<Option<BinCounts>> = manifest
        .bins
        .iter()
        .map(|meta| {
            rc.two_pass_resume
                .then(|| read_bin_counts(&disk.store.counts_path(meta.bin)))
                .flatten()
        })
        .collect();
    // An injected kill strikes before the (K+1)-th bin this run would
    // count in manifest order; the cut is fixed up front so no rank counts
    // past it.
    let kill_after = rc.io.as_ref().and_then(|p| p.spec().kill_after);
    let kill = kill_after.and_then(|k| {
        let cut = (0..nbins)
            .filter(|&i| finished[i].is_none())
            .nth(k as usize);
        cut.map(|cut| (cut, k))
    });
    let mut work: Vec<(usize, RankWork)> = (0..nranks).map(|rank| (rank, Vec::new())).collect();
    for (meta, done) in manifest
        .bins
        .iter()
        .zip(finished)
        .take(kill.map_or(nbins, |(cut, _)| cut))
    {
        work[meta.bin as usize / per_rank].1.push((meta, done));
    }
    let counted: Vec<(RankBins<S::Key>, Vec<JournalEvent>)> = work
        .into_par_iter()
        .map(|(rank, bins)| {
            ctx.rank_local(|ctx| {
                RankBins::count(stages, &disk.on(ctx), rank, bins, nbins, planned_load)
            })
        })
        .collect();
    // Bins nest inside owner ranges (`owner = bin / per_rank` is monotone),
    // so folding in rank order replays the bins in manifest order: the
    // event stream, the float recovery sum and the first error all come
    // out as one serial walk over the manifest would leave them.
    let mut results = Vec::with_capacity(nranks);
    let mut read_secs = Vec::with_capacity(nranks);
    let mut count_secs = Vec::with_capacity(nranks);
    let mut high_water = vec![0u64; nranks];
    let mut filtered_total = 0u64;
    let mut filtered_instances_total = 0u64;
    for (rank, (bins, events)) in counted.into_iter().enumerate() {
        ctx.record(|| events);
        high_water[rank] = bins.high_water;
        if let Some(mut err) = bins.failed {
            // Ranks above the failing one report zero, as if the walk
            // stopped here.
            if let RunError::DeviceOom {
                high_water_bytes, ..
            } = &mut err
            {
                *high_water_bytes = high_water;
            }
            return Err(err);
        }
        bins.storage.fold_into(&mut storage);
        results.push(bins.result);
        read_secs.push(bins.read_secs);
        count_secs.push(bins.count_secs);
        filtered_total += bins.filtered;
        filtered_instances_total += bins.filtered_instances;
    }
    if let Some((cut, completed)) = kill {
        return Err(store_failed(
            manifest.bins[cut].bin as u64,
            format!(
                "injected kill after {completed} completed bins; \
                 re-run with --resume to count the remaining bins"
            ),
        ));
    }
    let (_, read_step) = world.compute_step_named("bin-read", |rank| ((), read_secs[rank]));
    let (_, count_step) = world.compute_step_named("count", |rank| ((), count_secs[rank]));
    ctx.record(|| {
        let mut observed = vec![
            ("storage_write_bytes_total", storage.write_bytes),
            ("storage_read_bytes_total", storage.read_bytes),
        ];
        if storage.io_retries > 0 {
            observed.push(("io_retries_total", storage.io_retries));
        }
        if storage.quarantined_bins > 0 {
            observed.push(("quarantined_bins_total", storage.quarantined_bins));
            observed.push(("rederived_bins_total", storage.quarantined_bins));
            observed.push(("rederive_bytes_total", storage.rederived_bytes));
        }
        if rc.min_count > 1 {
            observed.push(("filtered_kmers_total", filtered_total));
            observed.push(("filtered_kmer_instances_total", filtered_instances_total));
        }
        let mut events: Vec<JournalEvent> = observed
            .into_iter()
            .map(|(name, n)| JournalEvent::metric(name, None, MetricOp::CounterAdd(n)))
            .collect();
        if storage.io_retries > 0 || storage.quarantined_bins > 0 {
            events.push(JournalEvent::metric(
                "recovery_seconds_total",
                None,
                MetricOp::GaugeAdd(storage.recovery_time.as_secs()),
            ));
        }
        events
    });
    Ok(Counted {
        results,
        summary,
        exchange: exchange + read_step.mean,
        count: count_step.mean,
        storage: Some(storage),
        wall_rounds: rounds_start.elapsed().as_secs_f64(),
    })
}

/// One rank's share of pass 2: its bins in manifest order, each with
/// its counts when `--resume` found them finished.
type RankWork<'m> = Vec<(&'m BinMeta, Option<BinCounts>)>;

/// What one rank's share of pass 2 produced: its bins, counted (or
/// loaded) in manifest order until the first failure.
struct RankBins<K: PackedKmer> {
    result: RankCountResult<K>,
    read_secs: SimTime,
    count_secs: SimTime,
    /// Device high-water mark over the bins counted so far.
    high_water: u64,
    storage: StorageTally,
    filtered: u64,
    filtered_instances: u64,
    /// The first failure; no later bin of the rank is counted.
    failed: Option<RunError>,
}

impl<K: PackedKmer> RankBins<K> {
    /// Counts `rank`'s bins — `finished` ones are loaded as they are.
    fn count<S: CounterStages<Key = K>>(
        stages: &S,
        disk: &Disk,
        rank: usize,
        bins: RankWork,
        nbins: usize,
        planned_load: u64,
    ) -> RankBins<K> {
        let mut out = RankBins {
            result: RankCountResult {
                entries: Vec::new(),
                instances: 0,
            },
            read_secs: SimTime::ZERO,
            count_secs: SimTime::ZERO,
            high_water: 0,
            storage: StorageTally::default(),
            filtered: 0,
            filtered_instances: 0,
            failed: None,
        };
        for (meta, finished) in bins {
            let counts = match finished {
                Some(counts) => counts,
                None => match out.count_bin(stages, disk, rank, meta, nbins, planned_load) {
                    Ok(counts) => counts,
                    Err(e) => {
                        out.failed = Some(e);
                        break;
                    }
                },
            };
            out.result.entries.extend(
                counts
                    .entries
                    .iter()
                    .map(|&(key, count)| (K::from_u128(key), count)),
            );
            out.result.instances += counts.instances;
            out.filtered += counts.filtered;
            out.filtered_instances += counts.filtered_instances;
        }
        out
    }

    /// Reads, counts, filters and persists one bin of `owner`'s. A
    /// `DeviceOom` leaves its high-water vector for the fold to fill.
    fn count_bin<S: CounterStages<Key = K>>(
        &mut self,
        stages: &S,
        disk: &Disk,
        owner: usize,
        meta: &BinMeta,
        nbins: usize,
        planned_load: u64,
    ) -> Result<BinCounts, RunError> {
        let ctx = disk.ctx;
        let payloads =
            disk.read_recovering(stages, meta, nbins, &mut self.read_secs, &mut self.storage)?;
        let items: Vec<S::Item> = payloads
            .iter()
            .flat_map(|p| p.chunks_exact(S::Item::BYTES).map(S::Item::decode))
            .collect();
        drop(payloads);
        // The stage's own counter, sized for the bin's exact load capped
        // at the load `plan_bins` fitted to the device budget: a bin
        // skewed past the cap still counts exactly, its table regrowing or
        // spilling (DESIGN.md §8).
        let high_water = &mut self.high_water;
        let mut oom = |e: CounterOom| {
            *high_water = (*high_water).max(e.high_water_bytes);
            RunError::DeviceOom {
                rank: owner,
                detail: e.detail,
                high_water_bytes: Vec::new(),
            }
        };
        let mut counter = stages
            .make_counter(ctx, owner, meta.instances.min(planned_load))
            .map_err(&mut oom)?;
        self.count_secs += counter.absorb(vec![items]).map_err(&mut oom)?;
        let pressure = counter.pressure();
        self.high_water = self.high_water.max(pressure.high_water_bytes);
        journal_pressure(ctx, [(owner, pressure)]);
        let counted = counter.finish(ctx, owner);
        debug_assert_eq!(counted.instances, meta.instances);
        // Gerbil-style pre-filter: counts below `--min-count` never leave
        // the bin; the dump and spectrum see only survivors.
        let mut counts = BinCounts::default();
        for (key, count) in counted.entries {
            if count >= ctx.rc.min_count {
                counts.entries.push((key.to_u128(), count));
                counts.instances += count as u64;
            } else {
                counts.filtered += 1;
                counts.filtered_instances += count as u64;
            }
        }
        write_bin_counts(&disk.store.counts_path(meta.bin), &counts)
            .map_err(|e| store_failed(meta.bin as u64, e))?;
        Ok(counts)
    }
}

/// One rank's pass-2 storage accounting. The counters add up in any
/// order; recovery seconds stay separate increments so the fold adds them
/// in manifest order, to the float sum a serial walk reaches.
#[derive(Default)]
struct StorageTally {
    read_bytes: u64,
    io_retries: u64,
    quarantined_bins: u64,
    rederived_bytes: u64,
    recovery: Vec<SimTime>,
}

impl StorageTally {
    fn fold_into(self, storage: &mut StorageSummary) {
        storage.read_bytes += self.read_bytes;
        storage.io_retries += self.io_retries;
        storage.quarantined_bins += self.quarantined_bins;
        storage.rederived_bytes += self.rederived_bytes;
        for dt in self.recovery {
            storage.recovery_time += dt;
        }
    }
}

/// The bin store as one run uses it: the files, the simulated drive
/// that prices them, and the run whose io fault plan damages them and
/// whose journal annotates every operation (on top of the compute steps
/// that charge the time).
struct Disk<'a> {
    store: BinStore,
    ssd: SsdParams,
    ctx: &'a DriverCtx<'a>,
}

impl Disk<'_> {
    /// The same store, annotating `ctx`'s journal instead.
    fn on<'b>(&self, ctx: &'b DriverCtx<'b>) -> Disk<'b> {
        Disk {
            store: self.store.clone(),
            ssd: self.ssd,
            ctx,
        }
    }

    fn io(&self) -> Option<&IoPlan> {
        self.ctx.rc.io.as_ref()
    }

    fn io_event(&self, op: &str, bin: u64, bytes: u64, secs: SimTime) {
        self.ctx.record(|| {
            [JournalEvent::Io {
                op: op.to_string(),
                bin,
                bytes,
                secs: secs.as_secs(),
            }]
        });
    }

    /// Lands the spools and writes the manifest. Each bin gets one block
    /// per spool holding records of it — live spools in rank order, then
    /// salvaged ones — and its write is charged to the bin's owner. Spool
    /// bytes move out bin by bin, so memory drains as the store fills.
    fn write_bins<S>(
        &self,
        nranks: usize,
        mut spools: Vec<Spool<S>>,
        fingerprint: String,
    ) -> Result<(Manifest, Vec<SimTime>), RunError> {
        let nbins = spools.first().map_or(nranks, |s| s.bins.len());
        let mut write_secs = vec![SimTime::ZERO; nranks];
        let mut bins = Vec::with_capacity(nbins);
        for bin in 0..nbins {
            let mut blocks: Vec<Vec<u8>> = Vec::new();
            let mut instances = 0u64;
            for spool in &mut spools {
                let payload = std::mem::take(&mut spool.bins[bin]);
                if !payload.is_empty() {
                    blocks.push(payload);
                }
                instances += spool.instances[bin];
            }
            let w = self
                .store
                .write_bin(bin as u32, 0, &blocks, self.io())
                .map_err(|e| store_failed(bin as u64, e))?;
            let dt = self.ssd.write_time(w.physical_bytes);
            write_secs[bin / (nbins / nranks)] += dt;
            self.io_event("write", bin as u64, w.logical_bytes, dt);
            bins.push(BinMeta {
                bin: bin as u32,
                blocks: w.blocks,
                bytes: w.logical_bytes,
                instances,
            });
        }
        let manifest = Manifest { fingerprint, bins };
        self.store
            .write_manifest(&manifest)
            .map_err(|e| store_failed(0, e))?;
        Ok((manifest, write_secs))
    }

    /// The manifest a `--resume` continues from, checked against this
    /// run's fingerprint.
    fn resume_manifest(&self, rc: &RunConfig, reads: &ReadSet) -> Result<Manifest, RunError> {
        let dir = self.store.dir().display();
        let manifest = self
            .store
            .read_manifest()
            .map_err(|e| ConfigError::Io(format!("--resume: {e}")))?
            .ok_or_else(|| {
                ConfigError::Io(format!(
                    "--resume: no manifest in {dir} (nothing to resume; run without --resume first)"
                ))
            })?;
        let expect = run_fingerprint(rc, rc.nranks(), manifest.bins.len(), reads);
        if manifest.fingerprint != expect {
            return Err(ConfigError::Io(format!(
                "--resume: manifest fingerprint {} does not match this run ({expect}); \
                 the store in {dir} was written by a different configuration or input",
                manifest.fingerprint,
            ))
            .into());
        }
        Ok(manifest)
    }

    /// Reads one bin back through the bounded recovery ladder: transient
    /// read errors retry (a fresh draw per attempt); real damage
    /// quarantines the generation and re-derives the bin at the next one.
    /// Disk seconds accrue to `secs` (the bin owner's), recovery to
    /// `tally`.
    fn read_recovering<S: CounterStages>(
        &self,
        stages: &S,
        meta: &BinMeta,
        nbins: usize,
        secs: &mut SimTime,
        tally: &mut StorageTally,
    ) -> Result<Vec<Vec<u8>>, RunError> {
        let spec = self.io().map(|p| *p.spec());
        let bin = meta.bin as u64;
        let mut generation = 0u32;
        let mut blocks = meta.blocks;
        let mut attempts = 0u64;
        let mut rederives = 0u32;
        loop {
            let mut damage: Option<String> = None;
            for _ in 0..spec.map_or(1, |s| s.max_retries) {
                let transient = self.io().is_some_and(|p| read_errors(p, bin, attempts));
                attempts += 1;
                if transient {
                    let dt = SimTime::from_secs(self.ssd.seek_secs);
                    tally.io_retries += 1;
                    tally.recovery.push(dt);
                    *secs += dt;
                    self.io_event("retry", bin, 0, dt);
                    continue;
                }
                match self.store.read_bin(meta.bin, generation, blocks) {
                    Ok(payloads) => {
                        let dt = self.ssd.read_time(meta.bytes);
                        tally.read_bytes += meta.bytes;
                        *secs += dt;
                        self.io_event("read", bin, meta.bytes, dt);
                        return Ok(payloads);
                    }
                    Err(e) => {
                        // Persistent damage: retrying the same bytes
                        // cannot help — escalate to re-derivation.
                        damage = Some(e.to_string());
                        break;
                    }
                }
            }
            if rederives >= spec.map_or(0, |s| s.max_rederives) {
                return Err(store_failed(
                    bin,
                    format!(
                        "bin unreadable after {attempts} read attempt(s) and \
                         {rederives} re-derive(s): {}",
                        damage.unwrap_or_else(|| "transient read errors exhausted \
                             the retry budget"
                            .to_string())
                    ),
                ));
            }
            tally.quarantined_bins += 1;
            self.io_event("quarantine", bin, meta.bytes, SimTime::ZERO);
            rederives += 1;
            generation += 1;
            let (fresh, compute) = rederive(stages, self.ctx, nbins, meta.bin as usize);
            let w = self
                .store
                .write_bin(meta.bin, generation, &fresh, self.io())
                .map_err(|e| store_failed(bin, e))?;
            blocks = w.blocks;
            let dt = compute + self.ssd.write_time(w.physical_bytes);
            tally.rederived_bytes += w.logical_bytes;
            tally.recovery.push(dt);
            *secs += dt;
            self.io_event("rederive", bin, w.logical_bytes, dt);
        }
    }
}

/// Re-derives bin `bin` from the deterministic input: every rank
/// re-buckets its partition — telemetry off, so nothing is recorded
/// twice — and the bin's records are kept from the bucket of the bin's
/// owner. Returns them as one block (none for an empty bin) with the
/// simulated bucketing compute.
fn rederive<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    nbins: usize,
    bin: usize,
) -> (Vec<Vec<u8>>, SimTime) {
    let quiet = DriverCtx {
        journal: None,
        ..ctx.clone()
    };
    let owner = bin / (nbins / ctx.nranks);
    let mut payload = Vec::new();
    let mut compute = SimTime::ZERO;
    for rank in 0..ctx.nranks {
        let out = stages.bucket(&quiet, rank);
        compute += out.compute;
        for item in &out.buckets[owner] {
            if stages.bin_of(&quiet, item, nbins) == bin {
                item.encode(&mut payload);
            }
        }
    }
    let blocks = if payload.is_empty() {
        Vec::new()
    } else {
        vec![payload]
    };
    (blocks, compute)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::pipeline::run_typed;
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};
    use std::path::PathBuf;

    fn tiny_reads() -> ReadSet {
        Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dedukt-two-pass-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn base_rc(mode: Mode) -> RunConfig {
        let mut rc = RunConfig::new(mode, 1);
        rc.collect_spectrum = true;
        rc
    }

    #[test]
    fn resume_rejects_a_mismatched_manifest() {
        let reads = tiny_reads();
        let dir = tmp_dir("mismatch");
        let mut rc = base_rc(Mode::CpuBaseline);
        rc.two_pass_dir = Some(dir.clone());
        run_typed::<u64>(&reads, &rc).unwrap();
        let mut other = rc.clone();
        other.counting.hash_seed ^= 0xBEEF; // different run shape, same store
        other.two_pass_resume = true;
        let err = run_typed::<u64>(&reads, &other).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        // Minimizer routing shapes bin content, so it is fingerprinted.
        rc.balanced_minimizers = true;
        rc.two_pass_resume = true;
        let err = run_typed::<u64>(&reads, &rc).unwrap_err();
        assert!(err.to_string().contains("fingerprint"), "{err}");
        // And resuming an empty store names the flag too.
        let empty = tmp_dir("mismatch-empty");
        rc.two_pass_dir = Some(empty.clone());
        let err = run_typed::<u64>(&reads, &rc).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }
}
