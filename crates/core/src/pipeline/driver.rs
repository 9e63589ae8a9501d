//! The staged superstep driver shared by all three counters, in memory
//! and out of core.
//!
//! Every pipeline in the paper has the same skeleton: a bucketing compute
//! phase, an `MPI_Alltoallv` (optionally split into memory-bounded rounds,
//! §III-A), and a counting phase. The driver owns that skeleton once —
//! world setup, the balanced-minimizer pre-pass, round slicing, the round
//! loop with optional compute/exchange overlap, phase accounting, and
//! report assembly — while a [`CounterStages`] implementation supplies the
//! counter-specific hooks (what to bucket, how items move on the wire,
//! how received items are counted). Under `--two-pass` the same rounds
//! feed a spool instead of the counters, and the spooled bins are
//! counted afterwards, each rank its own, rank-parallel ([`two_pass`]).
//!
//! ## Rounds and overlap
//!
//! With `round_limit_bytes` set, the outgoing buckets are sliced into
//! rounds so no rank sends more than the cap per round
//! ([`split_rounds_weighted`]); received rounds are counted into a table
//! sized for the *total* expected load, so results are bit-identical to a
//! single-round run regardless of the cap.
//!
//! With `overlap_rounds` additionally set, round `r`'s exchange is issued
//! non-blocking while round `r-1`'s count kernel runs on the rank's
//! device stream: the rank is charged `max(wire, count)` per round
//! instead of their sum ([`BspWorld::alltoallv_overlapped`]), and only the
//! final round's count remains exposed as the count phase. Payloads,
//! counts, and volumes are unaffected — overlap changes *when* simulated
//! work happens, never *what* is computed.

use crate::config::{CountingConfig, RunConfig};
use crate::partition::surviving_owner;
use crate::pipeline::gpu_common::split_rounds_weighted;
use crate::pipeline::two_pass::{self, Record};
use crate::pipeline::{assemble_counts, RankCountResult, RunError, RunReport};
use crate::stats::{ExchangeSummary, PhaseBreakdown, StorageSummary, WallClock};
use crate::table::TableKey;
use crate::width::PackedKmer;
use dedukt_dna::{Read, ReadSet};
use dedukt_hash::Murmur3x64;
use dedukt_net::cost::Network;
use dedukt_net::fault::dies_at;
use dedukt_net::BspWorld;
use dedukt_sim::{Journal, JournalEvent, MetricOp, SimTime};
use rayon::prelude::*;
use std::sync::Arc;
use std::time::Instant;

/// Run-wide context handed to every [`CounterStages`] hook.
#[derive(Clone)]
pub(crate) struct DriverCtx<'a> {
    /// The full run configuration.
    pub rc: &'a RunConfig,
    /// Shorthand for `rc.counting`.
    pub cfg: CountingConfig,
    /// Total ranks.
    pub nranks: usize,
    /// Per-rank read partitions, borrowed from the input set.
    pub parts: Vec<&'a [Read]>,
    /// The run's routing hasher (seeded with `cfg.hash_seed`).
    pub hasher: Murmur3x64,
    /// The run's one recorder (shared with the world), when any of the
    /// trace, metrics or journal outputs was asked for.
    pub journal: Option<Arc<Journal>>,
}

impl<'a> DriverCtx<'a> {
    /// The context of a run of `rc` over `reads`, split by bases across
    /// `rc.nranks()` ranks, recording into `journal` when one is given.
    pub fn new(rc: &'a RunConfig, reads: &'a ReadSet, journal: Option<Arc<Journal>>) -> Self {
        let nranks = rc.nranks();
        DriverCtx {
            rc,
            cfg: rc.counting,
            nranks,
            parts: reads.partition_by_bases(nranks),
            hasher: Murmur3x64::new(rc.counting.hash_seed),
            journal,
        }
    }

    /// Records the events `events` builds, when recording is on.
    pub fn record<E: IntoIterator<Item = JournalEvent>>(&self, events: impl FnOnce() -> E) {
        if let Some(j) = &self.journal {
            j.extend(events());
        }
    }

    /// Records `rank`'s metric observations that `observed` builds, when
    /// recording is on.
    pub fn rank_metrics<O>(&self, rank: usize, observed: impl FnOnce() -> O)
    where
        O: IntoIterator<Item = (&'static str, MetricOp)>,
    {
        self.record(|| {
            observed()
                .into_iter()
                .map(|(name, op)| JournalEvent::metric(name, Some(rank), op))
        });
    }

    /// Runs one rank's hook against a journal of its own and returns what
    /// the hook recorded with its result. Hooks run rank-parallel;
    /// recording their events afterwards, in rank order, keeps the stream
    /// independent of the thread schedule.
    pub(crate) fn rank_local<T>(
        &self,
        hook: impl FnOnce(&DriverCtx) -> T,
    ) -> (T, Vec<JournalEvent>) {
        if self.journal.is_none() {
            return (hook(self), Vec::new());
        }
        let journal = Arc::new(Journal::new());
        let local = DriverCtx {
            journal: Some(Arc::clone(&journal)),
            ..self.clone()
        };
        (hook(&local), journal.take())
    }
}

/// What one rank's bucketing phase produced.
pub(crate) struct BucketOut<I> {
    /// `buckets[dst]` — items routed to each destination rank.
    pub buckets: Vec<Vec<I>>,
    /// Simulated duration of the bucketing compute itself.
    pub compute: SimTime,
    /// Device→host staging time for the outgoing buffers (zero on the
    /// CPU pipeline and under GPUDirect).
    pub stage_out: SimTime,
}

/// What one exchange round delivered.
pub(crate) struct RoundRecv<I> {
    /// `items[dst]` — everything rank `dst` received this round,
    /// concatenated in source-rank order.
    pub items: Vec<Vec<I>>,
    /// `undelivered[src][dst]` — buckets lost to an injected fault this
    /// attempt, in send-matrix shape so the driver can feed them straight
    /// back into the next attempt. All empty on a fault-free fabric.
    pub undelivered: Vec<Vec<Vec<I>>>,
    /// Buckets that failed to send this attempt.
    pub failed_sends: u64,
    /// Buckets that arrived corrupt (checksum mismatch) this attempt.
    pub corrupt_buckets: u64,
    /// Mean per-rank pure wire time of the round's collective(s).
    pub wire_mean: SimTime,
    /// Mean per-rank *charged* time: equals `wire_mean` for a blocking
    /// round, `max(wire, hidden compute)` for an overlapped one.
    pub charged_mean: SimTime,
}

/// A counting stage ran out of device memory and could not recover —
/// the grow path was denied *and* the host spill budget is exhausted
/// (or even the initial table allocation failed). The driver converts
/// this into [`RunError::DeviceOom`], gathering every rank's high-water
/// mark for the message.
pub(crate) struct CounterOom {
    /// What failed, from the counting stage (allocation request sizes,
    /// spill budget).
    pub detail: String,
    /// The failing rank's device-allocation high-water mark in bytes.
    pub high_water_bytes: u64,
}

/// Memory-pressure telemetry one rank's counter accumulated; all zero
/// on an unconstrained run (and always zero on the CPU pipeline, which
/// has no device budget — its tables grow transparently on the host).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PressureStats {
    /// k-mer instances parked on the host spill list (feeds the
    /// "spill k-mers" trace lane).
    pub spilled: u64,
    /// Successful grow-and-rehash events.
    pub regrows: u64,
    /// Denied grow allocations the counter recovered from by spilling.
    pub oom_events: u64,
    /// Device-allocation high-water mark in bytes. Nonzero even on an
    /// unpressured run — gate pressure-only telemetry on the event
    /// counts above, never on this.
    pub high_water_bytes: u64,
}

impl PressureStats {
    /// Did any pressure event actually fire on this rank? The gate for
    /// the pressure-only trace lanes and journal events, keeping
    /// unconstrained runs' output schemas untouched.
    pub fn fired(&self) -> bool {
        self.spilled + self.regrows + self.oom_events > 0
    }
}

/// The counter-specific hooks of one pipeline; everything else —
/// world setup, round slicing, the superstep loop, phase accounting,
/// report assembly — lives in [`run_staged`].
pub(crate) trait CounterStages: Sync {
    /// The packed key width this counter runs at: `u64` for the paper's
    /// narrow regime (k ≤ 31), `u128` for wide k (≤ 63). Everything
    /// width-dependent — wire bytes, table slots, packing bounds — is
    /// derived from this one type.
    type Key: PackedKmer;
    /// What moves on the wire (a packed k-mer, a supermer word+length).
    /// `Clone` because rank-failure recovery retains sent rounds and
    /// replays a dead rank's slice of them into the survivors; a
    /// [`Record`] because `--two-pass` spools it to disk.
    type Item: Send + Clone + Record;
    /// Per-rank counting state threaded through the rounds.
    type Counter: Send;

    /// Serialized size of one item on the wire, in bytes. Used for the
    /// round cap; may differ from the item's in-memory size.
    const ITEM_WIRE_BYTES: u64;
    /// Trace/phase name of the bucketing compute step.
    const BUCKET_PHASE: &'static str;

    /// The machine this counter runs on.
    fn network(&self, rc: &RunConfig) -> Network;

    /// Optional pre-pass before bucketing (the §VII balanced-minimizer
    /// sampling). Returns its simulated duration, folded into the parse
    /// phase.
    fn prepass(&mut self, _ctx: &DriverCtx, _world: &mut BspWorld) -> SimTime {
        SimTime::ZERO
    }

    /// Bucket rank `rank`'s partition by destination.
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<Self::Item>;

    /// How many k-mer instances counting `item` will insert (1 for a
    /// k-mer, `len - k + 1` for a supermer). Sizes the count tables for
    /// the *total* load so round splitting cannot change results.
    fn item_instances(&self, ctx: &DriverCtx, item: &Self::Item) -> u64;

    /// The `--two-pass` bin of `item` among `nbins`, a power-of-two
    /// multiple of the rank count (DESIGN.md §12). Bins nest inside
    /// owner ranges: `bin / (nbins / nranks)` is the rank
    /// [`CounterStages::bucket`] routes the item to, so every instance of
    /// a k-mer lands in one bin and per-rank tables match the in-memory
    /// run's.
    fn bin_of(&self, ctx: &DriverCtx, item: &Self::Item, nbins: usize) -> usize;

    /// Move one round through the wire. `hidden`, when present, carries
    /// per-rank compute times to overlap behind the collective (the
    /// previous round's count kernels).
    fn exchange_round(
        &self,
        world: &mut BspWorld,
        round: Vec<Vec<Vec<Self::Item>>>,
        hidden: Option<&[SimTime]>,
    ) -> RoundRecv<Self::Item>;

    /// Host→device staging time for everything a rank received (zero on
    /// the CPU pipeline and under GPUDirect).
    fn stage_in(&self, _ctx: &DriverCtx, _received_items: u64) -> SimTime {
        SimTime::ZERO
    }

    /// Create rank `rank`'s counter, sized for `expected_instances`
    /// k-mer inserts across *all* rounds (scaled by the run's safety
    /// factor and any injected underestimate). Errs only when even the
    /// initial table cannot be allocated on the device.
    fn make_counter(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        expected_instances: u64,
    ) -> Result<Self::Counter, CounterOom>;

    /// Count one round's received items; returns the simulated kernel
    /// time (charged either as hidden compute or in the count phase).
    /// Errs only when the rank exhausted both the device budget and its
    /// host spill budget.
    fn count_round(
        &self,
        ctx: &DriverCtx,
        counter: &mut Self::Counter,
        items: Vec<Self::Item>,
    ) -> Result<SimTime, CounterOom>;

    /// This counter's memory-pressure telemetry so far. The default is
    /// the all-zero report, right for counters with no device budget
    /// (the CPU pipeline).
    fn pressure(&self, _counter: &Self::Counter) -> PressureStats {
        PressureStats::default()
    }

    /// Non-consuming snapshot of the counter's current `(kmer, count)`
    /// entries and counted instances — the checkpoint and rescale
    /// salvage hook (DESIGN.md §11). Must reflect everything
    /// [`CounterStages::finish`] would report at this point, spill
    /// lists included.
    fn snapshot_counts(&self, counter: &Self::Counter) -> (Vec<(Self::Key, u32)>, u64);

    /// Drain the counter into the rank's result (and record its
    /// counting telemetry).
    fn finish(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        counter: Self::Counter,
    ) -> RankCountResult<Self::Key>;
}

/// Where a rank's delivered items go: its counter when counting in
/// memory ([`Counting`]), or its per-bin spool in pass 1 of `--two-pass`
/// ([`two_pass::Spooling`]). The exchange rounds — retries, rank death,
/// rescale, checkpoints — only ever open, feed, measure and snapshot
/// sinks, so they run unchanged on either.
pub(crate) trait Sink<I>: Sync {
    /// One rank's live state.
    type State: Send;
    /// A snapshot of it: what a checkpoint holds, and what a dead or
    /// departing rank leaves to be merged at assembly.
    type Held: Send;
    /// A fresh sink for `rank`, which expects `expected` k-mer inserts.
    fn open(&self, rank: usize, expected: u64) -> Result<Self::State, CounterOom>;
    /// Feeds one round's items; returns the simulated kernel time.
    fn absorb(&self, state: &mut Self::State, items: Vec<I>) -> Result<SimTime, CounterOom>;
    /// Memory-pressure telemetry so far; all zero for a sink with no
    /// device budget.
    fn pressure(&self, _state: &Self::State) -> PressureStats {
        PressureStats::default()
    }
    /// Non-consuming snapshot of everything absorbed so far.
    fn snapshot(&self, state: &Self::State) -> Self::Held;
}

/// The in-memory sink: every round is counted as it arrives.
pub(crate) struct Counting<'a, S>(&'a S, &'a DriverCtx<'a>);

impl<S: CounterStages> Sink<S::Item> for Counting<'_, S> {
    type State = S::Counter;
    type Held = RankCountResult<S::Key>;

    fn open(&self, rank: usize, expected: u64) -> Result<S::Counter, CounterOom> {
        self.0.make_counter(self.1, rank, expected)
    }

    fn absorb(&self, counter: &mut S::Counter, items: Vec<S::Item>) -> Result<SimTime, CounterOom> {
        self.0.count_round(self.1, counter, items)
    }

    fn pressure(&self, counter: &S::Counter) -> PressureStats {
        self.0.pressure(counter)
    }

    fn snapshot(&self, counter: &S::Counter) -> RankCountResult<S::Key> {
        let (entries, instances) = self.0.snapshot_counts(counter);
        RankCountResult { entries, instances }
    }
}

/// The parse phase's output: what the exchange rounds carry.
pub(crate) struct Bucketed<I> {
    /// `buckets[src][dst]` — every rank's outgoing items.
    pub buckets: Vec<Vec<Vec<I>>>,
    /// Per-rank device→host staging of the outgoing buffers.
    pub stage_out: Vec<SimTime>,
    /// Mean simulated bucketing compute.
    pub compute: SimTime,
    /// Items bucketed across all ranks.
    pub units: u64,
    /// k-mer inserts expected per destination rank, over all rounds.
    pub expected: Vec<u64>,
}

/// What the exchange rounds leave behind.
pub(crate) struct Exchanged<St, H> {
    /// Every rank's sink after the last round.
    pub sinks: Vec<St>,
    /// `(slot, snapshot)` pairs salvaged from dead and departing ranks.
    pub salvaged: Vec<(usize, H)>,
    /// Per-rank absorb time left exposed to the count phase.
    pub count_exposed: Vec<SimTime>,
    /// Exchange accounting; the byte fields are filled at assembly.
    pub summary: ExchangeSummary,
    /// Exchange phase: staging out, charged wire, recovery, staging in.
    pub exchange: SimTime,
}

/// Every rank's counts and the phase time charged — what report
/// assembly needs from either counting path.
pub(crate) struct Counted<K: TableKey> {
    pub results: Vec<RankCountResult<K>>,
    pub summary: ExchangeSummary,
    pub exchange: SimTime,
    pub count: SimTime,
    /// Bin-store accounting, under `--two-pass` only.
    pub storage: Option<StorageSummary>,
    /// Host seconds of the path's round loop.
    pub wall_rounds: f64,
}

/// Runs one counter through the shared staged superstep skeleton:
/// pre-pass and bucketing, then the exchange rounds feeding either the
/// live counters or, under `--two-pass`, the spool whose bins pass 2
/// counts rank-parallel ([`two_pass::count_out_of_core`]).
///
/// Errs when a fault plan's retry budget is exhausted mid-exchange
/// ([`RunError::ExchangeFailed`]), when a rank exhausts both the device
/// budget and its host spill budget while counting
/// ([`RunError::DeviceOom`]), when rank failures exceed their budget
/// ([`RunError::RanksLost`]), or when the bin store fails beyond its
/// recovery budget ([`RunError::StorageFailed`]); unconstrained
/// fault-free runs always succeed.
pub(crate) fn run_staged<S: CounterStages>(
    stages: &mut S,
    reads: &ReadSet,
    rc: &RunConfig,
) -> Result<RunReport<S::Key>, RunError> {
    let wall_run = Instant::now();
    let nranks = rc.nranks();
    let mut net = stages.network(rc);
    net.params.algo = rc.exchange_algo;
    let mut world = BspWorld::new(net);
    assert_eq!(world.nranks(), nranks);
    if let Some(plan) = rc.fault {
        world.enable_faults(plan);
    }
    // The trace, the metrics and the journal are projections of one
    // event stream: asking for any of them records it.
    let journal = (rc.collect_trace || rc.collect_metrics || rc.collect_journal)
        .then(|| Arc::new(Journal::new()));
    if let Some(j) = &journal {
        world.enable_journal(Arc::clone(j));
        j.push(JournalEvent::Meta {
            mode: rc.mode.label().to_string(),
            nodes: rc.nodes,
            nranks,
            detail: run_detail(rc),
        });
    }
    let ctx = DriverCtx::new(rc, reads, journal);

    // ── Pre-pass + bucketing (parse phase) ─────────────────────────────
    // `--resume` skips bucketing and the exchange: the manifest is pass
    // 1's output. The pre-pass still runs, because routing — and so
    // re-deriving a damaged bin — depends on it.
    let prepass_time = stages.prepass(&ctx, &mut world);
    let stages = &*stages; // shared from here on; compute steps capture it
    let bucketed = (!rc.two_pass_resume).then(|| bucket_phase(stages, &ctx, &mut world));
    let parse = prepass_time + bucketed.as_ref().map_or(SimTime::ZERO, |b| b.compute);
    let wall_parse = wall_run.elapsed().as_secs_f64();

    // ── Exchange rounds, then counting in memory or out of core ────────
    let wall_rounds_start = Instant::now();
    let counted = match &rc.two_pass_dir {
        None => count_in_memory(
            stages,
            &ctx,
            &mut world,
            bucketed.expect("--resume requires --two-pass"),
        )?,
        Some(dir) => two_pass::count_out_of_core(stages, &ctx, &mut world, reads, dir, bucketed)?,
    };

    // ── Report assembly ────────────────────────────────────────────────
    let phases = PhaseBreakdown {
        parse,
        exchange: counted.exchange,
        count: counted.count,
    };
    let makespan = world.elapsed();
    let wall = WallClock {
        parse: wall_parse,
        rounds: counted.wall_rounds,
        finish: wall_rounds_start.elapsed().as_secs_f64() - counted.wall_rounds,
        total: wall_run.elapsed().as_secs_f64(),
    };
    let summary = counted.summary;
    ctx.record(|| {
        let mut events = Vec::new();
        // Fault-recovery series exist only when recovery happened, so a
        // zero-fault plan leaves the metrics schema untouched.
        if summary.rank_deaths > 0 {
            events.push(JournalEvent::metric(
                "exchange_replay_bytes_total",
                None,
                MetricOp::CounterAdd(summary.replayed_bytes),
            ));
        }
        if summary.retries > 0 || summary.rank_deaths > 0 {
            events.push(JournalEvent::metric(
                "recovery_seconds_total",
                None,
                MetricOp::GaugeAdd(summary.recovery_time.as_secs()),
            ));
        }
        // Phase totals from the same accumulators as the report, so the
        // analyzer's reconciliation is exact (not epsilon-close); then
        // the wall-clock lane (real host seconds, the one
        // nondeterministic family) and the makespan trailer.
        for (phase, t) in [
            ("parse", phases.parse),
            ("exchange", phases.exchange),
            ("count", phases.count),
        ] {
            events.push(JournalEvent::Phase {
                phase: phase.to_string(),
                secs: t.as_secs(),
            });
        }
        for (stage, secs) in [
            ("parse", wall.parse),
            ("rounds", wall.rounds),
            ("finish", wall.finish),
            ("total", wall.total),
        ] {
            events.push(JournalEvent::Wall {
                stage: stage.to_string(),
                secs,
            });
        }
        events.push(JournalEvent::Run {
            makespan: makespan.as_secs(),
        });
        events
    });
    let stats = world.stats();
    let (load, total, distinct, spectrum, tables) =
        assemble_counts(counted.results, rc.collect_spectrum, rc.collect_tables);
    Ok(RunReport {
        mode: rc.mode,
        nodes: rc.nodes,
        nranks,
        phases,
        makespan,
        exchange: ExchangeSummary {
            bytes: stats.total_bytes,
            off_node_bytes: stats.off_node_bytes,
            intra_node_bytes: stats.intra_node_bytes,
            intra_tier_bytes: stats.intra_tier_bytes,
            coalesced_messages: stats.coalesced_messages,
            retry_bytes: stats.retry_bytes,
            ..summary
        },
        storage: counted.storage,
        load,
        total_kmers: total,
        distinct_kmers: distinct,
        spectrum,
        tables,
        wall,
        events: ctx.journal.map(|j| j.take()),
    })
}

/// The parse phase proper: every rank buckets its partition by
/// destination, and the expected per-destination load is tallied over
/// all of it.
fn bucket_phase<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
) -> Bucketed<S::Item> {
    let nranks = ctx.nranks;
    let (bucket_out, bucket_step) = world.compute_step_named(S::BUCKET_PHASE, |rank| {
        let (b, events) = ctx.rank_local(|ctx| stages.bucket(ctx, rank));
        ((b.buckets, b.stage_out, events), b.compute)
    });
    let mut buckets = Vec::with_capacity(nranks);
    let mut stage_out = Vec::with_capacity(nranks);
    for (b, t, events) in bucket_out {
        buckets.push(b);
        stage_out.push(t);
        ctx.record(|| events);
    }
    let units: u64 = buckets
        .iter()
        .flat_map(|row| row.iter().map(|v| v.len() as u64))
        .sum();
    // Expected inserts per destination, over ALL rounds — count tables
    // are sized for the full load up front, so slicing the exchange into
    // rounds cannot change probe sequences or results.
    let mut expected = vec![0u64; nranks];
    for row in &buckets {
        for (dst, payload) in row.iter().enumerate() {
            for item in payload {
                expected[dst] += stages.item_instances(ctx, item);
            }
        }
    }
    Bucketed {
        buckets,
        stage_out,
        compute: bucket_step.mean,
        units,
        expected,
    }
}

/// The in-memory counting path: the exchange rounds count into live
/// counters; then the count phase drains, and each table is finished and
/// merged with whatever recovery salvaged.
fn count_in_memory<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
    bucketed: Bucketed<S::Item>,
) -> Result<Counted<S::Key>, RunError> {
    let rounds_start = Instant::now();
    let ex = exchange_rounds(stages, &Counting(stages, ctx), ctx, world, bucketed)?;
    let wall_rounds = rounds_start.elapsed().as_secs_f64();

    // ── Count phase drain ──────────────────────────────────────────────
    let (_, count_step) = world.compute_step_named("count", |rank| ((), ex.count_exposed[rank]));
    journal_pressure(ctx, ex.sinks.iter().map(|c| stages.pressure(c)).enumerate());
    let indexed: Vec<(usize, S::Counter)> = ex.sinks.into_iter().enumerate().collect();
    let finished: Vec<(RankCountResult<S::Key>, Vec<JournalEvent>)> = indexed
        .into_par_iter()
        .map(|(rank, c)| ctx.rank_local(|ctx| stages.finish(ctx, rank, c)))
        .collect();
    let mut results = Vec::with_capacity(finished.len());
    for (result, events) in finished {
        results.push(result);
        ctx.record(|| events);
    }
    if !ex.salvaged.is_empty() {
        fold_salvaged(&mut results, ex.salvaged);
    }
    Ok(Counted {
        results,
        summary: ex.summary,
        exchange: ex.exchange,
        count: count_step.mean,
        storage: None,
        wall_rounds,
    })
}

/// Recovery accounting: one journal event per `(rank, counter)` and kind
/// of memory pressure that actually fired (unpressured runs journal
/// nothing here, so their metrics carry no pressure series either).
pub(crate) fn journal_pressure(
    ctx: &DriverCtx,
    pressure: impl IntoIterator<Item = (usize, PressureStats)>,
) {
    let Some(j) = &ctx.journal else { return };
    for (rank, p) in pressure {
        if p.regrows > 0 {
            j.push(JournalEvent::Regrow {
                rank,
                count: p.regrows,
            });
        }
        if p.spilled > 0 {
            j.push(JournalEvent::Spill {
                rank,
                kmers: p.spilled,
            });
        }
        if p.oom_events > 0 {
            j.push(JournalEvent::Oom {
                rank,
                detail: format!(
                    "{} grow allocation(s) denied; recovered by spilling to host",
                    p.oom_events
                ),
            });
        }
    }
}

/// The exchange rounds: stage out, slice the buckets into rounds, move
/// each through the wire into every rank's sink — retrying faulty
/// deliveries, recovering dead ranks from checkpoints and replayed
/// history, and re-homing ranges across elastic rescales — and stage in.
pub(crate) fn exchange_rounds<S: CounterStages, K: Sink<S::Item>>(
    stages: &S,
    sink: &K,
    ctx: &DriverCtx,
    world: &mut BspWorld,
    bucketed: Bucketed<S::Item>,
) -> Result<Exchanged<K::State, K::Held>, RunError> {
    let rc = ctx.rc;
    let nranks = ctx.nranks;
    let expected = bucketed.expected;
    let (_, stage_out_step) =
        world.compute_step_named("stage-out", |rank| ((), bucketed.stage_out[rank]));
    let rounds = split_rounds_weighted(bucketed.buckets, rc.round_limit_bytes, S::ITEM_WIRE_BYTES);
    let nrounds = rounds.len();
    let made: Vec<Result<K::State, CounterOom>> = (0..nranks)
        .into_par_iter()
        .map(|rank| sink.open(rank, expected[rank]))
        .collect();
    let mut sinks = opened_or_oom(sink, made)?;
    let mut received_items = vec![0u64; nranks];
    let mut count_totals = vec![SimTime::ZERO; nranks];
    let mut last_round_times = vec![SimTime::ZERO; nranks];
    let mut prev_round_times: Option<Vec<SimTime>> = None;
    let mut wire_total = SimTime::ZERO;
    let mut charged_total = SimTime::ZERO;
    // Fault-recovery accounting, all zero on a perfect fabric: retry
    // attempts and their backoffs are charged to `recovery_total`,
    // keeping `wire_total`/`charged_total` pure first-attempt time.
    let fault_spec = rc.fault.map(|p| *p.spec());
    let mut recovery_total = SimTime::ZERO;
    let mut retries_total = 0u64;
    let mut corrupt_total = 0u64;
    // ── Rank-failure and elastic-rescale state (DESIGN.md §11) ─────────
    // `range_owner[d]` maps base minimizer range `d` (the rank that owns
    // it at full strength) to the rank currently counting it — identity
    // until a death or rescale, so plan-free runs take today's exact
    // code path, byte for byte.
    let rank_plan = rc.rank.clone();
    let recovery_active = rank_plan.is_some() || !rc.rescale.is_empty();
    let rank_seed = rank_plan
        .as_ref()
        .map_or(rc.counting.hash_seed, |p| p.seed());
    let mut alive = vec![true; nranks];
    let mut range_owner: Vec<usize> = (0..nranks).collect();
    // First round whose range-`d` traffic the current owner's *live*
    // sink holds; everything earlier sits in `salvaged` or was replayed
    // into it. The invariant the whole recovery path keeps:
    // sink(range_owner[d]) holds range-`d` rounds [range_from[d]..now)
    // and nothing else of range `d`.
    let mut range_from = vec![0usize; nranks];
    // `history[round][d]`: range-`d` payload of `round` in source-rank
    // order — exactly what the owner received, and the replay source
    // when an owner dies. Retained only while a plan is active.
    let mut history: Vec<Vec<Vec<S::Item>>> = Vec::new();
    // Per-rank checkpoint: (rounds covered, snapshot).
    let mut snaps: Vec<Option<(usize, K::Held)>> = (0..nranks).map(|_| None).collect();
    // Salvaged (slot, snapshot) pairs awaiting the merge at assembly.
    let mut salvaged: Vec<(usize, K::Held)> = Vec::new();
    let mut rescale_sched = rc.rescale.iter().copied().peekable();
    let mut dead_total: usize = 0;
    let mut replayed_bytes_total = 0u64;
    for (round_idx, round) in rounds.into_iter().enumerate() {
        // ── Round boundary: graceful rescale, then drawn deaths ────────
        while rescale_sched
            .peek()
            .is_some_and(|&(ro, _)| ro == round_idx as u64)
        {
            let (_, target) = rescale_sched.next().expect("peeked");
            let from = alive.iter().filter(|&&a| a).count();
            ctx.record(|| {
                [JournalEvent::Rescale {
                    round: round_idx as u64,
                    from,
                    to: target,
                }]
            });
            // Shrink: ranks at index >= target depart gracefully. Their
            // whole sink is salvaged (merged at assembly) and their
            // ranges pass to survivors for future rounds only — a
            // departure needs no replay, unlike a death.
            for r in target..nranks {
                if !alive[r] {
                    continue;
                }
                salvaged.push((r, sink.snapshot(&sinks[r])));
                snaps[r] = None;
                alive[r] = false;
                sinks[r] = reopen(sink, &sinks, r, expected[r])?;
            }
            if !alive.iter().any(|&a| a) {
                return Err(RunError::RanksLost {
                    dead: nranks,
                    round: round_idx as u64,
                });
            }
            for d in 0..nranks {
                if !alive[range_owner[d]] {
                    range_owner[d] = surviving_owner(rank_seed, d, &alive);
                    range_from[d] = round_idx;
                }
            }
            // Grow: departed ranks below the new world size rejoin and
            // take back their own base range, future rounds only. The
            // range's interim holder is fully salvaged and restarted so
            // its live sink never splits a key's count with the
            // rejoiner's — the invariant the merge depends on.
            for r in 0..target.min(nranks) {
                if alive[r] {
                    continue;
                }
                alive[r] = true;
                let holder = range_owner[r];
                if holder != r {
                    salvaged.push((holder, sink.snapshot(&sinks[holder])));
                    snaps[holder] = None;
                    sinks[holder] = reopen(sink, &sinks, holder, expected[holder])?;
                    for d in 0..nranks {
                        if range_owner[d] == holder {
                            range_from[d] = round_idx;
                        }
                    }
                    range_owner[r] = r;
                    range_from[r] = round_idx;
                }
            }
        }
        if let Some(plan) = &rank_plan {
            // Deaths drawn at this boundary (coordinate-hashed, so both
            // engines agree without coordination). The dead rank's live
            // sink is unrecoverable; its checkpoint (if any) is salvaged
            // and the gap since is replayed from `history` into each
            // range's next owner.
            let mut replay_to = vec![0u64; nranks];
            let mut replay_kernels = SimTime::ZERO;
            for r in 0..nranks {
                if !alive[r] || !dies_at(plan, round_idx as u64, r) {
                    continue;
                }
                alive[r] = false;
                dead_total += 1;
                ctx.record(|| {
                    [JournalEvent::RankDead {
                        rank: r,
                        round: round_idx as u64,
                    }]
                });
                if dead_total > plan.spec().max_dead || !alive.iter().any(|&a| a) {
                    return Err(RunError::RanksLost {
                        dead: dead_total,
                        round: round_idx as u64,
                    });
                }
                let ckpt = snaps[r].take();
                let floor = ckpt.as_ref().map_or(0, |&(c, _)| c);
                if let Some((_, held)) = ckpt {
                    salvaged.push((r, held));
                }
                for d in 0..nranks {
                    if range_owner[d] != r {
                        continue;
                    }
                    let new_owner = surviving_owner(rank_seed, d, &alive);
                    let start = range_from[d].max(floor);
                    let mut items: Vec<S::Item> = Vec::new();
                    for col in &history[start..round_idx] {
                        items.extend(col[d].iter().cloned());
                    }
                    if !items.is_empty() {
                        replay_to[new_owner] += items.len() as u64 * S::ITEM_WIRE_BYTES;
                        match sink.absorb(&mut sinks[new_owner], items) {
                            Ok(t) => replay_kernels += t,
                            Err(e) => return Err(oom_error(sink, &sinks, new_owner, e)),
                        }
                    }
                    range_owner[d] = new_owner;
                    range_from[d] = start;
                    // The new owner's checkpoint predates the replayed
                    // content — using it after a later death would lose
                    // the replay. Re-validated at the next tick.
                    snaps[new_owner] = None;
                }
                sinks[r] = reopen(sink, &sinks, r, expected[r])?;
            }
            // Charge the replay traffic: survivors re-parse the dead
            // rank's deterministic input slice, so the bytes enter the
            // fabric spread across the live sources and land on each
            // range's new owner — priced by the same Alltoallv model as
            // the real exchange, charged as recovery time.
            let replay_bytes: u64 = replay_to.iter().sum();
            if replay_bytes > 0 {
                let alive_srcs: Vec<usize> = (0..nranks).filter(|&r| alive[r]).collect();
                let mut matrix = vec![vec![0u64; nranks]; nranks];
                for (dst, &bytes) in replay_to.iter().enumerate() {
                    if bytes == 0 {
                        continue;
                    }
                    let share = bytes / alive_srcs.len() as u64;
                    let mut rem = bytes % alive_srcs.len() as u64;
                    for &src in &alive_srcs {
                        matrix[src][dst] = share
                            + if rem > 0 {
                                rem -= 1;
                                1
                            } else {
                                0
                            };
                    }
                }
                let net = *world.network();
                let times = net.alltoallv_times(&matrix);
                let wire = SimTime::from_secs(
                    times.iter().map(|t| t.as_secs()).sum::<f64>() / nranks as f64,
                );
                let kernels = SimTime::from_secs(replay_kernels.as_secs() / nranks as f64);
                world.advance_all("replay", wire + kernels);
                recovery_total += wire + kernels;
                replayed_bytes_total += replay_bytes;
            }
        }
        // Retain this round's per-range payload for future replay, then
        // steer each base range's column to its current owner. With the
        // identity mapping the remap is skipped and the send matrix is
        // untouched. Dead ranks keep sending (the survivors re-parse
        // their input slice) but own no range, so they receive nothing.
        let round = if recovery_active {
            let mut cols: Vec<Vec<S::Item>> = (0..nranks).map(|_| Vec::new()).collect();
            for row in &round {
                for (d, payload) in row.iter().enumerate() {
                    cols[d].extend(payload.iter().cloned());
                }
            }
            history.push(cols);
            if range_owner.iter().enumerate().any(|(d, &o)| o != d) {
                round
                    .into_iter()
                    .map(|row| {
                        let mut remapped: Vec<Vec<S::Item>> =
                            (0..nranks).map(|_| Vec::new()).collect();
                        for (d, mut payload) in row.into_iter().enumerate() {
                            remapped[range_owner[d]].append(&mut payload);
                        }
                        remapped
                    })
                    .collect()
            } else {
                round
            }
        } else {
            round
        };
        // Double-buffered overlap: while this round is on the wire, the
        // previous round's count kernel runs on each rank's stream.
        let hidden = if rc.overlap_rounds {
            prev_round_times.take()
        } else {
            None
        };
        world.fault_context(round_idx as u64, 0);
        let mut rr = stages.exchange_round(world, round, hidden.as_deref());
        wire_total += rr.wire_mean;
        charged_total += rr.charged_mean;
        let mut delivered = rr.items;
        // Bounded retry-with-backoff: re-offer only the failed/corrupt
        // buckets, with the backoff and the retry collective charged to
        // the sim clock as recovery time. Exhausting the budget is a
        // clean run failure, never a panic.
        let mut attempt: u32 = 1;
        while rr.failed_sends + rr.corrupt_buckets > 0 {
            let spec = fault_spec.expect("faults cannot fire without a plan");
            retries_total += rr.failed_sends + rr.corrupt_buckets;
            corrupt_total += rr.corrupt_buckets;
            if attempt > spec.max_retries {
                return Err(RunError::ExchangeFailed {
                    round: round_idx as u64,
                    attempts: attempt,
                });
            }
            let backoff =
                SimTime::from_secs(spec.backoff_secs * (1u64 << (attempt - 1).min(20)) as f64);
            ctx.record(|| {
                [JournalEvent::Retry {
                    round: round_idx as u64,
                    attempt,
                    failed: rr.failed_sends,
                    corrupt: rr.corrupt_buckets,
                    backoff: backoff.as_secs(),
                }]
            });
            world.advance_all("retry-backoff", backoff);
            world.fault_context(round_idx as u64, attempt);
            rr = stages.exchange_round(world, rr.undelivered, None);
            recovery_total += backoff + rr.charged_mean;
            for (dst, items) in rr.items.iter_mut().enumerate() {
                delivered[dst].append(items);
            }
            attempt += 1;
        }
        world.clear_fault_context();
        for (rank, items) in delivered.iter().enumerate() {
            received_items[rank] += items.len() as u64;
        }
        // Feed this round to the sinks (functionally now; its simulated
        // time is charged either as the next round's hidden compute or
        // in the final count step).
        let paired: Vec<(K::State, Vec<S::Item>)> = sinks.into_iter().zip(delivered).collect();
        let fed: Vec<(K::State, Result<SimTime, CounterOom>)> = paired
            .into_par_iter()
            .map(|(mut c, items)| {
                let dt = sink.absorb(&mut c, items);
                (c, dt)
            })
            .collect();
        let results: Vec<Result<SimTime, CounterOom>>;
        (sinks, results) = fed.into_iter().unzip();
        // The first failing rank names the error; every sink survives so
        // every rank's high-water mark makes it in.
        let mut times = Vec::with_capacity(nranks);
        for (rank, r) in results.into_iter().enumerate() {
            times.push(r.map_err(|e| oom_error(sink, &sinks, rank, e))?);
        }
        // Cumulative spill samples feed a dedicated trace counter lane —
        // emitted only when pressure actually spilled something, so an
        // unconstrained run's trace schema is untouched.
        ctx.record(|| {
            let mut samples = Vec::new();
            for (rank, c) in sinks.iter().enumerate() {
                let p = sink.pressure(c);
                let ts = world.now(rank).as_secs();
                let mut sample = |name: &str, value: u64| {
                    samples.push(JournalEvent::Sample {
                        name: name.to_string(),
                        rank,
                        ts,
                        value: value as f64,
                    })
                };
                if p.spilled > 0 {
                    sample("spill k-mers", p.spilled);
                }
                // The HBM lane exists only for ranks where pressure
                // actually fired — high-water marks are nonzero on every
                // run, so gating on them would change clean-run traces.
                if p.fired() {
                    sample("hbm bytes", p.high_water_bytes);
                }
            }
            samples
        });
        for (rank, t) in times.iter().enumerate() {
            count_totals[rank] += *t;
        }
        last_round_times.clone_from(&times);
        prev_round_times = Some(times);
        // Checkpoint tick: every `--checkpoint-rounds N` rounds, snapshot
        // each live sink so a later death replays only the gap since the
        // snapshot instead of the whole run.
        if recovery_active {
            if let Some(n) = rc.checkpoint_rounds {
                if (round_idx as u64 + 1).is_multiple_of(n) {
                    for (r, c) in sinks.iter().enumerate() {
                        if alive[r] {
                            snaps[r] = Some((round_idx + 1, sink.snapshot(c)));
                        }
                    }
                }
            }
        }
    }
    let (_, stage_in_step) = world.compute_step_named("stage-in", |rank| {
        ((), stages.stage_in(ctx, received_items[rank]))
    });
    // Under overlap every round but the last was hidden behind a wire;
    // only the final round's kernel remains exposed. (With one round the
    // two are identical — there was nothing to hide behind.)
    Ok(Exchanged {
        sinks,
        salvaged,
        count_exposed: if rc.overlap_rounds {
            last_round_times
        } else {
            count_totals
        },
        summary: ExchangeSummary {
            units: bucketed.units,
            alltoallv_time: wire_total,
            rounds: nrounds as u64,
            retries: retries_total,
            corrupt_buckets: corrupt_total,
            recovery_time: recovery_total,
            rank_deaths: dead_total as u64,
            replayed_bytes: replayed_bytes_total,
            ..Default::default()
        },
        exchange: stage_out_step.mean + charged_total + recovery_total + stage_in_step.mean,
    })
}

/// One-line run description for the journal's meta event: the knobs that
/// shape timing, plus every injection plan as its
/// [`dedukt_sim::Plan::label`].
pub(crate) fn run_detail(rc: &RunConfig) -> String {
    let mut parts = vec![format!("k={}", rc.counting.k)];
    if rc.gpu_direct {
        parts.push("gpu-direct".to_string());
    }
    if let Some(cap) = rc.round_limit_bytes {
        parts.push(format!("round-limit={cap}"));
    }
    if rc.overlap_rounds {
        parts.push("overlap".to_string());
    }
    if rc.exchange_algo != dedukt_net::cost::ExchangeAlgo::Direct {
        parts.push(format!("exchange-algo={}", rc.exchange_algo.label()));
    }
    if rc.wire_compress {
        parts.push("wire-compress".to_string());
    }
    if rc.balanced_minimizers {
        parts.push("balanced-minimizers".to_string());
    }
    parts.extend(rc.fault.map(|p| p.label()));
    parts.extend(rc.mem.map(|p| p.label()));
    parts.extend(rc.rank.as_ref().map(|p| p.label()));
    if let Some(n) = rc.checkpoint_rounds {
        parts.push(format!("checkpoint-rounds={n}"));
    }
    if !rc.rescale.is_empty() {
        let sched: Vec<String> = rc
            .rescale
            .iter()
            .map(|(round, world)| format!("{round}:{world}"))
            .collect();
        parts.push(format!("rescale={}", sched.join(",")));
    }
    if rc.two_pass_dir.is_some() {
        parts.push("two-pass".to_string());
        if rc.two_pass_resume {
            parts.push("resume".to_string());
        }
        if rc.min_count > 1 {
            parts.push(format!("min-count={}", rc.min_count));
        }
    }
    parts.extend(rc.io.map(|p| p.label()));
    parts.join(" ")
}

/// [`RunError::DeviceOom`] for `rank`, carrying every rank's allocation
/// high-water mark; the failing rank reports the mark it reached before
/// the refused allocation.
fn oom_error<I, K: Sink<I>>(sink: &K, sinks: &[K::State], rank: usize, e: CounterOom) -> RunError {
    let mut high_water: Vec<u64> = sinks
        .iter()
        .map(|c| sink.pressure(c).high_water_bytes)
        .collect();
    high_water[rank] = high_water[rank].max(e.high_water_bytes);
    RunError::DeviceOom {
        rank,
        detail: e.detail,
        high_water_bytes: high_water,
    }
}

/// Replaces a dead or departing rank's sink with a fresh one, converting
/// an allocation failure into the run-level OOM error.
fn reopen<I, K: Sink<I>>(
    sink: &K,
    sinks: &[K::State],
    rank: usize,
    expected: u64,
) -> Result<K::State, RunError> {
    sink.open(rank, expected)
        .map_err(|e| oom_error(sink, sinks, rank, e))
}

/// Folds salvaged tables (checkpoints of dead ranks, full tables of
/// rescale departures and restarts) back into the per-rank results,
/// merging by key so no k-mer's count is split across two tables —
/// splitting would land the key in the wrong spectrum bins even though
/// the total is right. Salvaged instances are credited to the slot that
/// earned them, keeping the per-rank load sum conserved.
fn fold_salvaged<K: TableKey>(
    rank_results: &mut [RankCountResult<K>],
    salvaged: Vec<(usize, RankCountResult<K>)>,
) {
    for (slot, held) in salvaged {
        rank_results[slot].entries.extend(held.entries);
        rank_results[slot].instances += held.instances;
    }
    // Global merge-by-key: the first table a key appears in keeps it;
    // later occurrences add their count there and vanish. Keys never
    // split across *live* tables on the replay path, so this pass only
    // reunites salvaged fragments with their live remainder.
    let mut seen: std::collections::BTreeMap<K, (usize, usize)> = std::collections::BTreeMap::new();
    for slot in 0..rank_results.len() {
        let mut i = 0;
        while i < rank_results[slot].entries.len() {
            let (key, count) = rank_results[slot].entries[i];
            match seen.get(&key) {
                Some(&(first_slot, first_idx)) => {
                    rank_results[first_slot].entries[first_idx].1 += count;
                    rank_results[slot].entries.swap_remove(i);
                }
                None => {
                    seen.insert(key, (slot, i));
                    i += 1;
                }
            }
        }
    }
}

/// Every rank's freshly opened sink, or [`RunError::DeviceOom`] naming
/// the first rank whose opening failed, with every rank's allocation
/// high-water mark (a failed rank reports the mark it reached before the
/// refused allocation).
fn opened_or_oom<I, K: Sink<I>>(
    sink: &K,
    made: Vec<Result<K::State, CounterOom>>,
) -> Result<Vec<K::State>, RunError> {
    let Some(rank) = made.iter().position(Result::is_err) else {
        return Ok(made.into_iter().flatten().collect());
    };
    let high_water_bytes = made
        .iter()
        .map(|r| match r {
            Ok(c) => sink.pressure(c).high_water_bytes,
            Err(e) => e.high_water_bytes,
        })
        .collect();
    let detail = made
        .into_iter()
        .nth(rank)
        .and_then(Result::err)
        .expect("failed rank")
        .detail;
    Err(RunError::DeviceOom {
        rank,
        detail,
        high_water_bytes,
    })
}

/// Shared exchange hook for the pipelines whose wire items are bare
/// packed k-mers (at either width): one Alltoallv per round, overlapped
/// when `hidden` is present.
pub(crate) fn exchange_items_round<I: Send + dedukt_net::fault::WireHash>(
    world: &mut BspWorld,
    round: Vec<Vec<Vec<I>>>,
    hidden: Option<&[SimTime]>,
) -> RoundRecv<I> {
    let outcome = match hidden {
        Some(h) => world.alltoallv_overlapped(round, h),
        None => world.alltoallv(round),
    };
    RoundRecv {
        items: flatten_recv(outcome.recv),
        undelivered: outcome.undelivered,
        failed_sends: outcome.failed_sends,
        corrupt_buckets: outcome.corrupt_buckets,
        wire_mean: outcome.wire.mean,
        charged_mean: outcome.times.mean,
    }
}

/// Concatenates `recv[dst][src]` payloads into one list per destination,
/// preserving source-rank order.
pub(crate) fn flatten_recv<I>(recv: Vec<Vec<Vec<I>>>) -> Vec<Vec<I>> {
    recv.into_iter()
        .map(|per_src| per_src.into_iter().flatten().collect())
        .collect()
}
