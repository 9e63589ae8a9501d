//! The staged superstep driver shared by all three counters, in memory
//! and out of core.
//!
//! Every pipeline in the paper has the same skeleton: a bucketing compute
//! phase, an `MPI_Alltoallv` (optionally split into memory-bounded rounds,
//! §III-A), and a counting phase. The driver owns that skeleton once —
//! world setup, the balanced-minimizer pre-pass, round slicing, the round
//! loop with optional compute/exchange overlap, phase accounting, and
//! report assembly — while a [`CounterStages`] implementation supplies the
//! counter-specific hooks (what to bucket, how items move on the wire)
//! and opens each rank's counter ([`CounterStages::make_counter`]). A
//! counter is its own [`Sink`]: it absorbs what arrives and finishes
//! into the rank's counts ([`Counter`]). Under `--two-pass` the same
//! rounds feed each rank's spool ([`two_pass::Spool`]) instead, and the
//! spooled bins are counted afterwards, each rank its own, rank-parallel,
//! by the same counters ([`two_pass`]).
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
//! instead of their sum ([`BspWorld::charge`] hides the count behind the
//! wire), and only the final round's count remains exposed as the count
//! phase. Payloads, counts, and volumes are unaffected — overlap changes
//! *when* simulated work happens, never *what* is computed.
//!
//! ## Route, count, fold
//!
//! The rounds run in three passes, so each rank counts its whole round
//! list back to back instead of every round visiting every rank's table
//! in turn:
//!
//! 1. **Route** ([`route_rounds`], serial, no simulated time, no sink
//!    state). Walk the rounds in order: rescales, drawn deaths,
//!    checkpoints and fault fates (pure in `(plan, round, attempt, src,
//!    dst)`, [`BspWorld::route`]). Each delivery moves, uncopied, into
//!    its sink slot's op list; each collective's wire bytes
//!    ([`CounterStages::traffic`]) and every other charge becomes a
//!    serial step. A slot's ops are the calls made on its sink, in round
//!    order: absorb (a death's replays first, then the round's delivery,
//!    retried buckets after first-attempt ones) and reopen; snapshots
//!    are marks between ops. Routing stops at lost ranks or an exhausted
//!    retry budget.
//! 2. **Count** ([`run_slot`], rank-parallel over slots). Each slot runs
//!    its ops in order, records every op's kernel time or error and its
//!    memory pressure, takes the snapshots recovery salvages, and stops
//!    at its first out-of-memory failure.
//! 3. **Fold** ([`fold_rounds`], serial). Walk the steps in round order:
//!    charge each collective ([`BspWorld::charge`]) with the previous
//!    round's recorded count times as the hidden compute, charge backoffs
//!    and replays, journal each event at its place in round order, and
//!    return the first error in round order — an out-of-memory error
//!    carries every rank's high-water mark as of that point.
//!
//! The invariant that makes this exact: **an absorb depends only on its
//! own slot's earlier ops.** Both sinks keep it — a counter's table, a
//! spool's bins — so each slot reaches the states counting round by
//! round would, and the report is the same byte for byte.

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
use dedukt_net::bsp::Traffic;
use dedukt_net::cost::Network;
use dedukt_net::fault::dies_at;
use dedukt_net::{BspWorld, WireHash};
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
#[derive(Clone, Copy, Debug, Default, PartialEq)]
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
    /// [`Record`] because `--two-pass` spools it to disk; [`WireHash`]
    /// because the receiver verifies each bucket's checksum frame.
    type Item: Send + Sync + Clone + Record + WireHash;
    /// Per-rank counting state threaded through the rounds.
    type Counter: Counter<Self::Key, Self::Item>;

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

    /// The wire traffic of `round[src][dst]` buckets: one [`Traffic`] per
    /// collective the round issues, in issue order. The previous round's
    /// count kernels, when overlapped, hide behind the first. The driver
    /// moves the items itself; this only says what the wire carries. The
    /// default is one collective of [`CounterStages::ITEM_WIRE_BYTES`]
    /// records.
    fn traffic(&self, round: &[Vec<Vec<Self::Item>>]) -> Vec<Traffic> {
        vec![Traffic::flat(round, Self::ITEM_WIRE_BYTES)]
    }

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
}

/// One rank's state that delivered items go into: its counter when
/// counting in memory ([`Counter`]), or its per-bin spool in pass 1 of
/// `--two-pass` ([`two_pass::Spool`]). The exchange rounds — retries,
/// rank death, rescale, checkpoints — only ever open, feed, measure and
/// snapshot sinks, so they run unchanged on either. Each call depends
/// only on the sink it is made on, so every rank's sink runs its rounds
/// back to back, rank-parallel, and reaches the states a round-order walk
/// would.
pub(crate) trait Sink<I>: Send {
    /// A snapshot: what a checkpoint holds, and what a dead or departing
    /// rank leaves to be merged at assembly.
    type Held: Send;
    /// Feeds one delivery — `buckets` in arrival order, taken as their
    /// concatenation; returns the simulated kernel time (charged either
    /// as hidden compute or in the count phase). Errs only when the rank
    /// exhausted both the device budget and its host spill budget.
    fn absorb(&mut self, buckets: Vec<Vec<I>>) -> Result<SimTime, CounterOom>;
    /// Memory-pressure telemetry so far; all zero for a sink with no
    /// device budget (a spool, the CPU pipeline's host table).
    fn pressure(&self) -> PressureStats {
        PressureStats::default()
    }
    /// Non-consuming snapshot of everything absorbed so far.
    fn snapshot(&self) -> Self::Held;
}

/// A rank's counting state. Its snapshot holds the `(kmer, count)`
/// entries and counted instances so far — the checkpoint and rescale
/// salvage (DESIGN.md §11) — and equals what [`Counter::finish`] would
/// report at that point, spill lists included.
pub(crate) trait Counter<K: TableKey, I>: Sink<I, Held = RankCountResult<K>> {
    /// Drains the counter into rank `rank`'s result (and records its
    /// counting telemetry).
    fn finish(self, ctx: &DriverCtx, rank: usize) -> RankCountResult<K>;
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
pub(crate) struct Exchanged<K, H> {
    /// Every rank's sink after the last round.
    pub sinks: Vec<K>,
    /// `(slot, snapshot)` pairs salvaged from dead and departing ranks.
    pub salvaged: Vec<(usize, H)>,
    /// Per-rank absorb time left exposed to the count phase.
    pub count_exposed: Vec<SimTime>,
    /// Exchange accounting; the byte and fault fields are filled at
    /// assembly.
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
    /// Host seconds of the path's exchange rounds.
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
    // Every fault fate is drawn by `BspWorld::route`, so the world's
    // tallies are the exchange's.
    let stats = world.stats();
    let exchange = ExchangeSummary {
        bytes: stats.total_bytes,
        off_node_bytes: stats.off_node_bytes,
        intra_node_bytes: stats.intra_node_bytes,
        intra_tier_bytes: stats.intra_tier_bytes,
        coalesced_messages: stats.coalesced_messages,
        retry_bytes: stats.retry_bytes,
        retries: stats.failed_sends + stats.corrupt_buckets,
        corrupt_buckets: stats.corrupt_buckets,
        ..counted.summary
    };
    ctx.record(|| {
        let mut events = Vec::new();
        // Fault-recovery series exist only when recovery happened, so a
        // zero-fault plan leaves the metrics schema untouched.
        if exchange.rank_deaths > 0 {
            events.push(JournalEvent::metric(
                "exchange_replay_bytes_total",
                None,
                MetricOp::CounterAdd(exchange.replayed_bytes),
            ));
        }
        if exchange.retries > 0 || exchange.rank_deaths > 0 {
            events.push(JournalEvent::metric(
                "recovery_seconds_total",
                None,
                MetricOp::GaugeAdd(exchange.recovery_time.as_secs()),
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
    let (load, total, distinct, spectrum, tables) =
        assemble_counts(counted.results, rc.collect_spectrum, rc.collect_tables);
    Ok(RunReport {
        mode: rc.mode,
        nodes: rc.nodes,
        nranks,
        phases,
        makespan,
        exchange,
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
/// destination and tallies the k-mer inserts each destination will get
/// from it; the rows sum to the expected per-destination load.
fn bucket_phase<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
) -> Bucketed<S::Item> {
    let nranks = ctx.nranks;
    let (bucket_out, bucket_step) = world.compute_step_named(S::BUCKET_PHASE, |rank| {
        let (b, events) = ctx.rank_local(|ctx| stages.bucket(ctx, rank));
        let inserts: Vec<u64> = b
            .buckets
            .iter()
            .map(|payload| payload.iter().map(|i| stages.item_instances(ctx, i)).sum())
            .collect();
        ((b.buckets, b.stage_out, inserts, events), b.compute)
    });
    let mut buckets = Vec::with_capacity(nranks);
    let mut stage_out = Vec::with_capacity(nranks);
    // Expected inserts per destination, over ALL rounds — count tables
    // are sized for the full load up front, so slicing the exchange into
    // rounds cannot change probe sequences or results.
    let mut expected = vec![0u64; nranks];
    for (b, t, inserts, events) in bucket_out {
        for (dst, n) in inserts.into_iter().enumerate() {
            expected[dst] += n;
        }
        buckets.push(b);
        stage_out.push(t);
        ctx.record(|| events);
    }
    let units: u64 = buckets
        .iter()
        .flat_map(|row| row.iter().map(|v| v.len() as u64))
        .sum();
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
    let ex = exchange_rounds(stages, ctx, world, bucketed, |rank, expected| {
        stages.make_counter(ctx, rank, expected)
    })?;
    let wall_rounds = rounds_start.elapsed().as_secs_f64();

    // ── Count phase drain ──────────────────────────────────────────────
    let (_, count_step) = world.compute_step_named("count", |rank| ((), ex.count_exposed[rank]));
    journal_pressure(ctx, ex.sinks.iter().map(|c| c.pressure()).enumerate());
    let indexed: Vec<(usize, S::Counter)> = ex.sinks.into_iter().enumerate().collect();
    let finished: Vec<(RankCountResult<S::Key>, Vec<JournalEvent>)> = indexed
        .into_par_iter()
        .map(|(rank, c)| ctx.rank_local(|ctx| c.finish(ctx, rank)))
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
///
/// `open(rank, expected)` makes a fresh sink for `rank`, which expects
/// `expected` k-mer inserts: every rank's first, and each restart
/// ([`Op::Reopen`]).
///
/// Three passes ([module docs](self)): [`route_rounds`] walks the rounds
/// and leaves each sink slot its list of ops; every slot runs its list
/// back to back, rank-parallel ([`run_slot`]); [`fold_rounds`] then
/// charges the clock, journals and picks the first error in round order.
pub(crate) fn exchange_rounds<S: CounterStages, K: Sink<S::Item>>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
    bucketed: Bucketed<S::Item>,
    open: impl Fn(usize, u64) -> Result<K, CounterOom> + Sync,
) -> Result<Exchanged<K, K::Held>, RunError> {
    let rc = ctx.rc;
    let nranks = ctx.nranks;
    let expected = bucketed.expected;
    let (_, stage_out_step) =
        world.compute_step_named("stage-out", |rank| ((), bucketed.stage_out[rank]));
    let rounds = split_rounds_weighted(bucketed.buckets, rc.round_limit_bytes, S::ITEM_WIRE_BYTES);
    let nrounds = rounds.len();
    let made: Vec<Result<K, CounterOom>> = (0..nranks)
        .into_par_iter()
        .map(|rank| open(rank, expected[rank]))
        .collect();
    let opened: Vec<u64> = made
        .iter()
        .map(|r| match r {
            Ok(sink) => sink.pressure().high_water_bytes,
            Err(e) => e.high_water_bytes,
        })
        .collect();
    let mut states = Vec::with_capacity(nranks);
    for (rank, made) in made.into_iter().enumerate() {
        states.push(made.map_err(|e| oom_error(&opened, rank, e))?);
    }

    let schedule = route_rounds(stages, ctx, world, rounds);
    let salvage = &schedule.salvage;
    let slots: Vec<_> = states.into_iter().zip(schedule.ops).enumerate().collect();
    let ran: Vec<SlotRun<K, K::Held>> = slots
        .into_par_iter()
        .map(|(slot, (sink, ops))| run_slot(&open, slot, expected[slot], sink, ops, salvage))
        .collect();
    let (ran, done): (Vec<_>, Vec<Vec<Done>>) =
        ran.into_iter().map(|r| ((r.sink, r.held), r.done)).unzip();
    let folded = fold_rounds(ctx, world, schedule.steps, done, opened)?;

    let mut sinks = Vec::with_capacity(nranks);
    let mut salvaged = Vec::with_capacity(schedule.salvage.len());
    for (slot, (sink, held)) in ran.into_iter().enumerate() {
        sinks.push(sink);
        salvaged.extend(held.into_iter().map(|(index, held)| (index, slot, held)));
    }
    // A run that succeeds ran every op, so it took every snapshot.
    debug_assert_eq!(salvaged.len(), schedule.salvage.len());
    salvaged.sort_by_key(|&(index, ..)| index);
    let received_items = schedule.received_items;
    let (_, stage_in_step) = world.compute_step_named("stage-in", |rank| {
        ((), stages.stage_in(ctx, received_items[rank]))
    });
    Ok(Exchanged {
        sinks,
        salvaged: salvaged
            .into_iter()
            .map(|(_, slot, held)| (slot, held))
            .collect(),
        count_exposed: folded.count_exposed,
        summary: ExchangeSummary {
            units: bucketed.units,
            alltoallv_time: folded.wire,
            rounds: nrounds as u64,
            recovery_time: folded.recovery,
            rank_deaths: schedule.deaths,
            replayed_bytes: schedule.replayed_bytes,
            ..Default::default()
        },
        exchange: stage_out_step.mean + folded.charged + folded.recovery + stage_in_step.mean,
    })
}

/// One op of a sink slot's list: what the rounds do to that rank's sink,
/// in round order.
enum Op<I> {
    /// Feed a delivery: a round's buckets in arrival order, or a dead
    /// range's replayed history.
    Absorb(Vec<Vec<I>>),
    /// Restart the sink empty: a dead or departing rank, or a range's
    /// interim holder when the range's owner rejoins.
    Reopen,
}

/// What one op left: its kernel time (zero for a reopen) or the error
/// that stopped its slot, and the slot's memory pressure after it.
struct Done {
    result: Result<SimTime, CounterOom>,
    pressure: PressureStats,
}

/// One serial step of the rounds, in round order: what [`fold_rounds`]
/// charges, journals or checks.
enum Step {
    /// Journal an event (a rescale, a death, a retry).
    Event(JournalEvent),
    /// The next op of a slot: a reopen or a replayed absorb. Its failure
    /// ends the run here; a replay's kernel time joins the next
    /// [`Step::Replay`].
    Op(usize),
    /// Charge a round boundary's replay traffic, `[src][dst]` bytes.
    Replay(Vec<Vec<u64>>),
    /// Charge a round's first delivery attempt.
    Exchange(Vec<Traffic>),
    /// Charge a retry: its backoff, then its collectives.
    Retry(SimTime, Vec<Traffic>),
    /// Count the round's deliveries: the next op of every slot.
    Deliver,
    /// The route stopped: ranks were lost or a retry budget ran out.
    Fail(RunError),
}

/// The exchange rounds, routed.
struct Schedule<I> {
    /// Every slot's ops, in order.
    ops: Vec<Vec<Op<I>>>,
    /// `(slot, ops before it)` of each snapshot recovery salvages, in
    /// salvage order.
    salvage: Vec<(usize, usize)>,
    /// The serial steps, in round order.
    steps: Vec<Step>,
    /// Items each rank received over all rounds.
    received_items: Vec<u64>,
    /// Ranks that died.
    deaths: u64,
    /// Bytes replayed into the survivors of dead ranks.
    replayed_bytes: u64,
}

/// Walks the rounds in order — rescales, drawn deaths, checkpoints,
/// fault fates and retries — without touching a sink or the clock: each
/// delivery moves into its slot's op list, and each charge becomes a
/// [`Step`]. Fates are pure in `(plan, round, attempt, src, dst)`, so
/// routing ahead of the charges changes nothing.
/// Stops at the first lost-ranks or exhausted-retries failure.
fn route_rounds<S: CounterStages>(
    stages: &S,
    ctx: &DriverCtx,
    world: &mut BspWorld,
    rounds: Vec<Vec<Vec<Vec<S::Item>>>>,
) -> Schedule<S::Item> {
    let rc = ctx.rc;
    let nranks = ctx.nranks;
    let mut sched = Schedule {
        ops: (0..nranks).map(|_| Vec::new()).collect(),
        salvage: Vec::new(),
        steps: Vec::new(),
        received_items: vec![0; nranks],
        deaths: 0,
        replayed_bytes: 0,
    };
    let fault_spec = rc.fault.map(|p| *p.spec());
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
    // sink holds; everything earlier sits in a salvaged snapshot or was
    // replayed into it. The invariant the whole recovery path keeps:
    // sink(range_owner[d]) holds range-`d` rounds [range_from[d]..now)
    // and nothing else of range `d`.
    let mut range_from = vec![0usize; nranks];
    // `history[round][d]`: range-`d` payload of `round` in source-rank
    // order — exactly what the owner received, and the replay source
    // when an owner dies. Retained only while a plan is active.
    let mut history: Vec<Vec<Vec<S::Item>>> = Vec::new();
    // Per-rank checkpoint: (rounds covered, ops before its snapshot).
    let mut snaps: Vec<Option<(usize, usize)>> = vec![None; nranks];
    let mut rescale_sched = rc.rescale.iter().copied().peekable();
    for (round_idx, round) in rounds.into_iter().enumerate() {
        let round_no = round_idx as u64;
        // ── Round boundary: graceful rescale, then drawn deaths ────────
        while let Some((_, target)) = rescale_sched.next_if(|&(ro, _)| ro == round_no) {
            let from = alive.iter().filter(|&&a| a).count();
            sched.steps.push(Step::Event(JournalEvent::Rescale {
                round: round_no,
                from,
                to: target,
            }));
            // Shrink: ranks at index >= target depart gracefully. Their
            // whole sink is salvaged (merged at assembly) and their
            // ranges pass to survivors for future rounds only — a
            // departure needs no replay, unlike a death.
            for r in target..nranks {
                if !alive[r] {
                    continue;
                }
                sched.salvage.push((r, sched.ops[r].len()));
                snaps[r] = None;
                alive[r] = false;
                sched.ops[r].push(Op::Reopen);
                sched.steps.push(Step::Op(r));
            }
            if !alive.iter().any(|&a| a) {
                sched.steps.push(Step::Fail(RunError::RanksLost {
                    dead: nranks,
                    round: round_no,
                }));
                return sched;
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
                    sched.salvage.push((holder, sched.ops[holder].len()));
                    snaps[holder] = None;
                    sched.ops[holder].push(Op::Reopen);
                    sched.steps.push(Step::Op(holder));
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
            for r in 0..nranks {
                if !alive[r] || !dies_at(plan, round_no, r) {
                    continue;
                }
                alive[r] = false;
                sched.deaths += 1;
                sched.steps.push(Step::Event(JournalEvent::RankDead {
                    rank: r,
                    round: round_no,
                }));
                if sched.deaths as usize > plan.spec().max_dead || !alive.iter().any(|&a| a) {
                    sched.steps.push(Step::Fail(RunError::RanksLost {
                        dead: sched.deaths as usize,
                        round: round_no,
                    }));
                    return sched;
                }
                let ckpt = snaps[r].take();
                let floor = ckpt.map_or(0, |(covered, _)| covered);
                if let Some((_, at)) = ckpt {
                    sched.salvage.push((r, at));
                }
                for d in 0..nranks {
                    if range_owner[d] != r {
                        continue;
                    }
                    let new_owner = surviving_owner(rank_seed, d, &alive);
                    let start = range_from[d].max(floor);
                    let replay: Vec<Vec<S::Item>> = history[start..round_idx]
                        .iter()
                        .filter(|col| !col[d].is_empty())
                        .map(|col| col[d].clone())
                        .collect();
                    let items: u64 = replay.iter().map(|b| b.len() as u64).sum();
                    if items > 0 {
                        replay_to[new_owner] += items * S::ITEM_WIRE_BYTES;
                        sched.ops[new_owner].push(Op::Absorb(replay));
                        sched.steps.push(Step::Op(new_owner));
                    }
                    range_owner[d] = new_owner;
                    range_from[d] = start;
                    // The new owner's checkpoint predates the replayed
                    // content — using it after a later death would lose
                    // the replay. Re-validated at the next tick.
                    snaps[new_owner] = None;
                }
                sched.ops[r].push(Op::Reopen);
                sched.steps.push(Step::Op(r));
            }
            // The replay traffic: survivors re-parse the dead rank's
            // deterministic input slice, so the bytes enter the fabric
            // spread across the live sources and land on each range's new
            // owner.
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
                sched.steps.push(Step::Replay(matrix));
                sched.replayed_bytes += replay_bytes;
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
        sched.steps.push(Step::Exchange(stages.traffic(&round)));
        let mut routed = world.route(round_no, 0, round);
        let mut delivered = std::mem::take(&mut routed.recv);
        // Bounded retry-with-backoff: re-offer only the failed/corrupt
        // buckets, with the backoff and the retry collective charged to
        // the sim clock as recovery time. Exhausting the budget is a
        // clean run failure, never a panic.
        let mut attempt: u32 = 1;
        while routed.failed_sends + routed.corrupt_buckets > 0 {
            let spec = fault_spec.expect("faults cannot fire without a plan");
            if attempt > spec.max_retries {
                sched.steps.push(Step::Fail(RunError::ExchangeFailed {
                    round: round_no,
                    attempts: attempt,
                }));
                return sched;
            }
            let backoff =
                SimTime::from_secs(spec.backoff_secs * (1u64 << (attempt - 1).min(20)) as f64);
            sched.steps.push(Step::Event(JournalEvent::Retry {
                round: round_no,
                attempt,
                failed: routed.failed_sends,
                corrupt: routed.corrupt_buckets,
                backoff: backoff.as_secs(),
            }));
            let resend = std::mem::take(&mut routed.undelivered);
            sched
                .steps
                .push(Step::Retry(backoff, stages.traffic(&resend)));
            routed = world.route(round_no, attempt, resend);
            for (dst, buckets) in routed.recv.drain(..).enumerate() {
                delivered[dst].extend(buckets);
            }
            attempt += 1;
        }
        for (slot, buckets) in delivered.into_iter().enumerate() {
            sched.received_items[slot] += buckets.iter().map(|b| b.len() as u64).sum::<u64>();
            sched.ops[slot].push(Op::Absorb(buckets));
        }
        sched.steps.push(Step::Deliver);
        // Checkpoint tick: every `--checkpoint-rounds N` rounds, mark
        // each live sink's state so a later death replays only the gap
        // since the snapshot instead of the whole run. Only the marks a
        // death salvages are ever taken.
        if recovery_active {
            if let Some(n) = rc.checkpoint_rounds {
                if (round_no + 1).is_multiple_of(n) {
                    for r in (0..nranks).filter(|&r| alive[r]) {
                        snaps[r] = Some((round_idx + 1, sched.ops[r].len()));
                    }
                }
            }
        }
    }
    sched
}

/// What one slot's run left: its final sink, each op's outcome, and the
/// snapshots recovery salvages from it, by salvage index.
struct SlotRun<K, H> {
    sink: K,
    done: Vec<Done>,
    held: Vec<(usize, H)>,
}

/// Runs one slot's ops back to back on `sink`, stopping at its first
/// failure, and takes the slot's snapshots in `salvage` (see
/// [`Schedule::salvage`]); a reopen replaces the sink with
/// `open(slot, expected)`. Every absorb depends only on its own slot's
/// earlier ops, so slots run in parallel and each sees exactly the states
/// a round-order walk would.
fn run_slot<I, K: Sink<I>>(
    open: &impl Fn(usize, u64) -> Result<K, CounterOom>,
    slot: usize,
    expected: u64,
    mut sink: K,
    ops: Vec<Op<I>>,
    salvage: &[(usize, usize)],
) -> SlotRun<K, K::Held> {
    // `(ops before, salvage index)` of this slot's snapshots.
    let mut wanted: Vec<(usize, usize)> = salvage
        .iter()
        .enumerate()
        .filter(|&(_, &(s, _))| s == slot)
        .map(|(index, &(_, at))| (at, index))
        .collect();
    wanted.sort_by_key(|&(at, _)| at);
    let mut wanted = wanted.into_iter().peekable();
    let mut done = Vec::with_capacity(ops.len());
    let mut held = Vec::new();
    for (at, op) in ops.into_iter().enumerate() {
        while let Some((_, index)) = wanted.next_if(|&(w, _)| w == at) {
            held.push((index, sink.snapshot()));
        }
        let result = match op {
            Op::Absorb(buckets) => sink.absorb(buckets),
            Op::Reopen => open(slot, expected).map(|fresh| {
                sink = fresh;
                SimTime::ZERO
            }),
        };
        let failed = result.is_err();
        done.push(Done {
            result,
            pressure: sink.pressure(),
        });
        if failed {
            return SlotRun { sink, done, held };
        }
    }
    for (_, index) in wanted {
        held.push((index, sink.snapshot()));
    }
    SlotRun { sink, done, held }
}

/// What the fold charged.
struct Folded {
    /// Per-rank absorb time left exposed to the count phase.
    count_exposed: Vec<SimTime>,
    /// Pure first-attempt wire time.
    wire: SimTime,
    /// Charged first-attempt time (wire, or overlap's max).
    charged: SimTime,
    /// Retries, backoffs and replays.
    recovery: SimTime,
}

/// Replays the schedule's steps in round order against the recorded op
/// outcomes: charges every collective, backoff and replay to the clock,
/// journals each event at its place in round order, and returns the
/// first error in round order. `high_water` starts as every freshly
/// opened sink's allocation high-water mark.
fn fold_rounds(
    ctx: &DriverCtx,
    world: &mut BspWorld,
    steps: Vec<Step>,
    done: Vec<Vec<Done>>,
    mut high_water: Vec<u64>,
) -> Result<Folded, RunError> {
    let nranks = ctx.nranks;
    // Each slot's outcomes, consumed in route order. A slot's list ends at
    // its first failure, which the fold meets before any later op.
    let mut done: Vec<_> = done.into_iter().map(Vec::into_iter).collect();
    let mut next = |slot: usize| done[slot].next().expect("op outcome");
    let overlap = ctx.rc.overlap_rounds;
    let mut count_totals = vec![SimTime::ZERO; nranks];
    let mut last_round_times: Option<Vec<SimTime>> = None;
    let mut replay_kernels = SimTime::ZERO;
    // Fault-recovery time, all zero on a perfect fabric: retry attempts,
    // their backoffs and replays, keeping `wire`/`charged` pure
    // first-attempt time.
    let mut folded = Folded {
        count_exposed: Vec::new(),
        wire: SimTime::ZERO,
        charged: SimTime::ZERO,
        recovery: SimTime::ZERO,
    };
    for step in steps {
        match step {
            Step::Event(event) => ctx.record(|| [event]),
            Step::Op(slot) => {
                let d = next(slot);
                high_water[slot] = d.pressure.high_water_bytes;
                match d.result {
                    Ok(t) => replay_kernels += t,
                    Err(e) => return Err(oom_error(&high_water, slot, e)),
                }
            }
            Step::Replay(matrix) => {
                // Priced by the same Alltoallv model as the real
                // exchange, charged as recovery time.
                let times = world.network().alltoallv_times(&matrix);
                let wire = SimTime::from_secs(
                    times.iter().map(|t| t.as_secs()).sum::<f64>() / nranks as f64,
                );
                let kernels = SimTime::from_secs(replay_kernels.as_secs() / nranks as f64);
                world.advance_all("replay", wire + kernels);
                folded.recovery += wire + kernels;
                replay_kernels = SimTime::ZERO;
            }
            Step::Exchange(traffic) => {
                // Double-buffered overlap: while this round is on the
                // wire, the previous round's count kernel runs on each
                // rank's stream.
                let hidden = last_round_times.as_deref().filter(|_| overlap);
                let (wire, charged) = charge_round(world, &traffic, hidden, false);
                folded.wire += wire;
                folded.charged += charged;
            }
            Step::Retry(backoff, traffic) => {
                world.advance_all("retry-backoff", backoff);
                let (_, charged) = charge_round(world, &traffic, None, true);
                folded.recovery += backoff + charged;
            }
            Step::Deliver => {
                // The first failing rank names the error; every rank's
                // high-water mark after this round makes it in.
                let (results, pressure): (Vec<_>, Vec<PressureStats>) = (0..nranks)
                    .map(|slot| {
                        let d = next(slot);
                        (d.result, d.pressure)
                    })
                    .unzip();
                for (slot, p) in pressure.iter().enumerate() {
                    high_water[slot] = p.high_water_bytes;
                }
                let mut times = Vec::with_capacity(nranks);
                for (slot, result) in results.into_iter().enumerate() {
                    times.push(result.map_err(|e| oom_error(&high_water, slot, e))?);
                }
                // Cumulative spill samples feed a dedicated trace counter
                // lane — emitted only when pressure actually spilled
                // something, so an unconstrained run's trace schema is
                // untouched.
                ctx.record(|| {
                    let mut samples = Vec::new();
                    for (rank, &p) in pressure.iter().enumerate() {
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
                        // The HBM lane exists only for ranks where
                        // pressure actually fired — high-water marks are
                        // nonzero on every run, so gating on them would
                        // change clean-run traces.
                        if p.fired() {
                            sample("hbm bytes", p.high_water_bytes);
                        }
                    }
                    samples
                });
                for (rank, t) in times.iter().enumerate() {
                    count_totals[rank] += *t;
                }
                last_round_times = Some(times);
            }
            Step::Fail(e) => return Err(e),
        }
    }
    // Under overlap every round but the last was hidden behind a wire;
    // only the final round's kernel remains exposed. (With one round the
    // two are identical — there was nothing to hide behind.)
    folded.count_exposed = match last_round_times {
        Some(last) if overlap => last,
        _ => count_totals,
    };
    Ok(folded)
}

/// Charges one delivery attempt's collectives in issue order, `hidden`
/// overlapping the first; returns the summed mean wire and charged times.
fn charge_round(
    world: &mut BspWorld,
    traffic: &[Traffic],
    hidden: Option<&[SimTime]>,
    retry: bool,
) -> (SimTime, SimTime) {
    let (mut wire, mut charged) = (SimTime::ZERO, SimTime::ZERO);
    for (i, t) in traffic.iter().enumerate() {
        let c = world.charge(t, hidden.filter(|_| i == 0), retry);
        wire += c.wire.mean;
        charged += c.times.mean;
    }
    (wire, charged)
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
/// high-water mark; the failing rank reports the higher of its mark and
/// the one it reached before the refused allocation.
fn oom_error(high_water: &[u64], rank: usize, e: CounterOom) -> RunError {
    let mut high_water_bytes = high_water.to_vec();
    high_water_bytes[rank] = high_water_bytes[rank].max(e.high_water_bytes);
    RunError::DeviceOom {
        rank,
        detail: e.detail,
        high_water_bytes,
    }
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
