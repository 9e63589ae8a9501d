//! Offline analysis of a run journal: phase reconciliation, critical
//! path, imbalance, recovery cost, and run-to-run diffing.
//!
//! `dedukt analyze` feeds a parsed JSONL journal ([`crate::journal`])
//! into [`analyze`], which reconstructs the superstep DAG from the
//! recorded clock charges. Because *every* charge against a simulated
//! rank clock is journaled (compute spans, per-rank collective charges,
//! retry backoff), two invariants hold by construction and are re-checked
//! here on every run:
//!
//! 1. `critical path ≤ makespan` — the path is a chain of disjoint
//!    intervals inside `[0, makespan]`;
//! 2. `makespan ≤ total rank-seconds` — each clock's final time is the
//!    sum of its own charges, which the journal covers completely.
//!
//! The critical path is found by walking backwards from the last-ending
//! interval: a compute span starts exactly when its rank's previous
//! charge ended, while a synchronizing collective starts exactly when the
//! *last-arriving* rank's previous charge ended (BSP semantics), so the
//! blocking predecessor is always identifiable from timestamps alone.

use crate::journal::JournalEvent;
use crate::metrics::Histogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One clock-charge interval reconstructed from the journal.
#[derive(Clone, Debug, PartialEq)]
pub struct Interval {
    /// Rank whose clock was charged.
    pub rank: usize,
    /// Step or collective label.
    pub label: String,
    /// Interval start, simulated seconds.
    pub start: f64,
    /// Interval end, simulated seconds.
    pub end: f64,
    /// True for synchronizing collectives (start = global clock max).
    pub sync: bool,
}

impl Interval {
    /// Interval duration, seconds.
    pub fn duration(&self) -> f64 {
        (self.end - self.start).max(0.0)
    }
}

/// Per-collective (exchange superstep) aggregation across ranks.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CollectiveRound {
    /// Collective superstep index.
    pub step: u64,
    /// Total logical payload bytes received across ranks (injection-tier
    /// events only — intra-node relay events re-count the same payload).
    pub bytes: u64,
    /// Physical bytes on the injection tier (equals `bytes` unless the
    /// wire codec shrank the payload).
    pub comp_bytes: u64,
    /// Sum of per-rank intra-node tier seconds (0 under direct routing).
    pub intra_secs: f64,
    /// Sum of per-rank injection-tier wire seconds.
    pub inject_secs: f64,
    /// Mean per-rank wire seconds (both tiers).
    pub wire_mean: f64,
    /// Slowest rank's wire seconds.
    pub wire_max: f64,
    /// Rank with the largest wire time (the round's straggler).
    pub straggler: usize,
    /// Mean per-rank charged seconds (`max(wire, hidden)`).
    pub charged_mean: f64,
    /// Sum of per-rank overlapped compute hidden behind the wire.
    pub hidden_sum: f64,
    /// Sum of per-rank exposed wire time (`charged − hidden`, floored
    /// at 0).
    pub exposed_sum: f64,
}

impl CollectiveRound {
    /// Wire-time imbalance for the round: `max / mean` (1.0 when the
    /// round is uniform or empty).
    pub fn imbalance(&self) -> f64 {
        if self.wire_mean > 0.0 {
            self.wire_max / self.wire_mean
        } else {
            1.0
        }
    }
}

/// One segment of the critical path (an interval the makespan waited on).
#[derive(Clone, Debug, PartialEq)]
pub struct CritSegment {
    /// Rank the segment ran on.
    pub rank: usize,
    /// Step or collective label.
    pub label: String,
    /// Segment start, seconds.
    pub start: f64,
    /// Segment duration, seconds.
    pub duration: f64,
}

/// Everything [`analyze`] derives from one journal.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunAnalysis {
    /// Pipeline mode from the `meta` event (empty if absent).
    pub mode: String,
    /// Simulated node count.
    pub nodes: usize,
    /// Simulated rank count.
    pub nranks: usize,
    /// Free-form configuration detail from the `meta` event.
    pub detail: String,
    /// Driver phase summaries `(phase, seconds)` in journal order —
    /// exactly the accumulators behind the run report and metrics.
    pub phases: Vec<(String, f64)>,
    /// Simulated makespan (from the `run` trailer, else max interval
    /// end).
    pub makespan: f64,
    /// Sum of every journaled clock charge (rank-seconds).
    pub total_rank_seconds: f64,
    /// Mean rank-seconds per step label, in first-seen order.
    pub step_means: Vec<(String, f64)>,
    /// Per-rank busy seconds (sum of that rank's charges).
    pub busy_per_rank: Vec<f64>,
    /// Per-collective aggregation, in step order.
    pub rounds: Vec<CollectiveRound>,
    /// The critical path, earliest segment first.
    pub critical_path: Vec<CritSegment>,
    /// Total critical-path seconds.
    pub critical_len: f64,
    /// Retry events `(round, attempt, failed, corrupt, backoff)`.
    pub retries: Vec<(u64, u32, u64, u64, f64)>,
    /// Regrow totals per rank.
    pub regrows: Vec<(usize, u64)>,
    /// Spill totals per rank.
    pub spills: Vec<(usize, u64)>,
    /// OOM events `(rank, detail)`.
    pub ooms: Vec<(usize, String)>,
    /// Rank deaths `(rank, round)` recovered from by re-partition +
    /// replay.
    pub rank_deaths: Vec<(usize, u64)>,
    /// Elastic rescales `(round, from, to)` of the active rank set.
    pub rescales: Vec<(u64, usize, usize)>,
    /// Storage-tier operations `(op, bin, bytes, secs)` from out-of-core
    /// two-pass runs, in journal order. Empty for in-memory runs.
    pub io_events: Vec<(String, u64, u64, f64)>,
    /// Wall-clock stage timings `(stage, host seconds)` in journal order.
    pub wall: Vec<(String, f64)>,
}

impl RunAnalysis {
    /// Seconds attributed to one driver phase (0.0 if absent).
    pub fn phase(&self, name: &str) -> f64 {
        self.phases
            .iter()
            .find(|(p, _)| p == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Sum of all driver phase summaries.
    pub fn phase_total(&self) -> f64 {
        self.phases.iter().map(|(_, s)| s).sum()
    }

    /// Wall seconds for one stage (0.0 if absent).
    pub fn wall_stage(&self, name: &str) -> f64 {
        self.wall
            .iter()
            .find(|(s, _)| s == name)
            .map_or(0.0, |(_, s)| *s)
    }

    /// Total retry attempts observed.
    pub fn retry_attempts(&self) -> u64 {
        self.retries.len() as u64
    }

    /// Total backoff seconds charged across retries.
    pub fn backoff_seconds(&self) -> f64 {
        // + 0.0 normalizes the -0.0 an empty f64 sum produces.
        self.retries.iter().map(|r| r.4).sum::<f64>() + 0.0
    }

    /// Total k-mers spilled to the host across ranks.
    pub fn spilled_kmers(&self) -> u64 {
        self.spills.iter().map(|s| s.1).sum()
    }

    /// Total table regrows across ranks.
    pub fn regrow_count(&self) -> u64 {
        self.regrows.iter().map(|r| r.1).sum()
    }

    /// Exchange logical payload bytes summed over collectives.
    pub fn exchange_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.bytes).sum()
    }

    /// Physical injection-tier bytes summed over collectives (differs
    /// from [`Self::exchange_bytes`] only when the wire codec was on).
    pub fn exchange_comp_bytes(&self) -> u64 {
        self.rounds.iter().map(|r| r.comp_bytes).sum()
    }

    /// Intra-node tier seconds summed over collectives and ranks.
    pub fn intra_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.intra_secs).sum()
    }

    /// Injection-tier wire seconds summed over collectives and ranks.
    pub fn inject_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.inject_secs).sum()
    }

    /// Overlap-hidden seconds summed over collectives and ranks.
    pub fn hidden_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.hidden_sum).sum()
    }

    /// Exposed (unhidden) wire seconds summed over collectives and ranks.
    pub fn exposed_seconds(&self) -> f64 {
        self.rounds.iter().map(|r| r.exposed_sum).sum()
    }

    /// Count of storage operations of one kind (`write`, `read`,
    /// `retry`, `quarantine`, `rederive`).
    pub fn io_count(&self, op: &str) -> u64 {
        self.io_events.iter().filter(|e| e.0 == op).count() as u64
    }

    /// Payload bytes moved by storage operations of one kind.
    pub fn io_bytes(&self, op: &str) -> u64 {
        self.io_events
            .iter()
            .filter(|e| e.0 == op)
            .map(|e| e.2)
            .sum()
    }

    /// Simulated seconds charged by storage operations of one kind.
    pub fn io_seconds(&self, op: &str) -> f64 {
        self.io_events
            .iter()
            .filter(|e| e.0 == op)
            .map(|e| e.3)
            .sum::<f64>()
            + 0.0
    }

    /// Total simulated disk time across every storage operation.
    pub fn storage_seconds(&self) -> f64 {
        self.io_events.iter().map(|e| e.3).sum::<f64>() + 0.0
    }

    /// Checks the two structural invariants, returning a violation
    /// message if either fails (a correct journal can never trip these).
    pub fn check_invariants(&self) -> Result<(), String> {
        // Allow for float addition noise at the very last bit.
        let slack = 1e-9 * (1.0 + self.total_rank_seconds.abs());
        if self.critical_len > self.makespan + slack {
            return Err(format!(
                "critical path {} exceeds makespan {}",
                self.critical_len, self.makespan
            ));
        }
        if self.makespan > self.total_rank_seconds + slack {
            return Err(format!(
                "makespan {} exceeds total journaled rank-seconds {}",
                self.makespan, self.total_rank_seconds
            ));
        }
        Ok(())
    }

    /// Renders the human-readable report `dedukt analyze` prints.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "dedukt analyze report");
        let _ = writeln!(w, "=====================");
        let _ = writeln!(
            w,
            "run: mode={} nodes={} nranks={}",
            if self.mode.is_empty() {
                "?"
            } else {
                &self.mode
            },
            self.nodes,
            self.nranks
        );
        if !self.detail.is_empty() {
            let _ = writeln!(w, "detail: {}", self.detail);
        }

        let _ = writeln!(w, "\nphase breakdown (simulated seconds)");
        let total = self.phase_total();
        for (phase, secs) in &self.phases {
            let pct = if total > 0.0 {
                secs / total * 100.0
            } else {
                0.0
            };
            let _ = writeln!(w, "  {phase:<10} {secs:.6}  ({pct:.1}%)");
        }
        let _ = writeln!(w, "  {:<10} {total:.6}", "total");
        let _ = writeln!(w, "  {:<10} {:.6}", "makespan", self.makespan);

        let _ = writeln!(w, "\nreconciliation (journal vs phase totals)");
        let _ = writeln!(
            w,
            "  journaled rank-seconds: {:.6} across {} ranks",
            self.total_rank_seconds, self.nranks
        );
        let _ = writeln!(w, "  step means (rank-seconds / nranks):");
        for (label, mean) in &self.step_means {
            let _ = writeln!(w, "    {label:<20} {mean:.6}");
        }
        match self.check_invariants() {
            Ok(()) => {
                let _ = writeln!(
                    w,
                    "  invariants: critical path {:.6} <= makespan {:.6} <= rank-seconds {:.6}: OK",
                    self.critical_len, self.makespan, self.total_rank_seconds
                );
            }
            Err(e) => {
                let _ = writeln!(w, "  invariants: VIOLATED — {e}");
            }
        }

        let _ = writeln!(w, "\ncritical path");
        let coverage = if self.makespan > 0.0 {
            self.critical_len / self.makespan * 100.0
        } else {
            100.0
        };
        let _ = writeln!(
            w,
            "  length: {:.6} s ({coverage:.1}% of makespan), {} segments",
            self.critical_len,
            self.critical_path.len()
        );
        // Aggregate path time by (label, rank) and show the top chains.
        let mut by_label: BTreeMap<(String, usize), f64> = BTreeMap::new();
        for seg in &self.critical_path {
            *by_label.entry((seg.label.clone(), seg.rank)).or_insert(0.0) += seg.duration;
        }
        let mut top: Vec<_> = by_label.into_iter().collect();
        top.sort_by(|a, b| b.1.total_cmp(&a.1));
        for ((label, rank), secs) in top.iter().take(8) {
            let _ = writeln!(w, "    {label:<20} rank {rank:<4} {secs:.6}");
        }

        let _ = writeln!(w, "\nexchange");
        let _ = writeln!(
            w,
            "  collectives: {}, bytes: {}",
            self.rounds.len(),
            self.exchange_bytes()
        );
        if self.exchange_comp_bytes() != self.exchange_bytes() {
            let logical = self.exchange_bytes();
            let physical = self.exchange_comp_bytes();
            let ratio = if physical > 0 {
                logical as f64 / physical as f64
            } else {
                1.0
            };
            let _ = writeln!(
                w,
                "  wire compression: {physical} physical bytes ({ratio:.2}x)"
            );
        }
        let _ = writeln!(
            w,
            "  tier seconds: intra {:.6}, inject {:.6}",
            self.intra_seconds(),
            self.inject_seconds()
        );
        let _ = writeln!(
            w,
            "  hidden seconds: {:.6}, exposed seconds: {:.6}",
            self.hidden_seconds(),
            self.exposed_seconds()
        );
        if !self.rounds.is_empty() {
            let _ = writeln!(
                w,
                "  {:<6} {:>12} {:>12} {:>12} {:>12} {:>12} {:>9} {:>10}",
                "step",
                "bytes",
                "intra-sec",
                "inject-sec",
                "wire-mean",
                "wire-max",
                "straggler",
                "imbalance"
            );
            for r in &self.rounds {
                let _ = writeln!(
                    w,
                    "  {:<6} {:>12} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>9} {:>10.3}",
                    r.step,
                    r.bytes,
                    r.intra_secs,
                    r.inject_secs,
                    r.wire_mean,
                    r.wire_max,
                    r.straggler,
                    r.imbalance()
                );
            }
        }

        if !self.io_events.is_empty() {
            let _ = writeln!(w, "\nstorage (simulated NVMe tier)");
            let _ = writeln!(
                w,
                "  bin writes: {} ({} bytes, {:.6} s)",
                self.io_count("write"),
                self.io_bytes("write"),
                self.io_seconds("write")
            );
            let _ = writeln!(
                w,
                "  bin reads: {} ({} bytes, {:.6} s)",
                self.io_count("read"),
                self.io_bytes("read"),
                self.io_seconds("read")
            );
            let _ = writeln!(
                w,
                "  read retries: {}, quarantined bins: {}, re-derives: {} ({} bytes replayed)",
                self.io_count("retry"),
                self.io_count("quarantine"),
                self.io_count("rederive"),
                self.io_bytes("rederive")
            );
            let _ = writeln!(
                w,
                "  disk seconds: {:.6} total, {:.6} in recovery",
                self.storage_seconds(),
                self.io_seconds("retry")
                    + self.io_seconds("quarantine")
                    + self.io_seconds("rederive")
            );
        }

        let _ = writeln!(w, "\nimbalance (per-rank busy seconds)");
        if !self.busy_per_rank.is_empty() {
            let mut h = Histogram::new();
            for &busy in &self.busy_per_rank {
                h.observe((busy * 1e6).round() as u64);
            }
            let mean = self.busy_per_rank.iter().sum::<f64>() / self.busy_per_rank.len() as f64;
            let max = self.busy_per_rank.iter().cloned().fold(0.0_f64, f64::max);
            let _ = writeln!(
                w,
                "  p50: {:.6}, p99: {:.6}, max: {:.6}, mean: {:.6}",
                h.quantile(0.5) as f64 * 1e-6,
                h.quantile(0.99) as f64 * 1e-6,
                max,
                mean
            );
            let _ = writeln!(
                w,
                "  imbalance (max/mean): {:.4}",
                if mean > 0.0 { max / mean } else { 1.0 }
            );
        }

        let _ = writeln!(w, "\nrecovery");
        let failed: u64 = self.retries.iter().map(|r| r.2).sum();
        let corrupt: u64 = self.retries.iter().map(|r| r.3).sum();
        let _ = writeln!(
            w,
            "  retry attempts: {} (failed: {failed}, corrupt: {corrupt}), backoff seconds: {:.6}",
            self.retry_attempts(),
            self.backoff_seconds()
        );
        let _ = writeln!(
            w,
            "  regrows: {}, spilled k-mers: {}, oom events: {}",
            self.regrow_count(),
            self.spilled_kmers(),
            self.ooms.len()
        );
        for (rank, detail) in &self.ooms {
            let _ = writeln!(w, "    oom @ rank {rank}: {detail}");
        }
        if !self.rank_deaths.is_empty() || !self.rescales.is_empty() {
            let _ = writeln!(
                w,
                "  rank deaths: {}, rescales: {}",
                self.rank_deaths.len(),
                self.rescales.len()
            );
            for (rank, round) in &self.rank_deaths {
                let _ = writeln!(w, "    rank {rank} died @ round {round}");
            }
            for (round, from, to) in &self.rescales {
                let _ = writeln!(w, "    rescale @ round {round}: {from} -> {to} ranks");
            }
        }

        let _ = writeln!(w, "\nwall clock (host seconds)");
        for (stage, secs) in &self.wall {
            let _ = writeln!(w, "  {stage:<10} {secs:.6}");
        }
        let wall_total = self.wall_stage("total");
        if wall_total > 0.0 {
            let _ = writeln!(
                w,
                "  simulated/wall ratio: {:.1}x",
                self.makespan / wall_total
            );
        }
        out
    }
}

/// Analyzes a parsed journal into a [`RunAnalysis`].
///
/// Fails only on a structurally empty journal (no events at all); a
/// journal from any real run always carries at least the `meta`/`run`
/// envelope.
pub fn analyze(events: &[JournalEvent]) -> Result<RunAnalysis, String> {
    if events.is_empty() {
        return Err("journal is empty".to_string());
    }
    let mut a = RunAnalysis::default();
    let mut intervals: Vec<Interval> = Vec::new();
    let mut rounds: BTreeMap<u64, CollectiveRound> = BTreeMap::new();
    // Per (step, rank) accumulated (wire, charged): hierarchical routing
    // journals two tier events per rank per step, which sum here back to
    // that rank's total wire and clock charge for the round.
    let mut round_wires: BTreeMap<u64, BTreeMap<usize, (f64, f64)>> = BTreeMap::new();
    for ev in events {
        match ev {
            JournalEvent::Meta {
                mode,
                nodes,
                nranks,
                detail,
            } => {
                a.mode = mode.clone();
                a.nodes = *nodes;
                a.nranks = *nranks;
                a.detail = detail.clone();
            }
            JournalEvent::Span {
                rank,
                phase,
                start,
                end,
                ..
            } => intervals.push(Interval {
                rank: *rank,
                label: phase.clone(),
                start: *start,
                end: *end,
                sync: false,
            }),
            JournalEvent::Collective {
                step,
                rank,
                label,
                start,
                wire,
                hidden,
                charged,
                bytes,
                tier,
                comp_bytes,
            } => {
                intervals.push(Interval {
                    rank: *rank,
                    label: label.clone(),
                    start: *start,
                    end: *start + *charged,
                    sync: true,
                });
                let r = rounds.entry(*step).or_insert_with(|| CollectiveRound {
                    step: *step,
                    ..CollectiveRound::default()
                });
                if tier == "intra" {
                    r.intra_secs += *wire;
                } else {
                    // Injection tier carries the round's payload volume;
                    // intra-tier events re-count the same bytes in relay.
                    r.bytes += *bytes;
                    r.comp_bytes += *comp_bytes;
                    r.inject_secs += *wire;
                }
                r.hidden_sum += hidden.min(*charged);
                r.exposed_sum += (charged - hidden).max(0.0);
                let per_rank = round_wires
                    .entry(*step)
                    .or_default()
                    .entry(*rank)
                    .or_insert((0.0, 0.0));
                per_rank.0 += *wire;
                per_rank.1 += *charged;
            }
            JournalEvent::Retry {
                round,
                attempt,
                failed,
                corrupt,
                backoff,
            } => a
                .retries
                .push((*round, *attempt, *failed, *corrupt, *backoff)),
            JournalEvent::Regrow { rank, count } => a.regrows.push((*rank, *count)),
            JournalEvent::Spill { rank, kmers } => a.spills.push((*rank, *kmers)),
            JournalEvent::Oom { rank, detail } => a.ooms.push((*rank, detail.clone())),
            JournalEvent::RankDead { rank, round } => a.rank_deaths.push((*rank, *round)),
            JournalEvent::Rescale { round, from, to } => a.rescales.push((*round, *from, *to)),
            JournalEvent::Io {
                op,
                bin,
                bytes,
                secs,
            } => a.io_events.push((op.clone(), *bin, *bytes, *secs)),
            JournalEvent::Phase { phase, secs } => a.phases.push((phase.clone(), *secs)),
            JournalEvent::Wall { stage, secs } => a.wall.push((stage.clone(), *secs)),
            JournalEvent::Run { makespan } => a.makespan = *makespan,
            // In-memory-only kinds: the JSONL never carries them, so the
            // analysis of a run never depends on them.
            JournalEvent::Sample { .. } | JournalEvent::Metric { .. } => {}
        }
    }

    // Per-collective wire statistics: mean in rank order (matching the
    // engine's own accumulation order), max, and the straggler rank.
    for (step, wires) in round_wires {
        let r = rounds.get_mut(&step).expect("round exists");
        let n = wires.len().max(1) as f64;
        r.wire_mean = wires.values().map(|(wire, _)| wire).sum::<f64>() / n;
        r.charged_mean = wires.values().map(|(_, charged)| charged).sum::<f64>() / n;
        let (straggler, wire_max) =
            wires
                .iter()
                .fold((0usize, f64::MIN), |acc, (&rank, &(wire, _))| {
                    if wire > acc.1 {
                        (rank, wire)
                    } else {
                        acc
                    }
                });
        r.wire_max = wire_max.max(0.0);
        r.straggler = straggler;
    }
    a.rounds = rounds.into_values().collect();

    // Step attribution: mean rank-seconds per label, first-seen order.
    let mut order: Vec<String> = Vec::new();
    let mut sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut busy: BTreeMap<usize, f64> = BTreeMap::new();
    for iv in &intervals {
        if !sums.contains_key(&iv.label) {
            order.push(iv.label.clone());
        }
        *sums.entry(iv.label.clone()).or_insert(0.0) += iv.duration();
        *busy.entry(iv.rank).or_insert(0.0) += iv.duration();
        a.total_rank_seconds += iv.duration();
    }
    let nranks = a.nranks.max(busy.len()).max(1);
    a.nranks = nranks;
    a.step_means = order
        .into_iter()
        .map(|label| {
            let mean = sums[&label] / nranks as f64;
            (label, mean)
        })
        .collect();
    a.busy_per_rank = (0..nranks)
        .map(|r| busy.get(&r).copied().unwrap_or(0.0))
        .collect();

    if a.makespan == 0.0 {
        a.makespan = intervals.iter().map(|iv| iv.end).fold(0.0, f64::max);
    }
    let (path, len) = critical_path(&intervals);
    a.critical_path = path;
    a.critical_len = len;
    Ok(a)
}

/// Walks the critical path backwards from the last-ending interval.
///
/// Predecessor rules (exact-timestamp matching — every start is a copy of
/// some clock value, so no epsilon is needed):
/// * a **compute span** starts when *its own rank's* previous charge
///   ended — pick that rank's latest interval ending at or before the
///   span's start;
/// * a **collective** starts at the global clock max — pick the latest
///   interval on *any* rank ending at or before the collective's start
///   (the last-arriving rank is the blocker).
fn critical_path(intervals: &[Interval]) -> (Vec<CritSegment>, f64) {
    if intervals.is_empty() {
        return (Vec::new(), 0.0);
    }
    let mut current = 0usize;
    for (i, iv) in intervals.iter().enumerate() {
        if iv.end > intervals[current].end {
            current = i;
        }
    }
    let mut segments = Vec::new();
    let mut guard = intervals.len() + 1;
    loop {
        let cur = &intervals[current];
        segments.push(CritSegment {
            rank: cur.rank,
            label: cur.label.clone(),
            start: cur.start,
            duration: cur.duration(),
        });
        guard -= 1;
        if cur.start <= 0.0 || guard == 0 {
            break;
        }
        let mut pred: Option<usize> = None;
        for (i, iv) in intervals.iter().enumerate() {
            if i == current || iv.end > cur.start {
                continue;
            }
            if !cur.sync && iv.rank != cur.rank {
                continue;
            }
            match pred {
                None => pred = Some(i),
                Some(p) if iv.end > intervals[p].end => pred = Some(i),
                Some(_) => {}
            }
        }
        match pred {
            Some(p) => current = p,
            None => break,
        }
    }
    segments.reverse();
    let len = segments.iter().map(|s| s.duration).sum();
    (segments, len)
}

/// Renders the `dedukt analyze --diff` regression triage report between
/// two analyzed runs (`a` = baseline, `b` = candidate).
pub fn render_diff(a: &RunAnalysis, b: &RunAnalysis) -> String {
    let mut out = String::new();
    let w = &mut out;
    let _ = writeln!(w, "dedukt analyze diff");
    let _ = writeln!(w, "===================");
    let _ = writeln!(
        w,
        "A: mode={} nodes={} nranks={}",
        if a.mode.is_empty() { "?" } else { &a.mode },
        a.nodes,
        a.nranks
    );
    let _ = writeln!(
        w,
        "B: mode={} nodes={} nranks={}",
        if b.mode.is_empty() { "?" } else { &b.mode },
        b.nodes,
        b.nranks
    );

    let mut regressions: Vec<String> = Vec::new();
    let mut line = |name: &str, va: f64, vb: f64, regress_if_worse: bool| -> String {
        let delta = if va != 0.0 {
            (vb - va) / va * 100.0
        } else if vb != 0.0 {
            100.0
        } else {
            0.0
        };
        let tag = if delta.abs() < 5.0 {
            ""
        } else if delta > 0.0 {
            if regress_if_worse {
                regressions.push(format!("{name} (+{delta:.1}%)"));
            }
            "  <-- regressed"
        } else {
            "  <-- improved"
        };
        format!("  {name:<22} {va:.6} -> {vb:.6} ({delta:+.1}%){tag}")
    };

    let mut body = Vec::new();
    body.push(line("makespan", a.makespan, b.makespan, true));
    for phase in ["parse", "exchange", "count"] {
        body.push(line(
            &format!("phase {phase}"),
            a.phase(phase),
            b.phase(phase),
            true,
        ));
    }
    body.push(line("critical path", a.critical_len, b.critical_len, true));
    body.push(line(
        "exchange bytes",
        a.exchange_bytes() as f64,
        b.exchange_bytes() as f64,
        true,
    ));
    body.push(line(
        "hidden seconds",
        a.hidden_seconds(),
        b.hidden_seconds(),
        false,
    ));
    body.push(line(
        "exposed seconds",
        a.exposed_seconds(),
        b.exposed_seconds(),
        true,
    ));
    body.push(line(
        "retry attempts",
        a.retry_attempts() as f64,
        b.retry_attempts() as f64,
        true,
    ));
    body.push(line(
        "backoff seconds",
        a.backoff_seconds(),
        b.backoff_seconds(),
        true,
    ));
    body.push(line(
        "regrows",
        a.regrow_count() as f64,
        b.regrow_count() as f64,
        true,
    ));
    body.push(line(
        "spilled k-mers",
        a.spilled_kmers() as f64,
        b.spilled_kmers() as f64,
        true,
    ));
    body.push(line(
        "wall total",
        a.wall_stage("total"),
        b.wall_stage("total"),
        false,
    ));
    for l in body {
        let _ = writeln!(w, "{l}");
    }
    if regressions.is_empty() {
        let _ = writeln!(w, "regressions: none");
    } else {
        let _ = writeln!(w, "regressions: {}", regressions.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(step: u64, rank: usize, phase: &str, start: f64, end: f64) -> JournalEvent {
        JournalEvent::Span {
            step,
            rank,
            phase: phase.into(),
            start,
            end,
        }
    }

    fn collective(step: u64, rank: usize, start: f64, wire: f64, bytes: u64) -> JournalEvent {
        JournalEvent::Collective {
            step,
            rank,
            label: "alltoallv".into(),
            start,
            wire,
            hidden: 0.0,
            charged: wire,
            bytes,
            tier: "inject".into(),
            comp_bytes: bytes,
        }
    }

    fn tiered(
        step: u64,
        rank: usize,
        start: f64,
        wire: f64,
        bytes: u64,
        tier: &str,
        comp_bytes: u64,
    ) -> JournalEvent {
        JournalEvent::Collective {
            step,
            rank,
            label: "alltoallv".into(),
            start,
            wire,
            hidden: 0.0,
            charged: wire,
            bytes,
            tier: tier.into(),
            comp_bytes,
        }
    }

    /// Two ranks: rank 1 computes longer, the collective starts at rank
    /// 1's finish, then rank 0 receives the bigger payload. The critical
    /// path must thread rank 1's compute into rank 0's wire time.
    fn two_rank_events() -> Vec<JournalEvent> {
        vec![
            JournalEvent::Meta {
                mode: "cpu".into(),
                nodes: 1,
                nranks: 2,
                detail: "test".into(),
            },
            span(0, 0, "parse", 0.0, 1.0),
            span(0, 1, "parse", 0.0, 3.0),
            collective(1, 0, 3.0, 2.0, 2048),
            collective(1, 1, 3.0, 0.5, 512),
            span(2, 0, "count", 5.0, 6.0),
            span(2, 1, "count", 3.5, 4.0),
            JournalEvent::Phase {
                phase: "parse".into(),
                secs: 2.0,
            },
            JournalEvent::Phase {
                phase: "exchange".into(),
                secs: 1.25,
            },
            JournalEvent::Phase {
                phase: "count".into(),
                secs: 0.75,
            },
            JournalEvent::Run { makespan: 6.0 },
        ]
    }

    #[test]
    fn critical_path_threads_the_straggler_chain() {
        let a = analyze(&two_rank_events()).unwrap();
        assert_eq!(a.makespan, 6.0);
        // Chain: rank1 parse (3.0) -> rank0 alltoallv (2.0) -> rank0
        // count (1.0) = 6.0 — full coverage of the makespan.
        let labels: Vec<(usize, &str)> = a
            .critical_path
            .iter()
            .map(|s| (s.rank, s.label.as_str()))
            .collect();
        assert_eq!(
            labels,
            vec![(1, "parse"), (0, "alltoallv"), (0, "count")],
            "path: {:?}",
            a.critical_path
        );
        assert_eq!(a.critical_len, 6.0);
        a.check_invariants().unwrap();
    }

    #[test]
    fn invariants_hold_and_totals_add_up() {
        let a = analyze(&two_rank_events()).unwrap();
        // parse 4.0 + collectives 2.5 + count 1.5 rank-seconds.
        assert!((a.total_rank_seconds - 8.0).abs() < 1e-12);
        assert!(a.critical_len <= a.makespan + 1e-12);
        assert!(a.makespan <= a.total_rank_seconds + 1e-12);
        assert_eq!(a.exchange_bytes(), 2560);
        assert_eq!(a.rounds.len(), 1);
        assert_eq!(a.rounds[0].straggler, 0);
        assert!((a.rounds[0].wire_mean - 1.25).abs() < 1e-12);
        assert!((a.rounds[0].imbalance() - 1.6).abs() < 1e-12);
        assert_eq!(a.phase("exchange"), 1.25);
        assert!((a.phase_total() - 4.0).abs() < 1e-12);
    }

    /// A hierarchical round journals two tier events per rank per step;
    /// the round must merge them back into per-rank totals, count bytes
    /// only on the injection tier, and split the tier seconds.
    #[test]
    fn hierarchical_rounds_merge_tiers_per_rank() {
        let events = vec![
            JournalEvent::Meta {
                mode: "cpu".into(),
                nodes: 2,
                nranks: 2,
                detail: "test".into(),
            },
            // Rank 0: 0.3 s intra relay then 1.7 s injection.
            tiered(1, 0, 0.0, 0.3, 4096, "intra", 4096),
            tiered(1, 0, 0.3, 1.7, 2048, "inject", 1024),
            // Rank 1: 0.1 s intra then 0.4 s injection.
            tiered(1, 1, 0.0, 0.1, 1024, "intra", 1024),
            tiered(1, 1, 0.1, 0.4, 512, "inject", 256),
            JournalEvent::Run { makespan: 2.0 },
        ];
        let a = analyze(&events).unwrap();
        assert_eq!(a.rounds.len(), 1);
        let r = &a.rounds[0];
        // Bytes count the injection tier only — the intra events carry
        // the same payload in relay and would double-count.
        assert_eq!(r.bytes, 2048 + 512);
        assert_eq!(r.comp_bytes, 1024 + 256);
        assert!((r.intra_secs - 0.4).abs() < 1e-12);
        assert!((r.inject_secs - 2.1).abs() < 1e-12);
        // Per-rank wire is the sum of that rank's tier events.
        assert!((r.wire_mean - (2.0 + 0.5) / 2.0).abs() < 1e-12);
        assert!((r.wire_max - 2.0).abs() < 1e-12);
        assert_eq!(r.straggler, 0);
        assert_eq!(a.exchange_comp_bytes(), 1280);
        assert!((a.intra_seconds() - 0.4).abs() < 1e-12);
        assert!((a.inject_seconds() - 2.1).abs() < 1e-12);
        a.check_invariants().unwrap();
        let text = a.render();
        assert!(text.contains("intra-sec"), "{text}");
        assert!(text.contains("wire compression"), "{text}");
    }

    #[test]
    fn render_contains_every_report_section() {
        let a = analyze(&two_rank_events()).unwrap();
        let text = a.render();
        for needle in [
            "phase breakdown",
            "reconciliation",
            "critical path",
            "exchange",
            "tier seconds",
            "imbalance",
            "recovery",
            "wall clock",
            "invariants",
            "OK",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn rank_deaths_and_rescales_feed_the_recovery_section() {
        let mut events = two_rank_events();
        events.insert(3, JournalEvent::RankDead { rank: 1, round: 0 });
        events.insert(
            4,
            JournalEvent::Rescale {
                round: 1,
                from: 2,
                to: 1,
            },
        );
        let a = analyze(&events).unwrap();
        assert_eq!(a.rank_deaths, vec![(1, 0)]);
        assert_eq!(a.rescales, vec![(1, 2, 1)]);
        a.check_invariants().unwrap();
        let text = a.render();
        assert!(text.contains("rank 1 died @ round 0"), "{text}");
        assert!(text.contains("rescale @ round 1: 2 -> 1 ranks"), "{text}");
        // Runs without deaths keep the section silent.
        let clean = analyze(&two_rank_events()).unwrap();
        assert!(!clean.render().contains("rank deaths"));
    }

    #[test]
    fn io_events_feed_the_storage_section() {
        let io = |op: &str, bin: u64, bytes: u64, secs: f64| JournalEvent::Io {
            op: op.into(),
            bin,
            bytes,
            secs,
        };
        let mut events = two_rank_events();
        events.insert(3, io("write", 0, 1000, 0.5));
        events.insert(4, io("write", 1, 3000, 1.5));
        events.insert(5, io("read", 0, 1000, 0.25));
        events.insert(6, io("retry", 1, 0, 0.1));
        events.insert(7, io("quarantine", 1, 0, 0.0));
        events.insert(8, io("rederive", 1, 3000, 2.0));
        events.insert(9, io("read", 1, 3000, 0.75));
        let a = analyze(&events).unwrap();
        assert_eq!(a.io_count("write"), 2);
        assert_eq!(a.io_bytes("write"), 4000);
        assert_eq!(a.io_count("read"), 2);
        assert_eq!(a.io_count("retry"), 1);
        assert_eq!(a.io_count("quarantine"), 1);
        assert_eq!(a.io_count("rederive"), 1);
        assert!((a.io_seconds("write") - 2.0).abs() < 1e-12);
        assert!((a.storage_seconds() - 5.1).abs() < 1e-12);
        // Io events are annotations, not clock intervals — the structural
        // invariants must be unaffected.
        a.check_invariants().unwrap();
        let text = a.render();
        assert!(text.contains("storage (simulated NVMe tier)"), "{text}");
        assert!(text.contains("bin writes: 2 (4000 bytes"), "{text}");
        assert!(text.contains("quarantined bins: 1"), "{text}");
        // In-memory runs keep the section silent.
        let clean = analyze(&two_rank_events()).unwrap();
        assert!(!clean.render().contains("storage (simulated NVMe tier)"));
    }

    #[test]
    fn diff_flags_regressions() {
        let a = analyze(&two_rank_events()).unwrap();
        let mut worse_events = two_rank_events();
        for ev in &mut worse_events {
            if let JournalEvent::Run { makespan } = ev {
                *makespan = 9.0;
            }
            if let JournalEvent::Phase { phase, secs } = ev {
                if phase == "exchange" {
                    *secs = 4.25;
                }
            }
        }
        let b = analyze(&worse_events).unwrap();
        let text = render_diff(&a, &b);
        assert!(text.contains("regressed"), "{text}");
        assert!(text.contains("makespan"), "{text}");
        assert!(
            text.contains("regressions:") && !text.contains("regressions: none"),
            "{text}"
        );
        let same = render_diff(&a, &a);
        assert!(same.contains("regressions: none"), "{same}");
    }

    #[test]
    fn empty_journal_is_an_error() {
        assert!(analyze(&[]).is_err());
    }
}
