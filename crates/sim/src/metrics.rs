//! Run-wide metrics: mergeable counters, gauges, and log-bucketed
//! histograms, folded from a run's event stream.
//!
//! The paper's whole argument is read off instrumentation — phase
//! breakdowns (Figs. 3/7), exchange volume (Table II), load imbalance
//! (Table III) — so the reproduction carries a first-class metrics layer.
//! Every metric is keyed by `(name, rank)`: `rank = None` is a run-global
//! series, `rank = Some(r)` a per-rank lane. Two exporters are provided:
//! a JSON snapshot ([`MetricsSnapshot::write_json`]) and Prometheus text
//! exposition ([`MetricsSnapshot::write_prometheus`]).
//!
//! There is no registry: a snapshot is a projection of the run's one
//! event stream ([`MetricsSnapshot::from_events`]), so it agrees with the
//! journal and the Chrome trace by construction. Recording is strictly an
//! observer: all simulated times come from analytic cost models, so
//! recording can never perturb them.

use crate::JournalEvent;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{self, Write};

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `b ≥ 1`
/// holds values in `[2^(b-1), 2^b)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A mergeable power-of-two-bucketed histogram of `u64` samples.
///
/// Merging shard histograms is exactly equivalent (bucket-wise, and for
/// `sum`/`count`/`min`/`max`) to building one histogram over the
/// concatenated samples — the property that lets every rank record its
/// own histograms and the metrics fold merge them into one series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Bucket index for a sample.
    #[inline]
    pub fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Inclusive upper bound of a bucket (`u64::MAX` for the last one).
    pub fn bucket_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= 64 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound quantile estimate from the log2 buckets.
    ///
    /// Returns the inclusive upper bound ([`Histogram::bucket_bound`]) of
    /// the first bucket at which the cumulative sample count reaches
    /// `q · count` (at least one sample), clamped into
    /// `[min(), max()]` so the estimate never leaves the observed range.
    /// `q` is clamped to `[0, 1]`; an empty histogram reports 0. The
    /// estimate is monotone in `q` (pinned by a property test).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= target {
                return Self::bucket_bound(i).clamp(self.min(), self.max());
            }
        }
        self.max()
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Index of the highest non-empty bucket, if any.
    fn top_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&c| c > 0)
    }
}

/// One recorded series.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotonic event/byte count.
    Counter(u64),
    /// Last-written (or max-tracked) level.
    Gauge(f64),
    /// Distribution of `u64` samples.
    Histogram(Histogram),
}

/// How one [`JournalEvent::Metric`] observation folds into its series.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricOp {
    /// Adds to a counter.
    CounterAdd(u64),
    /// Sets a gauge.
    GaugeSet(f64),
    /// Adds to a gauge (accumulated simulated durations, which are
    /// fractional).
    GaugeAdd(f64),
    /// Raises a gauge to the value if it is larger (high-water marks).
    GaugeMax(f64),
    /// Merges a locally accumulated histogram.
    HistogramMerge(Histogram),
}

impl MetricOp {
    /// The series an observation starts when it is the first of its
    /// name and rank.
    fn empty(&self) -> MetricValue {
        match self {
            MetricOp::CounterAdd(_) => MetricValue::Counter(0),
            MetricOp::GaugeSet(_) | MetricOp::GaugeAdd(_) => MetricValue::Gauge(0.0),
            MetricOp::GaugeMax(_) => MetricValue::Gauge(f64::NEG_INFINITY),
            MetricOp::HistogramMerge(_) => MetricValue::Histogram(Histogram::new()),
        }
    }

    /// Folds the observation into its series.
    fn fold_into(&self, series: &mut MetricValue) {
        match (self, series) {
            (MetricOp::CounterAdd(n), MetricValue::Counter(v)) => *v += n,
            (MetricOp::GaugeSet(x), MetricValue::Gauge(g)) => *g = *x,
            (MetricOp::GaugeAdd(x), MetricValue::Gauge(g)) => *g += x,
            (MetricOp::GaugeMax(x), MetricValue::Gauge(g)) => *g = g.max(*x),
            (MetricOp::HistogramMerge(h), MetricValue::Histogram(acc)) => acc.merge(h),
            (op, series) => panic!("metric op {op:?} does not apply to {series:?}"),
        }
    }
}

/// One exported series.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricEntry {
    /// Metric name (Prometheus-style, e.g. `exchange_bytes_total`).
    pub name: String,
    /// Per-rank lane, or `None` for a run-global series.
    pub rank: Option<usize>,
    /// The recorded value.
    pub value: MetricValue,
}

/// A frozen, ordered view of every metric of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All series, ordered name-major then rank.
    pub entries: Vec<MetricEntry>,
}

impl MetricsSnapshot {
    /// Folds a run's event stream into its metrics snapshot.
    ///
    /// [`JournalEvent::Metric`] observations apply as recorded. Every
    /// other series is derived from the events that already carry its
    /// fact, and only where the fold is bit-exact:
    ///
    /// - collectives give `exchange_collectives_total`, the per-superstep
    ///   `exchange_superstep_bytes:NNNN` series and the per-rank
    ///   `exchange_bytes_total`, plus `alltoallv_wire_seconds_total` under
    ///   direct routing (a hierarchical collective splits a rank's wire
    ///   time across two tier events whose sum is not bit-exact, so the
    ///   engine records that series as a `Metric` instead);
    /// - retries give `retries_total` and `corrupt_buckets_total`;
    /// - regrow, spill and rank-death events give `table_regrows_total`,
    ///   `spill_kmers_total` and `rank_deaths_total`;
    /// - phase, wall and run events give `phase_seconds:*`,
    ///   `wall_seconds:*` and `makespan_seconds`.
    ///
    /// Superstep indices are zero-padded to four digits, or to the digits
    /// of the last index if it has more, so the series sorts numerically
    /// however many collectives ran.
    pub fn from_events<'a>(events: &'a [JournalEvent]) -> MetricsSnapshot {
        use MetricOp::{CounterAdd, GaugeAdd, GaugeSet};
        let mut series: BTreeMap<(Cow<'a, str>, Option<usize>), MetricValue> = BTreeMap::new();
        let mut fold = |name: Cow<'a, str>, rank: Option<usize>, op: &MetricOp| {
            let value = series.entry((name, rank)).or_insert_with(|| op.empty());
            op.fold_into(value);
        };
        let mut supersteps: BTreeMap<u64, u64> = BTreeMap::new();
        let mut relay_step = None;
        for ev in events {
            let (name, rank, op): (Cow<str>, _, _) = match ev {
                JournalEvent::Metric { name, rank, op } => {
                    fold(name.into(), *rank, op);
                    continue;
                }
                JournalEvent::Collective {
                    step,
                    rank,
                    wire,
                    tier,
                    comp_bytes,
                    ..
                } => {
                    // A rank's physical payload is carried once per
                    // collective: by its direct event, or by the intra-node
                    // relay of a hierarchical one, which moves it twice
                    // (gather and scatter).
                    let sent = if tier == "intra" {
                        relay_step = Some(*step);
                        comp_bytes / 2
                    } else if relay_step == Some(*step) {
                        continue;
                    } else {
                        fold(
                            "alltoallv_wire_seconds_total".into(),
                            Some(*rank),
                            &GaugeAdd(*wire),
                        );
                        *comp_bytes
                    };
                    *supersteps.entry(*step).or_default() += sent;
                    ("exchange_bytes_total".into(), Some(*rank), CounterAdd(sent))
                }
                JournalEvent::Retry {
                    failed, corrupt, ..
                } => {
                    fold("retries_total".into(), None, &CounterAdd(failed + corrupt));
                    ("corrupt_buckets_total".into(), None, CounterAdd(*corrupt))
                }
                JournalEvent::Regrow { rank, count } => (
                    "table_regrows_total".into(),
                    Some(*rank),
                    CounterAdd(*count),
                ),
                JournalEvent::Spill { rank, kmers } => {
                    ("spill_kmers_total".into(), Some(*rank), CounterAdd(*kmers))
                }
                JournalEvent::RankDead { .. } => ("rank_deaths_total".into(), None, CounterAdd(1)),
                JournalEvent::Phase { phase, secs } => (
                    format!("phase_seconds:{phase}").into(),
                    None,
                    GaugeSet(*secs),
                ),
                JournalEvent::Wall { stage, secs } => (
                    format!("wall_seconds:{stage}").into(),
                    None,
                    GaugeSet(*secs),
                ),
                JournalEvent::Run { makespan } => {
                    ("makespan_seconds".into(), None, GaugeSet(*makespan))
                }
                _ => continue,
            };
            fold(name, rank, &op);
        }
        if let Some(&last) = supersteps.keys().next_back() {
            let collectives = CounterAdd(supersteps.len() as u64);
            fold("exchange_collectives_total".into(), None, &collectives);
            let width = last.to_string().len().max(4);
            for (step, bytes) in supersteps {
                let name = format!("exchange_superstep_bytes:{step:0width$}");
                fold(name.into(), None, &CounterAdd(bytes));
            }
        }
        let entries = series.into_iter().map(|((name, rank), value)| MetricEntry {
            name: name.into_owned(),
            rank,
            value,
        });
        MetricsSnapshot {
            entries: entries.collect(),
        }
    }

    /// Looks up one series.
    pub fn get(&self, name: &str, rank: Option<usize>) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.rank == rank)
            .map(|e| &e.value)
    }

    /// Sums a counter across every rank lane (and the global lane).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match &e.value {
                MetricValue::Counter(v) => *v,
                _ => 0,
            })
            .sum()
    }

    /// Writes the snapshot as a JSON document:
    /// `{"metrics": [{"name": ..., "rank": ..., "type": ..., ...}]}`.
    pub fn write_json<W: Write>(&self, w: &mut W) -> io::Result<()> {
        writeln!(w, "{{")?;
        writeln!(w, "  \"metrics\": [")?;
        let lines: Vec<String> = self.entries.iter().map(json_entry).collect();
        write!(w, "{}", lines.join(",\n"))?;
        if !lines.is_empty() {
            writeln!(w)?;
        }
        writeln!(w, "  ]")?;
        writeln!(w, "}}")?;
        Ok(())
    }

    /// Writes the snapshot in Prometheus text exposition format. Ranks
    /// become a `rank="N"` label; metric names are sanitised to the
    /// Prometheus charset.
    pub fn write_prometheus<W: Write>(&self, w: &mut W) -> io::Result<()> {
        let mut last_name: Option<&str> = None;
        for e in &self.entries {
            let name = prom_name(&e.name);
            let labels = match e.rank {
                Some(r) => format!("{{rank=\"{r}\"}}"),
                None => String::new(),
            };
            if last_name != Some(e.name.as_str()) {
                let kind = match &e.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                writeln!(w, "# TYPE {name} {kind}")?;
                last_name = Some(e.name.as_str());
            }
            match &e.value {
                MetricValue::Counter(v) => writeln!(w, "{name}{labels} {v}")?,
                MetricValue::Gauge(v) => writeln!(w, "{name}{labels} {v}")?,
                MetricValue::Histogram(h) => {
                    let rank_label = match e.rank {
                        Some(r) => format!("rank=\"{r}\","),
                        None => String::new(),
                    };
                    let top = h.top_bucket().unwrap_or(0);
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets().iter().enumerate().take(top + 1) {
                        cumulative += c;
                        let le = Histogram::bucket_bound(i);
                        writeln!(w, "{name}_bucket{{{rank_label}le=\"{le}\"}} {cumulative}")?;
                    }
                    writeln!(w, "{name}_bucket{{{rank_label}le=\"+Inf\"}} {}", h.count())?;
                    writeln!(w, "{name}_sum{labels} {}", h.sum())?;
                    writeln!(w, "{name}_count{labels} {}", h.count())?;
                }
            }
        }
        Ok(())
    }
}

fn json_entry(e: &MetricEntry) -> String {
    let name = crate::trace::escape(&e.name);
    let rank = match e.rank {
        Some(r) => format!("\"rank\": {r}, "),
        None => String::new(),
    };
    match &e.value {
        MetricValue::Counter(v) => {
            format!("    {{\"name\": \"{name}\", {rank}\"type\": \"counter\", \"value\": {v}}}")
        }
        MetricValue::Gauge(v) => {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("    {{\"name\": \"{name}\", {rank}\"type\": \"gauge\", \"value\": {v}}}")
        }
        MetricValue::Histogram(h) => {
            let top = h.top_bucket().unwrap_or(0);
            let buckets: Vec<String> = h
                .buckets()
                .iter()
                .enumerate()
                .take(top + 1)
                .map(|(i, c)| format!("{{\"le\": {}, \"count\": {c}}}", Histogram::bucket_bound(i)))
                .collect();
            format!(
                "    {{\"name\": \"{name}\", {rank}\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [{}]}}",
                h.count(),
                h.sum(),
                h.min(),
                h.max(),
                buckets.join(", "),
            )
        }
    }
}

/// Maps a metric name onto the Prometheus charset `[a-zA-Z0-9_:]`.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values_by_log2() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024, u64::MAX] {
            h.observe(v);
        }
        assert_eq!(h.buckets()[0], 1); // {0}
        assert_eq!(h.buckets()[1], 1); // {1}
        assert_eq!(h.buckets()[2], 2); // {2,3}
        assert_eq!(h.buckets()[3], 2); // {4..7}
        assert_eq!(h.buckets()[4], 1); // {8..15}
        assert_eq!(h.buckets()[11], 1); // {1024..2047}
        assert_eq!(h.buckets()[64], 1); // top bucket
        assert_eq!(h.count(), 9);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_log2_upper_bounds() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");
        for v in 1..=100u64 {
            h.observe(v);
        }
        // p50 of 1..=100 lands in bucket [32, 63]; the estimate is the
        // bucket's inclusive upper bound.
        assert_eq!(h.quantile(0.5), 63);
        assert_eq!(h.quantile(1.0), 100, "clamped to max");
        assert_eq!(h.quantile(0.0), 1, "clamped to min");
        // A single-valued histogram answers exactly at every q.
        let mut one = Histogram::new();
        for _ in 0..10 {
            one.observe(42);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 42);
        }
    }

    #[test]
    fn histogram_merge_equals_concatenation() {
        let (a, b): (Vec<u64>, Vec<u64>) = ((0..100).collect(), (50..300).collect());
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in &a {
            ha.observe(v);
            hall.observe(v);
        }
        for &v in &b {
            hb.observe(v);
            hall.observe(v);
        }
        ha.merge(&hb);
        assert_eq!(ha, hall);
    }

    fn metric(name: &str, rank: Option<usize>, op: MetricOp) -> JournalEvent {
        JournalEvent::Metric {
            name: name.into(),
            rank,
            op,
        }
    }

    fn one_sample(v: u64) -> MetricOp {
        let mut h = Histogram::new();
        h.observe(v);
        MetricOp::HistogramMerge(h)
    }

    fn collective(step: u64, rank: usize, tier: &str, wire: f64, comp_bytes: u64) -> JournalEvent {
        JournalEvent::Collective {
            step,
            rank,
            label: "alltoallv".into(),
            start: 0.0,
            wire,
            hidden: 0.0,
            charged: wire,
            bytes: comp_bytes,
            tier: tier.into(),
            comp_bytes,
        }
    }

    #[test]
    fn metric_events_fold_and_snapshot_ordered() {
        let snap = MetricsSnapshot::from_events(&[
            metric("bytes_total", Some(1), MetricOp::CounterAdd(10)),
            metric("bytes_total", Some(0), MetricOp::CounterAdd(5)),
            metric("bytes_total", Some(1), MetricOp::CounterAdd(7)),
            metric("peak", None, MetricOp::GaugeMax(3.0)),
            metric("peak", None, MetricOp::GaugeMax(2.0)),
            metric("probe_steps", Some(0), one_sample(1)),
        ]);
        assert_eq!(
            snap.get("bytes_total", Some(1)),
            Some(&MetricValue::Counter(17))
        );
        assert_eq!(
            snap.get("bytes_total", Some(0)),
            Some(&MetricValue::Counter(5))
        );
        assert_eq!(snap.get("peak", None), Some(&MetricValue::Gauge(3.0)));
        assert_eq!(snap.counter_total("bytes_total"), 22);
        // Names sorted, None before Some within a name.
        let names: Vec<_> = snap.entries.iter().map(|e| (&e.name, e.rank)).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn derived_series_fold_the_events_that_carry_them() {
        let snap = MetricsSnapshot::from_events(&[
            // A direct collective over two ranks...
            collective(1, 0, "inject", 0.5, 64),
            collective(1, 1, "inject", 0.25, 32),
            // ...then a hierarchical one: the relay carries the payload
            // twice, the injection event carries no new bytes.
            collective(2, 0, "intra", 0.125, 2 * 16),
            collective(2, 0, "inject", 0.5, 8),
            collective(2, 1, "intra", 0.125, 2 * 4),
            collective(2, 1, "inject", 0.5, 2),
            JournalEvent::Retry {
                round: 0,
                attempt: 1,
                failed: 3,
                corrupt: 1,
                backoff: 0.1,
            },
            JournalEvent::Regrow { rank: 1, count: 2 },
            JournalEvent::Spill { rank: 1, kmers: 9 },
            JournalEvent::RankDead { rank: 0, round: 1 },
            JournalEvent::Phase {
                phase: "count".into(),
                secs: 1.5,
            },
            JournalEvent::Wall {
                stage: "total".into(),
                secs: 0.75,
            },
            JournalEvent::Run { makespan: 2.5 },
        ]);
        let get = |name: &str, rank| snap.get(name, rank).cloned();
        use MetricValue::{Counter, Gauge};
        assert_eq!(get("exchange_collectives_total", None), Some(Counter(2)));
        assert_eq!(
            get("exchange_superstep_bytes:0001", None),
            Some(Counter(96))
        );
        assert_eq!(
            get("exchange_superstep_bytes:0002", None),
            Some(Counter(20))
        );
        assert_eq!(get("exchange_bytes_total", Some(0)), Some(Counter(80)));
        assert_eq!(get("exchange_bytes_total", Some(1)), Some(Counter(36)));
        // Wire seconds come only from direct events.
        assert_eq!(
            get("alltoallv_wire_seconds_total", Some(0)),
            Some(Gauge(0.5))
        );
        assert_eq!(get("retries_total", None), Some(Counter(4)));
        assert_eq!(get("corrupt_buckets_total", None), Some(Counter(1)));
        assert_eq!(get("table_regrows_total", Some(1)), Some(Counter(2)));
        assert_eq!(get("spill_kmers_total", Some(1)), Some(Counter(9)));
        assert_eq!(get("rank_deaths_total", None), Some(Counter(1)));
        assert_eq!(get("phase_seconds:count", None), Some(Gauge(1.5)));
        assert_eq!(get("wall_seconds:total", None), Some(Gauge(0.75)));
        assert_eq!(get("makespan_seconds", None), Some(Gauge(2.5)));
    }

    #[test]
    fn superstep_series_sort_numerically_past_9999_collectives() {
        let events: Vec<JournalEvent> = (1..=10_001)
            .map(|step| collective(step, 0, "inject", 0.0, step))
            .collect();
        let snap = MetricsSnapshot::from_events(&events);
        let steps: Vec<&str> = snap
            .entries
            .iter()
            .filter_map(|e| e.name.strip_prefix("exchange_superstep_bytes:"))
            .collect();
        assert_eq!(steps.len(), 10_001);
        assert_eq!(steps[0], "00001");
        assert_eq!(steps[10_000], "10001");
        // Export order is name order; it must also be collective order.
        let parsed: Vec<u64> = steps.iter().map(|s| s.parse().unwrap()).collect();
        assert!(parsed.windows(2).all(|w| w[0] < w[1]), "not numeric order");
        assert_eq!(
            snap.get("exchange_superstep_bytes:10001", None),
            Some(&MetricValue::Counter(10_001))
        );
        // Runs under 10,000 collectives keep their four-digit names.
        let short = MetricsSnapshot::from_events(&events[..9_999]);
        assert!(short.get("exchange_superstep_bytes:0001", None).is_some());
        assert!(short.get("exchange_superstep_bytes:9999", None).is_some());
    }

    #[test]
    fn json_export_shape() {
        let snap = MetricsSnapshot::from_events(&[
            metric("c", Some(0), MetricOp::CounterAdd(1)),
            metric("g", None, MetricOp::GaugeSet(0.5)),
            metric("h", Some(2), one_sample(9)),
        ]);
        let mut buf = Vec::new();
        snap.write_json(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"metrics\": ["));
        assert!(text.contains("\"name\": \"c\", \"rank\": 0, \"type\": \"counter\", \"value\": 1"));
        assert!(text.contains("\"name\": \"g\", \"type\": \"gauge\", \"value\": 0.5"));
        assert!(text.contains("\"type\": \"histogram\""));
        assert!(text.contains("\"le\": 15, \"count\": 1"));
    }

    #[test]
    fn prometheus_export_shape() {
        let snap = MetricsSnapshot::from_events(&[
            metric("exchange_bytes_total", Some(0), MetricOp::CounterAdd(64)),
            metric("exchange_bytes_total", Some(1), MetricOp::CounterAdd(32)),
            metric("probe-steps", Some(0), one_sample(3)),
        ]);
        let mut buf = Vec::new();
        snap.write_prometheus(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# TYPE exchange_bytes_total counter"));
        // The TYPE line is emitted once per metric name, not per lane.
        assert_eq!(text.matches("# TYPE exchange_bytes_total").count(), 1);
        assert!(text.contains("exchange_bytes_total{rank=\"0\"} 64"));
        assert!(text.contains("exchange_bytes_total{rank=\"1\"} 32"));
        // Name sanitised, histogram series complete.
        assert!(text.contains("# TYPE probe_steps histogram"));
        assert!(text.contains("probe_steps_bucket{rank=\"0\",le=\"+Inf\"} 1"));
        assert!(text.contains("probe_steps_sum{rank=\"0\"} 3"));
        assert!(text.contains("probe_steps_count{rank=\"0\"} 1"));
    }

    #[test]
    fn empty_snapshot_is_valid_json() {
        let mut buf = Vec::new();
        MetricsSnapshot::from_events(&[])
            .write_json(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("\"metrics\": ["));
        assert!(text.contains("]"));
    }
}
