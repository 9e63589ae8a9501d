//! Phase breakdowns and run statistics — the quantities behind the
//! paper's Figs. 3/7, Table II and Table III.

use dedukt_sim::{DataVolume, DistStats, Rate, SimTime};

/// Simulated time spent in each of the pipeline's three modules
/// (Fig. 1 / Fig. 3): parse & process, exchange (incl. staging and the
/// `MPI_Alltoallv`), and building the k-mer counter.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseBreakdown {
    /// Parse & process k-mers (or build supermers).
    pub parse: SimTime,
    /// Exchange, including host staging when GPUDirect is off.
    pub exchange: SimTime,
    /// Count k-mers into the per-rank tables.
    pub count: SimTime,
}

impl PhaseBreakdown {
    /// End-to-end pipeline time (excl. I/O, like the paper's figures).
    pub fn total(&self) -> SimTime {
        self.parse + self.exchange + self.count
    }

    /// Fraction of the total spent exchanging — the paper observes up to
    /// 80% for the GPU k-mer counter at 64 nodes (§V-C).
    pub fn exchange_fraction(&self) -> f64 {
        let t = self.total();
        if t.is_zero() {
            0.0
        } else {
            self.exchange / t
        }
    }
}

/// Real host wall-clock seconds per driver stage — `std::time::Instant`
/// deltas, *not* simulated time. Unlike everything else in the report
/// these are nondeterministic (they measure this process on this
/// machine); they feed the journal's `wall` events, the
/// `wall_seconds:*` metrics gauges, and the bench harness's wall-clock
/// lane.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WallClock {
    /// Pre-pass plus bucketing compute (host side of the parse phase).
    pub parse: f64,
    /// The exchange + count round loop through staging in (wire and
    /// kernels interleave, so the loop is one stage); out of core, both
    /// passes.
    pub rounds: f64,
    /// The count drain and table finalization.
    pub finish: f64,
    /// The whole staged run, entry to report assembly.
    pub total: f64,
}

/// Exchange-volume accounting for one run (Table II's columns).
#[derive(Clone, Debug, Default)]
pub struct ExchangeSummary {
    /// Units exchanged: k-mers for the k-mer pipelines, supermers for the
    /// supermer pipeline.
    pub units: u64,
    /// Exact payload bytes moved through the Alltoallv(s).
    pub bytes: u64,
    /// Bytes that crossed node boundaries.
    pub off_node_bytes: u64,
    /// Bytes of [`ExchangeSummary::bytes`] whose source and destination
    /// shared a node (`bytes - off_node_bytes`, kept explicit so the two
    /// tiers always reconcile).
    pub intra_node_bytes: u64,
    /// Hierarchical routing only: extra bytes moved over the intra-node
    /// tier by the gather-to-leader and scatter-from-leader hops
    /// (DESIGN.md §10). Zero under direct routing.
    pub intra_tier_bytes: u64,
    /// Hierarchical routing only: coalesced inter-node frames sent over
    /// the injection tier (one per communicating (node, node) pair per
    /// collective). Zero under direct routing.
    pub coalesced_messages: u64,
    /// Simulated time of the Alltoallv itself (excl. staging) — Fig. 8's
    /// quantity. Always the pure wire time, even when compute was
    /// overlapped behind it.
    pub alltoallv_time: SimTime,
    /// How many memory-bounded rounds the exchange was split into
    /// (§III-A); 1 when `round_limit_bytes` is unset.
    pub rounds: u64,
    /// Fault recovery: buckets re-sent after a failed or corrupt
    /// delivery (zero without a fault plan).
    pub retries: u64,
    /// Fault recovery: buckets that arrived with a checksum mismatch and
    /// were discarded (a subset of [`ExchangeSummary::retries`]).
    pub corrupt_buckets: u64,
    /// Bytes of [`ExchangeSummary::bytes`] re-sent on retry attempts;
    /// first-attempt traffic is `bytes - retry_bytes`.
    pub retry_bytes: u64,
    /// Simulated time spent recovering: retry collectives plus backoff,
    /// charged separately from [`ExchangeSummary::alltoallv_time`]
    /// (which stays pure first-attempt wire time).
    pub recovery_time: SimTime,
    /// Rank-failure recovery: ranks that died and were recovered from
    /// (zero without a rank plan).
    pub rank_deaths: u64,
    /// Rank-failure recovery: payload bytes replayed to the survivors
    /// that inherited dead ranks' key ranges (zero without deaths).
    pub replayed_bytes: u64,
}

/// Bin-store accounting of an out-of-core `--two-pass` run (DESIGN.md
/// §12). The exchange itself is reported by [`ExchangeSummary`] exactly
/// as in memory; this covers only the disk between the two passes.
#[derive(Clone, Debug, Default)]
pub struct StorageSummary {
    /// Bins in the manifest.
    pub bins: u64,
    /// Payload bytes pass 1 wrote (the manifest's total).
    pub write_bytes: u64,
    /// Payload bytes pass 2 read back.
    pub read_bytes: u64,
    /// Transient read errors retried.
    pub io_retries: u64,
    /// Damaged bins quarantined, each then re-derived once.
    pub quarantined_bins: u64,
    /// Payload bytes re-derived into fresh generations.
    pub rederived_bytes: u64,
    /// Simulated disk seconds spent recovering: retry seeks plus
    /// re-derivation.
    pub recovery_time: SimTime,
}

impl ExchangeSummary {
    /// Payload volume.
    pub fn volume(&self) -> DataVolume {
        DataVolume::from_bytes(self.bytes)
    }
}

/// Per-rank counting load (Table III): k-mer instances counted by each
/// rank.
#[derive(Clone, Debug)]
pub struct LoadSummary {
    /// k-mer instances counted per rank.
    pub kmers_per_rank: Vec<u64>,
}

impl LoadSummary {
    /// Table III's statistics over the per-rank loads.
    pub fn stats(&self) -> DistStats {
        DistStats::from_loads(&self.kmers_per_rank).expect("at least one rank")
    }

    /// Table III's imbalance metric: max load / average load.
    pub fn imbalance(&self) -> f64 {
        self.stats().imbalance()
    }
}

/// Aggregate insertion rate (Fig. 9's y-axis): k-mers counted per second
/// of *compute* time (parse + count, exchange excluded — the figure's
/// caption says "excl. exchange module").
pub fn insertion_rate(total_kmers: u64, parse: SimTime, count: SimTime) -> Option<Rate> {
    Rate::observed(total_kmers as f64, parse + count)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_total_and_fraction() {
        let b = PhaseBreakdown {
            parse: SimTime::from_secs(1.0),
            exchange: SimTime::from_secs(8.0),
            count: SimTime::from_secs(1.0),
        };
        assert_eq!(b.total().as_secs(), 10.0);
        assert!((b.exchange_fraction() - 0.8).abs() < 1e-12);
        assert_eq!(PhaseBreakdown::default().exchange_fraction(), 0.0);
    }

    #[test]
    fn load_summary_matches_table3_metric() {
        let l = LoadSummary {
            kmers_per_rank: vec![100, 100, 100, 174],
        };
        // mean = 118.5, max = 174 → 1.468…
        assert!((l.imbalance() - 174.0 / 118.5).abs() < 1e-9);
    }

    #[test]
    fn insertion_rate_excludes_exchange() {
        let r =
            insertion_rate(1_000_000, SimTime::from_secs(0.5), SimTime::from_secs(0.5)).unwrap();
        assert!((r.units_per_sec() - 1e6).abs() < 1e-6);
        assert!(insertion_rate(0, SimTime::from_secs(1.0), SimTime::ZERO).is_none());
    }

    #[test]
    fn exchange_summary_volume() {
        let e = ExchangeSummary {
            units: 10,
            bytes: 1 << 20,
            off_node_bytes: 1 << 19,
            alltoallv_time: SimTime::from_millis(3.0),
            rounds: 1,
            ..Default::default()
        };
        assert_eq!(format!("{}", e.volume()), "1.00 MiB");
    }
}
