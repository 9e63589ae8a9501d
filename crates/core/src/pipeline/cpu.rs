//! The CPU baseline: Algorithm 1, diBELLA's k-mer analysis (§III-A).
//!
//! 42 ranks per node (one per Power9 core, §V-A). Each rank parses its
//! read partition into k-mers, routes every k-mer to its owner by
//! MurmurHash3, exchanges with `MPI_Alltoallv`, and counts the received
//! k-mers in a host open-addressing table. The table is sized from the
//! rank's received instances, but it holds memory only for its distinct
//! keys: [`HostCountTable`] shares the device table's image (occupancy
//! bits plus a key index). Compute phases are charged with the calibrated
//! per-core rates of [`crate::config::CpuCoreModel`] (functional results
//! are exact regardless).
//!
//! The phase skeleton (bucket → exchange rounds → count) lives in the
//! shared staged driver (`pipeline::driver`); this module only supplies
//! the CPU-specific stages and the rank's counter, `CpuCounter`, which
//! counts each delivery itself.

use crate::config::RunConfig;
use crate::partition::key_owner;
use crate::pipeline::driver::{BucketOut, Counter, CounterOom, CounterStages, DriverCtx, Sink};
use crate::pipeline::gpu_common::scaled_estimate;
use crate::pipeline::gpu_kmer::{read_ends, route_kmers_in_range};
use crate::pipeline::RankCountResult;
use crate::table::HostCountTable;
use crate::width::PackedKmer;
use dedukt_net::cost::Network;
use dedukt_sim::{MetricOp, Rate, SimTime};
use std::marker::PhantomData;

/// Host counting state threaded through the exchange rounds
/// (Algorithm 1, COUNTKMER).
pub(crate) struct CpuCounter<K: PackedKmer> {
    table: HostCountTable<K>,
    received: u64,
    /// The calibrated per-core insert rate each delivery is charged at.
    count_rate: Rate,
}

/// The host table grows transparently under load and has no device
/// budget, so `pressure` keeps its all-zero default.
impl<K: PackedKmer> Sink<K> for CpuCounter<K> {
    type Held = RankCountResult<K>;

    fn absorb(&mut self, buckets: Vec<Vec<K>>) -> Result<SimTime, CounterOom> {
        let items: u64 = buckets.iter().map(|b| b.len() as u64).sum();
        self.received += items;
        for bucket in &buckets {
            self.table.insert_all(bucket);
        }
        Ok(self.count_rate.time_for(items as f64))
    }

    fn snapshot(&self) -> RankCountResult<K> {
        RankCountResult {
            entries: self.table.iter().collect(),
            instances: self.received,
        }
    }
}

impl<K: PackedKmer> Counter<K, K> for CpuCounter<K> {
    fn finish(self, ctx: &DriverCtx, rank: usize) -> RankCountResult<K> {
        ctx.rank_metrics(rank, || {
            let table = &self.table;
            let load = table.distinct() as f64 / table.capacity() as f64;
            [
                ("kmers_counted_total", MetricOp::CounterAdd(self.received)),
                (
                    "count_probe_steps_total",
                    MetricOp::CounterAdd(table.probe_steps()),
                ),
                ("count_table_load_factor", MetricOp::GaugeSet(load)),
            ]
        });
        self.snapshot()
    }
}

pub(crate) struct CpuStages<K: PackedKmer>(pub(crate) PhantomData<K>);

impl<K: PackedKmer> CounterStages for CpuStages<K> {
    type Key = K;
    type Item = K;
    type Counter = CpuCounter<K>;

    const ITEM_WIRE_BYTES: u64 = K::KMER_WIRE_BYTES;
    const BUCKET_PHASE: &'static str = "parse";

    fn network(&self, rc: &RunConfig) -> Network {
        Network::summit_cpu(rc.nodes)
    }

    // ── Phase 1: parse & process k-mers (Algorithm 1, PARSEKMER) ──────
    fn bucket(&self, ctx: &DriverCtx, rank: usize) -> BucketOut<K> {
        let mut out: Vec<Vec<K>> = vec![Vec::new(); ctx.nranks];
        let ends = read_ends(ctx.parts[rank]);
        let bases = ends.last().copied().unwrap_or(0);
        route_kmers_in_range(ctx, rank, &ends, (0, bases), &mut out);
        // Parsing is charged on every base, reads shorter than k included.
        BucketOut {
            buckets: out,
            compute: ctx.rc.cpu_model.parse_rate.time_for(bases as f64),
            stage_out: SimTime::ZERO,
        }
    }

    fn item_instances(&self, _ctx: &DriverCtx, _item: &K) -> u64 {
        1
    }

    fn bin_of(&self, ctx: &DriverCtx, key: &K, nbins: usize) -> usize {
        key_owner(&ctx.hasher, *key, nbins)
    }

    // Phase 2, the exchange (Algorithm 1, EXCHANGEKMER), is the driver's
    // default: one collective of packed k-mers per round.

    // ── Phase 3: count (Algorithm 1, COUNTKMER) ───────────────────────
    // Each delivery is counted by the rank's `CpuCounter`.
    fn make_counter(
        &self,
        ctx: &DriverCtx,
        rank: usize,
        expected_instances: u64,
    ) -> Result<CpuCounter<K>, CounterOom> {
        // The same safety × underestimate scaling the GPU pipelines
        // apply, so the sizing story is engine-uniform; the host table
        // grows transparently under load, so an undersized estimate
        // never changes CPU results and never OOMs (no device budget) —
        // memory pressure on this engine only re-sizes the initial
        // allocation.
        Ok(CpuCounter {
            table: HostCountTable::with_expected(
                scaled_estimate(ctx.rc, rank, expected_instances),
                ctx.cfg.table_load_factor,
                ctx.cfg.hash_seed ^ 0xC0C0,
            ),
            received: 0,
            count_rate: ctx.rc.cpu_model.count_rate,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mode;
    use crate::pipeline::run;
    use crate::verify::{check_against_reference, reference_total};
    use dedukt_dna::{Dataset, DatasetId, ReadSet, ScalePreset};
    use dedukt_sim::SimTime;

    fn tiny_run(nodes: usize) -> (ReadSet, RunConfig) {
        let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
        let mut rc = RunConfig::new(Mode::CpuBaseline, nodes);
        rc.collect_tables = true;
        (reads, rc)
    }

    #[test]
    fn counts_match_oracle_exactly() {
        let (reads, rc) = tiny_run(1);
        let report = run(&reads, &rc).unwrap();
        assert_eq!(report.total_kmers, reference_total(&reads, rc.counting.k));
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap())
            .expect("distributed result must equal the oracle");
    }

    #[test]
    fn counts_match_oracle_across_node_counts() {
        let (reads, mut rc) = tiny_run(1);
        let one = run(&reads, &rc).unwrap();
        rc.nodes = 2;
        let two = run(&reads, &rc).unwrap();
        assert_eq!(one.total_kmers, two.total_kmers);
        assert_eq!(one.distinct_kmers, two.distinct_kmers);
        check_against_reference(&reads, &rc.counting, two.tables.as_ref().unwrap()).unwrap();
    }

    #[test]
    fn canonical_mode_counts_canonical_kmers() {
        let (reads, mut rc) = tiny_run(1);
        rc.counting.canonical = true;
        let report = run(&reads, &rc).unwrap();
        check_against_reference(&reads, &rc.counting, report.tables.as_ref().unwrap()).unwrap();
        let plain = {
            rc.counting.canonical = false;
            run(&reads, &rc).unwrap()
        };
        // Canonicalization can only merge keys.
        assert!(report.distinct_kmers <= plain.distinct_kmers);
        assert_eq!(report.total_kmers, plain.total_kmers);
    }

    #[test]
    fn phases_have_positive_simulated_times() {
        let (reads, rc) = tiny_run(1);
        let report = run(&reads, &rc).unwrap();
        assert!(report.phases.parse > SimTime::ZERO);
        assert!(report.phases.exchange > SimTime::ZERO);
        assert!(report.phases.count > SimTime::ZERO);
        assert_eq!(
            report.total_time(),
            report.phases.parse + report.phases.exchange + report.phases.count
        );
    }

    #[test]
    fn kmer_load_is_roughly_balanced() {
        // Algorithm 1's uniform hash should give low imbalance (the paper's
        // Table III measures 1.16 at 384 ranks; at tiny scale allow more).
        let (reads, rc) = tiny_run(1); // 42 ranks
        let report = run(&reads, &rc).unwrap();
        let imb = report.load.imbalance();
        assert!(imb < 1.6, "k-mer imbalance too high: {imb}");
    }

    #[test]
    fn exchange_units_equal_total_kmers() {
        let (reads, rc) = tiny_run(1);
        let report = run(&reads, &rc).unwrap();
        assert_eq!(report.exchange.units, report.total_kmers);
        // Packed k-mers are 8 bytes each on the wire.
        assert_eq!(report.exchange.bytes, report.total_kmers * 8);
        // Unlimited memory → a single exchange round.
        assert_eq!(report.exchange.rounds, 1);
    }
}
