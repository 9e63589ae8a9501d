//! Collective cost model (α-β with a node-injection bottleneck).
//!
//! The paper's §IV-D analyses the exchange as a per-processor volume of
//! `O((P−1)/P × K/P × k)` bytes; at scale the binding constraint on Summit
//! is each node's injection bandwidth (23 GB/s, §V-A). The model here:
//!
//! * Every collective pays a latency term `α × ceil(log2 P)`.
//! * On-node traffic moves at NVLink/shared-memory bandwidth, divided
//!   among the node's ranks.
//! * Off-node traffic is charged against the *node's* injection bandwidth
//!   (the max of what the node sends and receives), scaled by an
//!   `alltoallv_efficiency` factor — large-rank-count `MPI_Alltoallv` on
//!   fat-trees achieves only a few percent of peak injection in practice,
//!   which is what makes the exchange the bottleneck in Fig. 3b.
//!
//! Per-rank completion times are returned; bulk-synchronous callers take
//! the max.

use crate::topology::Topology;
use dedukt_sim::{Rate, SimTime};

/// How the personalized all-to-all is routed. The one knob both prices
/// the collective (this module) and routes its payloads
/// ([`crate::route`]), so the clocks and the payload paths always agree.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExchangeAlgo {
    /// `direct`: every rank messages every other rank directly — `P − 1`
    /// messages per rank, the default `MPI_Alltoallv` shape.
    Direct,
    /// `hierarchical`: ranks combine per-node payloads on-node first, a
    /// leader exchanges `nodes − 1` node-to-node messages, and results
    /// scatter on-node. Trades intra-node gather/scatter bandwidth for a
    /// `ranks/node ×` reduction in message count — the optimization
    /// direction of Pan et al. (SC'18), cited by the paper's §VI.
    NodeAggregated,
}

impl ExchangeAlgo {
    /// Parses a CLI-facing name (`direct` | `hierarchical`).
    pub fn parse(s: &str) -> Result<ExchangeAlgo, String> {
        match s {
            "direct" => Ok(ExchangeAlgo::Direct),
            "hierarchical" => Ok(ExchangeAlgo::NodeAggregated),
            other => Err(format!(
                "unknown exchange algorithm `{other}` (expected `direct` or `hierarchical`)"
            )),
        }
    }

    /// Stable lowercase CLI name (journal detail, bench reports).
    pub fn label(self) -> &'static str {
        match self {
            ExchangeAlgo::Direct => "direct",
            ExchangeAlgo::NodeAggregated => "hierarchical",
        }
    }
}

/// Network performance parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetworkParams {
    /// Point-to-point software/fabric latency per message round (seconds).
    pub alpha_secs: f64,
    /// Fixed software cost per posted message (seconds) — what makes
    /// 2,688-rank direct all-to-alls hurt and node aggregation pay off.
    pub per_message_secs: f64,
    /// Per-node injection bandwidth onto the fat-tree (bytes/s).
    pub node_injection: Rate,
    /// On-node (NVLink / shared-memory) bandwidth per node (bytes/s).
    pub intra_node: Rate,
    /// Fraction of peak injection that a many-rank `MPI_Alltoallv`
    /// actually achieves.
    pub alltoallv_efficiency: f64,
    /// Exchange routing.
    pub algo: ExchangeAlgo,
}

impl NetworkParams {
    /// Summit per §V-A: 23 GB/s injection per node, 25 GB/s NVLink links
    /// on-node, ~1.5 µs MPI latency. The 5% Alltoallv efficiency is
    /// calibrated so the H. sapiens 54X exchange on 64 nodes lands in the
    /// paper's observed ~25-30 s range (Fig. 7b); see EXPERIMENTS.md.
    pub fn summit() -> NetworkParams {
        NetworkParams {
            alpha_secs: 1.5e-6,
            per_message_secs: 0.2e-6,
            node_injection: Rate::gb_per_sec(23.0),
            intra_node: Rate::gb_per_sec(75.0),
            alltoallv_efficiency: 0.05,
            algo: ExchangeAlgo::Direct,
        }
    }
}

/// The simulated NVMe/SSD storage tier used by the out-of-core
/// two-pass pipeline (DESIGN.md §12): sequential bandwidth per
/// direction plus a per-operation seek/submission latency. Like the
/// network parameters, these only price time — the bytes themselves are
/// written for real by `dedukt-store`.
#[derive(Clone, Copy, Debug)]
pub struct SsdParams {
    /// Sequential write bandwidth (bytes/s).
    pub write_bw: Rate,
    /// Sequential read bandwidth (bytes/s).
    pub read_bw: Rate,
    /// Per-operation latency (seek + queue submission), seconds.
    pub seek_secs: f64,
}

impl SsdParams {
    /// A Summit-era datacenter NVMe drive: ~2.0 GB/s sequential write,
    /// ~3.5 GB/s sequential read, ~100 µs per operation.
    pub fn nvme() -> SsdParams {
        SsdParams {
            write_bw: Rate::gb_per_sec(2.0),
            read_bw: Rate::gb_per_sec(3.5),
            seek_secs: 100e-6,
        }
    }

    /// Time to write `bytes` in one sequential operation.
    pub fn write_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(self.seek_secs) + self.write_bw.time_for(bytes as f64)
    }

    /// Time to read `bytes` in one sequential operation.
    pub fn read_time(&self, bytes: u64) -> SimTime {
        SimTime::from_secs(self.seek_secs) + self.read_bw.time_for(bytes as f64)
    }
}

/// A topology plus its performance parameters.
#[derive(Clone, Copy, Debug)]
pub struct Network {
    /// Rank→node layout.
    pub topology: Topology,
    /// Link parameters.
    pub params: NetworkParams,
}

impl Network {
    /// Summit with 6 GPU ranks per node.
    pub fn summit_gpu(nodes: usize) -> Network {
        Network {
            topology: Topology::summit_gpu(nodes),
            params: NetworkParams::summit(),
        }
    }

    /// Summit with 42 CPU ranks per node.
    pub fn summit_cpu(nodes: usize) -> Network {
        Network {
            topology: Topology::summit_cpu(nodes),
            params: NetworkParams::summit(),
        }
    }

    /// Latency term for one collective over `p` ranks.
    pub fn latency(&self, p: usize) -> SimTime {
        let rounds = (p.max(2) as f64).log2().ceil();
        SimTime::from_secs(self.params.alpha_secs * rounds)
    }

    /// Per-node off-node send/recv volumes and per-node on-node volume:
    /// `(node_out, node_in, node_local)`.
    fn node_volumes(&self, send_bytes: &[Vec<u64>]) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let t = &self.topology;
        let p = t.nranks();
        assert_eq!(send_bytes.len(), p, "send matrix must be P×P");
        for row in send_bytes {
            assert_eq!(row.len(), p, "send matrix must be P×P");
        }
        let mut node_out = vec![0u64; t.nodes];
        let mut node_in = vec![0u64; t.nodes];
        let mut node_local = vec![0u64; t.nodes];
        for (i, row) in send_bytes.iter().enumerate() {
            let ni = t.node_of(i);
            for (j, &b) in row.iter().enumerate() {
                let nj = t.node_of(j);
                if ni == nj {
                    node_local[ni] += b;
                } else {
                    node_out[ni] += b;
                    node_in[nj] += b;
                }
            }
        }
        (node_out, node_in, node_local)
    }

    /// Per-node aggregation overhead under the active routing: the
    /// intra-node tier's gather+scatter time for node-aggregated routing
    /// (every payload crosses the intra-node fabric twice), all-zero for
    /// direct routing.
    fn aggregate_overhead(&self, node_out: &[u64], node_local: &[u64]) -> Vec<SimTime> {
        match self.params.algo {
            ExchangeAlgo::Direct => vec![SimTime::ZERO; self.topology.nodes],
            ExchangeAlgo::NodeAggregated => (0..self.topology.nodes)
                .map(|n| {
                    self.params
                        .intra_node
                        .time_for(2.0 * (node_out[n] + node_local[n]) as f64)
                })
                .collect(),
        }
    }

    /// The *intra-node tier* component of [`Network::alltoallv_times`]
    /// per rank — the leader gather/scatter overhead the hierarchical
    /// route pays before anything reaches the injection tier. All-zero
    /// under direct routing, and exactly the `aggregate_overhead` term
    /// inside `alltoallv_times` (so `total − intra` is the injection-tier
    /// share, with no float drift between the two views).
    pub fn alltoallv_intra_times(&self, send_bytes: &[Vec<u64>]) -> Vec<SimTime> {
        let (node_out, _, node_local) = self.node_volumes(send_bytes);
        let per_node = self.aggregate_overhead(&node_out, &node_local);
        (0..self.topology.nranks())
            .map(|i| per_node[self.topology.node_of(i)])
            .collect()
    }

    /// Models an Alltoallv: `send_bytes[i][j]` is the payload rank `i`
    /// sends to rank `j`. Returns per-rank completion times relative to a
    /// synchronized start.
    pub fn alltoallv_times(&self, send_bytes: &[Vec<u64>]) -> Vec<SimTime> {
        let t = &self.topology;
        let p = t.nranks();
        let (node_out, node_in, node_local) = self.node_volumes(send_bytes);

        let wire_bw = self
            .params
            .node_injection
            .scaled(self.params.alltoallv_efficiency);
        let latency = self.latency(p);

        // Message-count term and aggregation overhead depend on routing:
        // a leader exchanges nodes−1 coalesced frames instead of every
        // rank posting P−1 messages.
        let messages_per_rank: f64 = match self.params.algo {
            ExchangeAlgo::Direct => (p - 1) as f64,
            ExchangeAlgo::NodeAggregated => (t.nodes.saturating_sub(1)) as f64,
        };
        let aggregate_overhead = self.aggregate_overhead(&node_out, &node_local);
        let msg_cost = SimTime::from_secs(self.params.per_message_secs * messages_per_rank);

        (0..p)
            .map(|i| {
                let n = t.node_of(i);
                // The node's wire time is shared by all its ranks (they
                // inject through the same NIC); on-node traffic moves at
                // intra-node bandwidth.
                let wire = wire_bw.time_for(node_out[n].max(node_in[n]) as f64);
                let local = self.params.intra_node.time_for(node_local[n] as f64);
                latency + msg_cost + aggregate_overhead[n] + wire.max(local)
            })
            .collect()
    }

    /// Models an Allreduce of `bytes` per rank (recursive doubling:
    /// log2(P) rounds of latency plus 2×bytes on the wire).
    pub fn allreduce_time(&self, bytes: u64) -> SimTime {
        let p = self.topology.nranks();
        let wire = self
            .params
            .node_injection
            .scaled(self.params.alltoallv_efficiency)
            .time_for(2.0 * bytes as f64);
        self.latency(p) + wire
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_matrix(p: usize, bytes: u64) -> Vec<Vec<u64>> {
        vec![vec![bytes; p]; p]
    }

    #[test]
    fn parse_accepts_both_names_and_rejects_garbage() {
        assert_eq!(ExchangeAlgo::parse("direct"), Ok(ExchangeAlgo::Direct));
        assert_eq!(
            ExchangeAlgo::parse("hierarchical"),
            Ok(ExchangeAlgo::NodeAggregated)
        );
        assert!(ExchangeAlgo::parse("fancy").unwrap_err().contains("fancy"));
        assert_eq!(ExchangeAlgo::Direct.label(), "direct");
        assert_eq!(ExchangeAlgo::NodeAggregated.label(), "hierarchical");
    }

    #[test]
    fn empty_exchange_costs_latency_and_messages_only() {
        let net = Network::summit_gpu(2);
        let times = net.alltoallv_times(&uniform_matrix(12, 0));
        let expect = net.latency(12) + SimTime::from_secs(net.params.per_message_secs * 11.0);
        for t in &times {
            assert_eq!(*t, expect);
        }
    }

    #[test]
    fn node_aggregation_cuts_message_cost_at_scale() {
        // 2,688 CPU ranks: direct = 2,687 messages/rank; aggregated = 63.
        let mut direct = Network::summit_cpu(64);
        direct.params.algo = ExchangeAlgo::Direct;
        let mut agg = direct;
        agg.params.algo = ExchangeAlgo::NodeAggregated;
        let p = direct.topology.nranks();
        // Tiny payloads: message overheads dominate.
        let m = uniform_matrix(p, 16);
        let td = direct.alltoallv_times(&m)[0];
        let ta = agg.alltoallv_times(&m)[0];
        assert!(
            ta < td,
            "aggregated {ta} should beat direct {td} on small messages"
        );
    }

    #[test]
    fn node_aggregation_pays_bandwidth_on_big_payloads() {
        // Large payloads: the double intra-node hop costs more than the
        // message savings on a small rank count.
        let mut direct = Network::summit_gpu(2);
        direct.params.algo = ExchangeAlgo::Direct;
        let mut agg = direct;
        agg.params.algo = ExchangeAlgo::NodeAggregated;
        let p = direct.topology.nranks();
        let m = uniform_matrix(p, 10_000_000);
        let td = direct.alltoallv_times(&m)[0];
        let ta = agg.alltoallv_times(&m)[0];
        assert!(
            ta > td,
            "aggregated {ta} should lose to direct {td} on big payloads"
        );
    }

    #[test]
    fn intra_times_split_the_aggregated_total_exactly() {
        let mut net = Network::summit_gpu(3);
        net.params.algo = ExchangeAlgo::NodeAggregated;
        let p = net.topology.nranks();
        let m = uniform_matrix(p, 4096);
        let total = net.alltoallv_times(&m);
        let intra = net.alltoallv_intra_times(&m);
        // The intra component is positive and strictly inside the total,
        // and subtracting it recovers the direct-shape remainder with no
        // float drift (same SimTime arithmetic on both paths).
        for (t, i) in total.iter().zip(&intra) {
            assert!(*i > SimTime::ZERO);
            assert!(i < t);
        }
        // Direct routing has no intra tier.
        net.params.algo = ExchangeAlgo::Direct;
        assert!(net.alltoallv_intra_times(&m).iter().all(|t| t.is_zero()));
    }

    #[test]
    fn volume_scales_time_linearly() {
        let net = Network::summit_gpu(4);
        let p = net.topology.nranks();
        let t1 = net.alltoallv_times(&uniform_matrix(p, 1_000_000));
        let t2 = net.alltoallv_times(&uniform_matrix(p, 2_000_000));
        let fixed = net.alltoallv_times(&uniform_matrix(p, 0))[0];
        let r = (t2[0] - fixed).as_secs() / (t1[0] - fixed).as_secs();
        assert!((r - 2.0).abs() < 1e-6, "ratio {r}");
    }

    #[test]
    fn off_node_traffic_is_the_bottleneck() {
        let net = Network::summit_gpu(2);
        let p = net.topology.nranks();
        // All traffic on-node vs all traffic off-node, same total volume.
        let mut local = vec![vec![0u64; p]; p];
        let mut remote = vec![vec![0u64; p]; p];
        for i in 0..p {
            for j in 0..p {
                if net.topology.same_node(i, j) {
                    local[i][j] = 1_000_000;
                } else {
                    remote[i][j] = 1_000_000;
                }
            }
        }
        let tl = net.alltoallv_times(&local)[0];
        let tr = net.alltoallv_times(&remote)[0];
        assert!(tr > tl * 2.0, "remote {tr} vs local {tl}");
    }

    #[test]
    fn hot_node_slows_only_its_ranks() {
        let net = Network::summit_gpu(2);
        let p = net.topology.nranks(); // 12 ranks, node 0 = ranks 0..6
        let mut m = vec![vec![0u64; p]; p];
        // Rank 0 sends a lot to rank 6 (off-node): node 0 sends, node 1
        // receives — both are charged, so compare against a third,
        // uninvolved direction by adding a second, idle node pair… with 2
        // nodes everyone is involved; instead check rank times are equal
        // within a node.
        m[0][6] = 50_000_000;
        let times = net.alltoallv_times(&m);
        for r in 0..6 {
            assert_eq!(times[r], times[0], "node-0 ranks share the NIC");
        }
        for r in 6..12 {
            assert_eq!(times[r], times[6]);
        }
    }

    #[test]
    fn supermer_reduction_shows_up_as_speedup() {
        // Table II E. coli: 412M k-mers × 8 B vs 108M supermers × 9 B.
        let net = Network::summit_gpu(16);
        let p = net.topology.nranks();
        let kmer_each = 412_000_000 * 8 / (p * p) as u64;
        let smer_each = 108_000_000 * 9 / (p * p) as u64;
        let tk = net.alltoallv_times(&uniform_matrix(p, kmer_each))[0];
        let ts = net.alltoallv_times(&uniform_matrix(p, smer_each))[0];
        let speedup = tk / ts;
        assert!(
            (2.5..4.5).contains(&speedup),
            "expected ~3.4x Alltoallv speedup, got {speedup}"
        );
    }

    #[test]
    fn allreduce_scales_with_rank_count() {
        let small = Network::summit_gpu(2);
        let big = Network::summit_gpu(128);
        assert!(big.allreduce_time(1024) > small.allreduce_time(1024));
    }

    #[test]
    #[should_panic(expected = "P×P")]
    fn wrong_matrix_shape_rejected() {
        let net = Network::summit_gpu(2);
        net.alltoallv_times(&uniform_matrix(5, 1));
    }

    #[test]
    fn ssd_tier_prices_seek_plus_bandwidth() {
        let ssd = SsdParams::nvme();
        // Zero-byte operations still pay the seek.
        assert_eq!(ssd.write_time(0), SimTime::from_secs(ssd.seek_secs));
        assert_eq!(ssd.read_time(0), SimTime::from_secs(ssd.seek_secs));
        // Reads are faster than writes at equal volume (NVMe asymmetry).
        let mb = 50_000_000;
        assert!(ssd.read_time(mb) < ssd.write_time(mb));
        // Beyond the seek, time is linear in bytes.
        let seek = SimTime::from_secs(ssd.seek_secs);
        let r = (ssd.write_time(2 * mb) - seek).as_secs() / (ssd.write_time(mb) - seek).as_secs();
        assert!((r - 2.0).abs() < 1e-9, "ratio {r}");
        // 1 GB writes in about half a second at 2 GB/s.
        let t = ssd.write_time(1_000_000_000).as_secs();
        assert!((0.4..0.6).contains(&t), "{t}");
    }
}
