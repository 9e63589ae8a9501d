//! Property tests for the network layer: the cost model must price like a
//! network (monotone in traffic, locality-sensitive), and the BSP
//! exchange must deliver exactly what a sequential reference delivers.

use dedukt_net::cost::{ExchangeAlgo, Network};
use dedukt_net::BspWorld;
use proptest::prelude::*;

/// `send[src][dst]` buckets of 0..4 arbitrary words for `p` ranks.
fn bucket_matrix(p: usize) -> impl Strategy<Value = Vec<Vec<Vec<u64>>>> {
    let bucket = prop::collection::vec(any::<u64>(), 0..4);
    prop::collection::vec(prop::collection::vec(bucket, p), p)
}

/// Sequential Alltoallv reference: `recv[dst][src] == send[src][dst]`.
fn transpose(send: &[Vec<Vec<u64>>]) -> Vec<Vec<Vec<u64>>> {
    (0..send.len())
        .map(|dst| send.iter().map(|row| row[dst].clone()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Adding bytes anywhere never makes the Alltoallv faster for anyone.
    #[test]
    fn alltoallv_times_monotone(
        nodes in 1usize..5,
        src in 0usize..6,
        dst in 0usize..6,
        algo_agg in any::<bool>(),
    ) {
        let mut net = Network::summit_gpu(nodes);
        net.params.algo = if algo_agg { ExchangeAlgo::NodeAggregated } else { ExchangeAlgo::Direct };
        let p = net.topology.nranks();
        let base_m = vec![vec![1000u64; p]; p];
        let mut grown = base_m.clone();
        grown[src % p][dst % p] += 1 << 20;
        let base = net.alltoallv_times(&base_m);
        let more = net.alltoallv_times(&grown);
        for (b, m) in base.iter().zip(&more) {
            prop_assert!(m >= b);
        }
        prop_assert_eq!(base.len(), p);
    }

    /// Moving a payload off-node can only cost more than keeping it
    /// on-node (locality sensitivity).
    #[test]
    fn off_node_traffic_costs_at_least_on_node(bytes in 1u64..1 << 24) {
        let net = Network::summit_gpu(2);
        let p = net.topology.nranks();
        let mut local = vec![vec![0u64; p]; p];
        let mut remote = local.clone();
        local[0][1] = bytes;  // ranks 0,1 share node 0
        remote[0][6] = bytes; // rank 6 is on node 1
        let tl = net.alltoallv_times(&local)[0];
        let tr = net.alltoallv_times(&remote)[0];
        prop_assert!(tr >= tl);
    }

    /// The BSP engine's payload routing equals the sequential transpose
    /// reference for any bucket matrix, under direct and node-aggregated
    /// (hierarchical relay) routing alike.
    #[test]
    fn bsp_alltoallv_matches_a_sequential_transpose(send in bucket_matrix(12)) {
        let expect = transpose(&send);
        for algo in [ExchangeAlgo::Direct, ExchangeAlgo::NodeAggregated] {
            let mut net = Network::summit_gpu(2);
            net.params.algo = algo;
            let out = BspWorld::new(net).alltoallv(send.clone());
            prop_assert_eq!(&out.recv, &expect, "{:?}", algo);
        }
    }

    /// Collective latency grows (weakly) with scale.
    #[test]
    fn latency_grows_with_scale(small in 1usize..8, factor in 2usize..5) {
        let a = Network::summit_gpu(small);
        let b = Network::summit_gpu(small * factor);
        prop_assert!(b.latency(b.topology.nranks()) >= a.latency(a.topology.nranks()));
    }
}
