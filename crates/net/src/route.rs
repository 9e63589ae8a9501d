//! Exchange routing — how Alltoallv payloads physically travel.
//!
//! [`ExchangeAlgo`] both *prices* the collective ([`crate::cost`]) and,
//! here, *routes* it, so the clocks and the payload paths always agree:
//!
//! - [`ExchangeAlgo::Direct`] — every `(src, dst)` bucket travels as its
//!   own per-rank-pair message (the paper's `MPI_Alltoallv`, §III-B).
//! - [`ExchangeAlgo::NodeAggregated`] (`hierarchical`) — the two-level
//!   collective of §VI's outlook: every rank first gathers its
//!   per-destination-node payloads to its node's *leader* rank over the
//!   intra-node tier (NVLink / shared memory), the leader sends **one
//!   coalesced frame per (node, node) pair** over the injection tier, and
//!   the receiving leader scatters buckets to their final ranks.
//!   Delivered payloads are identical to `Direct`; only the path — and
//!   therefore the per-tier byte accounting and the fault granularity —
//!   changes.
//!
//! Fault composition (DESIGN.md §10): with hierarchical routing, fates
//! are drawn *per coalesced inter-node frame* at the injection tier and
//! *per bucket* on the intra-node tier. Fates come from the pure
//! [`FaultPlan`] at those coordinates, so a sequential reference can
//! replay every fate without the engine's state, and a retry resends
//! only the failed frames (all buckets of a frame fail or deliver
//! together).

use crate::cost::ExchangeAlgo;
use crate::fault::{BucketFate, FaultPlan};
use crate::topology::Topology;

impl ExchangeAlgo {
    /// The fate of the `(src, dst)` bucket at `(round, attempt)` under
    /// this route — the single point that decides every routed fate.
    ///
    /// `Direct` draws one fate per rank pair. Under `NodeAggregated`, a
    /// bucket whose endpoints share a node never leaves the intra-node
    /// tier and keeps its per-bucket fate; a cross-node bucket travels
    /// inside the `(node, node)` coalesced frame, so its fate is the
    /// *frame's*, drawn at node coordinates offset by `nranks` (fault
    /// schedules hash raw coordinates, so offsetting by the rank count
    /// keeps frame draws disjoint from every per-rank draw without
    /// touching the fault engine).
    pub fn bucket_fate(
        self,
        plan: &FaultPlan,
        topo: &Topology,
        round: u64,
        attempt: u32,
        src: usize,
        dst: usize,
    ) -> BucketFate {
        let p = topo.nranks();
        let (from, to) = match self {
            ExchangeAlgo::NodeAggregated if !topo.same_node(src, dst) => {
                (p + topo.node_of(src), p + topo.node_of(dst))
            }
            _ => (src, dst),
        };
        crate::fault::bucket_fate(plan, round, attempt, from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSpec;

    #[test]
    fn hierarchical_fates_are_shared_per_frame() {
        let topo = Topology::new(3, 4); // 12 ranks
        let plan = FaultPlan::new(42, FaultSpec::parse("fail=0.5,corrupt=0.2").unwrap());
        let route = ExchangeAlgo::NodeAggregated;
        // Every cross-node (src, dst) pair with the same (node, node)
        // coordinates draws the same fate — the frame's.
        for src_node in 0..3 {
            for dst_node in 0..3 {
                if src_node == dst_node {
                    continue;
                }
                let fates: Vec<_> = topo
                    .ranks_of(src_node)
                    .flat_map(|s| {
                        topo.ranks_of(dst_node)
                            .map(move |d| route.bucket_fate(&plan, &topo, 3, 1, s, d))
                    })
                    .collect();
                assert!(
                    fates.windows(2).all(|w| w[0] == w[1]),
                    "frame ({src_node},{dst_node}) fates must agree: {fates:?}"
                );
            }
        }
    }

    #[test]
    fn same_node_fates_match_direct() {
        let topo = Topology::new(2, 6);
        let plan = FaultPlan::new(7, FaultSpec::parse("fail=0.4").unwrap());
        for src in 0..6 {
            for dst in 0..6 {
                assert_eq!(
                    ExchangeAlgo::NodeAggregated.bucket_fate(&plan, &topo, 0, 0, src, dst),
                    ExchangeAlgo::Direct.bucket_fate(&plan, &topo, 0, 0, src, dst),
                    "intra-node buckets keep their per-bucket fate"
                );
            }
        }
    }
}
