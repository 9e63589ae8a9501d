//! Exchange routing — how Alltoallv payloads physically travel.
//!
//! [`crate::cost::ExchangeAlgo`] *prices* the collective; `ExchangeRoute`
//! *routes* it. The two are derived from the same knob so the clocks and
//! the payload paths always agree:
//!
//! - [`ExchangeRoute::Direct`] — every `(src, dst)` bucket travels as its
//!   own per-rank-pair message (the paper's `MPI_Alltoallv`, §III-B).
//!   Bit-for-bit identical to the pre-routing engine behavior.
//! - [`ExchangeRoute::Hierarchical`] — the two-level collective of §VI's
//!   outlook: every rank first gathers its per-destination-node payloads
//!   to its node's *leader* rank over the intra-node tier (NVLink /
//!   shared memory), the leader sends **one coalesced frame per
//!   (node, node) pair** over the injection tier, and the receiving
//!   leader scatters buckets to their final ranks. Delivered payloads are
//!   identical to `Direct`; only the path — and therefore the per-tier
//!   byte accounting and the fault granularity — changes.
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

/// How Alltoallv payloads are physically routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeRoute {
    /// One message per `(rank, rank)` pair — today's behavior, preserved
    /// bit-for-bit.
    Direct,
    /// Two-level: intra-node gather to a leader, one coalesced frame per
    /// `(node, node)` pair over injection, intra-node scatter on receipt.
    Hierarchical,
}

impl ExchangeRoute {
    /// The route implied by a pricing algorithm; keeps routing and the
    /// cost model in lock-step (a `NodeAggregated` price with direct
    /// routing would charge for frames that never existed).
    pub fn from_algo(algo: ExchangeAlgo) -> ExchangeRoute {
        match algo {
            ExchangeAlgo::Direct => ExchangeRoute::Direct,
            ExchangeAlgo::NodeAggregated => ExchangeRoute::Hierarchical,
        }
    }

    /// Parses a CLI-facing name (`direct` | `hierarchical`).
    pub fn parse(s: &str) -> Result<ExchangeRoute, String> {
        match s {
            "direct" => Ok(ExchangeRoute::Direct),
            "hierarchical" => Ok(ExchangeRoute::Hierarchical),
            other => Err(format!(
                "unknown exchange algorithm `{other}` (expected `direct` or `hierarchical`)"
            )),
        }
    }

    /// The pricing algorithm this route implies (inverse of
    /// [`ExchangeRoute::from_algo`]).
    pub fn algo(self) -> ExchangeAlgo {
        match self {
            ExchangeRoute::Direct => ExchangeAlgo::Direct,
            ExchangeRoute::Hierarchical => ExchangeAlgo::NodeAggregated,
        }
    }

    /// Stable lowercase label (journal detail, bench reports).
    pub fn label(self) -> &'static str {
        match self {
            ExchangeRoute::Direct => "direct",
            ExchangeRoute::Hierarchical => "hierarchical",
        }
    }

    /// The fate of the `(src, dst)` bucket at `(round, attempt)` under
    /// this route — the single point that decides every routed fate.
    ///
    /// `Direct` draws one fate per rank pair, exactly as before. Under
    /// `Hierarchical`, a bucket whose endpoints share a node never leaves
    /// the intra-node tier and keeps its per-bucket fate; a cross-node
    /// bucket travels inside the `(node, node)` coalesced frame, so its
    /// fate is the *frame's*, drawn at node coordinates offset by
    /// `nranks` (fault schedules hash raw coordinates, so offsetting by
    /// the rank count keeps frame draws disjoint from every per-rank
    /// draw without touching the fault engine).
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
            ExchangeRoute::Hierarchical if !topo.same_node(src, dst) => {
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
    fn route_follows_algo() {
        assert_eq!(
            ExchangeRoute::from_algo(ExchangeAlgo::Direct),
            ExchangeRoute::Direct
        );
        assert_eq!(
            ExchangeRoute::from_algo(ExchangeAlgo::NodeAggregated),
            ExchangeRoute::Hierarchical
        );
        assert_eq!(ExchangeRoute::Direct.algo(), ExchangeAlgo::Direct);
        assert_eq!(
            ExchangeRoute::Hierarchical.algo(),
            ExchangeAlgo::NodeAggregated
        );
    }

    #[test]
    fn parse_accepts_both_names_and_rejects_garbage() {
        assert_eq!(ExchangeRoute::parse("direct"), Ok(ExchangeRoute::Direct));
        assert_eq!(
            ExchangeRoute::parse("hierarchical"),
            Ok(ExchangeRoute::Hierarchical)
        );
        assert!(ExchangeRoute::parse("fancy").unwrap_err().contains("fancy"));
        assert_eq!(ExchangeRoute::Direct.label(), "direct");
        assert_eq!(ExchangeRoute::Hierarchical.label(), "hierarchical");
    }

    #[test]
    fn hierarchical_fates_are_shared_per_frame() {
        let topo = Topology::new(3, 4); // 12 ranks
        let plan = FaultPlan::new(42, FaultSpec::parse("fail=0.5,corrupt=0.2").unwrap());
        let route = ExchangeRoute::Hierarchical;
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
                    ExchangeRoute::Hierarchical.bucket_fate(&plan, &topo, 0, 0, src, dst),
                    ExchangeRoute::Direct.bucket_fate(&plan, &topo, 0, 0, src, dst),
                    "intra-node buckets keep their per-bucket fate"
                );
            }
        }
    }
}
