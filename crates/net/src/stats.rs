//! Communication statistics: the exact byte and message counts behind the
//! paper's Table II.

/// Accumulated statistics over one or more collectives.
#[derive(Clone, Debug, Default)]
pub struct CommStats {
    /// Number of collective operations performed.
    pub collectives: u64,
    /// Total payload bytes moved (sum over all rank pairs, both on- and
    /// off-node).
    pub total_bytes: u64,
    /// Payload bytes that crossed node boundaries.
    pub off_node_bytes: u64,
    /// Payload bytes whose endpoints shared a node (exactly
    /// `total_bytes - off_node_bytes`, accumulated explicitly so Table II
    /// style reports never have to re-derive it).
    pub intra_node_bytes: u64,
    /// Bytes moved over the *intra-node tier* by hierarchical routing:
    /// every payload byte crosses it twice (gather to the source node's
    /// leader, scatter from the destination node's leader). Zero under
    /// direct routing.
    pub intra_tier_bytes: u64,
    /// Coalesced inter-node frames sent by hierarchical routing (one per
    /// non-empty `(node, node)` pair per collective). Zero under direct
    /// routing, where every non-empty rank-pair payload is its own
    /// message.
    pub coalesced_messages: u64,
    /// Bytes of [`CommStats::total_bytes`] that were *re-sent* on retry
    /// attempts after a fault (zero on a fault-free fabric). First-attempt
    /// traffic is `total_bytes - retry_bytes`.
    pub retry_bytes: u64,
    /// Buckets that failed to send (transient link fault) across all
    /// attempts.
    pub failed_sends: u64,
    /// Buckets delivered with a checksum mismatch and discarded.
    pub corrupt_buckets: u64,
}

impl CommStats {
    /// Records one Alltoallv given its send-byte matrix and a node
    /// assignment function.
    pub fn record_alltoallv(&mut self, send_bytes: &[Vec<u64>], node_of: impl Fn(usize) -> usize) {
        self.collectives += 1;
        for (i, row) in send_bytes.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                self.total_bytes += b;
                if node_of(i) != node_of(j) {
                    self.off_node_bytes += b;
                } else {
                    self.intra_node_bytes += b;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_one_alltoallv() {
        let mut s = CommStats::default();
        // 2 nodes × 2 ranks: node_of = rank / 2.
        let m = vec![
            vec![0, 10, 20, 30],
            vec![1, 0, 2, 3],
            vec![0, 0, 0, 5],
            vec![7, 0, 0, 0],
        ];
        s.record_alltoallv(&m, |r| r / 2);
        assert_eq!(s.collectives, 1);
        assert_eq!(s.total_bytes, 78);
        // Off-node: 0→2 (20), 0→3 (30), 1→2 (2), 1→3 (3), 3→0 (7) = 62.
        assert_eq!(s.off_node_bytes, 62);
        // On-node: 0→1 (10), 1→0 (1), 2→3 (5) = 16; the split is exact.
        assert_eq!(s.intra_node_bytes, 16);
        assert_eq!(s.intra_node_bytes + s.off_node_bytes, s.total_bytes);
        // Direct-route accounting leaves the hierarchical tiers at zero.
        assert_eq!(s.intra_tier_bytes, 0);
        assert_eq!(s.coalesced_messages, 0);
    }
}
