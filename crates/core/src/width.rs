//! The packed-key width abstraction that makes the counting stack
//! generic over k.
//!
//! [`PackedKmer`] unifies the two key widths the counters run at —
//! `u64` for the paper's narrow regime (k ≤ 31) and `u128` for the
//! wide-k extension (k ≤ 63) — by combining the hash-table key contract
//! ([`TableKey`]) with the bit-packing contract
//! ([`dedukt_dna::kmer::KmerWord`]) and adding what the staged driver
//! needs on top: exact wire-byte sizes (8 vs 16 for k-mers, 9 vs 17 for
//! supermers) and the width's counting bounds.
//!
//! With this trait in place there is exactly one driver, one set of
//! `CounterStages`, one device table, and one CLI path; k ≤ 31 and
//! k ≤ 63 differ only in the type parameter.

use crate::table::TableKey;
use dedukt_dna::kmer::KmerWord;

/// A packed k-mer key the full counting stack can run on: hashable table
/// key and 2-bit packable word.
///
/// The counting bound is one below the packing bound at either width:
/// the all-ones word (k = [`KmerWord::MAX_K`], every base the symbol 3)
/// would collide with the empty-slot sentinel [`TableKey::EMPTY`], so
/// the pipelines cap k at [`PackedKmer::MAX_COUNTING_K`].
pub trait PackedKmer: TableKey + KmerWord + dedukt_net::WireHash {
    /// Bytes one packed k-mer occupies on the wire (8 or 16).
    const KMER_WIRE_BYTES: u64 = Self::WORD_BYTES as u64;

    /// Bytes one supermer occupies on the wire: the packed word plus a
    /// length byte (9 or 17, §IV-B).
    const SUPERMER_WIRE_BYTES: u64 = Self::WORD_BYTES as u64 + 1;

    /// Largest k the counting pipelines accept at this width (31 or 63).
    const MAX_COUNTING_K: usize;

    /// Largest supermer length in bases one word can pack, which bounds
    /// `window + k - 1` (32 or 64).
    const MAX_SUPERMER_BASES: usize = Self::MAX_K;

    /// Widens the packed word to `u128` losslessly — the serialization
    /// hatch the out-of-core bin store uses for on-disk records and
    /// counts files at either width (DESIGN.md §12).
    fn to_u128(self) -> u128;

    /// Inverse of [`PackedKmer::to_u128`]. Truncating — only feed it
    /// values this width produced.
    fn from_u128(v: u128) -> Self;
}

impl PackedKmer for u64 {
    const MAX_COUNTING_K: usize = 31;

    fn to_u128(self) -> u128 {
        self as u128
    }

    fn from_u128(v: u128) -> u64 {
        v as u64
    }
}

impl PackedKmer for u128 {
    const MAX_COUNTING_K: usize = 63;

    fn to_u128(self) -> u128 {
        self
    }

    fn from_u128(v: u128) -> u128 {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_bytes_match_the_paper_figures() {
        assert_eq!(<u64 as PackedKmer>::KMER_WIRE_BYTES, 8);
        assert_eq!(<u64 as PackedKmer>::SUPERMER_WIRE_BYTES, 9);
        assert_eq!(<u128 as PackedKmer>::KMER_WIRE_BYTES, 16);
        assert_eq!(<u128 as PackedKmer>::SUPERMER_WIRE_BYTES, 17);
        assert_eq!(<u64 as PackedKmer>::MAX_COUNTING_K, 31);
        assert_eq!(<u128 as PackedKmer>::MAX_COUNTING_K, 63);
        assert_eq!(<u64 as PackedKmer>::MAX_SUPERMER_BASES, 32);
        assert_eq!(<u128 as PackedKmer>::MAX_SUPERMER_BASES, 64);
    }
}
