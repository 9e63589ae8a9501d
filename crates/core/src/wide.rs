//! The wide-k oracle: k up to 63 (extension).
//!
//! The paper fixes k = 17, but third-generation workflows routinely use
//! larger k. Wide counting itself is no longer special-cased: all three
//! pipelines run at the `u128` key width through
//! [`crate::pipeline::run_typed`], with the packing bounds enforced by
//! [`crate::config::RunConfig::validate_for_width`]. What remains here is
//! a deliberately independent single-threaded reference counter over
//! `u128`-packed k-mers, used to cross-check the generic pipelines (and
//! the generic oracle in [`crate::verify`]) at the wide width.

use crate::config::CountingConfig;
use dedukt_dna::base::Base;
use dedukt_dna::{Encoding, ReadSet};
use std::collections::HashMap;

/// Packs base codes MSB-first, 2 bits each, into a `u128`.
fn pack(codes: impl Iterator<Item = u8>, encoding: Encoding) -> u128 {
    codes.fold(0, |w, c| (w << 2) | encoding.encode(c) as u128)
}

/// Single-threaded wide oracle: counts all k-mers of `reads` at the
/// `u128` key width (k in 32..=63; also valid for smaller k). Each k-mer
/// is packed afresh from its window of codes, and its reverse complement
/// is packed from the complemented codes in reverse order, so the oracle
/// shares no packing code with the [`dedukt_dna::kmer::KmerWord`] stack
/// it verifies.
pub fn wide_reference_counts(reads: &ReadSet, cfg: &CountingConfig) -> HashMap<u128, u64> {
    assert!((1..=64).contains(&cfg.k));
    let mut map = HashMap::new();
    for read in &reads.reads {
        for window in read.codes.windows(cfg.k) {
            let forward = pack(window.iter().copied(), cfg.encoding);
            let key = if cfg.canonical {
                let rc = window
                    .iter()
                    .rev()
                    .map(|&c| Base::from_code(c).complement().code());
                forward.min(pack(rc, cfg.encoding))
            } else {
                forward
            };
            *map.entry(key).or_insert(0) += 1;
        }
    }
    map
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::reference_counts_w;
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};

    fn reads() -> ReadSet {
        Dataset::new(DatasetId::VVulnificus30x, ScalePreset::Tiny).generate()
    }

    fn wide_cfg(k: usize) -> CountingConfig {
        CountingConfig {
            k,
            m: 11,
            window: 65 - k,
            ..CountingConfig::default()
        }
    }

    #[test]
    fn wide_oracle_agrees_with_generic_oracle() {
        let rs = reads();
        for (k, canonical) in [
            (33usize, false),
            (41, false),
            (63, false),
            (41, true),
            (64, true),
        ] {
            let cfg = CountingConfig {
                canonical,
                ..wide_cfg(k)
            };
            let independent = wide_reference_counts(&rs, &cfg);
            let generic = reference_counts_w::<u128>(&rs, &cfg);
            assert_eq!(independent, generic, "k = {k} canonical = {canonical}");
            assert_eq!(
                independent.values().sum::<u64>(),
                rs.total_kmers(k) as u64,
                "k = {k}"
            );
        }
    }

    #[test]
    fn wide_oracle_matches_narrow_oracle_at_small_k() {
        // At k ≤ 31 the wide packing must reproduce the narrow word in
        // the low bits, so the two oracles agree key-for-key.
        let rs = reads();
        let cfg = CountingConfig::default();
        let wide = wide_reference_counts(&rs, &cfg);
        let narrow = crate::verify::reference_counts(&rs, &cfg);
        assert_eq!(wide.len(), narrow.len());
        for (&k, &c) in &narrow {
            assert_eq!(wide.get(&(k as u128)), Some(&c));
        }
    }
}
