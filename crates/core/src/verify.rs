//! Reference counting oracle.
//!
//! A deliberately simple single-threaded counter: extract every k-mer of
//! every read, count in a `HashMap`. Every distributed pipeline is tested
//! against this — identical distinct counts, identical total mass,
//! identical per-k-mer counts — which is what makes the simulators'
//! functional half trustworthy.

use crate::config::CountingConfig;
use crate::width::PackedKmer;
use dedukt_dna::kmer::kmer_words_w;
use dedukt_dna::{Read, ReadSet};
use std::collections::HashMap;

/// [`reference_counts_w`] at the `u64` width (k ≤ 31).
pub fn reference_counts(reads: &ReadSet, cfg: &CountingConfig) -> HashMap<u64, u64> {
    reference_counts_w::<u64>(reads, cfg)
}

/// Width-generic oracle: counts all k-mers at the `K` key width, serving
/// k up to `K::MAX_COUNTING_K`.
pub fn reference_counts_w<K: PackedKmer>(reads: &ReadSet, cfg: &CountingConfig) -> HashMap<K, u64> {
    let mut map: HashMap<K, u64> = HashMap::new();
    for read in &reads.reads {
        count_read(read, cfg, &mut map);
    }
    map
}

fn count_read<K: PackedKmer>(read: &Read, cfg: &CountingConfig, map: &mut HashMap<K, u64>) {
    for w in kmer_words_w::<K>(&read.codes, cfg.k, cfg.encoding) {
        let key = if cfg.canonical {
            w.canonical_word(cfg.k)
        } else {
            w
        };
        *map.entry(key).or_insert(0) += 1;
    }
}

/// Total k-mer instances the oracle expects.
pub fn reference_total(reads: &ReadSet, k: usize) -> u64 {
    reads.total_kmers(k) as u64
}

/// Compares a distributed result (per-rank `(kmer, count)` lists over
/// disjoint key spaces) against the oracle, at either key width. Returns
/// `Ok(())` or a description of the first mismatch.
pub fn check_against_reference<K: PackedKmer>(
    reads: &ReadSet,
    cfg: &CountingConfig,
    per_rank: &[Vec<(K, u32)>],
) -> Result<(), String> {
    let oracle = reference_counts_w::<K>(reads, cfg);
    let mut seen: HashMap<K, u64> = HashMap::new();
    for (rank, entries) in per_rank.iter().enumerate() {
        for &(kmer, count) in entries {
            if let Some(prev) = seen.insert(kmer, count as u64) {
                return Err(format!(
                    "k-mer {kmer:?} counted on two ranks (rank {rank}; prev count {prev})"
                ));
            }
        }
    }
    if seen.len() != oracle.len() {
        return Err(format!(
            "distinct mismatch: got {}, oracle {}",
            seen.len(),
            oracle.len()
        ));
    }
    for (kmer, &expect) in &oracle {
        match seen.get(kmer) {
            Some(&got) if got == expect => {}
            Some(&got) => {
                return Err(format!(
                    "count mismatch for {kmer:?}: got {got}, oracle {expect}"
                ))
            }
            None => return Err(format!("k-mer {kmer:?} missing from distributed result")),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(seqs: &[&[u8]]) -> ReadSet {
        seqs.iter()
            .enumerate()
            .map(|(i, s)| Read::from_ascii(format!("r{i}"), s).unwrap())
            .collect()
    }

    fn cfg(k: usize) -> CountingConfig {
        CountingConfig {
            k,
            m: (k - 1).min(4),
            ..CountingConfig::default()
        }
    }

    #[test]
    fn counts_simple_read() {
        // ACACAC with k=2: AC×3, CA×2.
        let rs = reads(&[b"ACACAC"]);
        let map = reference_counts(&rs, &cfg(2));
        assert_eq!(map.len(), 2);
        assert_eq!(map.values().sum::<u64>(), 5);
        assert_eq!(reference_total(&rs, 2), 5);
    }

    #[test]
    fn canonical_mode_merges_strands() {
        let mut c = cfg(3);
        // GAT and ATC are reverse complements.
        let rs = reads(&[b"GAT", b"ATC"]);
        let plain = reference_counts(&rs, &c);
        assert_eq!(plain.len(), 2);
        c.canonical = true;
        let canon = reference_counts(&rs, &c);
        assert_eq!(canon.len(), 1);
        assert_eq!(canon.values().sum::<u64>(), 2);
    }

    #[test]
    fn checker_accepts_correct_result() {
        let rs = reads(&[b"ACGTACGT", b"GGGG"]);
        let c = cfg(3);
        let oracle = reference_counts(&rs, &c);
        // Split the oracle across two fake ranks by parity.
        let mut ranks = vec![Vec::new(), Vec::new()];
        for (&k, &v) in &oracle {
            ranks[(k % 2) as usize].push((k, v as u32));
        }
        assert!(check_against_reference(&rs, &c, &ranks).is_ok());
    }

    #[test]
    fn checker_catches_wrong_count() {
        let rs = reads(&[b"ACGTACGT"]);
        let c = cfg(3);
        let oracle = reference_counts(&rs, &c);
        let mut ranks = vec![oracle
            .iter()
            .map(|(&k, &v)| (k, v as u32))
            .collect::<Vec<_>>()];
        ranks[0][0].1 += 1;
        assert!(check_against_reference(&rs, &c, &ranks).is_err());
    }

    #[test]
    fn checker_catches_duplicate_ownership() {
        let rs = reads(&[b"ACGTACGT"]);
        let c = cfg(3);
        let all: Vec<(u64, u32)> = reference_counts(&rs, &c)
            .iter()
            .map(|(&k, &v)| (k, v as u32))
            .collect();
        let ranks = vec![all.clone(), vec![all[0]]];
        let err = check_against_reference(&rs, &c, &ranks).unwrap_err();
        assert!(err.contains("two ranks"), "{err}");
    }

    #[test]
    fn checker_catches_missing_kmer() {
        let rs = reads(&[b"ACGTACGT"]);
        let c = cfg(3);
        let mut all: Vec<(u64, u32)> = reference_counts(&rs, &c)
            .iter()
            .map(|(&k, &v)| (k, v as u32))
            .collect();
        all.pop();
        let err = check_against_reference(&rs, &c, &[all]).unwrap_err();
        assert!(err.contains("distinct mismatch"), "{err}");
    }
}
