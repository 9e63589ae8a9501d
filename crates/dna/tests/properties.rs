//! Property tests for the DNA substrate.

use dedukt_dna::base::{ascii_to_fragments, Base};
use dedukt_dna::fastq::{parse_fastq, write_fastq};
use dedukt_dna::kmer::{kmer_words, KmerWord};
use dedukt_dna::{Encoding, Read, ReadSet};
use proptest::prelude::*;
use std::io::BufReader;

fn encoding() -> impl Strategy<Value = Encoding> {
    prop_oneof![Just(Encoding::Alphabetical), Just(Encoding::PaperRandom)]
}

proptest! {
    /// kmer_words yields exactly len-k+1 windows for clean input.
    #[test]
    fn kmer_count_formula(codes in prop::collection::vec(0u8..4, 0..200), k in 1usize..33) {
        let n = kmer_words(&codes, k, Encoding::Alphabetical).count();
        prop_assert_eq!(n, codes.len().saturating_sub(k - 1));
    }

    /// Canonical k-mers are strand-invariant: a sequence and its reverse
    /// complement produce identical canonical k-mer multisets.
    #[test]
    fn canonical_multiset_is_strand_invariant(
        codes in prop::collection::vec(0u8..4, 1..120),
        k in 1usize..20,
        enc in encoding(),
    ) {
        prop_assume!(k <= codes.len());
        let rc: Vec<u8> = codes.iter().rev().map(|&c| 3 - c).collect();
        let canon = |cs: &[u8]| {
            let mut v: Vec<u64> = kmer_words(cs, k, enc)
                .map(|w| w.canonical_word(k))
                .collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(canon(&codes), canon(&rc));
    }

    /// FASTQ writer → parser is the identity on clean read sets.
    #[test]
    fn fastq_roundtrip_clean_reads(
        reads in prop::collection::vec(prop::collection::vec(0u8..4, 1..80), 1..10),
    ) {
        let rs: ReadSet = reads
            .into_iter()
            .enumerate()
            .map(|(i, codes)| Read { id: format!("r{i}"), codes, quals: None })
            .collect();
        let mut buf = Vec::new();
        write_fastq(&mut buf, &rs).unwrap();
        let back = parse_fastq(BufReader::new(&buf[..]), 1).unwrap();
        prop_assert_eq!(back.len(), rs.len());
        for (a, b) in back.reads.iter().zip(&rs.reads) {
            prop_assert_eq!(&a.id, &b.id);
            prop_assert_eq!(&a.codes, &b.codes);
        }
    }

    /// Fragment splitting never loses clean bases and never emits short
    /// fragments.
    #[test]
    fn fragments_cover_all_clean_bases(seq in "[ACGTN]{0,200}", min_len in 1usize..5) {
        let frags = ascii_to_fragments(seq.as_bytes(), min_len);
        for f in &frags {
            prop_assert!(f.len() >= min_len);
            prop_assert!(f.iter().all(|&c| c < 4));
        }
        // Total fragment bases + dropped bases == clean bases.
        let clean = seq.bytes().filter(|&c| Base::from_ascii(c).is_some()).count();
        let covered: usize = frags.iter().map(Vec::len).sum();
        prop_assert!(covered <= clean);
        // Rebuild: fragments appear in order within the cleaned sequence.
        let cleaned: Vec<u8> = seq
            .bytes()
            .filter_map(|c| Base::from_ascii(c).map(|b| b.code()))
            .collect();
        let mut cursor = 0usize;
        for f in &frags {
            let found = cleaned[cursor..]
                .windows(f.len().max(1))
                .position(|w| w == &f[..]);
            prop_assert!(found.is_some(), "fragment must appear in cleaned sequence");
            cursor += found.unwrap();
        }
    }

    /// Read partitioning preserves content for any rank count.
    #[test]
    fn partition_preserves_reads(
        lens in prop::collection::vec(1usize..60, 1..30),
        n in 1usize..20,
    ) {
        let rs: ReadSet = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| Read { id: format!("r{i}"), codes: vec![(i % 4) as u8; l], quals: None })
            .collect();
        let parts = rs.partition_by_bases(n);
        prop_assert_eq!(parts.len(), n);
        let rejoined: Vec<&Read> = parts.iter().flat_map(|p| p.iter()).collect();
        prop_assert_eq!(rejoined.len(), rs.len());
        for (a, b) in rejoined.iter().zip(&rs.reads) {
            prop_assert_eq!(*a, b);
        }
    }
}
