//! Property-based tests of the supermer machinery and packed k-mer core —
//! the invariants the whole paper rests on, under random inputs.

use dedukt::core::minimizer::{MinimizerScheme, OrderingKind};
use dedukt::core::supermer::{build_supermers_reference, build_supermers_windowed};
use dedukt::dna::kmer::{kmer_words, KmerWord};
use dedukt::dna::Encoding;
use proptest::prelude::*;

fn encoding_strategy() -> impl Strategy<Value = Encoding> {
    prop_oneof![Just(Encoding::Alphabetical), Just(Encoding::PaperRandom)]
}

fn ordering_strategy() -> impl Strategy<Value = OrderingKind> {
    prop_oneof![
        Just(OrderingKind::EncodedLexicographic),
        Just(OrderingKind::Kmc2)
    ]
}

fn sorted_kmers(codes: &[u8], k: usize, enc: Encoding) -> Vec<u64> {
    let mut v: Vec<u64> = kmer_words(codes, k, enc).collect();
    v.sort_unstable();
    v
}

proptest! {
    /// The defining supermer invariant: re-extracting k-mers from the
    /// windowed supermers yields exactly the read's k-mer multiset.
    #[test]
    fn windowed_supermers_preserve_kmer_multiset(
        codes in prop::collection::vec(0u8..4, 0..300),
        k in 3usize..12,
        m in 2usize..6,
        window in 1usize..20,
        enc in encoding_strategy(),
        ord in ordering_strategy(),
    ) {
        prop_assume!(m < k);
        prop_assume!(window + k - 1 <= 32);
        let scheme = MinimizerScheme { encoding: enc, ordering: ord, m };
        let supermers = build_supermers_windowed(&codes, k, window, &scheme);
        let mut extracted: Vec<u64> = supermers.iter().flat_map(|s| s.kmers(k).collect::<Vec<_>>()).collect();
        extracted.sort_unstable();
        prop_assert_eq!(extracted, sorted_kmers(&codes, k, enc));
    }

    /// Same invariant for the unbounded reference builder.
    #[test]
    fn reference_supermers_preserve_kmer_multiset(
        codes in prop::collection::vec(0u8..4, 0..300),
        k in 3usize..12,
        m in 2usize..6,
        enc in encoding_strategy(),
    ) {
        prop_assume!(m < k);
        let scheme = MinimizerScheme { encoding: enc, ordering: OrderingKind::EncodedLexicographic, m };
        let supermers = build_supermers_reference::<u64>(&codes, k, &scheme);
        let mut extracted: Vec<u64> = supermers
            .iter()
            .flat_map(|s| kmer_words(&s.codes, k, enc).collect::<Vec<_>>())
            .collect();
        extracted.sort_unstable();
        prop_assert_eq!(extracted, sorted_kmers(&codes, k, enc));
    }

    /// Every k-mer inside a supermer minimizes to the supermer's
    /// minimizer — the property that makes minimizer routing correct.
    #[test]
    fn supermer_minimizer_invariant(
        codes in prop::collection::vec(0u8..4, 0..200),
        k in 4usize..12,
        m in 2usize..6,
        window in 1usize..16,
        enc in encoding_strategy(),
        ord in ordering_strategy(),
    ) {
        prop_assume!(m < k);
        prop_assume!(window + k - 1 <= 32);
        let scheme = MinimizerScheme { encoding: enc, ordering: ord, m };
        for sm in build_supermers_windowed(&codes, k, window, &scheme) {
            for kw in sm.kmers(k) {
                prop_assert_eq!(scheme.minimizer_of(kw, k).word, sm.minimizer);
            }
        }
    }

    /// Adjacent reference supermers have different minimizers (maximality:
    /// the builder never splits a run it could have extended).
    #[test]
    fn reference_supermers_are_maximal(
        codes in prop::collection::vec(0u8..4, 0..200),
        k in 4usize..10,
        m in 2usize..5,
    ) {
        prop_assume!(m < k);
        let scheme = MinimizerScheme {
            encoding: Encoding::PaperRandom,
            ordering: OrderingKind::EncodedLexicographic,
            m,
        };
        let supermers = build_supermers_reference::<u64>(&codes, k, &scheme);
        for pair in supermers.windows(2) {
            prop_assert_ne!(pair[0].minimizer, pair[1].minimizer);
        }
    }

    /// Packed k-mer roundtrip and reverse-complement involution under
    /// random sequences, at every width that holds them.
    #[test]
    fn kmer_roundtrip_and_rc(
        codes in prop::collection::vec(0u8..4, 1..65),
        enc in encoding_strategy(),
    ) {
        fn check<W: KmerWord>(codes: &[u8], enc: Encoding) -> Result<(), proptest::test_runner::TestCaseError> {
            let k = codes.len();
            let kmer = W::pack_codes(codes, enc);
            prop_assert_eq!(kmer.word_codes(k, enc), codes.to_vec());
            prop_assert_eq!(kmer.reverse_complement(k).reverse_complement(k), kmer);
            // Canonical is idempotent and strand-invariant.
            let canon = kmer.canonical_word(k);
            prop_assert_eq!(canon.canonical_word(k), canon);
            prop_assert_eq!(kmer.reverse_complement(k).canonical_word(k), canon);
            Ok(())
        }
        if codes.len() <= u64::MAX_K {
            check::<u64>(&codes, enc)?;
        }
        check::<u128>(&codes, enc)?;
    }

    /// Rolling extraction equals window-by-window packing.
    #[test]
    fn rolling_matches_fresh_packing(
        codes in prop::collection::vec(0u8..4, 1..100),
        k in 1usize..20,
        enc in encoding_strategy(),
    ) {
        prop_assume!(k <= codes.len());
        let rolled: Vec<u64> = kmer_words(&codes, k, enc).collect();
        let fresh: Vec<u64> = (0..=codes.len() - k)
            .map(|i| u64::pack_codes(&codes[i..i + k], enc))
            .collect();
        prop_assert_eq!(rolled, fresh);
    }

    /// Windowed supermer lengths always lie in `[k, window + k - 1]`.
    #[test]
    fn windowed_length_bounds(
        codes in prop::collection::vec(0u8..4, 0..300),
        k in 3usize..12,
        window in 1usize..20,
    ) {
        prop_assume!(window + k - 1 <= 32);
        let scheme = MinimizerScheme {
            encoding: Encoding::PaperRandom,
            ordering: OrderingKind::EncodedLexicographic,
            m: 2,
        };
        for sm in build_supermers_windowed(&codes, k, window, &scheme) {
            prop_assert!((k..=window + k - 1).contains(&(sm.len as usize)));
        }
    }
}
