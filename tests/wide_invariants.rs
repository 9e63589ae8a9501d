//! Property tests for the wide-k (u128) regime: the same invariants the
//! narrow supermer machinery guarantees, exercised through the
//! width-generic APIs under random reads and parameters.

use dedukt::core::minimizer::{MinimizerScheme, OrderingKind};
use dedukt::core::supermer::build_supermers_windowed_w;
use dedukt::core::wide::wide_reference_counts;
use dedukt::core::{pipeline, CountingConfig, Mode, RunConfig};
use dedukt::dna::kmer::kmer_words_w;
use dedukt::dna::{Encoding, Read, ReadSet};
use proptest::prelude::*;

fn wide_cfg_strategy() -> impl Strategy<Value = CountingConfig> {
    (32usize..=63, 2usize..16).prop_map(|(k, m)| CountingConfig {
        k,
        m: m.min(k - 1),
        window: 65 - k,
        encoding: Encoding::PaperRandom,
        ..CountingConfig::default()
    })
}

fn scheme_of(cfg: &CountingConfig) -> MinimizerScheme {
    MinimizerScheme {
        encoding: cfg.encoding,
        ordering: OrderingKind::EncodedLexicographic,
        m: cfg.m,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Wide windowed supermers preserve the wide k-mer multiset.
    #[test]
    fn wide_supermers_preserve_multiset(
        codes in prop::collection::vec(0u8..4, 0..300),
        cfg in wide_cfg_strategy(),
    ) {
        let scheme = scheme_of(&cfg);
        let mut extracted: Vec<u128> =
            build_supermers_windowed_w::<u128>(&codes, cfg.k, cfg.window, &scheme)
                .iter()
                .flat_map(|s| s.kmers(cfg.k).collect::<Vec<_>>())
                .collect();
        extracted.sort_unstable();
        let mut direct: Vec<u128> = kmer_words_w(&codes, cfg.k, cfg.encoding).collect();
        direct.sort_unstable();
        prop_assert_eq!(extracted, direct);
    }

    /// Every wide k-mer in a supermer shares the supermer's minimizer,
    /// and lengths respect the one-u128 packing bound.
    #[test]
    fn wide_minimizer_invariant(
        codes in prop::collection::vec(0u8..4, 0..200),
        cfg in wide_cfg_strategy(),
    ) {
        let scheme = scheme_of(&cfg);
        for sm in build_supermers_windowed_w::<u128>(&codes, cfg.k, cfg.window, &scheme) {
            prop_assert!((cfg.k..=64).contains(&(sm.len as usize)));
            for kw in sm.kmers(cfg.k) {
                prop_assert_eq!(scheme.minimizer_of(kw, cfg.k).word, sm.minimizer);
            }
        }
    }

    /// All three engines equal the wide oracle on random read sets when
    /// run at the u128 key width.
    #[test]
    fn wide_pipelines_equal_oracle(
        reads in prop::collection::vec(prop::collection::vec(0u8..4, 0..150), 1..12),
        mode_idx in 0usize..3,
    ) {
        let rs: ReadSet = reads
            .into_iter()
            .enumerate()
            .map(|(i, codes)| Read { id: format!("w{i}"), codes, quals: None })
            .collect();
        let cfg = CountingConfig {
            k: 41,
            m: 11,
            window: 24,
            ..CountingConfig::default()
        };
        let oracle = wide_reference_counts(&rs, &cfg);
        let mode = [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer][mode_idx];
        let mut rc = RunConfig::new(mode, 1);
        rc.counting = cfg;
        rc.collect_tables = true;
        let report = pipeline::run_typed::<u128>(&rs, &rc).expect("valid wide config");
        prop_assert_eq!(report.distinct_kmers as usize, oracle.len());
        prop_assert_eq!(report.total_kmers, oracle.values().sum::<u64>());
        let mut seen = std::collections::HashMap::new();
        for t in report.tables.as_ref().expect("tables collected") {
            for &(kmer, count) in t {
                prop_assert!(seen.insert(kmer, count).is_none(), "duplicate owner");
            }
        }
        for (kmer, &count) in &oracle {
            prop_assert_eq!(seen.get(kmer).copied(), Some(count as u32));
        }
    }
}
