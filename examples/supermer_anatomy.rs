//! Supermer anatomy: the paper's §IV-A / Fig. 4 worked example, end to
//! end, then the same dissection on a synthetic read with the paper's
//! production parameters.
//!
//! Run: `cargo run --release --example supermer_anatomy`

use dedukt::core::minimizer::{MinimizerScheme, OrderingKind};
use dedukt::core::supermer::{build_supermers_reference, build_supermers_windowed};
use dedukt::core::CountingConfig;
use dedukt::dna::base::Base;
use dedukt::dna::kmer::KmerWord;
use dedukt::dna::Encoding;

fn codes_of(s: &str) -> Vec<u8> {
    s.bytes()
        .map(|c| Base::from_ascii(c).unwrap().code())
        .collect()
}

fn ascii_of(codes: &[u8]) -> String {
    codes
        .iter()
        .map(|&c| Base::from_code(c).to_ascii() as char)
        .collect()
}

fn main() {
    // ── Part 1: Fig. 4 verbatim ────────────────────────────────────────
    let read = "GTCATCGCACTTACTGATG";
    let (k, m) = (8usize, 4usize);
    let scheme = MinimizerScheme {
        encoding: Encoding::Alphabetical, // Fig. 4 uses plain lexicographic
        ordering: OrderingKind::EncodedLexicographic,
        m,
    };
    println!(
        "Fig. 4 worked example: read={read} (len {}), k={k}, m={m}",
        read.len()
    );
    let codes = codes_of(read);

    println!("\nk-mers and their minimizers:");
    for i in 0..=read.len() - k {
        let kw = u64::pack_ascii(&read.as_bytes()[i..i + k], scheme.encoding).unwrap();
        let mz = scheme.minimizer_of(kw, k);
        println!(
            "  pos {i:>2}: {}  minimizer {} @ {}",
            kw.to_ascii(k, scheme.encoding),
            mz.word.to_ascii(m, scheme.encoding),
            i + mz.pos
        );
    }

    let supermers = build_supermers_reference::<u64>(&codes, k, &scheme);
    let total: usize = supermers.iter().map(|s| s.codes.len()).sum();
    println!("\nsupermers:");
    for (i, sm) in supermers.iter().enumerate() {
        println!(
            "  #{i}: {} ({} bases, {} k-mers, minimizer {})",
            ascii_of(&sm.codes),
            sm.codes.len(),
            sm.num_kmers(k),
            sm.minimizer.to_ascii(m, scheme.encoding),
        );
    }
    let kmer_bases = (read.len() - k + 1) * k;
    println!(
        "\ncommunication: {} supermer bases vs {} k-mer bases — {:.1}x reduction",
        total,
        kmer_bases,
        kmer_bases as f64 / total as f64
    );
    assert_eq!(supermers.len(), 3, "paper: three supermers");
    assert_eq!(total, 33, "paper: 33 bases");

    // ── Part 2: production parameters on a longer read ────────────────
    let cfg = CountingConfig::default(); // k=17, m=7, window=15, random encoding
    let scheme = cfg.minimizer_scheme();
    let long_read: Vec<u8> = {
        let mut rng = dedukt::sim::SplitMix64::new(7);
        (0..300).map(|_| rng.next_below(4) as u8).collect()
    };
    let windowed = build_supermers_windowed(&long_read, cfg.k, cfg.window, &scheme);
    let unbounded = build_supermers_reference::<u64>(&long_read, cfg.k, &scheme);
    let nkmers = long_read.len() - cfg.k + 1;
    println!(
        "\nproduction parameters (k={}, m={}, window={}), 300-base read:",
        cfg.k, cfg.m, cfg.window
    );
    println!("  k-mers:               {nkmers}");
    println!(
        "  windowed supermers:   {} (avg {:.1} bases, max allowed {})",
        windowed.len(),
        windowed.iter().map(|s| s.len as usize).sum::<usize>() as f64 / windowed.len() as f64,
        cfg.max_supermer_bases()
    );
    println!(
        "  unbounded supermers:  {} (avg {:.1} bases)",
        unbounded.len(),
        unbounded.iter().map(|s| s.codes.len()).sum::<usize>() as f64 / unbounded.len() as f64
    );
    println!(
        "  wire bytes: {} (supermers, 9 B each) vs {} (k-mers, 8 B each)",
        windowed.len() * 9,
        nkmers * 8
    );

    // Every k-mer of every supermer shares the supermer's minimizer.
    for sm in &windowed {
        for kw in sm.kmers(cfg.k) {
            assert_eq!(scheme.minimizer_of(kw, cfg.k).word, sm.minimizer);
        }
    }
    println!("\nok: all windowed supermers verified against the minimizer invariant");
}
