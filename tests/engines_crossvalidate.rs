//! Cross-validation: a hand-rolled k-mer counter written as per-rank
//! code over the BSP engine — bucket by owner in a compute step, one
//! Alltoallv, one host table per rank — must agree with the staged
//! driver's pipelines and the oracle.

use dedukt::core::table::HostCountTable;
use dedukt::core::verify::reference_counts;
use dedukt::core::{pipeline, Mode, RunConfig};
use dedukt::dna::kmer::kmer_words;
use dedukt::dna::{Dataset, DatasetId, ReadSet, ScalePreset};
use dedukt::hash::{owner_rank_mult_shift, Murmur3x64};
use dedukt::net::cost::Network;
use dedukt::net::BspWorld;
use dedukt::sim::SimTime;
use std::collections::HashMap;

/// Algorithm 1 written as rank code on a `summit_gpu(nodes)` world:
/// returns every rank's `(kmer, count)` table.
fn rank_code_count(reads: &ReadSet, nodes: usize, k: usize) -> Vec<HashMap<u64, u64>> {
    let cfg = RunConfig::new(Mode::CpuBaseline, 1).counting;
    let mut world = BspWorld::new(Network::summit_gpu(nodes));
    let p = world.nranks();
    let parts = reads.partition_by_bases(p);
    let hasher = Murmur3x64::new(cfg.hash_seed);
    // PARSEKMER: bucket this rank's k-mers by owner.
    let (send, _) = world.compute_step(|rank| {
        let mut send: Vec<Vec<u64>> = vec![Vec::new(); p];
        for read in parts[rank] {
            for w in kmer_words(&read.codes, k, cfg.encoding) {
                send[owner_rank_mult_shift(hasher.hash_u64(w), p)].push(w);
            }
        }
        (send, SimTime::ZERO)
    });
    // EXCHANGEKMER.
    let recv = world.alltoallv(send).recv;
    // COUNTKMER.
    let (tables, _) = world.compute_step(|rank| {
        let inbox = &recv[rank];
        let mut table: HostCountTable = HostCountTable::with_expected(
            inbox.iter().map(Vec::len).sum(),
            0.7,
            cfg.hash_seed ^ 0xC0C0,
        );
        for &kmer in inbox.iter().flatten() {
            table.insert(kmer);
        }
        let counts: HashMap<u64, u64> = table.iter().map(|(w, c)| (w, c as u64)).collect();
        (counts, SimTime::ZERO)
    });
    tables
}

/// The union of per-rank tables; a k-mer on two ranks is a routing bug.
fn merged(tables: Vec<HashMap<u64, u64>>) -> HashMap<u64, u64> {
    let mut all = HashMap::new();
    for table in tables {
        for (kmer, count) in table {
            assert!(
                all.insert(kmer, count).is_none(),
                "k-mer owned by two ranks"
            );
        }
    }
    all
}

#[test]
fn rank_code_counter_matches_oracle() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    let cfg = RunConfig::new(Mode::CpuBaseline, 1).counting;
    let oracle = reference_counts(&reads, &cfg);
    let counted = merged(rank_code_count(&reads, 2, cfg.k));
    assert_eq!(counted.len(), oracle.len());
    for (kmer, count) in &oracle {
        assert_eq!(counted.get(kmer), Some(count), "k-mer {kmer:#x}");
    }
}

/// Same world shape on both sides, so beyond equal counts every k-mer
/// must sit on the rank the independent counter routed it to.
#[test]
fn rank_code_counter_matches_bsp_pipeline() {
    let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
    let mut rc = RunConfig::new(Mode::GpuKmer, 1);
    rc.collect_tables = true;
    let bsp = pipeline::run(&reads, &rc).expect("valid config");
    let per_rank = rank_code_count(&reads, 1, rc.counting.k);
    let tables = bsp.tables.as_ref().unwrap();
    assert_eq!(tables.len(), per_rank.len());
    for (rank, (table, reference)) in tables.iter().zip(&per_rank).enumerate() {
        let got: HashMap<u64, u64> = table.iter().map(|&(w, c)| (w, c as u64)).collect();
        assert_eq!(got.len(), table.len(), "rank {rank}: duplicate k-mer");
        assert_eq!(&got, reference, "rank {rank}");
    }
    let counted = merged(per_rank);
    assert_eq!(bsp.distinct_kmers as usize, counted.len());
    assert_eq!(bsp.total_kmers, counted.values().sum::<u64>());
}

#[test]
fn rank_code_counter_is_deterministic_across_rank_counts() {
    let reads = Dataset::new(DatasetId::VVulnificus30x, ScalePreset::Tiny).generate();
    let a = merged(rank_code_count(&reads, 1, 17));
    let b = merged(rank_code_count(&reads, 2, 17));
    assert_eq!(a, b);
}

/// Wide k (k = 41, u128 keys) through the same unified driver: all
/// three engines must agree with the independent wide oracle key-for-key.
/// (The rank-code counter above stays narrow — it packs u64 words.)
#[test]
fn all_engines_match_wide_oracle_at_k41() {
    let reads = Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate();
    let mut rc = RunConfig::new(Mode::CpuBaseline, 2);
    rc.counting.k = 41;
    rc.counting.m = 11;
    rc.counting.window = 24;
    rc.collect_tables = true;
    let oracle = dedukt::core::wide::wide_reference_counts(&reads, &rc.counting);
    assert!(!oracle.is_empty());
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        rc.mode = mode;
        let report = pipeline::run_typed::<u128>(&reads, &rc).expect("valid wide config");
        assert_eq!(
            report.total_kmers,
            oracle.values().sum::<u64>(),
            "{mode:?}: total"
        );
        assert_eq!(
            report.distinct_kmers as usize,
            oracle.len(),
            "{mode:?}: distinct"
        );
        let mut merged: HashMap<u128, u64> = HashMap::new();
        for table in report.tables.as_ref().expect("tables collected") {
            for &(kmer, count) in table {
                assert!(
                    merged.insert(kmer, count as u64).is_none(),
                    "{mode:?}: k-mer owned by two ranks"
                );
            }
        }
        for (kmer, count) in &oracle {
            assert_eq!(merged.get(kmer), Some(count), "{mode:?}: k-mer {kmer:#x}");
        }
    }
}
