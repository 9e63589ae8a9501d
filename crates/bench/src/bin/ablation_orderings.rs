//! Ablation: minimizer ordering vs partition skew and supermer counts.
//!
//! §IV-A argues that plain lexicographic minimizers skew partitions, that
//! KMC2's AAA/ACA demotion helps, and that the randomized base encoding
//! (the paper's choice) spreads partitions without extra compute. This
//! ablation quantifies all three, plus the balanced-assignment extension
//! (the paper's §VII future-work item).
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_orderings
//!         [--scale ...] [--nodes N]`

use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::minimizer::{MinimizerScheme, OrderingKind};
use dedukt_core::partition::{minimizer_owner, BalancedAssignment};
use dedukt_core::supermer::build_supermers_reference;
use dedukt_core::{Mode, RunConfig};
use dedukt_dna::{DatasetId, Encoding};
use dedukt_hash::Murmur3x64;
use dedukt_sim::DistStats;
use std::collections::HashMap;

fn main() {
    let args = ExperimentArgs::parse();
    let nodes = args.nodes.unwrap_or(4);
    let nranks = nodes * Mode::GpuSupermer.ranks_per_node();
    let id = DatasetId::CElegans40x;
    let reads = generate(id, &args);
    let rc = RunConfig::new(Mode::GpuSupermer, nodes);
    let k = rc.counting.k;
    let m = args.run.counting.m;
    print_header(
        "Ablation — minimizer ordering vs supermer count and partition skew",
        &format!("{}; k={k}, m={m}, {nranks} ranks", id.short_name()),
    );

    let orderings: [(&str, Encoding, OrderingKind); 3] = [
        (
            "lexicographic",
            Encoding::Alphabetical,
            OrderingKind::EncodedLexicographic,
        ),
        (
            "KMC2 (AAA/ACA demoted)",
            Encoding::Alphabetical,
            OrderingKind::Kmc2,
        ),
        (
            "random encoding (paper)",
            Encoding::PaperRandom,
            OrderingKind::EncodedLexicographic,
        ),
    ];

    let hasher = Murmur3x64::new(rc.counting.hash_seed);
    let mut t = Table::new([
        "ordering",
        "supermers",
        "avg len",
        "hash-routing imbalance",
        "balanced-assignment imbalance",
    ]);
    for (name, enc, ord) in orderings {
        let scheme = MinimizerScheme {
            encoding: enc,
            ordering: ord,
            m,
        };
        let mut nsmers = 0u64;
        let mut total_len = 0u64;
        let mut loads = vec![0u64; nranks];
        let mut weights: HashMap<u64, u64> = HashMap::new();
        for read in &reads.reads {
            for sm in build_supermers_reference::<u64>(&read.codes, k, &scheme) {
                nsmers += 1;
                total_len += sm.codes.len() as u64;
                let kmers = sm.num_kmers(k) as u64;
                loads[minimizer_owner(&hasher, sm.minimizer, nranks)] += kmers;
                *weights.entry(sm.minimizer).or_insert(0) += kmers;
            }
        }
        let hash_imb = DistStats::from_loads(&loads).unwrap().imbalance();
        // Balanced extension: LPT over the observed minimizer weights.
        let balanced = BalancedAssignment::build(&weights, nranks, rc.counting.hash_seed);
        let mut bal_loads = vec![0u64; nranks];
        for (&mz, &w) in &weights {
            bal_loads[balanced.owner(mz)] += w;
        }
        let bal_imb = DistStats::from_loads(&bal_loads).unwrap().imbalance();
        t.row([
            name.to_string(),
            format!("{nsmers}"),
            format!("{:.1}", total_len as f64 / nsmers as f64),
            format!("{hash_imb:.2}"),
            format!("{bal_imb:.2}"),
        ]);
    }
    t.print();
    println!();
    println!(
        "expected shape: lexicographic worst skew; the randomized encoding spreads partitions\n\
         at zero compute cost (§IV-A); LPT assignment (the §VII future-work item) cuts the\n\
         imbalance further at the price of a precomputed minimizer→rank map."
    );
}
