//! Ablation: supermer window length (§IV-B/§IV-C).
//!
//! The window bounds supermer length (`window + k − 1` bases must pack
//! into one 64-bit word, so `window ≤ 33 − k`). Small windows chop
//! supermers that the minimizer structure would allow to be longer,
//! inflating the exchanged unit count; window 15 (the paper's choice for
//! k = 17) is the largest that still packs. This ablation sweeps the
//! window and also prints the un-windowed ideal from the reference
//! builder.
//!
//! Usage: `cargo run --release -p dedukt-bench --bin ablation_window
//!         [--scale ...] [--m N]`

use dedukt_bench::{generate, print_header, ExperimentArgs, Table};
use dedukt_core::supermer::{build_supermers_reference, build_supermers_windowed};
use dedukt_dna::DatasetId;

fn main() {
    let args = ExperimentArgs::parse();
    let id = DatasetId::EColi30x;
    let reads = generate(id, &args);
    let cfg = args.run.counting;
    let scheme = cfg.minimizer_scheme();
    print_header(
        "Ablation — supermer window length",
        &format!("{}; k={}, m={}", id.short_name(), cfg.k, cfg.m),
    );

    let total_kmers = reads.total_kmers(cfg.k) as u64;
    let mut t = Table::new([
        "window",
        "supermers",
        "avg len (bases)",
        "wire bytes",
        "reduction vs kmers",
    ]);
    for window in [1usize, 2, 4, 8, 12, 15] {
        let mut n = 0u64;
        let mut len = 0u64;
        for read in &reads.reads {
            for sm in build_supermers_windowed(&read.codes, cfg.k, window, &scheme) {
                n += 1;
                len += sm.len as u64;
            }
        }
        let bytes = n * 9;
        t.row([
            format!("{window}"),
            format!("{n}"),
            format!("{:.1}", len as f64 / n as f64),
            format!("{bytes}"),
            format!("{:.2}x", (total_kmers * 8) as f64 / bytes as f64),
        ]);
    }
    // Unbounded reference (what an infinitely wide word would allow).
    let mut n = 0u64;
    let mut len = 0u64;
    for read in &reads.reads {
        for sm in build_supermers_reference::<u64>(&read.codes, cfg.k, &scheme) {
            n += 1;
            len += sm.codes.len() as u64;
        }
    }
    t.row([
        "unbounded".to_string(),
        format!("{n}"),
        format!("{:.1}", len as f64 / n as f64),
        format!("{}", n * 9 + len / 4), // variable-length encoding estimate
        "-".to_string(),
    ]);
    t.print();
    println!();
    println!(
        "window=1 degenerates to one supermer per k-mer (worse than k-mers: 9 B vs 8 B);\n\
         the paper's window=15 recovers most of the unbounded reduction while keeping\n\
         every supermer in a single 64-bit word."
    );
}
