//! `dedukt` — the command-line face of the reproduction.
//!
//! Subcommands:
//!
//! * `simulate <dataset> [--scale S] [--out FILE]` — generate a synthetic
//!   Table-I dataset as FASTQ.
//! * `count <reads.fastq> [flags]` — run a distributed counter on a
//!   FASTQ file and export the results. Any k up to 63 works in every
//!   mode: k ≤ 31 ships 8-byte packed keys on the wire, k in 32..=63
//!   ships 16-byte keys. The run flags shared with `dedukt-bench` —
//!   minimizer length, exchange rounds and routing, and the fault,
//!   memory-pressure and rank-failure plans — go through
//!   `RunConfig::apply_flag` (see the usage text). `count` adds the mode
//!   and machine shape, read filtering (`--min-qual`), the exports
//!   (`--out`, `--spectrum`, `--trace`, `--metrics`, `--journal`), and
//!   out-of-core counting (DESIGN.md §12): `--two-pass DIR` with
//!   `--resume`, `--min-count` and the storage-fault plan
//!   `--io-seed`/`--io-spec`. Counted spectra stay bit-identical under
//!   every exchange, injection and out-of-core option; a run that
//!   exhausts a recovery budget fails cleanly with exit 2.
//! * `analyze <run.jsonl>` — reconstruct a journaled run offline: phase
//!   breakdown reconciled against the journal's own span accounting, the
//!   critical path through the superstep DAG, per-round straggler and
//!   imbalance attribution, hidden-vs-exposed exchange time, and
//!   recovery costs. `analyze --diff a.jsonl b.jsonl` prints a
//!   regression triage report between two runs.
//! * `compare <a.tsv> <b.tsv>` — compare two count dumps k-mer by k-mer;
//!   exits 0 only if they are identical. Any k up to 64 works, read from
//!   the dumps themselves; dumps of different k are an error.
//! * `info` — print the simulated hardware presets.
//!
//! Examples:
//!
//! ```text
//! dedukt simulate ecoli --scale tiny --out ecoli.fastq
//! dedukt count ecoli.fastq --mode supermer --nodes 4 --out counts.tsv
//! dedukt count ecoli.fastq --overlap-rounds --journal run.jsonl
//! dedukt analyze run.jsonl
//! ```

use dedukt::core::config::RUN_FLAGS_USAGE;
use dedukt::core::{dump, pipeline, Mode, PackedKmer, RunConfig};
use dedukt::dna::fastq::parse_fastq;
use dedukt::dna::kmer::KmerWord;
use dedukt::dna::{Dataset, DatasetId, ScalePreset};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("simulate") => cmd_simulate(&args[1..]),
        Some("count") => cmd_count(&args[1..]),
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("info") => cmd_info(),
        Some("--help" | "-h" | "help") | None => {
            print_usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            print_usage();
            ExitCode::from(2)
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage:\n  dedukt simulate <ecoli|paeruginosa|vvulnificus|abaumannii|celegans|hsapiens>\n\
         \x20        [--scale tiny|bench|xF] [--seed N] [--out FILE]\n\
         \x20 dedukt count <reads.fastq> [--mode cpu|gpu|supermer] [--nodes N] [--k K]\n\
         \x20        [--canonical] [--min-qual Q] [--out dump.tsv]\n\
         \x20        [--spectrum spec.tsv] [--trace trace.json]\n\
         \x20        [--metrics metrics.json] [--metrics-format json|prom]\n\
         \x20        [--journal run.jsonl]\n\
         \x20        [--two-pass DIR] [--resume] [--min-count N]\n\
         \x20        [--io-seed N] [--io-spec torn=T,rot=R,readerr=E,retries=N,rederive=M,kill=K]\n\
         {RUN_FLAGS_USAGE}\n\
         \x20 dedukt analyze <run.jsonl> | dedukt analyze --diff <a.jsonl> <b.jsonl>\n\
         \x20 dedukt compare <a.tsv> <b.tsv>\n\
         \x20 dedukt info"
    );
}

/// `dedukt analyze` — offline critical-path and regression analysis of
/// run journals recorded with `count --journal`.
fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let mut diff: Option<(String, String)> = None;
    let mut single: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--diff" => {
                let a = take_value(&mut it, "--diff")?.to_string();
                let b = it.next().cloned().ok_or("--diff needs two journal paths")?;
                diff = Some((a, b));
            }
            other if !other.starts_with('-') && single.is_none() => {
                single = Some(other.to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let load = |p: &str| -> Result<dedukt::sim::RunAnalysis, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let events = dedukt::sim::read_journal(&text).map_err(|e| format!("{p}: {e}"))?;
        let a = dedukt::sim::analyze(&events).map_err(|e| format!("{p}: {e}"))?;
        a.check_invariants()
            .map_err(|e| format!("{p}: journal accounting is inconsistent: {e}"))?;
        Ok(a)
    };
    match (single, diff) {
        (Some(p), None) => {
            print!("{}", load(&p)?.render());
            Ok(())
        }
        (None, Some((pa, pb))) => {
            print!("{}", dedukt::sim::render_diff(&load(&pa)?, &load(&pb)?));
            Ok(())
        }
        (Some(_), Some(_)) => Err("pass either one journal or --diff A B, not both".into()),
        (None, None) => Err("analyze needs a journal path (or --diff A B)".into()),
    }
}

fn cmd_compare(args: &[String]) -> Result<(), String> {
    let (path_a, path_b) = match args {
        [a, b] => (a, b),
        [_, _, extra, ..] => return Err(format!("unknown argument {extra:?}")),
        _ => return Err("compare needs two dump paths".into()),
    };
    let enc = dedukt::dna::Encoding::PaperRandom;
    // Dumps are read at the wide width, so any k ≤ 64 parses; a dump's k
    // is the length of its sequences. Ordered maps make the printed
    // differences come out in dump order on every run.
    type Loaded = (Option<usize>, std::collections::BTreeMap<u128, u32>);
    let load = |p: &str| -> Result<Loaded, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        let k = text
            .lines()
            .find_map(|l| l.split_once('\t'))
            .map(|(seq, _)| seq.len());
        let entries = dump::read_dump(BufReader::new(text.as_bytes()), enc)
            .map_err(|e| format!("{p}: {e}"))?;
        Ok((k, entries.into_iter().collect()))
    };
    let (k_a, a) = load(path_a)?;
    let (k_b, b) = load(path_b)?;
    if let (Some(ka), Some(kb)) = (k_a, k_b) {
        if ka != kb {
            return Err(format!(
                "{path_a} holds {ka}-mers but {path_b} holds {kb}-mers"
            ));
        }
    }
    let k = k_a.or(k_b).unwrap_or(0);
    let mut only_a = 0u64;
    let mut only_b = 0u64;
    let mut differing = 0u64;
    let mut shown = 0;
    for (kmer, ca) in &a {
        match b.get(kmer) {
            None => only_a += 1,
            Some(cb) if cb != ca => {
                differing += 1;
                if shown < 10 {
                    println!("  {} : {ca} vs {cb}", kmer.to_ascii(k, enc));
                    shown += 1;
                }
            }
            _ => {}
        }
    }
    for kmer in b.keys() {
        if !a.contains_key(kmer) {
            only_b += 1;
        }
    }
    println!(
        "{} k-mers in {path_a}, {} in {path_b}: {} only in A, {} only in B, {} counts differ",
        a.len(),
        b.len(),
        only_a,
        only_b,
        differing
    );
    if only_a + only_b + differing == 0 {
        println!("dumps are identical");
        Ok(())
    } else {
        Err("dumps differ".into())
    }
}

fn dataset_id(name: &str) -> Result<DatasetId, String> {
    Ok(match name {
        "ecoli" => DatasetId::EColi30x,
        "paeruginosa" => DatasetId::PAeruginosa30x,
        "vvulnificus" => DatasetId::VVulnificus30x,
        "abaumannii" => DatasetId::ABaumannii30x,
        "celegans" => DatasetId::CElegans40x,
        "hsapiens" => DatasetId::HSapiens54x,
        other => return Err(format!("unknown dataset {other:?}")),
    })
}

fn take_value<'a>(it: &mut std::slice::Iter<'a, String>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or(format!("{flag} needs a value"))
}

fn cmd_simulate(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let name = it.next().ok_or("simulate needs a dataset name")?;
    let mut ds = Dataset::new(dataset_id(name)?, ScalePreset::Tiny);
    let mut out_path: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                ds = Dataset::new(ds.id, take_value(&mut it, "--scale")?.parse()?);
            }
            "--seed" => {
                ds.seed = take_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "bad seed")?
            }
            "--out" => out_path = Some(take_value(&mut it, "--out")?.to_string()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let reads = ds.generate();
    eprintln!(
        "{}: {} reads, {} bases",
        ds.id.short_name(),
        reads.len(),
        reads.total_bases()
    );
    match out_path {
        Some(p) => {
            let mut w = BufWriter::new(File::create(&p).map_err(|e| e.to_string())?);
            dedukt::dna::fastq::write_fastq(&mut w, &reads).map_err(|e| e.to_string())?;
            w.flush().map_err(|e| e.to_string())?;
            eprintln!("wrote {p}");
        }
        None => {
            let stdout = std::io::stdout();
            let mut w = BufWriter::new(stdout.lock());
            dedukt::dna::fastq::write_fastq(&mut w, &reads).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Export format for `--metrics`.
#[derive(Clone, Copy)]
enum MetricsFormat {
    Json,
    Prometheus,
}

/// The human-readable phase/imbalance digest printed after every run.
fn print_run_summary<K: PackedKmer>(report: &pipeline::RunReport<K>) {
    eprintln!(
        "simulated phases: parse {} | exchange {} | count {} | total {} | makespan {}",
        report.phases.parse,
        report.phases.exchange,
        report.phases.count,
        report.total_time(),
        report.makespan
    );
    let stats = report.load.stats();
    eprintln!(
        "load: mean {:.0} k-mers/rank, max {} — imbalance {:.2}",
        stats.mean,
        stats.max,
        report.load.imbalance()
    );
    if let Some(rate) = report.insertion_rate() {
        eprintln!("insertion rate: {rate} (compute only)");
    }
    eprintln!(
        "wall clock: {:.3} s host total (parse {:.3} s, rounds {:.3} s, finish {:.3} s)",
        report.wall.total, report.wall.parse, report.wall.rounds, report.wall.finish
    );
}

/// Fails fast on an unwritable export destination: the file is created
/// (and truncated) up front, so a bad path aborts with a clear message
/// *before* any counting work, instead of after the whole run.
fn check_writable(flag: &str, path: &Option<String>) -> Result<(), String> {
    if let Some(p) = path {
        File::create(p).map_err(|e| format!("{flag} {p}: {e}"))?;
    }
    Ok(())
}

fn cmd_count(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let path = it.next().ok_or("count needs a FASTQ path")?;
    let mut rc = RunConfig::new(Mode::GpuSupermer, 1);
    let mut out_path: Option<String> = None;
    let mut spectrum_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut metrics_format = MetricsFormat::Json;
    let mut min_qual: Option<u8> = None;
    while let Some(arg) = it.next() {
        if rc.apply_flag(arg, &mut it)? {
            continue;
        }
        match arg.as_str() {
            "--mode" => {
                rc.mode = match take_value(&mut it, "--mode")? {
                    "cpu" => Mode::CpuBaseline,
                    "gpu" => Mode::GpuKmer,
                    "supermer" => Mode::GpuSupermer,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--nodes" => {
                rc.nodes = take_value(&mut it, "--nodes")?
                    .parse()
                    .map_err(|_| "bad node count")?;
                if rc.nodes == 0 {
                    return Err("--nodes must be positive".into());
                }
            }
            "--k" => rc.counting.k = take_value(&mut it, "--k")?.parse().map_err(|_| "bad k")?,
            "--canonical" => rc.counting.canonical = true,
            "--min-qual" => {
                min_qual = Some(
                    take_value(&mut it, "--min-qual")?
                        .parse()
                        .map_err(|_| "bad quality threshold")?,
                )
            }
            "--two-pass" => {
                rc.two_pass_dir = Some(std::path::PathBuf::from(take_value(&mut it, "--two-pass")?))
            }
            "--resume" => rc.two_pass_resume = true,
            "--io-seed" | "--io-spec" => {
                let value = take_value(&mut it, arg)?;
                dedukt::sim::plan::apply_flag(&mut rc.io, arg, value)?
            }
            "--min-count" => {
                rc.min_count = take_value(&mut it, "--min-count")?
                    .parse()
                    .map_err(|_| "--min-count: bad count threshold")?
            }
            "--out" => out_path = Some(take_value(&mut it, "--out")?.to_string()),
            "--spectrum" => spectrum_path = Some(take_value(&mut it, "--spectrum")?.to_string()),
            "--trace" => trace_path = Some(take_value(&mut it, "--trace")?.to_string()),
            "--metrics" => metrics_path = Some(take_value(&mut it, "--metrics")?.to_string()),
            "--journal" => journal_path = Some(take_value(&mut it, "--journal")?.to_string()),
            "--metrics-format" => {
                metrics_format = match take_value(&mut it, "--metrics-format")? {
                    "json" => MetricsFormat::Json,
                    "prom" => MetricsFormat::Prometheus,
                    other => return Err(format!("unknown metrics format {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let outputs = CountOutputs {
        out_path,
        spectrum_path,
        trace_path,
        metrics_path,
        journal_path,
        metrics_format,
        min_qual,
    };
    // One staged driver, two key widths: k ≤ 31 packs into u64 words,
    // k ≤ 63 into u128. Everything past the window clamp is identical —
    // the width is a type parameter, not a separate pipeline.
    if rc.counting.k <= 31 {
        rc.counting.window = rc.counting.window.min(33 - rc.counting.k);
        count_with_width::<u64>(path, rc, outputs)
    } else {
        if rc.counting.k <= 63 {
            rc.counting.window = rc.counting.window.min(65 - rc.counting.k).max(1);
        }
        count_with_width::<u128>(path, rc, outputs)
    }
}

/// Export destinations and read-filtering options for `dedukt count`.
struct CountOutputs {
    out_path: Option<String>,
    spectrum_path: Option<String>,
    trace_path: Option<String>,
    metrics_path: Option<String>,
    journal_path: Option<String>,
    metrics_format: MetricsFormat,
    min_qual: Option<u8>,
}

/// Runs `dedukt count` at the key width `K` and writes every requested
/// export. Narrow and wide k share this path verbatim; invalid
/// configurations (k or m out of range for the width) surface as a
/// `ConfigError` and exit 2.
fn count_with_width<K: PackedKmer>(
    path: &str,
    mut rc: RunConfig,
    outputs: CountOutputs,
) -> Result<(), String> {
    rc.validate_for_width(K::MAX_COUNTING_K, K::MAX_SUPERMER_BASES)
        .map_err(|e| e.to_string())?;
    rc.collect_tables = true;
    rc.collect_spectrum = outputs.spectrum_path.is_some();
    rc.collect_trace = outputs.trace_path.is_some();
    rc.collect_metrics = outputs.metrics_path.is_some();
    rc.collect_journal = outputs.journal_path.is_some();
    check_writable("--out", &outputs.out_path)?;
    check_writable("--spectrum", &outputs.spectrum_path)?;
    check_writable("--trace", &outputs.trace_path)?;
    check_writable("--metrics", &outputs.metrics_path)?;
    check_writable("--journal", &outputs.journal_path)?;

    let file = File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut reads = parse_fastq(BufReader::new(file), rc.counting.k).map_err(|e| e.to_string())?;
    eprintln!(
        "parsed {} reads ({} bases) from {path}",
        reads.len(),
        reads.total_bases()
    );
    if let Some(q) = outputs.min_qual {
        reads = reads.quality_trimmed(q, rc.counting.k);
        eprintln!(
            "quality trim at Q{q}: {} reads ({} bases) remain",
            reads.len(),
            reads.total_bases()
        );
    }

    let report = pipeline::run_typed::<K>(&reads, &rc).map_err(|e| e.to_string())?;
    eprintln!(
        "mode {:?} (k={}, {}-byte keys on the wire): {} k-mer instances, {} distinct, on {} ranks",
        rc.mode,
        rc.counting.k,
        K::KMER_WIRE_BYTES,
        report.total_kmers,
        report.distinct_kmers,
        report.nranks
    );
    print_run_summary(&report);

    let merged = dump::merge_tables(
        report
            .tables
            .as_ref()
            .ok_or("internal error: pipeline did not collect the rank tables")?,
    );
    if let Some(p) = outputs.out_path {
        let mut w = BufWriter::new(File::create(&p).map_err(|e| e.to_string())?);
        dump::write_dump(&mut w, &merged, rc.counting.k, rc.counting.encoding)
            .map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {} k-mers to {p}", merged.len());
    }
    if let Some(p) = outputs.spectrum_path {
        let mut w = BufWriter::new(File::create(&p).map_err(|e| e.to_string())?);
        let spectrum = report
            .spectrum
            .as_ref()
            .ok_or("internal error: pipeline did not collect the spectrum")?;
        dump::write_spectrum(&mut w, spectrum).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote spectrum to {p}");
        // Bonus analysis while we have the spectrum (the §II-A use case).
        if let Some(size) = dedukt::core::analysis::estimate_genome_size(spectrum) {
            eprintln!(
                "spectrum analysis: coverage peak ~{}x, estimated genome size ~{size} bp",
                dedukt::core::analysis::coverage_peak(spectrum).unwrap_or(0)
            );
        }
    }
    // The trace, the metrics and the journal are projections of the one
    // event stream the run recorded.
    let events = match &report.events {
        Some(events) => events.as_slice(),
        None if outputs.trace_path.is_some()
            || outputs.metrics_path.is_some()
            || outputs.journal_path.is_some() =>
        {
            return Err("internal error: pipeline recorded no events despite an output flag".into())
        }
        None => &[],
    };
    if let Some(p) = outputs.trace_path {
        let mut w = BufWriter::new(File::create(&p).map_err(|e| e.to_string())?);
        dedukt::sim::write_chrome_trace(&mut w, events).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote chrome trace to {p} (open in chrome://tracing or Perfetto)");
    }
    if let Some(p) = outputs.metrics_path {
        let snapshot = dedukt::sim::MetricsSnapshot::from_events(events);
        let mut w = BufWriter::new(File::create(&p).map_err(|e| e.to_string())?);
        match outputs.metrics_format {
            MetricsFormat::Json => snapshot.write_json(&mut w).map_err(|e| e.to_string())?,
            MetricsFormat::Prometheus => snapshot
                .write_prometheus(&mut w)
                .map_err(|e| e.to_string())?,
        }
        w.flush().map_err(|e| e.to_string())?;
        eprintln!("wrote {} metric series to {p}", snapshot.entries.len());
    }
    if let Some(p) = outputs.journal_path {
        let mut w = BufWriter::new(File::create(&p).map_err(|e| format!("{p}: {e}"))?);
        dedukt::sim::write_journal(&mut w, events).map_err(|e| e.to_string())?;
        w.flush().map_err(|e| e.to_string())?;
        let lines = events.iter().filter_map(|e| e.to_json()).count();
        eprintln!("wrote run journal ({lines} events) to {p} — inspect with `dedukt analyze {p}`");
    }
    // Always show the top heavy hitters as a quick sanity signal.
    eprintln!("top k-mers:");
    for (kmer, count) in dump::heavy_hitters(&merged, 5) {
        eprintln!(
            "  {}  x{count}",
            kmer.to_ascii(rc.counting.k, rc.counting.encoding)
        );
    }
    Ok(())
}

fn cmd_info() -> Result<(), String> {
    let v100 = dedukt::gpu::DeviceConfig::v100();
    println!("GPU preset: {}", v100.name);
    println!(
        "  SMs {} @ {:.2} GHz, {} GiB HBM @ {}",
        v100.num_sms,
        v100.clock_ghz,
        v100.memory_bytes >> 30,
        v100.hbm_bandwidth
    );
    println!(
        "  NVLink {} | PCIe {}",
        v100.nvlink_bandwidth, v100.pcie_bandwidth
    );
    let net = dedukt::net::cost::NetworkParams::summit();
    println!("Network preset: Summit fat-tree");
    println!(
        "  injection {} per node, alltoallv efficiency {:.0}%, alpha {:.1} µs",
        net.node_injection,
        net.alltoallv_efficiency * 100.0,
        net.alpha_secs * 1e6
    );
    println!("Placements: 6 GPU ranks/node, 42 CPU ranks/node (paper §V-A)");
    Ok(())
}
