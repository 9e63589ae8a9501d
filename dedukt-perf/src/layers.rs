//! Per-layer measurements of the traced run: each layer's public entry
//! point timed from outside, replaying the workload's own input, plus
//! the exact counts a job's report carries.

use crate::stats::median;
use dedukt::core::partition::key_owner;
use dedukt::core::pipeline::gpu_common::chunked_launch;
use dedukt::core::supermer::build_supermers_windowed;
use dedukt::core::table::table_capacity;
use dedukt::core::{DeviceCountTable, HostCountTable, Mode, RunConfig, RunReport};
use dedukt::dna::kmer::kmer_words;
use dedukt::dna::ReadSet;
use dedukt::gpu::{Device, DeviceConfig};
use dedukt::hash::{owner_rank_mult_shift, Murmur3x64};
use dedukt::net::cost::Network;
use dedukt::net::BspWorld;
use dedukt::sim::SimTime;
use dedukt::store::BinStore;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Every per-layer metric the traced run reports, with its unit and the
/// direction in which it improves.
pub const PER_LAYER: [(&str, &str, &str); 37] = [
    ("fastq.parse_s", "s", "lower"),
    ("pipeline.run_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("driver.parse_s", "s", "lower"),
    ("driver.rounds_s", "s", "lower"),
    ("driver.finish_s", "s", "lower"),
    ("dump.merge_s", "s", "lower"),
    ("dump.write_s", "s", "lower"),
    ("job.cpu_util", "ratio", "higher"),
    ("kmer.mkmer_per_s", "Mkmer/s", "higher"),
    ("murmur3.mhash_per_s", "Mhash/s", "higher"),
    ("minimizer.mkmer_per_s", "Mkmer/s", "higher"),
    ("supermer.build_mkmer_per_s", "Mkmer/s", "higher"),
    ("supermer.kmers_per_supermer", "ratio", "higher"),
    ("table.host_mups", "Mupdate/s", "higher"),
    ("table.host_probes_per_insert", "ratio", "lower"),
    ("table.device_mups", "Mupdate/s", "higher"),
    ("launch.overhead_us", "us", "lower"),
    ("bsp.step_overhead_us", "us", "lower"),
    ("bsp.alltoallv_gb_per_s", "GB/s", "higher"),
    ("store.write_mb_per_s", "MB/s", "higher"),
    ("store.read_mb_per_s", "MB/s", "higher"),
    ("store.bytes", "B", "lower"),
    ("store.files", "count", "lower"),
    ("net.exchange_bytes", "B", "lower"),
    ("net.rounds", "count", "lower"),
    ("net.units", "count", "lower"),
    ("sim.makespan_s", "sim_s", "lower"),
    ("sim.parse_s", "sim_s", "lower"),
    ("sim.exchange_s", "sim_s", "lower"),
    ("sim.count_s", "sim_s", "lower"),
    ("sim.load_imbalance", "ratio", "lower"),
    ("observe.overhead", "ratio", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("job.traced_s", "s", "lower"),
    ("job.plain_s", "s", "lower"),
    ("job.observed_s", "s", "lower"),
];

/// Empty launches or supersteps timed per repetition.
const OVERHEAD_CALLS: u32 = 200;

/// The exact, repeatable quantities of one job's report.
pub fn report_metrics(report: &RunReport) -> Vec<(&'static str, f64)> {
    vec![
        ("net.exchange_bytes", report.exchange.bytes as f64),
        ("net.rounds", report.exchange.rounds as f64),
        ("net.units", report.exchange.units as f64),
        ("sim.makespan_s", report.makespan.as_secs()),
        ("sim.parse_s", report.phases.parse.as_secs()),
        ("sim.exchange_s", report.phases.exchange.as_secs()),
        ("sim.count_s", report.phases.count.as_secs()),
        ("sim.load_imbalance", report.load.imbalance()),
    ]
}

/// Bytes and files under `dir` (0 and 0 when it does not exist).
pub fn scan_dir(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .fold((0, 0), |(bytes, files), m| (bytes + m.len(), files + 1))
}

/// Everything the layer replays need from one workload.
pub struct LayerInput<'a> {
    /// The workload's reads, as a job parses them.
    pub reads: &'a ReadSet,
    /// The workload's run configuration.
    pub rc: &'a RunConfig,
    /// Exchange payload bytes and rounds of one job.
    pub exchange_bytes: u64,
    /// Exchange rounds of one job.
    pub exchange_rounds: u64,
    /// Block sizes of every bin the store replay writes.
    pub bins: Vec<Vec<usize>>,
    /// Scratch directory for the store replay (created and removed).
    pub scratch: &'a Path,
}

/// The store replay's bin layout: the two-pass job's own manifest when
/// it wrote one, otherwise one bin per destination rank holding one
/// block per source rank of the job's exchanged bytes.
pub fn bin_layout(store: &Path, nranks: usize, exchange_bytes: u64) -> Vec<Vec<usize>> {
    let manifest = store
        .is_dir()
        .then(|| BinStore::create(store).and_then(|s| s.read_manifest()));
    if let Some(Ok(Some(manifest))) = manifest {
        return manifest
            .bins
            .iter()
            .map(|b| {
                let blocks = b.blocks.max(1) as usize;
                let bytes = b.bytes as usize;
                (0..blocks)
                    .map(|i| bytes / blocks + usize::from(i < bytes % blocks))
                    .collect()
            })
            .collect();
    }
    let block = (exchange_bytes / (nranks * nranks) as u64) as usize;
    vec![vec![block; nranks]; nranks]
}

fn rate(work: f64, secs: f64) -> f64 {
    work / secs.max(1e-9)
}

/// Runs every layer replay `reps` times and returns the medians.
pub fn measure(input: &LayerInput, reps: usize) -> Result<Vec<(&'static str, f64)>, String> {
    let cfg = &input.rc.counting;
    let nranks = input.rc.nranks();
    let words: Vec<u64> = input
        .reads
        .reads
        .iter()
        .flat_map(|r| kmer_words(&r.codes, cfg.k, cfg.encoding))
        .collect();
    let hasher = Murmur3x64::new(cfg.hash_seed);
    let mut per_rank: Vec<Vec<u64>> = vec![Vec::new(); nranks];
    for &w in &words {
        per_rank[key_owner(&hasher, w, nranks)].push(w);
    }
    let nwords = words.len() as f64;

    let mut samples: Vec<(&'static str, Vec<f64>)> = Vec::new();
    let mut push = |name: &'static str, value: f64| match samples.iter_mut().find(|s| s.0 == name) {
        Some(s) => s.1.push(value),
        None => samples.push((name, vec![value])),
    };
    for _ in 0..reps {
        // dna::kmer — rolling 2-bit k-mer extraction.
        let t = Instant::now();
        let mut acc = 0u64;
        let mut n = 0u64;
        for r in &input.reads.reads {
            for w in kmer_words(&r.codes, cfg.k, cfg.encoding) {
                acc ^= w;
                n += 1;
            }
        }
        black_box(acc);
        push(
            "kmer.mkmer_per_s",
            rate(n as f64 / 1e6, t.elapsed().as_secs_f64()),
        );

        // hash — MurmurHash3 plus owner-rank routing at this rank count.
        let t = Instant::now();
        let acc = words.iter().fold(0usize, |a, &w| {
            a.wrapping_add(owner_rank_mult_shift(hasher.hash_u64(w), nranks))
        });
        black_box(acc);
        push(
            "murmur3.mhash_per_s",
            rate(nwords / 1e6, t.elapsed().as_secs_f64()),
        );

        // core::minimizer — scan of every k-mer's m-mer windows.
        let scheme = cfg.minimizer_scheme();
        let t = Instant::now();
        let acc = words
            .iter()
            .fold(0u64, |a, &w| a ^ scheme.minimizer_of(w, cfg.k).word);
        black_box(acc);
        push(
            "minimizer.mkmer_per_s",
            rate(nwords / 1e6, t.elapsed().as_secs_f64()),
        );

        // core::supermer — Algorithm 2 over every read.
        let t = Instant::now();
        let (mut supermers, mut kmers) = (0u64, 0u64);
        for r in &input.reads.reads {
            let s = build_supermers_windowed(&r.codes, cfg.k, cfg.window, &scheme);
            supermers += s.len() as u64;
            kmers += s.iter().map(|s| s.num_kmers(cfg.k) as u64).sum::<u64>();
        }
        push(
            "supermer.build_mkmer_per_s",
            rate(kmers as f64 / 1e6, t.elapsed().as_secs_f64()),
        );
        push(
            "supermer.kmers_per_supermer",
            kmers as f64 / supermers.max(1) as f64,
        );

        // core::table — one host table per rank, sized like the CPU
        // engine sizes them, fed that rank's k-mers.
        let t = Instant::now();
        let mut probes = 0u64;
        for part in &per_rank {
            let mut table: HostCountTable = HostCountTable::with_expected(
                part.len(),
                cfg.table_load_factor,
                cfg.hash_seed ^ 0xC0C0,
            );
            for &w in part {
                table.insert(w);
            }
            probes += table.probe_steps();
            black_box(&table);
        }
        push(
            "table.host_mups",
            rate(nwords / 1e6, t.elapsed().as_secs_f64()),
        );
        push(
            "table.host_probes_per_insert",
            probes as f64 / nwords.max(1.0),
        );

        // core::table — the device table's CAS insert, one rank at a time,
        // sized like the GPU engines size theirs.
        let device = Device::new(DeviceConfig::v100());
        let t = Instant::now();
        for part in &per_rank {
            let table = DeviceCountTable::<u64>::new(
                &device,
                table_capacity(cfg, part.len()),
                cfg.hash_seed ^ 0xC0C0,
            )
            .map_err(|e| format!("device table replay: {e}"))?;
            for &w in part {
                black_box(table.insert(w));
            }
        }
        push(
            "table.device_mups",
            rate(nwords / 1e6, t.elapsed().as_secs_f64()),
        );

        // gpu::launch — an empty kernel in the pipelines' launch shape for
        // one rank's share of the bases.
        let shape = chunked_launch(input.reads.total_bases() / nranks);
        let t = Instant::now();
        for _ in 0..OVERHEAD_CALLS {
            black_box(device.launch_map("empty", shape, |_| ()));
        }
        push(
            "launch.overhead_us",
            t.elapsed().as_secs_f64() * 1e6 / OVERHEAD_CALLS as f64,
        );

        // net::bsp — an empty superstep, then this workload's exchange
        // volume as u64 matrices, one collective per round.
        let mut net = match input.rc.mode {
            Mode::CpuBaseline => Network::summit_cpu(input.rc.nodes),
            _ => Network::summit_gpu(input.rc.nodes),
        };
        net.params.algo = input.rc.exchange_algo;
        let mut world = BspWorld::new(net);
        let t = Instant::now();
        for _ in 0..OVERHEAD_CALLS {
            black_box(world.compute_step(|_| ((), SimTime::ZERO)));
        }
        push(
            "bsp.step_overhead_us",
            t.elapsed().as_secs_f64() * 1e6 / OVERHEAD_CALLS as f64,
        );

        let rounds = input.exchange_rounds.max(1);
        let pair_words =
            (input.exchange_bytes / rounds / (8 * (nranks * nranks) as u64)).max(1) as usize;
        let (mut moved, mut secs) = (0u64, 0.0);
        for _ in 0..rounds {
            let send: Vec<Vec<Vec<u64>>> = (0..nranks)
                .map(|src| {
                    (0..nranks)
                        .map(|dst| vec![(src ^ dst) as u64; pair_words])
                        .collect()
                })
                .collect();
            let t = Instant::now();
            let outcome = world.alltoallv(send);
            secs += t.elapsed().as_secs_f64();
            moved += (nranks * nranks * pair_words * 8) as u64;
            black_box(outcome);
        }
        push("bsp.alltoallv_gb_per_s", rate(moved as f64 / 1e9, secs));

        // store — write then read back every bin of the layout.
        let (write, read) = store_replay(&input.bins, input.scratch)?;
        push("store.write_mb_per_s", write);
        push("store.read_mb_per_s", read);
    }
    Ok(samples
        .into_iter()
        .map(|(name, v)| (name, median(&v)))
        .collect())
}

/// Writes and reads back `bins` through a fresh store under `scratch`;
/// returns (write, read) MB/s of payload.
fn store_replay(bins: &[Vec<usize>], scratch: &Path) -> Result<(f64, f64), String> {
    let store = BinStore::create(scratch)?;
    let payloads: Vec<Vec<Vec<u8>>> = bins
        .iter()
        .enumerate()
        .map(|(b, sizes)| sizes.iter().map(|&n| vec![b as u8; n]).collect())
        .collect();
    let bytes: usize = bins.iter().flatten().sum();
    let t = Instant::now();
    for (bin, blocks) in payloads.iter().enumerate() {
        store.write_bin(bin as u32, 0, blocks, None)?;
    }
    let write = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (bin, blocks) in payloads.iter().enumerate() {
        let back = store
            .read_bin(bin as u32, 0, blocks.len() as u32)
            .map_err(|e| format!("store replay: {e}"))?;
        black_box(back);
    }
    let read = t.elapsed().as_secs_f64();
    std::fs::remove_dir_all(scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    Ok((
        rate(bytes as f64 / 1e6, write),
        rate(bytes as f64 / 1e6, read),
    ))
}
