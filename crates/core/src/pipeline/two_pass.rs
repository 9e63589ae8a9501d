//! Out-of-core two-pass counting over the checksummed bin store
//! (DESIGN.md §12).
//!
//! Pass 1 partitions every rank's items (packed k-mers on the k-mer
//! pipelines, supermers on the supermer pipeline) into minimizer-keyed
//! bins on a simulated NVMe tier ([`dedukt_store::BinStore`]), one
//! checksum-framed block per contributing rank, and records a per-run
//! manifest. Pass 2 streams the bins back **one at a time**: each bin's
//! count table is sized from the manifest by the same safety ×
//! [`dedukt_gpu::MemPlan`] estimate the in-memory pipelines use, and the
//! bin count chosen by [`plan_bins`] guarantees every planned bin fits
//! the `--device-hbm` table budget.
//!
//! Robustness is the headline. A deterministic [`dedukt_store::IoPlan`]
//! (`--io-seed/--io-spec`) injects torn writes, bit rot, and transient
//! read errors via the shared coordinate-hash draws, so every engine
//! agrees on the fate of every block without coordination. Recovery
//! escalates in order: bounded re-reads for transient errors, then
//! quarantine of the damaged bin and re-derivation of its content by
//! replaying only that bin's slice of the (deterministic) input at a
//! fresh generation, bounded by the plan's re-derive budget. Exhausting
//! the budget is a clean [`RunError::StorageFailed`] — never a panic —
//! and spectra stay bit-identical to the in-memory pipelines under any
//! plan that lets the run finish.
//!
//! Pass 2 is resumable: every finished bin's counts land on disk
//! immediately (atomic write), so `--resume` re-counts only unfinished
//! bins after a mid-run kill (injected via `kill=N`, or real).

use crate::config::{ConfigError, Mode, RunConfig};
use crate::partition::{key_owner, minimizer_owner};
use crate::pipeline::driver::run_detail;
use crate::pipeline::{assemble_counts, RankCountResult, RunError, RunReport};
use crate::stats::{ExchangeSummary, PhaseBreakdown, WallClock};
use crate::supermer::build_supermers_windowed_w;
use crate::table::{capacity_for, HostCountTable};
use crate::width::PackedKmer;
use dedukt_dna::kmer::kmer_words_w;
use dedukt_dna::ReadSet;
use dedukt_gpu::mem_plan::estimate_factor;
use dedukt_hash::Murmur3x64;
use dedukt_net::cost::{Network, SsdParams};
use dedukt_net::BspWorld;
use dedukt_sim::rng::mix_coords;
use dedukt_sim::{Journal, JournalEvent, MetricsRegistry, SimTime};
use dedukt_store::plan::read_errors;
use dedukt_store::{read_bin_counts, write_bin_counts, BinCounts, BinMeta, BinStore, Manifest};
use std::sync::Arc;
use std::time::Instant;

/// Headroom multiplier on the mean per-bin load when sizing bins:
/// minimizer-keyed bins are skewed, so a bin is only *guaranteed* to fit
/// its table budget with slack for the heavy tail.
pub const BIN_SKEW_MARGIN: f64 = 2.0;

/// Number of bins for pass 1: the smallest power-of-two multiple of
/// `nranks` whose per-bin count table — sized exactly like the live
/// pipelines size theirs ([`capacity_for`] over the expected load scaled
/// by `BIN_SKEW_MARGIN` × `table_safety`) — fits `device_budget_bytes`.
///
/// Public so the property tests can check the guarantee directly: for
/// any instance total, every planned bin's worst-case table allocation
/// stays within the budget (or bin splitting has hit the point of
/// diminishing returns — one expected instance per bin).
pub fn plan_bins(
    total_instances: u64,
    nranks: usize,
    table_safety: f64,
    load_factor: f64,
    device_budget_bytes: u64,
    slot_bytes: u64,
) -> usize {
    let nranks = nranks.max(1);
    let mut nbins = nranks;
    loop {
        let per_bin = (total_instances as f64 / nbins as f64) * BIN_SKEW_MARGIN;
        let expected = (per_bin * table_safety.max(1.0)).ceil().max(1.0) as usize;
        let table_bytes = capacity_for(expected, load_factor) as u64 * slot_bytes;
        if table_bytes <= device_budget_bytes || per_bin <= 1.0 {
            return nbins;
        }
        nbins *= 2;
    }
}

/// Bytes of one on-disk record: the packed word, plus a length byte on
/// the supermer pipeline (mirroring the wire format, §V-D).
fn record_bytes<K: PackedKmer>(mode: Mode) -> usize {
    match mode {
        Mode::GpuSupermer => K::WORD_BYTES + 1,
        _ => K::WORD_BYTES,
    }
}

/// One rank's pass-1 extraction: per-bin record payloads and k-mer
/// instance counts. Re-derivation calls the same function, so a
/// re-derived bin is byte-identical to what pass 1 wrote.
struct RankExtract {
    /// `payloads[bin]` — this rank's records routed to each bin.
    payloads: Vec<Vec<u8>>,
    /// `instances[bin]` — k-mer instances those records will insert.
    instances: Vec<u64>,
    /// Bases parsed (prices the extraction at the CPU parse rate).
    bases: u64,
}

/// Extracts one rank's partition into per-bin record payloads. Bin
/// assignment reuses the owner-rank machinery over `nbins`: the k-mer
/// pipelines hash the (canonicalized) key, the supermer pipeline hashes
/// the minimizer — either way every instance of a distinct k-mer lands
/// in the same bin, so per-bin tables are disjoint and the merged
/// spectrum is exact.
fn extract_rank<K: PackedKmer>(rc: &RunConfig, part: &ReadSet, nbins: usize) -> RankExtract {
    let cfg = &rc.counting;
    let hasher = Murmur3x64::new(cfg.hash_seed);
    let mut payloads: Vec<Vec<u8>> = vec![Vec::new(); nbins];
    let mut instances = vec![0u64; nbins];
    let mut bases = 0u64;
    match rc.mode {
        Mode::CpuBaseline | Mode::GpuKmer => {
            for read in &part.reads {
                bases += read.codes.len() as u64;
                for w in kmer_words_w::<K>(&read.codes, cfg.k, cfg.encoding) {
                    let key = if cfg.canonical {
                        w.canonical_word(cfg.k)
                    } else {
                        w
                    };
                    let bin = key_owner(&hasher, key, nbins);
                    payloads[bin].extend_from_slice(&key.to_u128().to_le_bytes()[..K::WORD_BYTES]);
                    instances[bin] += 1;
                }
            }
        }
        Mode::GpuSupermer => {
            let scheme = cfg.minimizer_scheme();
            for read in &part.reads {
                bases += read.codes.len() as u64;
                for s in build_supermers_windowed_w::<K>(&read.codes, cfg.k, cfg.window, &scheme) {
                    let bin = minimizer_owner(&hasher, s.minimizer, nbins);
                    payloads[bin]
                        .extend_from_slice(&s.word.to_u128().to_le_bytes()[..K::WORD_BYTES]);
                    payloads[bin].push(s.len);
                    instances[bin] += s.num_kmers(cfg.k) as u64;
                }
            }
        }
    }
    RankExtract {
        payloads,
        instances,
        bases,
    }
}

/// Counts one bin's record payloads into `table`, returning the
/// instances inserted. The inverse of [`extract_rank`]'s serialization.
fn count_payloads<K: PackedKmer>(
    rc: &RunConfig,
    payloads: &[Vec<u8>],
    table: &mut HostCountTable<K>,
) -> u64 {
    let cfg = &rc.counting;
    let rec = record_bytes::<K>(rc.mode);
    let mut inserted = 0u64;
    for payload in payloads {
        debug_assert!(payload.len().is_multiple_of(rec));
        for chunk in payload.chunks_exact(rec) {
            let mut word_bytes = [0u8; 16];
            word_bytes[..K::WORD_BYTES].copy_from_slice(&chunk[..K::WORD_BYTES]);
            let word = K::from_u128(u128::from_le_bytes(word_bytes));
            match rc.mode {
                Mode::GpuSupermer => {
                    let len = chunk[K::WORD_BYTES] as usize;
                    for i in 0..len - cfg.k + 1 {
                        table.insert(word.subword(len, i, cfg.k));
                        inserted += 1;
                    }
                }
                _ => {
                    table.insert(word);
                    inserted += 1;
                }
            }
        }
    }
    inserted
}

/// Run fingerprint stored in the manifest: everything that shapes what
/// the bins contain — counting parameters, bin layout, the pre-filter,
/// and a digest of the input reads. The io plan is deliberately
/// *excluded* so a killed run resumes under a different (or absent)
/// fault plan; the fates of already-finished bins are history.
fn run_fingerprint(rc: &RunConfig, nranks: usize, nbins: usize, reads: &ReadSet) -> String {
    let mut h = 0x0F1E_2D3C_4B5A_6978u64;
    for label_byte in rc.mode.label().bytes() {
        h = mix_coords(h, &[label_byte as u64]);
    }
    let cfg = &rc.counting;
    h = mix_coords(
        h,
        &[
            cfg.k as u64,
            cfg.m as u64,
            cfg.window as u64,
            cfg.canonical as u64,
            cfg.hash_seed,
            nranks as u64,
            nbins as u64,
            rc.min_count as u64,
        ],
    );
    h = mix_coords(h, &[reads.reads.len() as u64]);
    for read in &reads.reads {
        h = mix_coords(h, &[read.codes.len() as u64]);
        for chunk in read.codes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            h = mix_coords(h, &[u64::from_le_bytes(w)]);
        }
    }
    format!("{h:016x}")
}

/// Shorthand: a store-level failure (mkdir, manifest, file write) that
/// is not attributable to one bin's recovery budget.
fn store_failed(bin: u64, detail: String) -> RunError {
    RunError::StorageFailed { bin, detail }
}

/// Runs the out-of-core two-pass counter for whatever mode `rc` names.
///
/// Dispatched by [`crate::pipeline::run_typed`] whenever
/// `rc.two_pass_dir` is set; callers never invoke it directly.
pub(crate) fn run_two_pass_typed<K: PackedKmer>(
    reads: &ReadSet,
    rc: &RunConfig,
) -> Result<RunReport<K>, RunError> {
    let wall_run = Instant::now();
    let nranks = rc.nranks();
    let dir = rc.two_pass_dir.as_ref().expect("two-pass dispatch");
    let store = BinStore::create(dir).map_err(|e| store_failed(0, e))?;
    let ssd = SsdParams::nvme();
    let mut net = match rc.mode {
        Mode::CpuBaseline => Network::summit_cpu(rc.nodes),
        _ => Network::summit_gpu(rc.nodes),
    };
    net.params.algo = rc.exchange_algo;
    let mut world = BspWorld::new(net);
    assert_eq!(world.nranks(), nranks);
    let metrics = rc.collect_metrics.then(|| Arc::new(MetricsRegistry::new()));
    if let Some(m) = &metrics {
        world.enable_metrics(Arc::clone(m));
    }
    let journal = rc.collect_journal.then(|| Arc::new(Journal::new()));
    if let Some(j) = &journal {
        world.enable_journal(Arc::clone(j));
        j.push(JournalEvent::Meta {
            mode: rc.mode.label().to_string(),
            nodes: rc.nodes,
            nranks,
            detail: run_detail(rc),
        });
    }
    let parts = reads.partition_by_bases(nranks);
    let total_bases: u64 = parts
        .iter()
        .map(|p| p.reads.iter().map(|r| r.codes.len() as u64).sum::<u64>())
        .sum();
    let rec = record_bytes::<K>(rc.mode) as u64;
    let slot_bytes = std::mem::size_of::<K>() as u64 + 4;

    // ── Pass 1: extract, bin, and spill to the NVMe tier ───────────────
    // (Skipped wholesale under a valid `--resume`: the manifest *is*
    // pass 1's output, and the bin files are already on disk.)
    let manifest: Manifest;
    let mut write_bytes_total = 0u64;
    let mut parse_step_mean = SimTime::ZERO;
    let mut write_step_mean = SimTime::ZERO;
    if rc.two_pass_resume {
        let found = store
            .read_manifest()
            .map_err(|e| ConfigError::Io(format!("--resume: {e}")))?;
        let m = found.ok_or_else(|| {
            ConfigError::Io(format!(
                "--resume: no manifest in {} (nothing to resume; run without --resume first)",
                dir.display()
            ))
        })?;
        let expect = run_fingerprint(rc, nranks, m.bins.len(), reads);
        if m.fingerprint != expect {
            return Err(ConfigError::Io(format!(
                "--resume: manifest fingerprint {} does not match this run ({expect}); \
                 the store in {} was written by a different configuration or input",
                m.fingerprint,
                dir.display()
            ))
            .into());
        }
        manifest = m;
        write_bytes_total = manifest.bins.iter().map(|b| b.bytes).sum();
    } else {
        // Derive the bin count from the *exact* instance total, which
        // pass 1 knows before writing anything (a prepass in spirit —
        // charged with the extraction it shares its scan with).
        let probe: u64 = parts
            .iter()
            .map(|p| extract_rank::<K>(rc, p, 1).instances[0])
            .sum();
        let nbins = plan_bins(
            probe,
            nranks,
            rc.table_safety,
            rc.counting.table_load_factor,
            rc.gpu_device.memory_bytes,
            slot_bytes,
        );
        let (extracts, parse_step) = world.compute_step_named("parse", |rank| {
            let e = extract_rank::<K>(rc, &parts[rank], nbins);
            let dt = rc.cpu_model.parse_rate.time_for(e.bases as f64);
            (e, dt)
        });
        parse_step_mean = parse_step.mean;
        // Assemble each bin's blocks in rank order (one block per
        // contributing rank, empty contributions skipped) and write them
        // through the fault plan. SSD time is charged to the bin's owner
        // rank; the journal's `io` events are annotations on top.
        let mut write_secs = vec![SimTime::ZERO; nranks];
        let mut bins = Vec::with_capacity(nbins);
        for bin in 0..nbins {
            let mut blocks: Vec<Vec<u8>> = Vec::new();
            let mut instances = 0u64;
            for e in &extracts {
                if !e.payloads[bin].is_empty() {
                    blocks.push(e.payloads[bin].clone());
                }
                instances += e.instances[bin];
            }
            let w = store
                .write_bin(bin as u32, 0, &blocks, rc.io.as_ref())
                .map_err(|e| store_failed(bin as u64, e))?;
            let dt = ssd.write_time(w.physical_bytes);
            write_secs[bin % nranks] += dt;
            write_bytes_total += w.logical_bytes;
            if let Some(j) = &journal {
                j.push(JournalEvent::Io {
                    op: "write".to_string(),
                    bin: bin as u64,
                    bytes: w.logical_bytes,
                    secs: dt.as_secs(),
                });
            }
            bins.push(BinMeta {
                bin: bin as u32,
                blocks: w.blocks,
                bytes: w.logical_bytes,
                instances,
            });
        }
        manifest = Manifest {
            fingerprint: run_fingerprint(rc, nranks, nbins, reads),
            bins,
        };
        store
            .write_manifest(&manifest)
            .map_err(|e| store_failed(0, e))?;
        let (_, write_step) = world.compute_step_named("bin-write", |rank| ((), write_secs[rank]));
        write_step_mean = write_step.mean;
    }
    let nbins = manifest.bins.len();
    let wall_parse = wall_run.elapsed().as_secs_f64();
    let wall_rounds_start = Instant::now();

    // ── Pass 2: stream bins back one at a time ─────────────────────────
    let mut rank_results: Vec<RankCountResult<K>> = (0..nranks)
        .map(|_| RankCountResult {
            entries: Vec::new(),
            instances: 0,
        })
        .collect();
    let mut read_secs = vec![SimTime::ZERO; nranks];
    let mut count_secs = vec![SimTime::ZERO; nranks];
    let mut read_bytes_total = 0u64;
    let mut retries_total = 0u64;
    let mut quarantined_total = 0u64;
    let mut rederives_total = 0u64;
    let mut rederived_bytes_total = 0u64;
    let mut filtered_total = 0u64;
    let mut filtered_instances_total = 0u64;
    let mut recovery_total = SimTime::ZERO;
    let mut completed_this_run = 0u64;
    let kill_after = rc.io.as_ref().and_then(|p| p.spec().kill_after);
    for meta in &manifest.bins {
        let bin = meta.bin as u64;
        let owner = meta.bin as usize % nranks;
        // A finished bin's counts are already on disk — under `--resume`
        // they are loaded, not recounted. (A fresh run ignores and
        // overwrites any counts a killed predecessor left behind.)
        if rc.two_pass_resume {
            if let Some(c) = read_bin_counts(&store.counts_path(meta.bin)) {
                for &(key, count) in &c.entries {
                    rank_results[owner].entries.push((K::from_u128(key), count));
                }
                rank_results[owner].instances += c.instances;
                filtered_total += c.filtered;
                filtered_instances_total += c.filtered_instances;
                continue;
            }
        }
        if kill_after.is_some_and(|n| completed_this_run >= n) {
            return Err(store_failed(
                bin,
                format!(
                    "injected kill after {completed_this_run} completed bins; \
                     re-run with --resume to count the remaining bins"
                ),
            ));
        }
        // Bounded recovery ladder: transient read errors retry (fresh
        // draw per attempt), real damage quarantines the generation and
        // re-derives the bin from its deterministic input slice.
        let mut generation = 0u32;
        let mut attempts = 0u64;
        let mut rederives_used = 0u32;
        let spec = rc.io.as_ref().map(|p| *p.spec());
        let payloads = 'bin: loop {
            let budget = spec.map_or(1, |s| s.max_retries);
            let mut damage: Option<String> = None;
            for _ in 0..budget {
                let transient = rc
                    .io
                    .as_ref()
                    .is_some_and(|p| read_errors(p, bin, attempts));
                attempts += 1;
                if transient {
                    retries_total += 1;
                    let dt = SimTime::from_secs(ssd.seek_secs);
                    read_secs[owner] += dt;
                    recovery_total += dt;
                    if let Some(j) = &journal {
                        j.push(JournalEvent::Io {
                            op: "retry".to_string(),
                            bin,
                            bytes: 0,
                            secs: dt.as_secs(),
                        });
                    }
                    continue;
                }
                match store.read_bin(meta.bin, generation, meta.blocks) {
                    Ok(p) => {
                        let dt = ssd.read_time(meta.bytes);
                        read_secs[owner] += dt;
                        read_bytes_total += meta.bytes;
                        if let Some(j) = &journal {
                            j.push(JournalEvent::Io {
                                op: "read".to_string(),
                                bin,
                                bytes: meta.bytes,
                                secs: dt.as_secs(),
                            });
                        }
                        break 'bin p;
                    }
                    Err(e) => {
                        // Persistent damage: retrying the same bytes
                        // cannot help — escalate to re-derivation.
                        damage = Some(e.to_string());
                        break;
                    }
                }
            }
            if rederives_used >= spec.map_or(0, |s| s.max_rederives) {
                return Err(store_failed(
                    bin,
                    format!(
                        "bin unreadable after {attempts} read attempt(s) and \
                         {rederives_used} re-derive(s): {}",
                        damage.unwrap_or_else(|| "transient read errors exhausted \
                             the retry budget"
                            .to_string())
                    ),
                ));
            }
            quarantined_total += 1;
            if let Some(j) = &journal {
                j.push(JournalEvent::Io {
                    op: "quarantine".to_string(),
                    bin,
                    bytes: meta.bytes,
                    secs: 0.0,
                });
            }
            // Re-derive: replay every partition's deterministic input,
            // keep only this bin's records, and write a fresh generation
            // (fresh write-fate draws). Byte-identical to pass 1's
            // content by construction — same extraction function.
            rederives_used += 1;
            rederives_total += 1;
            generation += 1;
            let mut blocks: Vec<Vec<u8>> = Vec::new();
            for part in &parts {
                let e = extract_rank::<K>(rc, part, nbins);
                let payload = e.payloads[meta.bin as usize].clone();
                if !payload.is_empty() {
                    blocks.push(payload);
                }
            }
            let w = store
                .write_bin(meta.bin, generation, &blocks, rc.io.as_ref())
                .map_err(|e| store_failed(bin, e))?;
            let dt = rc.cpu_model.parse_rate.time_for(total_bases as f64)
                + ssd.write_time(w.physical_bytes);
            read_secs[owner] += dt;
            recovery_total += dt;
            rederived_bytes_total += w.logical_bytes;
            if let Some(j) = &journal {
                j.push(JournalEvent::Io {
                    op: "rederive".to_string(),
                    bin,
                    bytes: w.logical_bytes,
                    secs: dt.as_secs(),
                });
            }
        };
        // Count the bin into a table sized from the manifest by the same
        // safety × MemPlan estimate the in-memory pipelines apply — the
        // fit `plan_bins` guaranteed against the device budget.
        let factor = rc.table_safety * rc.mem.map_or(1.0, |p| estimate_factor(&p, owner));
        let expected = ((meta.instances as f64) * factor).ceil().max(1.0) as usize;
        let mut table = HostCountTable::<K>::with_expected(
            expected,
            rc.counting.table_load_factor,
            rc.counting.hash_seed ^ 0xC0C0,
        );
        let inserted = count_payloads::<K>(rc, &payloads, &mut table);
        debug_assert_eq!(inserted, meta.instances);
        count_secs[owner] += rc.cpu_model.count_rate.time_for(inserted as f64);
        // Gerbil-style pre-filter: counts below `--min-count` never
        // leave the bin; the dump and spectrum see only survivors.
        let mut counts = BinCounts::default();
        for (key, count) in table.iter() {
            if count >= rc.min_count {
                counts.entries.push((key.to_u128(), count));
                counts.instances += count as u64;
            } else {
                counts.filtered += 1;
                counts.filtered_instances += count as u64;
            }
        }
        write_bin_counts(&store.counts_path(meta.bin), &counts)
            .map_err(|e| store_failed(bin, e))?;
        for &(key, count) in &counts.entries {
            rank_results[owner].entries.push((K::from_u128(key), count));
        }
        rank_results[owner].instances += counts.instances;
        filtered_total += counts.filtered;
        filtered_instances_total += counts.filtered_instances;
        completed_this_run += 1;
    }
    let (_, read_step) = world.compute_step_named("bin-read", |rank| ((), read_secs[rank]));
    let (_, count_step) = world.compute_step_named("count", |rank| ((), count_secs[rank]));
    let wall_rounds = wall_rounds_start.elapsed().as_secs_f64();
    let wall_finish_start = Instant::now();

    // ── Report assembly ────────────────────────────────────────────────
    let phases = PhaseBreakdown {
        parse: parse_step_mean,
        exchange: write_step_mean + read_step.mean,
        count: count_step.mean,
    };
    let makespan = world.elapsed();
    let wall = WallClock {
        parse: wall_parse,
        rounds: wall_rounds,
        finish: wall_finish_start.elapsed().as_secs_f64(),
        total: wall_run.elapsed().as_secs_f64(),
    };
    let units = manifest.bins.iter().map(|b| b.bytes).sum::<u64>() / rec;
    if let Some(m) = &metrics {
        m.counter_add("storage_write_bytes_total", None, write_bytes_total);
        m.counter_add("storage_read_bytes_total", None, read_bytes_total);
        if retries_total > 0 {
            m.counter_add("io_retries_total", None, retries_total);
        }
        if quarantined_total > 0 {
            m.counter_add("quarantined_bins_total", None, quarantined_total);
            m.counter_add("rederived_bins_total", None, rederives_total);
            m.counter_add("rederive_bytes_total", None, rederived_bytes_total);
        }
        if retries_total > 0 || quarantined_total > 0 {
            m.gauge_add("recovery_seconds_total", None, recovery_total.as_secs());
        }
        if rc.min_count > 1 {
            m.counter_add("filtered_kmers_total", None, filtered_total);
            m.counter_add(
                "filtered_kmer_instances_total",
                None,
                filtered_instances_total,
            );
        }
        m.gauge_set("phase_seconds:parse", None, phases.parse.as_secs());
        m.gauge_set("phase_seconds:exchange", None, phases.exchange.as_secs());
        m.gauge_set("phase_seconds:count", None, phases.count.as_secs());
        m.gauge_set("makespan_seconds", None, makespan.as_secs());
        m.gauge_set("wall_seconds:parse", None, wall.parse);
        m.gauge_set("wall_seconds:rounds", None, wall.rounds);
        m.gauge_set("wall_seconds:finish", None, wall.finish);
        m.gauge_set("wall_seconds:total", None, wall.total);
    }
    if let Some(j) = &journal {
        j.push(JournalEvent::Phase {
            phase: "parse".to_string(),
            secs: phases.parse.as_secs(),
        });
        j.push(JournalEvent::Phase {
            phase: "exchange".to_string(),
            secs: phases.exchange.as_secs(),
        });
        j.push(JournalEvent::Phase {
            phase: "count".to_string(),
            secs: phases.count.as_secs(),
        });
        for (stage, secs) in [
            ("parse", wall.parse),
            ("rounds", wall.rounds),
            ("finish", wall.finish),
            ("total", wall.total),
        ] {
            j.push(JournalEvent::Wall {
                stage: stage.to_string(),
                secs,
            });
        }
        j.push(JournalEvent::Run {
            makespan: makespan.as_secs(),
        });
    }
    let trace = rc.collect_trace.then(|| world.take_trace());
    let trace_counters = rc.collect_trace.then(|| world.take_trace_counters());
    let (load, total, distinct, spectrum, tables) =
        assemble_counts(rank_results, rc.collect_spectrum, rc.collect_tables);
    Ok(RunReport {
        mode: rc.mode,
        nodes: rc.nodes,
        nranks,
        phases,
        makespan,
        exchange: ExchangeSummary {
            units,
            bytes: write_bytes_total + read_bytes_total,
            rounds: nbins as u64,
            retries: retries_total,
            corrupt_buckets: quarantined_total,
            recovery_time: recovery_total,
            replayed_bytes: rederived_bytes_total,
            ..Default::default()
        },
        load,
        total_kmers: total,
        distinct_kmers: distinct,
        spectrum,
        tables,
        trace,
        trace_counters,
        metrics: metrics.map(|m| m.snapshot()),
        wall,
        journal: journal.map(|j| j.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::run_typed;
    use dedukt_dna::{Dataset, DatasetId, ScalePreset};
    use dedukt_store::{IoPlan, IoSpec};
    use std::path::PathBuf;

    fn tiny_reads() -> ReadSet {
        Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dedukt-two-pass-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn base_rc(mode: Mode) -> RunConfig {
        let mut rc = RunConfig::new(mode, 1);
        rc.collect_spectrum = true;
        rc
    }

    #[test]
    fn clean_two_pass_matches_in_memory_on_every_mode() {
        let reads = tiny_reads();
        for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
            let rc = base_rc(mode);
            let mem = run_typed::<u64>(&reads, &rc).unwrap();
            let mut rc2 = rc.clone();
            rc2.two_pass_dir = Some(tmp_dir(&format!("clean-{}", mode.label())));
            let oo = run_typed::<u64>(&reads, &rc2).unwrap();
            assert_eq!(oo.total_kmers, mem.total_kmers, "{mode:?}");
            assert_eq!(oo.distinct_kmers, mem.distinct_kmers, "{mode:?}");
            assert_eq!(oo.spectrum, mem.spectrum, "{mode:?}");
            std::fs::remove_dir_all(rc2.two_pass_dir.unwrap()).ok();
        }
    }

    #[test]
    fn hostile_plan_recovers_and_matches_in_memory() {
        let reads = tiny_reads();
        let rc = base_rc(Mode::GpuSupermer);
        let mem = run_typed::<u64>(&reads, &rc).unwrap();
        let mut rc2 = rc.clone();
        rc2.two_pass_dir = Some(tmp_dir("hostile"));
        rc2.collect_journal = true;
        rc2.io = Some(IoPlan::new(7, IoSpec::default()));
        let oo = run_typed::<u64>(&reads, &rc2).unwrap();
        assert_eq!(oo.spectrum, mem.spectrum);
        assert_eq!(oo.total_kmers, mem.total_kmers);
        std::fs::remove_dir_all(rc2.two_pass_dir.unwrap()).ok();
    }

    #[test]
    fn kill_then_resume_reproduces_the_clean_spectrum() {
        let reads = tiny_reads();
        let rc = base_rc(Mode::CpuBaseline);
        let mem = run_typed::<u64>(&reads, &rc).unwrap();
        let mut rc2 = rc.clone();
        let dir = tmp_dir("kill-resume");
        rc2.two_pass_dir = Some(dir.clone());
        let mut spec = IoSpec::none();
        spec.kill_after = Some(2);
        rc2.io = Some(IoPlan::new(1, spec));
        let err = run_typed::<u64>(&reads, &rc2).unwrap_err();
        assert!(
            matches!(err, RunError::StorageFailed { .. }),
            "kill must be a clean storage failure, got {err:?}"
        );
        assert!(err.to_string().contains("--resume"));
        let mut rc3 = rc.clone();
        rc3.two_pass_dir = Some(dir.clone());
        rc3.two_pass_resume = true;
        let resumed = run_typed::<u64>(&reads, &rc3).unwrap();
        assert_eq!(resumed.spectrum, mem.spectrum);
        assert_eq!(resumed.total_kmers, mem.total_kmers);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn resume_rejects_a_mismatched_manifest() {
        let reads = tiny_reads();
        let dir = tmp_dir("mismatch");
        let mut rc = base_rc(Mode::CpuBaseline);
        rc.two_pass_dir = Some(dir.clone());
        run_typed::<u64>(&reads, &rc).unwrap();
        rc.counting.hash_seed ^= 0xBEEF; // different run shape, same store
        rc.two_pass_resume = true;
        let err = run_typed::<u64>(&reads, &rc).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        // And resuming an empty store names the flag too.
        let empty = tmp_dir("mismatch-empty");
        rc.two_pass_dir = Some(empty.clone());
        let err = run_typed::<u64>(&reads, &rc).unwrap_err();
        assert!(err.to_string().contains("--resume"), "{err}");
        std::fs::remove_dir_all(dir).ok();
        std::fs::remove_dir_all(empty).ok();
    }

    #[test]
    fn min_count_filters_singletons_and_reports_them() {
        let reads = tiny_reads();
        let mut rc = base_rc(Mode::CpuBaseline);
        rc.collect_metrics = true;
        rc.two_pass_dir = Some(tmp_dir("min-count"));
        rc.min_count = 2;
        let filtered = run_typed::<u64>(&reads, &rc).unwrap();
        let mut rc1 = rc.clone();
        rc1.two_pass_dir = Some(tmp_dir("min-count-1"));
        rc1.min_count = 1;
        let full = run_typed::<u64>(&reads, &rc1).unwrap();
        assert!(filtered.distinct_kmers < full.distinct_kmers);
        let snap = filtered.metrics.unwrap();
        let dropped = full.distinct_kmers - filtered.distinct_kmers;
        assert_eq!(snap.counter_total("filtered_kmers_total"), dropped);
        // Every surviving spectrum entry sits at count >= 2.
        assert_eq!(filtered.spectrum.unwrap().singletons(), 0);
        std::fs::remove_dir_all(rc.two_pass_dir.unwrap()).ok();
        std::fs::remove_dir_all(rc1.two_pass_dir.unwrap()).ok();
    }

    #[test]
    fn exhausted_rederive_budget_is_a_clean_storage_failure() {
        let reads = tiny_reads();
        let mut rc = base_rc(Mode::CpuBaseline);
        rc.two_pass_dir = Some(tmp_dir("exhausted"));
        // Every read attempt fails; retries and re-derives cannot save it.
        let mut spec = IoSpec::none();
        spec.read_error_rate = 1.0;
        spec.max_retries = 2;
        spec.max_rederives = 1;
        rc.io = Some(IoPlan::new(3, spec));
        let err = run_typed::<u64>(&reads, &rc).unwrap_err();
        match err {
            RunError::StorageFailed { detail, .. } => {
                assert!(detail.contains("re-derive"), "{detail}");
            }
            other => panic!("expected StorageFailed, got {other:?}"),
        }
        std::fs::remove_dir_all(rc.two_pass_dir.unwrap()).ok();
    }

    #[test]
    fn planned_bins_fit_the_device_budget() {
        let slot = 12u64;
        for total in [0u64, 100, 10_000, 5_000_000] {
            for budget in [1u64 << 16, 1 << 20, 1 << 30] {
                let nbins = plan_bins(total, 6, 1.0, 0.7, budget, slot);
                assert!(nbins >= 6);
                let per_bin = (total as f64 / nbins as f64) * BIN_SKEW_MARGIN;
                let cap = capacity_for(per_bin.ceil().max(1.0) as usize, 0.7) as u64;
                assert!(
                    cap * slot <= budget || per_bin <= 1.0,
                    "total={total} budget={budget} nbins={nbins}"
                );
            }
        }
    }
}
