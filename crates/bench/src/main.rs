//! `dedukt-bench` — the default bench binary: a small, deterministic
//! three-engine baseline whose JSON output is checked in as
//! `BENCH_baseline.json` at the repo root.
//!
//! The baseline runs every counter (CPU baseline, GPU k-mer, GPU
//! supermer) on the tiny synthetic E. coli slice at paper-default
//! parameters and records the functional results (instances, distinct
//! k-mers) plus the simulated phase times. Because both the dataset and
//! the simulation are seeded and deterministic, those fields only change
//! when the cost models or the counting semantics change — making the
//! file a cheap drift detector for CI and for reviewers:
//!
//! ```text
//! cargo run --release -p dedukt-bench > BENCH_baseline.json
//! ```
//!
//! Each row also carries a `wall_total_secs` lane: real host wall-clock
//! seconds for the run ([`RunReport::wall`]). That number is
//! *nondeterministic* (it times this process, not the simulated
//! machine), so the drift gate treats it differently:
//!
//! ```text
//! cargo run --release -p dedukt-bench -- --check BENCH_baseline.json
//! ```
//!
//! `--check` re-runs the baseline and compares against the checked-in
//! file: every simulated/functional field must match **exactly**, while
//! wall-clock fields only need to stay within a loose multiplicative
//! band ([`WALL_TOLERANCE`]×) — wide enough for machine-to-machine
//! variance, tight enough to catch a pipeline stage going pathologically
//! slow. Exit status is 0 on pass, 1 on drift.
//!
//! The per-figure regenerators live in `src/bin/` (`fig3_breakdown`,
//! `table2_volume`, …); this binary is deliberately tiny so the
//! baseline stays fast enough to re-run on every PR.

use dedukt_bench::args::ExperimentArgs;
use dedukt_bench::runner;
use dedukt_core::config::RUN_FLAGS_USAGE;
use dedukt_core::{Mode, RunReport};
use dedukt_dna::DatasetId;
use dedukt_sim::journal::{parse_flat_json, FlatJson};

/// Fields compared byte-for-byte under `--check` (strings).
const EXACT_STR_FIELDS: &[&str] = &["mode"];

/// Fields compared for exact numeric equality under `--check`: all of
/// them are functional results or simulated seconds, deterministic by
/// construction.
const EXACT_NUM_FIELDS: &[&str] = &[
    "nodes",
    "nranks",
    "total_kmers",
    "distinct_kmers",
    "parse_secs",
    "exchange_secs",
    "count_secs",
    "total_secs",
    "makespan_secs",
    "exchange_bytes",
    "load_imbalance",
];

/// Host wall-clock fields: nondeterministic, so `--check` only requires
/// them to be positive, finite, and within [`WALL_TOLERANCE`]× of the
/// checked-in value in either direction.
const WALL_FIELDS: &[&str] = &["wall_total_secs"];

/// Multiplicative drift band for [`WALL_FIELDS`]. Deliberately loose:
/// the baseline may have been recorded on very different hardware. It
/// still catches a stage going pathologically slow (the failure mode
/// ROADMAP item 3's 10× wall-clock target cares about).
const WALL_TOLERANCE: f64 = 50.0;

/// One baseline row, hand-rolled to JSON (no serde in the workspace).
fn report_json(label: &str, nodes: usize, r: &RunReport) -> String {
    format!(
        "    {{\"mode\": \"{label}\", \"nodes\": {nodes}, \"nranks\": {}, \
         \"total_kmers\": {}, \"distinct_kmers\": {}, \
         \"parse_secs\": {:.6e}, \"exchange_secs\": {:.6e}, \"count_secs\": {:.6e}, \
         \"total_secs\": {:.6e}, \"makespan_secs\": {:.6e}, \
         \"exchange_bytes\": {}, \"load_imbalance\": {:.4}, \
         \"wall_total_secs\": {:.6e}}}",
        r.nranks,
        r.total_kmers,
        r.distinct_kmers,
        r.phases.parse.as_secs(),
        r.phases.exchange.as_secs(),
        r.phases.count.as_secs(),
        r.total_time().as_secs(),
        r.makespan.as_secs(),
        r.exchange.bytes,
        r.load.imbalance(),
        r.wall.total,
    )
}

/// Pulls the per-mode rows out of a baseline file: each row is one flat
/// JSON object on its own line inside the `"baseline"` array.
fn extract_rows(text: &str) -> Result<Vec<FlatJson>, String> {
    let mut rows = Vec::new();
    for line in text.lines() {
        let t = line.trim().trim_end_matches(',');
        if t.starts_with('{') && t.contains("\"mode\"") {
            rows.push(parse_flat_json(t).map_err(|e| format!("bad baseline row: {e}"))?);
        }
    }
    if rows.is_empty() {
        return Err("no baseline rows found (expected one `{\"mode\": ...}` per line)".into());
    }
    Ok(rows)
}

/// Compares a checked-in baseline against freshly computed rows. Exact
/// on simulated/functional fields, tolerant on wall-clock fields.
fn check_rows(baseline: &[FlatJson], fresh: &[FlatJson]) -> Result<(), String> {
    if baseline.len() != fresh.len() {
        return Err(format!(
            "row count drifted: baseline has {} rows, current run has {}",
            baseline.len(),
            fresh.len()
        ));
    }
    for (i, (b, f)) in baseline.iter().zip(fresh).enumerate() {
        let label = f.str_field("mode").unwrap_or("?").to_string();
        let at = |field: &str, e: String| format!("row {i} ({label}) field `{field}`: {e}");
        for &field in EXACT_STR_FIELDS {
            let bv = b.str_field(field).map_err(|e| at(field, e))?;
            let fv = f.str_field(field).map_err(|e| at(field, e))?;
            if bv != fv {
                return Err(format!(
                    "row {i}: mode drifted: baseline {bv:?} vs current {fv:?} \
                     (row order changed?)"
                ));
            }
        }
        for &field in EXACT_NUM_FIELDS {
            let bv = b.f64_field(field).map_err(|e| at(field, e))?;
            let fv = f.f64_field(field).map_err(|e| at(field, e))?;
            if bv != fv {
                return Err(format!(
                    "row {i} ({label}): `{field}` drifted: baseline {bv} vs current {fv} \
                     — simulated/functional fields must match exactly; if the change is \
                     intended, regenerate with `cargo run --release -p dedukt-bench > \
                     BENCH_baseline.json`"
                ));
            }
        }
        for &field in WALL_FIELDS {
            let bv = b.f64_field(field).map_err(|e| at(field, e))?;
            let fv = f.f64_field(field).map_err(|e| at(field, e))?;
            if !(bv.is_finite() && bv > 0.0) {
                return Err(format!(
                    "row {i} ({label}): baseline `{field}`={bv} is not a positive time"
                ));
            }
            if !(fv.is_finite() && fv > 0.0) {
                return Err(format!(
                    "row {i} ({label}): measured `{field}`={fv} is not a positive time"
                ));
            }
            let ratio = fv / bv;
            if !(1.0 / WALL_TOLERANCE..=WALL_TOLERANCE).contains(&ratio) {
                return Err(format!(
                    "row {i} ({label}): `{field}` outside the {WALL_TOLERANCE}x wall-clock \
                     band: baseline {bv:.3e}s vs current {fv:.3e}s (ratio {ratio:.1})"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    // `--check <baseline>` is bench-binary-specific, so peel it off
    // before handing the rest to the shared experiment-flag parser.
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    let mut check_path = None;
    if let Some(pos) = raw.iter().position(|a| a == "--check") {
        raw.remove(pos);
        if pos < raw.len() {
            check_path = Some(raw.remove(pos));
        } else {
            eprintln!("error: --check needs a baseline path");
            std::process::exit(2);
        }
    }
    let mut args = match ExperimentArgs::try_parse(raw.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: dedukt-bench [--check BENCH_baseline.json] [--scale tiny|bench|xFACTOR] \
                 [--nodes N] [--seed N]\n{RUN_FLAGS_USAGE}"
            );
            std::process::exit(2);
        }
    };
    // The checked-in baseline is the tiny deterministic slice; larger
    // scales remain available via --scale for local comparisons.
    if !raw.iter().any(|a| a == "--scale") {
        args.scale = dedukt_dna::ScalePreset::Tiny;
    }
    let nodes = args.nodes.unwrap_or(2);
    // Reject out-of-range run flags before any work. The GPU modes have
    // the fewest ranks, so a template valid for them is valid for every
    // row.
    if let Err(e) = args.config(Mode::GpuSupermer, nodes).validate() {
        eprintln!("error: {e}");
        std::process::exit(2);
    }
    let reads = runner::generate(DatasetId::EColi30x, &args);
    let mut rows = Vec::new();
    // The two_pass row is the out-of-core lane: the supermer engine
    // spooled through the two-pass bin store on the simulated NVMe tier.
    // Its functional fields and exchange bytes match the gpu-supermer
    // row; its simulated times add the disk.
    for (label, mode) in [
        ("cpu", Some(Mode::CpuBaseline)),
        ("gpu-kmer", Some(Mode::GpuKmer)),
        ("gpu-supermer", Some(Mode::GpuSupermer)),
        ("two_pass", None),
    ] {
        let report = match mode {
            Some(mode) => runner::run_mode(&reads, mode, nodes, &args),
            None => runner::run_two_pass(&reads, nodes, &args),
        };
        eprintln!(
            "  [bench] {label}: {} instances, {} distinct, total {} (wall {:.3}s)",
            report.total_kmers,
            report.distinct_kmers,
            report.total_time(),
            report.wall.total,
        );
        rows.push(report_json(label, nodes, &report));
    }
    if let Some(path) = check_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: --check {path}: {e}");
                std::process::exit(2);
            }
        };
        let verdict = extract_rows(&text).and_then(|baseline| {
            let fresh: Vec<FlatJson> = rows
                .iter()
                .map(|r| parse_flat_json(r.trim()).expect("bench rows are flat JSON"))
                .collect();
            check_rows(&baseline, &fresh)
        });
        match verdict {
            Ok(()) => {
                eprintln!(
                    "  [bench] --check PASS: {} rows match {path} (simulated fields exact, \
                     wall clock within {WALL_TOLERANCE}x)",
                    rows.len()
                );
            }
            Err(e) => {
                eprintln!("  [bench] --check FAIL vs {path}: {e}");
                std::process::exit(1);
            }
        }
    } else {
        println!("{{");
        println!("  \"dataset\": \"ecoli-tiny\",");
        println!("  \"k\": 17,");
        println!("  \"baseline\": [");
        println!("{}", rows.join(",\n"));
        println!("  ]");
        println!("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "dataset": "ecoli-tiny",
  "k": 17,
  "baseline": [
    {"mode": "cpu", "nodes": 2, "nranks": 84, "total_kmers": 10, "distinct_kmers": 5, "parse_secs": 1.0e0, "exchange_secs": 2.0e0, "count_secs": 3.0e0, "total_secs": 6.0e0, "makespan_secs": 7.0e0, "exchange_bytes": 100, "load_imbalance": 1.2000, "wall_total_secs": 5.0e-2}
  ]
}"#;

    #[test]
    fn extract_finds_rows() {
        let rows = extract_rows(SAMPLE).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].str_field("mode").unwrap(), "cpu");
        assert!(extract_rows("{}").is_err());
    }

    #[test]
    fn check_passes_on_identical_rows_and_wall_drift() {
        let rows = extract_rows(SAMPLE).unwrap();
        check_rows(&rows, &rows).unwrap();
        // Wall clock may drift by a lot without failing the gate.
        let drifted = SAMPLE.replace("5.0e-2", "9.0e-1");
        check_rows(&rows, &extract_rows(&drifted).unwrap()).unwrap();
    }

    #[test]
    fn check_rejects_simulated_and_pathological_wall_drift() {
        let rows = extract_rows(SAMPLE).unwrap();
        // Any simulated-field change fails exactly.
        let sim = extract_rows(&SAMPLE.replace("2.0e0", "2.1e0")).unwrap();
        assert!(check_rows(&rows, &sim)
            .unwrap_err()
            .contains("exchange_secs"));
        // Wall clock outside the tolerance band fails too.
        let wall = extract_rows(&SAMPLE.replace("5.0e-2", "9.9e1")).unwrap();
        assert!(check_rows(&rows, &wall)
            .unwrap_err()
            .contains("wall_total_secs"));
        // Missing rows fail.
        assert!(check_rows(&rows, &[]).unwrap_err().contains("row count"));
    }
}
