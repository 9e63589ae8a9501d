//! Golden tests for the `--metrics` export surface: the metric names and
//! totals form a schema that downstream dashboards key on, so this file
//! pins them. It also pins the zero-observer-effect guarantee: enabling
//! telemetry must not move a single simulated timestamp.

use dedukt::core::pipeline::{run, RunReport};
use dedukt::core::{Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ReadSet, ScalePreset};
use dedukt::sim::MetricValue;
use std::path::PathBuf;
use std::process::Command;

fn tiny_reads() -> ReadSet {
    Dataset::new(DatasetId::EColi30x, ScalePreset::Tiny).generate()
}

fn run_with_metrics(mode: Mode) -> RunReport {
    let reads = tiny_reads();
    let mut rc = RunConfig::new(mode, 2);
    rc.collect_metrics = true;
    run(&reads, &rc).expect("valid config")
}

/// Every series name the supermer pipeline exports. Renaming any of
/// these is a breaking change for metric consumers — update DESIGN.md's
/// observability section alongside this list.
const SUPERMER_SERIES: &[&str] = &[
    "alltoallv_wait_seconds_total",
    "alltoallv_wire_seconds_total",
    "compute_seconds_total",
    "count_probe_steps",
    "count_table_load_factor",
    "device_peak_bytes",
    "exchange_bytes_total",
    "exchange_collectives_total",
    "exchange_intra_node_bytes_total",
    "kernel_occupancy:build_supermers",
    "kernel_occupancy:count_kmers",
    "kmers_counted_total",
    "supermer_compression_ratio",
    "supermer_length_bases",
    "supermers_built_total",
];

#[test]
fn supermer_metrics_schema_is_stable() {
    let report = run_with_metrics(Mode::GpuSupermer);
    let snap = report.metrics().expect("metrics requested");
    let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
    for required in SUPERMER_SERIES {
        assert!(names.contains(required), "missing series {required}");
    }
    assert!(
        names
            .iter()
            .any(|n| n.starts_with("exchange_superstep_bytes:")),
        "missing per-superstep byte series"
    );
    // Snapshot ordering is name-major: deterministic export order.
    let mut sorted = snap.entries.clone();
    sorted.sort_by(|a, b| (&a.name, a.rank).cmp(&(&b.name, b.rank)));
    assert_eq!(snap.entries, sorted.as_slice());
}

#[test]
fn metric_totals_are_consistent_with_the_report() {
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let report = run_with_metrics(mode);
        let snap = report.metrics().unwrap();

        // Exchange accounting: the per-rank byte counters sum to the
        // report's wire total, and the per-superstep series partition it.
        assert_eq!(
            snap.counter_total("exchange_bytes_total"),
            report.exchange.bytes
        );
        let superstep_sum: u64 = snap
            .entries
            .iter()
            .filter(|e| e.name.starts_with("exchange_superstep_bytes:"))
            .map(|e| match e.value {
                MetricValue::Counter(v) => v,
                _ => 0,
            })
            .sum();
        assert_eq!(superstep_sum, report.exchange.bytes, "mode {mode:?}");

        // Tier split: the always-recorded intra-node counter matches the
        // report, and the two tiers partition the total exactly.
        assert_eq!(
            snap.counter_total("exchange_intra_node_bytes_total"),
            report.exchange.intra_node_bytes,
            "mode {mode:?}"
        );
        assert_eq!(
            report.exchange.intra_node_bytes + report.exchange.off_node_bytes,
            report.exchange.bytes,
            "mode {mode:?}"
        );

        // Counting: each rank's counter equals its reported load.
        assert_eq!(
            snap.counter_total("kmers_counted_total"),
            report.total_kmers
        );
        for (rank, &kmers) in report.load.kmers_per_rank.iter().enumerate() {
            assert_eq!(
                snap.get("kmers_counted_total", Some(rank)),
                Some(&MetricValue::Counter(kmers)),
                "mode {mode:?} rank {rank}"
            );
        }

        // GPU modes carry the probe-step histogram; one observation per
        // received k-mer, at least one probe each.
        if mode != Mode::CpuBaseline {
            for (rank, &kmers) in report.load.kmers_per_rank.iter().enumerate() {
                match snap.get("count_probe_steps", Some(rank)) {
                    Some(MetricValue::Histogram(h)) => {
                        assert_eq!(h.count(), kmers);
                        assert!(h.sum() >= kmers);
                    }
                    other => panic!("mode {mode:?} rank {rank}: {other:?}"),
                }
            }
        }
    }
}

/// Wide k (u128 keys) exports exactly the same series set as narrow k:
/// dashboards keyed on the schema never see the width. The wire totals
/// stay width-honest — 17 bytes per supermer (16-byte word + length).
#[test]
fn wide_metrics_schema_matches_narrow() {
    use std::collections::BTreeSet;
    let reads = tiny_reads();
    let mut rc = RunConfig::new(Mode::GpuSupermer, 2);
    rc.collect_metrics = true;
    let narrow = run(&reads, &rc).expect("valid config");
    rc.counting.k = 41;
    rc.counting.m = 11;
    rc.counting.window = 24;
    let wide = dedukt::core::pipeline::run_typed::<u128>(&reads, &rc).expect("valid wide config");
    let names = |r: &[dedukt::sim::metrics::MetricEntry]| -> BTreeSet<String> {
        r.iter().map(|e| e.name.clone()).collect()
    };
    assert_eq!(
        names(&narrow.metrics().unwrap().entries),
        names(&wide.metrics().unwrap().entries),
        "wide and narrow runs must export the same series"
    );
    assert_eq!(
        wide.metrics()
            .unwrap()
            .counter_total("exchange_bytes_total"),
        wide.exchange.units * 17,
        "wide supermers are 17 bytes on the wire"
    );
}

/// A zero-rate fault plan is a true no-op: the metric name set, the
/// `CommStats` wire-byte totals, every phase time and the makespan are
/// exactly what a run without any plan produces. This pins the PR 3
/// schema against accidental drift from the fault machinery.
#[test]
fn zero_fault_plan_changes_nothing() {
    use dedukt::net::{FaultPlan, FaultSpec};
    use std::collections::BTreeSet;
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_metrics = true;
        let plain = run(&reads, &rc).expect("valid config");
        rc.fault = Some(FaultPlan::new(12345, FaultSpec::none()));
        let zeroed = run(&reads, &rc).expect("zero-rate plan cannot fail");

        // Wire-byte accounting untouched, no retry residue.
        assert_eq!(zeroed.exchange.bytes, plain.exchange.bytes, "mode {mode:?}");
        assert_eq!(
            zeroed.exchange.off_node_bytes, plain.exchange.off_node_bytes,
            "mode {mode:?}"
        );
        assert_eq!(zeroed.exchange.rounds, plain.exchange.rounds);
        assert_eq!(zeroed.exchange.retries, 0, "mode {mode:?}");
        assert_eq!(zeroed.exchange.retry_bytes, 0, "mode {mode:?}");
        assert_eq!(zeroed.exchange.corrupt_buckets, 0);
        assert_eq!(
            zeroed.exchange.recovery_time,
            dedukt::sim::SimTime::ZERO,
            "mode {mode:?}"
        );

        // Simulated time bit-identical: no straggle factor, no backoff.
        assert_eq!(zeroed.phases.parse, plain.phases.parse, "mode {mode:?}");
        assert_eq!(
            zeroed.phases.exchange, plain.phases.exchange,
            "mode {mode:?}"
        );
        assert_eq!(zeroed.phases.count, plain.phases.count, "mode {mode:?}");
        assert_eq!(zeroed.makespan, plain.makespan, "mode {mode:?}");
        assert_eq!(
            zeroed.exchange.alltoallv_time, plain.exchange.alltoallv_time,
            "mode {mode:?}"
        );

        // The exported series set — the schema dashboards key on — is
        // exactly the PR 3 set: no fault series appear without retries.
        let names = |r: &RunReport| -> BTreeSet<String> {
            r.metrics()
                .unwrap()
                .entries
                .iter()
                .map(|e| e.name.clone())
                .collect()
        };
        assert_eq!(names(&zeroed), names(&plain), "mode {mode:?}");
    }
}

/// A zero-rate memory plan (plus the default safety factor) is a true
/// no-op, exactly like the zero-rate fault plan above: same table
/// sizing, same phase times, and the exported series set contains no
/// pressure series (`table_regrows_total`, `spill_kmers_total`,
/// `device_oom_events_total`, `hbm_high_water_bytes`). This pins the
/// pre-pressure schema against drift from the recovery machinery.
#[test]
fn zero_pressure_plan_changes_nothing() {
    use dedukt::gpu::{MemPlan, MemSpec};
    use std::collections::BTreeSet;
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_metrics = true;
        rc.collect_spectrum = true;
        let plain = run(&reads, &rc).expect("valid config");
        rc.mem = Some(MemPlan::new(98765, MemSpec::none()));
        rc.table_safety = 1.0;
        let zeroed = run(&reads, &rc).expect("zero-rate plan cannot fail");

        assert_eq!(zeroed.phases.parse, plain.phases.parse, "mode {mode:?}");
        assert_eq!(
            zeroed.phases.exchange, plain.phases.exchange,
            "mode {mode:?}"
        );
        assert_eq!(zeroed.phases.count, plain.phases.count, "mode {mode:?}");
        assert_eq!(zeroed.makespan, plain.makespan, "mode {mode:?}");
        assert_eq!(zeroed.total_kmers, plain.total_kmers);
        assert_eq!(zeroed.distinct_kmers, plain.distinct_kmers);
        assert_eq!(zeroed.spectrum, plain.spectrum, "mode {mode:?}");

        let names = |r: &RunReport| -> BTreeSet<String> {
            r.metrics()
                .unwrap()
                .entries
                .iter()
                .map(|e| e.name.clone())
                .collect()
        };
        let zn = names(&zeroed);
        assert_eq!(zn, names(&plain), "mode {mode:?}");
        for pressure_series in [
            "table_regrows_total",
            "spill_kmers_total",
            "device_oom_events_total",
            "hbm_high_water_bytes",
        ] {
            assert!(
                !zn.contains(pressure_series),
                "mode {mode:?}: {pressure_series} must not exist without pressure"
            );
        }
    }
}

#[test]
fn disabling_metrics_leaves_the_run_bit_identical() {
    let reads = tiny_reads();
    for mode in [Mode::CpuBaseline, Mode::GpuKmer, Mode::GpuSupermer] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_metrics = false;
        let off = run(&reads, &rc).expect("valid config");
        rc.collect_metrics = true;
        let on = run(&reads, &rc).expect("valid config");
        assert!(off.events.is_none());
        assert!(on.metrics().is_some());
        assert_eq!(off.phases.parse, on.phases.parse, "mode {mode:?}");
        assert_eq!(off.phases.exchange, on.phases.exchange, "mode {mode:?}");
        assert_eq!(off.phases.count, on.phases.count, "mode {mode:?}");
        assert_eq!(off.makespan, on.makespan, "mode {mode:?}");
        assert_eq!(off.total_kmers, on.total_kmers);
        assert_eq!(off.distinct_kmers, on.distinct_kmers);
        assert_eq!(off.exchange.bytes, on.exchange.bytes);
        assert_eq!(off.load.kmers_per_rank, on.load.kmers_per_rank);
    }
}

// ── CLI golden checks ────────────────────────────────────────────────────

fn dedukt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dedukt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dedukt-metrics-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn cli_metrics_exports_match_the_schema() {
    let dir = tmpdir("cli");
    let fastq = dir.join("reads.fastq");
    assert!(dedukt()
        .args(["simulate", "ecoli", "--scale", "tiny", "--out"])
        .arg(&fastq)
        .status()
        .unwrap()
        .success());

    // JSON export: every schema name present, envelope stable.
    let json_path = dir.join("m.json");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--metrics"])
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The phase/imbalance digest goes to stderr, like all diagnostics.
    let diag = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        diag.contains("simulated phases:"),
        "summary missing:\n{diag}"
    );
    assert!(diag.contains("imbalance"), "summary missing:\n{diag}");
    let json = std::fs::read_to_string(&json_path).unwrap();
    assert!(json.trim_start().starts_with("{\n  \"metrics\": ["));
    for required in SUPERMER_SERIES {
        assert!(
            json.contains(&format!("\"name\": \"{required}\"")),
            "JSON export missing {required}"
        );
    }
    assert!(json.contains("\"type\": \"histogram\""));
    assert!(json.contains("\"buckets\": ["));
    assert!(json.contains("\"rank\": 0,"));

    // Prometheus export: typed series with rank labels and cumulative
    // histogram buckets ending at +Inf.
    let prom_path = dir.join("m.prom");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--metrics-format",
            "prom",
            "--metrics"
        ])
        .arg(&prom_path)
        .status()
        .unwrap()
        .success());
    let prom = std::fs::read_to_string(&prom_path).unwrap();
    assert!(prom.contains("# TYPE exchange_bytes_total counter"));
    assert!(prom.contains("# TYPE supermer_length_bases histogram"));
    assert!(prom.contains("exchange_bytes_total{rank=\"0\"}"));
    assert!(prom.contains("supermer_length_bases_bucket{rank=\"0\",le=\"+Inf\"}"));
    assert!(prom.contains("supermer_length_bases_sum{rank=\"0\"}"));
    // Every non-comment line is `name{labels} value`.
    for line in prom
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let (_, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("bad line {line}"));
        assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
    }
}
