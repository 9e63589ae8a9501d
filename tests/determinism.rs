//! Determinism guarantees across repeated runs.
//!
//! Ranks are the only host-parallel axis: each rank's kernels run their
//! thread blocks in block order, so even the device tables' probe paths
//! and slot layouts repeat. A run report — its trace, journal and metrics
//! included — is a pure function of (input, config) apart from its host
//! wall clock, and so are the generated datasets themselves.

mod common;

use common::tiny_reads;
use dedukt::core::{pipeline, Mode, RunConfig};
use dedukt::dna::{Dataset, DatasetId, ScalePreset};
use dedukt::sim::{write_chrome_trace, write_journal, MetricsSnapshot};

#[test]
fn dataset_generation_is_bit_stable() {
    for id in DatasetId::ALL {
        let d = Dataset::new(id, ScalePreset::Tiny);
        assert_eq!(d.generate(), d.generate(), "{id:?}");
    }
}

#[test]
fn pipeline_results_are_stable_across_runs() {
    let reads = tiny_reads();
    let store = std::env::temp_dir().join(format!("dedukt-determinism-{}", std::process::id()));
    for (mode, two_pass) in [
        (Mode::CpuBaseline, false),
        (Mode::GpuKmer, false),
        (Mode::GpuSupermer, false),
        (Mode::GpuSupermer, true),
    ] {
        let mut rc = RunConfig::new(mode, 2);
        rc.collect_tables = true;
        rc.collect_spectrum = true;
        rc.collect_trace = true;
        rc.collect_metrics = true;
        if two_pass {
            rc.two_pass_dir = Some(store.clone());
        }
        // Everything but the host wall clock, down to table order, every
        // simulated time and every probe-histogram lane: the report
        // itself, its Chrome trace, its journal (whose `wall` lines time
        // the host) and its metrics (whose `wall_seconds` series do).
        let report = || {
            let mut r = pipeline::run(&reads, &rc).expect("valid config");
            r.wall = Default::default();
            let events = r.events.take().expect("trace requested");
            let mut trace = Vec::new();
            write_chrome_trace(&mut trace, &events).unwrap();
            let mut metrics = MetricsSnapshot::from_events(&events);
            metrics
                .entries
                .retain(|e| !e.name.starts_with("wall_seconds"));
            let mut metrics_json = Vec::new();
            metrics.write_json(&mut metrics_json).unwrap();
            let mut journal = Vec::new();
            write_journal(&mut journal, &events).unwrap();
            let journal: Vec<String> = String::from_utf8(journal)
                .unwrap()
                .lines()
                .filter(|l| !l.contains("\"ev\":\"wall\""))
                .map(str::to_string)
                .collect();
            format!(
                "{r:?}\n{}\n{journal:?}\n{}",
                String::from_utf8(trace).unwrap(),
                String::from_utf8(metrics_json).unwrap()
            )
        };
        let first = report();
        for rerun in 1..3 {
            assert!(
                report() == first,
                "{mode:?} (two-pass: {two_pass}): rerun {rerun} reported differently"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn cpu_pipeline_times_are_fully_deterministic() {
    // The CPU baseline has no concurrent-insert tallies, so even its
    // simulated phase times must be bit-identical.
    let reads = Dataset::new(DatasetId::ABaumannii30x, ScalePreset::Tiny).generate();
    let rc = RunConfig::new(Mode::CpuBaseline, 1);
    let a = pipeline::run(&reads, &rc).expect("valid config");
    let b = pipeline::run(&reads, &rc).expect("valid config");
    assert_eq!(a.phases.parse.as_secs(), b.phases.parse.as_secs());
    assert_eq!(a.phases.exchange.as_secs(), b.phases.exchange.as_secs());
    assert_eq!(a.phases.count.as_secs(), b.phases.count.as_secs());
    assert_eq!(a.makespan.as_secs(), b.makespan.as_secs());
}
