//! Golden pins of simulated timelines across exchange round counts.
//!
//! Every configuration below splits the exchange into memory-bounded
//! rounds (`--round-limit 4096` on the tiny E. coli slice, 2 nodes), so
//! the round loop's order of charges — collectives, hidden count kernels,
//! retries, replays, checkpoints, rescales, pressure samples — is what
//! the digest pins. The digest covers the whole report minus its host
//! wall clock: the journal without `wall` events, the per-rank tables,
//! the phases, the makespan and the exchange summary. A change to the
//! driver that keeps these digests keeps every simulated number.
//!
//! Failing configurations pin the exact error text instead.

mod common;

use common::{run_maybe_spooled, tiny_reads};
use dedukt::core::pipeline::{RunError, RunReport};
use dedukt::core::{Mode, PackedKmer, RunConfig};
use dedukt::dna::ReadSet;
use dedukt::sim::{write_journal, JournalEvent};

/// The round-limited config of `mode` with `flags` applied.
fn config(mode: Mode, flags: &[&str]) -> RunConfig {
    let mut rc = RunConfig::new(mode, 2);
    rc.collect_tables = true;
    rc.collect_journal = true;
    let args: Vec<String> = ["--round-limit", "4096"]
        .iter()
        .chain(flags)
        .map(|s| s.to_string())
        .collect();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--k" {
            let k = it.next().expect("--k value").parse().expect("numeric k");
            rc.counting.k = k;
            if k > 31 {
                rc.counting.m = 11;
                rc.counting.window = 24;
            }
            continue;
        }
        assert!(
            rc.apply_flag(flag, &mut it).expect("valid flag"),
            "unknown flag {flag}"
        );
    }
    rc
}

/// FNV-1a over `text`: stable across platforms and releases.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The report's journal without its `wall` events.
fn journal<K: PackedKmer>(report: &RunReport<K>) -> String {
    let mut journal = Vec::new();
    write_journal(&mut journal, report.events.as_deref().expect("journal on")).unwrap();
    String::from_utf8(journal)
        .unwrap()
        .lines()
        .filter(|l| !l.contains("\"ev\":\"wall\""))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The digest of everything a report pins except host time.
fn digest<K: PackedKmer>(report: &RunReport<K>) -> u64 {
    fnv1a(&format!(
        "{}{:?}\n{:?}\n{:?}\n{:?}",
        journal(report),
        report.tables,
        report.phases,
        report.makespan,
        report.exchange
    ))
}

/// Panics unless the run took the recovery paths its flags ask for, so
/// a pin cannot silently stop covering them. `rerun` runs the pin's
/// config with other flags.
fn assert_exercised<K: PackedKmer>(
    name: &str,
    flags: &[&str],
    report: &RunReport<K>,
    rerun: impl Fn(&[&str]) -> RunReport<K>,
) {
    let journal = journal(report);
    for (flag, events) in [
        ("--fault-spec", &["retry"][..]),
        ("--rank-spec", &["rankdead"]),
        ("--rescale", &["rescale"]),
        ("--mem-spec", &["regrow", "spill"]),
    ] {
        if flags.contains(&flag) {
            for ev in events {
                assert!(
                    journal.contains(&format!("\"ev\":\"{ev}\"")),
                    "{name}: no {ev} event"
                );
            }
        }
    }
    // A death after a checkpoint tick salvages the dead rank's snapshot
    // and replays only the rounds since, so it replays less than the same
    // run without checkpoints. Only the pins named for it may salvage.
    if let Some(at) = flags.iter().position(|&f| f == "--checkpoint-rounds") {
        let cadence: u64 = flags[at + 1].parse().expect("numeric cadence");
        let events = report.events.as_deref().expect("journal on");
        let salvages = events
            .iter()
            .any(|ev| matches!(ev, JournalEvent::RankDead { round, .. } if *round >= cadence));
        assert_eq!(
            salvages,
            name.contains("salvage"),
            "{name}: a death after a checkpoint tick"
        );
        if salvages {
            let unchecked: Vec<&str> = [&flags[..at], &flags[at + 2..]].concat();
            let replayed = rerun(&unchecked).exchange.replayed_bytes;
            assert!(
                report.exchange.replayed_bytes < replayed,
                "{name}: no checkpoint salvaged: {} replayed bytes, {replayed} without checkpoints",
                report.exchange.replayed_bytes
            );
        }
    }
}

fn run<K: PackedKmer>(
    reads: &ReadSet,
    mode: Mode,
    flags: &[&str],
    two_pass: bool,
) -> Result<RunReport<K>, RunError> {
    run_maybe_spooled::<K>(reads, &config(mode, flags), two_pass)
}

const FAULTS: [&str; 4] = [
    "--fault-seed",
    "42",
    "--fault-spec",
    "fail=0.2,corrupt=0.1,retries=8",
];
const KILL: [&str; 4] = ["--rank-spec", "rate=0,kill=1:3", "--checkpoint-rounds", "2"];
/// Rank 1 dies at the round-3 boundary, after the round-1 checkpoint
/// tick, so recovery salvages its checkpoint snapshot; `KILL`'s death
/// comes before any tick.
const SALVAGE: [&str; 4] = ["--rank-spec", "rate=0,kill=3:1", "--checkpoint-rounds", "2"];
const PRESSURE: [&str; 6] = [
    "--table-safety",
    "0.01",
    "--mem-seed",
    "7",
    "--mem-spec",
    "under=0.5,shrink=0.5,afail=0.5,spill=100000",
];

/// `(name, mode, flags, two-pass, digest)` of every pinned narrow-key run.
fn pinned() -> Vec<(&'static str, Mode, Vec<&'static str>, bool, u64)> {
    use Mode::{CpuBaseline as Cpu, GpuKmer as Gpu, GpuSupermer as Smer};
    let with = |parts: &[&[&'static str]]| parts.concat();
    vec![
        ("gpu", Gpu, vec![], false, 0x3f27_281f_8173_b7a1),
        (
            "gpu overlap",
            Gpu,
            vec!["--overlap-rounds"],
            false,
            0xce93_78af_2121_ab9d,
        ),
        (
            "gpu overlap hierarchical",
            Gpu,
            vec!["--overlap-rounds", "--exchange-algo", "hierarchical"],
            false,
            0xb3fb_3cec_2f2f_12e3,
        ),
        ("supermer", Smer, vec![], false, 0x717a_9106_30af_8426),
        (
            "supermer overlap",
            Smer,
            vec!["--overlap-rounds"],
            false,
            0x1428_5e28_9295_62ae,
        ),
        ("cpu", Cpu, vec![], false, 0xb7fd_e891_f0a1_8644),
        (
            "cpu overlap",
            Cpu,
            vec!["--overlap-rounds"],
            false,
            0xf8be_6b5d_1c46_ea96,
        ),
        (
            "gpu faults",
            Gpu,
            with(&[&FAULTS, &["--overlap-rounds"]]),
            false,
            0x42c2_11c5_f6f6_32fb,
        ),
        (
            "supermer faults",
            Smer,
            FAULTS.to_vec(),
            false,
            0x008c_4de1_c150_ec56,
        ),
        (
            "gpu kill",
            Gpu,
            with(&[&KILL, &["--overlap-rounds"]]),
            false,
            0x923a_9c70_0642_fb2c,
        ),
        (
            "supermer kill",
            Smer,
            KILL.to_vec(),
            false,
            0x5995_41fe_3d93_feff,
        ),
        (
            "supermer rescale",
            Smer,
            vec!["--rescale", "1:8,3:12"],
            false,
            0xfe3c_38b1_8446_03d4,
        ),
        (
            "gpu rescale overlap",
            Gpu,
            vec!["--rescale", "1:8,3:12", "--overlap-rounds"],
            false,
            0x849b_0a4a_5ca4_aebb,
        ),
        (
            "supermer two-pass",
            Smer,
            vec![],
            true,
            0x36a8_b409_ad67_d1d9,
        ),
        (
            "supermer two-pass composed",
            Smer,
            with(&[&FAULTS, &KILL, &["--overlap-rounds"]]),
            true,
            0x1885_08a4_da3e_d87c,
        ),
        (
            "supermer wire-compress",
            Smer,
            vec!["--wire-compress"],
            false,
            0x40a6_2b0b_9ee9_201c,
        ),
        (
            "supermer wire-compress faults",
            Smer,
            with(&[&FAULTS, &["--wire-compress", "--overlap-rounds"]]),
            false,
            0x9dd6_ab0d_6b9f_99c7,
        ),
        (
            "gpu pressure",
            Gpu,
            PRESSURE.to_vec(),
            false,
            0x1a5a_1364_4a90_717f,
        ),
        (
            "supermer pressure overlap",
            Smer,
            with(&[&PRESSURE, &["--overlap-rounds"]]),
            false,
            0xe3d7_b33e_7980_6639,
        ),
        ("cpu kill", Cpu, KILL.to_vec(), false, 0xe9d3_d3b6_66e5_20a7),
        (
            "supermer two-pass rescale",
            Smer,
            vec!["--rescale", "1:8,3:12"],
            true,
            0x1c6c_1aa3_645e_5b73,
        ),
        ("gpu two-pass", Gpu, vec![], true, 0xb466_b7f9_b30a_b524),
        (
            "cpu rescale",
            Cpu,
            vec!["--rescale", "1:8,3:12"],
            false,
            0xe20a_27ca_580e_8981,
        ),
        (
            "gpu composed",
            Gpu,
            with(&[&FAULTS, &KILL, &["--overlap-rounds"]]),
            false,
            0x58f8_4b18_d81c_6271,
        ),
        (
            "cpu kill salvage",
            Cpu,
            SALVAGE.to_vec(),
            false,
            0xf8db_9a65_04c8_dca6,
        ),
    ]
}

#[test]
fn round_limited_timelines_match_their_pins() {
    let reads = tiny_reads();
    let mut mismatched = Vec::new();
    for (name, mode, flags, two_pass, pin) in pinned() {
        let report = run::<u64>(&reads, mode, &flags, two_pass)
            .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        assert!(report.exchange.rounds > 1, "{name}: not round-limited");
        assert_exercised(name, &flags, &report, |flags| {
            run::<u64>(&reads, mode, flags, two_pass).expect("rerun")
        });
        let got = digest(&report);
        if got != pin {
            mismatched.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "digests moved:\n{}",
        mismatched.join("\n")
    );
}

#[test]
fn wide_key_timelines_match_their_pins() {
    let reads = tiny_reads();
    let mut mismatched = Vec::new();
    for (name, mode, pin) in [
        ("gpu k=41", Mode::GpuKmer, 0x07eb_5d61_142e_24cd),
        ("supermer k=41", Mode::GpuSupermer, 0xab3c_092f_ac29_ec5b),
    ] {
        let report = run::<u128>(&reads, mode, &["--k", "41", "--overlap-rounds"], false)
            .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        assert!(report.exchange.rounds > 1, "{name}: not round-limited");
        let got = digest(&report);
        if got != pin {
            mismatched.push(format!("{name}: {got:#018x}"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "digests moved:\n{}",
        mismatched.join("\n")
    );
}

#[test]
fn round_limited_failures_keep_their_text() {
    let reads = tiny_reads();
    let mut mismatched = Vec::new();
    for (name, mode, flags, want) in [
        (
            "device oom",
            Mode::GpuSupermer,
            vec![
                "--overlap-rounds",
                "--table-safety",
                "0.01",
                "--mem-seed",
                "3",
                "--mem-spec",
                "afail=0.5,spill=5000",
            ],
            "device out of memory on rank 0: host spill budget exhausted: 4902 k-mers spilled, 1638 more bounced, limit 5000; per-rank HBM high-water marks [768, 18432, 18432, 18432, 1536, 18432, 2304, 18432, 9216, 18432, 18432, 18432] bytes",
        ),
        (
            "device oom after a death",
            Mode::GpuKmer,
            vec![
                "--table-safety",
                "0.01",
                "--mem-seed",
                "3",
                "--mem-spec",
                "afail=0.7,spill=5000",
                "--rank-spec",
                "rate=0,kill=1:3",
                "--checkpoint-rounds",
                "2",
            ],
            "device out of memory on rank 6: host spill budget exhausted: 4962 k-mers spilled, 196 more bounced, limit 5000; per-rank HBM high-water marks [18432, 18432, 18432, 3072, 9216, 36864, 4608, 9216, 9216, 18432, 18432, 18432] bytes",
        ),
        (
            "exchange failed mid-run",
            Mode::CpuBaseline,
            FAULTS.to_vec(),
            "exchange round 3 failed: buckets still undelivered after 9 attempts (fault retry budget exhausted)",
        ),
        (
            "exchange failed",
            Mode::GpuKmer,
            vec!["--fault-spec", "fail=1,corrupt=0,retries=2"],
            "exchange round 0 failed: buckets still undelivered after 3 attempts (fault retry budget exhausted)",
        ),
        (
            "ranks lost",
            Mode::GpuSupermer,
            vec!["--rank-spec", "rate=0,max-dead=1,kill=1:0,kill=1:1"],
            "2 ranks dead at round 1: rank-failure recovery budget exhausted",
        ),
    ] {
        let err = match run::<u64>(&reads, mode, &flags, false) {
            Ok(_) => panic!("{name}: run succeeded"),
            Err(e) => e.to_string(),
        };
        if err != want {
            mismatched.push(format!("{name}: {err}"));
        }
    }
    assert!(
        mismatched.is_empty(),
        "texts moved:\n{}",
        mismatched.join("\n")
    );
}
