//! End-to-end tests of the `dedukt` command-line tool: simulate → count →
//! dump → compare, through real files and process invocations.

use std::path::{Path, PathBuf};
use std::process::Command;

fn dedukt() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dedukt"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dedukt-cli-test-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Writes the tiny E. coli slice to `fastq`.
fn simulate_tiny(fastq: &Path) {
    assert!(dedukt()
        .args(["simulate", "ecoli", "--scale", "tiny", "--out"])
        .arg(fastq)
        .status()
        .unwrap()
        .success());
}

#[test]
fn simulate_writes_parseable_fastq() {
    let dir = tmpdir("simulate");
    let fastq = dir.join("ecoli.fastq");
    let out = dedukt()
        .args(["simulate", "ecoli", "--scale", "tiny", "--out"])
        .arg(&fastq)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&fastq).unwrap();
    assert!(text.starts_with('@'));
    // 4 lines per record.
    assert_eq!(text.lines().count() % 4, 0);
    let reads =
        dedukt::dna::fastq::parse_fastq(std::io::BufReader::new(text.as_bytes()), 1).unwrap();
    assert!(!reads.is_empty());
}

#[test]
fn count_produces_correct_dump_and_spectrum() {
    let dir = tmpdir("count");
    let fastq = dir.join("reads.fastq");
    let dump = dir.join("counts.tsv");
    let spec = dir.join("spectrum.tsv");
    assert!(dedukt()
        .args(["simulate", "vvulnificus", "--scale", "tiny", "--out"])
        .arg(&fastq)
        .status()
        .unwrap()
        .success());
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--out"])
        .arg(&dump)
        .arg("--spectrum")
        .arg(&spec)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The dump must agree with the library oracle on the same file.
    let reads = dedukt::dna::fastq::parse_fastq(
        std::io::BufReader::new(std::fs::File::open(&fastq).unwrap()),
        17,
    )
    .unwrap();
    let cfg = dedukt::core::RunConfig::new(dedukt::core::Mode::GpuSupermer, 2).counting;
    let oracle = dedukt::core::verify::reference_counts(&reads, &cfg);
    let dumped = dedukt::core::dump::read_dump::<_, u64>(
        std::io::BufReader::new(std::fs::File::open(&dump).unwrap()),
        cfg.encoding,
    )
    .unwrap();
    assert_eq!(dumped.len(), oracle.len());
    for (kmer, count) in &dumped {
        assert_eq!(oracle.get(kmer).copied(), Some(*count as u64));
    }

    // The spectrum file is multiplicity\tdistinct and its mass matches.
    let spec_text = std::fs::read_to_string(&spec).unwrap();
    let mut distinct = 0u64;
    for line in spec_text.lines() {
        let (_, d) = line.split_once('\t').unwrap();
        distinct += d.parse::<u64>().unwrap();
    }
    assert_eq!(distinct, oracle.len() as u64);
}

#[test]
fn compare_detects_identity_and_difference() {
    let dir = tmpdir("compare");
    let fastq = dir.join("reads.fastq");
    let a = dir.join("a.tsv");
    let b = dir.join("b.tsv");
    assert!(dedukt()
        .args(["simulate", "abaumannii", "--scale", "tiny", "--out"])
        .arg(&fastq)
        .status()
        .unwrap()
        .success());
    // Count twice with different modes: dumps must be identical.
    for (mode, path) in [("gpu", &a), ("cpu", &b)] {
        assert!(dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(["--mode", mode, "--out"])
            .arg(path)
            .status()
            .unwrap()
            .success());
    }
    let same = dedukt().args(["compare"]).arg(&a).arg(&b).output().unwrap();
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("identical"));

    // Corrupt one count; compare must fail.
    bump_first_count(&b);
    let diff = dedukt().args(["compare"]).arg(&a).arg(&b).output().unwrap();
    assert!(!diff.status.success());
}

/// Adds one to the first count of a dump; returns that line's k-mer.
fn bump_first_count(dump: &Path) -> String {
    let text = std::fs::read_to_string(dump).unwrap();
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    let (seq, count) = lines[0].split_once('\t').unwrap();
    let seq = seq.to_string();
    lines[0] = format!("{seq}\t{}", count.parse::<u32>().unwrap() + 1);
    std::fs::write(dump, lines.join("\n")).unwrap();
    seq
}

#[test]
fn compare_takes_k_from_the_dumps() {
    let dir = tmpdir("compare-k");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let count = |mode: &str, k: &str, out: &Path| {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(["--mode", mode, "--k", k, "--m", "11", "--out"])
            .arg(out)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    };
    let compare = |a: &Path, b: &Path| dedukt().arg("compare").arg(a).arg(b).output().unwrap();

    // k = 41: two engines' dumps are identical; one corrupted count is not.
    let (a41, b41) = (dir.join("a41.tsv"), dir.join("b41.tsv"));
    count("cpu", "41", &a41);
    count("supermer", "41", &b41);
    let same = compare(&a41, &b41);
    assert!(
        same.status.success(),
        "{}",
        String::from_utf8_lossy(&same.stderr)
    );
    assert!(String::from_utf8_lossy(&same.stdout).contains("identical"));
    let seq = bump_first_count(&b41);
    let diff = compare(&a41, &b41);
    assert_eq!(diff.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&diff.stdout).contains(&format!("  {seq} : ")));

    // k = 21: the differing k-mer prints as the full 21-mer.
    let (a21, b21) = (dir.join("a21.tsv"), dir.join("b21.tsv"));
    count("cpu", "21", &a21);
    count("gpu", "21", &b21);
    let seq = bump_first_count(&b21);
    assert_eq!(seq.len(), 21);
    let diff = compare(&a21, &b21);
    assert_eq!(diff.status.code(), Some(2));
    let stdout = String::from_utf8_lossy(&diff.stdout);
    assert!(stdout.contains(&format!("  {seq} : ")), "{stdout}");
    assert!(stdout.contains("1 counts differ"), "{stdout}");

    // Dumps of different k are an error naming both files.
    let mixed = compare(&a21, &a41);
    assert_eq!(mixed.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&mixed.stderr);
    for path in [&a21, &a41] {
        assert!(stderr.contains(&*path.to_string_lossy()), "{stderr}");
    }
}

#[test]
fn wide_k_counts_through_the_u128_pipeline() {
    let dir = tmpdir("wide");
    let fastq = dir.join("reads.fastq");
    let dump = dir.join("wide.tsv");
    simulate_tiny(&fastq);
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--k", "41", "--m", "11", "--out"])
        .arg(&dump)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&dump).unwrap();
    let first = text.lines().next().unwrap();
    let (seq, count) = first.split_once('\t').unwrap();
    assert_eq!(seq.len(), 41, "wide k-mers render at full length");
    assert!(count.parse::<u32>().unwrap() >= 1);
    // Totals must match the wide oracle.
    let reads = dedukt::dna::fastq::parse_fastq(
        std::io::BufReader::new(std::fs::File::open(&fastq).unwrap()),
        41,
    )
    .unwrap();
    let cfg = dedukt::core::CountingConfig {
        k: 41,
        m: 11,
        window: 24,
        ..Default::default()
    };
    let oracle = dedukt::core::wide::wide_reference_counts(&reads, &cfg);
    assert_eq!(text.lines().count(), oracle.len());
}

#[test]
fn min_qual_trims_before_counting() {
    let dir = tmpdir("minqual");
    let fastq = dir.join("reads.fastq");
    // Hand-written FASTQ: one read whose tail is junk quality.
    let seq = "ACGTTGCAAGGATCCGTACCAGTTGACTGATC"; // 32 bases, aperiodic
    let quals = format!("{}{}", "I".repeat(24), "#".repeat(8));
    std::fs::write(&fastq, format!("@r1\n{seq}\n+\n{quals}\n")).unwrap();
    let full = dir.join("full.tsv");
    let trimmed = dir.join("trimmed.tsv");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "gpu", "--out"])
        .arg(&full)
        .status()
        .unwrap()
        .success());
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "gpu", "--min-qual", "20", "--out"])
        .arg(&trimmed)
        .status()
        .unwrap()
        .success());
    let count_lines = |p: &PathBuf| std::fs::read_to_string(p).unwrap().lines().count();
    // Full read: 32 − 17 + 1 = 16 k-mers; trimmed to 24 good bases: 8.
    assert_eq!(count_lines(&full), 16);
    assert_eq!(count_lines(&trimmed), 8);
}

#[test]
fn min_qual_trims_fragments_of_reads_with_ambiguous_bases() {
    let dir = tmpdir("minqual-n");
    let fastq = dir.join("q.fq");
    // Two all-Q2 reads; the second is split by an N into two fragments,
    // each of which must be trimmed like a clean read.
    let seq = "ACGTTGCAAGGATCCGTA"; // 18 bases: 2 k-mers at k = 17
    let q = "#".repeat(seq.len());
    std::fs::write(
        &fastq,
        format!("@clean\n{seq}\n+\n{q}\n@withN\n{seq}N{seq}\n+\n{q}#{q}\n"),
    )
    .unwrap();
    let count = |extra: &[&str], out: &Path| {
        let run = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(["--mode", "cpu", "--nodes", "1", "--k", "17"])
            .args(extra)
            .arg("--out")
            .arg(out)
            .output()
            .unwrap();
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
        std::fs::read_to_string(out).unwrap()
    };
    let untrimmed = count(&[], &dir.join("all.tsv"));
    assert_eq!(untrimmed.lines().count(), 2, "{untrimmed}");
    let trimmed = count(&["--min-qual", "20"], &dir.join("q.tsv"));
    assert_eq!(trimmed, "", "every base is Q2");
}

#[test]
fn bad_usage_exits_nonzero() {
    assert!(!dedukt()
        .args(["frobnicate"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!dedukt()
        .args(["simulate", "unknown-species"])
        .output()
        .unwrap()
        .status
        .success());
    assert!(!dedukt()
        .args(["count", "/nonexistent.fastq"])
        .output()
        .unwrap()
        .status
        .success());
    // A non-positive scale factor is a usage error, not an empty dataset.
    for scale in ["x0", "x-1"] {
        let out = dedukt()
            .args(["simulate", "ecoli", "--scale", scale])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        assert!(out.stdout.is_empty(), "--scale {scale} wrote a dataset");
    }
    // Help succeeds.
    assert!(dedukt().args(["--help"]).output().unwrap().status.success());
}

#[test]
fn exchange_flags_route_and_compress_without_changing_the_dump() {
    let dir = tmpdir("exchange");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let direct = dir.join("direct.tsv");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--out"])
        .arg(&direct)
        .status()
        .unwrap()
        .success());
    // Hierarchical routing + the wire codec: same dump, byte for byte.
    let routed = dir.join("routed.tsv");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--exchange-algo",
            "hierarchical",
            "--wire-compress",
            "--out",
        ])
        .arg(&routed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&direct).unwrap(),
        std::fs::read_to_string(&routed).unwrap(),
        "routing and compression must not change a single count"
    );
    // A malformed algorithm name is a clean exit 2 naming the value.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--exchange-algo", "fancy"])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "bad --exchange-algo must exit 2, got {:?}",
        out.status
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fancy"),
        "stderr must name the value:\n{stderr}"
    );
}

#[test]
fn fault_flags_recover_and_match_the_fault_free_dump() {
    let dir = tmpdir("fault");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let clean = dir.join("clean.tsv");
    let faulty = dir.join("faulty.tsv");
    let metrics = dir.join("metrics.json");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--out"])
        .arg(&clean)
        .status()
        .unwrap()
        .success());
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--fault-seed",
            "42",
            "--fault-spec",
            "fail=0.2,corrupt=0.1,retries=8",
            "--out",
        ])
        .arg(&faulty)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The headline guarantee, end to end: same dump, byte for byte.
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&faulty).unwrap(),
        "fault recovery must not change a single count"
    );
    // Recovery surfaced through --metrics.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"name\": \"retries_total\""));
    assert!(json.contains("\"name\": \"exchange_retry_bytes_total\""));
    assert!(json.contains("\"name\": \"recovery_seconds_total\""));
}

#[test]
fn malformed_fault_specs_exit_two_with_a_config_error() {
    let dir = tmpdir("fault-bad");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    // (spec, message fragment): rates out of range and retries=0 pass
    // parsing but fail validation, like every other ConfigError; unknown
    // keys and junk values fail at the parser.
    for (spec, needle) in [
        ("fail=1.5", "must be in [0, 1]"),
        ("bogus=1", "unknown fault spec key"),
        ("retries=0", "retries must be at least 1"),
        ("fail=lots", "fault spec"),
        ("corrupt", "fault spec"),
    ] {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(["--fault-spec", spec])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec {spec:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "spec {spec:?}: missing {needle:?} in\n{stderr}"
        );
    }
    // An unsurvivable plan is a clean exit-2 failure, not a panic.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--fault-spec", "fail=1,corrupt=0,retries=2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("fault retry budget exhausted"),
        "missing budget message in\n{stderr}"
    );
}

#[test]
fn mem_flags_recover_and_match_the_unconstrained_dump() {
    let dir = tmpdir("mem");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let clean = dir.join("clean.tsv");
    let pressured = dir.join("pressured.tsv");
    let metrics = dir.join("metrics.json");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--out"])
        .arg(&clean)
        .status()
        .unwrap()
        .success());
    // A 1% table estimate forces overflow on every rank; injected
    // allocation failures close the regrow path half the time, so both
    // recovery tiers (device regrow and host spill) actually run.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--table-safety",
            "0.01",
            "--mem-seed",
            "7",
            "--mem-spec",
            "under=0.5,shrink=0.5,afail=0.5,spill=100000",
            "--out",
        ])
        .arg(&pressured)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The headline guarantee, end to end: same dump, byte for byte.
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&pressured).unwrap(),
        "memory-pressure recovery must not change a single count"
    );
    // Recovery surfaced through --metrics.
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"name\": \"table_regrows_total\""));
    assert!(json.contains("\"name\": \"spill_kmers_total\""));
    assert!(json.contains("\"name\": \"device_oom_events_total\""));
    assert!(json.contains("\"name\": \"hbm_high_water_bytes\""));
}

#[test]
fn malformed_mem_specs_exit_two_and_oom_is_a_clean_failure() {
    let dir = tmpdir("mem-bad");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    // (spec, message fragment): out-of-range knobs fail validation with
    // the run like every other ConfigError; unknown keys and junk
    // values fail at the parser.
    for (spec, needle) in [
        ("under=1.5", "must be in [0, 1]"),
        ("shrink=0", "must be in (0, 1]"),
        ("bogus=1", "unknown mem spec key"),
        ("afail=lots", "is not a number"),
        ("spill", "is not key=value"),
    ] {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(["--mem-spec", spec])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "spec {spec:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "spec {spec:?}: missing {needle:?} in\n{stderr}"
        );
    }
    // A nonsensical safety factor is rejected the same way.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--table-safety", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    // An unsurvivable plan (every allocation denied, ten spilled k-mers
    // allowed) is a clean exit-2 `DeviceOom`, not a panic, and names
    // the exhausted budget.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--table-safety",
            "0.01",
            "--mem-spec",
            "afail=1,spill=10",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("device out of memory"),
        "missing DeviceOom message in\n{stderr}"
    );
    assert!(
        stderr.contains("spill budget exhausted"),
        "missing budget detail in\n{stderr}"
    );
}

#[test]
fn trace_flag_writes_chrome_trace() {
    let dir = tmpdir("trace");
    let fastq = dir.join("reads.fastq");
    let trace = dir.join("trace.json");
    assert!(dedukt()
        .args(["simulate", "paeruginosa", "--scale", "tiny", "--out"])
        .arg(&fastq)
        .status()
        .unwrap()
        .success());
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--trace"])
        .arg(&trace)
        .status()
        .unwrap()
        .success());
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.trim_start().starts_with('['));
    assert!(text.contains("\"name\": \"build-supermers\""));
    assert!(text.contains("\"name\": \"alltoallv\""));
    assert!(text.contains("\"name\": \"count\""));
    // One lane per rank: tid 0..11 all present.
    for tid in 0..12 {
        assert!(
            text.contains(&format!("\"tid\": {tid},")),
            "missing rank {tid}"
        );
    }
}

#[test]
fn unwritable_output_paths_exit_two_before_counting() {
    let dir = tmpdir("unwritable");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    // Every output flag is probed up front: a doomed path fails fast
    // with exit 2 naming the flag and the path — not after minutes of
    // counting, and never with a panic.
    let bad = "/nonexistent-dedukt-dir/out.file";
    for flag in ["--out", "--spectrum", "--trace", "--metrics", "--journal"] {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args([flag, bad])
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} {bad} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(flag) && stderr.contains(bad),
            "{flag}: error must name the flag and path:\n{stderr}"
        );
    }
}

#[test]
fn journal_flag_feeds_analyze_end_to_end() {
    let dir = tmpdir("journal");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let clean = dir.join("clean.jsonl");
    let hostile = dir.join("hostile.jsonl");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--journal"])
        .arg(&clean)
        .status()
        .unwrap()
        .success());
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--fault-seed",
            "42",
            "--fault-spec",
            "fail=0.2,corrupt=0.1,retries=8",
            "--mem-seed",
            "5",
            "--mem-spec",
            "under=0.6,shrink=0.04,afail=0.4,spill=1048576",
            "--journal",
        ])
        .arg(&hostile)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The journal is JSONL: meta header first, run trailer last, and
    // the count digest points at the analyzer.
    let text = std::fs::read_to_string(&hostile).unwrap();
    assert!(text.lines().next().unwrap().starts_with("{\"ev\":\"meta\""));
    assert!(text.lines().last().unwrap().starts_with("{\"ev\":\"run\""));
    let diag = String::from_utf8_lossy(&out.stderr);
    assert!(diag.contains("wrote run journal"), "digest:\n{diag}");
    assert!(diag.contains("dedukt analyze"), "digest:\n{diag}");

    // `analyze` renders every report section for the hostile run.
    let report = dedukt().args(["analyze"]).arg(&hostile).output().unwrap();
    assert!(
        report.status.success(),
        "{}",
        String::from_utf8_lossy(&report.stderr)
    );
    let stdout = String::from_utf8_lossy(&report.stdout);
    for section in [
        "phase breakdown",
        "reconciliation",
        "critical path",
        "exchange",
        "recovery",
        "wall clock",
    ] {
        assert!(stdout.contains(section), "missing {section:?}:\n{stdout}");
    }

    // `analyze --diff` triages clean vs hostile.
    let diff = dedukt()
        .args(["analyze", "--diff"])
        .arg(&clean)
        .arg(&hostile)
        .output()
        .unwrap();
    assert!(
        diff.status.success(),
        "{}",
        String::from_utf8_lossy(&diff.stderr)
    );
    let diff_out = String::from_utf8_lossy(&diff.stdout);
    assert!(diff_out.contains("regressions:"), "diff:\n{diff_out}");

    // Misuse is a clean exit 2 with a pointed message.
    for (args, needle) in [
        (vec!["analyze"], "needs a journal path"),
        (
            vec!["analyze", "a.jsonl", "--diff", "b.jsonl", "c.jsonl"],
            "not both",
        ),
        (vec!["analyze", "/nonexistent.jsonl"], "/nonexistent.jsonl"),
    ] {
        let out = dedukt().args(&args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "args {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(needle),
            "args {args:?}: missing {needle:?}"
        );
    }
}

#[test]
fn canonical_flag_shrinks_distinct_count() {
    let dir = tmpdir("canonical");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let plain = dir.join("plain.tsv");
    let canon = dir.join("canon.tsv");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "gpu", "--out"])
        .arg(&plain)
        .status()
        .unwrap()
        .success());
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "gpu", "--canonical", "--out"])
        .arg(&canon)
        .status()
        .unwrap()
        .success());
    let lines = |p: &PathBuf| std::fs::read_to_string(p).unwrap().lines().count();
    assert!(lines(&canon) < lines(&plain));
}

#[test]
fn rank_flags_recover_and_match_the_undisturbed_dump() {
    let dir = tmpdir("rank");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let clean = dir.join("clean.tsv");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--round-limit",
            "8192",
            "--out",
        ])
        .arg(&clean)
        .status()
        .unwrap()
        .success());

    // A pinned kill plus a checkpoint cadence: the survivor replays the
    // dead rank's range and the dump lands byte-identical.
    let killed = dir.join("killed.tsv");
    let metrics = dir.join("metrics.json");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--round-limit",
            "8192",
            "--rank-spec",
            "rate=0,kill=1:3",
            "--checkpoint-rounds",
            "2",
            "--out",
        ])
        .arg(&killed)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&killed).unwrap(),
        "rank-death recovery must not change a single count"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"name\": \"rank_deaths_total\""));
    assert!(json.contains("\"name\": \"exchange_replay_bytes_total\""));
    assert!(json.contains("\"name\": \"recovery_seconds_total\""));

    // An elastic shrink-then-grow schedule lands on the same dump too.
    let rescaled = dir.join("rescaled.tsv");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--round-limit",
            "8192",
            "--rescale",
            "1:8,3:12",
            "--out",
        ])
        .arg(&rescaled)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&rescaled).unwrap(),
        "elastic rescale must not change a single count"
    );
}

#[test]
fn malformed_rank_flags_exit_two_and_budget_exhaustion_is_clean() {
    let dir = tmpdir("rank-bad");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    // (args, message fragment): parser failures and validation failures
    // both surface as ConfigError-style exit 2s naming the value.
    for (args, needle) in [
        (vec!["--rank-spec", "rate=1.5"], "must be in [0, 1]"),
        (vec!["--rank-spec", "bogus=1"], "unknown rank spec key"),
        (vec!["--rank-spec", "kill=abc"], "not ROUND:RANK"),
        (vec!["--rank-spec", "rate=lots"], "rank spec"),
        (vec!["--rescale", "5"], "not round:world"),
        (vec!["--rescale", "a:1"], "not an integer"),
        (vec!["--rescale", "1:0"], "must be in 1..="),
        (vec!["--rescale", "1:4,1:5"], "strictly increasing"),
        (
            vec!["--checkpoint-rounds", "0"],
            "checkpoint cadence must be at least 1 round",
        ),
    ] {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "args {args:?}: missing {needle:?} in\n{stderr}"
        );
    }
    // A plan that overruns its recovery budget is a clean exit-2
    // failure naming the budget, not a panic.
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--rank-spec", "rate=0,max-dead=1,kill=0:0,kill=0:1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("recovery budget"),
        "missing budget message in\n{stderr}"
    );
}

#[test]
fn two_pass_flags_match_the_in_memory_dump_and_survive_faults() {
    let dir = tmpdir("two-pass");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let clean = dir.join("clean.tsv");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--out"])
        .arg(&clean)
        .status()
        .unwrap()
        .success());

    // A clean out-of-core run lands on the identical dump.
    let spooled = dir.join("spooled.tsv");
    let store = dir.join("store-clean");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--mode", "supermer", "--nodes", "2", "--two-pass"])
        .arg(&store)
        .arg("--out")
        .arg(&spooled)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&spooled).unwrap(),
        "spooling through the bin store must not change a single count"
    );

    // A hostile I/O plan recovers — retry, quarantine, re-derive — and
    // still lands on the identical dump, with recovery in --metrics.
    let damaged = dir.join("damaged.tsv");
    let metrics = dir.join("metrics.json");
    let store = dir.join("store-hostile");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--io-seed",
            "7",
            "--io-spec",
            "torn=0.05,rot=0.05,readerr=0.3,retries=8,rederive=8",
            "--two-pass",
        ])
        .arg(&store)
        .arg("--out")
        .arg(&damaged)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&damaged).unwrap(),
        "storage-fault recovery must not change a single count"
    );
    let json = std::fs::read_to_string(&metrics).unwrap();
    assert!(json.contains("\"name\": \"storage_write_bytes_total\""));
    assert!(json.contains("\"name\": \"quarantined_bins_total\""));
    assert!(json.contains("\"name\": \"rederived_bins_total\""));

    // An injected kill mid-pass-2 exits 2 pointing at --resume, and the
    // resumed run finishes the remaining bins onto the identical dump.
    let resumed = dir.join("resumed.tsv");
    let store = dir.join("store-killed");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--io-spec",
            "torn=0,rot=0,readerr=0,kill=2",
            "--two-pass",
        ])
        .arg(&store)
        .arg("--out")
        .arg(&resumed)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume"),
        "kill must point at --resume:\n{stderr}"
    );
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--resume",
            "--two-pass",
        ])
        .arg(&store)
        .arg("--out")
        .arg(&resumed)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        std::fs::read_to_string(&clean).unwrap(),
        std::fs::read_to_string(&resumed).unwrap(),
        "a resumed run must finish onto the identical dump"
    );

    // --min-count strictly shrinks the dump to >= N survivors.
    let filtered = dir.join("filtered.tsv");
    let store = dir.join("store-filtered");
    assert!(dedukt()
        .args(["count"])
        .arg(&fastq)
        .args([
            "--mode",
            "supermer",
            "--nodes",
            "2",
            "--min-count",
            "2",
            "--two-pass"
        ])
        .arg(&store)
        .arg("--out")
        .arg(&filtered)
        .status()
        .unwrap()
        .success());
    let lines = |p: &PathBuf| std::fs::read_to_string(p).unwrap().lines().count();
    assert!(lines(&filtered) < lines(&clean));
    for line in std::fs::read_to_string(&filtered).unwrap().lines() {
        let (_, count) = line.split_once('\t').unwrap();
        assert!(count.parse::<u32>().unwrap() >= 2);
    }
}

#[test]
fn two_pass_composes_with_exchange_and_fault_flags() {
    let dir = tmpdir("two-pass-compose");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let count = |flags: &str, store: Option<&str>, out: &str| {
        let mut cmd = dedukt();
        cmd.arg("count")
            .arg(&fastq)
            .args(["--mode", "supermer", "--nodes", "2"]);
        cmd.args(flags.split(' ')).arg("--out").arg(dir.join(out));
        if let Some(store) = store {
            cmd.arg("--two-pass").arg(dir.join(store));
        }
        cmd.output().unwrap()
    };
    // Every exchange option rides pass 1 and lands on the in-memory dump.
    let exchange = "--round-limit 4096 --overlap-rounds --wire-compress \
                    --exchange-algo hierarchical --gpu-direct";
    for (store, out) in [(None, "clean.tsv"), (Some("store-x"), "spooled.tsv")] {
        let run = count(exchange, store, out);
        assert!(
            run.status.success(),
            "{}",
            String::from_utf8_lossy(&run.stderr)
        );
    }
    assert_eq!(
        std::fs::read(dir.join("clean.tsv")).unwrap(),
        std::fs::read(dir.join("spooled.tsv")).unwrap(),
        "--two-pass must not change a single count under any exchange option"
    );
    // A fault plan that exhausts its retry budget fails the same way
    // with and without --two-pass: it is honoured, not dropped.
    for store in [None, Some("store-faulty")] {
        let run = count(
            "--fault-seed 1 --fault-spec fail=1,corrupt=0,retries=1",
            store,
            "f.tsv",
        );
        assert_eq!(run.status.code(), Some(2), "{store:?}: {:?}", run.status);
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains("exchange round 0 failed"),
            "{store:?}: missing the exhausted-budget message in\n{stderr}"
        );
    }
}

#[test]
fn malformed_two_pass_flags_exit_two_naming_the_flag() {
    let dir = tmpdir("two-pass-bad");
    let fastq = dir.join("reads.fastq");
    simulate_tiny(&fastq);
    let store = dir.join("store");
    // (extra args, message fragment): parser failures name --io-spec;
    // validation failures surface as ConfigError-style exit 2s, and
    // orphaned flags point at the --two-pass they require.
    let store_s = store.to_str().unwrap();
    for (args, needle) in [
        (
            vec!["--two-pass", store_s, "--io-spec", "bogus=1"],
            "unknown io spec key",
        ),
        (
            vec!["--two-pass", store_s, "--io-spec", "bogus=1"],
            "--io-spec",
        ),
        (
            vec!["--two-pass", store_s, "--io-spec", "torn=1.5"],
            "must be in [0, 1]",
        ),
        (
            vec!["--two-pass", store_s, "--io-spec", "kill=0"],
            "at least 1",
        ),
        (
            vec!["--two-pass", store_s, "--min-count", "0"],
            "--min-count",
        ),
        (vec!["--resume"], "--resume requires --two-pass"),
        (vec!["--io-seed", "7"], "require --two-pass"),
        (vec!["--min-count", "2"], "--min-count requires --two-pass"),
    ] {
        let out = dedukt()
            .args(["count"])
            .arg(&fastq)
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "args {args:?} must exit 2, got {:?}",
            out.status
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "args {args:?}: missing {needle:?} in\n{stderr}"
        );
    }
    // Resuming from a store nobody wrote is a clean exit 2, not a panic.
    let empty = dir.join("empty-store");
    let out = dedukt()
        .args(["count"])
        .arg(&fastq)
        .args(["--resume", "--two-pass"])
        .arg(&empty)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{:?}", out.status);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--resume") && stderr.contains("no manifest"),
        "missing resume guidance in\n{stderr}"
    );
}
