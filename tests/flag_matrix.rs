//! Every pair of run flags either counts exactly like the plain run or is
//! rejected up front, naming both flags — there is no third outcome (a
//! silently dropped flag, a changed count, a late failure). The flags go
//! through the same table both front ends parse with,
//! [`RunConfig::apply_flag`].

mod common;

use common::tiny_reads;
use dedukt::core::pipeline::{run, RunError};
use dedukt::core::{dump, Mode, RunConfig};
use dedukt::gpu::MemSpec;
use dedukt::net::{FaultSpec, RankSpec};
use dedukt::sim::{JournalEvent, Plan, Spec};
use dedukt::store::IoSpec;

/// One sample value per shared run flag (`None` for switches), plus
/// `--two-pass`, which `dedukt count` adds on top of the table.
const FLAGS: &[(&str, Option<&str>)] = &[
    ("--m", Some("9")),
    ("--gpu-direct", None),
    ("--round-limit", Some("4096")),
    ("--overlap-rounds", None),
    ("--exchange-algo", Some("hierarchical")),
    ("--wire-compress", None),
    ("--fault-seed", Some("3")),
    ("--fault-spec", Some("fail=0.2,corrupt=0.1,retries=8")),
    ("--mem-seed", Some("5")),
    ("--mem-spec", Some("under=0.5,afail=0.5")),
    ("--rank-seed", Some("4")),
    ("--rank-spec", Some("rate=0,kill=1:1")),
    ("--checkpoint-rounds", Some("2")),
    ("--rescale", Some("1:4")),
    ("--table-safety", Some("0.5")),
    ("--device-hbm", Some("67108864")),
    ("--two-pass", None),
];

fn configure(flags: &[(&str, Option<&str>)], store: &std::path::Path) -> RunConfig {
    let mut rc = RunConfig::new(Mode::GpuSupermer, 1);
    rc.collect_tables = true;
    for &(flag, value) in flags {
        if flag == "--two-pass" {
            rc.two_pass_dir = Some(store.to_path_buf());
            continue;
        }
        let args: Vec<String> = value.into_iter().map(String::from).collect();
        assert!(
            rc.apply_flag(flag, &mut args.iter())
                .expect("sample values parse"),
            "{flag} is not a run flag"
        );
    }
    rc
}

#[test]
fn every_flag_pair_counts_exactly_or_is_rejected_naming_both() {
    let reads = tiny_reads();
    let store = std::env::temp_dir().join(format!("dedukt-flag-matrix-{}", std::process::id()));
    let merged = |rc: &RunConfig| -> Result<Vec<(u64, u32)>, RunError> {
        Ok(dump::merge_tables(
            run(&reads, rc)?.tables.as_ref().unwrap(),
        ))
    };
    let plain = merged(&configure(&[], &store)).expect("plain run");
    let mut rejected = 0;
    for (i, &a) in FLAGS.iter().enumerate() {
        for &b in &FLAGS[i + 1..] {
            let pair = format!("{} + {}", a.0, b.0);
            match merged(&configure(&[a, b], &store)) {
                Ok(tables) => assert!(tables == plain, "{pair}: tables differ from the plain run"),
                Err(RunError::Config(e)) => {
                    let msg = e.to_string();
                    assert!(
                        msg.contains(a.0) && msg.contains(b.0),
                        "{pair}: rejection must name both flags: {msg}"
                    );
                    rejected += 1;
                }
                Err(e) => panic!("{pair}: neither counted nor rejected up front: {e}"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    // No pair conflicts: `--two-pass` composes with every run flag.
    assert_eq!(rejected, 0, "rejected pairs");
}

/// The journal renders each plan in its own grammar, and that label
/// parses back to the same spec.
#[test]
fn plan_labels_round_trip_through_the_grammar() {
    fn round_trip<S: Spec + Clone + PartialEq + std::fmt::Debug>(spec: S) {
        let label = Plan::new(7, spec.clone()).label();
        let body = label
            .strip_prefix(&format!("{}[seed=7 ", S::KIND))
            .and_then(|b| b.strip_suffix(']'))
            .unwrap_or_else(|| panic!("malformed label {label}"));
        let parsed: S = dedukt::sim::plan::parse(&body.replace(' ', ",")).unwrap();
        assert_eq!(parsed, spec, "{label}");
    }
    round_trip(FaultSpec::none());
    round_trip(FaultSpec::parse("fail=0.2,corrupt=0.1,straggle=0.05,slow=4,backoff=1e-4").unwrap());
    round_trip(MemSpec::none());
    round_trip(MemSpec::parse("under=0.6,shrink=0.04,afail=0.4,spill=1048576").unwrap());
    round_trip(RankSpec::default());
    round_trip(RankSpec::parse("rate=0,max-dead=1,kill=1:0,kill=2:3").unwrap());
    round_trip(IoSpec::default());
    round_trip(IoSpec::parse("torn=0,rot=0.5,readerr=0,kill=2").unwrap());

    // The journal's meta event carries exactly these labels.
    let mut rc = configure(
        &[
            ("--fault-spec", Some("fail=0.2,corrupt=0.1,retries=8")),
            ("--mem-seed", Some("5")),
            ("--rank-spec", Some("rate=0,kill=1:1")),
            ("--round-limit", Some("4096")),
        ],
        std::path::Path::new("unused"),
    );
    rc.collect_journal = true;
    let report = run(&tiny_reads(), &rc).expect("survivable plans");
    let JournalEvent::Meta { detail, .. } = &report.events.as_ref().unwrap()[0] else {
        panic!("the journal opens with its meta event");
    };
    for label in [
        rc.fault.unwrap().label(),
        rc.mem.unwrap().label(),
        rc.rank.as_ref().unwrap().label(),
    ] {
        assert!(detail.contains(&label), "{label} missing from {detail}");
    }
}
