//! Minimal command-line parsing for the experiment binaries.
//!
//! Every regenerator accepts the same flags: `--scale tiny|bench|x<FACTOR>`
//! (dataset scale, default `bench`), `--seed N` (dataset seed override),
//! `--nodes N` (node-count override where it makes sense), and the run
//! flags `dedukt count` accepts too, parsed into one template
//! [`RunConfig`] by [`RunConfig::apply_flag`] (listed in
//! [`RUN_FLAGS_USAGE`]).

use dedukt_core::config::RUN_FLAGS_USAGE;
use dedukt_core::{Mode, RunConfig};
use dedukt_dna::ScalePreset;

/// Parsed experiment flags.
#[derive(Clone, Debug)]
pub struct ExperimentArgs {
    /// Dataset scale preset.
    pub scale: ScalePreset,
    /// Dataset seed override.
    pub seed: Option<u64>,
    /// Node-count override.
    pub nodes: Option<usize>,
    /// The run flags, applied to a paper-default configuration. Runners
    /// clone it and set the mode and node count of each row.
    pub run: RunConfig,
}

impl ExperimentArgs {
    /// Parses `std::env::args`, exiting with a usage message on error.
    pub fn parse() -> ExperimentArgs {
        match Self::try_parse(std::env::args().skip(1)) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!(
                    "usage: <bin> [--scale tiny|bench|xFACTOR] [--nodes N] [--seed N]\n\
                     {RUN_FLAGS_USAGE}"
                );
                std::process::exit(2);
            }
        }
    }

    /// Parses from an explicit iterator (testable). Only parses: range
    /// checks are [`RunConfig::validate`]'s.
    pub fn try_parse<I: IntoIterator<Item = String>>(args: I) -> Result<ExperimentArgs, String> {
        let args: Vec<String> = args.into_iter().collect();
        let mut out = ExperimentArgs {
            scale: ScalePreset::Bench,
            seed: None,
            nodes: None,
            run: RunConfig::new(Mode::GpuSupermer, 1),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if out.run.apply_flag(arg, &mut it)? {
                continue;
            }
            let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--scale" => out.scale = value()?.parse()?,
                "--nodes" => {
                    let v = value()?;
                    let n: usize = v.parse().map_err(|_| format!("bad node count {v:?}"))?;
                    if n == 0 {
                        return Err("--nodes must be positive".into());
                    }
                    out.nodes = Some(n);
                }
                "--seed" => {
                    let v = value()?;
                    out.seed = Some(v.parse().map_err(|_| format!("bad seed {v:?}"))?);
                }
                other => return Err(format!("unknown flag {other:?}")),
            }
        }
        Ok(out)
    }

    /// The run template at `mode` on `nodes` nodes.
    pub fn config(&self, mode: Mode, nodes: usize) -> RunConfig {
        let mut rc = self.run.clone();
        rc.mode = mode;
        rc.nodes = nodes;
        rc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses space-separated `args`.
    fn parse(args: &str) -> Result<ExperimentArgs, String> {
        ExperimentArgs::try_parse(args.split_whitespace().map(String::from))
    }

    /// Parses `args` and validates the template on two GPU nodes.
    fn check(args: &str) -> Result<(), String> {
        let a = parse(args)?;
        a.config(Mode::GpuSupermer, 2)
            .validate()
            .map_err(|e| e.to_string())
    }

    #[test]
    fn defaults() {
        let a = parse("").unwrap();
        assert_eq!(a.scale, ScalePreset::Bench);
        assert!(a.nodes.is_none());
        assert!(!a.run.gpu_direct);
        assert_eq!(a.run.counting.m, 7);
    }

    #[test]
    fn full_flags() {
        let a = parse(
            "--scale tiny --nodes 16 --m 9 --seed 7 --gpu-direct --round-limit 4096 \
             --overlap-rounds --fault-seed 3",
        )
        .unwrap();
        assert_eq!(a.scale, ScalePreset::Tiny);
        assert_eq!(a.nodes, Some(16));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.run.counting.m, 9);
        assert!(a.run.gpu_direct);
        assert_eq!(a.run.round_limit_bytes, Some(4096));
        assert!(a.run.overlap_rounds);
        assert_eq!(a.run.fault.map(|p| p.seed()), Some(3));
        let rc = a.config(Mode::CpuBaseline, 4);
        assert_eq!(
            (rc.mode, rc.nodes, rc.counting.m),
            (Mode::CpuBaseline, 4, 9)
        );
    }

    #[test]
    fn custom_scale() {
        let a = parse("--scale x0.25").unwrap();
        assert_eq!(a.scale, ScalePreset::Custom(0.25));
        for bad in ["x-1", "x0", "huge"] {
            assert!(parse(&format!("--scale {bad}")).is_err(), "{bad}");
        }
    }

    #[test]
    fn malformed_flags_fail_at_the_parser() {
        for args in [
            "--fault-spec bogus=1",
            "--fault-spec fail",
            "--fault-seed many",
            "--mem-spec bogus=1",
            "--rank-spec kill=abc",
            "--rescale 5",
            "--exchange-algo fancy",
            "--exchange-algo",
            "--nodes",
            "--nodes zero",
            "--nodes 0",
            "--round-limit lots",
            "--frobnicate",
        ] {
            assert!(parse(args).is_err(), "{args}");
        }
    }

    #[test]
    fn out_of_range_values_fail_validation() {
        for (args, needle) in [
            ("--fault-spec fail=1.5", "must be in [0, 1]"),
            ("--mem-spec shrink=0", "must be in (0, 1]"),
            ("--rescale 1:999", "rescale world"),
            ("--table-safety 200", "table safety"),
            ("--round-limit 0", "round limit"),
            ("--checkpoint-rounds 0", "checkpoint"),
            ("--device-hbm 0", "--device-hbm"),
        ] {
            let err = check(args).unwrap_err();
            assert!(err.contains(needle), "{args}: {err}");
        }
        check("--rescale 1:8,3:12 --rank-spec rate=0.01,kill=1:2").unwrap();
    }
}
