//! Deterministic storage-fault injection for the bin store.
//!
//! An [`IoPlan`] is the storage twin of the network layer's `FaultPlan`
//! and the device layer's `MemPlan`: a *pure function* from a seed and a
//! fault coordinate to a verdict, drawn through the stateless
//! [`Plan::draw`]. Write fates — torn writes and bit rot — are drawn per
//! `(bin, block, generation)` and are *persistent*: the corruption is
//! physically written to the block file and stays there until the bin is
//! re-derived at the next generation (which draws fresh fates). Read
//! errors are drawn per `(bin, attempt)` and are *transient*: the next
//! attempt draws a fresh verdict, so bounded retries model a
//! flaky-but-functional device.
//!
//! Three fault kinds are modelled (DESIGN.md §12):
//!
//! * **Torn write** — the block file is cut off mid-block, as if power
//!   was lost with the write cache unflushed. Detected in pass 2 by the
//!   frame length check.
//! * **Bit rot** — one payload byte is silently flipped after the
//!   checksum was computed. Detected by the per-block checksum.
//! * **Read error** — the device returns a transient failure for the
//!   whole bin read; the data underneath is intact.

use dedukt_sim::plan::{integer, number, Plan, Spec};

/// Domain-separation salts so the three fault streams never alias (and
/// never alias the network/memory fault salts).
const SALT_TORN: u64 = 0x10F5_0001;
const SALT_ROT: u64 = 0x10F5_0002;
const SALT_READ: u64 = 0x10F5_0003;

/// Storage-fault rates and recovery budgets. Parsed from `--io-spec`
/// (`torn=0.02,rot=0.02,readerr=0.05,retries=3,rederive=2,kill=4`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct IoSpec {
    /// Probability a bin write is torn mid-block.
    pub torn_rate: f64,
    /// Probability one payload byte of a written block rots.
    pub rot_rate: f64,
    /// Probability a bin read attempt fails transiently.
    pub read_error_rate: f64,
    /// Read attempts allowed per bin before a transient failure is
    /// escalated to quarantine + re-derive (first attempt + retries).
    pub max_retries: u32,
    /// Re-derivations allowed per bin (each replays the bin's input
    /// slice and rewrites it at a fresh generation) before the run
    /// fails with `StorageFailed`.
    pub max_rederives: u32,
    /// Injected mid-run kill: stop pass 2 cleanly after this many bins
    /// complete, leaving the manifest and finished bins behind for
    /// `--resume`. `None` (the default) runs to completion.
    pub kill_after: Option<u64>,
}

impl Default for IoSpec {
    /// Moderate default rates so `--io-seed` alone exercises the retry
    /// and re-derive paths on a handful of bins.
    fn default() -> IoSpec {
        IoSpec {
            torn_rate: 0.02,
            rot_rate: 0.02,
            read_error_rate: 0.05,
            max_retries: 3,
            max_rederives: 2,
            kill_after: None,
        }
    }
}

impl IoSpec {
    /// The fault-free spec: clean writes, clean reads, no injected
    /// kill. Runs under this spec are bit-identical to a plan-free
    /// world (pinned by the zero-fault regression test).
    pub fn none() -> IoSpec {
        IoSpec {
            torn_rate: 0.0,
            rot_rate: 0.0,
            read_error_rate: 0.0,
            max_retries: 3,
            max_rederives: 2,
            kill_after: None,
        }
    }

    /// Parses a `key=value` comma list ([`dedukt_sim::plan::parse`]).
    pub fn parse(s: &str) -> Result<IoSpec, String> {
        dedukt_sim::plan::parse(s)
    }
}

impl Spec for IoSpec {
    const KIND: &'static str = "io";
    const KEYS: &'static [&'static str] =
        &["torn", "rot", "readerr", "retries", "rederive", "kill"];

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "torn" => self.torn_rate = number(value)?,
            "rot" => self.rot_rate = number(value)?,
            "readerr" => self.read_error_rate = number(value)?,
            "retries" => self.max_retries = integer(value)?,
            "rederive" => self.max_rederives = integer(value)?,
            _ => self.kill_after = Some(integer(value)?),
        }
        Ok(())
    }

    fn entries(&self) -> Vec<(&'static str, String)> {
        let mut out = vec![
            ("torn", self.torn_rate.to_string()),
            ("rot", self.rot_rate.to_string()),
            ("readerr", self.read_error_rate.to_string()),
            ("retries", self.max_retries.to_string()),
            ("rederive", self.max_rederives.to_string()),
        ];
        out.extend(self.kill_after.map(|n| ("kill", n.to_string())));
        out
    }

    /// Rates in [0, 1], at least one read attempt, a kill after at
    /// least one bin.
    fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("torn", self.torn_rate),
            ("rot", self.rot_rate),
            ("readerr", self.read_error_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("io rate {name}={rate} must be in [0, 1]"));
            }
        }
        if self.max_retries == 0 {
            return Err("io retries must allow at least one read attempt".into());
        }
        if self.kill_after == Some(0) {
            return Err("io kill must be at least 1 completed bin".into());
        }
        Ok(())
    }

    /// No fault rate and no kill: `--io-spec torn=0,rot=0,readerr=0`
    /// runs exactly like an absent plan on every engine.
    fn is_noop(&self) -> bool {
        self.torn_rate == 0.0
            && self.rot_rate == 0.0
            && self.read_error_rate == 0.0
            && self.kill_after.is_none()
    }
}

/// A seeded, deterministic storage-fault schedule. Cloning is cheap (a
/// few words); every engine and every recovery attempt consult the same
/// plan.
pub type IoPlan = Plan<IoSpec>;

/// Is the write of block `seq` of `bin` at `generation` torn?
/// Persistent: the tear is physically written; re-deriving the bin bumps
/// the generation and draws a fresh fate.
pub fn torn_write(plan: &IoPlan, bin: u64, seq: u64, generation: u64) -> bool {
    let rate = plan.spec().torn_rate;
    rate > 0.0 && plan.draw(SALT_TORN, &[bin, seq, generation]) < rate
}

/// Does one payload byte of block `seq` of `bin` at `generation` rot
/// after its checksum was computed? Persistent, like [`torn_write`].
pub fn bit_rot(plan: &IoPlan, bin: u64, seq: u64, generation: u64) -> bool {
    let rate = plan.spec().rot_rate;
    rate > 0.0 && plan.draw(SALT_ROT, &[bin, seq, generation]) < rate
}

/// Does read `attempt` of `bin` fail transiently? The attempt coordinate
/// increases monotonically across retries *and* re-derives of the same
/// bin, so every attempt draws fresh.
pub fn read_errors(plan: &IoPlan, bin: u64, attempt: u64) -> bool {
    let rate = plan.spec().read_error_rate;
    rate > 0.0 && plan.draw(SALT_READ, &[bin, attempt]) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_key() {
        let spec =
            IoSpec::parse("torn=0.3, rot=0.2, readerr=0.1, retries=5, rederive=4, kill=7").unwrap();
        assert_eq!(spec.torn_rate, 0.3);
        assert_eq!(spec.rot_rate, 0.2);
        assert_eq!(spec.read_error_rate, 0.1);
        assert_eq!(spec.max_retries, 5);
        assert_eq!(spec.max_rederives, 4);
        assert_eq!(spec.kill_after, Some(7));
        spec.validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let s = IoSpec {
            torn_rate: 1.5,
            ..IoSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = IoSpec {
            read_error_rate: -0.1,
            ..IoSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = IoSpec {
            max_retries: 0,
            ..IoSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("at least one"));
        let s = IoSpec {
            kill_after: Some(0),
            ..IoSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("at least 1"));
        IoSpec::default().validate().unwrap();
        IoSpec::none().validate().unwrap();
    }

    #[test]
    fn draws_are_deterministic_and_attempt_fresh() {
        let plan = IoPlan::new(42, IoSpec::parse("torn=0.5,rot=0.5,readerr=0.5").unwrap());
        for bin in 0..16u64 {
            for seq in 0..4u64 {
                assert_eq!(
                    torn_write(&plan, bin, seq, 0),
                    torn_write(&plan, bin, seq, 0)
                );
                assert_eq!(bit_rot(&plan, bin, seq, 0), bit_rot(&plan, bin, seq, 0));
            }
            for attempt in 0..8u64 {
                assert_eq!(
                    read_errors(&plan, bin, attempt),
                    read_errors(&plan, bin, attempt)
                );
            }
        }
        // A fresh generation (re-derive) must draw fresh write fates,
        // and a fresh attempt fresh read verdicts.
        let differs = (0..16u64).any(|b| torn_write(&plan, b, 0, 0) != torn_write(&plan, b, 0, 1));
        assert!(differs, "generations should draw fresh write fates");
        let differs = (0..16u64).any(|b| read_errors(&plan, b, 0) != read_errors(&plan, b, 1));
        assert!(differs, "attempts should draw fresh read verdicts");
    }

    #[test]
    fn zero_rate_plan_never_faults() {
        let plan = IoPlan::new(7, IoSpec::none());
        for bin in 0..64u64 {
            assert!(!torn_write(&plan, bin, 0, 0));
            assert!(!bit_rot(&plan, bin, 0, 0));
            for attempt in 0..8u64 {
                assert!(!read_errors(&plan, bin, attempt));
            }
        }
    }

    #[test]
    fn fault_distribution_tracks_rates() {
        let plan = IoPlan::new(
            1234,
            IoSpec::parse("torn=0.25,rot=0.25,readerr=0.25").unwrap(),
        );
        let n = 40_000u64;
        let torn = (0..n).filter(|&b| torn_write(&plan, b, 0, 0)).count();
        let frac = torn as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "torn {frac}");
        let rotted = (0..n).filter(|&b| bit_rot(&plan, b, 0, 0)).count();
        let frac = rotted as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "rotted {frac}");
        let errs = (0..n).filter(|&a| read_errors(&plan, 3, a)).count();
        let frac = errs as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "read-errored {frac}");
    }

    #[test]
    fn noop_specs_are_detected() {
        assert!(!IoSpec::default().is_noop());
        assert!(IoSpec::none().is_noop());
        assert!(IoSpec::parse("torn=0,rot=0,readerr=0").unwrap().is_noop());
        // A kill is an injected event even with clean rates.
        assert!(!IoSpec::parse("torn=0,rot=0,readerr=0,kill=2")
            .unwrap()
            .is_noop());
        assert!(!IoSpec::parse("torn=0.5,rot=0,readerr=0").unwrap().is_noop());
    }

    #[test]
    fn fault_streams_are_independent() {
        // Same coordinates, different salts: the three decision streams
        // must not mirror each other.
        let plan = IoPlan::new(99, IoSpec::parse("torn=0.5,rot=0.5,readerr=0.5").unwrap());
        let torn_rot = (0..256u64).all(|b| torn_write(&plan, b, 0, 0) == bit_rot(&plan, b, 0, 0));
        assert!(!torn_rot, "torn/rot salt separation failed");
        let torn_read = (0..256u64).all(|b| torn_write(&plan, b, 0, 0) == read_errors(&plan, b, 0));
        assert!(!torn_read, "torn/read salt separation failed");
    }
}
