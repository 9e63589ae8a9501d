//! Deterministic memory-pressure injection for the counting phase.
//!
//! A [`MemPlan`] is the device-memory twin of the network layer's
//! `FaultPlan`: a *pure function* from a seed and a pressure coordinate
//! — `(rank)` for distinct-count underestimates, `(rank, attempt)` for
//! allocation failures — to a pressure decision, drawn through the
//! stateless [`Plan::draw`]. Because the plan carries no mutable state,
//! every engine (CPU baseline, both GPU pipelines) derives **identical**
//! pressure schedules without any coordination, and a regrow retry draws
//! a fresh, reproducible verdict simply by bumping the attempt
//! coordinate.
//!
//! Two pressure kinds are modelled (DESIGN.md §8):
//!
//! * **Distinct-count underestimate** — a rank's table is sized from
//!   [`MemSpec::shrink_factor`] × the true expected load instead of the
//!   exact count, forcing the open-addressing table to fill up and
//!   exercise the grow/spill recovery.
//! * **Allocation failure** — a grow-and-rehash attempt is denied even
//!   though the simulated HBM could hold it, forcing the spill path
//!   (and, once the spill budget is exhausted, the clean
//!   `RunError::DeviceOom` unwind).

use dedukt_sim::plan::{integer, number, Plan, Spec};

/// Domain-separation salts so the two pressure streams never alias
/// (and never alias the network fault salts).
const SALT_ESTIMATE: u64 = 0x4D45_4D01;
const SALT_ALLOC: u64 = 0x4D45_4D02;

/// Pressure rates and spill policy. Parsed from `--mem-spec`
/// (`under=0.5,shrink=0.25,afail=0.25,spill=1048576`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemSpec {
    /// Probability a rank's distinct-count estimate comes in low.
    pub underestimate_rate: f64,
    /// Factor applied to an underestimating rank's expected load when
    /// sizing its count table, in `(0, 1]`.
    pub shrink_factor: f64,
    /// Probability a grow-and-rehash allocation attempt is denied.
    pub alloc_fail_rate: f64,
    /// Most k-mer instances one rank may park on the host spill list
    /// before the run fails with `RunError::DeviceOom`.
    pub spill_limit: u64,
}

impl Default for MemSpec {
    /// Moderate default rates so `--mem-seed` alone exercises both the
    /// regrow and the spill path on a handful of ranks.
    fn default() -> MemSpec {
        MemSpec {
            underestimate_rate: 0.5,
            shrink_factor: 0.25,
            alloc_fail_rate: 0.25,
            spill_limit: 1 << 20,
        }
    }
}

impl MemSpec {
    /// The no-pressure spec: exact sizing, allocations always succeed,
    /// unbounded spill. Runs under this spec are bit-identical to a
    /// plan-free world (pinned by the zero-pressure regression test).
    pub fn none() -> MemSpec {
        MemSpec {
            underestimate_rate: 0.0,
            shrink_factor: 1.0,
            alloc_fail_rate: 0.0,
            spill_limit: u64::MAX,
        }
    }

    /// Parses a `key=value` comma list ([`dedukt_sim::plan::parse`]).
    pub fn parse(s: &str) -> Result<MemSpec, String> {
        dedukt_sim::plan::parse(s)
    }
}

impl Spec for MemSpec {
    const KIND: &'static str = "mem";
    const KEYS: &'static [&'static str] = &["under", "shrink", "afail", "spill"];

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        match key {
            "under" => self.underestimate_rate = number(value)?,
            "shrink" => self.shrink_factor = number(value)?,
            "afail" => self.alloc_fail_rate = number(value)?,
            _ => self.spill_limit = integer(value)?,
        }
        Ok(())
    }

    fn entries(&self) -> Vec<(&'static str, String)> {
        vec![
            ("under", self.underestimate_rate.to_string()),
            ("shrink", self.shrink_factor.to_string()),
            ("afail", self.alloc_fail_rate.to_string()),
            ("spill", self.spill_limit.to_string()),
        ]
    }

    /// Rates in [0, 1], shrink factor in (0, 1].
    fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("under", self.underestimate_rate),
            ("afail", self.alloc_fail_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
                return Err(format!("mem rate {name}={rate} must be in [0, 1]"));
            }
        }
        if !self.shrink_factor.is_finite() || self.shrink_factor <= 0.0 || self.shrink_factor > 1.0
        {
            return Err(format!(
                "mem shrink factor shrink={} must be in (0, 1]",
                self.shrink_factor
            ));
        }
        Ok(())
    }

    /// No underestimates and no injected allocation failures means the
    /// grow/spill machinery never fires off the plan (the spill limit
    /// only bounds plan-independent pressure, which the caller checks
    /// separately), so `--mem-spec under=0,afail=0` runs exactly like an
    /// absent plan.
    fn is_noop(&self) -> bool {
        (self.underestimate_rate == 0.0 || self.shrink_factor == 1.0) && self.alloc_fail_rate == 0.0
    }
}

/// A seeded, deterministic memory-pressure schedule. Cloning is cheap
/// (a few words); every engine and every grow attempt consult the same
/// plan.
pub type MemPlan = Plan<MemSpec>;

/// Does `rank`'s distinct-count estimate come in low? Stateless: every
/// evaluation at the same coordinate returns the same verdict, on any
/// engine.
pub fn underestimates(plan: &MemPlan, rank: usize) -> bool {
    let rate = plan.spec().underestimate_rate;
    rate > 0.0 && plan.draw(SALT_ESTIMATE, &[rank as u64]) < rate
}

/// Factor applied to `rank`'s expected load when sizing its count table:
/// [`MemSpec::shrink_factor`] when the rank underestimates, 1.0
/// otherwise.
pub fn estimate_factor(plan: &MemPlan, rank: usize) -> f64 {
    if underestimates(plan, rank) {
        plan.spec().shrink_factor
    } else {
        1.0
    }
}

/// Is grow attempt `attempt` (0 = first regrow) on `rank` denied by
/// injected pressure? Real HBM exhaustion is checked separately against
/// the device budget; this draw models transient allocator failure under
/// fragmentation.
pub fn alloc_fails(plan: &MemPlan, rank: usize, attempt: u64) -> bool {
    let rate = plan.spec().alloc_fail_rate;
    rate > 0.0 && plan.draw(SALT_ALLOC, &[rank as u64, attempt]) < rate
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrips_every_key() {
        let spec = MemSpec::parse("under=0.3, shrink=0.5, afail=0.1, spill=4096").unwrap();
        assert_eq!(spec.underestimate_rate, 0.3);
        assert_eq!(spec.shrink_factor, 0.5);
        assert_eq!(spec.alloc_fail_rate, 0.1);
        assert_eq!(spec.spill_limit, 4096);
        spec.validate().unwrap();
    }

    #[test]
    fn validate_rejects_out_of_range() {
        let s = MemSpec {
            underestimate_rate: 1.5,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = MemSpec {
            alloc_fail_rate: -0.1,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("must be in [0, 1]"));
        let s = MemSpec {
            shrink_factor: 0.0,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("(0, 1]"));
        let s = MemSpec {
            shrink_factor: 1.5,
            ..MemSpec::default()
        };
        assert!(s.validate().unwrap_err().contains("(0, 1]"));
        MemSpec::default().validate().unwrap();
        MemSpec::none().validate().unwrap();
    }

    #[test]
    fn draws_are_deterministic_and_attempt_fresh() {
        let plan = MemPlan::new(42, MemSpec::parse("under=0.5,afail=0.5").unwrap());
        for rank in 0..16 {
            assert_eq!(underestimates(&plan, rank), underestimates(&plan, rank));
            assert_eq!(estimate_factor(&plan, rank), estimate_factor(&plan, rank));
            for attempt in 0..8u64 {
                assert_eq!(
                    alloc_fails(&plan, rank, attempt),
                    alloc_fails(&plan, rank, attempt)
                );
            }
        }
        // Across 16 ranks × 8 attempts at afail=0.5, some rank must see
        // a different verdict on attempt 1 than on attempt 0.
        let differs = (0..16usize).any(|r| alloc_fails(&plan, r, 0) != alloc_fails(&plan, r, 1));
        assert!(differs, "attempts should draw fresh verdicts");
    }

    #[test]
    fn zero_rate_plan_never_pressures() {
        let plan = MemPlan::new(7, MemSpec::none());
        for rank in 0..64 {
            assert!(!underestimates(&plan, rank));
            assert_eq!(estimate_factor(&plan, rank), 1.0);
            for attempt in 0..8u64 {
                assert!(!alloc_fails(&plan, rank, attempt));
            }
        }
    }

    #[test]
    fn pressure_distribution_tracks_rates() {
        let plan = MemPlan::new(1234, MemSpec::parse("under=0.25,afail=0.25").unwrap());
        let n = 40_000usize;
        let under = (0..n).filter(|&r| underestimates(&plan, r)).count();
        let frac = under as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "underestimated {frac}");
        let fails = (0..n).filter(|&a| alloc_fails(&plan, 3, a as u64)).count();
        let frac = fails as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.02, "alloc-failed {frac}");
        assert!((0..n).all(|r| {
            let f = estimate_factor(&plan, r);
            f == 1.0 || f == 0.25
        }));
    }

    #[test]
    fn noop_specs_are_detected() {
        assert!(!MemSpec::default().is_noop());
        assert!(MemSpec::none().is_noop());
        assert!(MemSpec::parse("under=0,afail=0").unwrap().is_noop());
        // shrink=1 makes underestimates inert.
        assert!(MemSpec::parse("under=0.5,shrink=1,afail=0")
            .unwrap()
            .is_noop());
        assert!(!MemSpec::parse("under=0.5,afail=0").unwrap().is_noop());
        assert!(!MemSpec::parse("under=0,afail=0.5").unwrap().is_noop());
    }

    #[test]
    fn underestimate_and_alloc_streams_are_independent() {
        // Same coordinates, different salts: the two decision streams
        // must not mirror each other.
        let plan = MemPlan::new(99, MemSpec::parse("under=0.5,afail=0.5").unwrap());
        let mirrored = (0..256usize).all(|r| underestimates(&plan, r) == alloc_fails(&plan, r, 0));
        assert!(!mirrored, "salt separation failed");
    }
}
