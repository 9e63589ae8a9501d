//! Seeded injection plans and their shared `key=value` grammar.
//!
//! Every deterministic injection layer — network faults, rank deaths,
//! memory pressure, storage faults — is a [`Plan`]: a seed plus a
//! [`Spec`] of rates and budgets. A plan carries no mutable state; each
//! decision is a stateless [`unit_from_coords`] draw at a named
//! coordinate, salted per decision stream, so independent engines agree
//! on every fate without exchanging anything.
//!
//! Specs are written as a comma list of `key=value` entries
//! (`fail=0.1,retries=5`). Keys not given keep the spec's defaults, a key
//! may repeat where the spec accumulates values (`kill=1:0,kill=2:3`),
//! and range checks live in [`Spec::validate`] so they surface with the
//! rest of the run configuration rather than at the parser.

use crate::rng::unit_from_coords;

/// One injection layer's rates and budgets, with its grammar.
pub trait Spec: Default {
    /// Short name used in error messages and journal labels (`fault`).
    const KIND: &'static str;
    /// Every key the grammar accepts, in rendering order.
    const KEYS: &'static [&'static str];

    /// Sets `key` (always one of [`Spec::KEYS`]) from `value`. Errors
    /// describe the value, e.g. `is not a number`; [`parse`] prefixes
    /// the spec kind and the entry.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String>;

    /// The spec as `(key, value)` entries that [`parse`] reads back to
    /// an equal spec. Keys without a value (an unset option, an empty
    /// list) are left out.
    fn entries(&self) -> Vec<(&'static str, String)>;

    /// Range checks: rates in `[0, 1]`, budgets of at least one, ...
    fn validate(&self) -> Result<(), String>;

    /// Is this spec valid but incapable of ever injecting anything? Runs
    /// normalize such plans to absent ones.
    fn is_noop(&self) -> bool;
}

/// Parses a `key=value` comma list over the spec's defaults.
pub fn parse<S: Spec>(s: &str) -> Result<S, String> {
    let mut spec = S::default();
    for part in s.split(',').filter(|p| !p.trim().is_empty()) {
        let (key, value) = part
            .split_once('=')
            .ok_or_else(|| format!("{} spec entry `{}` is not key=value", S::KIND, part.trim()))?;
        let (key, value) = (key.trim(), value.trim());
        if !S::KEYS.contains(&key) {
            return Err(format!(
                "unknown {} spec key `{key}` (expected {})",
                S::KIND,
                S::KEYS.join("/")
            ));
        }
        spec.set(key, value)
            .map_err(|e| format!("{} spec {key}=`{value}` {e}", S::KIND))?;
    }
    Ok(spec)
}

/// Parses a real-valued spec value.
pub fn number(value: &str) -> Result<f64, String> {
    value.parse().map_err(|_| "is not a number".to_string())
}

/// Parses an integer spec value.
pub fn integer<T: std::str::FromStr>(value: &str) -> Result<T, String> {
    value.parse().map_err(|_| "is not an integer".to_string())
}

/// A seeded, deterministic injection schedule under spec `S`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Plan<S> {
    seed: u64,
    spec: S,
}

impl<S> Plan<S> {
    /// A plan drawing every decision from `seed` under `spec`.
    pub fn new(seed: u64, spec: S) -> Plan<S> {
        Plan { seed, spec }
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The plan's rates and budgets.
    pub fn spec(&self) -> &S {
        &self.spec
    }

    /// Uniform `[0, 1)` draw at a coordinate of the decision stream
    /// `salt`. Stateless: the same coordinate always draws the same
    /// value, on any engine.
    pub fn draw(&self, salt: u64, coords: &[u64]) -> f64 {
        unit_from_coords(self.seed ^ salt, coords)
    }
}

impl<S: Spec> Plan<S> {
    /// One-line rendering for run journals, in the spec's own grammar:
    /// `fault[seed=7 fail=0.2 corrupt=0.1 ...]`.
    pub fn label(&self) -> String {
        let mut out = format!("{}[seed={}", S::KIND, self.seed);
        for (key, value) in self.spec.entries() {
            out.push_str(&format!(" {key}={value}"));
        }
        out.push(']');
        out
    }
}

/// Applies a `--<kind>-seed N` or `--<kind>-spec k=v,...` flag (by the
/// suffix of `flag`) to an optional plan. Either flag alone activates
/// the plan — a seed alone uses the default spec, a spec alone seed 0 —
/// and the other fills in its half, in either order. Errors name `flag`.
pub fn apply_flag<S: Spec>(
    plan: &mut Option<Plan<S>>,
    flag: &str,
    value: &str,
) -> Result<(), String> {
    let (seed, spec) = plan
        .take()
        .map_or_else(|| (0, S::default()), |p| (p.seed, p.spec));
    *plan = Some(if flag.ends_with("-seed") {
        let seed = value
            .parse()
            .map_err(|_| format!("{flag}: bad seed `{value}`"))?;
        Plan::new(seed, spec)
    } else {
        Plan::new(seed, parse(value).map_err(|e| format!("{flag}: {e}"))?)
    });
    Ok(())
}

/// Drops a plan that can never inject anything ([`Spec::is_noop`]).
pub fn drop_noop<S: Spec>(plan: &mut Option<Plan<S>>) {
    if plan.as_ref().is_some_and(|p| p.spec.is_noop()) {
        *plan = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-key spec exercising a scalar and a repeatable key.
    #[derive(Clone, Debug, PartialEq)]
    struct Toy {
        rate: f64,
        pins: Vec<u64>,
    }

    impl Default for Toy {
        fn default() -> Toy {
            Toy {
                rate: 0.5,
                pins: Vec::new(),
            }
        }
    }

    impl Spec for Toy {
        const KIND: &'static str = "toy";
        const KEYS: &'static [&'static str] = &["rate", "pin"];

        fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
            match key {
                "rate" => self.rate = number(value)?,
                _ => self.pins.push(integer(value)?),
            }
            Ok(())
        }

        fn entries(&self) -> Vec<(&'static str, String)> {
            let mut out = vec![("rate", self.rate.to_string())];
            out.extend(self.pins.iter().map(|p| ("pin", p.to_string())));
            out
        }

        fn validate(&self) -> Result<(), String> {
            Ok(())
        }

        fn is_noop(&self) -> bool {
            self.rate == 0.0 && self.pins.is_empty()
        }
    }

    #[test]
    fn grammar_keeps_defaults_and_accumulates_repeats() {
        let toy: Toy = parse(" pin=3 ,, pin = 4").unwrap();
        assert_eq!(toy.rate, 0.5);
        assert_eq!(toy.pins, vec![3, 4]);
        assert_eq!(parse::<Toy>("").unwrap(), Toy::default());
    }

    #[test]
    fn grammar_errors_are_uniform() {
        let err = |s| parse::<Toy>(s).unwrap_err();
        assert_eq!(err("rate"), "toy spec entry `rate` is not key=value");
        assert_eq!(
            err("bogus=1"),
            "unknown toy spec key `bogus` (expected rate/pin)"
        );
        assert_eq!(err("rate=x"), "toy spec rate=`x` is not a number");
        assert_eq!(err("pin=1.5"), "toy spec pin=`1.5` is not an integer");
    }

    #[test]
    fn labels_parse_back_to_the_same_spec() {
        let plan = Plan::new(7, parse::<Toy>("rate=0.125,pin=1,pin=9").unwrap());
        let label = plan.label();
        assert_eq!(label, "toy[seed=7 rate=0.125 pin=1 pin=9]");
        let body = label
            .strip_prefix("toy[seed=7 ")
            .and_then(|b| b.strip_suffix(']'))
            .unwrap();
        assert_eq!(&parse::<Toy>(&body.replace(' ', ",")).unwrap(), plan.spec());
    }

    #[test]
    fn seed_and_spec_flags_activate_in_either_order() {
        let mut plan: Option<Plan<Toy>> = None;
        apply_flag(&mut plan, "--toy-seed", "9").unwrap();
        assert_eq!(plan, Some(Plan::new(9, Toy::default())));
        apply_flag(&mut plan, "--toy-spec", "rate=0").unwrap();
        assert_eq!(plan.as_ref().unwrap().seed(), 9);
        assert_eq!(plan.as_ref().unwrap().spec().rate, 0.0);

        let mut plan: Option<Plan<Toy>> = None;
        apply_flag(&mut plan, "--toy-spec", "pin=2").unwrap();
        assert_eq!(plan.as_ref().unwrap().seed(), 0);
        apply_flag(&mut plan, "--toy-seed", "4").unwrap();
        assert_eq!(plan.as_ref().unwrap().seed(), 4);
        assert_eq!(plan.as_ref().unwrap().spec().pins, vec![2]);

        let err = apply_flag(&mut plan, "--toy-seed", "many").unwrap_err();
        assert!(err.starts_with("--toy-seed: "), "{err}");
        let err = apply_flag(&mut plan, "--toy-spec", "bogus=1").unwrap_err();
        assert!(err.starts_with("--toy-spec: unknown toy spec key"), "{err}");
    }

    #[test]
    fn noop_plans_are_dropped() {
        let mut plan = Some(Plan::new(1, parse::<Toy>("rate=0").unwrap()));
        drop_noop(&mut plan);
        assert!(plan.is_none());
        let mut plan = Some(Plan::new(1, Toy::default()));
        drop_noop(&mut plan);
        assert!(plan.is_some());
    }

    #[test]
    fn draws_are_salted_per_stream() {
        let plan = Plan::new(3, Toy::default());
        assert_eq!(plan.draw(1, &[2, 3]), plan.draw(1, &[2, 3]));
        assert_eq!(plan.draw(1, &[2, 3]), unit_from_coords(3 ^ 1, &[2, 3]));
        assert_ne!(plan.draw(1, &[2, 3]), plan.draw(2, &[2, 3]));
    }
}
