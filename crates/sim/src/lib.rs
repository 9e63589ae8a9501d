//! Shared simulation primitives used across the DEDUKT-RS workspace.
//!
//! The reproduction computes all *functional* results (k-mer counts, buckets,
//! communication volumes) for real, but hardware timings are produced by
//! analytic cost models. This crate holds the vocabulary types those models
//! speak: [`SimTime`] for simulated durations, [`DataVolume`] for byte
//! counts, [`Rate`] for throughputs, plus distribution statistics
//! ([`DistStats`]) used for load-imbalance reporting (Table III of the
//! paper).

#![warn(missing_docs)]

pub mod analyze;
pub mod journal;
pub mod metrics;
pub mod plan;
pub mod rate;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;
pub mod volume;

pub use analyze::{analyze, render_diff, RunAnalysis};
pub use journal::{read_journal, write_journal, Journal, JournalEvent};
pub use metrics::{Histogram, MetricOp, MetricValue, MetricsSnapshot};
pub use plan::{Plan, Spec};
pub use rate::Rate;
pub use rng::SplitMix64;
pub use stats::DistStats;
pub use time::{SimClock, SimTime};
pub use trace::write_chrome_trace;
pub use volume::DataVolume;
