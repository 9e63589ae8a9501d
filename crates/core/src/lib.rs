//! Distributed-memory k-mer counting — the paper's contribution.
//!
//! This crate implements the three counters evaluated by Nisa et al.
//! (IPDPS 2021) on top of the workspace substrates:
//!
//! * [`pipeline::cpu`] — the CPU baseline (Algorithm 1, diBELLA's k-mer
//!   analysis): parse k-mers, route by MurmurHash, `MPI_Alltoallv`, count
//!   into per-rank hash tables. 42 ranks per node.
//! * [`pipeline::gpu_kmer`] — the GPU-accelerated k-mer counter (§III):
//!   parse and count offloaded to one simulated V100 per rank (6 per
//!   node), exchange unchanged.
//! * [`pipeline::gpu_supermer`] — the supermer-optimized GPU counter
//!   (§IV): windowed supermer construction on the device, partition by
//!   minimizer hash, exchange supermers plus a length byte each.
//!
//! Supporting modules: [`minimizer`] (three orderings incl. the paper's
//! random-encoding trick), [`supermer`] (sequential reference and windowed
//! builders, Algorithm 2), [`table`] (open-addressing count tables, host
//! and device variants), [`partition`] (owner-rank assignment incl.
//! the balanced extension), [`model`] (the §IV-D analytic communication
//! model), [`stats`] (phase breakdowns, volumes, Table III imbalance),
//! and [`verify`] (a single-threaded reference counter every pipeline is
//! checked against).

#![warn(missing_docs)]

pub mod analysis;
pub mod config;
pub mod dump;
pub mod minimizer;
pub mod model;
pub mod partition;
pub mod pipeline;
pub mod stats;
pub mod supermer;
pub mod table;
pub mod verify;
pub mod wide;
pub mod width;
pub mod wire;

pub use config::{ConfigError, CountingConfig, CpuCoreModel, GpuTuning, Mode, RunConfig};
pub use minimizer::{MinimizerScheme, OrderingKind};
pub use pipeline::{run, run_typed, RunError, RunReport};
pub use stats::PhaseBreakdown;
pub use supermer::Supermer;
pub use table::{DeviceCountTable, HostCountTable};
pub use width::PackedKmer;
