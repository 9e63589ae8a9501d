//! Rank-based message-passing runtime with a Summit-like network model.
//!
//! Stand-in for the paper's MPI layer (Spectrum MPI on Summit's dual-rail
//! EDR fat-tree; see DESIGN.md §2). One engine runs every pipeline, CLI
//! path, example and benchmark: [`bsp`], the **BSP executor**. Ranks are
//! tasks executed per superstep and collectives are performed centrally,
//! which scales to thousands of simulated ranks on one host (the paper's
//! CPU baseline uses 2,688 ranks). Its exchange is cross-checked against
//! sequential references in the test suites.
//!
//! The [`cost`] module prices collectives with an α-β model over the
//! [`topology`] (per-node injection bandwidth of 23 GB/s, NVLink on-node,
//! per §V-A), and [`stats`] counts exact communication volumes — the
//! numbers behind the paper's Table II.

#![warn(missing_docs)]

pub mod bsp;
pub mod cost;
pub mod fault;
pub mod route;
pub mod stats;
pub mod topology;

pub use bsp::BspWorld;
pub use cost::NetworkParams;
pub use fault::{BucketFate, ChecksumFrame, FaultPlan, FaultSpec, RankPlan, RankSpec, WireHash};
pub use stats::CommStats;
pub use topology::Topology;
