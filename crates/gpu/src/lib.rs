//! A SIMT GPU execution simulator.
//!
//! The paper's kernels (§III-B) run on NVIDIA V100s; this crate provides the
//! software stand-in (see DESIGN.md §2 for the substitution rationale).
//! It has two halves that are deliberately kept separate:
//!
//! * **Functional execution** — kernels are Rust closures launched once
//!   per block of a `(grid, block)` launch ([`launch`]). Blocks run in
//!   block order on the launching thread (ranks, not blocks, are the
//!   host's parallel tasks); device memory is real host memory charged
//!   against the device budget ([`memory::Reservation`]), so every result
//!   a kernel produces is a real, bit-exact computation that depends only
//!   on its inputs.
//! * **Analytic timing** — kernels tally the work they do (instructions,
//!   global-memory traffic with a coalescing classification, atomics); the
//!   cost model ([`cost`]) converts the tally plus the device parameters
//!   ([`config::DeviceConfig`], V100 preset) and the achieved occupancy
//!   ([`occupancy`]) into a *simulated* kernel duration. Host↔device
//!   transfer costs are modelled in [`transfer`].
//!
//! Nothing in this crate knows about k-mers; it is a generic substrate.

#![warn(missing_docs)]

pub mod config;
pub mod cost;
pub mod launch;
pub mod mem_plan;
pub mod memory;
pub mod occupancy;
pub mod transfer;

pub use config::DeviceConfig;
pub use launch::{BlockCtx, KernelReport, LaunchConfig, WorkTally};
pub use mem_plan::{MemPlan, MemSpec};
pub use memory::{Device, OomError, Reservation};
pub use transfer::Link;
