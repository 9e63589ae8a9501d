//! Simulated NVMe bin store for out-of-core two-pass counting.
//!
//! Pass 1 of the two-pass pipeline partitions extracted items into
//! minimizer-keyed *bins* and lands them on this store as
//! checksum-framed blocks ([`block`]); a per-run [`Manifest`] records
//! what was written so pass 2 can read each bin back on its owner and a
//! killed second pass can resume from exactly where it stopped. The
//! store is backed by real files in a run directory — the *bytes* are
//! real and verifiable, only the *time* they take is simulated (the SSD
//! tier of the network cost model).
//!
//! Robustness is the point: an [`IoPlan`] injects torn writes, bit rot
//! and transient read errors as a pure function of a seed and the
//! operation coordinate (the same stateless
//! [`dedukt_sim::rng::unit_from_coords`] machinery the fault, memory
//! and rank plans use), so every engine derives the identical fault
//! schedule without coordination and recovery is reproducible
//! bit-for-bit. See DESIGN.md §12.

#![warn(missing_docs)]

pub mod block;
pub mod manifest;
pub mod plan;
pub mod store;

pub use block::{frame_block, parse_block, payload_checksum, BlockFrame, BLOCK_HEADER_BYTES};
pub use manifest::{read_bin_counts, write_bin_counts, BinCounts, BinMeta, Manifest};
pub use plan::{IoPlan, IoSpec};
pub use store::{BinStore, BinWrite, ReadFailure};
