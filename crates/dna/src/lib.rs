//! DNA substrate for DEDUKT-RS.
//!
//! Everything the k-mer counting pipelines need to know about sequences:
//!
//! * [`base`] — nucleotide codes and 2-bit encodings, including the paper's
//!   deliberately "random" encoding A=1, C=0, T=2, G=3 (§IV-A) used to
//!   de-skew minimizer partitions.
//! * [`kmer`] — packed k-mer words (`u64` for k ≤ 32, `u128` for k ≤ 64)
//!   with rolling extension, reverse complement and canonicalization.
//! * [`read`] / [`fastq`] — reads and FASTQ/FASTA parsing and writing.
//! * [`sim`] — deterministic synthetic genome and long-read simulators.
//! * [`datasets`] — the Table I dataset catalog, re-scaled for a single
//!   host (see DESIGN.md §2 for the substitution rationale).
//! * [`spectrum`] — k-mer frequency histograms ("k-mer spectra").

#![warn(missing_docs)]

pub mod base;
pub mod datasets;
pub mod fastq;
pub mod kmer;
pub mod read;
pub mod sim;
pub mod spectrum;

pub use base::{Base, Encoding};
pub use datasets::{Dataset, DatasetId, ScalePreset};
pub use read::{Read, ReadSet};
