//! One count job — what `dedukt count --out` does, with the dump going
//! to `io::sink()` — and the oracle digest every job is checked against.

use dedukt::core::{dump, pipeline, verify, CountingConfig, RunConfig, RunReport};
use dedukt::dna::fastq::parse_fastq;
use dedukt::dna::ReadSet;
use dedukt::sim::rng::mix_coords;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Names of the four timed stages of a job, in order.
pub const STAGES: [&str; 4] = ["fastq.parse", "pipeline.run", "dump.merge", "dump.write"];

/// A finished job: stage boundaries, the report and the merged table.
pub struct JobOutput {
    /// `marks[0]` is the job's start, `marks[i + 1]` the end of
    /// `STAGES[i]`.
    pub marks: [Instant; 5],
    /// The pipeline's report (with its rank tables).
    pub report: RunReport,
    /// The merged, sorted `(kmer, count)` table that was dumped.
    pub merged: Vec<(u64, u32)>,
}

impl JobOutput {
    /// Wall seconds of the whole job.
    pub fn wall(&self) -> f64 {
        (self.marks[4] - self.marks[0]).as_secs_f64()
    }

    /// Wall seconds of stage `i` of [`STAGES`].
    pub fn stage(&self, i: usize) -> f64 {
        (self.marks[i + 1] - self.marks[i]).as_secs_f64()
    }
}

/// Reads a FASTQ file the way `dedukt count` does (fragments shorter
/// than k dropped).
pub fn read_fastq(path: &Path, k: usize) -> Result<ReadSet, String> {
    let file = File::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_fastq(BufReader::new(file), k).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one job on `fastq` under `rc` (which must collect tables).
pub fn run_job(fastq: &Path, rc: &RunConfig) -> Result<JobOutput, String> {
    let t0 = Instant::now();
    let reads = read_fastq(fastq, rc.counting.k)?;
    let t1 = Instant::now();
    let report = pipeline::run(&reads, rc).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    let tables = report
        .tables
        .as_ref()
        .ok_or("the pipeline did not collect its rank tables")?;
    let merged = dump::merge_tables(tables);
    let t3 = Instant::now();
    let mut sink = BufWriter::new(io::sink());
    dump::write_dump(&mut sink, &merged, rc.counting.k, rc.counting.encoding)
        .and_then(|()| sink.flush())
        .map_err(|e| e.to_string())?;
    let t4 = Instant::now();
    Ok(JobOutput {
        marks: [t0, t1, t2, t3, t4],
        report,
        merged,
    })
}

/// An order-independent digest of a `(kmer, count)` multiset: a wrapping
/// sum of mixed pairs, plus the total mass and the distinct count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Wrapping sum of `mix(kmer, count)` over all pairs.
    pub hash: u64,
    /// Sum of counts (k-mer instances).
    pub total: u64,
    /// Number of pairs (distinct k-mers).
    pub distinct: u64,
}

const DIGEST_SALT: u64 = 0xD16E_57ED_C0C0_0001;

impl Digest {
    /// Digest of the given pairs, in any order.
    pub fn of_pairs(pairs: impl IntoIterator<Item = (u64, u64)>) -> Digest {
        let mut d = Digest {
            hash: 0,
            total: 0,
            distinct: 0,
        };
        for (kmer, count) in pairs {
            d.hash = d.hash.wrapping_add(mix_coords(DIGEST_SALT, &[kmer, count]));
            d.total += count;
            d.distinct += 1;
        }
        d
    }

    /// The oracle's digest: every k-mer of `reads` counted by the
    /// single-threaded reference counter.
    pub fn of_reference(reads: &ReadSet, cfg: &CountingConfig) -> Digest {
        Digest::of_pairs(verify::reference_counts(reads, cfg))
    }

    /// Digest of a merged table.
    pub fn of_table(table: &[(u64, u32)]) -> Digest {
        Digest::of_pairs(table.iter().map(|&(k, c)| (k, c as u64)))
    }

    /// Checks `got` against this (expected) digest.
    pub fn check(&self, got: &Digest) -> Result<(), String> {
        if self == got {
            Ok(())
        } else {
            Err(format!(
                "digest mismatch: got {:016x} over {} instances / {} distinct, oracle {:016x} \
                 over {} / {}",
                got.hash, got.total, got.distinct, self.hash, self.total, self.distinct
            ))
        }
    }

    /// Command-line form, `hash:total:distinct`.
    pub fn to_arg(self) -> String {
        format!("{:016x}:{}:{}", self.hash, self.total, self.distinct)
    }

    /// Parses [`Digest::to_arg`]'s form.
    pub fn parse_arg(s: &str) -> Result<Digest, String> {
        let bad = || format!("malformed digest `{s}` (expected hash:total:distinct)");
        let mut parts = s.split(':');
        let (Some(h), Some(t), Some(d), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return Err(bad());
        };
        Ok(Digest {
            hash: u64::from_str_radix(h, 16).map_err(|_| bad())?,
            total: t.parse().map_err(|_| bad())?,
            distinct: d.parse().map_err(|_| bad())?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_independent_and_sensitive() {
        let a = Digest::of_pairs([(1, 2), (3, 4), (5, 6)]);
        let b = Digest::of_pairs([(5, 6), (1, 2), (3, 4)]);
        assert_eq!(a, b);
        assert_ne!(a, Digest::of_pairs([(1, 2), (3, 4), (5, 7)]));
        assert_ne!(a, Digest::of_pairs([(1, 2), (3, 4), (6, 6)]));
        assert_eq!(Digest::parse_arg(&a.to_arg()), Ok(a));
        assert!(Digest::parse_arg("zz:1:2").is_err());
        assert!(Digest::parse_arg("1:2").is_err());
        assert!(Digest::parse_arg("1:2:3:4").is_err());
    }

    #[test]
    fn oracle_digest_matches_its_own_table_only() {
        let reads: ReadSet = [b"ACGTACGTTGCA".as_slice(), b"GGGGACGTA"]
            .iter()
            .enumerate()
            .map(|(i, s)| dedukt::dna::Read::from_ascii(format!("r{i}"), s).unwrap())
            .collect();
        let cfg = CountingConfig {
            k: 4,
            m: 2,
            window: 4,
            ..CountingConfig::default()
        };
        let oracle = Digest::of_reference(&reads, &cfg);
        let mut table: Vec<(u64, u32)> = verify::reference_counts(&reads, &cfg)
            .into_iter()
            .map(|(k, c)| (k, c as u32))
            .collect();
        assert_eq!(oracle.check(&Digest::of_table(&table)), Ok(()));
        table.pop();
        assert!(oracle.check(&Digest::of_table(&table)).is_err());
    }
}
