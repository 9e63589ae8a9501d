//! Sequencing reads.

use crate::base::{Base, ASCII_TO_CODE, NOT_A_BASE};

/// A single sequencing read: an identifier, base codes, and optional
/// per-base quality scores (Phred+33 style, kept only for FASTQ round
/// tripping — the counting pipelines ignore qualities, as the paper does).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Read {
    /// Read name (FASTQ header without the leading `@`).
    pub id: String,
    /// Base codes (A=0, C=1, G=2, T=3).
    pub codes: Vec<u8>,
    /// Optional quality string, same length as `codes` when present.
    pub quals: Option<Vec<u8>>,
}

impl Read {
    /// Builds a read from an ASCII sequence, which must be clean ACGT.
    /// Returns `None` if any character is ambiguous.
    pub fn from_ascii(id: impl Into<String>, seq: &[u8]) -> Option<Read> {
        let codes: Vec<u8> = seq.iter().map(|&c| ASCII_TO_CODE[c as usize]).collect();
        if codes.contains(&NOT_A_BASE) {
            return None;
        }
        Some(Read {
            id: id.into(),
            codes,
            quals: None,
        })
    }

    /// Read length in bases.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True for a zero-length read.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of k-mers this read contributes: `max(len - k + 1, 0)`.
    pub fn num_kmers(&self, k: usize) -> usize {
        self.len().saturating_sub(k - 1)
    }

    /// The sequence as an ASCII string.
    pub fn to_ascii(&self) -> String {
        self.codes
            .iter()
            .map(|&c| Base::from_code(c).to_ascii() as char)
            .collect()
    }

    /// Quality-trims the read: finds the longest run of bases whose
    /// Phred+33 quality is at least `min_phred` and keeps only it.
    /// Reads without qualities are returned unchanged. Returns `None` if
    /// nothing survives.
    ///
    /// Counting erroneous k-mers wastes exchange volume and table space
    /// (the error mass a Bloom pre-pass would otherwise absorb); trimming
    /// is the standard upstream mitigation.
    pub fn quality_trimmed(&self, min_phred: u8) -> Option<Read> {
        let Some(quals) = &self.quals else {
            return Some(self.clone());
        };
        debug_assert_eq!(quals.len(), self.codes.len());
        let threshold = min_phred.saturating_add(33);
        // Longest run of positions with qual >= threshold.
        let (mut best_start, mut best_len) = (0usize, 0usize);
        let (mut run_start, mut run_len) = (0usize, 0usize);
        for (i, &q) in quals.iter().enumerate() {
            if q >= threshold {
                if run_len == 0 {
                    run_start = i;
                }
                run_len += 1;
                if run_len > best_len {
                    best_start = run_start;
                    best_len = run_len;
                }
            } else {
                run_len = 0;
            }
        }
        if best_len == 0 {
            return None;
        }
        Some(Read {
            id: self.id.clone(),
            codes: self.codes[best_start..best_start + best_len].to_vec(),
            quals: Some(quals[best_start..best_start + best_len].to_vec()),
        })
    }
}

/// An owned collection of reads with convenience statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReadSet {
    /// The reads.
    pub reads: Vec<Read>,
}

impl ReadSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of reads.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// True if there are no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// Total bases across all reads.
    pub fn total_bases(&self) -> usize {
        self.reads.iter().map(Read::len).sum()
    }

    /// Total k-mers across all reads.
    pub fn total_kmers(&self, k: usize) -> usize {
        self.reads.iter().map(|r| r.num_kmers(k)).sum()
    }

    /// Mean read length (0.0 for an empty set).
    pub fn mean_len(&self) -> f64 {
        if self.reads.is_empty() {
            0.0
        } else {
            self.total_bases() as f64 / self.reads.len() as f64
        }
    }

    /// Quality-trims every read (see [`Read::quality_trimmed`]), dropping
    /// reads that end up shorter than `min_len`.
    pub fn quality_trimmed(&self, min_phred: u8, min_len: usize) -> ReadSet {
        ReadSet {
            reads: self
                .reads
                .iter()
                .filter_map(|r| r.quality_trimmed(min_phred))
                .filter(|r| r.len() >= min_len)
                .collect(),
        }
    }

    /// Splits the set into `n` near-equal *by base count* partitions,
    /// preserving read order — modelling the paper's parallel I/O, which
    /// "partitions the input roughly uniformly over P processors" (§IV-D).
    /// Reads are never split across partitions. The partitions are
    /// contiguous runs of the set, borrowed rather than copied.
    pub fn partition_by_bases(&self, n: usize) -> Vec<&[Read]> {
        assert!(n > 0);
        let total = self.total_bases();
        let target = total as f64 / n as f64;
        let mut parts: Vec<&[Read]> = Vec::with_capacity(n);
        let mut start = 0usize; // first read of the open partition
        let mut acc = 0usize; // bases in parts already closed + the open one
        for (i, r) in self.reads.iter().enumerate() {
            // Close the open partition once it has reached its share,
            // but never exceed n partitions.
            let boundary = (parts.len() + 1) as f64 * target;
            if parts.len() + 1 < n && i > start && (acc + r.len()) as f64 > boundary {
                parts.push(&self.reads[start..i]);
                start = i;
            }
            acc += r.len();
        }
        parts.push(&self.reads[start..]);
        while parts.len() < n {
            parts.push(&[]);
        }
        parts
    }
}

impl FromIterator<Read> for ReadSet {
    fn from_iter<I: IntoIterator<Item = Read>>(iter: I) -> Self {
        ReadSet {
            reads: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(id: &str, seq: &[u8]) -> Read {
        Read::from_ascii(id, seq).unwrap()
    }

    #[test]
    fn read_basics() {
        let r = read("r1", b"GATTACA");
        assert_eq!(r.len(), 7);
        assert_eq!(r.num_kmers(3), 5);
        assert_eq!(r.num_kmers(7), 1);
        assert_eq!(r.num_kmers(8), 0);
        assert_eq!(r.to_ascii(), "GATTACA");
    }

    #[test]
    fn rejects_ambiguous() {
        assert!(Read::from_ascii("x", b"ACGN").is_none());
    }

    #[test]
    fn set_statistics() {
        let s: ReadSet = [read("a", b"ACGT"), read("b", b"GGGGGGGG")]
            .into_iter()
            .collect();
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_bases(), 12);
        assert_eq!(s.total_kmers(4), 1 + 5);
        assert!((s.mean_len() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn partition_covers_everything_in_order() {
        let s: ReadSet = (0..20)
            .map(|i| read(&format!("r{i}"), &vec![b'A'; 10 + (i % 7) * 30]))
            .collect();
        for n in [1usize, 2, 3, 5, 8] {
            let parts = s.partition_by_bases(n);
            assert_eq!(parts.len(), n);
            let rejoined: Vec<&Read> = parts.iter().flat_map(|p| p.iter()).collect();
            assert_eq!(rejoined.len(), s.len());
            for (a, b) in rejoined.iter().zip(s.reads.iter()) {
                assert_eq!(**a, *b);
            }
        }
    }

    #[test]
    fn partition_is_roughly_even_by_bases() {
        let s: ReadSet = (0..100)
            .map(|i| read(&format!("r{i}"), &[b'C'; 100]))
            .collect();
        let parts = s.partition_by_bases(4);
        for p in &parts {
            let b: usize = p.iter().map(Read::len).sum();
            assert!((2000..=3000).contains(&b), "partition has {b} bases");
        }
    }

    #[test]
    fn quality_trim_keeps_longest_good_run() {
        // Phred+33: 'I' = Q40, '#' = Q2.
        let r = Read {
            id: "q".into(),
            codes: vec![0, 1, 2, 3, 0, 1, 2, 3],
            quals: Some(b"##IIII##".to_vec()),
        };
        let t = r.quality_trimmed(20).unwrap();
        assert_eq!(t.codes, vec![2, 3, 0, 1]);
        assert_eq!(t.quals.as_deref(), Some(&b"IIII"[..]));
    }

    #[test]
    fn quality_trim_edge_cases() {
        // No qualities: unchanged.
        let r = read("a", b"ACGT");
        assert_eq!(r.quality_trimmed(40).unwrap(), r);
        // All bad: dropped.
        let bad = Read {
            id: "b".into(),
            codes: vec![0; 4],
            quals: Some(b"####".to_vec()),
        };
        assert!(bad.quality_trimmed(20).is_none());
        // All good: identical.
        let good = Read {
            id: "c".into(),
            codes: vec![1; 4],
            quals: Some(b"IIII".to_vec()),
        };
        assert_eq!(good.quality_trimmed(20).unwrap().codes, vec![1; 4]);
    }

    #[test]
    fn set_quality_trim_drops_short_survivors() {
        let mk = |id: &str, quals: &[u8]| Read {
            id: id.into(),
            codes: vec![0; quals.len()],
            quals: Some(quals.to_vec()),
        };
        let s: ReadSet = [
            mk("long", b"IIIIIIII"),  // survives
            mk("short", b"##II####"), // trims to 2 -> dropped at min_len 4
            mk("dead", b"########"),  // nothing survives
        ]
        .into_iter()
        .collect();
        let t = s.quality_trimmed(20, 4);
        assert_eq!(t.len(), 1);
        assert_eq!(t.reads[0].id, "long");
    }

    #[test]
    fn partition_more_ranks_than_reads() {
        let s: ReadSet = [read("a", b"ACGT")].into_iter().collect();
        let parts = s.partition_by_bases(4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.len()).sum::<usize>(), 1);
    }
}
