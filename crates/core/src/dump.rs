//! Exporting count results.
//!
//! The paper's tool is "a general purpose k-mer counter" (§VII); in
//! practice that means producing artifacts downstream tools ingest:
//! per-k-mer count dumps (KMC's `transform dump` format: `SEQUENCE\tCOUNT`),
//! spectra, and heavy-hitter lists. This module implements those over the
//! pipelines' per-rank tables.

use dedukt_dna::base::Base;
use dedukt_dna::kmer::KmerWord;
use dedukt_dna::spectrum::Spectrum;
use dedukt_dna::Encoding;
use std::io::{self, BufRead, Write};

/// Merges per-rank `(kmer, count)` tables (disjoint key spaces) into one
/// sorted list, at either key width. The stable sort merges the runs of
/// already key-sorted rank tables instead of sorting from scratch.
pub fn merge_tables<K: Ord + Copy>(per_rank: &[Vec<(K, u32)>]) -> Vec<(K, u32)> {
    let total: usize = per_rank.iter().map(Vec::len).sum();
    let mut all = Vec::with_capacity(total);
    for t in per_rank {
        all.extend_from_slice(t);
    }
    all.sort_by_key(|&(k, _)| k);
    all
}

/// Renders a packed k-mer word (either width) as an ASCII sequence.
pub fn kmer_ascii<K: KmerWord>(kmer: K, k: usize, encoding: Encoding) -> String {
    kmer.word_codes(k, encoding)
        .into_iter()
        .map(|c| Base::from_code(c).to_ascii() as char)
        .collect()
}

/// Writes a KMC-style dump: one `SEQUENCE\tCOUNT` line per distinct
/// k-mer, sorted by packed word. Width-generic: k up to `K::MAX_K`.
pub fn write_dump<W: Write, K: KmerWord>(
    w: &mut W,
    entries: &[(K, u32)],
    k: usize,
    encoding: Encoding,
) -> io::Result<()> {
    for &(kmer, count) in entries {
        writeln!(w, "{}\t{}", kmer_ascii(kmer, k, encoding), count)?;
    }
    Ok(())
}

/// Parses a KMC-style dump back into `(kmer, count)` pairs (narrow,
/// k ≤ 32).
pub fn read_dump<R: BufRead>(r: R, encoding: Encoding) -> io::Result<Vec<(u64, u32)>> {
    read_dump_w::<R, u64>(r, encoding)
}

/// Width-generic dump parser: sequences up to `K::MAX_K` bases.
pub fn read_dump_w<R: BufRead, K: KmerWord>(r: R, encoding: Encoding) -> io::Result<Vec<(K, u32)>> {
    let mut out = Vec::new();
    for (lineno, line) in r.lines().enumerate() {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let bad = || {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("malformed dump line {}", lineno + 1),
            )
        };
        let (seq, count) = line.split_once('\t').ok_or_else(bad)?;
        if seq.is_empty() || seq.len() > K::MAX_K {
            return Err(bad());
        }
        let codes = seq
            .bytes()
            .map(|b| Base::from_ascii(b).map(|base| base.code()))
            .collect::<Option<Vec<u8>>>()
            .ok_or_else(bad)?;
        let count: u32 = count.parse().map_err(|_| bad())?;
        out.push((K::pack_codes(&codes, encoding), count));
    }
    Ok(out)
}

/// The `n` most frequent k-mers, descending by count (ties by word).
pub fn heavy_hitters<K: Ord + Copy>(entries: &[(K, u32)], n: usize) -> Vec<(K, u32)> {
    let mut v = entries.to_vec();
    v.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    v.truncate(n);
    v
}

/// Builds the spectrum of a merged table.
pub fn spectrum_of<K>(entries: &[(K, u32)]) -> Spectrum {
    Spectrum::from_counts(entries.iter().map(|&(_, c)| c))
}

/// Writes a spectrum as `MULTIPLICITY\tDISTINCT` lines.
pub fn write_spectrum<W: Write>(w: &mut W, spectrum: &Spectrum) -> io::Result<()> {
    for (mult, distinct) in spectrum.iter() {
        writeln!(w, "{mult}\t{distinct}")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn sample() -> Vec<(u64, u32)> {
        vec![(3, 5), (0, 1), (9, 2)]
    }

    #[test]
    fn merge_sorts_and_concatenates() {
        let merged = merge_tables(&[vec![(9, 2), (0, 1)], vec![(3, 5)]]);
        assert_eq!(merged, vec![(0, 1), (3, 5), (9, 2)]);
    }

    #[test]
    fn dump_roundtrip() {
        let entries = {
            let mut e = sample();
            e.sort_unstable_by_key(|&(k, _)| k);
            e
        };
        let k = 4;
        let enc = Encoding::PaperRandom;
        let mut buf = Vec::new();
        write_dump(&mut buf, &entries, k, enc).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.contains('\t')));
        let back = read_dump(BufReader::new(&buf[..]), enc).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn read_dump_rejects_garbage() {
        let enc = Encoding::Alphabetical;
        assert!(read_dump(BufReader::new(&b"ACGT notanumber\n"[..]), enc).is_err());
        assert!(read_dump(BufReader::new(&b"ACGN\t3\n"[..]), enc).is_err());
        assert!(read_dump(BufReader::new(&b"no-tab-here\n"[..]), enc).is_err());
    }

    #[test]
    fn heavy_hitters_order_and_truncate() {
        let hh = heavy_hitters(&sample(), 2);
        assert_eq!(hh, vec![(3, 5), (9, 2)]);
        let all = heavy_hitters(&sample(), 10);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn heavy_hitters_tie_break_deterministic() {
        let hh = heavy_hitters(&[(7, 2), (1, 2), (4, 2)], 3);
        assert_eq!(hh, vec![(1, 2), (4, 2), (7, 2)]);
    }

    #[test]
    fn spectrum_export() {
        let s = spectrum_of(&sample());
        let mut buf = Vec::new();
        write_spectrum(&mut buf, &s).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "1\t1\n2\t1\n5\t1\n");
    }
}
