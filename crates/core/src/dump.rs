//! Exporting count results.
//!
//! The paper's tool is "a general purpose k-mer counter" (§VII); in
//! practice that means producing artifacts downstream tools ingest:
//! per-k-mer count dumps (KMC's `transform dump` format: `SEQUENCE\tCOUNT`),
//! spectra, and heavy-hitter lists. This module implements those over the
//! pipelines' per-rank tables.

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

/// Appends the decimal digits of `n` to `out`.
fn push_decimal(out: &mut Vec<u8>, mut n: u32) {
    let mut digits = [0u8; 10];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[start..]);
}

/// Writes a KMC-style dump: one `SEQUENCE\tCOUNT` line per distinct
/// k-mer, sorted by packed word. Width-generic: k up to `K::MAX_K`. Each
/// line is built in one reused buffer.
pub fn write_dump<W: Write, K: KmerWord>(
    w: &mut W,
    entries: &[(K, u32)],
    k: usize,
    encoding: Encoding,
) -> io::Result<()> {
    let mut line = Vec::with_capacity(k + 12);
    for &(kmer, count) in entries {
        line.clear();
        kmer.push_ascii(k, encoding, &mut line);
        line.push(b'\t');
        push_decimal(&mut line, count);
        line.push(b'\n');
        w.write_all(&line)?;
    }
    Ok(())
}

/// Parses a KMC-style dump back into `(kmer, count)` pairs, sequences up
/// to `K::MAX_K` bases. Every line must hold a k-mer of the same length.
pub fn read_dump<R: BufRead, K: KmerWord>(r: R, encoding: Encoding) -> io::Result<Vec<(K, u32)>> {
    let mut out = Vec::new();
    let mut k = None;
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
        if *k.get_or_insert(seq.len()) != seq.len() {
            return Err(bad());
        }
        let kmer = K::pack_ascii(seq.as_bytes(), encoding).ok_or_else(bad)?;
        let count: u32 = count.parse().map_err(|_| bad())?;
        out.push((kmer, count));
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
    use dedukt_dna::base::Base;
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
        let back: Vec<(u64, u32)> = read_dump(BufReader::new(&buf[..]), enc).unwrap();
        assert_eq!(back, entries);
    }

    /// The `writeln!` formulation the line buffer replaced.
    fn kmer_ascii_old<K: KmerWord>(kmer: K, k: usize, encoding: Encoding) -> String {
        kmer.word_codes(k, encoding)
            .into_iter()
            .map(|c| Base::from_code(c).to_ascii() as char)
            .collect()
    }

    fn dump_old<K: KmerWord>(entries: &[(K, u32)], k: usize, encoding: Encoding) -> Vec<u8> {
        let mut out = Vec::new();
        for &(kmer, count) in entries {
            writeln!(out, "{}\t{}", kmer_ascii_old(kmer, k, encoding), count).unwrap();
        }
        out
    }

    /// Words with every symbol, both ends set, and the all-zero and
    /// all-one patterns, masked to `k` bases.
    fn words(k: usize) -> Vec<u128> {
        let mask = u128::kmer_mask(k);
        [
            0,
            u128::MAX,
            0x1b1b_1b1b_1b1b_1b1b_1b1b_1b1b_1b1b_1b1b,
            1,
            1 << (2 * k - 1),
            0x0123_4567_89ab_cdef_fedc_ba98_7654_3210,
        ]
        .map(|w| w & mask)
        .to_vec()
    }

    #[test]
    fn dump_bytes_equal_the_writeln_formulation() {
        let counts = [1, 9, 10, u32::MAX];
        for encoding in [Encoding::Alphabetical, Encoding::PaperRandom] {
            for k in [1, 17, 31] {
                let entries: Vec<(u64, u32)> = words(k)
                    .iter()
                    .flat_map(|&w| counts.map(|c| (w as u64, c)))
                    .collect();
                let mut got = Vec::new();
                write_dump(&mut got, &entries, k, encoding).unwrap();
                assert_eq!(
                    got,
                    dump_old(&entries, k, encoding),
                    "u64 k={k} {encoding:?}"
                );
                for &(w, _) in &entries {
                    assert_eq!(w.to_ascii(k, encoding), kmer_ascii_old(w, k, encoding));
                }
            }
            for k in [32, 41, 63] {
                let entries: Vec<(u128, u32)> = words(k)
                    .iter()
                    .flat_map(|&w| counts.map(|c| (w, c)))
                    .collect();
                let mut got = Vec::new();
                write_dump(&mut got, &entries, k, encoding).unwrap();
                assert_eq!(
                    got,
                    dump_old(&entries, k, encoding),
                    "u128 k={k} {encoding:?}"
                );
                for &(w, _) in &entries {
                    assert_eq!(w.to_ascii(k, encoding), kmer_ascii_old(w, k, encoding));
                }
            }
        }
    }

    #[test]
    fn read_dump_rejects_garbage() {
        let enc = Encoding::Alphabetical;
        let parse = |text: &[u8]| read_dump::<_, u64>(BufReader::new(text), enc);
        assert!(parse(b"ACGT notanumber\n").is_err());
        assert!(parse(b"ACGN\t3\n").is_err());
        assert!(parse(b"no-tab-here\n").is_err());
        // One dump holds one k.
        assert!(parse(b"ACGT\t3\nACG\t1\n").is_err());
        // Longer than the word holds: rejected narrow, read wide.
        let wide = format!("{}\t2\n", "ACGT".repeat(10));
        assert!(parse(wide.as_bytes()).is_err());
        let back: Vec<(u128, u32)> = read_dump(BufReader::new(wide.as_bytes()), enc).unwrap();
        assert_eq!(back[0].0.to_ascii(40, enc), "ACGT".repeat(10));
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
