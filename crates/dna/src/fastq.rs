//! FASTQ and FASTA parsing and writing.
//!
//! The paper's datasets are FASTQ files (Table I sizes are `.fastq` sizes).
//! The parsers here are deliberately strict about record structure but
//! tolerant about content: ambiguous bases (`N` etc.) split a read into
//! clean fragments, mirroring how the counting pipelines must skip k-mers
//! spanning ambiguous positions.

use crate::base::{ASCII_TO_CODE, NOT_A_BASE};
use crate::read::{Read, ReadSet};
use std::io::{self, BufRead, Write};

/// Errors from FASTQ/FASTA parsing.
#[derive(Debug)]
pub enum ParseError {
    /// Underlying IO failure.
    Io(io::Error),
    /// Structural problem with the record at 1-based line `line`.
    Malformed {
        /// 1-based line number of the offending line.
        line: usize,
        /// What went wrong.
        reason: String,
    },
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Io(e) => write!(f, "io error: {e}"),
            ParseError::Malformed { line, reason } => {
                write!(f, "malformed record at line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<io::Error> for ParseError {
    fn from(e: io::Error) -> Self {
        ParseError::Io(e)
    }
}

/// The error `BufRead::lines` gives for a line that is not UTF-8.
fn invalid_utf8() -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    )
}

/// `line` as text, or [`invalid_utf8`].
fn utf8(line: &[u8]) -> io::Result<&str> {
    std::str::from_utf8(line).map_err(|_| invalid_utf8())
}

/// Reads the next line as `BufRead::lines` yields it: without its `\n`
/// or `\r\n` ending, and an error if it is not UTF-8. Counts the line in
/// `lineno`; `None` at end of input.
///
/// Each line gets its own exactly sized buffer, as under `lines()`.
/// Reusing one buffer across lines is no faster (glibc's thread cache
/// serves these sizes), but it leaves the parsed heap without the holes
/// that freed lines leave, and the `--mode supermer` count of a 28 MB
/// simulated H. sapiens input (`simulate hsapiens --scale x0.25`) then
/// peaked at 7% more resident memory.
fn next_line<R: BufRead>(reader: &mut R, lineno: &mut usize) -> io::Result<Option<Vec<u8>>> {
    let mut line = Vec::new();
    if reader.read_until(b'\n', &mut line)? == 0 {
        return Ok(None);
    }
    *lineno += 1;
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    }
    if !line.is_ascii() {
        utf8(&line)?;
    }
    Ok(Some(line))
}

/// Parses FASTQ from a buffered reader. Reads containing ambiguous bases
/// are split into clean fragments of at least `min_fragment` bases, each
/// fragment becoming its own read named `<id>/<fragment-index>` with the
/// qualities of its positions; clean reads keep their name and qualities.
///
/// Sequence bytes are decoded through [`ASCII_TO_CODE`]; line endings,
/// blank-line handling, UTF-8 errors and error line numbers are those of
/// `BufRead::lines`.
pub fn parse_fastq<R: BufRead>(mut reader: R, min_fragment: usize) -> Result<ReadSet, ParseError> {
    let mut out = ReadSet::new();
    let mut lineno = 0;
    while let Some(header) = next_line(&mut reader, &mut lineno)? {
        if header.is_empty() {
            continue; // tolerate trailing blank lines
        }
        let header_line = lineno;
        let missing = |what: &str| ParseError::Malformed {
            line: header_line,
            reason: format!("missing {what}"),
        };
        let header = utf8(&header)?;
        let Some(name) = header.strip_prefix('@') else {
            return Err(ParseError::Malformed {
                line: header_line,
                reason: format!("expected '@' header, got {header:?}"),
            });
        };
        let id = name.split_whitespace().next().unwrap_or("").to_string();
        let seq = next_line(&mut reader, &mut lineno)?.ok_or_else(|| missing("sequence line"))?;
        let codes: Vec<u8> = seq.iter().map(|&c| ASCII_TO_CODE[c as usize]).collect();
        let plus = next_line(&mut reader, &mut lineno)?.ok_or_else(|| missing("'+' line"))?;
        if !plus.starts_with(b"+") {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: format!("expected '+' separator, got {:?}", utf8(&plus)?),
            });
        }
        let qual = next_line(&mut reader, &mut lineno)?.ok_or_else(|| missing("quality line"))?;
        if qual.len() != codes.len() {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: format!(
                    "quality length {} != sequence length {}",
                    qual.len(),
                    codes.len()
                ),
            });
        }
        push_sequence(&mut out, id, codes, Some(&qual), min_fragment);
    }
    Ok(out)
}

/// Parses FASTA from a buffered reader, splitting on ambiguous bases like
/// [`parse_fastq`]. Multi-line sequences are supported.
pub fn parse_fasta<R: BufRead>(mut reader: R, min_fragment: usize) -> Result<ReadSet, ParseError> {
    let mut out = ReadSet::new();
    let mut lineno = 0;
    let mut id: Option<String> = None;
    let mut codes: Vec<u8> = Vec::new();
    while let Some(text) = next_line(&mut reader, &mut lineno)? {
        if text.is_empty() {
            continue;
        }
        if let Some(rest) = text.strip_prefix(b">") {
            if let Some(prev) = id.take() {
                // An exactly sized copy; the accumulator keeps its capacity.
                push_sequence(&mut out, prev, codes.to_vec(), None, min_fragment);
                codes.clear();
            }
            id = Some(
                utf8(rest)?
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string(),
            );
        } else if id.is_none() {
            return Err(ParseError::Malformed {
                line: lineno,
                reason: "sequence data before any '>' header".into(),
            });
        } else {
            codes.extend(text.iter().map(|&c| ASCII_TO_CODE[c as usize]));
        }
    }
    if let Some(prev) = id.take() {
        push_sequence(&mut out, prev, codes, None, min_fragment);
    }
    Ok(out)
}

/// Appends a sequence, given as its [`ASCII_TO_CODE`] codes, to `out`,
/// splitting it at ambiguous bases. A clean sequence becomes one read
/// named `id`; otherwise every maximal clean run of at least
/// `min_fragment` bases becomes read `<id>/<index>`. Each read carries the
/// slice of `qual` at its own positions.
fn push_sequence(
    out: &mut ReadSet,
    id: String,
    codes: Vec<u8>,
    qual: Option<&[u8]>,
    min_fragment: usize,
) {
    if !codes.contains(&NOT_A_BASE) {
        if codes.len() >= min_fragment {
            out.reads.push(Read {
                id,
                codes,
                quals: qual.map(<[u8]>::to_vec),
            });
        }
        return;
    }
    let mut start = 0;
    let mut index = 0;
    for run in codes.split(|&c| c == NOT_A_BASE) {
        if run.len() >= min_fragment {
            out.reads.push(Read {
                id: format!("{id}/{index}"),
                codes: run.to_vec(),
                quals: qual.map(|q| q[start..start + run.len()].to_vec()),
            });
            index += 1;
        }
        start += run.len() + 1;
    }
}

/// Writes a read set as FASTQ. Reads without qualities get a constant
/// placeholder quality (`I`, Phred 40).
pub fn write_fastq<W: Write>(w: &mut W, reads: &ReadSet) -> io::Result<()> {
    for r in &reads.reads {
        writeln!(w, "@{}", r.id)?;
        writeln!(w, "{}", r.to_ascii())?;
        writeln!(w, "+")?;
        match &r.quals {
            Some(q) => w.write_all(q)?,
            None => w.write_all(&vec![b'I'; r.len()])?,
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Writes a read set as FASTA with 80-column wrapping.
pub fn write_fasta<W: Write>(w: &mut W, reads: &ReadSet) -> io::Result<()> {
    for r in &reads.reads {
        writeln!(w, ">{}", r.id)?;
        let ascii = r.to_ascii();
        for chunk in ascii.as_bytes().chunks(80) {
            w.write_all(chunk)?;
            writeln!(w)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::BufReader;

    fn fastq(text: &str) -> ReadSet {
        parse_fastq(BufReader::new(text.as_bytes()), 1).unwrap()
    }

    #[test]
    fn parses_simple_fastq() {
        let rs = fastq("@r1 extra stuff\nACGT\n+\nIIII\n@r2\nGG\n+anything\nII\n");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads[0].id, "r1");
        assert_eq!(rs.reads[0].to_ascii(), "ACGT");
        assert_eq!(rs.reads[0].quals.as_deref(), Some(&b"IIII"[..]));
        assert_eq!(rs.reads[1].to_ascii(), "GG");
    }

    #[test]
    fn splits_on_ambiguous_bases() {
        let rs = fastq("@r1\nACGTNNGGTT\n+\nIIIIIIIIII\n");
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads[0].id, "r1/0");
        assert_eq!(rs.reads[0].to_ascii(), "ACGT");
        assert_eq!(rs.reads[1].to_ascii(), "GGTT");
    }

    #[test]
    fn fragments_keep_the_qualities_of_their_positions() {
        let rs = fastq("@r1\nACGTNNGGTTnA\n+\n0123456789ab\n");
        let quals: Vec<_> = rs.reads.iter().map(|r| r.quals.as_deref()).collect();
        assert_eq!(
            quals,
            [Some(&b"0123"[..]), Some(&b"6789"[..]), Some(&b"b"[..])]
        );
        // FASTA has no qualities to slice.
        let rs = parse_fasta(BufReader::new(&b">c\nACNGT\n"[..]), 1).unwrap();
        assert!(rs.reads.iter().all(|r| r.quals.is_none()));
    }

    #[test]
    fn quality_trim_reaches_fragments_of_reads_with_n() {
        // All Q2: the clean read and both fragments of the read with an N
        // trim to nothing at Q20.
        let clean = "ACGTACGTACGTACGTAC";
        let text = format!(
            "@clean\n{clean}\n+\n{q}\n@withN\n{clean}N{clean}\n+\n{q}#{q}\n",
            q = "#".repeat(clean.len())
        );
        let rs = parse_fastq(BufReader::new(text.as_bytes()), 17).unwrap();
        assert_eq!(rs.len(), 3);
        assert!(rs.quality_trimmed(20, 17).is_empty());
    }

    #[test]
    fn min_fragment_drops_short_pieces() {
        let rs = parse_fastq(BufReader::new(&b"@r\nACNGGGG\n+\nIIIIIII\n"[..]), 3).unwrap();
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.reads[0].to_ascii(), "GGGG");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_fastq(BufReader::new(&b"ACGT\n"[..]), 1).is_err()); // no @
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\nIIII\nIIII\n"[..]), 1).is_err()); // no +
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\n+\nII\n"[..]), 1).is_err()); // qual len
        assert!(parse_fastq(BufReader::new(&b"@r\nACGT\n"[..]), 1).is_err()); // truncated
    }

    #[test]
    fn fastq_roundtrip() {
        let rs = fastq("@a\nGATTACA\n+\nIIIIIII\n@b\nCCGG\n+\nJJJJ\n");
        let mut buf = Vec::new();
        write_fastq(&mut buf, &rs).unwrap();
        let rs2 = parse_fastq(BufReader::new(&buf[..]), 1).unwrap();
        assert_eq!(rs, rs2);
    }

    #[test]
    fn parses_multiline_fasta() {
        let txt = ">chr1 description\nACGTACGT\nGGGG\n>chr2\nTTTT\n";
        let rs = parse_fasta(BufReader::new(txt.as_bytes()), 1).unwrap();
        assert_eq!(rs.len(), 2);
        assert_eq!(rs.reads[0].id, "chr1");
        assert_eq!(rs.reads[0].to_ascii(), "ACGTACGTGGGG");
        assert_eq!(rs.reads[1].to_ascii(), "TTTT");
    }

    #[test]
    fn fasta_rejects_headerless_data() {
        assert!(parse_fasta(BufReader::new(&b"ACGT\n"[..]), 1).is_err());
    }

    #[test]
    fn fasta_write_wraps_lines() {
        let rs: ReadSet = [Read::from_ascii("long", &[b'A'; 200]).unwrap()]
            .into_iter()
            .collect();
        let mut buf = Vec::new();
        write_fasta(&mut buf, &rs).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let max_line = text.lines().map(str::len).max().unwrap();
        assert!(max_line <= 80);
        let rs2 = parse_fasta(BufReader::new(text.as_bytes()), 1).unwrap();
        assert_eq!(rs2.reads[0].to_ascii(), "A".repeat(200));
    }

    /// The `BufRead::lines` parsers the byte loops replaced, kept as the
    /// oracle they must agree with.
    mod lines_oracle {
        use crate::base::{ascii_to_fragments, Base};
        use crate::fastq::ParseError;
        use crate::read::{Read, ReadSet};
        use std::io::BufRead;

        /// Parses FASTQ from a buffered reader. Reads containing ambiguous bases
        /// are split into clean fragments of at least `min_fragment` bases, each
        /// fragment becoming its own read named `<id>/<fragment-index>`; clean
        /// reads keep their name and qualities.
        pub fn parse_fastq<R: BufRead>(
            reader: R,
            min_fragment: usize,
        ) -> Result<ReadSet, ParseError> {
            let mut out = ReadSet::new();
            let mut lines = reader.lines().enumerate();
            while let Some((i, header)) = lines.next() {
                let header = header?;
                if header.is_empty() {
                    continue; // tolerate trailing blank lines
                }
                let lineno = i + 1;
                if !header.starts_with('@') {
                    return Err(ParseError::Malformed {
                        line: lineno,
                        reason: format!("expected '@' header, got {header:?}"),
                    });
                }
                let id = header[1..]
                    .split_whitespace()
                    .next()
                    .unwrap_or("")
                    .to_string();
                let (_, seq) = lines.next().ok_or(ParseError::Malformed {
                    line: lineno,
                    reason: "missing sequence line".into(),
                })?;
                let seq = seq?;
                let (pi, plus) = lines.next().ok_or(ParseError::Malformed {
                    line: lineno,
                    reason: "missing '+' line".into(),
                })?;
                let plus = plus?;
                if !plus.starts_with('+') {
                    return Err(ParseError::Malformed {
                        line: pi + 1,
                        reason: format!("expected '+' separator, got {plus:?}"),
                    });
                }
                let (qi, qual) = lines.next().ok_or(ParseError::Malformed {
                    line: lineno,
                    reason: "missing quality line".into(),
                })?;
                let qual = qual?;
                if qual.len() != seq.len() {
                    return Err(ParseError::Malformed {
                        line: qi + 1,
                        reason: format!(
                            "quality length {} != sequence length {}",
                            qual.len(),
                            seq.len()
                        ),
                    });
                }
                push_sequence(
                    &mut out,
                    &id,
                    seq.as_bytes(),
                    Some(qual.as_bytes()),
                    min_fragment,
                );
            }
            Ok(out)
        }

        /// Parses FASTA from a buffered reader, splitting on ambiguous bases like
        /// [`parse_fastq`]. Multi-line sequences are supported.
        pub fn parse_fasta<R: BufRead>(
            reader: R,
            min_fragment: usize,
        ) -> Result<ReadSet, ParseError> {
            let mut out = ReadSet::new();
            let mut id: Option<String> = None;
            let mut seq: Vec<u8> = Vec::new();
            let mut first_content_line = true;
            for (i, line) in reader.lines().enumerate() {
                let line = line?;
                if line.is_empty() {
                    continue;
                }
                if let Some(rest) = line.strip_prefix('>') {
                    if let Some(prev) = id.take() {
                        push_sequence(&mut out, &prev, &seq, None, min_fragment);
                        seq.clear();
                    }
                    id = Some(rest.split_whitespace().next().unwrap_or("").to_string());
                    first_content_line = false;
                } else {
                    if first_content_line {
                        return Err(ParseError::Malformed {
                            line: i + 1,
                            reason: "sequence data before any '>' header".into(),
                        });
                    }
                    seq.extend_from_slice(line.as_bytes());
                }
            }
            if let Some(prev) = id.take() {
                push_sequence(&mut out, &prev, &seq, None, min_fragment);
            }
            Ok(out)
        }

        /// Appends `seq` to `out`, splitting at ambiguous bases. A clean sequence
        /// keeps its quality string; fragments drop qualities (their alignment to
        /// the fragment is gone anyway once positions shift).
        fn push_sequence(
            out: &mut ReadSet,
            id: &str,
            seq: &[u8],
            qual: Option<&[u8]>,
            min_fragment: usize,
        ) {
            let is_clean = seq.iter().all(|&c| Base::from_ascii(c).is_some());
            if is_clean {
                if seq.len() >= min_fragment {
                    let codes = seq
                        .iter()
                        .map(|&c| Base::from_ascii(c).expect("checked clean").code())
                        .collect();
                    out.reads.push(Read {
                        id: id.to_string(),
                        codes,
                        quals: qual.map(|q| q.to_vec()),
                    });
                }
                return;
            }
            for (fi, frag) in ascii_to_fragments(seq, min_fragment)
                .into_iter()
                .enumerate()
            {
                out.reads.push(Read {
                    id: format!("{id}/{fi}"),
                    codes: frag,
                    quals: None,
                });
            }
        }
    }

    /// A generated input: `units` are `(kind, bases, crlf)` triples, each a
    /// record or one of the malformations below, written line by line.
    fn fastq_input(units: &[(u8, Vec<u8>, bool)], last_newline: bool) -> Vec<u8> {
        let mut lines: Vec<Vec<u8>> = Vec::new();
        let mut endings = Vec::new();
        for (i, (kind, bases, crlf)) in units.iter().enumerate() {
            let seq: Vec<u8> = bases.iter().map(|&b| b"ACGTacgtNNn"[b as usize]).collect();
            let qual: Vec<u8> = (0..seq.len()).map(|p| b'!' + (p * 7 % 60) as u8).collect();
            let before = lines.len();
            let header = match kind {
                5 => format!("@r{i}\u{a0}tail").into_bytes(),
                6 => b"@ lead".to_vec(),
                7 => format!("@r{i}\u{e9} x").into_bytes(),
                13 => format!("r{i}").into_bytes(),
                _ => format!("@r{i} desc").into_bytes(),
            };
            let plus = if *kind == 3 {
                format!("+r{i}").into_bytes()
            } else {
                b"+".to_vec()
            };
            match kind {
                8 => lines.push(Vec::new()),
                9 => lines.extend([header, seq, qual]),
                10 => lines.extend([header, seq, plus, [&qual[..], b"I"].concat()]),
                11 => lines.extend([header, seq]),
                12 => lines.extend([header, [&seq[..], b"\xff"].concat(), plus, qual]),
                14 => lines.extend([header, [&seq[..], b"\r"].concat(), plus, qual]),
                15 => lines.push(b">fasta".to_vec()),
                _ => lines.extend([header, seq, plus, qual]),
            }
            endings.resize(lines.len() - before + endings.len(), *crlf);
        }
        let mut out = Vec::new();
        for (i, (line, crlf)) in lines.iter().zip(&endings).enumerate() {
            out.extend_from_slice(line);
            if i + 1 < lines.len() || last_newline {
                out.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
        }
        out
    }

    /// A generated FASTA input, like [`fastq_input`].
    fn fasta_input(units: &[(u8, Vec<u8>, bool)], last_newline: bool) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, (kind, bases, crlf)) in units.iter().enumerate() {
            let seq: Vec<u8> = bases.iter().map(|&b| b"ACGTacgtNNn"[b as usize]).collect();
            let mut lines: Vec<Vec<u8>> = match kind {
                6 => vec![Vec::new()],
                7 => vec![seq.clone()],
                8 => vec![b">bad\xff".to_vec()],
                9 => vec![format!(">c{i}\u{2003}x").into_bytes()],
                _ => vec![format!(">c{i} desc").into_bytes()],
            };
            if *kind != 7 {
                lines.extend(seq.chunks(7).map(<[u8]>::to_vec));
            }
            for line in lines {
                out.extend_from_slice(&line);
                out.extend_from_slice(if *crlf { b"\r\n" } else { b"\n" });
            }
        }
        if !last_newline && out.last() == Some(&b'\n') {
            out.pop();
        }
        out
    }

    /// Compares a parse against the oracle's: equal reads, or equal error
    /// text. The oracle drops fragment qualities; the byte loop keeps a
    /// slice of them, so those are checked for length and then ignored.
    fn agree(
        got: Result<ReadSet, ParseError>,
        want: Result<ReadSet, ParseError>,
    ) -> Result<(), String> {
        match (got, want) {
            (Ok(mut got), Ok(want)) => {
                if got.len() != want.len() {
                    return Err(format!("{} reads, oracle {}", got.len(), want.len()));
                }
                for (g, w) in got.reads.iter_mut().zip(&want.reads) {
                    if w.quals.is_none() {
                        if let Some(q) = g.quals.take() {
                            if q.len() != g.codes.len() {
                                return Err(format!("{}: quality slice length", g.id));
                            }
                        }
                    }
                }
                if got == want {
                    Ok(())
                } else {
                    Err(format!("{got:?} != oracle {want:?}"))
                }
            }
            (Err(got), Err(want)) if got.to_string() == want.to_string() => Ok(()),
            (got, want) => Err(format!("{got:?} != oracle {want:?}")),
        }
    }

    fn units() -> impl Strategy<Value = Vec<(u8, Vec<u8>, bool)>> {
        prop::collection::vec(
            (
                0u8..16,
                prop::collection::vec(0u8..11, 0..30),
                any::<bool>(),
            ),
            0..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The byte-loop FASTQ reader agrees with the `lines()` parser on
        /// records, CRLF, blank lines, a missing last newline, lowercase,
        /// `N` runs, short fragments, and every malformation, whatever
        /// the read buffer's size.
        #[test]
        fn fastq_reader_matches_the_lines_oracle(
            units in units(),
            last_newline in any::<bool>(),
            min_fragment in 0usize..6,
            capacity in 1usize..24,
        ) {
            let input = fastq_input(&units, last_newline);
            let got = parse_fastq(BufReader::with_capacity(capacity, &input[..]), min_fragment);
            let want = lines_oracle::parse_fastq(&input[..], min_fragment);
            prop_assert_eq!(agree(got, want), Ok(()), "input {:?}", String::from_utf8_lossy(&input));
        }

        /// Likewise for FASTA, where nothing differs.
        #[test]
        fn fasta_reader_matches_the_lines_oracle(
            units in prop::collection::vec(
                (0u8..10, prop::collection::vec(0u8..11, 0..30), any::<bool>()),
                0..10,
            ),
            last_newline in any::<bool>(),
            min_fragment in 0usize..6,
            capacity in 1usize..24,
        ) {
            let input = fasta_input(&units, last_newline);
            let got = parse_fasta(BufReader::with_capacity(capacity, &input[..]), min_fragment);
            let want = lines_oracle::parse_fasta(&input[..], min_fragment);
            prop_assert_eq!(agree(got, want), Ok(()), "input {:?}", String::from_utf8_lossy(&input));
        }
    }
}
