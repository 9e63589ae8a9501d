//! Nucleotide bases and 2-bit encodings.
//!
//! A base is stored internally as a *code* in `0..4` using the conventional
//! alphabetical assignment A=0, C=1, G=2, T=3. An [`Encoding`] maps codes to
//! the 2-bit symbols that get packed into k-mer words. The paper's key trick
//! (§IV-A) is that choosing a *non*-alphabetical encoding — A=1, C=0, T=2,
//! G=3, as previously explored by Squeakr — makes the numeric (and hence
//! "lexicographic over encoded symbols") minimizer ordering behave like a
//! custom ordering, spreading minimizers more evenly across partitions
//! without extra computation.

use std::fmt;

/// The [`ASCII_TO_CODE`] entry of every byte that is not `ACGTacgt`.
pub const NOT_A_BASE: u8 = 4;

/// ASCII byte → base code (A=0, C=1, G=2, T=3, either case); every other
/// byte, `N` included, maps to [`NOT_A_BASE`]. The one table every parser
/// decodes sequence bytes through.
pub static ASCII_TO_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut code = 0;
    while code < 4 {
        let upper = b"ACGT"[code];
        table[upper as usize] = code as u8;
        table[upper.to_ascii_lowercase() as usize] = code as u8;
        code += 1;
    }
    table
};

/// A single nucleotide. The discriminant is the internal *code*
/// (alphabetical: A=0, C=1, G=2, T=3).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Base {
    /// Adenine.
    A = 0,
    /// Cytosine.
    C = 1,
    /// Guanine.
    G = 2,
    /// Thymine.
    T = 3,
}

impl Base {
    /// All four bases in code order.
    pub const ALL: [Base; 4] = [Base::A, Base::C, Base::G, Base::T];

    /// Builds a base from an internal code. Panics in debug builds if
    /// `code >= 4`.
    #[inline]
    pub fn from_code(code: u8) -> Base {
        debug_assert!(code < 4, "base code out of range: {code}");
        // SAFETY-free dispatch: match keeps this fully safe and the
        // optimizer reduces it to a no-op.
        match code & 3 {
            0 => Base::A,
            1 => Base::C,
            2 => Base::G,
            _ => Base::T,
        }
    }

    /// The internal code (A=0, C=1, G=2, T=3).
    #[inline]
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Parses an ASCII nucleotide (case-insensitive). Returns `None` for
    /// anything that is not `ACGTacgt` — including `N`, which callers must
    /// handle as a read break (the pipelines treat ambiguous bases as
    /// separators, like the paper's "special bases" marking read ends).
    #[inline]
    pub fn from_ascii(ch: u8) -> Option<Base> {
        match ASCII_TO_CODE[ch as usize] {
            NOT_A_BASE => None,
            code => Some(Base::from_code(code)),
        }
    }

    /// The uppercase ASCII letter.
    #[inline]
    pub fn to_ascii(self) -> u8 {
        b"ACGT"[self as usize]
    }

    /// Watson-Crick complement (A↔T, C↔G).
    #[inline]
    pub fn complement(self) -> Base {
        // Codes are alphabetical, so complement is 3 - code.
        Base::from_code(3 - self.code())
    }
}

impl fmt::Display for Base {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_ascii() as char)
    }
}

/// A 2-bit encoding: the map from base codes to packed 2-bit symbols.
///
/// The encoding determines the numeric value of packed k-mer words and
/// therefore the induced minimizer ordering (packed words are compared
/// numerically, which equals lexicographic comparison over encoded symbols
/// because bases are packed most-significant-first).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Encoding {
    /// Alphabetical: A=0, C=1, G=2, T=3. Induces the classic lexicographic
    /// minimizer ordering of Roberts et al., which is known to produce
    /// skewed partitions (poly-A minimizers dominate).
    Alphabetical,
    /// The paper's randomized encoding (§IV-A): A=1, C=0, T=2, G=3.
    /// Behaves like a cheap custom minimizer ordering and spreads
    /// partitions much more evenly.
    PaperRandom,
}

impl Encoding {
    /// Encodes a base code (0..4) into its 2-bit symbol.
    #[inline]
    pub fn encode(self, code: u8) -> u8 {
        debug_assert!(code < 4);
        match self {
            Encoding::Alphabetical => code,
            // A(0)→1, C(1)→0, G(2)→3, T(3)→2
            Encoding::PaperRandom => [1u8, 0, 3, 2][code as usize],
        }
    }

    /// Decodes a 2-bit symbol back to a base code.
    #[inline]
    pub fn decode(self, sym: u8) -> u8 {
        debug_assert!(sym < 4);
        match self {
            Encoding::Alphabetical => sym,
            // Inverse of [1,0,3,2]: 0→C(1), 1→A(0), 2→T(3), 3→G(2)
            Encoding::PaperRandom => [1u8, 0, 3, 2][sym as usize],
        }
    }

    /// Encodes a [`Base`].
    #[inline]
    pub fn encode_base(self, base: Base) -> u8 {
        self.encode(base.code())
    }

    /// Decodes a 2-bit symbol to a [`Base`].
    #[inline]
    pub fn decode_base(self, sym: u8) -> Base {
        Base::from_code(self.decode(sym))
    }

    /// 2-bit symbol → uppercase ASCII letter under this encoding.
    #[inline]
    pub fn ascii_table(self) -> &'static [u8; 4] {
        match self {
            Encoding::Alphabetical => b"ACGT",
            // Symbols 0..4 decode to C, A, T, G.
            Encoding::PaperRandom => b"CATG",
        }
    }
}

impl Default for Encoding {
    /// The paper's pipelines default to the randomized encoding.
    fn default() -> Self {
        Encoding::PaperRandom
    }
}

/// Converts an ASCII sequence into base codes, treating any non-ACGT
/// character as a break. Returns the list of maximal clean fragments
/// (each a `Vec` of base codes). Fragments shorter than `min_len` are
/// dropped.
pub fn ascii_to_fragments(seq: &[u8], min_len: usize) -> Vec<Vec<u8>> {
    seq.split(|&ch| ASCII_TO_CODE[ch as usize] == NOT_A_BASE)
        .filter(|run| run.len() >= min_len)
        .map(|run| run.iter().map(|&ch| ASCII_TO_CODE[ch as usize]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_roundtrip() {
        for b in Base::ALL {
            assert_eq!(Base::from_code(b.code()), b);
        }
    }

    #[test]
    fn ascii_roundtrip_and_case() {
        assert_eq!(Base::from_ascii(b'A'), Some(Base::A));
        assert_eq!(Base::from_ascii(b'g'), Some(Base::G));
        assert_eq!(Base::from_ascii(b'N'), None);
        assert_eq!(Base::from_ascii(b'-'), None);
        for b in Base::ALL {
            assert_eq!(Base::from_ascii(b.to_ascii()), Some(b));
        }
    }

    /// The `match` the table replaced.
    fn from_ascii_match(ch: u8) -> Option<Base> {
        match ch {
            b'A' | b'a' => Some(Base::A),
            b'C' | b'c' => Some(Base::C),
            b'G' | b'g' => Some(Base::G),
            b'T' | b't' => Some(Base::T),
            _ => None,
        }
    }

    #[test]
    fn ascii_table_equals_the_match_on_every_byte() {
        for ch in 0..=255u8 {
            assert_eq!(Base::from_ascii(ch), from_ascii_match(ch), "byte {ch}");
        }
    }

    #[test]
    fn ascii_tables_invert_the_encodings() {
        for e in [Encoding::Alphabetical, Encoding::PaperRandom] {
            for sym in 0..4u8 {
                assert_eq!(e.ascii_table()[sym as usize], e.decode_base(sym).to_ascii());
            }
        }
    }

    #[test]
    fn complement_is_involution() {
        for b in Base::ALL {
            assert_eq!(b.complement().complement(), b);
        }
        assert_eq!(Base::A.complement(), Base::T);
        assert_eq!(Base::C.complement(), Base::G);
    }

    #[test]
    fn paper_encoding_matches_section_4a() {
        // §IV-A: "we map A = 1, C = 0, T = 2, G = 3".
        let e = Encoding::PaperRandom;
        assert_eq!(e.encode_base(Base::A), 1);
        assert_eq!(e.encode_base(Base::C), 0);
        assert_eq!(e.encode_base(Base::T), 2);
        assert_eq!(e.encode_base(Base::G), 3);
    }

    #[test]
    fn encodings_are_bijective() {
        for e in [Encoding::Alphabetical, Encoding::PaperRandom] {
            let mut seen = [false; 4];
            for code in 0..4u8 {
                let sym = e.encode(code);
                assert!(!seen[sym as usize], "{e:?} not injective");
                seen[sym as usize] = true;
                assert_eq!(e.decode(sym), code, "{e:?} decode mismatch");
            }
        }
    }

    #[test]
    fn fragments_split_on_ambiguous_bases() {
        let frags = ascii_to_fragments(b"ACGTNNGGTTNA", 2);
        assert_eq!(frags.len(), 2); // "ACGT", "GGTT"; trailing "A" too short
        assert_eq!(frags[0], vec![0, 1, 2, 3]);
        assert_eq!(frags[1], vec![2, 2, 3, 3]);
    }

    #[test]
    fn fragments_keep_whole_clean_sequence() {
        let frags = ascii_to_fragments(b"ACGT", 1);
        assert_eq!(frags, vec![vec![0, 1, 2, 3]]);
        assert!(ascii_to_fragments(b"NNNN", 1).is_empty());
        assert!(ascii_to_fragments(b"", 1).is_empty());
        // At min_len 0 every run counts, empty ones included.
        assert_eq!(ascii_to_fragments(b"AnC", 0), vec![vec![0], vec![1]]);
        assert_eq!(ascii_to_fragments(b"N", 0), vec![vec![]; 2]);
    }

    #[test]
    fn display_single_base() {
        assert_eq!(format!("{}", Base::G), "G");
    }
}
