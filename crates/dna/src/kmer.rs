//! Packed k-mers.
//!
//! A k-mer is stored as 2 bits per base, most-significant-first, right
//! aligned in a machine word: `u64` for k ≤ 32 or `u128` for k ≤ 64. The
//! paper packs k-mers the same way ("a 11-mer can fit into a 32 bit data
//! type", §III-B1); with the paper's default k = 17 a k-mer occupies 34
//! bits of a single 64-bit word.
//!
//! [`KmerWord`] is the one place that knows this layout. Each operation —
//! mask, roll, pack, submer and subword extraction, reverse complement and
//! canonical form, decoding and ASCII rendering — is written once over two
//! per-width primitives (truncation to the low 64 bits and 2-bit group
//! reversal), so both widths compute the same values by construction.
//!
//! MSB-first packing gives the property the minimizer machinery relies on:
//! numeric comparison of equal-length packed words equals lexicographic
//! comparison of their encoded symbol strings.
//!
//! Both supported [`Encoding`]s map complementary bases to symbols summing
//! to 3, so reverse-complement works directly in symbol space (reverse the
//! 2-bit groups and XOR with all-ones) regardless of encoding. A test
//! enforces this invariant.

use crate::base::{Base, Encoding};
use std::fmt;
use std::hash::Hash;
use std::ops::{BitAnd, BitOr, Not, Shl, Shr};

/// A machine word wide enough to hold a 2-bit-packed k-mer: `u64` for
/// k ≤ 32 or `u128` for k ≤ 64.
///
/// The width abstraction the counting stack is built on. A k-mer is a
/// bare word plus the `k` its caller carries; every method takes that `k`
/// explicitly. Minimizer extraction ([`KmerWord::submer_of`]) always
/// yields a `u64`, because m ≤ 32 at either width.
pub trait KmerWord:
    Copy
    + Eq
    + Ord
    + Hash
    + fmt::Debug
    + Send
    + Sync
    + 'static
    + From<u8>
    + Shl<usize, Output = Self>
    + Shr<usize, Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Not<Output = Self>
{
    /// Bytes one packed word occupies on the wire (8 or 16).
    const WORD_BYTES: usize;
    /// Maximum k this width can pack (32 or 64).
    const MAX_K: usize = 4 * Self::WORD_BYTES;
    /// The all-zero word.
    const ZERO: Self;

    /// The low 64 bits of the word (truncating).
    fn low_u64(self) -> u64;

    /// Reverses the order of the word's [`KmerWord::MAX_K`] 2-bit groups
    /// (group 0 swaps with the last).
    fn reverse_groups(self) -> Self;

    /// Bit mask covering the low `2k` bits.
    #[inline]
    fn kmer_mask(k: usize) -> Self {
        debug_assert!((1..=Self::MAX_K).contains(&k));
        !Self::ZERO >> (2 * (Self::MAX_K - k))
    }

    /// Rolls the window one base right: shifts in the 2-bit `sym` and
    /// masks back to `2k` bits. `mask` must be `Self::kmer_mask(k)`.
    #[inline]
    fn roll_sym(self, sym: u8, mask: Self) -> Self {
        ((self << 2) | Self::from(sym)) & mask
    }

    /// Packs a slice of base codes under `encoding` (MSB-first). Panics if
    /// `codes.len()` is 0 or exceeds [`KmerWord::MAX_K`].
    fn pack_codes(codes: &[u8], encoding: Encoding) -> Self {
        assert!(
            (1..=Self::MAX_K).contains(&codes.len()),
            "k = {} out of range 1..={}",
            codes.len(),
            Self::MAX_K
        );
        codes.iter().fold(Self::ZERO, |w, &c| {
            (w << 2) | Self::from(encoding.encode(c))
        })
    }

    /// Packs an ASCII sequence (clean ACGT, 1 to [`KmerWord::MAX_K`]
    /// bases); `None` otherwise.
    fn pack_ascii(seq: &[u8], encoding: Encoding) -> Option<Self> {
        if seq.is_empty() || seq.len() > Self::MAX_K {
            return None;
        }
        seq.iter().try_fold(Self::ZERO, |w, &ch| {
            let sym = encoding.encode_base(Base::from_ascii(ch)?);
            Some((w << 2) | Self::from(sym))
        })
    }

    /// Extracts the `m`-mer (m ≤ 32) starting at base offset `pos` (0 =
    /// leftmost) of a `k`-long word as a packed `u64`, preserving symbol
    /// order. The minimizer scan's primitive.
    #[inline]
    fn submer_of(self, k: usize, pos: usize, m: usize) -> u64 {
        debug_assert!((1..=32).contains(&m) && pos + m <= k);
        (self >> (2 * (k - pos - m))).low_u64() & u64::kmer_mask(m)
    }

    /// Extracts the `sub_len`-base window starting at base offset `pos`
    /// of a `total_len`-long word as a full-width packed word (the k-mer
    /// extraction primitive of supermer unpacking, where `sub_len` may
    /// exceed 32 at the wide width).
    #[inline]
    fn subword(self, total_len: usize, pos: usize, sub_len: usize) -> Self {
        debug_assert!(sub_len >= 1 && pos + sub_len <= total_len);
        (self >> (2 * (total_len - pos - sub_len))) & Self::kmer_mask(sub_len)
    }

    /// Reverse complement of a `k`-long word. Works in symbol space: valid
    /// for both supported encodings because each maps complement pairs to
    /// symbols summing to 3.
    #[inline]
    fn reverse_complement(self, k: usize) -> Self {
        debug_assert!((1..=Self::MAX_K).contains(&k));
        // After the full-width reversal the k complemented groups sit in
        // the high bits; the shift brings them back down.
        (!self).reverse_groups() >> (2 * (Self::MAX_K - k))
    }

    /// Canonical form: the numerically smaller of the word and its reverse
    /// complement. The paper does *not* canonicalize (Fig. 4); canonical
    /// mode is an extension of this reproduction.
    #[inline]
    fn canonical_word(self, k: usize) -> Self {
        self.min(self.reverse_complement(k))
    }

    /// Decodes the `k`-long word back to base codes.
    fn word_codes(self, k: usize, encoding: Encoding) -> Vec<u8> {
        debug_assert!(
            k == Self::MAX_K || self >> (2 * k) == Self::ZERO,
            "stray high bits"
        );
        (0..k)
            .map(|i| encoding.decode(self.submer_of(k, i, 1) as u8))
            .collect()
    }

    /// Appends the `k` bases of the word to `out` as ASCII: 32 bases per
    /// extracted `u64`, one lookup in the encoding's symbol table per base.
    fn push_ascii(self, k: usize, encoding: Encoding, out: &mut Vec<u8>) {
        debug_assert!(
            k == Self::MAX_K || self >> (2 * k) == Self::ZERO,
            "stray high bits"
        );
        let ascii = encoding.ascii_table();
        let mut pos = 0;
        while pos < k {
            let m = (k - pos).min(32);
            let chunk = self.submer_of(k, pos, m);
            out.extend((0..m).rev().map(|i| ascii[(chunk >> (2 * i)) as usize & 3]));
            pos += m;
        }
    }

    /// Renders the `k`-long word as an ASCII sequence.
    fn to_ascii(self, k: usize, encoding: Encoding) -> String {
        let mut out = Vec::with_capacity(k);
        self.push_ascii(k, encoding, &mut out);
        String::from_utf8(out).expect("bases are ASCII")
    }
}

impl KmerWord for u64 {
    const WORD_BYTES: usize = 8;
    const ZERO: Self = 0;

    #[inline]
    fn low_u64(self) -> u64 {
        self
    }

    #[inline]
    fn reverse_groups(self) -> u64 {
        // Swap adjacent 2-bit groups, then nibbles, then bytes.
        let v = ((self & 0x3333_3333_3333_3333) << 2) | ((self >> 2) & 0x3333_3333_3333_3333);
        let v = ((v & 0x0F0F_0F0F_0F0F_0F0F) << 4) | ((v >> 4) & 0x0F0F_0F0F_0F0F_0F0F);
        v.swap_bytes()
    }
}

impl KmerWord for u128 {
    const WORD_BYTES: usize = 16;
    const ZERO: Self = 0;

    #[inline]
    fn low_u64(self) -> u64 {
        self as u64
    }

    #[inline]
    fn reverse_groups(self) -> u128 {
        // Each half reverses in place, then the halves swap.
        let lo = self.low_u64().reverse_groups() as u128;
        let hi = (self >> 64).low_u64().reverse_groups() as u128;
        (lo << 64) | hi
    }
}

/// Iterates all packed k-mer words of a base-code slice with a rolling
/// window (O(1) per k-mer), at either word width. Yields nothing if the
/// slice is shorter than k.
pub fn kmer_words_w<W: KmerWord>(
    codes: &[u8],
    k: usize,
    encoding: Encoding,
) -> impl Iterator<Item = W> + '_ {
    assert!((1..=W::MAX_K).contains(&k));
    let mask = W::kmer_mask(k);
    let mut acc = W::ZERO;
    let mut filled = 0usize;
    codes.iter().filter_map(move |&c| {
        acc = acc.roll_sym(encoding.encode(c), mask);
        filled += 1;
        if filled >= k {
            Some(acc)
        } else {
            None
        }
    })
}

/// [`kmer_words_w`] at the `u64` width.
pub fn kmer_words(codes: &[u8], k: usize, encoding: Encoding) -> impl Iterator<Item = u64> + '_ {
    kmer_words_w::<u64>(codes, k, encoding)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const ENC: Encoding = Encoding::Alphabetical;

    fn codes_of(s: &[u8]) -> Vec<u8> {
        s.iter()
            .map(|&c| Base::from_ascii(c).unwrap().code())
            .collect()
    }

    fn ascii<W: KmerWord>(s: &[u8]) -> W {
        W::pack_ascii(s, ENC).unwrap()
    }

    #[test]
    fn packs_msb_first() {
        // "ACGT" under alphabetical encoding: 00 01 10 11 = 0b00011011.
        assert_eq!(ascii::<u64>(b"ACGT"), 0b00_01_10_11);
        assert_eq!(ascii::<u128>(b"ACGT"), 0b00_01_10_11);
    }

    #[test]
    fn numeric_order_equals_lexicographic() {
        fn check<W: KmerWord>(_: usize) {
            // Listed in lexicographic order: packing must preserve it.
            let words: [&[u8]; 5] = [b"AAAA", b"AAAC", b"ACGT", b"CAAA", b"TTTT"];
            let packed: Vec<W> = words.iter().map(|w| ascii::<W>(w)).collect();
            assert!(packed.windows(2).all(|p| p[0] < p[1]), "{packed:?}");
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
    }

    #[test]
    fn ascii_roundtrip() {
        fn check<W: KmerWord>(max_k: usize) {
            let long = b"ACGT".repeat(max_k / 4);
            for s in [&b"GATTACA"[..], b"A", &long] {
                let w = ascii::<W>(s);
                assert_eq!(w.to_ascii(s.len(), ENC).as_bytes(), s);
            }
            // Same under the paper encoding.
            let w = W::pack_ascii(b"GATTACA", Encoding::PaperRandom).unwrap();
            assert_eq!(w.to_ascii(7, Encoding::PaperRandom), "GATTACA");
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
    }

    #[test]
    fn rejects_bad_input() {
        fn check<W: KmerWord>(max_k: usize) {
            assert!(W::pack_ascii(b"", ENC).is_none());
            assert!(W::pack_ascii(b"ACGN", ENC).is_none());
            assert!(W::pack_ascii(&vec![b'A'; max_k + 1], ENC).is_none());
            assert!(W::pack_ascii(&vec![b'A'; max_k], ENC).is_some());
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
    }

    #[test]
    fn rolling_matches_fresh_construction() {
        fn check<W: KmerWord>(k: usize) {
            let seq = b"GATTACA".repeat(7);
            let mask = W::kmer_mask(k);
            let mut rolled = ascii::<W>(&seq[..k]);
            for i in 1..=(seq.len() - k) {
                let sym = ENC.encode_base(Base::from_ascii(seq[i + k - 1]).unwrap());
                rolled = rolled.roll_sym(sym, mask);
                assert_eq!(rolled, ascii::<W>(&seq[i..i + k]), "k {k} window {i}");
            }
        }
        for k in [5, 31, 32] {
            check::<u64>(k);
        }
        for k in [5, 35, 41, 48] {
            check::<u128>(k);
        }
    }

    #[test]
    fn kmer_words_iterator_matches_windows() {
        fn check<W: KmerWord>(k: usize) {
            let seq = b"ACGTTGCAACGT".repeat(4); // 48 bases
            let codes = codes_of(&seq);
            let got: Vec<W> = kmer_words_w(&codes, k, ENC).collect();
            let expect: Vec<W> = (0..=seq.len() - k)
                .map(|i| ascii::<W>(&seq[i..i + k]))
                .collect();
            assert_eq!(got, expect);
            assert_eq!(got.len(), seq.len() - k + 1); // L - k + 1 k-mers
        }
        check::<u64>(4);
        check::<u128>(4);
        check::<u128>(41);
        let codes = codes_of(b"ACGTTGCAACGT");
        assert!(kmer_words(&codes, 4, ENC).eq(kmer_words_w::<u64>(&codes, 4, ENC)));
    }

    #[test]
    fn kmer_words_short_input_yields_nothing() {
        let codes = [0u8, 1, 2];
        assert_eq!(kmer_words(&codes, 4, ENC).count(), 0);
        assert_eq!(kmer_words_w::<u128>(&codes, 4, ENC).count(), 0);
    }

    #[test]
    fn submer_extracts_mmers() {
        fn check<W: KmerWord>(_: usize) {
            // GATTACA, m=3: windows GAT, ATT, TTA, TAC, ACA.
            let w = ascii::<W>(b"GATTACA");
            for (pos, expect) in [b"GAT", b"ATT", b"TTA", b"TAC", b"ACA"].iter().enumerate() {
                assert_eq!(w.submer_of(7, pos, 3), ascii::<u64>(*expect), "pos {pos}");
            }
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
    }

    #[test]
    fn wide_submer_matches_narrow_packing() {
        let codes = codes_of(b"GATTACAGATTACAGATTACAGATTACAGATTACAGATT"); // 39 bases
        let wide = u128::pack_codes(&codes, ENC);
        for m in [3usize, 7, 15, 32] {
            for pos in [0usize, 5, 39 - m] {
                let expect = u64::pack_codes(&codes[pos..pos + m], ENC);
                assert_eq!(wide.submer_of(39, pos, m), expect, "m {m} pos {pos}");
                assert_eq!(wide.subword(39, pos, m), expect as u128, "m {m} pos {pos}");
            }
        }
    }

    #[test]
    fn reverse_complement_known_answer() {
        fn check<W: KmerWord>(_: usize) {
            let w = ascii::<W>(b"AACGTT");
            assert_eq!(w.reverse_complement(6).to_ascii(6, ENC), "AACGTT"); // palindrome
            let w = ascii::<W>(b"GATTACA");
            assert_eq!(w.reverse_complement(7).to_ascii(7, ENC), "TGTAATC");
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
        // Past the narrow width: k = 41 and the full 64-base word.
        let s = b"ACCGGGTTTTACGTAACCGGTTAGCTAGCTTTGACCAGTCA";
        let w = ascii::<u128>(s);
        assert_eq!(
            w.reverse_complement(41).to_ascii(41, ENC),
            "TGACTGGTCAAAGCTAGCTAACCGGTTACGTAAAACCCGGT"
        );
        let w = ascii::<u128>(b"AAAACCCCGGGGTTTTACGTACGTGATTACAGATTACATTTTGGGGCCCCAAAATGCATGCAGT");
        assert_eq!(
            w.reverse_complement(64).to_ascii(64, ENC),
            "ACTGCATGCATTTTGGGGCCCCAAAATGTAATCTGTAATCACGTACGTAAAACCCCGGGGTTTT"
        );
    }

    #[test]
    fn reverse_complement_is_involution_both_encodings() {
        fn check<W: KmerWord>(max_k: usize) {
            let full = vec![b'T'; max_k];
            for enc in [Encoding::Alphabetical, Encoding::PaperRandom] {
                for s in [&b"A"[..], b"ACGT", b"GGGATCCTTAAAGCGC", &full] {
                    let k = s.len();
                    let w = W::pack_ascii(s, enc).unwrap();
                    assert_eq!(w.reverse_complement(k).reverse_complement(k), w);
                    // Sequence-level check: rc in symbol space equals rc
                    // computed on the ASCII string.
                    let rc_ascii: Vec<u8> = s
                        .iter()
                        .rev()
                        .map(|&c| Base::from_ascii(c).unwrap().complement().to_ascii())
                        .collect();
                    assert_eq!(
                        w.reverse_complement(k).to_ascii(k, enc).as_bytes(),
                        &rc_ascii[..],
                        "enc {enc:?} seq {}",
                        std::str::from_utf8(s).unwrap()
                    );
                }
            }
        }
        check::<u64>(u64::MAX_K);
        check::<u128>(u128::MAX_K);
    }

    #[test]
    fn canonical_is_stable() {
        fn check<W: KmerWord>(k: usize) {
            let seq = b"GATTACAGATTACAGATTACAGATTACAGATTACAGATTACA";
            let w = ascii::<W>(&seq[..k]);
            let c = w.canonical_word(k);
            assert_eq!(c, c.canonical_word(k));
            assert_eq!(c, w.reverse_complement(k).canonical_word(k));
            assert!(c <= w);
        }
        check::<u64>(7);
        check::<u128>(7);
        check::<u128>(41);
    }

    #[test]
    fn wide_roundtrip_and_rc() {
        let codes = codes_of(b"ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"); // 44 bases
        let w = u128::pack_codes(&codes, ENC);
        assert_eq!(w.word_codes(44, ENC), codes);
        assert_eq!(w.reverse_complement(44).reverse_complement(44), w);
        assert_eq!(
            w.canonical_word(44),
            w.canonical_word(44).canonical_word(44)
        );
    }

    #[test]
    fn full_width_mask() {
        // Below the full width the mask is 2k low ones.
        for k in 1..32 {
            assert_eq!(u64::kmer_mask(k), (1u64 << (2 * k)) - 1, "k {k}");
        }
        for k in 1..64 {
            assert_eq!(u128::kmer_mask(k), (1u128 << (2 * k)) - 1, "k {k}");
        }
        // T = 3 everywhere fills the whole word.
        assert_eq!(ascii::<u64>(&[b'T'; 32]), u64::MAX);
        assert_eq!(u64::kmer_mask(32), u64::MAX);
        assert_eq!(
            ascii::<u64>(&[b'T'; 32])
                .reverse_complement(32)
                .to_ascii(32, ENC),
            "A".repeat(32)
        );
        assert_eq!(ascii::<u128>(&[b'T'; 64]), u128::MAX);
        assert_eq!(u128::kmer_mask(64), u128::MAX);
        assert_eq!(
            ascii::<u128>(&[b'T'; 64])
                .reverse_complement(64)
                .to_ascii(64, ENC),
            "A".repeat(64)
        );
    }

    fn encoding() -> impl Strategy<Value = Encoding> {
        prop_oneof![Just(Encoding::Alphabetical), Just(Encoding::PaperRandom)]
    }

    proptest! {
        /// For k ≤ 31 every operation gives the same value at `u64` and,
        /// widened, at `u128`.
        #[test]
        fn widths_agree_below_32(
            codes in prop::collection::vec(0u8..4, 1..96),
            k in 1usize..32,
            enc in encoding(),
            mpick in 0usize..64,
            ppick in 0usize..64,
        ) {
            let narrow: Vec<u64> = kmer_words_w(&codes, k, enc).collect();
            let wide: Vec<u128> = kmer_words_w(&codes, k, enc).collect();
            prop_assert_eq!(narrow.len(), wide.len());
            for (i, (&n, &w)) in narrow.iter().zip(&wide).enumerate() {
                prop_assert_eq!(n as u128, w);
                let span = &codes[i..i + k];
                prop_assert_eq!(u64::pack_codes(span, enc), n);
                prop_assert_eq!(u128::pack_codes(span, enc), w);
                prop_assert_eq!(n.canonical_word(k) as u128, w.canonical_word(k));
                prop_assert_eq!(n.reverse_complement(k) as u128, w.reverse_complement(k));
                prop_assert_eq!(n.word_codes(k, enc), w.word_codes(k, enc));
                prop_assert_eq!(n.to_ascii(k, enc), w.to_ascii(k, enc));
                // Any sub-window of the k-mer.
                let m = 1 + mpick % k;
                let pos = ppick % (k - m + 1);
                prop_assert_eq!(n.submer_of(k, pos, m), w.submer_of(k, pos, m));
                prop_assert_eq!(n.subword(k, pos, m) as u128, w.subword(k, pos, m));
                prop_assert_eq!(u64::kmer_mask(k) as u128, u128::kmer_mask(k));
            }
        }
    }
}
