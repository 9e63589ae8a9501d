//! Minimizers (§II-B, §IV-A).
//!
//! The minimizer of a k-mer is its smallest length-m substring under some
//! ordering. Three orderings from the paper's discussion are provided, all
//! expressed as a *rank key* over packed m-mer words:
//!
//! * **Lexicographic** (Roberts et al.): alphabetical encoding, numeric
//!   word order. Known to produce badly skewed partitions (poly-A m-mers
//!   win everywhere).
//! * **KMC2**: lexicographic, but m-mers starting with `AAA` or `ACA` are
//!   demoted (given lower priority), spreading out the bins. Used by KMC2
//!   and Gerbil.
//! * **Encoded-lexicographic over the randomized encoding** (the paper's
//!   choice, §IV-A): pack with A=1, C=0, T=2, G=3 and compare numerically —
//!   an implicit custom ordering with zero extra compute.
//!
//! Because packed words compare lexicographically over their *encoded
//! symbols*, the ordering is selected by the `(encoding, ordering)` pair in
//! [`MinimizerScheme`].

use dedukt_dna::kmer::KmerWord;
use dedukt_dna::Encoding;

/// How m-mer rank keys are derived from packed words.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrderingKind {
    /// Numeric order of the packed word under the scheme's encoding.
    /// With [`Encoding::Alphabetical`] this is Roberts' lexicographic
    /// ordering; with [`Encoding::PaperRandom`] it is the paper's
    /// randomized ordering.
    EncodedLexicographic,
    /// KMC2's variant: lexicographic, except m-mers whose bases start with
    /// `AAA` or `ACA` are demoted below all others.
    Kmc2,
}

/// A complete minimizer scheme: encoding, ordering, and m.
#[derive(Clone, Copy, Debug)]
pub struct MinimizerScheme {
    /// Base encoding the packed words use.
    pub encoding: Encoding,
    /// Rank-key derivation.
    pub ordering: OrderingKind,
    /// Minimizer length (m < k).
    pub m: usize,
}

/// A minimizer found within a k-mer: its window position and packed word.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MinimizerAt {
    /// Offset of the m-mer within the k-mer (0 = leftmost window).
    pub pos: usize,
    /// The packed m-mer word (under the scheme's encoding).
    pub word: u64,
}

impl MinimizerScheme {
    /// The rank key of a packed m-mer word; smaller key = higher priority.
    #[inline]
    pub fn rank_key(&self, mmer_word: u64) -> u64 {
        match self.ordering {
            OrderingKind::EncodedLexicographic => mmer_word,
            OrderingKind::Kmc2 => {
                if self.m >= 3 && self.has_demoted_prefix(mmer_word) {
                    // Demote below every normal m-mer but keep relative
                    // order among demoted ones. 2m < 64 keeps this safe.
                    mmer_word | (1u64 << 63)
                } else {
                    mmer_word
                }
            }
        }
    }

    /// True if the m-mer's first three bases are `AAA` or `ACA`.
    fn has_demoted_prefix(&self, mmer_word: u64) -> bool {
        let shift = 2 * (self.m - 3);
        let prefix = (mmer_word >> shift) & 0b11_11_11;
        // Decode the three symbols back to base codes.
        let b0 = self.encoding.decode(((prefix >> 4) & 3) as u8);
        let b1 = self.encoding.decode(((prefix >> 2) & 3) as u8);
        let b2 = self.encoding.decode((prefix & 3) as u8);
        b0 == 0 && b2 == 0 && (b1 == 0 || b1 == 1) // A?A with ? ∈ {A, C}
    }

    /// Scans all `k - m + 1` windows of a packed k-mer (`u64` or `u128`)
    /// and returns the minimizer (leftmost on ties — the conventional
    /// tie-break). The minimizer word itself is always a `u64` (m ≤ 31 at
    /// either width), so routing is width-independent.
    pub fn minimizer_of<W: KmerWord>(&self, kmer_word: W, k: usize) -> MinimizerAt {
        debug_assert!(self.m < k && k <= W::MAX_K);
        let mut best = MinimizerAt {
            pos: 0,
            word: kmer_word.submer_of(k, 0, self.m),
        };
        let mut best_key = self.rank_key(best.word);
        for pos in 1..=(k - self.m) {
            let w = kmer_word.submer_of(k, pos, self.m);
            let key = self.rank_key(w);
            if key < best_key {
                best_key = key;
                best = MinimizerAt { pos, word: w };
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kmer_word(s: &[u8], enc: Encoding) -> u64 {
        u64::pack_ascii(s, enc).unwrap()
    }

    fn scheme(enc: Encoding, ord: OrderingKind, m: usize) -> MinimizerScheme {
        MinimizerScheme {
            encoding: enc,
            ordering: ord,
            m,
        }
    }

    #[test]
    fn lexicographic_picks_alphabetical_min() {
        // GATTACA, m=3 windows: GAT ATT TTA TAC ACA → min is ACA at pos 4.
        let s = scheme(
            Encoding::Alphabetical,
            OrderingKind::EncodedLexicographic,
            3,
        );
        let mz = s.minimizer_of(kmer_word(b"GATTACA", Encoding::Alphabetical), 7);
        assert_eq!(mz.pos, 4);
        assert_eq!(mz.word, kmer_word(b"ACA", Encoding::Alphabetical));
    }

    #[test]
    fn paper_fig4_worked_example() {
        // Fig. 4 parses read GTCATCGCACTTACTGATG with k=8, m=4 under plain
        // lexicographic ordering. First k-mer GTCATCGC: windows GTCA TCAT
        // CATC ATCG TCGC → min ATCG.
        let s = scheme(
            Encoding::Alphabetical,
            OrderingKind::EncodedLexicographic,
            4,
        );
        let mz = s.minimizer_of(kmer_word(b"GTCATCGC", Encoding::Alphabetical), 8);
        assert_eq!(mz.word, kmer_word(b"ATCG", Encoding::Alphabetical));
        assert_eq!(mz.pos, 3);
    }

    #[test]
    fn random_encoding_changes_the_winner() {
        // Under the paper's encoding C(0) < A(1): minimizers starting with
        // C beat minimizers starting with A.
        let s = scheme(Encoding::PaperRandom, OrderingKind::EncodedLexicographic, 3);
        // Windows of ACACCC (m=3): ACA CAC ACC CCC. Under PaperRandom,
        // CCC encodes to 000 — the smallest possible word.
        let mz = s.minimizer_of(kmer_word(b"ACACCC", Encoding::PaperRandom), 6);
        assert_eq!(mz.word, kmer_word(b"CCC", Encoding::PaperRandom));
        assert_eq!(mz.word, 0);
    }

    #[test]
    fn kmc2_demotes_aaa_and_aca() {
        let s = scheme(Encoding::Alphabetical, OrderingKind::Kmc2, 4);
        // AAAT would win lexicographically; KMC2 demotes AAA* so the next
        // smallest clean window must win. K-mer AAATGG, m=4: windows AAAT
        // AATG ATGG. AAAT demoted → AATG wins.
        let mz = s.minimizer_of(kmer_word(b"AAATGG", Encoding::Alphabetical), 6);
        assert_eq!(mz.word, kmer_word(b"AATG", Encoding::Alphabetical));
        // ACAT also demoted: ACATGG → windows ACAT CATG ATGG → ATGG wins
        // (CATG > ATGG lexicographically).
        let mz = s.minimizer_of(kmer_word(b"ACATGG", Encoding::Alphabetical), 6);
        assert_eq!(mz.word, kmer_word(b"ATGG", Encoding::Alphabetical));
    }

    #[test]
    fn kmc2_demoted_mmers_still_usable_when_unavoidable() {
        // All windows demoted: AAAAAA, m=4 → AAAA everywhere; must still
        // return a minimizer.
        let s = scheme(Encoding::Alphabetical, OrderingKind::Kmc2, 4);
        let mz = s.minimizer_of(kmer_word(b"AAAAAA", Encoding::Alphabetical), 6);
        assert_eq!(mz.word, kmer_word(b"AAAA", Encoding::Alphabetical));
        assert_eq!(mz.pos, 0); // leftmost tie-break
    }

    #[test]
    fn ties_break_leftmost() {
        let s = scheme(
            Encoding::Alphabetical,
            OrderingKind::EncodedLexicographic,
            2,
        );
        // ACACAC: windows AC CA AC CA AC → AC wins at pos 0.
        let mz = s.minimizer_of(kmer_word(b"ACACAC", Encoding::Alphabetical), 6);
        assert_eq!(mz.pos, 0);
    }

    #[test]
    fn consecutive_kmers_often_share_minimizers() {
        // The property supermers rely on (§II-B): sliding one base usually
        // keeps the same minimizer. Count shares on a fixed sequence.
        let seq = b"GTCATCGCACTTACTGATGCCAGTTGCAACGGTA";
        let enc = Encoding::Alphabetical;
        let s = scheme(enc, OrderingKind::EncodedLexicographic, 4);
        let k = 8;
        let mut shares = 0;
        let mut total = 0;
        let mut prev: Option<u64> = None;
        for i in 0..=seq.len() - k {
            let w = kmer_word(&seq[i..i + k], enc);
            let mz = s.minimizer_of(w, k).word;
            if prev == Some(mz) {
                shares += 1;
            }
            prev = Some(mz);
            total += 1;
        }
        assert!(
            shares * 2 > total,
            "expected most consecutive k-mers to share minimizers: {shares}/{total}"
        );
    }

    #[test]
    fn minimizer_is_a_real_substring() {
        // The minimizer word must equal one of the k-mer's m-windows.
        let enc = Encoding::PaperRandom;
        let s = scheme(enc, OrderingKind::EncodedLexicographic, 5);
        let seq = b"TTGACCGTAAGCTAGCA";
        let k = 17;
        let w = kmer_word(seq, enc);
        let mz = s.minimizer_of(w, k);
        let expect = kmer_word(&seq[mz.pos..mz.pos + 5], enc);
        assert_eq!(mz.word, expect);
    }

    #[test]
    fn rank_key_is_monotone_for_plain_ordering() {
        let s = scheme(
            Encoding::Alphabetical,
            OrderingKind::EncodedLexicographic,
            4,
        );
        assert!(s.rank_key(3) < s.rank_key(4));
        assert_eq!(s.rank_key(100), 100);
    }
}
