//! Supermers (§IV): maximal runs of consecutive k-mers sharing a minimizer.
//!
//! Two builders are provided, each generic over the packed word width
//! ([`KmerWord`]: `u64` for k ≤ 32, `u128` for k ≤ 64):
//!
//! * [`build_supermers_reference`] — the unbounded sequential scan: extend
//!   the window while the minimizer is unchanged. This is the textbook
//!   definition and the oracle the windowed builder is tested against.
//! * [`supermers_of_windows`] / [`build_supermers_windowed_w`] — Algorithm
//!   2: reads are cut into windows of `window` k-mer *positions*, one GPU
//!   thread per window, so supermers never span window boundaries and
//!   their length is bounded by `window + k - 1` bases — 31 bases for the
//!   paper's `k = 17, window = 15`, so every supermer packs into one
//!   64-bit word (§IV-C). One run builder serves any run of a read's
//!   windows in a single pass: it rolls each base once, tracks the
//!   minimizer across window boundaries, and flushes the open supermer
//!   at every window start. [`build_supermers_windowed_w`] runs it over
//!   all of a read's windows; [`build_supermers_windowed`] is its `u64`
//!   instance.
//!
//! Both builders preserve the defining invariant, enforced by property
//! tests: *the multiset of k-mers extracted from the supermers equals the
//! multiset of k-mers of the read*, and every k-mer inside a supermer has
//! the supermer's minimizer.

use crate::minimizer::MinimizerScheme;
use dedukt_dna::kmer::KmerWord;
use dedukt_dna::Encoding;
use std::ops::Range;

/// A packed supermer, generic over its word width: at most
/// [`KmerWord::MAX_K`] bases in one word (MSB-first, packed like a k-mer)
/// plus its base length and the shared minimizer.
///
/// On the wire a supermer costs `WORD_BYTES + 1` bytes — 9 for the
/// narrow `u64` width, 17 for wide `u128` — the packed word and one
/// length byte ("this approach requires an extra byte of communication to
/// identify the length of each supermer", §V-D). The minimizer is *not*
/// transmitted — the receiver only needs the bases. Under
/// `--wire-compress` a whole destination bucket is instead serialized
/// through [`crate::wire`], which delta-codes the lengths and drops the
/// per-base padding; this flat per-record cost is then the *logical*
/// volume the codec's ratio is measured against.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SupermerW<W: KmerWord> {
    /// Packed bases, MSB-first, right-aligned.
    pub word: W,
    /// Number of bases (k ..= window + k − 1 ≤ `W::MAX_K`).
    pub len: u8,
    /// The packed m-mer word every constituent k-mer minimizes to
    /// (always a `u64`: m ≤ 31 at either width).
    pub minimizer: u64,
}

/// The narrow (k ≤ 31) supermer the paper's pipelines exchange.
pub type Supermer = SupermerW<u64>;

impl<W: KmerWord> SupermerW<W> {
    /// Bytes this supermer occupies on the wire (packed word + length
    /// byte): 9 narrow, 17 wide.
    pub const WIRE_BYTES: u64 = W::WORD_BYTES as u64 + 1;

    /// Number of k-mers packed inside, for k-mer length `k`.
    #[inline]
    pub fn num_kmers(&self, k: usize) -> usize {
        (self.len as usize).saturating_sub(k - 1)
    }

    /// Extracts the `i`-th constituent k-mer word (0-based from the left).
    #[inline]
    pub fn kmer_at(&self, i: usize, k: usize) -> W {
        debug_assert!(i + k <= self.len as usize);
        self.word.subword(self.len as usize, i, k)
    }

    /// Iterates all constituent k-mer words.
    pub fn kmers(&self, k: usize) -> impl Iterator<Item = W> + '_ {
        (0..self.num_kmers(k)).map(move |i| self.kmer_at(i, k))
    }

    /// Decodes the bases back to codes under `encoding`.
    pub fn codes(&self, encoding: Encoding) -> Vec<u8> {
        self.word.word_codes(self.len as usize, encoding)
    }
}

/// An unbounded supermer from the reference builder (may exceed 32 bases,
/// so it carries its codes).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RefSupermer {
    /// Base codes of the supermer.
    pub codes: Vec<u8>,
    /// The shared minimizer word.
    pub minimizer: u64,
}

impl RefSupermer {
    /// Number of k-mers packed inside.
    pub fn num_kmers(&self, k: usize) -> usize {
        self.codes.len().saturating_sub(k - 1)
    }
}

/// Reference builder: one sequential scan, unbounded supermer length.
///
/// Returns the supermers in read order; nothing for reads shorter than k.
/// Minimizers are computed over `W`-packed k-mer words, so it serves k up
/// to `W::MAX_K`. [`RefSupermer`] itself is width-independent (it carries
/// codes, not a packed word).
pub fn build_supermers_reference<W: KmerWord>(
    codes: &[u8],
    k: usize,
    scheme: &MinimizerScheme,
) -> Vec<RefSupermer> {
    assert!(scheme.m < k && k <= W::MAX_K);
    if codes.len() < k {
        return Vec::new();
    }
    let enc = scheme.encoding;
    let nkmers = codes.len() - k + 1;
    let mut out = Vec::new();
    let mut smer_start = 0usize;
    let kmer_at = |pos: usize| W::pack_codes(&codes[pos..pos + k], enc);
    let mut prev_min = scheme.minimizer_of(kmer_at(0), k).word;
    for pos in 1..nkmers {
        let mz = scheme.minimizer_of(kmer_at(pos), k).word;
        if mz != prev_min {
            out.push(RefSupermer {
                codes: codes[smer_start..pos + k - 1].to_vec(),
                minimizer: prev_min,
            });
            smer_start = pos;
            prev_min = mz;
        }
    }
    out.push(RefSupermer {
        codes: codes[smer_start..].to_vec(),
        minimizer: prev_min,
    });
    out
}

/// Number of windows Algorithm 2 uses for a read of `len` bases.
pub fn num_windows(len: usize, k: usize, window: usize) -> usize {
    if len < k {
        0
    } else {
        (len - k + 1).div_ceil(window)
    }
}

/// Algorithm 2 over the run `windows` of one read's windows: builds the
/// supermers of k-mer positions `[windows.start × window, min(windows.end
/// × window, nkmers))` and hands each to `emit` in read order. Window `w`
/// is the work of one GPU thread in the paper's kernel (§IV-B); one call
/// does a run of them in a single pass. Supermers are bounded by
/// `window + k - 1 ≤ W::MAX_K` bases, so each packs into one `W` word.
///
/// Each base is rolled once into the k-mer word and the m-mer rank key.
/// The leftmost smallest key ([`MinimizerScheme::minimizer_of`]'s
/// tie-break) is tracked across window boundaries, since a k-mer's
/// minimizer depends only on that k-mer, and rescanned only when it
/// slides out. Every window start still flushes the open supermer, so
/// no supermer spans two windows. The last `64 ≥ k - m + 1` m-mers sit
/// in a ring, so a call allocates nothing.
pub fn supermers_of_windows<W: KmerWord>(
    codes: &[u8],
    windows: Range<usize>,
    k: usize,
    window: usize,
    scheme: &MinimizerScheme,
    mut emit: impl FnMut(SupermerW<W>),
) {
    debug_assert!(scheme.m < k && k <= W::MAX_K);
    debug_assert!(window + k - 1 <= W::MAX_K, "supermer must fit one word");
    let nkmers = codes.len().saturating_sub(k - 1);
    let first = windows.start * window;
    let end = (windows.end * window).min(nkmers);
    if first >= end {
        return;
    }
    let enc = scheme.encoding;
    let (m, span) = (scheme.m, k - scheme.m + 1);
    let (kmask, full, mmask) = (W::kmer_mask(k), W::kmer_mask(W::MAX_K), u64::kmer_mask(m));
    // The m-mer at read position `j`: packed word and rank key at `j % 64`.
    let (mut mwords, mut keys) = ([0u64; 64], [0u64; 64]);
    let leftmost_min = |keys: &[u64; 64], from: usize| {
        (from + 1..from + span).fold(from, |best, j| {
            if keys[j % 64] < keys[best % 64] {
                j
            } else {
                best
            }
        })
    };
    let (mut kw, mut acc) = (W::ZERO, 0u64);
    let mut best = first;
    let mut next_window = first;
    let mut smer = SupermerW {
        word: W::ZERO,
        len: 0,
        minimizer: 0,
    };
    for (base, &c) in codes.iter().enumerate().take(end + k - 1).skip(first) {
        let sym = enc.encode(c);
        kw = kw.roll_sym(sym, kmask);
        acc = acc.roll_sym(sym, mmask);
        let rolled = base + 1 - first;
        if rolled < m {
            continue;
        }
        let j = base + 1 - m;
        mwords[j % 64] = acc;
        keys[j % 64] = scheme.rank_key(acc);
        if rolled < k {
            continue;
        }
        // K-mer `pos` covers m-mers `pos..=j`.
        let pos = base + 1 - k;
        if pos == first || best < pos {
            best = leftmost_min(&keys, pos);
        } else if keys[j % 64] < keys[best % 64] {
            best = j;
        }
        let mz = mwords[best % 64];
        if pos == next_window || mz != smer.minimizer {
            // A window's first k-mer (Line 4-10) or a new minimizer
            // (Line 13-18) starts a fresh supermer.
            if pos > first {
                emit(smer);
            }
            if pos == next_window {
                next_window += window;
            }
            smer = SupermerW {
                word: kw,
                len: k as u8,
                minimizer: mz,
            };
        } else {
            // ADDCHAR: append the new base to the supermer (Line 20-21).
            // The full-width mask never clips: len ≤ window + k - 1.
            smer.word = smer.word.roll_sym(sym, full);
            smer.len += 1;
        }
    }
    emit(smer);
}

/// Algorithm 2 over a whole read: all windows in order.
pub fn build_supermers_windowed_w<W: KmerWord>(
    codes: &[u8],
    k: usize,
    window: usize,
    scheme: &MinimizerScheme,
) -> Vec<SupermerW<W>> {
    let mut out = Vec::new();
    let windows = 0..num_windows(codes.len(), k, window);
    supermers_of_windows(codes, windows, k, window, scheme, |sm| out.push(sm));
    out
}

/// [`build_supermers_windowed_w`] at the `u64` width.
pub fn build_supermers_windowed(
    codes: &[u8],
    k: usize,
    window: usize,
    scheme: &MinimizerScheme,
) -> Vec<Supermer> {
    build_supermers_windowed_w::<u64>(codes, k, window, scheme)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::minimizer::OrderingKind;
    use dedukt_dna::base::Base;

    fn codes(s: &[u8]) -> Vec<u8> {
        s.iter()
            .map(|&c| Base::from_ascii(c).unwrap().code())
            .collect()
    }

    fn lex_scheme(m: usize) -> MinimizerScheme {
        MinimizerScheme {
            encoding: Encoding::Alphabetical,
            ordering: OrderingKind::EncodedLexicographic,
            m,
        }
    }

    fn direct_kmers(cs: &[u8], k: usize, enc: Encoding) -> Vec<u64> {
        let mut v: Vec<u64> = dedukt_dna::kmer::kmer_words(cs, k, enc).collect();
        v.sort_unstable();
        v
    }

    /// §IV-A / Fig. 4: read GTCATCGCACTTACTGATG, k = 8, m = 4,
    /// lexicographic ordering, no canonicalization → exactly 3 supermers of
    /// total length 33 (average 11), vs 12 k-mers × 8 = 96 bases, a 2.9×
    /// reduction.
    #[test]
    fn paper_worked_example() {
        let read = codes(b"GTCATCGCACTTACTGATG");
        assert_eq!(read.len(), 19);
        let s = lex_scheme(4);
        let smers = build_supermers_reference::<u64>(&read, 8, &s);
        assert_eq!(smers.len(), 3, "paper: three supermers");
        let total: usize = smers.iter().map(|s| s.codes.len()).sum();
        assert_eq!(total, 33, "paper: total length 33");
        for sm in &smers {
            assert_eq!(sm.codes.len(), 11, "paper: average length 11");
        }
        // Fig. 4's reduction arithmetic: (19-8+1)*8 / 33 ≈ 2.9×.
        let kmer_bases = (19 - 8 + 1) * 8;
        let reduction = kmer_bases as f64 / total as f64;
        assert!((reduction - 2.909).abs() < 0.01, "reduction {reduction}");
    }

    #[test]
    fn reference_kmers_roundtrip() {
        let read = codes(b"GTCATCGCACTTACTGATGCCAGTTGCAACGGTA");
        let k = 8;
        let s = lex_scheme(4);
        let smers = build_supermers_reference::<u64>(&read, k, &s);
        let mut got: Vec<u64> = Vec::new();
        for sm in &smers {
            got.extend(dedukt_dna::kmer::kmer_words(&sm.codes, k, s.encoding));
        }
        got.sort_unstable();
        assert_eq!(got, direct_kmers(&read, k, s.encoding));
    }

    #[test]
    fn windowed_kmers_roundtrip_multiple_windows() {
        let read = codes(b"GTCATCGCACTTACTGATGCCAGTTGCAACGGTAGGATCCA");
        let k = 8;
        let window = 5;
        let s = lex_scheme(4);
        let smers = build_supermers_windowed(&read, k, window, &s);
        let mut got: Vec<u64> = Vec::new();
        for sm in &smers {
            assert!((sm.len as usize) < window + k);
            got.extend(sm.kmers(k));
        }
        got.sort_unstable();
        assert_eq!(got, direct_kmers(&read, k, s.encoding));
    }

    #[test]
    fn windowed_supermers_never_exceed_word_capacity() {
        // Paper defaults: k=17, window=15 → max 31 bases.
        let read: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
        let s = MinimizerScheme {
            encoding: Encoding::PaperRandom,
            ordering: OrderingKind::EncodedLexicographic,
            m: 7,
        };
        let smers = build_supermers_windowed(&read, 17, 15, &s);
        for sm in &smers {
            assert!((17..=31).contains(&(sm.len as usize)));
        }
    }

    #[test]
    fn every_kmer_shares_its_supermers_minimizer() {
        let read = codes(b"GTCATCGCACTTACTGATGCCAGTTGCAACGGTA");
        let k = 10;
        let s = lex_scheme(5);
        for sm in build_supermers_windowed(&read, k, 6, &s) {
            for kw in sm.kmers(k) {
                assert_eq!(
                    s.minimizer_of(kw, k).word,
                    sm.minimizer,
                    "k-mer in supermer must share the minimizer"
                );
            }
        }
        for sm in build_supermers_reference::<u64>(&read, k, &s) {
            for kw in dedukt_dna::kmer::kmer_words(&sm.codes, k, s.encoding) {
                assert_eq!(s.minimizer_of(kw, k).word, sm.minimizer);
            }
        }
    }

    #[test]
    fn short_reads_produce_nothing() {
        let read = codes(b"ACGT");
        assert!(build_supermers_reference::<u64>(&read, 8, &lex_scheme(4)).is_empty());
        assert!(build_supermers_windowed(&read, 8, 5, &lex_scheme(4)).is_empty());
        assert_eq!(num_windows(4, 8, 5), 0);
    }

    #[test]
    fn window_count_formula() {
        // 19 bases, k=8 → 12 k-mer positions; window 5 → 3 windows.
        assert_eq!(num_windows(19, 8, 5), 3);
        assert_eq!(num_windows(19, 8, 12), 1);
        assert_eq!(num_windows(8, 8, 5), 1);
    }

    #[test]
    fn windowed_equals_reference_when_window_is_huge() {
        // With a window ≥ nkmers and total bases ≤ 32, the windowed builder
        // must produce exactly the reference segmentation.
        let read = codes(b"GTCATCGCACTTACTGATGCCAGTTGCAACGG"); // 32 bases
        let k = 8;
        let s = lex_scheme(4);
        let refr = build_supermers_reference::<u64>(&read, k, &s);
        let win = build_supermers_windowed(&read, k, 25, &s);
        assert_eq!(refr.len(), win.len());
        for (r, w) in refr.iter().zip(&win) {
            assert_eq!(r.codes, w.codes(s.encoding));
            assert_eq!(r.minimizer, w.minimizer);
        }
    }

    #[test]
    fn supermer_accessors() {
        let read = codes(b"ACGTACGTACG");
        let s = lex_scheme(3);
        let smers = build_supermers_windowed(&read, 5, 4, &s);
        let total_kmers: usize = smers.iter().map(|sm| sm.num_kmers(5)).sum();
        assert_eq!(total_kmers, 11 - 5 + 1);
        // codes() roundtrip: concatenating supermer codes with overlaps
        // removed is not the read, but each supermer's codes must be a
        // substring of the read.
        for sm in &smers {
            let sc = sm.codes(s.encoding);
            assert!(read.windows(sc.len()).any(|w| w == &sc[..]));
        }
    }

    #[test]
    fn wire_bytes_constant_matches_paper() {
        // 8-byte packed word + 1 length byte (§V-D); 16 + 1 wide.
        assert_eq!(Supermer::WIRE_BYTES, 9);
        assert_eq!(SupermerW::<u128>::WIRE_BYTES, 17);
    }

    #[test]
    fn wide_windowed_kmers_roundtrip() {
        // k = 41 > 32 forces the u128 path end to end.
        let read: Vec<u8> = (0..170).map(|i| ((i * 7 + i / 5) % 4) as u8).collect();
        let k = 41;
        let window = 24; // window + k - 1 = 64 bases, exactly one u128
        let s = MinimizerScheme {
            encoding: Encoding::PaperRandom,
            ordering: OrderingKind::EncodedLexicographic,
            m: 11,
        };
        let smers = build_supermers_windowed_w::<u128>(&read, k, window, &s);
        let mut got: Vec<u128> = Vec::new();
        for sm in &smers {
            assert!((k..=window + k - 1).contains(&(sm.len as usize)));
            got.extend(sm.kmers(k));
            // Every constituent k-mer shares the supermer's minimizer.
            for kw in sm.kmers(k) {
                assert_eq!(s.minimizer_of(kw, k).word, sm.minimizer);
            }
        }
        got.sort_unstable();
        let mut expect: Vec<u128> = dedukt_dna::kmer::kmer_words_w(&read, k, s.encoding).collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn wide_reference_builder_matches_narrow_at_small_k() {
        // At k ≤ 32 the width parameter must be invisible.
        let read = codes(b"GTCATCGCACTTACTGATGCCAGTTGCAACGGTA");
        let s = lex_scheme(4);
        let narrow = build_supermers_reference::<u64>(&read, 8, &s);
        let wide = build_supermers_reference::<u128>(&read, 8, &s);
        assert_eq!(narrow, wide);
    }

    /// The builder before minimizers rolled: a fresh scan of all
    /// `k - m + 1` m-mers per k-mer. The oracle for the rolling one.
    fn supermers_of_window_rescan<W: KmerWord>(
        codes: &[u8],
        wstart: usize,
        k: usize,
        window: usize,
        scheme: &MinimizerScheme,
        out: &mut Vec<SupermerW<W>>,
    ) {
        debug_assert!(scheme.m < k && k <= W::MAX_K);
        debug_assert!(window + k - 1 <= W::MAX_K, "supermer must fit one word");
        let enc = scheme.encoding;
        let kmask = W::kmer_mask(k);
        let full = W::kmer_mask(W::MAX_K);
        let nkmers = codes.len().saturating_sub(k - 1);
        debug_assert!(wstart < nkmers);
        let wend = (wstart + window).min(nkmers);

        // First k-mer of the window starts a fresh supermer (Line 4-10).
        let mut kw = W::pack_codes(&codes[wstart..wstart + k], enc);
        let mut prev = scheme.minimizer_of(kw, k).word;
        let mut smer_word = kw;
        let mut smer_len = k;
        let mut smer_min = prev;

        // Remaining k-mers extend or flush (Line 11-22).
        for pos in wstart + 1..wend {
            // Roll the k-mer window by one base.
            let next_sym = enc.encode(codes[pos + k - 1]);
            kw = kw.roll_sym(next_sym, kmask);
            let mz = scheme.minimizer_of(kw, k).word;
            if mz != prev {
                out.push(SupermerW {
                    word: smer_word,
                    len: smer_len as u8,
                    minimizer: smer_min,
                });
                smer_word = kw;
                smer_len = k;
                smer_min = mz;
            } else {
                // ADDCHAR: append the new base to the supermer (Line 20-21).
                // The full-width mask never clips: len ≤ window + k - 1.
                smer_word = smer_word.roll_sym(next_sym, full);
                smer_len += 1;
            }
            prev = mz;
        }
        out.push(SupermerW {
            word: smer_word,
            len: smer_len as u8,
            minimizer: smer_min,
        });
    }

    fn scheme_of(encoding: bool, kmc2: bool, m: usize) -> MinimizerScheme {
        MinimizerScheme {
            encoding: if encoding {
                Encoding::PaperRandom
            } else {
                Encoding::Alphabetical
            },
            ordering: if kmc2 {
                OrderingKind::Kmc2
            } else {
                OrderingKind::EncodedLexicographic
            },
            m,
        }
    }

    /// The window run `[a, b)` of `codes` (picks taken modulo the window
    /// count) through the run builder and through the per-window
    /// rescanning oracle at width `W`.
    fn both_builders<W: KmerWord>(
        codes: &[u8],
        k: usize,
        window: usize,
        scheme: &MinimizerScheme,
        (a_pick, b_pick): (usize, usize),
    ) -> (Vec<SupermerW<W>>, Vec<SupermerW<W>>) {
        let nwin = num_windows(codes.len(), k, window);
        let a = a_pick % (nwin + 1);
        let b = a + b_pick % (nwin - a + 1);
        let (mut rolled, mut rescanned) = (Vec::new(), Vec::new());
        supermers_of_windows(codes, a..b, k, window, scheme, |sm| rolled.push(sm));
        for w in a..b {
            supermers_of_window_rescan(codes, w * window, k, window, scheme, &mut rescanned);
        }
        (rolled, rescanned)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The run builder, rolling minimizers across window boundaries,
        /// builds the same supermers as rescanning every k-mer window by
        /// window, for any run of a read's windows, at both widths,
        /// encodings and orderings — poly-A runs included, where ties and
        /// KMC 2 demotions are common.
        #[test]
        fn rolling_minimizers_match_the_rescan(
            bases in proptest::collection::vec(0u8..4, 0..120),
            poly_a in proptest::prelude::any::<bool>(),
            k in 2usize..32,
            m_pick in 0usize..64,
            window_pick in 0usize..64,
            run in (0usize..64, 0usize..64),
            encoding in proptest::prelude::any::<bool>(),
            kmc2 in proptest::prelude::any::<bool>(),
        ) {
            let codes: Vec<u8> = if poly_a {
                bases.iter().map(|&b| b & (b >> 1)).collect()
            } else {
                bases
            };
            let m = 1 + m_pick % (k - 1).min(31);
            let scheme = scheme_of(encoding, kmc2, m);
            let window = 1 + window_pick % (33 - k);
            let (rolled, rescanned) = both_builders::<u64>(&codes, k, window, &scheme, run);
            proptest::prop_assert_eq!(rolled, rescanned);
            let wide_k = k + 32;
            let m = 1 + m_pick % 31;
            let scheme = scheme_of(encoding, kmc2, m);
            let window = 1 + window_pick % (65 - wide_k);
            let (rolled, rescanned) = both_builders::<u128>(&codes, wide_k, window, &scheme, run);
            proptest::prop_assert_eq!(rolled, rescanned);
        }
    }
}
