//! Wire codec for supermer buckets — KMC 2-style base packing.
//!
//! The supermer exchange normally ships every supermer as a fixed
//! `WORD_BYTES + 1` record (packed word + length byte): 9 B at the u64
//! width, 17 B at u128, regardless of how many bases the supermer
//! actually holds. KMC 2 (PAPERS.md) shows (k,x)-mer payloads compress
//! substantially with a cheap, branch-light codec; this module is our
//! version of that idea, applied per minimizer bucket behind
//! `--wire-compress`:
//!
//! ```text
//! bucket := varint(n)                      number of supermers
//!           varint(min_len)                shortest supermer, bases   (n > 0)
//!           flag: u8                       1 = nibble-packed deltas
//!           deltas                         len_i − min_len, one per supermer
//!           bases                          ceil(len_i / 4) bytes per supermer
//! ```
//!
//! Lengths are delta-coded against the bucket minimum (supermers of one
//! minimizer bucket cluster tightly around `window + k − 1`); when every
//! delta fits a nibble the deltas pack two per byte (low nibble first).
//! Bases are the raw 2-bit codes of the packed word, MSB-first within
//! each byte, byte-aligned per supermer, trailing bits zero. A typical
//! paper-shape bucket (k = 17, window = 15, ~31-base supermers) costs
//! ~8–9 B of bases + ~0.5 B of length instead of the flat 9 B — and the
//! win grows at the u128 width, where the flat record is 17 B but the
//! bases still cost only `ceil(len/4)` bytes.
//!
//! The codec is exactly invertible ([`decode_bucket`]` ∘ `[`encode_bucket`]
//! ` = id`), has no dependence on `k` or the encoding (it moves raw 2-bit
//! codes), and is deterministic — a corrupted-then-retried bucket
//! re-encodes to the identical byte string, so checksum frames and fault
//! fates compose with it unchanged.

use dedukt_dna::kmer::KmerWord;

/// Appends `v` as a LEB128 varint.
fn push_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint at `*pos`, advancing it; `Err` on a buffer that
/// ends mid-varint or a value overrunning 64 bits.
fn try_read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let Some(&byte) = buf.get(*pos) else {
            return Err(format!("varint truncated at byte {}", *pos));
        };
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err("varint overran 64 bits".to_string());
        }
    }
}

/// Encodes one minimizer bucket of `(packed word, length)` supermers into
/// its wire form. The empty bucket encodes to the empty byte string, so
/// "nothing to send" stays nothing on the wire (and keeps its
/// always-deliver fault semantics).
pub fn encode_bucket<K: KmerWord>(items: &[(K, u8)]) -> Vec<u8> {
    if items.is_empty() {
        return Vec::new();
    }
    let min_len = items.iter().map(|&(_, l)| l).min().expect("non-empty");
    let deltas: Vec<u8> = items.iter().map(|&(_, l)| l - min_len).collect();
    let nibble = deltas.iter().all(|&d| d < 16);
    let mut out = Vec::with_capacity(2 + items.len() * (K::MAX_K.div_ceil(4) + 1));
    push_varint(&mut out, items.len() as u64);
    push_varint(&mut out, u64::from(min_len));
    out.push(u8::from(nibble));
    if nibble {
        for pair in deltas.chunks(2) {
            // Low nibble first; a trailing odd delta leaves the high
            // nibble zero.
            out.push(pair[0] | (pair.get(1).copied().unwrap_or(0) << 4));
        }
    } else {
        out.extend_from_slice(&deltas);
    }
    for &(word, len) in items {
        let len = len as usize;
        debug_assert!(len >= 1, "zero-length supermer");
        // 2-bit codes, MSB-first within each byte, byte-aligned per
        // supermer so decode never has to carry bits across items.
        let mut i = 0;
        while i < len {
            let mut byte = 0u8;
            for slot in 0..4 {
                if i + slot < len {
                    let code = word.submer_of(len, i + slot, 1) as u8;
                    byte |= code << (6 - 2 * slot);
                }
            }
            out.push(byte);
            i += 4;
        }
    }
    out
}

/// Bytes [`encode_bucket`] writes for a bucket of supermers of lengths
/// `lens`. The encoded size depends on the lengths alone, so the exchange
/// prices a compressed bucket without building it.
pub fn encoded_len(lens: impl IntoIterator<Item = u8>) -> u64 {
    let (mut n, mut min, mut max, mut bases) = (0u64, u8::MAX, 0u8, 0u64);
    for len in lens {
        n += 1;
        min = min.min(len);
        max = max.max(len);
        bases += u64::from(len).div_ceil(4);
    }
    if n == 0 {
        return 0;
    }
    let varint_len = |v: u64| u64::from((64 - v.leading_zeros()).max(1).div_ceil(7));
    let deltas = if max - min < 16 { n.div_ceil(2) } else { n };
    varint_len(n) + varint_len(u64::from(min)) + 1 + deltas + bases
}

/// Decodes one wire-form bucket back to `(packed word, length)` supermers.
/// Exact inverse of [`encode_bucket`]; panics on input that codec never
/// produced (the exchange layer's checksum frames catch wire corruption
/// before payloads reach this point). Callers holding bytes of unproven
/// provenance use [`try_decode_bucket`] instead.
pub fn decode_bucket<K: KmerWord>(buf: &[u8]) -> Vec<(K, u8)> {
    try_decode_bucket(buf).expect("bucket payload from the codec")
}

/// Fallible [`decode_bucket`]: every read is bounds-checked and every
/// header field sanity-checked, so a truncated or bit-flipped frame comes
/// back as `Err`, never a panic — and never an out-of-range supermer (a
/// zero or word-overflowing length). A frame that *passes* may still
/// differ from what was sent (a flipped base bit is undetectable without
/// the checksum layer), but it is always a well-formed bucket.
pub fn try_decode_bucket<K: KmerWord>(buf: &[u8]) -> Result<Vec<(K, u8)>, String> {
    if buf.is_empty() {
        return Ok(Vec::new());
    }
    let cap = K::WORD_BYTES * 4;
    let mut pos = 0usize;
    let n64 = try_read_varint(buf, &mut pos)?;
    // An honest non-empty bucket spends ≥ 1 byte per supermer on bases.
    if n64 == 0 || n64 > buf.len() as u64 {
        return Err(format!(
            "implausible supermer count {n64} in a {}-byte bucket",
            buf.len()
        ));
    }
    let n = n64 as usize;
    let min_len = try_read_varint(buf, &mut pos)?;
    if min_len == 0 || min_len > cap as u64 {
        return Err(format!(
            "bucket minimum length {min_len} outside 1..={cap} bases"
        ));
    }
    let flag = *buf
        .get(pos)
        .ok_or_else(|| "bucket truncated before the delta flag".to_string())?;
    pos += 1;
    if flag > 1 {
        return Err(format!("delta flag {flag} is neither 0 nor 1"));
    }
    let mut lens = Vec::with_capacity(n);
    if flag == 1 {
        let packed = n.div_ceil(2);
        let deltas = buf
            .get(pos..pos + packed)
            .ok_or_else(|| "bucket truncated in the nibble deltas".to_string())?;
        for i in 0..n {
            let byte = deltas[i / 2];
            let d = if i % 2 == 0 { byte & 0x0f } else { byte >> 4 };
            lens.push(min_len + u64::from(d));
        }
        pos += packed;
    } else {
        let deltas = buf
            .get(pos..pos + n)
            .ok_or_else(|| "bucket truncated in the raw deltas".to_string())?;
        for &d in deltas {
            lens.push(min_len + u64::from(d));
        }
        pos += n;
    }
    let mut out = Vec::with_capacity(n);
    for &len in &lens {
        if len > cap as u64 {
            return Err(format!("supermer length {len} exceeds {cap} bases"));
        }
        let l = len as usize;
        let mask = K::kmer_mask(l);
        let mut word = K::ZERO;
        let nbytes = l.div_ceil(4);
        let bases = buf
            .get(pos..pos + nbytes)
            .ok_or_else(|| "bucket truncated in the packed bases".to_string())?;
        for (b, &byte) in bases.iter().enumerate() {
            for slot in 0..4 {
                let i = b * 4 + slot;
                if i < l {
                    word = word.roll_sym((byte >> (6 - 2 * slot)) & 0b11, mask);
                }
            }
        }
        pos += nbytes;
        out.push((word, len as u8));
    }
    if pos != buf.len() {
        return Err(format!(
            "trailing bytes after bucket payload ({} of {} consumed)",
            pos,
            buf.len()
        ));
    }
    Ok(out)
}

/// The flat uncompressed wire cost of one supermer at this width —
/// packed word + 1 length byte (9 B for u64 keys, 17 B for u128). The
/// journal's `bytes` field reports this *logical* volume even when the
/// codec shrinks the physical `comp_bytes`.
pub fn flat_wire_bytes<K: KmerWord>() -> u64 {
    K::WORD_BYTES as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;

    fn word_of(codes: &[u8]) -> u64 {
        let mask = u64::kmer_mask(codes.len());
        codes.iter().fold(0u64, |w, &c| w.roll_sym(c, mask))
    }

    #[test]
    fn encoded_len_matches_the_encoding() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for n in [0usize, 1, 2, 3, 127, 128, 300, 20_000] {
            for spread in [1u64, 16, 17, 32] {
                let items: Vec<(u64, u8)> = (0..n)
                    .map(|_| {
                        let len = (1 + next() % spread) as u8;
                        (next() & u64::kmer_mask(len as usize), len)
                    })
                    .collect();
                assert_eq!(
                    encoded_len(items.iter().map(|&(_, l)| l)),
                    encode_bucket(&items).len() as u64,
                    "n={n} spread={spread}"
                );
            }
        }
    }

    #[test]
    fn roundtrips_typical_buckets() {
        // Paper-shape supermers: lengths clustered near window + k − 1.
        let items: Vec<(u64, u8)> = (0..40)
            .map(|i| {
                let len = 17 + (i % 15) as u8;
                let codes: Vec<u8> = (0..len).map(|j| ((i + j as usize) % 4) as u8).collect();
                (word_of(&codes), len)
            })
            .collect();
        let wire = encode_bucket(&items);
        assert_eq!(decode_bucket::<u64>(&wire), items);
        // The whole point: smaller than the flat 9 B/supermer record.
        assert!(
            (wire.len() as u64) < items.len() as u64 * flat_wire_bytes::<u64>(),
            "{} bytes vs flat {}",
            wire.len(),
            items.len() as u64 * flat_wire_bytes::<u64>()
        );
    }

    #[test]
    fn roundtrips_at_the_wide_width() {
        let items: Vec<(u128, u8)> = (0..20)
            .map(|i| {
                // Lengths cluster within a nibble of the bucket minimum,
                // as real minimizer buckets do around window + k − 1.
                let len = 41 + (i % 10) as u8;
                let mask = u128::kmer_mask(len as usize);
                let word = (0..len).fold(0u128, |w, j| w.roll_sym(((i as u8 + j) % 4) & 3, mask));
                (word, len)
            })
            .collect();
        let wire = encode_bucket(&items);
        assert_eq!(decode_bucket::<u128>(&wire), items);
        // 17 B flat vs ≤ 16 B packed + sub-byte length: > 1.3× shrink.
        let flat = items.len() as u64 * flat_wire_bytes::<u128>();
        assert!((wire.len() as f64) < flat as f64 / 1.3);
    }

    #[test]
    fn empty_and_singleton_buckets() {
        assert!(encode_bucket::<u64>(&[]).is_empty());
        assert!(decode_bucket::<u64>(&[]).is_empty());
        let one = vec![(word_of(&[3, 0, 1, 2, 3]), 5u8)];
        assert_eq!(decode_bucket::<u64>(&encode_bucket(&one)), one);
    }

    #[test]
    fn wide_length_spread_falls_back_to_raw_deltas() {
        // Deltas ≥ 16 force the raw-byte delta section.
        let items: Vec<(u64, u8)> = vec![
            (word_of(&[1]), 1),
            (word_of(&(0..31).map(|i| i % 4).collect::<Vec<_>>()), 31),
        ];
        let wire = encode_bucket(&items);
        // Layout: varint(n), varint(min_len), flag — flag sits at byte 2.
        assert_eq!(wire[2], 0, "flag byte must select raw deltas");
        assert_eq!(decode_bucket::<u64>(&wire), items);
    }

    #[test]
    fn encoding_is_deterministic() {
        let items: Vec<(u64, u8)> = (0..9)
            .map(|i| (word_of(&[i % 4, (i + 1) % 4, (i + 2) % 4]), 3u8))
            .collect();
        assert_eq!(encode_bucket(&items), encode_bucket(&items));
    }

    #[test]
    fn varints_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX] {
            let mut buf = Vec::new();
            push_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(try_read_varint(&buf, &mut pos), Ok(v));
            assert_eq!(pos, buf.len());
        }
        // Truncated mid-continuation and over-long encodings are errors.
        let mut pos = 0;
        assert!(try_read_varint(&[0x80], &mut pos).is_err());
        let mut pos = 0;
        assert!(try_read_varint(&[0x80; 11], &mut pos).is_err());
    }

    #[test]
    fn try_decode_rejects_mangled_frames_without_panicking() {
        let items: Vec<(u64, u8)> = (0..12)
            .map(|i| {
                let len = 17 + (i % 5) as u8;
                let codes: Vec<u8> = (0..len).map(|j| ((i + j as usize) % 4) as u8).collect();
                (word_of(&codes), len)
            })
            .collect();
        let wire = encode_bucket(&items);
        assert_eq!(try_decode_bucket::<u64>(&wire), Ok(items.clone()));
        // Every strict prefix either errors or decodes to something else —
        // a truncation is never silently accepted as the original bucket.
        for cut in 0..wire.len() {
            if let Ok(decoded) = try_decode_bucket::<u64>(&wire[..cut]) {
                assert_ne!(decoded, items, "truncation at {cut} mis-decoded");
            }
        }
    }
}
