//! Per-run manifest and per-bin result files — the resume protocol.
//!
//! The manifest is written once, after pass 1 lands every bin, and
//! records the run *fingerprint* (every configuration axis that shapes
//! the stored bytes) plus one row per bin. Pass 2 consumes it to size
//! each bin's count table and to know how many blocks a healthy bin
//! file holds (a torn tail at a frame boundary is otherwise
//! undetectable). `--resume` re-reads it, rejects a fingerprint
//! mismatch, and skips every bin whose result file is already complete.
//!
//! Both artifacts are line-oriented: the manifest reuses the journal's
//! flat-JSON scalar codec ([`dedukt_sim::journal::parse_flat_json`]),
//! and the result files are `key-hex TAB count` under a `#`-prefixed
//! stats header. Result files are written to a temp name and renamed,
//! so a kill mid-write leaves no half-complete file a resume could
//! mistake for a finished bin.

use std::path::Path;

use dedukt_sim::journal::parse_flat_json;

/// One bin's manifest row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BinMeta {
    /// Bin index in `0..nbins`.
    pub bin: u32,
    /// Blocks in a healthy generation of this bin's file.
    pub blocks: u32,
    /// Logical payload bytes across those blocks.
    pub bytes: u64,
    /// k-mer instances the bin's items expand to (sizes the pass-2
    /// count table).
    pub instances: u64,
}

/// The pass-1 manifest: fingerprint plus one [`BinMeta`] per bin.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Configuration fingerprint a resume must match exactly.
    pub fingerprint: String,
    /// Bin rows, indexed by bin.
    pub bins: Vec<BinMeta>,
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c => vec![c],
        })
        .collect()
}

impl Manifest {
    /// Serializes to the line-oriented flat-JSON text format.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{{\"ev\":\"manifest\",\"fingerprint\":\"{}\",\"nbins\":{}}}\n",
            escape(&self.fingerprint),
            self.bins.len()
        );
        for b in &self.bins {
            out.push_str(&format!(
                "{{\"ev\":\"bin\",\"bin\":{},\"blocks\":{},\"bytes\":{},\"instances\":{}}}\n",
                b.bin, b.blocks, b.bytes, b.instances
            ));
        }
        out
    }

    /// Parses [`Manifest::to_text`] output, verifying the row count and
    /// bin ordering so a truncated manifest never passes.
    pub fn parse(text: &str) -> Result<Manifest, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let head = parse_flat_json(lines.next().ok_or("manifest is empty")?)?;
        if head.str_field("ev")? != "manifest" {
            return Err("manifest header line missing".into());
        }
        let fingerprint = head.str_field("fingerprint")?.to_string();
        let nbins = head.u64_field("nbins")? as usize;
        let mut bins = Vec::with_capacity(nbins);
        for line in lines {
            let row = parse_flat_json(line)?;
            if row.str_field("ev")? != "bin" {
                return Err(format!("unexpected manifest row `{line}`"));
            }
            let bin = row.u64_field("bin")? as u32;
            if bin as usize != bins.len() {
                return Err(format!(
                    "manifest bins out of order: row {} claims bin {bin}",
                    bins.len()
                ));
            }
            bins.push(BinMeta {
                bin,
                blocks: row.u64_field("blocks")? as u32,
                bytes: row.u64_field("bytes")?,
                instances: row.u64_field("instances")?,
            });
        }
        if bins.len() != nbins {
            return Err(format!(
                "manifest truncated: header claims {nbins} bins, found {}",
                bins.len()
            ));
        }
        Ok(Manifest { fingerprint, bins })
    }
}

/// One completed bin's pass-2 result, as persisted for resume. Keys are
/// width-erased to `u128` (the widest packed key) for the text format;
/// the driver narrows them back on load.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BinCounts {
    /// Surviving `(key, count)` entries (post `--min-count`).
    pub entries: Vec<(u128, u32)>,
    /// k-mer instances the surviving entries account for.
    pub instances: u64,
    /// Distinct k-mers dropped by the `--min-count` pre-filter.
    pub filtered: u64,
    /// k-mer instances those dropped entries carried.
    pub filtered_instances: u64,
}

/// Appends `n` as lowercase hex without leading zeros, as `{n:x}` does.
fn push_hex(out: &mut Vec<u8>, n: u128) {
    let digits = (128 - n.leading_zeros()).div_ceil(4).max(1);
    for shift in (0..digits).rev().map(|d| 4 * d) {
        out.push(b"0123456789abcdef"[(n >> shift) as usize & 0xf]);
    }
}

/// Appends `n` in decimal, as `{n}` does.
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

/// Persists a completed bin's counts atomically (temp file + rename), so
/// a kill can never leave a partial file that [`read_bin_counts`] would
/// take for a finished bin.
pub fn write_bin_counts(path: &Path, counts: &BinCounts) -> Result<(), String> {
    // One buffer for the whole file: a 63-mer is 32 hex digits, a count
    // at most 10 decimal ones.
    let mut text = format!(
        "# entries={} instances={} filtered={} filtered_instances={}\n",
        counts.entries.len(),
        counts.instances,
        counts.filtered,
        counts.filtered_instances
    )
    .into_bytes();
    text.reserve(counts.entries.len() * 24);
    for &(key, count) in &counts.entries {
        push_hex(&mut text, key);
        text.push(b'\t');
        push_decimal(&mut text, count);
        text.push(b'\n');
    }
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, text).map_err(|e| format!("write {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
    Ok(())
}

/// Loads a bin's persisted counts, returning `None` when the file is
/// absent or malformed — either way the bin is simply not done and
/// pass 2 re-counts it.
pub fn read_bin_counts(path: &Path) -> Option<BinCounts> {
    let text = std::fs::read_to_string(path).ok()?;
    let mut lines = text.lines();
    let header = lines.next()?.strip_prefix("# ")?;
    let mut counts = BinCounts::default();
    let mut expected_entries = None;
    for part in header.split_whitespace() {
        let (key, value) = part.split_once('=')?;
        let value = value.parse::<u64>().ok()?;
        match key {
            "entries" => expected_entries = Some(value as usize),
            "instances" => counts.instances = value,
            "filtered" => counts.filtered = value,
            "filtered_instances" => counts.filtered_instances = value,
            _ => return None,
        }
    }
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let (hex, count) = line.split_once('\t')?;
        counts
            .entries
            .push((u128::from_str_radix(hex, 16).ok()?, count.parse().ok()?));
    }
    (Some(counts.entries.len()) == expected_entries).then_some(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn sample() -> Manifest {
        Manifest {
            fingerprint: "mode=gpu-supermer k=17 nbins=4".into(),
            bins: (0..4)
                .map(|bin| BinMeta {
                    bin,
                    blocks: 2 + bin,
                    bytes: 100 * (bin as u64 + 1),
                    instances: 1000 + bin as u64,
                })
                .collect(),
        }
    }

    #[test]
    fn manifest_roundtrips() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn truncated_manifest_is_rejected() {
        let text = sample().to_text();
        let cut: String = text.lines().take(3).map(|l| format!("{l}\n")).collect();
        assert!(Manifest::parse(&cut).unwrap_err().contains("truncated"));
        assert!(Manifest::parse("").unwrap_err().contains("empty"));
    }

    #[test]
    fn out_of_order_bins_are_rejected() {
        let mut m = sample();
        m.bins.swap(1, 2);
        assert!(Manifest::parse(&m.to_text())
            .unwrap_err()
            .contains("out of order"));
    }

    #[test]
    fn fingerprints_with_quotes_survive() {
        let m = Manifest {
            fingerprint: "weird \"quoted\" fp".into(),
            bins: vec![],
        };
        assert_eq!(Manifest::parse(&m.to_text()).unwrap(), m);
    }

    #[test]
    fn bin_counts_roundtrip_and_reject_partials() {
        let dir =
            std::env::temp_dir().join(format!("dedukt-store-test-{}-counts", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bin-0000.counts.tsv");
        let counts = BinCounts {
            entries: vec![(0xDEAD_BEEF, 3), (u128::MAX - 1, 70_000)],
            instances: 70_003,
            filtered: 5,
            filtered_instances: 5,
        };
        write_bin_counts(&path, &counts).unwrap();
        assert_eq!(read_bin_counts(&path), Some(counts));
        // A truncated file (as a crash before the atomic rename could
        // never produce, but defense in depth) reads as "not done".
        let text = std::fs::read_to_string(&path).unwrap();
        let cut: String = text.lines().take(2).map(|l| format!("{l}\n")).collect();
        std::fs::write(&path, cut).unwrap();
        assert_eq!(read_bin_counts(&path), None);
        assert_eq!(read_bin_counts(&dir.join("absent.tsv")), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bin_counts_bytes_equal_the_format_formulation() {
        let dir =
            std::env::temp_dir().join(format!("dedukt-store-test-{}-bytes", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bin-0001.counts.tsv");
        // Every hex digit count, at both edges.
        let edges = (1..32).flat_map(|d| [((1u128 << (4 * d)) - 1, 9), (1 << (4 * d), 10)]);
        let counts = BinCounts {
            entries: [
                (0, 1),
                (0xF, 9),
                (0x10, 10),
                (u64::MAX as u128, u32::MAX),
                (u64::MAX as u128 + 1, 2),
                (0x1234_5678_9ABC_DEF0_0FED_CBA9_8765_4321, 65_536),
                ((1 << 126) - 1, 10),
                (1 << 125, 1),
                (u128::MAX - 1, 3),
            ]
            .into_iter()
            .chain(edges)
            .collect(),
            instances: 1 << 40,
            filtered: 7,
            filtered_instances: u64::MAX,
        };
        write_bin_counts(&path, &counts).unwrap();
        let mut expect = String::new();
        writeln!(
            expect,
            "# entries={} instances={} filtered={} filtered_instances={}",
            counts.entries.len(),
            counts.instances,
            counts.filtered,
            counts.filtered_instances
        )
        .unwrap();
        for &(key, count) in &counts.entries {
            writeln!(expect, "{key:x}\t{count}").unwrap();
        }
        assert_eq!(std::fs::read_to_string(&path).unwrap(), expect);
        assert_eq!(read_bin_counts(&path), Some(counts));
        let empty = BinCounts::default();
        write_bin_counts(&path, &empty).unwrap();
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            "# entries=0 instances=0 filtered=0 filtered_instances=0\n"
        );
        assert_eq!(read_bin_counts(&path), Some(empty));
        std::fs::remove_dir_all(&dir).ok();
    }
}
