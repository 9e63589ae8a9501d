//! The bin store: real files under a run directory, faults applied at
//! write time, verification at read time.
//!
//! Layout of a run directory:
//!
//! ```text
//! manifest.json        pass-1 manifest (fingerprint + per-bin rows)
//! bin-0007.g0.blk      bin 7's blocks, generation 0 (pass-1 write)
//! bin-0007.g1.blk      generation 1, if bin 7 was re-derived
//! bin-0007.counts.tsv  bin 7's completed pass-2 counts (resume state)
//! ```
//!
//! [`IoPlan`] write fates are applied *physically*: a torn write really
//! truncates the file mid-frame and a rotted block really carries a
//! flipped byte, so the pass-2 read path proves the checksummed format
//! catches them rather than trusting a simulated flag.

use std::path::{Path, PathBuf};

use crate::block::{frame_block, parse_block, BLOCK_HEADER_BYTES};
use crate::manifest::Manifest;
use crate::plan::{bit_rot, torn_write, IoPlan};

/// What a bin write did, for cost accounting and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BinWrite {
    /// Payload bytes the bin logically holds (sums the manifest row).
    pub logical_bytes: u64,
    /// Bytes physically written (less than framed size under a torn
    /// write).
    pub physical_bytes: u64,
    /// Blocks the bin logically holds.
    pub blocks: u32,
    /// Did the plan damage this generation (torn or rotted)? The driver
    /// never consults this — recovery must detect damage from the read
    /// path — but tests pin that injection really happened.
    pub damaged: bool,
}

/// Why a bin read failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReadFailure {
    /// The bytes came back but failed verification (torn frame, rotted
    /// payload, wrong block count). Retrying re-reads the same damaged
    /// file; only a re-derive at a fresh generation can help.
    Corrupt(String),
    /// The file could not be read at all (missing, permission).
    Io(String),
}

impl std::fmt::Display for ReadFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadFailure::Corrupt(msg) => write!(f, "corrupt: {msg}"),
            ReadFailure::Io(msg) => write!(f, "io: {msg}"),
        }
    }
}

/// Handle on a run directory.
#[derive(Clone, Debug)]
pub struct BinStore {
    dir: PathBuf,
}

impl BinStore {
    /// Opens `dir` as a run directory, creating it if needed.
    pub fn create(dir: &Path) -> Result<BinStore, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(BinStore {
            dir: dir.to_path_buf(),
        })
    }

    /// The run directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of `bin`'s block file at `generation`.
    pub fn bin_path(&self, bin: u32, generation: u32) -> PathBuf {
        self.dir.join(format!("bin-{bin:04}.g{generation}.blk"))
    }

    /// Path of `bin`'s completed-counts file.
    pub fn counts_path(&self, bin: u32) -> PathBuf {
        self.dir.join(format!("bin-{bin:04}.counts.tsv"))
    }

    /// Path of the run manifest.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Writes the manifest (atomically, like the counts files).
    pub fn write_manifest(&self, manifest: &Manifest) -> Result<(), String> {
        let path = self.manifest_path();
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, manifest.to_text())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, &path).map_err(|e| format!("rename to {}: {e}", path.display()))?;
        Ok(())
    }

    /// Reads and parses the manifest. `Ok(None)` when none exists (a
    /// fresh directory); `Err` when one exists but does not parse.
    pub fn read_manifest(&self) -> Result<Option<Manifest>, String> {
        let path = self.manifest_path();
        match std::fs::read_to_string(&path) {
            Ok(text) => Manifest::parse(&text)
                .map(Some)
                .map_err(|e| format!("{}: {e}", path.display())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("read {}: {e}", path.display())),
        }
    }

    /// Writes `bin`'s blocks at `generation`, applying the plan's write
    /// fates for that generation: a rotted block carries one flipped
    /// payload byte (after its checksum was computed), a torn write
    /// cuts the file mid-frame and drops every later block.
    pub fn write_bin(
        &self,
        bin: u32,
        generation: u32,
        blocks: &[Vec<u8>],
        plan: Option<&IoPlan>,
    ) -> Result<BinWrite, String> {
        let mut file = Vec::new();
        let mut report = BinWrite {
            blocks: blocks.len() as u32,
            ..BinWrite::default()
        };
        for (seq, payload) in blocks.iter().enumerate() {
            report.logical_bytes += payload.len() as u64;
            let mut framed = frame_block(bin, seq as u32, payload);
            let coords = (bin as u64, seq as u64, generation as u64);
            if plan.is_some_and(|p| bit_rot(p, coords.0, coords.1, coords.2)) {
                // Flip a byte the checksum already covered: mid-payload,
                // or a checksum byte when the payload is empty.
                let at = if payload.is_empty() {
                    BLOCK_HEADER_BYTES - 1
                } else {
                    BLOCK_HEADER_BYTES + payload.len() / 2
                };
                framed[at] ^= 0x01;
                report.damaged = true;
            }
            if plan.is_some_and(|p| torn_write(p, coords.0, coords.1, coords.2)) {
                file.extend_from_slice(&framed[..framed.len() / 2]);
                report.damaged = true;
                break;
            }
            file.extend_from_slice(&framed);
        }
        report.physical_bytes = file.len() as u64;
        let path = self.bin_path(bin, generation);
        std::fs::write(&path, file).map_err(|e| format!("write {}: {e}", path.display()))?;
        Ok(report)
    }

    /// Reads and verifies `bin`'s blocks at `generation`, expecting
    /// exactly `expect_blocks` frames (from the manifest — a tear at a
    /// frame boundary is otherwise invisible). Transient read errors
    /// are the *caller's* injection (drawn per attempt); this method
    /// reports only real damage.
    pub fn read_bin(
        &self,
        bin: u32,
        generation: u32,
        expect_blocks: u32,
    ) -> Result<Vec<Vec<u8>>, ReadFailure> {
        let path = self.bin_path(bin, generation);
        let buf = std::fs::read(&path)
            .map_err(|e| ReadFailure::Io(format!("read {}: {e}", path.display())))?;
        let mut payloads = Vec::with_capacity(expect_blocks as usize);
        let mut offset = 0;
        while offset < buf.len() {
            let (frame, next) = parse_block(&buf, offset).map_err(ReadFailure::Corrupt)?;
            if frame.bin != bin || frame.seq != payloads.len() as u32 {
                return Err(ReadFailure::Corrupt(format!(
                    "frame claims bin {} seq {}, expected bin {bin} seq {}",
                    frame.bin,
                    frame.seq,
                    payloads.len()
                )));
            }
            payloads.push(frame.payload);
            offset = next;
        }
        if payloads.len() as u32 != expect_blocks {
            return Err(ReadFailure::Corrupt(format!(
                "bin {bin} holds {} of {expect_blocks} blocks (torn tail)",
                payloads.len()
            )));
        }
        Ok(payloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::IoSpec;

    fn tmp_store(tag: &str) -> BinStore {
        let dir =
            std::env::temp_dir().join(format!("dedukt-store-test-{}-{tag}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        BinStore::create(&dir).unwrap()
    }

    fn sample_blocks() -> Vec<Vec<u8>> {
        (0..4u8).map(|b| vec![b; 32 + b as usize * 8]).collect()
    }

    #[test]
    fn clean_write_read_roundtrips() {
        let store = tmp_store("clean");
        let blocks = sample_blocks();
        let w = store.write_bin(3, 0, &blocks, None).unwrap();
        assert!(!w.damaged);
        assert_eq!(w.blocks, 4);
        assert_eq!(
            w.logical_bytes,
            blocks.iter().map(|b| b.len() as u64).sum::<u64>()
        );
        assert_eq!(
            w.physical_bytes,
            w.logical_bytes + 4 * BLOCK_HEADER_BYTES as u64
        );
        assert_eq!(store.read_bin(3, 0, 4).unwrap(), blocks);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn empty_bin_roundtrips() {
        let store = tmp_store("empty");
        let w = store.write_bin(0, 0, &[], None).unwrap();
        assert_eq!(w.physical_bytes, 0);
        assert_eq!(store.read_bin(0, 0, 0).unwrap(), Vec::<Vec<u8>>::new());
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn injected_damage_is_physically_on_disk_and_detected() {
        let store = tmp_store("damage");
        let blocks = sample_blocks();
        // Find seeds where the very first draw fates bin 1's write, so
        // the test does not depend on rate luck.
        let torn_plan = (0..)
            .map(|seed| IoPlan::new(seed, IoSpec::parse("torn=0.3,rot=0").unwrap()))
            .find(|p| torn_write(p, 1, 0, 0))
            .unwrap();
        let w = store.write_bin(1, 0, &blocks, Some(&torn_plan)).unwrap();
        assert!(w.damaged);
        assert!(w.physical_bytes < w.logical_bytes);
        assert!(matches!(
            store.read_bin(1, 0, 4),
            Err(ReadFailure::Corrupt(_))
        ));

        let rot_plan = (0..)
            .map(|seed| IoPlan::new(seed, IoSpec::parse("torn=0,rot=0.3").unwrap()))
            .find(|p| bit_rot(p, 1, 1, 0) && !bit_rot(p, 1, 0, 0))
            .unwrap();
        let w = store.write_bin(1, 0, &blocks, Some(&rot_plan)).unwrap();
        assert!(w.damaged);
        // Full length — rot is silent until the checksum check.
        assert_eq!(
            w.physical_bytes,
            w.logical_bytes + 4 * BLOCK_HEADER_BYTES as u64
        );
        match store.read_bin(1, 0, 4) {
            Err(ReadFailure::Corrupt(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("rot not detected: {other:?}"),
        }
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn fresh_generation_escapes_persistent_damage() {
        let store = tmp_store("generation");
        let blocks = sample_blocks();
        // A plan that damages generation 0 of bin 2 but leaves
        // generation 1 clean — the re-derive path in miniature.
        let plan = (0..)
            .map(|seed| IoPlan::new(seed, IoSpec::parse("torn=0.3,rot=0").unwrap()))
            .find(|p| torn_write(p, 2, 0, 0) && (0..4).all(|s| !torn_write(p, 2, s, 1)))
            .unwrap();
        store.write_bin(2, 0, &blocks, Some(&plan)).unwrap();
        assert!(store.read_bin(2, 0, 4).is_err());
        store.write_bin(2, 1, &blocks, Some(&plan)).unwrap();
        assert_eq!(store.read_bin(2, 1, 4).unwrap(), blocks);
        std::fs::remove_dir_all(store.dir()).ok();
    }

    #[test]
    fn missing_bin_is_an_io_failure_and_manifest_roundtrips() {
        let store = tmp_store("manifest");
        assert!(matches!(store.read_bin(9, 0, 1), Err(ReadFailure::Io(_))));
        assert_eq!(store.read_manifest().unwrap(), None);
        let m = Manifest {
            fingerprint: "fp".into(),
            bins: vec![crate::manifest::BinMeta {
                bin: 0,
                blocks: 1,
                bytes: 10,
                instances: 5,
            }],
        };
        store.write_manifest(&m).unwrap();
        assert_eq!(store.read_manifest().unwrap(), Some(m));
        std::fs::write(store.manifest_path(), "garbage").unwrap();
        assert!(store.read_manifest().is_err());
        std::fs::remove_dir_all(store.dir()).ok();
    }
}
