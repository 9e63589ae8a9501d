//! Open-addressing k-mer count tables with linear probing (§III-B3).
//!
//! Two variants share the scheme (a power-of-two table of packed k-mer
//! keys plus 32-bit counts, linear probing, an all-ones empty sentinel:
//! `u64::MAX` at the narrow width, `u128::MAX` at the wide width). The
//! sentinels stay valid at both widths because a packed k-mer occupies at
//! most `2k` bits of its word — 62 of 64 for k ≤ 31, 126 of 128 for wide
//! k ≤ 63 — so a real key always has zero top bits and can never be
//! all-ones:
//!
//! * [`HostCountTable`] — single-owner, growable; used by the CPU baseline
//!   ranks.
//! * [`DeviceCountTable`] — fixed-capacity, charged against the device
//!   budget; insertion is the probe sequence of the CUDA claim loop the
//!   paper describes ("Both operations are handled atomically to avoid
//!   race conditions … collisions are addressed using … linear probing").
//!   A rank owns its device and runs its blocks in order, so the table has
//!   a single writer; the count kernel prices the CAS and `atomicAdd` it
//!   stands for. The device is charged for every slot.
//!
//! Neither keeps a slot array on the host. Both hold the same image, sized
//! by the distinct keys: one occupancy bit per slot plus an index of
//! `(key, count, slot)` entries, probed by one rule. Slots are never
//! freed, so a stored key's probe walk is `((slot − home) & mask) + 1`
//! steps and a new key claims the first free slot at or after its home —
//! the same outcomes, probe counts, slot order and device charge as a full
//! slot array, full tables included.

use crate::config::CountingConfig;
use crate::width::PackedKmer;
use dedukt_dna::spectrum::Spectrum;
use dedukt_gpu::{Device, OomError, Reservation};
use dedukt_hash::Murmur3x64;
use std::cell::RefCell;

/// A packed k-mer key a count table can store: `u64` for k ≤ 31 (the
/// paper's regime) or `u128` for wide k ≤ 63 (this reproduction's long-k
/// extension). Keys are `Ord` so spilled k-mers can be merged back into
/// a table snapshot by deterministic sorted-run coalescing.
pub trait TableKey: Copy + Eq + Ord + std::hash::Hash + std::fmt::Debug + Send + Sync {
    /// Sentinel marking an empty slot; no real packed k-mer may equal it
    /// (guaranteed by the k-length caps above).
    const EMPTY: Self;

    /// 64-bit MurmurHash3 of the key.
    fn hash_with(&self, hasher: &Murmur3x64) -> u64;
}

impl TableKey for u64 {
    const EMPTY: u64 = u64::MAX;

    #[inline]
    fn hash_with(&self, hasher: &Murmur3x64) -> u64 {
        hasher.hash_u64(*self)
    }
}

impl TableKey for u128 {
    const EMPTY: u128 = u128::MAX;

    #[inline]
    fn hash_with(&self, hasher: &Murmur3x64) -> u64 {
        hasher.hash_u128(*self)
    }
}

/// Rounds a slot count up to a power of two able to hold `expected`
/// distinct keys at `load_factor`.
pub fn capacity_for(expected: usize, load_factor: f64) -> usize {
    assert!((0.0..1.0).contains(&load_factor) && load_factor > 0.0);
    let needed = ((expected.max(1) as f64) / load_factor).ceil() as usize;
    needed.next_power_of_two()
}

/// Sizes a table for the k-mers a rank is about to count, from its
/// received instance count (distinct ≤ instances).
pub fn table_capacity(cfg: &CountingConfig, received_kmers: usize) -> usize {
    capacity_for(received_kmers, cfg.table_load_factor)
}

/// A growable, single-owner open-addressing count table, generic over
/// the packed key width (`u64` by default; `u128` for the wide-k
/// extension). It doubles its slot count before an insert would take it
/// past `max_load`.
#[derive(Clone, Debug)]
pub struct HostCountTable<K: TableKey = u64> {
    image: Image<K>,
    max_load: f64,
    probes: u64,
}

impl<K: TableKey> HostCountTable<K> {
    /// Creates a table sized for `expected` distinct keys.
    pub fn with_expected(expected: usize, max_load: f64, hash_seed: u64) -> HostCountTable<K> {
        let cap = capacity_for(expected, max_load).max(16);
        HostCountTable {
            image: Image::new(cap, Murmur3x64::new(hash_seed)),
            max_load,
            probes: 0,
        }
    }

    /// Current slot capacity.
    pub fn capacity(&self) -> usize {
        self.image.mask + 1
    }

    /// Number of distinct keys stored.
    pub fn distinct(&self) -> usize {
        self.image.distinct
    }

    /// Total count mass (sum of all counts).
    pub fn total(&self) -> u64 {
        self.image.entries.iter().map(|e| u64::from(e.count)).sum()
    }

    /// Total probe steps performed by inserts (collision metric).
    pub fn probe_steps(&self) -> u64 {
        self.probes
    }

    /// Inserts one k-mer instance: increments its count, creating the
    /// entry if new (Algorithm 1, lines 11-15).
    pub fn insert(&mut self, kmer: K) {
        let hash = self.image.hash(kmer);
        self.insert_hashed(kmer, hash);
    }

    /// Inserts one instance of each of `kmers` in order — the same
    /// counts, probe steps and growth as calling
    /// [`HostCountTable::insert`] on each. Hashes a group at a time, like
    /// [`DeviceCountTable::insert_all`].
    pub fn insert_all(&mut self, kmers: &[K]) {
        for group in kmers.chunks(GROUP) {
            let hashes = self.image.hash_group(group);
            for (&hash, &kmer) in hashes.iter().zip(group) {
                self.insert_hashed(kmer, hash);
            }
        }
    }

    /// [`HostCountTable::insert`] of a k-mer already hashed. Doubles the
    /// slot count first if a new key could take the table past
    /// `max_load`.
    #[inline]
    fn insert_hashed(&mut self, kmer: K, hash: u64) {
        if (self.distinct() + 1) as f64 > self.capacity() as f64 * self.max_load {
            self.grow();
        }
        let InsertOutcome::Inserted(r) = self.image.insert(kmer, hash, 1) else {
            unreachable!("the load bound keeps a slot free");
        };
        // A walk steps past `steps − 1` slots before it lands.
        self.probes += u64::from(r.steps - 1);
    }

    /// The count of `kmer`, or `None` if absent.
    pub fn get(&self, kmer: K) -> Option<u32> {
        self.image.get(kmer)
    }

    /// Iterates `(kmer, count)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.image.pairs()
    }

    /// Builds this table's k-mer spectrum.
    pub fn spectrum(&self) -> Spectrum {
        Spectrum::from_counts(self.iter().map(|(_, c)| c))
    }

    /// Doubles the slot count. Each key re-claims the first free slot at
    /// or after its new home, in old slot order — where rehashing a slot
    /// array into a fresh one puts it. The key index is probed from the
    /// hash's high half, so it stays put.
    fn grow(&mut self) {
        let image = &mut self.image;
        let order: Vec<usize> = image.by_slot().collect();
        image.mask = 2 * image.mask + 1;
        image.occupied = free_slots(image.mask + 1);
        for i in order {
            let home = image.hash(image.entries[i].key) as usize & image.mask;
            image.entries[i].slot = image.claim(home) as u32;
        }
    }
}

/// Probe accounting for one successful [`DeviceCountTable::insert`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InsertResult {
    /// Probe steps taken (1 = direct hit).
    pub steps: u32,
    /// True if the insert claimed a fresh slot (first occurrence).
    pub new: bool,
}

/// Outcome of one [`DeviceCountTable::insert`]: either the instance was
/// counted, or every slot was visited and the table is full.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The instance landed; probe accounting inside.
    Inserted(InsertResult),
    /// All slots were probed and none could take the key. Linear probing
    /// visits every slot before giving up, so `Full` also proves the key
    /// is *not* in the table — the caller must regrow the table or spill
    /// the instance to the host, never drop it.
    Full {
        /// Probe steps spent discovering fullness (= the capacity).
        steps: u32,
    },
}

/// One stored key of a count table's host image: the key, its
/// count, and the simulated slot it claimed, with no padding between them
/// (16 B at `u64` keys, 24 B at `u128` keys).
#[derive(Clone, Copy, Debug)]
#[repr(C, packed)]
struct Entry<K> {
    key: K,
    count: u32,
    slot: u32,
}

impl<K: TableKey> Entry<K> {
    /// An unused index entry.
    const FREE: Entry<K> = Entry {
        key: K::EMPTY,
        count: 0,
        slot: 0,
    };
}

/// How many k-mers `insert_all` hashes and loads ahead of inserting
/// them.
const GROUP: usize = 16;

/// Entries a fresh host image starts with; it doubles before an insert
/// would take it past three-quarters full.
const INITIAL_ENTRIES: usize = 64;

/// Probe steps a linear walk from `home` takes to reach `slot`.
#[inline]
fn steps_to(home: usize, slot: usize, mask: usize) -> u32 {
    ((slot.wrapping_sub(home) & mask) + 1) as u32
}

/// Where a key's entry probe starts: the hash's high half, so it is
/// independent of the home slot (the low bits).
#[inline]
fn entry_home(hash: u64) -> usize {
    (hash >> 32) as usize
}

/// An occupancy bitmap of `capacity` free slots. A table smaller than a
/// word sets its padding bits, so they are never free.
fn free_slots(capacity: usize) -> Vec<u64> {
    let mut occupied = vec![0u64; capacity.div_ceil(64)];
    if capacity < 64 {
        occupied[0] = !0 << capacity;
    }
    occupied
}

/// The host's copy of a count table, sized by its distinct keys rather
/// than its capacity.
///
/// Slots are never freed, so a stored key's probe path from its home to
/// its slot is all occupied slots, and an absent key's path ends at the
/// first free slot at or after its home. One occupancy bit per simulated
/// slot plus the slot each key claimed therefore answer every probe
/// exactly as a walk over the slot array would.
#[derive(Clone, Debug)]
struct Image<K: TableKey> {
    mask: usize,
    hasher: Murmur3x64,
    /// Bit `s` is set once simulated slot `s` holds a key (see
    /// [`free_slots`]).
    occupied: Vec<u64>,
    /// Open-addressing key index (linear probing, `K::EMPTY` marks a free
    /// entry), kept at most three-quarters full.
    entries: Vec<Entry<K>>,
    distinct: usize,
}

impl<K: TableKey> Image<K> {
    fn new(capacity: usize, hasher: Murmur3x64) -> Image<K> {
        Image {
            mask: capacity - 1,
            hasher,
            occupied: free_slots(capacity),
            entries: vec![Entry::FREE; INITIAL_ENTRIES],
            distinct: 0,
        }
    }

    #[inline]
    fn hash(&self, kmer: K) -> u64 {
        kmer.hash_with(&self.hasher)
    }

    /// Hashes a group of at most [`GROUP`] k-mers and loads the entry
    /// each one's probe starts at, so the group's cache misses overlap
    /// instead of waiting on one another.
    #[inline]
    fn hash_group(&self, group: &[K]) -> [u64; GROUP] {
        let mut hashes = [0u64; GROUP];
        for (hash, &kmer) in hashes.iter_mut().zip(group) {
            *hash = self.hash(kmer);
            let i = entry_home(*hash) & (self.entries.len() - 1);
            std::hint::black_box(self.entries[i].key);
        }
        hashes
    }

    /// The entry holding `kmer` (`Ok`), or the free entry its probe ends
    /// at (`Err`).
    #[inline]
    fn find(&self, kmer: K, hash: u64) -> Result<usize, usize> {
        let emask = self.entries.len() - 1;
        let mut i = entry_home(hash) & emask;
        loop {
            let key = self.entries[i].key;
            if key == kmer {
                return Ok(i);
            }
            if key == K::EMPTY {
                return Err(i);
            }
            i = (i + 1) & emask;
        }
    }

    #[inline]
    fn insert(&mut self, kmer: K, hash: u64, count: u32) -> InsertOutcome {
        debug_assert_ne!(kmer, K::EMPTY, "k-mer collides with empty sentinel");
        debug_assert!(count > 0, "inserting zero occurrences is meaningless");
        let home = hash as usize & self.mask;
        match self.find(kmer, hash) {
            Ok(i) => {
                let entry = &mut self.entries[i];
                entry.count += count;
                let steps = steps_to(home, entry.slot as usize, self.mask);
                InsertOutcome::Inserted(InsertResult { steps, new: false })
            }
            Err(_) if self.distinct > self.mask => InsertOutcome::Full {
                steps: (self.mask + 1) as u32,
            },
            Err(mut i) => {
                let slot = self.claim(home);
                if 4 * (self.distinct + 1) > 3 * self.entries.len() {
                    self.grow_index();
                    i = self.find(kmer, hash).unwrap_err();
                }
                self.entries[i] = Entry {
                    key: kmer,
                    count,
                    slot: slot as u32,
                };
                self.distinct += 1;
                let steps = steps_to(home, slot, self.mask);
                InsertOutcome::Inserted(InsertResult { steps, new: true })
            }
        }
    }

    /// Marks and returns the first free slot at or after `home`,
    /// cyclically — where a walk from `home` would stop. The table must
    /// have a free slot.
    fn claim(&mut self, home: usize) -> usize {
        let last = self.occupied.len() - 1;
        let mut word = home / 64;
        let mut free = !self.occupied[word] & (!0 << (home % 64));
        while free == 0 {
            word = (word + 1) & last;
            free = !self.occupied[word];
        }
        let bit = free.trailing_zeros();
        self.occupied[word] |= 1 << bit;
        word * 64 + bit as usize
    }

    /// The count of `kmer`, or `None`.
    fn get(&self, kmer: K) -> Option<u32> {
        let i = self.find(kmer, self.hash(kmer)).ok()?;
        Some(self.entries[i].count)
    }

    /// The stored entries' indices, in slot order.
    fn by_slot(&self) -> impl Iterator<Item = usize> {
        // Slots are distinct, so sorting `slot << 32 | index` words
        // orders the entries by slot without chasing them.
        let mut order: Vec<u64> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| { e.key } != K::EMPTY)
            .map(|(i, e)| u64::from(e.slot) << 32 | i as u64)
            .collect();
        order.sort_unstable();
        order.into_iter().map(|word| word as u32 as usize)
    }

    /// The stored `(kmer, count)` pairs, in slot order.
    fn pairs(&self) -> impl Iterator<Item = (K, u32)> + '_ {
        self.by_slot().map(|i| {
            let entry = self.entries[i];
            (entry.key, entry.count)
        })
    }

    /// Doubles the key index and re-places every entry.
    fn grow_index(&mut self) {
        let doubled = vec![Entry::FREE; 2 * self.entries.len()];
        for entry in std::mem::replace(&mut self.entries, doubled) {
            let key = entry.key;
            if key != K::EMPTY {
                let i = self.find(key, self.hash(key)).unwrap_err();
                self.entries[i] = entry;
            }
        }
    }

    /// Host bytes the image holds: occupancy bits plus key index.
    #[cfg(test)]
    fn host_bytes(&self) -> usize {
        self.occupied.capacity() * std::mem::size_of::<u64>()
            + self.entries.capacity() * std::mem::size_of::<Entry<K>>()
    }

    /// Entries in the key index, free ones included.
    #[cfg(test)]
    fn index_len(&self) -> usize {
        self.entries.len()
    }
}

/// A fixed-capacity count table in device memory — the GPU counting
/// kernel's data structure (§III-B3). Generic over the packed key width
/// (`u64` by default; `u128` for wide k).
///
/// The table has one writer, the rank whose kernels insert into it, so
/// `insert` takes `&self` like the CUDA kernel it models, with no host
/// atomics behind it. The device is charged for the full slot array; the
/// host keeps only an image sized by the distinct keys.
#[derive(Debug)]
pub struct DeviceCountTable<K: PackedKmer = u64> {
    image: RefCell<Image<K>>,
    /// The device charge: the key array's bytes, then the count array's.
    _charge: (Reservation, Reservation),
}

impl<K: PackedKmer> DeviceCountTable<K> {
    /// Allocates a table with `capacity` slots (rounded up to a power of
    /// two) on `device`, every slot empty. Charged as a key array plus a
    /// 4-byte count array, reserved in that order.
    pub fn new(
        device: &Device,
        capacity: usize,
        hash_seed: u64,
    ) -> Result<DeviceCountTable<K>, OomError> {
        let cap = capacity.next_power_of_two().max(16);
        let keys = device.reserve(cap as u64 * K::KMER_WIRE_BYTES)?;
        let counts = device.reserve(cap as u64 * 4)?;
        Ok(DeviceCountTable {
            image: RefCell::new(Image::new(cap, Murmur3x64::new(hash_seed))),
            _charge: (keys, counts),
        })
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.image.borrow().mask + 1
    }

    /// Inserts one k-mer instance. On success returns the probe-step
    /// count (≥ 1) and whether this insert claimed a fresh slot — both
    /// feed the kernel cost accounting. When every slot is occupied by
    /// other keys the insert returns [`InsertOutcome::Full`] instead of
    /// landing; tables sized from estimates can fill up under memory
    /// pressure, so a full table is data, not a bug.
    ///
    /// The probe sequence is the CUDA idiom's: `atomicCAS` to claim an
    /// empty slot, then `atomicAdd` on the count; linear probing on
    /// collision.
    pub fn insert(&self, kmer: K) -> InsertOutcome {
        self.insert_counted(kmer, 1)
    }

    /// Like [`DeviceCountTable::insert`] but adds `count` occurrences at
    /// once — the rehash primitive: a regrow kernel migrates each old
    /// slot's accumulated count with a single probe sequence.
    pub fn insert_counted(&self, kmer: K, count: u32) -> InsertOutcome {
        let mut image = self.image.borrow_mut();
        let hash = image.hash(kmer);
        image.insert(kmer, hash, count)
    }

    /// Inserts one instance of each of `kmers` in order, handing every
    /// outcome to `on` — exactly what calling [`DeviceCountTable::insert`]
    /// on each would return. Works in groups: it hashes a group and loads
    /// each member's first index entry before inserting the group in
    /// order, so the group's cache misses overlap instead of waiting on
    /// one another.
    pub fn insert_all(&self, kmers: &[K], mut on: impl FnMut(K, InsertOutcome)) {
        let mut image = self.image.borrow_mut();
        for group in kmers.chunks(GROUP) {
            let hashes = image.hash_group(group);
            for (&hash, &kmer) in hashes.iter().zip(group) {
                on(kmer, image.insert(kmer, hash, 1));
            }
        }
    }

    /// The count of `kmer`, or `None`.
    pub fn get(&self, kmer: K) -> Option<u32> {
        self.image.borrow().get(kmer)
    }

    /// Copies the table to the host as `(kmer, count)` pairs in slot
    /// order.
    pub fn to_host(&self) -> Vec<(K, u32)> {
        self.image.borrow().pairs().collect()
    }

    /// Number of distinct keys.
    pub fn distinct(&self) -> usize {
        self.image.borrow().distinct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_sizing() {
        assert_eq!(capacity_for(700, 0.7), 1024);
        assert_eq!(capacity_for(1, 0.7), 2);
        assert_eq!(capacity_for(0, 0.5), 2);
    }

    #[test]
    fn host_insert_get_roundtrip() {
        let mut t: HostCountTable = HostCountTable::with_expected(100, 0.7, 1);
        for i in 0..50u64 {
            for _ in 0..=i % 5 {
                t.insert(i);
            }
        }
        for i in 0..50u64 {
            assert_eq!(t.get(i), Some((i % 5 + 1) as u32), "key {i}");
        }
        assert_eq!(t.get(999), None);
        assert_eq!(t.distinct(), 50);
    }

    #[test]
    fn host_grows_transparently() {
        let mut t: HostCountTable = HostCountTable::with_expected(4, 0.7, 2);
        let initial_cap = t.capacity();
        for i in 0..10_000u64 {
            t.insert(i * 3);
        }
        assert!(t.capacity() > initial_cap);
        assert_eq!(t.distinct(), 10_000);
        assert_eq!(t.total(), 10_000);
        for i in 0..10_000u64 {
            assert_eq!(t.get(i * 3), Some(1));
        }
    }

    #[test]
    fn host_counts_duplicates() {
        let mut t: HostCountTable = HostCountTable::with_expected(8, 0.7, 3);
        for _ in 0..1000 {
            t.insert(42);
        }
        assert_eq!(t.get(42), Some(1000));
        assert_eq!(t.distinct(), 1);
        assert_eq!(t.total(), 1000);
    }

    #[test]
    fn host_spectrum_matches_inserts() {
        let mut t: HostCountTable = HostCountTable::with_expected(16, 0.7, 4);
        t.insert(1);
        t.insert(2);
        t.insert(2);
        t.insert(3);
        t.insert(3);
        t.insert(3);
        let s = t.spectrum();
        assert_eq!(s.distinct(), 3);
        assert_eq!(s.total(), 6);
        assert_eq!(s.singletons(), 1);
    }

    #[test]
    fn host_key_zero_is_valid() {
        let mut t: HostCountTable = HostCountTable::with_expected(4, 0.7, 5);
        t.insert(0);
        t.insert(0);
        assert_eq!(t.get(0), Some(2));
    }

    #[test]
    fn device_table_counts_like_host_table() {
        let device = Device::v100();
        let t = DeviceCountTable::new(&device, 256, 7).unwrap();
        let mut h: HostCountTable = HostCountTable::with_expected(128, 0.7, 7);
        for i in 0..128u64 {
            let reps = i % 7 + 1;
            for _ in 0..reps {
                t.insert(i);
                h.insert(i);
            }
        }
        for i in 0..128u64 {
            assert_eq!(t.get(i), h.get(i), "key {i}");
        }
        assert_eq!(t.distinct(), h.distinct());
    }

    #[test]
    fn wide_device_table_counts_like_wide_host_table() {
        let device = Device::v100();
        let t: DeviceCountTable<u128> = DeviceCountTable::new(&device, 256, 7).unwrap();
        let mut h: HostCountTable<u128> = HostCountTable::with_expected(128, 0.7, 7);
        for i in 0..128u128 {
            // Keys above the u64 range so the wide hash path is exercised.
            let key = (i << 64) | (i * 3);
            let reps = i % 7 + 1;
            for _ in 0..reps {
                t.insert(key);
                h.insert(key);
            }
        }
        for i in 0..128u128 {
            let key = (i << 64) | (i * 3);
            assert_eq!(t.get(key), h.get(key), "key {i}");
        }
        assert_eq!(t.distinct(), h.distinct());
        let total: u64 = t.to_host().iter().map(|&(_, c)| c as u64).sum();
        assert_eq!(total, h.total());
    }

    #[test]
    fn device_table_full_reports_outcome() {
        let device = Device::v100();
        let t = DeviceCountTable::new(&device, 16, 11).unwrap();
        let mut full = 0usize;
        for i in 0..100u64 {
            match t.insert(i) {
                InsertOutcome::Inserted(_) => {}
                InsertOutcome::Full { steps } => {
                    // Fullness costs a complete probe circuit, no more.
                    assert_eq!(steps as usize, t.capacity());
                    full += 1;
                }
            }
        }
        // 16 slots, 100 distinct keys: the first 16 land, the rest bounce.
        assert_eq!(t.distinct(), t.capacity());
        assert_eq!(full, 100 - t.capacity());
        // Stored keys still count further instances after going full.
        let (stored, _) = t.to_host()[0];
        assert!(matches!(t.insert(stored), InsertOutcome::Inserted(_)));
        // And lookups of bounced keys terminate with None despite the
        // table having no empty slot to stop at.
        let bounced = (0..100u64).find(|&k| t.get(k).is_none()).unwrap();
        assert_eq!(t.get(bounced), None);
    }

    #[test]
    fn device_probe_steps_and_newness_reported() {
        let device = Device::v100();
        let t = DeviceCountTable::<u64>::new(&device, 64, 13).unwrap();
        let first = t.insert(5);
        assert_eq!(
            first,
            InsertOutcome::Inserted(InsertResult {
                steps: 1,
                new: true
            })
        );
        let again = t.insert(5);
        assert_eq!(
            again,
            InsertOutcome::Inserted(InsertResult {
                steps: 1,
                new: false
            })
        );
    }

    #[test]
    fn device_insert_counted_adds_in_one_probe_sequence() {
        let device = Device::v100();
        let t = DeviceCountTable::<u64>::new(&device, 64, 17).unwrap();
        assert!(matches!(
            t.insert_counted(9, 250),
            InsertOutcome::Inserted(InsertResult { new: true, .. })
        ));
        assert!(matches!(
            t.insert_counted(9, 250),
            InsertOutcome::Inserted(InsertResult { new: false, .. })
        ));
        assert_eq!(t.get(9), Some(500));
    }

    /// FNV-1a over a run's observable table behaviour: every insert's
    /// outcome in stream order, then the `to_host` slot order.
    fn fnv(digest: &mut u64, word: u128) {
        for byte in word.to_le_bytes() {
            *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
        }
    }

    /// Inserts `n` seeded draws from a pool of `pool` distinct keys into a
    /// `capacity`-slot table; returns (digest, `Full` outcomes, total
    /// probe steps, distinct keys stored).
    fn golden_run<K: PackedKmer>(
        key: fn(u64) -> K,
        capacity: usize,
        pool: u64,
        n: usize,
    ) -> (u64, usize, u64, usize) {
        let device = Device::v100();
        let t = DeviceCountTable::<K>::new(&device, capacity, 0x5EED).unwrap();
        let mut rng = dedukt_sim::rng::SplitMix64::new(capacity as u64 ^ pool);
        let stream: Vec<K> = (0..n).map(|_| key(rng.next_below(pool))).collect();
        let (mut digest, mut full, mut steps) = (0xcbf2_9ce4_8422_2325u64, 0, 0u64);
        // The grouped insert must answer exactly like one insert per key.
        let batched = DeviceCountTable::<K>::new(&device, capacity, 0x5EED).unwrap();
        let mut batched_outcomes = Vec::new();
        batched.insert_all(&stream, |_, outcome| batched_outcomes.push(outcome));
        let singles: Vec<InsertOutcome> = stream.iter().map(|&k| t.insert(k)).collect();
        assert_eq!(singles, batched_outcomes);
        assert_eq!(t.to_host(), batched.to_host());
        for outcome in singles {
            let word = match outcome {
                InsertOutcome::Inserted(r) => {
                    steps += u64::from(r.steps);
                    u128::from(r.steps) << 1 | u128::from(r.new)
                }
                InsertOutcome::Full { steps: s } => {
                    full += 1;
                    steps += u64::from(s);
                    u128::from(s) << 64
                }
            };
            fnv(&mut digest, word);
        }
        for (k, c) in t.to_host() {
            fnv(&mut digest, k.to_u128());
            fnv(&mut digest, u128::from(c));
        }
        (digest, full, steps, t.distinct())
    }

    fn narrow_key(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 2
    }

    fn wide_key(i: u64) -> u128 {
        (u128::from(narrow_key(i)) << 64 | u128::from(i)) >> 2
    }

    #[test]
    fn golden_outcomes_and_slot_order_at_both_widths() {
        // A roomy table (no `Full`) and one driven full (most keys of the
        // pool bounce; stored keys keep counting), at either key width.
        assert_eq!(
            golden_run(narrow_key, 1024, 600, 4000),
            (8441289027624101451, 0, 6541, 599)
        );
        assert_eq!(
            golden_run(narrow_key, 64, 200, 1500),
            (4266532609064847969, 973, 66981, 64)
        );
        assert_eq!(
            golden_run(wide_key, 1024, 600, 4000),
            (13432650755641881886, 0, 6341, 599)
        );
        assert_eq!(
            golden_run(wide_key, 64, 200, 1500),
            (1233793459144356706, 973, 65611, 64)
        );
    }

    /// A plain slot array probed by walking it: the device table's
    /// reference semantics, with every slot resident on the host.
    struct WalkTable<K> {
        slots: Vec<Option<(K, u32)>>,
        hasher: Murmur3x64,
    }

    impl<K: PackedKmer> WalkTable<K> {
        fn new(capacity: usize, hash_seed: u64) -> WalkTable<K> {
            WalkTable {
                slots: vec![None; capacity],
                hasher: Murmur3x64::new(hash_seed),
            }
        }

        fn insert_counted(&mut self, kmer: K, count: u32) -> InsertOutcome {
            let cap = self.slots.len();
            let mut slot = (kmer.hash_with(&self.hasher) as usize) & (cap - 1);
            for steps in 1..=cap as u32 {
                match &mut self.slots[slot] {
                    Some((key, c)) if *key == kmer => {
                        *c += count;
                        return InsertOutcome::Inserted(InsertResult { steps, new: false });
                    }
                    Some(_) => slot = (slot + 1) & (cap - 1),
                    empty @ None => {
                        *empty = Some((kmer, count));
                        return InsertOutcome::Inserted(InsertResult { steps, new: true });
                    }
                }
            }
            InsertOutcome::Full { steps: cap as u32 }
        }

        fn get(&self, kmer: K) -> Option<u32> {
            self.slots
                .iter()
                .flatten()
                .find(|&&(k, _)| k == kmer)
                .map(|&(_, c)| c)
        }

        fn to_host(&self) -> Vec<(K, u32)> {
            self.slots.iter().flatten().copied().collect()
        }
    }

    /// The key index length `distinct` keys must leave: the smallest
    /// power of two from [`INITIAL_ENTRIES`] that they fill at most
    /// three-quarters.
    fn index_bound(distinct: usize) -> usize {
        let mut len = INITIAL_ENTRIES;
        while 4 * distinct > 3 * len {
            len *= 2;
        }
        len
    }

    /// Streams `n` seeded draws from a pool of `pool` keys into a device
    /// table and a [`WalkTable`] of `capacity` slots, checking each insert
    /// and then every pool key's count against the walk; migrates both
    /// into 2× tables the way a regrow does and checks again. Returns the
    /// number of `Full` outcomes.
    fn image_matches_walk<K: PackedKmer>(
        key: fn(u64) -> K,
        capacity: usize,
        pool: u64,
        n: usize,
    ) -> usize {
        let device = Device::v100();
        let t = DeviceCountTable::<K>::new(&device, capacity, 29).unwrap();
        let mut walk = WalkTable::<K>::new(t.capacity(), 29);
        let mut rng = dedukt_sim::rng::SplitMix64::new(pool);
        let mut full = 0;
        for i in 0..n {
            let k = key(rng.next_below(pool));
            let outcome = walk.insert_counted(k, 1);
            assert_eq!(t.insert(k), outcome, "insert {i}");
            full += usize::from(matches!(outcome, InsertOutcome::Full { .. }));
            let index = t.image.borrow().index_len();
            assert_eq!(index, index_bound(t.distinct()), "insert {i}");
        }
        let check = |t: &DeviceCountTable<K>, walk: &WalkTable<K>| {
            for i in 0..pool {
                assert_eq!(t.get(key(i)), walk.get(key(i)), "pool key {i}");
            }
            assert_eq!(t.to_host(), walk.to_host());
            assert_eq!(t.distinct(), walk.to_host().len());
        };
        check(&t, &walk);
        let grown = DeviceCountTable::<K>::new(&device, 2 * t.capacity(), 29).unwrap();
        let mut grown_walk = WalkTable::<K>::new(grown.capacity(), 29);
        for (k, c) in t.to_host() {
            assert_eq!(grown.insert_counted(k, c), grown_walk.insert_counted(k, c));
        }
        check(&grown, &grown_walk);
        full
    }

    /// A distinct packed 17-mer (34 bits) per `i < 2^34`.
    fn kmer17(i: u64) -> u64 {
        i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & ((1 << 34) - 1)
    }

    /// A distinct packed 41-mer (82 bits) per `i`.
    fn kmer41(i: u64) -> u128 {
        u128::from(i).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835) & ((1 << 82) - 1)
    }

    #[test]
    fn host_image_answers_like_a_walk_at_both_widths() {
        fn both<K: PackedKmer>(key: fn(u64) -> K) {
            // Roomy: a tenth full, no `Full`.
            assert_eq!(image_matches_walk(key, 4096, 400, 3000), 0);
            // Near full: 250 of 256 slots taken, long probe runs.
            assert_eq!(image_matches_walk(key, 256, 250, 5000), 0);
            // Full: the pool is twice the capacity, so keys bounce (and
            // the 16-slot table's occupancy word has padding bits).
            assert!(image_matches_walk(key, 256, 512, 5000) > 0);
            assert!(image_matches_walk(key, 16, 40, 500) > 0);
            // Pools that leave the key index exactly three-quarters full
            // at 64, 128 and 256 entries; the larger two cross the
            // smaller ones' doublings on the way.
            for pool in [48, 96, 192] {
                assert_eq!(image_matches_walk(key, 512, pool, 40 * pool as usize), 0);
            }
        }
        both(kmer17);
        both(kmer41);
    }

    #[test]
    fn host_image_is_sized_by_distinct_keys() {
        let device = Device::v100();
        let t = DeviceCountTable::<u64>::new(&device, 1 << 22, 31).unwrap();
        for i in 0..1000u64 {
            t.insert(kmer17(i));
        }
        assert_eq!(t.distinct(), 1000);
        // A full slot array would take 12 B × 2^22 = 48 MiB.
        let bytes = t.image.borrow().host_bytes();
        assert!(bytes < 1 << 20, "{bytes} host bytes");
    }

    #[test]
    fn host_table_is_sized_by_distinct_keys() {
        let mut t: HostCountTable = HostCountTable::with_expected(1 << 20, 0.7, 31);
        for i in 0..1000u64 {
            t.insert(kmer17(i));
        }
        assert_eq!(t.distinct(), 1000);
        // Two slot arrays would take 12 B × 2^21 = 24 MiB.
        let bytes = t.image.host_bytes();
        assert!(bytes < 1 << 20, "{bytes} host bytes");
    }

    /// The host table as two slot arrays, keys and counts, probed by
    /// walking them: [`HostCountTable`]'s reference semantics.
    struct TwoArrayTable<K> {
        keys: Vec<K>,
        counts: Vec<u32>,
        distinct: usize,
        max_load: f64,
        hasher: Murmur3x64,
        probes: u64,
    }

    impl<K: TableKey> TwoArrayTable<K> {
        fn with_expected(expected: usize, max_load: f64, hash_seed: u64) -> TwoArrayTable<K> {
            let cap = capacity_for(expected, max_load).max(16);
            TwoArrayTable {
                keys: vec![K::EMPTY; cap],
                counts: vec![0; cap],
                distinct: 0,
                max_load,
                hasher: Murmur3x64::new(hash_seed),
                probes: 0,
            }
        }

        fn home(&self, kmer: K) -> usize {
            (kmer.hash_with(&self.hasher) as usize) & (self.keys.len() - 1)
        }

        fn insert(&mut self, kmer: K) {
            if (self.distinct + 1) as f64 > self.keys.len() as f64 * self.max_load {
                self.grow();
            }
            let mut slot = self.home(kmer);
            loop {
                let k = self.keys[slot];
                if k == kmer {
                    self.counts[slot] += 1;
                    return;
                }
                if k == K::EMPTY {
                    self.keys[slot] = kmer;
                    self.counts[slot] = 1;
                    self.distinct += 1;
                    return;
                }
                slot = (slot + 1) & (self.keys.len() - 1);
                self.probes += 1;
            }
        }

        fn get(&self, kmer: K) -> Option<u32> {
            let mut slot = self.home(kmer);
            loop {
                let k = self.keys[slot];
                if k == kmer {
                    return Some(self.counts[slot]);
                }
                if k == K::EMPTY {
                    return None;
                }
                slot = (slot + 1) & (self.keys.len() - 1);
            }
        }

        fn iter(&self) -> impl Iterator<Item = (K, u32)> + '_ {
            self.keys
                .iter()
                .zip(&self.counts)
                .filter(|(&k, _)| k != K::EMPTY)
                .map(|(&k, &c)| (k, c))
        }

        fn grow(&mut self) {
            let new_cap = 2 * self.keys.len();
            let old_keys = std::mem::replace(&mut self.keys, vec![K::EMPTY; new_cap]);
            let old_counts = std::mem::replace(&mut self.counts, vec![0; new_cap]);
            for (k, c) in old_keys.into_iter().zip(old_counts) {
                if k == K::EMPTY {
                    continue;
                }
                let mut slot = self.home(k);
                while self.keys[slot] != K::EMPTY {
                    slot = (slot + 1) & (new_cap - 1);
                }
                self.keys[slot] = k;
                self.counts[slot] = c;
            }
        }
    }

    #[test]
    fn host_image_answers_like_the_two_array_table_at_both_widths() {
        fn both<K: PackedKmer>(key: fn(u64) -> K) {
            // 400 distinct keys at load 0.7 take the table from 16 slots
            // to 1024: six doublings.
            let pool = 400;
            let mut t = HostCountTable::<K>::with_expected(1, 0.7, 37);
            let mut reference = TwoArrayTable::<K>::with_expected(1, 0.7, 37);
            assert_eq!(t.capacity(), 16);
            let mut rng = dedukt_sim::rng::SplitMix64::new(pool);
            for i in 0..2500 {
                let k = key(rng.next_below(pool));
                let (probes, reference_probes) = (t.probe_steps(), reference.probes);
                t.insert(k);
                reference.insert(k);
                assert_eq!(
                    t.probe_steps() - probes,
                    reference.probes - reference_probes,
                    "insert {i}"
                );
                for j in 0..pool + 20 {
                    assert_eq!(t.get(key(j)), reference.get(key(j)), "insert {i}, key {j}");
                }
                assert!(t.iter().eq(reference.iter()), "insert {i}");
                assert_eq!(t.capacity(), reference.keys.len());
                assert_eq!(t.distinct(), reference.distinct);
                assert_eq!(t.image.index_len(), index_bound(t.distinct()), "insert {i}");
                let reference_total: u64 = reference.counts.iter().map(|&c| u64::from(c)).sum();
                assert_eq!(t.total(), reference_total);
                let reference_spectrum = Spectrum::from_counts(reference.iter().map(|(_, c)| c));
                assert_eq!(t.spectrum(), reference_spectrum);
            }
            assert_eq!(t.capacity(), 1024);
        }
        both(kmer17);
        both(kmer41);
    }

    #[test]
    fn host_insert_all_matches_one_by_one_inserts_at_both_widths() {
        fn both<K: PackedKmer>(key: fn(u64) -> K) {
            // 600 distinct keys at load 0.7 take the table from 16 slots
            // to 1024 (six doublings) and its key index from 64 entries
            // to 1024 (four doublings).
            let pool = 600;
            let mut grouped = HostCountTable::<K>::with_expected(1, 0.7, 41);
            let mut single = HostCountTable::<K>::with_expected(1, 0.7, 41);
            assert_eq!(grouped.capacity(), 16);
            let mut rng = dedukt_sim::rng::SplitMix64::new(pool);
            let stream: Vec<K> = (0..5000).map(|_| key(rng.next_below(pool))).collect();
            let mut rest = &stream[..];
            while !rest.is_empty() {
                // Chunks of 0 to 40 keys: empty, partial and several
                // whole groups.
                let len = (rng.next_below(41) as usize).min(rest.len());
                let (chunk, tail) = rest.split_at(len);
                rest = tail;
                grouped.insert_all(chunk);
                for &k in chunk {
                    single.insert(k);
                }
                assert_eq!(grouped.probe_steps(), single.probe_steps());
                assert!(grouped.iter().eq(single.iter()));
                assert_eq!(grouped.capacity(), single.capacity());
                assert_eq!(grouped.distinct(), single.distinct());
                assert_eq!(grouped.image.index_len(), index_bound(grouped.distinct()));
            }
            for j in 0..pool + 20 {
                assert_eq!(grouped.get(key(j)), single.get(key(j)), "key {j}");
            }
            assert_eq!(grouped.capacity(), 1024);
            assert_eq!(grouped.image.index_len(), 1024);
        }
        both(kmer17);
        both(kmer41);
    }

    #[test]
    fn host_grow_preserves_probe_accounting() {
        // `grow()` rehashes in place and must not perturb the insert-path
        // probe counter (the collision metric) or any count.
        let mut t: HostCountTable = HostCountTable::with_expected(512, 0.7, 21);
        for i in 0..300u64 {
            for _ in 0..=i % 3 {
                t.insert(i * 7 + 1);
            }
        }
        let probes = t.probe_steps();
        let distinct = t.distinct();
        let total = t.total();
        let cap = t.capacity();
        t.grow();
        assert_eq!(t.probe_steps(), probes, "grow must not count probes");
        assert_eq!(t.distinct(), distinct);
        assert_eq!(t.total(), total);
        assert_eq!(t.capacity(), cap * 2);
        for i in 0..300u64 {
            assert_eq!(t.get(i * 7 + 1), Some((i % 3 + 1) as u32), "key {i}");
        }
    }
}
