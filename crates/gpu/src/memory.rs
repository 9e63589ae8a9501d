//! Simulated device memory.
//!
//! A [`Device`] owns an allocation budget equal to the configured HBM
//! capacity (16 GB for the V100 preset). Buffers are real host memory, but
//! every allocation is charged against the device budget and refused with
//! [`OomError`] when it would not fit — reproducing the constraint that
//! motivates the paper's distributed approach in the first place ("GPUs
//! generally have smaller memories compared to CPUs", §I).
//!
//! A device-resident structure holds a [`Reservation`] for its bytes and
//! keeps its contents in plain host memory. Nothing on a device is shared
//! between host threads: a rank owns its device, and its kernels' blocks
//! run in block order on the rank's thread ([`crate::launch`]), so the
//! count table of §III-B3 has a single writer. The kernels still *price*
//! the paper's atomics through [`crate::BlockCtx::atomic`].

use crate::config::DeviceConfig;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Allocation failure: the request would exceed device memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OomError {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes currently allocated.
    pub in_use: u64,
    /// Device capacity in bytes.
    pub capacity: u64,
}

impl fmt::Display for OomError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device out of memory: requested {} B with {} B of {} B in use",
            self.requested, self.in_use, self.capacity
        )
    }
}

impl std::error::Error for OomError {}

#[derive(Debug)]
struct DeviceInner {
    config: DeviceConfig,
    allocated: AtomicU64,
    peak: AtomicU64,
}

impl DeviceInner {
    fn try_reserve(&self, bytes: u64) -> Result<(), OomError> {
        // Optimistic add; roll back on overshoot.
        let prev = self.allocated.fetch_add(bytes, Ordering::Relaxed);
        let now = prev + bytes;
        if now > self.config.memory_bytes {
            self.allocated.fetch_sub(bytes, Ordering::Relaxed);
            return Err(OomError {
                requested: bytes,
                in_use: prev,
                capacity: self.config.memory_bytes,
            });
        }
        self.peak.fetch_max(now, Ordering::Relaxed);
        Ok(())
    }

    fn release(&self, bytes: u64) {
        self.allocated.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// A simulated GPU: a configuration plus a memory budget. Cheap to clone
/// (clones share the budget).
#[derive(Clone, Debug)]
pub struct Device {
    inner: Arc<DeviceInner>,
}

impl Device {
    /// Creates a device with the given configuration.
    pub fn new(config: DeviceConfig) -> Device {
        Device {
            inner: Arc::new(DeviceInner {
                config,
                allocated: AtomicU64::new(0),
                peak: AtomicU64::new(0),
            }),
        }
    }

    /// A V100 device (the Summit GPU).
    pub fn v100() -> Device {
        Device::new(DeviceConfig::v100())
    }

    /// The device configuration.
    pub fn config(&self) -> &DeviceConfig {
        &self.inner.config
    }

    /// Bytes currently allocated.
    pub fn allocated_bytes(&self) -> u64 {
        self.inner.allocated.load(Ordering::Relaxed)
    }

    /// High-water mark of allocated bytes.
    pub fn peak_bytes(&self) -> u64 {
        self.inner.peak.load(Ordering::Relaxed)
    }

    /// Charges `bytes` against the device budget until the returned
    /// guard drops — the allocation behind every device-resident
    /// structure. Refused with [`OomError`] when it would not fit.
    pub fn reserve(&self, bytes: u64) -> Result<Reservation, OomError> {
        self.inner.try_reserve(bytes)?;
        Ok(Reservation {
            bytes,
            device: Arc::clone(&self.inner),
        })
    }
}

/// Device bytes held by one allocation; released when dropped.
#[derive(Debug)]
pub struct Reservation {
    bytes: u64,
    device: Arc<DeviceInner>,
}

impl Drop for Reservation {
    fn drop(&mut self) {
        self.device.release(self.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_device(bytes: u64) -> Device {
        let mut cfg = DeviceConfig::v100();
        cfg.memory_bytes = bytes;
        Device::new(cfg)
    }

    #[test]
    fn allocation_accounting() {
        let d = small_device(1024);
        let r = d.reserve(512).unwrap();
        assert_eq!(d.allocated_bytes(), 512);
        drop(r);
        assert_eq!(d.allocated_bytes(), 0);
        assert_eq!(d.peak_bytes(), 512);
    }

    #[test]
    fn oom_is_refused_and_rolled_back() {
        let d = small_device(100);
        let err = d.reserve(200).unwrap_err();
        assert_eq!(err.requested, 200);
        assert_eq!(err.capacity, 100);
        // The reservation was rolled back, and a fitting allocation still
        // works afterwards.
        assert_eq!(d.allocated_bytes(), 0);
        assert!(d.reserve(100).is_ok());
    }

    #[test]
    fn refusal_reports_what_is_in_use() {
        let d = small_device(96);
        let _held = d.reserve(64).unwrap();
        assert_eq!(
            d.reserve(48).unwrap_err().to_string(),
            "device out of memory: requested 48 B with 64 B of 96 B in use"
        );
        assert_eq!(d.allocated_bytes(), 64);
        assert_eq!(d.peak_bytes(), 64);
    }

    #[test]
    fn v100_capacity_enforced() {
        let d = Device::v100();
        // 17 GB must not fit on a 16 GB device.
        assert!(d.reserve(17 << 30).is_err());
    }
}
