//! Host↔device transfer cost model.
//!
//! §III-B2 of the paper: exchanged data either moves GPU→CPU→network→CPU→GPU
//! (staged) or directly GPU→GPU over NVLink (GPUDirect); "our current
//! framework supports both methods". The functional copy is free in the
//! simulator (buffers are host memory); these functions charge the
//! corresponding *simulated* cost.

use crate::config::DeviceConfig;
use dedukt_sim::{DataVolume, SimTime};

/// The link a transfer crosses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Link {
    /// Host↔device over PCIe.
    Pcie,
    /// Host↔device (or device↔device on-node) over NVLink.
    NvLink,
}

/// Simulated duration of moving `volume` across `link` once.
pub fn transfer_time(config: &DeviceConfig, link: Link, volume: DataVolume) -> SimTime {
    let bw = match link {
        Link::Pcie => config.pcie_bandwidth,
        Link::NvLink => config.nvlink_bandwidth,
    };
    SimTime::from_micros(config.transfer_latency_us) + bw.time_for_volume(volume)
}

/// Simulated duration of a staged exchange hop on one side: device→host
/// before the wire, or host→device after it. GPUDirect skips both.
pub fn staging_time(config: &DeviceConfig, volume: DataVolume) -> SimTime {
    transfer_time(config, Link::NvLink, volume)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_term_dominates_large_transfers() {
        let c = DeviceConfig::v100();
        // 25 GB over 25 GB/s NVLink ≈ 1 s.
        let t = transfer_time(&c, Link::NvLink, DataVolume::from_bytes(25_000_000_000));
        assert!((t.as_secs() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn latency_term_dominates_small_transfers() {
        let c = DeviceConfig::v100();
        let t = transfer_time(&c, Link::Pcie, DataVolume::from_bytes(64));
        assert!((t.as_micros() - c.transfer_latency_us).abs() < 1.0);
    }

    #[test]
    fn nvlink_beats_pcie() {
        let c = DeviceConfig::v100();
        let v = DataVolume::from_gib(1);
        assert!(transfer_time(&c, Link::NvLink, v) < transfer_time(&c, Link::Pcie, v));
    }

    #[test]
    fn staging_uses_nvlink() {
        let c = DeviceConfig::v100();
        let v = DataVolume::from_gib(2);
        assert_eq!(staging_time(&c, v), transfer_time(&c, Link::NvLink, v));
    }
}
