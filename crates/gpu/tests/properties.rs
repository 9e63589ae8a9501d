//! Property tests for the GPU simulator: the cost model must behave like
//! a physical machine (monotone in work, bounded by configuration), and
//! device memory accounting must balance.

use dedukt_gpu::cost::kernel_time;
use dedukt_gpu::occupancy::{achieved_occupancy, theoretical_occupancy};
use dedukt_gpu::transfer::{transfer_time, Link};
use dedukt_gpu::{Device, DeviceConfig, LaunchConfig, WorkTally};
use dedukt_sim::DataVolume;
use proptest::prelude::*;

fn tally_strategy() -> impl Strategy<Value = WorkTally> {
    (
        0u64..1 << 40,
        0u64..1 << 34,
        0u64..1 << 34,
        0u64..1 << 30,
        0u64..1 << 30,
    )
        .prop_map(|(i, gc, gr, a, c)| WorkTally {
            instructions: i,
            gmem_coalesced_bytes: gc,
            gmem_random_bytes: gr,
            atomics: a.max(c),
            atomic_conflicts: c,
        })
}

proptest! {
    /// Adding work in any dimension never makes a kernel faster.
    #[test]
    fn kernel_time_monotone_in_work(t in tally_strategy(), occ in 0.05f64..1.0) {
        let cfg = DeviceConfig::v100();
        let (base, _) = kernel_time(&cfg, &t, occ);
        for grow in 0..4usize {
            let mut bigger = t;
            match grow {
                0 => bigger.instructions += 1 << 20,
                1 => bigger.gmem_coalesced_bytes += 1 << 20,
                2 => bigger.gmem_random_bytes += 1 << 20,
                _ => bigger.atomics += 1 << 16,
            }
            let (grown, _) = kernel_time(&cfg, &bigger, occ);
            prop_assert!(grown >= base, "dim {grow}: {grown} < {base}");
        }
    }

    /// Higher occupancy never slows a kernel down.
    #[test]
    fn kernel_time_monotone_in_occupancy(t in tally_strategy(), lo in 0.05f64..0.5) {
        let cfg = DeviceConfig::v100();
        let hi = (lo * 2.0).min(1.0);
        let (t_lo, _) = kernel_time(&cfg, &t, lo);
        let (t_hi, _) = kernel_time(&cfg, &t, hi);
        prop_assert!(t_hi <= t_lo);
    }

    /// Occupancy always lies in (0, 1], and achieved ≤ theoretical.
    #[test]
    fn occupancy_bounds(blocks in 1u32..100_000, bt_exp in 5u32..11) {
        let cfg = DeviceConfig::v100();
        let block_threads = 1u32 << bt_exp; // 32..=1024
        let theo = theoretical_occupancy(&cfg, block_threads);
        let ach = achieved_occupancy(&cfg, LaunchConfig { grid_blocks: blocks, block_threads });
        prop_assert!(theo > 0.0 && theo <= 1.0);
        prop_assert!(ach > 0.0 && ach <= theo + 1e-12);
    }

    /// Transfers are monotone in volume and NVLink never loses to PCIe.
    #[test]
    fn transfer_monotone(bytes in 0u64..1 << 34, extra in 1u64..1 << 20) {
        let cfg = DeviceConfig::v100();
        for link in [Link::Pcie, Link::NvLink] {
            let a = transfer_time(&cfg, link, DataVolume::from_bytes(bytes));
            let b = transfer_time(&cfg, link, DataVolume::from_bytes(bytes + extra));
            prop_assert!(b > a);
        }
        let p = transfer_time(&cfg, Link::Pcie, DataVolume::from_bytes(bytes));
        let n = transfer_time(&cfg, Link::NvLink, DataVolume::from_bytes(bytes));
        prop_assert!(n <= p);
    }

    /// Device memory accounting: allocations and drops always balance.
    #[test]
    fn memory_accounting_balances(sizes in prop::collection::vec(1usize..1 << 16, 1..20)) {
        let device = Device::v100();
        {
            let mut held = Vec::new();
            let mut expected = 0u64;
            for &s in &sizes {
                held.push(device.reserve((s * 8) as u64).unwrap());
                expected += (s * 8) as u64;
                prop_assert_eq!(device.allocated_bytes(), expected);
            }
        }
        prop_assert_eq!(device.allocated_bytes(), 0);
        prop_assert!(device.peak_bytes() >= sizes.iter().map(|&s| (s * 8) as u64).max().unwrap());
    }
}
