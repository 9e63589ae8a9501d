//! The analytic kernel cost model.
//!
//! Converts a launch's [`WorkTally`] into a simulated kernel duration against
//! a [`DeviceConfig`]. The model is a classic bounded-overlap roofline:
//! compute, memory and atomic pipelines proceed concurrently, so the kernel
//! takes as long as its *slowest* pipeline, plus a fixed launch overhead.
//!
//! Modelling choices (all deliberately simple, all documented here):
//!
//! * **Compute** — simple instructions retire at the device's peak rate
//!   scaled by an occupancy efficiency (latency hiding saturates around
//!   ~50% occupancy, the usual CUDA guidance).
//! * **Memory** — coalesced traffic moves at full HBM bandwidth; random
//!   traffic pays a 1/8 efficiency factor (a 32-byte minimum transaction
//!   servicing a 4-byte useful access).
//! * **Atomics** — uncontended atomics stream at `atomic_throughput`;
//!   each expected conflict serialises and costs
//!   `atomic_contention_penalty` extra slots.

use crate::config::DeviceConfig;
use crate::launch::WorkTally;
use dedukt_sim::SimTime;

/// Fraction of peak HBM bandwidth achieved by fully random accesses.
pub const RANDOM_ACCESS_EFFICIENCY: f64 = 0.125;

/// Occupancy at which latency hiding saturates; efficiency ramps linearly
/// up to this point and is flat afterwards.
pub const OCCUPANCY_KNEE: f64 = 0.5;

/// Component durations behind a kernel time.
#[derive(Clone, Copy, Debug, Default)]
pub struct TimeBreakdown {
    /// Instruction-pipeline time.
    pub compute: SimTime,
    /// Memory-pipeline time.
    pub memory: SimTime,
    /// Atomic-pipeline time.
    pub atomics: SimTime,
    /// Fixed launch overhead.
    pub overhead: SimTime,
}

impl TimeBreakdown {
    /// The bounding pipeline plus overhead — the modelled kernel duration.
    pub fn total(&self) -> SimTime {
        self.compute.max(self.memory).max(self.atomics) + self.overhead
    }
}

/// Occupancy-derived throughput efficiency in (0, 1].
fn occupancy_efficiency(occupancy: f64) -> f64 {
    (occupancy / OCCUPANCY_KNEE).clamp(0.05, 1.0)
}

/// Models the duration of a kernel whose launch tallied `tally`, achieving
/// `occupancy`, on `config`. Returns the total and its breakdown.
pub fn kernel_time(
    config: &DeviceConfig,
    tally: &WorkTally,
    occupancy: f64,
) -> (SimTime, TimeBreakdown) {
    let eff = occupancy_efficiency(occupancy);

    // Compute pipeline.
    let compute = config
        .peak_instr_rate()
        .scaled(eff)
        .time_for(tally.instructions as f64);

    // Memory pipeline.
    let hbm = config.hbm_bandwidth.scaled(eff);
    let memory = hbm.time_for(tally.gmem_coalesced_bytes as f64)
        + hbm
            .scaled(RANDOM_ACCESS_EFFICIENCY)
            .time_for(tally.gmem_random_bytes as f64);

    // Atomic pipeline: conflicts serialise.
    let effective_atomics =
        tally.atomics as f64 + tally.atomic_conflicts as f64 * config.atomic_contention_penalty;
    let atomics = config
        .atomic_throughput
        .scaled(eff)
        .time_for(effective_atomics);

    let breakdown = TimeBreakdown {
        compute,
        memory,
        atomics,
        overhead: SimTime::from_micros(config.launch_overhead_us),
    };
    (breakdown.total(), breakdown)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tally(instr: u64, coalesced: u64, random: u64, atomics: u64, conflicts: u64) -> WorkTally {
        WorkTally {
            instructions: instr,
            gmem_coalesced_bytes: coalesced,
            gmem_random_bytes: random,
            atomics,
            atomic_conflicts: conflicts,
        }
    }

    #[test]
    fn empty_kernel_costs_only_overhead() {
        let c = DeviceConfig::v100();
        let (t, b) = kernel_time(&c, &WorkTally::default(), 1.0);
        assert_eq!(t, b.overhead);
        assert!((t.as_micros() - c.launch_overhead_us).abs() < 1e-9);
    }

    #[test]
    fn compute_bound_kernel_scales_with_instructions() {
        let c = DeviceConfig::v100();
        let (t1, _) = kernel_time(&c, &tally(1_000_000_000, 0, 0, 0, 0), 1.0);
        let (t2, _) = kernel_time(&c, &tally(2_000_000_000, 0, 0, 0, 0), 1.0);
        let ratio = (t2 - t1.min(t2)).as_secs() / (t1 - SimTime::from_micros(5.0)).as_secs();
        assert!((ratio - 1.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn coalesced_traffic_runs_at_hbm_speed() {
        let c = DeviceConfig::v100();
        // 90 GB at 900 GB/s is 0.1 s.
        let (_, b) = kernel_time(&c, &tally(0, 90_000_000_000, 0, 0, 0), 1.0);
        assert!((b.memory.as_secs() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn random_traffic_is_8x_slower() {
        let c = DeviceConfig::v100();
        let (_, co) = kernel_time(&c, &tally(0, 1_000_000_000, 0, 0, 0), 1.0);
        let (_, ra) = kernel_time(&c, &tally(0, 0, 1_000_000_000, 0, 0), 1.0);
        let ratio = ra.memory / co.memory;
        assert!((ratio - 8.0).abs() < 0.01, "ratio {ratio}");
    }

    #[test]
    fn contention_makes_atomics_slower() {
        let c = DeviceConfig::v100();
        let (_, none) = kernel_time(&c, &tally(0, 0, 0, 1_000_000, 0), 1.0);
        let (_, all) = kernel_time(&c, &tally(0, 0, 0, 1_000_000, 1_000_000), 1.0);
        assert!(all.atomics > none.atomics * 3.0);
    }

    #[test]
    fn low_occupancy_slows_everything() {
        let c = DeviceConfig::v100();
        let w = tally(1_000_000_000, 1_000_000_000, 0, 1_000_000, 0);
        let (fast, _) = kernel_time(&c, &w, 1.0);
        let (slow, _) = kernel_time(&c, &w, 0.1);
        assert!(slow > fast * 2.0);
    }

    #[test]
    fn total_is_max_of_pipelines_plus_overhead() {
        let c = DeviceConfig::v100();
        // Memory-dominated tally: memory time ≫ compute time.
        let (t, b) = kernel_time(&c, &tally(1_000, 10_000_000_000, 0, 10, 0), 1.0);
        assert!(b.memory > b.compute);
        assert_eq!(t, b.memory + b.overhead);
    }
}
