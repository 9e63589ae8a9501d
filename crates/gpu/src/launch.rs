//! Kernel launch API.
//!
//! A kernel is a closure invoked once per *thread block*; it does the
//! block's whole share of the work (the real kernels' grid-stride loops)
//! and writes its results straight into the state it captures — the
//! launching rank's outgoing buckets or count table, as the real kernels
//! write device global memory. Blocks run one after another in block
//! order on the calling thread: the simulated duration comes from the
//! work the blocks tally, not from host threads, and the rank that
//! launched the kernel is already one of the host's parallel tasks. In
//! block order, every block sees the device memory its predecessors left,
//! so a launch's results — down to the hash-table slots its inserts land
//! in and the probe steps they take — are a pure function of its inputs.
//! The kernel is an `FnMut`: state it captures, such as the rank's count
//! table, has one writer, so it needs no host atomics. What the paper's
//! kernels do atomically ("as all the GPU threads concurrently update
//! this buffer, the update operation is performed atomically", §III-B1)
//! they still *price* as atomics, through [`BlockCtx::atomic`].
//!
//! Kernels report the work they perform through [`BlockCtx`], whose
//! tally is the launch's: each block adds its own charges to it, and the
//! cost model converts the total into a simulated kernel duration.

use crate::cost::{self, TimeBreakdown};
use crate::memory::Device;
use crate::occupancy;
use dedukt_sim::SimTime;

/// Grid and block dimensions for a launch (1-D, which is all the paper's
/// kernels need).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
}

/// Work performed by a kernel, summed over its blocks. All quantities are *logical* (what the real GPU would do), not
/// host-side measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkTally {
    /// Simple arithmetic/logic instructions executed.
    pub instructions: u64,
    /// Global-memory bytes moved with coalesced (unit-stride per warp)
    /// access patterns.
    pub gmem_coalesced_bytes: u64,
    /// Global-memory bytes moved with effectively random access patterns
    /// (each access its own 32-byte transaction).
    pub gmem_random_bytes: u64,
    /// Global atomic operations issued.
    pub atomics: u64,
    /// Expected number of *conflicting* atomics (same address, same time) —
    /// a hint the kernel derives from its data distribution, used by the
    /// contention model.
    pub atomic_conflicts: u64,
}

/// Block-level execution context: the block's coordinates plus the
/// launch's work tally, which each block adds its charges to.
pub struct BlockCtx {
    /// Block index within the grid.
    pub block: u32,
    /// Launch dimensions.
    pub cfg: LaunchConfig,
    /// The launch's work tally so far.
    pub tally: WorkTally,
}

impl BlockCtx {
    /// Records `n` simple instructions.
    #[inline]
    pub fn instr(&mut self, n: u64) {
        self.tally.instructions += n;
    }

    /// Records a coalesced global-memory access of `bytes`.
    #[inline]
    pub fn gmem_coalesced(&mut self, bytes: u64) {
        self.tally.gmem_coalesced_bytes += bytes;
    }

    /// Records a random-access global-memory access of `bytes`.
    #[inline]
    pub fn gmem_random(&mut self, bytes: u64) {
        self.tally.gmem_random_bytes += bytes;
    }

    /// Records `n` global atomics, of which `conflicts` are expected to
    /// collide with concurrent updates to the same address.
    #[inline]
    pub fn atomic(&mut self, n: u64, conflicts: u64) {
        self.tally.atomics += n;
        self.tally.atomic_conflicts += conflicts.min(n);
    }
}

/// Everything known about a completed launch.
#[derive(Clone, Debug)]
pub struct KernelReport {
    /// Kernel name (for reports and traces).
    pub name: String,
    /// Launch dimensions used.
    pub cfg: LaunchConfig,
    /// Work tally summed over the blocks.
    pub tally: WorkTally,
    /// Achieved occupancy in [0, 1].
    pub occupancy: f64,
    /// Simulated duration, including launch overhead.
    pub time: SimTime,
    /// Component times (compute / memory / atomics) behind `time`.
    pub breakdown: TimeBreakdown,
}

impl Device {
    /// Launches `kernel` over `cfg`, running blocks `0..grid_blocks` in
    /// order on the calling thread; returns the launch's work tally with
    /// its simulated duration.
    ///
    /// The kernel writes its output into the state it captures (the
    /// real kernels write device global memory); the *cost* of those
    /// writes must still be tallied by the kernel body.
    pub fn launch_map<F>(&self, name: &str, cfg: LaunchConfig, mut kernel: F) -> KernelReport
    where
        F: FnMut(&mut BlockCtx),
    {
        assert!(cfg.grid_blocks > 0 && cfg.block_threads > 0, "empty launch");
        assert!(
            cfg.block_threads <= self.config().max_threads_per_block,
            "block of {} exceeds device limit {}",
            cfg.block_threads,
            self.config().max_threads_per_block
        );
        let mut ctx = BlockCtx {
            block: 0,
            cfg,
            tally: WorkTally::default(),
        };
        for block in 0..cfg.grid_blocks {
            ctx.block = block;
            kernel(&mut ctx);
        }
        let occupancy = occupancy::achieved_occupancy(self.config(), cfg);
        let (time, breakdown) = cost::kernel_time(self.config(), &ctx.tally, occupancy);
        KernelReport {
            name: name.to_string(),
            cfg,
            tally: ctx.tally,
            occupancy,
            time,
            breakdown,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_merge_across_blocks() {
        let d = Device::v100();
        let cfg = LaunchConfig {
            grid_blocks: 10,
            block_threads: 32,
        };
        let r = d.launch_map("tally", cfg, |b| {
            let threads = u64::from(b.cfg.block_threads);
            b.instr(3 * threads);
            b.gmem_coalesced(8 * threads);
            b.atomic(threads, 0);
        });
        assert_eq!(r.tally.instructions, 10 * 32 * 3);
        assert_eq!(r.tally.gmem_coalesced_bytes, 10 * 32 * 8);
        assert_eq!(r.tally.atomics, 10 * 32);
        assert!(r.time > SimTime::ZERO);
    }

    #[test]
    fn blocks_run_in_order_over_captured_state() {
        let d = Device::v100();
        let mut counter = 0u64;
        let cfg = LaunchConfig {
            grid_blocks: 64,
            block_threads: 128,
        };
        // Each block sees exactly the updates of the blocks before it.
        let mut seen = Vec::new();
        d.launch_map("count", cfg, |b| {
            seen.push((b.block, counter));
            counter += u64::from(b.cfg.block_threads);
        });
        assert_eq!(
            seen,
            (0..64).map(|b| (b, u64::from(b) * 128)).collect::<Vec<_>>()
        );
        assert_eq!(counter, 64 * 128);
    }

    #[test]
    #[should_panic(expected = "exceeds device limit")]
    fn oversized_block_rejected() {
        let d = Device::v100();
        d.launch_map(
            "bad",
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 2048,
            },
            |_b| {},
        );
    }

    #[test]
    fn more_work_takes_more_simulated_time() {
        let d = Device::v100();
        let cfg = LaunchConfig {
            grid_blocks: 80,
            block_threads: 256,
        };
        let small = d.launch_map("small", cfg, |b| b.instr(10 * 256));
        let big = d.launch_map("big", cfg, |b| b.instr(10_000 * 256));
        assert!(big.time > small.time);
    }
}
