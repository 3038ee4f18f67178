//! The fixed-latency cycle model of the in-order base core.
//!
//! All numbers are architectural parameters of the reproduction, chosen
//! to sit in the regime the paper describes (single-issue in-order core,
//! single-cycle custom units, multi-cycle multiplier, cache miss stall).
//! They are chosen, not derived from the paper's datapath; deriving
//! them is pending ROADMAP item 4 (make the ISS agree with the paper's
//! Tables I and II). There are no branch delay slots; instead a taken
//! branch pays a refill penalty.

/// Per-operation latencies in cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// ALU / shift / compare / immediate ops.
    pub alu: u64,
    /// Multiply (`mul`/`mulh`/`mulhu`).
    pub mul: u64,
    /// Base load/store on a cache hit (address gen + access).
    pub mem_hit: u64,
    /// Additional stall on a data-cache miss.
    pub miss_penalty: u64,
    /// Additional stall when a miss evicts a dirty line (write-back).
    pub writeback_penalty: u64,
    /// Not-taken branch.
    pub branch: u64,
    /// Extra cycles when a branch is taken (front-end refill).
    pub taken_extra: u64,
    /// Unconditional jumps and `jr`/`jalr`.
    pub jump: u64,
    /// One `BUT4` (4 parallel butterflies + AC address generation).
    pub but4: u64,
    /// `LDIN`/`STOUT` issue cost on a cache hit (the 64-bit beat).
    pub custom_mem: u64,
    /// `MTFFT` configuration write.
    pub mtfft: u64,
    /// Extra cycles per non-trivial pre-rotation coefficient fetch on
    /// the `STOUT` path (table read + octant expand + multiply).
    pub coef_fetch: u64,
}

impl Default for Timing {
    fn default() -> Self {
        Timing {
            alu: 1,
            mul: 4,
            mem_hit: 1,
            miss_penalty: 2,
            writeback_penalty: 2,
            branch: 1,
            taken_extra: 1,
            jump: 1,
            but4: 1,
            custom_mem: 1,
            mtfft: 1,
            coef_fetch: 4,
        }
    }
}

impl Timing {
    /// An idealised memory system (no miss penalties): used by tests
    /// that check instruction counts independently of the cache.
    pub fn perfect_memory() -> Self {
        Timing { miss_penalty: 0, writeback_penalty: 0, ..Timing::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_cycle_core() {
        let t = Timing::default();
        assert_eq!(t.alu, 1);
        assert_eq!(t.but4, 1);
        assert!(t.mul > t.alu);
        assert!(t.miss_penalty > t.mem_hit);
    }

    #[test]
    fn perfect_memory_zeroes_penalties() {
        let t = Timing::perfect_memory();
        assert_eq!(t.miss_penalty, 0);
        assert_eq!(t.writeback_penalty, 0);
        assert_eq!(t.alu, Timing::default().alu);
    }
}
