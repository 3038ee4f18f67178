//! Comparison baselines for Table II: trace-driven models of the two
//! commercial platforms the paper measures against.
//!
//! Neither platform's full ISA is reproduced (nor is it needed): both
//! models execute the *actual memory-reference trace* of the FFT
//! algorithm each platform runs through a real cache simulator, and
//! apply the documented issue/overlap rules of the machine:
//!
//! * [`ti`] — TMS320C6713-style 8-issue VLIW: ~4 cycles per radix-2
//!   butterfly after software pipelining (the paper's own
//!   characterisation), small L1D, overlapped miss handling;
//! * [`xtensa`] — Xtensa + TIE FFT ASIP: butterfly computation fully
//!   hidden behind the load/store stream (the paper: "the bottleneck of
//!   their FFT algorithm is the load and store operations"), vector
//!   2-point memory operations.
//!
//! Every Table II observable (cycles, loads, stores, D-cache misses) is
//! a function of that trace and those rules, so the models report the
//! same observables without reproducing either instruction set.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ti;
pub mod xtensa;

use afft_sim::CacheStats;

/// The Table-II observables produced by a baseline model run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BaselineRun {
    /// Total execution cycles.
    pub cycles: u64,
    /// Load instructions issued.
    pub loads: u64,
    /// Store instructions issued.
    pub stores: u64,
    /// Data-cache statistics.
    pub cache: CacheStats,
}

impl BaselineRun {
    /// Data-cache misses (the paper's fourth row).
    pub fn cache_misses(&self) -> u64 {
        self.cache.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_run_accessors() {
        let r = BaselineRun {
            cycles: 100,
            loads: 10,
            stores: 5,
            cache: CacheStats { accesses: 15, misses: 3, ..CacheStats::default() },
        };
        assert_eq!(r.cache_misses(), 3);
    }
}
