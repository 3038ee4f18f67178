//! Symbol-stream pipelining: running OFDM symbols back-to-back on one
//! persistent machine.
//!
//! An OFDM receiver does not run one FFT — it runs one FFT per symbol,
//! forever. [`FftPipeline`] holds one forward [`AsipPlan`] (program,
//! machine and pre-rotation table built once) and processes a stream of
//! symbols on it. Unlike [`AsipPlan::run`], it does not restart the
//! machine between symbols: registers, FFT-unit state and the warmed
//! pre-rotation lines in the cache carry over, which is how the real
//! ASIP reaches its steady-state throughput, and the pipeline reports
//! cold-vs-steady-state cost.

use crate::runner::{AsipConfig, AsipError, AsipPlan};
use afft_core::Direction;
use afft_num::{Complex, Q15};
use afft_sim::{Stats, Timing};

/// A persistent FFT engine processing a stream of equal-size symbols.
#[derive(Debug)]
pub struct FftPipeline {
    plan: AsipPlan,
    symbols: u64,
    first_cycles: Option<u64>,
    total_cycles: u64,
}

impl FftPipeline {
    /// Builds a pipeline for `n`-point forward transforms.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError`] for invalid sizes or generation failures.
    pub fn new(n: usize, timing: Timing) -> Result<Self, AsipError> {
        let cfg = AsipConfig { timing, ..AsipConfig::default() };
        let plan = AsipPlan::new(n, Direction::Forward, &cfg)?;
        Ok(FftPipeline { plan, symbols: 0, first_cycles: None, total_cycles: 0 })
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Pipelines are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Symbols processed so far.
    pub fn symbols(&self) -> u64 {
        self.symbols
    }

    /// Processes one symbol; returns the natural-order spectrum and the
    /// cycles this symbol took.
    ///
    /// # Errors
    ///
    /// Propagates simulator traps.
    pub fn process(
        &mut self,
        input: &[Complex<Q15>],
    ) -> Result<(Vec<Complex<Q15>>, u64), AsipError> {
        self.plan.stage(input)?;
        let machine = self.plan.machine_mut();
        machine.rewind();
        let before = machine.stats().cycles;
        // The cycle counter accumulates across symbols: no budget.
        machine.run(u64::MAX)?;
        let cycles = machine.stats().cycles - before;

        let mut output = vec![Complex::zero(); self.len()];
        self.plan.read_output(&mut output)?;
        self.symbols += 1;
        self.total_cycles += cycles;
        if self.first_cycles.is_none() {
            self.first_cycles = Some(cycles);
        }
        Ok((output, cycles))
    }

    /// Cumulative statistics of the underlying machine.
    pub fn stats(&self) -> Stats {
        self.plan.machine().stats()
    }

    /// Cold-start cycles of the first symbol (None before any symbol).
    pub fn first_symbol_cycles(&self) -> Option<u64> {
        self.first_cycles
    }

    /// Mean cycles per symbol *excluding* the first (steady state);
    /// falls back to the overall mean with fewer than two symbols.
    pub fn steady_state_cycles(&self) -> f64 {
        match (self.first_cycles, self.symbols) {
            (Some(first), s) if s >= 2 => (self.total_cycles - first) as f64 / (s - 1) as f64,
            (_, s) if s > 0 => self.total_cycles as f64 / s as f64,
            _ => 0.0,
        }
    }

    /// Steady-state sample throughput in Msamples/s at `clock_mhz`.
    pub fn steady_state_msps(&self, clock_mhz: f64) -> f64 {
        let c = self.steady_state_cycles();
        if c == 0.0 {
            0.0
        } else {
            self.len() as f64 * clock_mhz / c
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{golden_array_fft, quantize_input};
    use afft_core::Direction;
    use afft_num::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn symbol(n: usize, seed: u64) -> Vec<Complex<Q15>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sig: Vec<C64> = (0..n)
            .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
            .collect();
        quantize_input(&sig, 0.9)
    }

    #[test]
    fn every_symbol_is_bit_exact_vs_golden() {
        let mut p = FftPipeline::new(64, Timing::default()).unwrap();
        for seed in 0..4 {
            let x = symbol(64, seed);
            let (got, cycles) = p.process(&x).unwrap();
            let want = golden_array_fft(&x, Direction::Forward).unwrap();
            assert_eq!(got, want, "symbol {seed}");
            assert!(cycles > 0);
        }
        assert_eq!(p.symbols(), 4);
    }

    #[test]
    fn steady_state_is_no_slower_than_cold_start() {
        let mut p = FftPipeline::new(256, Timing::default()).unwrap();
        for seed in 0..5 {
            p.process(&symbol(256, seed)).unwrap();
        }
        let first = p.first_symbol_cycles().expect("processed symbols") as f64;
        let steady = p.steady_state_cycles();
        assert!(steady <= first, "steady {steady} vs cold {first}");
        assert!(p.steady_state_msps(300.0) > 0.0);
    }

    #[test]
    fn rejects_wrong_symbol_length() {
        let mut p = FftPipeline::new(64, Timing::default()).unwrap();
        assert!(p.process(&symbol(128, 0)).is_err());
        assert_eq!(p.len(), 64);
        assert!(!p.is_empty());
    }
}
