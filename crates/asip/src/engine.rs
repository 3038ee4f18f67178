//! [`FftEngine`] adapter over the cycle-accurate ASIP ISS: the
//! simulated hardware as just another backend in the registry.
//!
//! The engine plans lazily, once per direction: the first transform in
//! a direction builds an [`AsipPlan`] (generated Algorithm-1 program,
//! layout-sized machine, staged pre-rotation table) and keeps it.
//! Every [`AsipEngine::execute_into`](afft_core::FftEngine::execute_into)
//! then quantises the `f64` input into the Q15 wire format (auto-scaled
//! to 50% of full scale at the input peak) in an engine-owned staging
//! buffer, reruns the plan from the machine's power-on state, and
//! rescales the output straight into the caller's slice to meet the
//! unnormalised-DFT contract of the trait. After the first call in each
//! direction the adapter does no heap work. Execution statistics of the
//! most recent run (cycles, instruction classes, cache counters) are
//! retained and exposed through [`AsipEngine::last_stats`];
//! [`AsipEngine::traffic`] reports the measured `LDIN`/`STOUT` point
//! traffic once a run has happened and the closed-form prediction
//! (`2N` points each way) before.
//!
//! # Examples
//!
//! ```
//! use afft_asip::engine::AsipEngine;
//! use afft_core::{Direction, FftEngine};
//! use afft_num::Complex;
//!
//! let mut engine = AsipEngine::new(64)?;
//! let x = vec![Complex::new(1.0, 0.0); 64];
//! let spectrum = engine.execute(&x, Direction::Forward)?;
//! assert!((spectrum[0].re - 64.0).abs() < 0.5);
//! assert!(engine.last_stats().expect("ran").cycles > 0);
//! # Ok::<(), afft_core::FftError>(())
//! ```

use crate::program::ProgramOptions;
use crate::runner::{AsipError, AsipPlan};
use afft_core::cached::MemTraffic;
use afft_core::engine::{check_io, EngineRegistry, FftEngine};
use afft_core::{Direction, FftError, Split};
use afft_num::{Complex, C64, Q15};
use afft_sim::{MachineConfig, Stats};

/// Fraction of Q15 full scale the input peak is normalised to before
/// quantisation: headroom against the intermediate growth the per-stage
/// halving does not fully absorb.
const QUANT_AMPLITUDE: f64 = 0.5;

/// The cycle-accurate ASIP ISS behind the [`FftEngine`] interface.
pub struct AsipEngine {
    n: usize,
    last_stats: Option<Stats>,
    /// The forward and inverse plans, each built on first use.
    plans: [Option<AsipPlan>; 2],
    /// Q15 staging reused for the quantised input and then the spectrum.
    q15_scratch: Vec<Complex<Q15>>,
    /// Modeled cycle counts of every run — always recorded (the
    /// simulator's own cost dwarfs two histogram adds), so per-run
    /// variation (e.g. across cache configurations) is inspectable
    /// instead of only the last value.
    cycle_hist: afft_obs::Histogram,
}

impl AsipEngine {
    /// Plans an ASIP run of size `n` (power of two, `>= 64`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Split::for_size(n)?;
        Ok(AsipEngine {
            n,
            last_stats: None,
            plans: [None, None],
            q15_scratch: Vec::new(),
            cycle_hist: afft_obs::Histogram::new(),
        })
    }

    /// Execution statistics of the most recent transform, or `None`
    /// before the first run.
    pub fn last_stats(&self) -> Option<Stats> {
        self.last_stats
    }

    /// Cycle count of the most recent run, or `None` before the first.
    pub fn last_cycles(&self) -> Option<u64> {
        self.last_stats().map(|s| s.cycles)
    }

    /// Distribution of modeled cycle counts over every run this engine
    /// instance has executed (empty before the first).
    pub fn cycle_histogram(&self) -> &afft_obs::Histogram {
        &self.cycle_hist
    }
}

impl core::fmt::Debug for AsipEngine {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AsipEngine")
            .field("n", &self.n)
            .field("last_cycles", &self.last_cycles())
            .finish()
    }
}

impl FftEngine for AsipEngine {
    fn name(&self) -> &str {
        "asip_iss"
    }

    fn len(&self) -> usize {
        self.n
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.n, input, output)?;
        // Normalise the peak component to QUANT_AMPLITUDE of full scale
        // so arbitrary-magnitude inputs survive quantisation.
        let peak = input.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0, f64::max);
        let scale = if peak > 0.0 { QUANT_AMPLITUDE / peak } else { 1.0 };
        self.q15_scratch.resize(self.n, Complex::zero());
        for (slot, &c) in self.q15_scratch.iter_mut().zip(input) {
            *slot = Complex::from_c64(c * scale);
        }

        let backend = |e: AsipError| match e {
            AsipError::Fft(e) => e,
            other => FftError::Backend { engine: "asip_iss".into(), reason: other.to_string() },
        };
        let slot = &mut self.plans[usize::from(matches!(dir, Direction::Inverse))];
        let plan = match slot {
            Some(plan) => plan,
            None => slot.insert(
                AsipPlan::new(self.n, dir, ProgramOptions::default(), &MachineConfig::default())
                    .map_err(backend)?,
            ),
        };
        let stats = plan.run(&self.q15_scratch).map_err(backend)?;
        plan.read_output(&mut self.q15_scratch).map_err(backend)?;
        self.last_stats = Some(stats);
        self.cycle_hist.record(stats.cycles);

        // The datapath scales by 1/N; undo that and the input scaling
        // to meet the unnormalised-DFT contract.
        let restore = self.n as f64 / scale;
        for (slot, q) in output.iter_mut().zip(&self.q15_scratch) {
            *slot = q.to_c64() * restore;
        }
        Ok(())
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // Each LDIN/STOUT beat moves two complex points.
        match self.last_stats() {
            Some(s) => {
                Some(MemTraffic { loads: 2 * s.ldin as usize, stores: 2 * s.stout as usize })
            }
            // Closed form before any run: N/2 beats per epoch, two
            // epochs, two points per beat, each way.
            None => Some(MemTraffic { loads: 2 * self.n, stores: 2 * self.n }),
        }
    }

    fn tolerance(&self) -> f64 {
        // 16-bit datapath with per-stage rounding: a few percent of the
        // spectrum peak in the worst case.
        0.08
    }

    fn cycles(&self) -> Option<u64> {
        self.last_cycles()
    }
}

/// [`EngineRegistry::paper`] plus the cycle-accurate ASIP backend: the
/// paper's full comparison set, for the conformance suites and the
/// survey and table bins. The ISS registers for sizes the array
/// structure supports; other sizes — composite, prime, arbitrary —
/// pass through with the software registry only, since the array
/// structure is power-of-two by construction.
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless `EngineRegistry::supports`
/// holds for `n` (any `n >= 2`).
///
/// # Examples
///
/// ```
/// let registry = afft_asip::engine::registry_with_asip(1024)?;
/// assert!(registry.get("asip_iss").is_some());
/// assert!(registry.len() >= 5);
/// # Ok::<(), afft_core::FftError>(())
/// ```
pub fn registry_with_asip(n: usize) -> Result<EngineRegistry, FftError> {
    let mut registry = EngineRegistry::paper(n)?;
    if Split::for_size(n).is_ok() {
        registry.register(Box::new(AsipEngine::new(n)?));
    }
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn asip_engine_matches_naive_dft_within_tolerance() {
        let n = 128;
        let mut engine = AsipEngine::new(n).unwrap();
        let x = random_signal(n, 1);
        let got = engine.execute(&x, Direction::Forward).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        let err = max_error(&got, &want) / peak;
        assert!(err < engine.tolerance(), "relative error {err}");
    }

    #[test]
    fn stats_and_traffic_reflect_the_run() {
        let n = 256;
        let mut engine = AsipEngine::new(n).unwrap();
        // Before the run: the closed-form prediction.
        assert_eq!(engine.traffic().unwrap().total(), 4 * n);
        assert!(engine.last_stats().is_none());
        assert!(engine.cycle_histogram().is_empty());
        engine.execute(&random_signal(n, 2), Direction::Forward).unwrap();
        let stats = engine.last_stats().expect("stats retained");
        assert_eq!(stats.ldin, n as u64);
        assert_eq!(stats.stout, n as u64);
        assert!(stats.cycles > 0);
        // Every run lands in the cycle distribution; the canonical
        // program is deterministic, so both runs cost the same bucket.
        engine.execute(&random_signal(n, 4), Direction::Forward).unwrap();
        let hist = engine.cycle_histogram();
        assert_eq!(hist.count(), 2);
        assert_eq!(hist.p50(), hist.p99(), "deterministic program, one bucket");
        // Measured traffic equals the prediction for the canonical
        // program: each beat moves two points.
        assert_eq!(engine.traffic().unwrap().total(), 4 * n);
    }

    #[test]
    fn arbitrary_magnitude_inputs_are_normalised() {
        let n = 64;
        let mut engine = AsipEngine::new(n).unwrap();
        // Values far outside [-1, 1): naive quantisation would saturate.
        let x: Vec<C64> = random_signal(n, 3).iter().map(|&c| c * 1000.0).collect();
        let got = engine.execute(&x, Direction::Forward).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        assert!(max_error(&got, &want) / peak < engine.tolerance());
    }

    #[test]
    fn rejects_unsupported_sizes_and_lengths() {
        assert!(AsipEngine::new(32).is_err());
        assert!(AsipEngine::new(96).is_err());
        let mut engine = AsipEngine::new(64).unwrap();
        assert!(matches!(
            engine.execute(&random_signal(32, 1), Direction::Forward),
            Err(FftError::LengthMismatch { expected: 64, got: 32 })
        ));
    }

    #[test]
    fn registry_with_asip_gates_on_size() {
        let small = registry_with_asip(16).unwrap();
        assert!(small.get("asip_iss").is_none());
        let full = registry_with_asip(64).unwrap();
        assert_eq!(full.names().last().copied(), Some("asip_iss"));
        assert!(full.len() >= 6);
    }
}
