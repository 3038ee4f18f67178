//! High-level drivers: plan a generated program on the ISS once per
//! `(N, direction)` ([`AsipPlan`]), then stage inputs, run and collect
//! outputs and statistics as often as needed.

use crate::layout::Layout;
use crate::program::{generate_array_fft, ProgramOptions};
use afft_core::address::transposed_to_natural_bin;
use afft_core::{ArrayFft, Direction, FftError, Scaling, Split};
use afft_isa::AsmError;
use afft_num::{twiddle_q15, Complex, C64, Q15};
use afft_sim::{Machine, MachineConfig, SimError, Stats, Timing};
use core::fmt;

/// Error from a high-level ASIP run.
#[derive(Debug)]
#[non_exhaustive]
pub enum AsipError {
    /// Planning/validation failure.
    Fft(FftError),
    /// Program generation failure.
    Asm(AsmError),
    /// Simulator trap.
    Sim(SimError),
}

impl fmt::Display for AsipError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsipError::Fft(e) => write!(f, "fft: {e}"),
            AsipError::Asm(e) => write!(f, "asm: {e}"),
            AsipError::Sim(e) => write!(f, "sim: {e}"),
        }
    }
}

impl std::error::Error for AsipError {}

impl From<FftError> for AsipError {
    fn from(e: FftError) -> Self {
        AsipError::Fft(e)
    }
}
impl From<AsmError> for AsipError {
    fn from(e: AsmError) -> Self {
        AsipError::Asm(e)
    }
}
impl From<SimError> for AsipError {
    fn from(e: SimError) -> Self {
        AsipError::Sim(e)
    }
}

/// Result of one simulated transform.
#[derive(Debug, Clone)]
pub struct AsipRun {
    /// The spectrum in natural bin order (scaled by `1/N` by the
    /// per-stage datapath scaling).
    pub output: Vec<Complex<Q15>>,
    /// The raw hardware-order output as it sits in memory.
    pub output_transposed: Vec<Complex<Q15>>,
    /// Execution statistics (cycles, instruction classes, cache).
    pub stats: Stats,
}

/// Configuration of an ASIP run.
#[derive(Debug, Clone, Copy)]
pub struct AsipConfig {
    /// Latency model (shared with the baselines for fair comparison).
    pub timing: Timing,
    /// Program-generation options.
    pub options: ProgramOptions,
    /// Cycle budget before declaring a hang.
    pub max_cycles: u64,
}

impl Default for AsipConfig {
    fn default() -> Self {
        AsipConfig {
            timing: Timing::default(),
            options: ProgramOptions::default(),
            max_cycles: 500_000_000,
        }
    }
}

/// Quantises an `f64` signal into the ASIP's Q15 wire format, scaling
/// by `amplitude` to stay inside `[-1, 1)`.
pub fn quantize_input(input: &[C64], amplitude: f64) -> Vec<Complex<Q15>> {
    input.iter().map(|&c| Complex::from_c64(c * amplitude)).collect()
}

/// One planned ASIP transform, built once per `(N, direction)` as the
/// paper's ASIP is "recompiled for different FFT sizes": the generated
/// Algorithm-1 program, loaded into a [`Machine`] whose memory is sized
/// to the [`Layout`], with the pre-rotation table staged (the program
/// only reads it). Each [`AsipPlan::run`] then stages an input,
/// restarts the machine and simulates, with no heap work.
///
/// # Examples
///
/// ```
/// use afft_asip::runner::{AsipConfig, AsipPlan};
/// use afft_core::Direction;
/// use afft_num::{Complex, Q15};
///
/// let mut plan = AsipPlan::new(64, Direction::Forward, &AsipConfig::default())?;
/// let mut impulse = vec![Complex::zero(); 64];
/// impulse[0].re = Q15::from_f64(0.5);
/// let mut spectrum = vec![Complex::zero(); 64];
/// for _ in 0..2 {
///     assert!(plan.run(&impulse)?.cycles > 0);
///     plan.read_output(&mut spectrum)?;
///     // Flat spectrum, scaled by 1/N in the datapath.
///     assert!((spectrum[7].re.to_f64() - 0.5 / 64.0).abs() < 1e-3);
/// }
/// # Ok::<(), afft_asip::AsipError>(())
/// ```
#[derive(Debug)]
pub struct AsipPlan {
    layout: Layout,
    machine: Machine,
    /// `natural_bin[a]` is the natural-order bin of the point the
    /// program stores at transposed output index `a`.
    natural_bin: Vec<usize>,
    max_cycles: u64,
}

impl AsipPlan {
    /// Plans an `n`-point transform in direction `dir` on the default
    /// machine.
    ///
    /// # Errors
    ///
    /// Returns [`AsipError`] for invalid sizes or generation failures.
    pub fn new(n: usize, dir: Direction, cfg: &AsipConfig) -> Result<Self, AsipError> {
        Self::with_machine_config(n, dir, cfg, &MachineConfig::default())
    }

    /// [`AsipPlan::new`] with explicit machine parameters (cache
    /// geometry, streaming-port ablation flag, ...). CRF capacity and
    /// memory size come from the transform size: memory is exactly the
    /// layout's `mem_bytes`, so a stray access traps
    /// [`SimError::BadAddress`].
    ///
    /// # Errors
    ///
    /// As for [`AsipPlan::new`].
    pub fn with_machine_config(
        n: usize,
        dir: Direction,
        cfg: &AsipConfig,
        machine_cfg: &MachineConfig,
    ) -> Result<Self, AsipError> {
        let split = Split::for_size(n)?;
        let layout = Layout::for_size(n);
        let mut options = cfg.options;
        options.inverse = matches!(dir, Direction::Inverse);
        let program = generate_array_fft(&split, &layout, options)?;

        let mut machine = Machine::new(MachineConfig {
            mem_bytes: layout.mem_bytes,
            timing: cfg.timing,
            crf_capacity: split.p_size,
            ..*machine_cfg
        });
        // The N/8 + 1 compressed pre-rotation coefficients, as the
        // host runtime of the real system writes them.
        for k in 0..=n / 8 {
            machine.mem_mut().write_complex(layout.table_base + 4 * k as u32, twiddle_q15(n, k))?;
        }
        machine.load_program(program);
        let natural_bin = (0..n).map(|addr| transposed_to_natural_bin(&split, addr)).collect();
        Ok(AsipPlan { layout, machine, natural_bin, max_cycles: cfg.max_cycles })
    }

    /// Transform size.
    pub fn len(&self) -> usize {
        self.layout.n
    }

    /// Plans are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The planned machine, with the program loaded.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Mutable access to the planned machine, for drivers that run it
    /// their own way (warm reruns, profiling).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// Writes `input` (natural order) to the program's input region.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless `input` has
    /// [`AsipPlan::len`] points.
    pub fn stage(&mut self, input: &[Complex<Q15>]) -> Result<(), AsipError> {
        self.check_len(input.len())?;
        self.machine.mem_mut().write_complex_slice(self.layout.in_base, input)?;
        Ok(())
    }

    /// Runs one transform of `input`: stages it, restarts the machine
    /// ([`Machine::restart`]) and simulates to `HALT`, so every run's
    /// statistics equal those of a freshly built machine.
    ///
    /// # Errors
    ///
    /// Length mismatches as for [`AsipPlan::stage`]; simulator traps,
    /// including [`SimError::CycleLimit`] past the configured budget.
    pub fn run(&mut self, input: &[Complex<Q15>]) -> Result<Stats, AsipError> {
        self.stage(input)?;
        self.machine.restart();
        Ok(self.machine.run(self.max_cycles)?)
    }

    /// Reads the spectrum the last run left in memory into `output`, in
    /// natural bin order (scaled by `1/N` by the datapath).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] unless `output` has
    /// [`AsipPlan::len`] points.
    pub fn read_output(&self, output: &mut [Complex<Q15>]) -> Result<(), AsipError> {
        self.check_len(output.len())?;
        for (addr, &bin) in self.natural_bin.iter().enumerate() {
            output[bin] =
                self.machine.mem().read_complex(self.layout.out_base + 4 * addr as u32)?;
        }
        Ok(())
    }

    fn check_len(&self, got: usize) -> Result<(), FftError> {
        if got == self.len() {
            Ok(())
        } else {
            Err(FftError::LengthMismatch { expected: self.len(), got })
        }
    }
}

/// Runs the array-FFT ASIP program for `input` (already quantised):
/// plans the transform ([`AsipPlan`]), runs it once and gathers the
/// output. Callers that transform more than once should keep an
/// [`AsipPlan`] instead.
///
/// # Errors
///
/// Returns [`AsipError`] for invalid sizes, generation failures or
/// simulator traps.
pub fn run_array_fft(
    input: &[Complex<Q15>],
    dir: Direction,
    cfg: &AsipConfig,
) -> Result<AsipRun, AsipError> {
    run_array_fft_with_machine_config(input, dir, cfg, &MachineConfig::default())
}

/// [`run_array_fft`] with explicit machine parameters (cache geometry,
/// streaming-port ablation flag, ...). Memory size and CRF capacity are
/// still derived from the transform size, as for
/// [`AsipPlan::with_machine_config`].
///
/// # Errors
///
/// As for [`run_array_fft`].
pub fn run_array_fft_with_machine_config(
    input: &[Complex<Q15>],
    dir: Direction,
    cfg: &AsipConfig,
    machine_cfg: &MachineConfig,
) -> Result<AsipRun, AsipError> {
    let mut plan = AsipPlan::with_machine_config(input.len(), dir, cfg, machine_cfg)?;
    let stats = plan.run(input)?;
    let mut output = vec![Complex::zero(); input.len()];
    plan.read_output(&mut output)?;
    let output_transposed =
        plan.machine.mem().read_complex_slice(plan.layout.out_base, input.len())?;
    Ok(AsipRun { output, output_transposed, stats })
}

/// The golden prediction for [`run_array_fft`]: the `afft-core`
/// software model with the same fixed-point datapath. The ISS result
/// must match this **bit-exactly** (asserted by integration tests).
///
/// # Errors
///
/// Propagates planning errors.
pub fn golden_array_fft(
    input: &[Complex<Q15>],
    dir: Direction,
) -> Result<Vec<Complex<Q15>>, FftError> {
    let fft: ArrayFft<Q15> = ArrayFft::with_scaling(input.len(), Scaling::HalfPerStage)?;
    fft.process(input, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_input(n: usize, seed: u64) -> Vec<Complex<Q15>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex::new(
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                )
            })
            .collect()
    }

    #[test]
    fn iss_matches_golden_bit_exactly_64() {
        let input = random_input(64, 1);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let golden = golden_array_fft(&input, Direction::Forward).unwrap();
        assert_eq!(run.output, golden, "ISS and software model disagree");
    }

    #[test]
    fn iss_matches_golden_bit_exactly_256() {
        let input = random_input(256, 2);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let golden = golden_array_fft(&input, Direction::Forward).unwrap();
        assert_eq!(run.output, golden);
    }

    #[test]
    fn iss_output_approximates_true_dft() {
        let n = 128;
        let input = random_input(n, 3);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let exact_in: Vec<C64> = input.iter().map(|c| c.to_c64()).collect();
        let want = dft_naive(&exact_in, Direction::Forward).unwrap();
        let got: Vec<C64> = run.output.iter().map(|c| c.to_c64() * n as f64).collect();
        let scale = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
        assert!(max_error(&got, &want) / scale < 0.03);
    }

    #[test]
    fn instruction_counts_match_algorithm_1() {
        let n = 1024;
        let input = random_input(n, 4);
        let run = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        assert_eq!(run.stats.ldin, 1024);
        assert_eq!(run.stats.stout, 1024);
        assert_eq!(run.stats.but4, 1280);
        // Non-trivial pre-rotations only: (P-1)(Q-1) = 31*31.
        assert_eq!(run.stats.coef_fetches, 961);
        // Table-II-style counts: loads ~ N, stores ~ N.
        assert_eq!(run.stats.table_loads(), 1024);
        assert_eq!(run.stats.table_stores(), 1024);
    }

    #[test]
    fn inverse_round_trips() {
        let n = 64;
        let input = random_input(n, 5);
        let fwd = run_array_fft(&input, Direction::Forward, &AsipConfig::default()).unwrap();
        let back = run_array_fft(&fwd.output, Direction::Inverse, &AsipConfig::default()).unwrap();
        // Forward scales by 1/N, inverse by 1/N, and IDFT needs 1/N:
        // net output = input / N. Compare rescaled. Rescaling by N
        // amplifies the Q15 LSB to N/32768 per rounding step, and two
        // cascaded transforms stack those errors, so the worst-case
        // deviation sits near 0.1 for unlucky signals.
        let got: Vec<C64> = back.output.iter().map(|c| c.to_c64() * n as f64).collect();
        let want: Vec<C64> = input.iter().map(|c| c.to_c64()).collect();
        assert!(max_error(&got, &want) < 0.1);
    }
}
