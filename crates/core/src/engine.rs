//! The polymorphic execution layer: every FFT backend in the workspace
//! behind one [`FftEngine`] trait, enumerable through an
//! [`EngineRegistry`].
//!
//! The paper compares one algorithm across several execution substrates
//! (golden models, prior-art architectures, the cycle-accurate ASIP).
//! Before this layer each backend exposed an ad-hoc signature and every
//! harness carried per-backend glue; now a harness iterates the
//! registry and calls [`FftEngine::execute`].
//!
//! The engine set is split by role. [`EngineRegistry::standard`] holds
//! the **serving** engines, the only ones that can win a planner
//! ranking: the planner, the stream pipeline and the TCP server build
//! from it. [`EngineRegistry::paper`] adds the O(N²) golden model and
//! the prior art the paper compares against (radix-2, MCFFT, Baas's
//! cached FFT), for the conformance suites and the survey bins.
//!
//! # Contract
//!
//! For a length-`N` engine, the execution **primitive** is
//! [`FftEngine::execute_into`]: it writes the *unnormalised* DFT
//! `X(k) = sum_m x(m) W_N^{km}` (or, for `Direction::Inverse`, the
//! unnormalised conjugate sum) in natural bin order into a
//! caller-provided `N`-point output buffer, so
//! `Inverse(Forward(x)) == N * x` for every engine. Backends that scale
//! internally (e.g. the per-stage-halving Q15 datapath) rescale to meet
//! this contract; their [`FftEngine::tolerance`] reports the expected
//! deviation relative to the spectrum peak.
//!
//! # Zero-allocation execution
//!
//! `execute_into` takes `&mut self` because every backend owns its
//! scratch buffers (the FFTW plan idiom): the first call sizes them,
//! every later call reuses them, so steady-state traffic does **zero
//! heap work per transform** — the caller brings the output, the engine
//! brings the scratch. [`FftEngine::execute`] is a provided convenience
//! wrapper that allocates one output buffer and delegates; the two
//! paths are bit-identical. Input and output never alias (enforced by
//! the borrow checker), and on error the output buffer's contents are
//! unspecified.
//!
//! This contract is what the upper layers build on: a planned engine
//! looped on one thread and the streaming pipeline's long-lived workers
//! each own one engine instance (and therefore one scratch set) per
//! thread — [`FftEngine`] deliberately carries no `Sync` bound — and
//! drive it through `execute_into` so steady-state throughput work
//! never touches the allocator.
//!
//! # Examples
//!
//! ```
//! use afft_core::engine::EngineRegistry;
//! use afft_core::Direction;
//! use afft_num::Complex;
//!
//! let mut registry = EngineRegistry::paper(64)?;
//! assert!(registry.len() >= 5);
//! let x = vec![Complex::new(1.0, 0.0); 64];
//! // One reusable output buffer serves every engine: no per-transform
//! // allocation anywhere in the loop.
//! let mut spectrum = vec![Complex::zero(); 64];
//! for engine in registry.engines_mut() {
//!     engine.execute_into(&x, &mut spectrum, Direction::Forward)?;
//!     assert!((spectrum[0].re - 64.0).abs() < 1e-6, "{}", engine.name());
//! }
//! # Ok::<(), afft_core::FftError>(())
//! ```

use crate::array::ArrayFft;
use crate::bluestein::{bluestein_into, BluesteinPlan};
use crate::cached::{cached_fft_into, plain_fft_traffic, CachedFftScratch, MemTraffic};
use crate::error::FftError;
use crate::mcfft::{mcfft_into, Epochs, McfftScratch};
use crate::mixed::{factorize, mixed_radix_into, MixedRadixPlan};
use crate::plan::Split;
use crate::rader::{is_prime, rader_into, RaderPlan};
use crate::radix4::{is_power_of_four, radix4_dit_into, Radix4Plan};
use crate::reference::{
    bit_reverse_permute, dft_naive_into, fft_radix2_dif_f64, fft_radix2_dit_f64, Direction,
};
use crate::simd::{self, Radix4SimdEngine};
use afft_num::{Complex, C64};

/// A uniform interface over every FFT backend in the workspace.
///
/// See the [module documentation](self) for the execute contract.
pub trait FftEngine {
    /// Stable snake_case identifier (e.g. `"array_fft"`, `"asip_iss"`).
    fn name(&self) -> &str;

    /// The transform size `N` this engine instance is planned for.
    fn len(&self) -> usize;

    /// Never true for a planned engine; provided alongside
    /// [`FftEngine::len`] for API completeness.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The execution primitive: runs the transform into a
    /// caller-provided output buffer, reusing engine-owned scratch.
    /// Input and output length must both equal [`FftEngine::len`];
    /// after the engine's first transform this performs no heap
    /// allocation. On error the output contents are unspecified.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::LengthMismatch`] for wrong input or output
    /// lengths, or a backend-specific error ([`FftError::Backend`])
    /// when the execution substrate fails.
    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError>;

    /// Convenience wrapper over [`FftEngine::execute_into`]: allocates
    /// one output buffer and delegates. Bit-identical to the `_into`
    /// path; steady-state callers should prefer the primitive and
    /// reuse their own buffer.
    ///
    /// # Errors
    ///
    /// As [`FftEngine::execute_into`].
    fn execute(&mut self, input: &[C64], dir: Direction) -> Result<Vec<C64>, FftError> {
        let mut output = vec![Complex::zero(); self.len()];
        self.execute_into(input, &mut output, dir)?;
        Ok(output)
    }

    /// Main-memory traffic of one transform in complex points, where
    /// the backend models it (`None` for pure math backends).
    fn traffic(&self) -> Option<MemTraffic>;

    /// Expected worst-case deviation from the exact DFT, relative to
    /// the spectrum peak. Exact-arithmetic backends keep the default;
    /// quantised datapaths override it.
    fn tolerance(&self) -> f64 {
        1e-8
    }

    /// Cycle count of the most recent [`FftEngine::execute`], on
    /// backends with a cycle-accurate substrate (`None` elsewhere).
    fn cycles(&self) -> Option<u64> {
        None
    }
}

/// Validates an [`FftEngine::execute_into`] buffer pair against the
/// engine's planned size — the one length-check shared by every
/// backend, in this crate and out-of-crate adapters alike.
///
/// # Errors
///
/// Returns [`FftError::LengthMismatch`] if either buffer is not `n`
/// points.
pub fn check_io(n: usize, input: &[C64], output: &[C64]) -> Result<(), FftError> {
    if input.len() != n {
        return Err(FftError::LengthMismatch { expected: n, got: input.len() });
    }
    if output.len() != n {
        return Err(FftError::LengthMismatch { expected: n, got: output.len() });
    }
    Ok(())
}

/// The naive `O(N^2)` DFT as an engine: the golden reference.
#[derive(Debug, Clone, Copy)]
pub struct NaiveDftEngine {
    n: usize,
}

impl NaiveDftEngine {
    /// Plans a naive DFT of size `n` (any non-zero size).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for `n == 0`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        if n == 0 {
            return Err(FftError::InvalidSize { n, reason: "empty transform", factor: None });
        }
        Ok(NaiveDftEngine { n })
    }
}

impl FftEngine for NaiveDftEngine {
    fn name(&self) -> &str {
        "dft_naive"
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
        dft_naive_into(input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        None
    }
}

/// The classic radix-2 decimation-in-time FFT as an engine.
#[derive(Debug, Clone, Copy)]
pub struct Radix2DitEngine {
    n: usize,
}

impl Radix2DitEngine {
    /// Plans a DIT FFT of size `n` (power of two, `>= 2`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        check_pow2_size(n)?;
        Ok(Radix2DitEngine { n })
    }
}

impl FftEngine for Radix2DitEngine {
    fn name(&self) -> &str {
        "radix2_dit"
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
        output.copy_from_slice(input);
        fft_radix2_dit_f64(output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        Some(plain_fft_traffic(self.n))
    }
}

/// The radix-2 decimation-in-frequency FFT as an engine (its
/// bit-reversed output is re-ordered to natural order).
#[derive(Debug, Clone, Copy)]
pub struct Radix2DifEngine {
    n: usize,
}

impl Radix2DifEngine {
    /// Plans a DIF FFT of size `n` (power of two, `>= 2`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        check_pow2_size(n)?;
        Ok(Radix2DifEngine { n })
    }
}

impl FftEngine for Radix2DifEngine {
    fn name(&self) -> &str {
        "radix2_dif"
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
        output.copy_from_slice(input);
        fft_radix2_dif_f64(output, dir)?;
        bit_reverse_permute(output);
        Ok(())
    }

    fn traffic(&self) -> Option<MemTraffic> {
        Some(plain_fft_traffic(self.n))
    }
}

/// The radix-4 decimation-in-time FFT as an engine (power-of-4 sizes;
/// ~25% fewer complex multiplies than radix-2, plan-time twiddle
/// tables).
#[derive(Debug, Clone)]
pub struct Radix4DitEngine {
    plan: Radix4Plan,
}

impl Radix4DitEngine {
    /// Plans a radix-4 DIT FFT of size `n` (a power of 4, `>= 4`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Ok(Radix4DitEngine { plan: Radix4Plan::new(n)? })
    }
}

impl FftEngine for Radix4DitEngine {
    fn name(&self) -> &str {
        "radix4_dit"
    }

    fn len(&self) -> usize {
        self.plan.len()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        radix4_dit_into(&self.plan, input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // In-place combine: one full pass per radix-4 stage, half the
        // stage count of the radix-2 kernels.
        let n = self.plan.len();
        let stages = (n.trailing_zeros() / 2) as usize;
        Some(MemTraffic { loads: n * stages, stores: n * stages })
    }
}

/// The general mixed-radix FFT as an engine: any `n >= 2` with prime
/// factors in {2, 3, 5} — the only registry backend that serves
/// composite OFDM sizes like 60, 1200 and 1536.
#[derive(Debug, Clone)]
pub struct MixedRadixEngine {
    plan: MixedRadixPlan,
}

impl MixedRadixEngine {
    /// Plans a mixed-radix FFT of size `n` (`n >= 2`, 5-smooth).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Ok(MixedRadixEngine { plan: MixedRadixPlan::new(n)? })
    }

    /// The stage radices the plan factorised `n` into, outermost first.
    pub fn radices(&self) -> Vec<usize> {
        self.plan.radices()
    }
}

impl FftEngine for MixedRadixEngine {
    fn name(&self) -> &str {
        "mixed_radix"
    }

    fn len(&self) -> usize {
        self.plan.len()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        mixed_radix_into(&mut self.plan, input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // One full load + store pass per factor stage.
        let n = self.plan.len();
        let stages = self.plan.radices().len();
        Some(MemTraffic { loads: n * stages, stores: n * stages })
    }
}

/// The array-structured FFT golden model is itself an engine; its
/// `_into` path reuses the plan-owned scratch and fuses the natural-
/// order gather into the epoch-1 store (see [`ArrayFft::process_into`]).
impl FftEngine for ArrayFft<f64> {
    fn name(&self) -> &str {
        "array_fft"
    }

    fn len(&self) -> usize {
        ArrayFft::len(self)
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        self.process_into(input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // One load and one store per point per epoch through the CRF
        // streaming port (the LDIN/STOUT beat count times two points).
        let n = ArrayFft::len(self);
        Some(MemTraffic { loads: 2 * n, stores: 2 * n })
    }
}

/// Baas's two-epoch cached FFT as an engine (with engine-owned
/// staging/cache scratch for the allocation-free path).
#[derive(Debug, Clone)]
pub struct CachedFftEngine {
    n: usize,
    scratch: CachedFftScratch,
}

impl CachedFftEngine {
    /// Plans a cached FFT of size `n` (power of two, `>= 64`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] otherwise.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Split::for_size(n)?;
        Ok(CachedFftEngine { n, scratch: CachedFftScratch::new() })
    }
}

impl FftEngine for CachedFftEngine {
    fn name(&self) -> &str {
        "cached_fft"
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
        cached_fft_into(input, output, dir, &mut self.scratch)?;
        Ok(())
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // Two epochs, each touching every point once in each direction.
        Some(MemTraffic { loads: 2 * self.n, stores: 2 * self.n })
    }
}

/// The multi-epoch cached FFT (MCFFT) as an engine (with an
/// engine-owned scratch arena for the allocation-free path).
#[derive(Debug, Clone)]
pub struct McfftEngine {
    epochs: Epochs,
    scratch: McfftScratch,
}

impl McfftEngine {
    /// Plans an MCFFT with the canonical decomposition for `n`: epochs
    /// of at most 16 points, mirroring a small-cache configuration.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `n` is a power of two
    /// `>= 2`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        check_pow2_size(n)?;
        let mut factors = Vec::new();
        let mut bits = n.trailing_zeros();
        while bits > 0 {
            let step = bits.min(4);
            factors.push(1usize << step);
            bits -= step;
        }
        Self::with_epochs(Epochs::new(n, &factors)?)
    }

    /// Plans an MCFFT with an explicit epoch decomposition.
    ///
    /// # Errors
    ///
    /// Currently infallible; kept fallible for API symmetry.
    pub fn with_epochs(epochs: Epochs) -> Result<Self, FftError> {
        Ok(McfftEngine { epochs, scratch: McfftScratch::new() })
    }

    /// The epoch decomposition in use.
    pub fn epochs(&self) -> &Epochs {
        &self.epochs
    }
}

impl FftEngine for McfftEngine {
    fn name(&self) -> &str {
        "mcfft"
    }

    fn len(&self) -> usize {
        self.epochs.n()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        check_io(self.epochs.n(), input, output)?;
        mcfft_into(input, output, &self.epochs, dir, &mut self.scratch)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        Some(self.epochs.traffic())
    }
}

/// Bluestein's chirp-Z FFT as an engine: **any** `n >= 2` through one
/// power-of-two cyclic convolution on the mixed-radix kernel — the
/// registry's universal fallback that closes the size domain (primes,
/// 5G NR DFT-s-OFDM sizes, arbitrary user requests).
#[derive(Debug, Clone)]
pub struct BluesteinEngine {
    plan: BluesteinPlan,
}

impl BluesteinEngine {
    /// Plans a chirp-Z FFT of size `n` (any `n >= 2`).
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] for `n < 2`.
    pub fn new(n: usize) -> Result<Self, FftError> {
        Ok(BluesteinEngine { plan: BluesteinPlan::new(n)? })
    }

    /// The internal cyclic-convolution length (next power of two
    /// `>= 2n - 1`).
    pub fn conv_len(&self) -> usize {
        self.plan.conv_len()
    }
}

impl FftEngine for BluesteinEngine {
    fn name(&self) -> &str {
        "bluestein"
    }

    fn len(&self) -> usize {
        self.plan.len()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        bluestein_into(&mut self.plan, input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // Two m-point mixed-radix passes (one load + store per factor
        // stage) around the pointwise multiply, plus the O(n + m)
        // chirp/fold passes.
        let n = self.plan.len();
        let m = self.plan.conv_len();
        let stages = factorize(m).map_or(0, |radices| radices.len());
        let inner = 2 * m * stages;
        Some(MemTraffic { loads: inner + m + 2 * n, stores: inner + m + 2 * n })
    }

    fn tolerance(&self) -> f64 {
        // Three rounding fronts the direct kernels don't have: the
        // chirp multiply, the kernel-spectrum product, and the final
        // chirp/1-in-m fold. Each contributes O(eps) relative to the
        // spectrum peak; 1e-8 (the exact-arithmetic default) still
        // holds with orders of magnitude to spare at every size the
        // suite pins, so the default is kept deliberately.
        1e-8
    }
}

/// Rader's prime-length FFT as an engine: prime `p >= 3` through the
/// `(p-1)`-point generator-permutation cyclic convolution.
#[derive(Debug, Clone)]
pub struct RaderEngine {
    plan: RaderPlan,
}

impl RaderEngine {
    /// Plans a Rader FFT of prime size `p >= 3`.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless `p` is an odd prime.
    pub fn new(p: usize) -> Result<Self, FftError> {
        Ok(RaderEngine { plan: RaderPlan::new(p)? })
    }

    /// The engine family serving the inner `(p-1)`-point convolution.
    pub fn inner_engine(&self) -> &'static str {
        self.plan.inner_engine()
    }
}

impl FftEngine for RaderEngine {
    fn name(&self) -> &str {
        "rader"
    }

    fn len(&self) -> usize {
        self.plan.len()
    }

    fn execute_into(
        &mut self,
        input: &[C64],
        output: &mut [C64],
        dir: Direction,
    ) -> Result<(), FftError> {
        rader_into(&mut self.plan, input, output, dir)
    }

    fn traffic(&self) -> Option<MemTraffic> {
        // Two (p-1)-point inner passes, the gather/scatter permutations
        // and the pointwise kernel multiply.
        let p = self.plan.len();
        let m = p - 1;
        let stages = (usize::BITS - m.leading_zeros()) as usize;
        let inner = 2 * m * stages;
        Some(MemTraffic { loads: inner + 3 * m, stores: inner + 3 * m })
    }

    fn tolerance(&self) -> f64 {
        // One convolution (possibly Bluestein-backed, i.e. up to three
        // power-of-two FFTs deep) between gather and scatter; same
        // O(eps)-per-front argument as Bluestein, and the measured
        // error sits far below the exact-arithmetic default.
        1e-8
    }
}

fn check_pow2_size(n: usize) -> Result<(), FftError> {
    if !n.is_power_of_two() {
        return Err(FftError::InvalidSize { n, reason: "not a power of two", factor: None });
    }
    if n < 2 {
        return Err(FftError::InvalidSize { n, reason: "must be at least 2", factor: None });
    }
    Ok(())
}

/// An ordered collection of [`FftEngine`] backends for one size.
#[derive(Default)]
pub struct EngineRegistry {
    engines: Vec<Box<dyn FftEngine>>,
}

impl EngineRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether [`EngineRegistry::standard`] (and so
    /// [`EngineRegistry::paper`]) supports size `n`: **every** `n >= 2`.
    /// Powers of 4 get `radix4_dit`; every 5-smooth size (powers of two
    /// and composites like 60, 1200, 1536) gets `mixed_radix`; odd
    /// primes get `rader`; and `bluestein` registers for every size, so
    /// no factorisation — however adversarial — falls outside the
    /// domain. Only the degenerate sizes 0 and 1 are rejected.
    pub fn supports(n: usize) -> bool {
        n >= 2
    }

    /// The serving engines for size `n`: the ones a planner ranking
    /// can pick. `radix4_dit` on powers of 4, `mixed_radix` on 5-smooth
    /// sizes, `rader` on odd primes, the universal `bluestein` chirp-Z
    /// engine at every size, and from `n >= 64` (the smallest
    /// array-structured size) the array FFT. The golden model and the
    /// prior art live in [`EngineRegistry::paper`].
    ///
    /// On hosts with a detected vector unit the SIMD tier registers
    /// alongside its scalar sibling (from `n >= 16`): `radix4_simd` on
    /// powers of 4 — unless suppressed via `AFFT_NO_SIMD=1` (see
    /// [`simd::active_level`]). Because the backend-set hash keys
    /// planner wisdom, suppressing the tier invalidates SIMD-era
    /// wisdom by construction.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::InvalidSize`] unless
    /// [`EngineRegistry::supports`] holds for `n` (any `n >= 2`).
    pub fn standard(n: usize) -> Result<Self, FftError> {
        if !Self::supports(n) {
            return Err(FftError::InvalidSize {
                n,
                reason: "no registered backend (need n >= 2)",
                factor: None,
            });
        }
        let mut registry = EngineRegistry::new();
        if is_power_of_four(n) {
            registry.register(Box::new(Radix4DitEngine::new(n)?));
            if simd::active_level().is_simd() && n >= 16 {
                registry.register(Box::new(Radix4SimdEngine::new(n)?));
            }
        }
        if factorize(n).is_some() {
            registry.register(Box::new(MixedRadixEngine::new(n)?));
        }
        if is_prime(n) && n >= 3 {
            registry.register(Box::new(RaderEngine::new(n)?));
        }
        registry.register(Box::new(BluesteinEngine::new(n)?));
        if Split::for_size(n).is_ok() {
            registry.register(Box::new(ArrayFft::<f64>::new(n)?));
        }
        Ok(registry)
    }

    /// The paper's comparison set for size `n`: [`EngineRegistry::standard`]
    /// followed by the golden model and the prior art, none of which
    /// can win a ranking. The naive DFT at any size; both radix-2 FFTs
    /// and the MCFFT on powers of two; Baas's cached FFT from
    /// `n >= 64`. Conformance suites and survey bins enumerate this
    /// set; serving paths use `standard`.
    ///
    /// # Errors
    ///
    /// As [`EngineRegistry::standard`].
    pub fn paper(n: usize) -> Result<Self, FftError> {
        let mut registry = Self::standard(n)?;
        registry.register(Box::new(NaiveDftEngine::new(n)?));
        if n.is_power_of_two() {
            registry.register(Box::new(Radix2DitEngine::new(n)?));
            registry.register(Box::new(Radix2DifEngine::new(n)?));
            registry.register(Box::new(McfftEngine::new(n)?));
        }
        if Split::for_size(n).is_ok() {
            registry.register(Box::new(CachedFftEngine::new(n)?));
        }
        Ok(registry)
    }

    /// Adds an engine; duplicate names are rejected by debug assertion.
    pub fn register(&mut self, engine: Box<dyn FftEngine>) -> &mut Self {
        debug_assert!(
            self.get(engine.name()).is_none(),
            "duplicate engine name {:?}",
            engine.name()
        );
        self.engines.push(engine);
        self
    }

    /// Iterates the registered engines in registration order (shared
    /// view: metadata like [`FftEngine::name`], [`FftEngine::traffic`],
    /// [`FftEngine::cycles`]). Executing needs [`Self::engines_mut`].
    pub fn engines(&self) -> impl Iterator<Item = &dyn FftEngine> {
        self.engines.iter().map(Box::as_ref)
    }

    /// Iterates the registered engines mutably — the execution view:
    /// [`FftEngine::execute_into`] takes `&mut self` because engines
    /// own their scratch buffers.
    pub fn engines_mut<'a>(
        &'a mut self,
    ) -> impl Iterator<Item = &'a mut (dyn FftEngine + 'static)> + 'a {
        self.engines.iter_mut().map(Box::as_mut)
    }

    /// Looks an engine up by name.
    pub fn get(&self, name: &str) -> Option<&dyn FftEngine> {
        self.engines().find(|e| e.name() == name)
    }

    /// Looks an engine up by name, mutably (to execute it in place).
    pub fn get_mut(&mut self, name: &str) -> Option<&mut (dyn FftEngine + 'static)> {
        self.engines_mut().find(|e| e.name() == name)
    }

    /// Removes an engine by name and returns it owned — how a planner
    /// hands the winning backend to long-lived consumers (an OFDM
    /// modem, a stream-pipeline worker) without re-planning.
    pub fn take(&mut self, name: &str) -> Option<Box<dyn FftEngine>> {
        let idx = self.engines.iter().position(|e| e.name() == name)?;
        Some(self.engines.remove(idx))
    }

    /// The registered engine names, in registration order.
    pub fn names(&self) -> Vec<&str> {
        self.engines().map(FftEngine::name).collect()
    }

    /// Number of registered engines.
    pub fn len(&self) -> usize {
        self.engines.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.engines.is_empty()
    }
}

impl core::fmt::Debug for EngineRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EngineRegistry").field("engines", &self.names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{dft_naive, max_error};
    use afft_num::Complex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    /// The expected `standard` registration order for size `n`,
    /// conditioned on the host's active SIMD level the same way
    /// `standard` is.
    fn expected_standard(n: usize) -> Vec<&'static str> {
        let mut names = vec![];
        if is_power_of_four(n) {
            names.push("radix4_dit");
            if simd::active_level().is_simd() && n >= 16 {
                names.push("radix4_simd");
            }
        }
        if factorize(n).is_some() {
            names.push("mixed_radix");
        }
        if is_prime(n) && n >= 3 {
            names.push("rader");
        }
        names.push("bluestein");
        if Split::for_size(n).is_ok() {
            names.push("array_fft");
        }
        names
    }

    /// The expected `paper` registration order: `standard`, then the
    /// golden model and the prior art.
    fn expected_paper(n: usize) -> Vec<&'static str> {
        let mut names = expected_standard(n);
        names.push("dft_naive");
        if n.is_power_of_two() {
            names.extend(["radix2_dit", "radix2_dif", "mcfft"]);
        }
        if Split::for_size(n).is_ok() {
            names.push("cached_fft");
        }
        names
    }

    #[test]
    fn standard_registry_size_gates() {
        // Powers of two below/above the radix-4 and array thresholds.
        // The SIMD tier appears from n >= 16 exactly when the host
        // detects a vector unit.
        for n in [8usize, 16, 32, 64, 128, 256, 1024] {
            assert_eq!(EngineRegistry::standard(n).unwrap().names(), expected_standard(n), "n={n}");
            assert_eq!(EngineRegistry::paper(n).unwrap().names(), expected_paper(n), "n={n}");
        }
        // Composite 5-smooth sizes get mixed_radix only; odd primes add
        // Rader's engine; non-5-smooth composites fall through to the
        // universal chirp-Z fallback alone. Off the powers of two,
        // `paper` appends only the naive reference.
        for (sizes, names) in [
            (&[60usize, 243, 1200, 1536][..], &["mixed_radix", "bluestein"][..]),
            (&[7, 17, 97, 251, 1009], &["rader", "bluestein"]),
            (&[14, 77, 1022, 1344], &["bluestein"]),
        ] {
            for &n in sizes {
                assert_eq!(EngineRegistry::standard(n).unwrap().names(), names, "n={n}");
                let paper = [names, &["dft_naive"]].concat();
                assert_eq!(EngineRegistry::paper(n).unwrap().names(), paper, "n={n}");
            }
        }
        assert!(EngineRegistry::standard(0).is_err());
        assert!(EngineRegistry::standard(1).is_err());
    }

    #[test]
    fn simd_tier_registers_exactly_when_detected() {
        let expect = simd::active_level().is_simd();
        let r = EngineRegistry::standard(1024).unwrap();
        assert_eq!(r.get("radix4_simd").is_some(), expect);
        // Non-powers of 4 and sizes below the tier minimum get none.
        assert!(EngineRegistry::standard(32).unwrap().get("radix4_simd").is_none());
        assert!(EngineRegistry::standard(8).unwrap().get("radix4_simd").is_none());
    }

    #[test]
    fn supported_sizes_are_reported_explicitly() {
        // Every n >= 2 is supported — primes and rough composites
        // included, via the convolution engines. Only the degenerate
        // sizes are rejected.
        for n in [
            2usize, 7, 8, 14, 48, 49, 60, 64, 77, 97, 120, 243, 251, 600, 1009, 1022, 1200, 1344,
            1536,
        ] {
            assert!(EngineRegistry::supports(n), "{n}");
            assert!(EngineRegistry::standard(n).is_ok(), "{n}");
        }
        for n in [0usize, 1] {
            assert!(!EngineRegistry::supports(n), "{n}");
            assert!(
                matches!(EngineRegistry::standard(n), Err(FftError::InvalidSize { .. })),
                "{n}"
            );
        }
    }

    #[test]
    fn composite_registry_engines_agree_with_the_naive_dft() {
        // 5-smooth composites, odd primes (rader + bluestein) and a
        // rough composite (bluestein alone): every registered engine
        // must honour its own tolerance against the naive DFT.
        for n in [48usize, 60, 77, 97, 243, 251, 1200] {
            let mut registry = EngineRegistry::paper(n).unwrap();
            let x = random_signal(n, n as u64);
            for dir in [Direction::Forward, Direction::Inverse] {
                let want = dft_naive(&x, dir).unwrap();
                let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
                for engine in registry.engines_mut() {
                    let got = engine.execute(&x, dir).unwrap();
                    let err = max_error(&got, &want) / peak;
                    assert!(err < engine.tolerance(), "{} at n={n} {dir:?}: {err}", engine.name());
                }
            }
        }
    }

    #[test]
    fn all_engines_agree_with_the_naive_dft() {
        for n in [8usize, 64, 256] {
            let mut registry = EngineRegistry::paper(n).unwrap();
            let x = random_signal(n, n as u64);
            let want = dft_naive(&x, Direction::Forward).unwrap();
            let peak = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            for engine in registry.engines_mut() {
                let got = engine.execute(&x, Direction::Forward).unwrap();
                let err = max_error(&got, &want) / peak;
                assert!(err < engine.tolerance(), "{} at n={n}: {err}", engine.name());
            }
        }
    }

    #[test]
    fn every_engine_round_trips() {
        let n = 64;
        let mut registry = EngineRegistry::paper(n).unwrap();
        let x = random_signal(n, 5);
        for engine in registry.engines_mut() {
            let spectrum = engine.execute(&x, Direction::Forward).unwrap();
            let back = engine.execute(&spectrum, Direction::Inverse).unwrap();
            let got: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
            assert!(
                max_error(&got, &x) < engine.tolerance() * n as f64,
                "{} round trip",
                engine.name()
            );
        }
    }

    #[test]
    fn execute_into_is_bit_identical_to_execute_and_reuses_the_buffer() {
        for n in [8usize, 128] {
            let mut registry = EngineRegistry::paper(n).unwrap();
            let x = random_signal(n, 21 + n as u64);
            let y = random_signal(n, 22 + n as u64);
            let mut out = vec![Complex::zero(); n];
            for engine in registry.engines_mut() {
                for dir in [Direction::Forward, Direction::Inverse] {
                    // Same buffer reused across inputs and directions:
                    // stale contents must never leak into a result.
                    for signal in [&x, &y] {
                        let alloc = engine.execute(signal, dir).unwrap();
                        engine.execute_into(signal, &mut out, dir).unwrap();
                        assert_eq!(alloc, out, "{} at n={n} {dir:?}", engine.name());
                    }
                }
            }
        }
    }

    #[test]
    fn length_mismatch_is_uniformly_reported() {
        let mut registry = EngineRegistry::paper(64).unwrap();
        let x = random_signal(32, 1);
        let ok = random_signal(64, 2);
        for engine in registry.engines_mut() {
            assert!(
                matches!(
                    engine.execute(&x, Direction::Forward),
                    Err(FftError::LengthMismatch { expected: 64, got: 32 })
                ),
                "{}",
                engine.name()
            );
            // The output buffer is length-checked too.
            let mut short = vec![Complex::zero(); 32];
            assert!(
                matches!(
                    engine.execute_into(&ok, &mut short, Direction::Forward),
                    Err(FftError::LengthMismatch { expected: 64, got: 32 })
                ),
                "{} output check",
                engine.name()
            );
        }
    }

    #[test]
    fn traffic_reporting_matches_the_motivating_counts() {
        let n = 1024usize;
        let registry = EngineRegistry::paper(n).unwrap();
        // The paper's Section II motivation: plain FFT moves N log2 N
        // points each way; the epoch structures move 2N each way.
        let plain = registry.get("radix2_dit").unwrap().traffic().unwrap();
        assert_eq!(plain.loads, n * 10);
        let cached = registry.get("cached_fft").unwrap().traffic().unwrap();
        assert_eq!(cached.total(), 4 * n);
        let array = registry.get("array_fft").unwrap().traffic().unwrap();
        assert_eq!(array.total(), 4 * n);
        assert!(registry.get("dft_naive").unwrap().traffic().is_none());
    }

    #[test]
    fn registry_lookup_and_registration() {
        let mut r = EngineRegistry::new();
        assert!(r.is_empty());
        r.register(Box::new(NaiveDftEngine::new(8).unwrap()));
        assert_eq!(r.len(), 1);
        assert!(r.get("dft_naive").is_some());
        assert!(r.get("missing").is_none());
        assert_eq!(format!("{r:?}"), "EngineRegistry { engines: [\"dft_naive\"] }");
    }

    #[test]
    fn take_removes_and_returns_the_engine_owned() {
        let mut r = EngineRegistry::paper(128).unwrap();
        let before = r.len();
        let engine = r.take("radix2_dit").expect("registered");
        assert_eq!(engine.name(), "radix2_dit");
        assert_eq!(engine.len(), 128);
        assert_eq!(r.len(), before - 1);
        assert!(r.get("radix2_dit").is_none());
        assert!(r.take("radix2_dit").is_none());
    }
}
