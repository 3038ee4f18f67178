//! The planner: rank every engine the registry offers for one
//! transform shape, by heuristic model ([`Strategy::Estimate`]) or by
//! timing a calibration run ([`Strategy::Measure`]), and remember the
//! result as [`Wisdom`].

use std::time::{Instant, SystemTime, UNIX_EPOCH};

use afft_core::engine::{EngineRegistry, FftEngine};
use afft_core::{Direction, FftError};
use afft_num::{Complex, C64};
use afft_obs::{Histogram, Snapshot};

use crate::wisdom::{backend_set_hash, Wisdom, WisdomEntry, WisdomKey};

/// How a registry for size `n` is built — the planner's only coupling
/// to the backend set. [`EngineRegistry::standard`] holds the serving
/// engines, the ones a ranking can pick; [`EngineRegistry::paper`] adds
/// the O(N²) golden model and the prior art, and
/// `afft_asip::engine::registry_with_asip` adds the cycle-accurate ISS
/// on top of that, for comparing against the paper.
pub type RegistryFactory = fn(usize) -> Result<EngineRegistry, FftError>;

/// The simulated ASIP's clock, used to convert modeled cycles into the
/// nanosecond scale the rankings share.
pub const ASIP_CLOCK_GHZ: f64 = 0.3;

/// Calibration repetitions [`Strategy::Measure`] times per engine
/// (best-of, after one untimed warm-up run).
const MEASURE_REPS: usize = 3;

/// How a [`Planner`] ranks the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Strategy {
    /// Rank by built-in cost heuristics (per-engine operation models,
    /// [`FftEngine::traffic`] metadata, size thresholds). Free, but
    /// blind to the host.
    Estimate,
    /// Execute every engine on a calibration signal and rank by what
    /// it actually cost: wall time for host backends, modeled cycles
    /// for cycle-accurate ones.
    Measure,
}

impl Strategy {
    /// Stable lowercase identifier (wisdom format, CLI flags).
    pub fn as_str(self) -> &'static str {
        match self {
            Strategy::Estimate => "estimate",
            Strategy::Measure => "measure",
        }
    }

    /// Inverse of [`Strategy::as_str`].
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "estimate" => Some(Strategy::Estimate),
            "measure" => Some(Strategy::Measure),
            _ => None,
        }
    }
}

/// One engine's entry in a ranked plan.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRank {
    /// Engine name ([`FftEngine::name`]).
    pub name: String,
    /// The ranking score in nanoseconds: estimated or measured time
    /// for one transform (modeled hardware time on cycle-accurate
    /// backends).
    pub score_ns: f64,
    /// Best measured wall time of one `execute_into` (allocation-free
    /// path, preallocated output), where the plan was measured (`None`
    /// for estimates and wisdom replays).
    pub wall_ns: Option<f64>,
    /// Modeled cycle count, on cycle-accurate backends.
    pub modeled_cycles: Option<u64>,
    /// Modelled memory traffic in points, where the backend reports it.
    pub traffic_points: Option<usize>,
}

/// A ranked plan for one `(n, direction)` transform shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Transform size.
    pub n: usize,
    /// Transform direction the plan was ranked for.
    pub direction: Direction,
    /// The strategy that produced the ranking.
    pub strategy: Strategy,
    /// [`backend_set_hash`] of the registry the ranking covers.
    pub backends: u64,
    /// Whether the ranking was replayed from wisdom (no new work).
    pub from_wisdom: bool,
    /// Every registry engine, best (lowest score) first.
    pub ranking: Vec<EngineRank>,
}

impl Plan {
    /// The winning engine.
    pub fn best(&self) -> &EngineRank {
        &self.ranking[0]
    }
}

/// The autotuning planner. See the [crate docs](crate) for a worked
/// example.
#[derive(Debug, Clone)]
pub struct Planner {
    factory: RegistryFactory,
    wisdom: Wisdom,
    // The factory's backend-set hash per size: a wisdom replay must
    // not pay for building every engine just to key the lookup.
    hash_cache: std::collections::BTreeMap<usize, u64>,
    /// Whether Measure keeps per-rep calibration distributions
    /// (resolved from `AFFT_OBS` at construction).
    obs_enabled: bool,
    /// Every calibration rep ever timed, keyed `n{n}/{dir}/{engine}` —
    /// Measure used to keep only the best rep and discard the rest;
    /// with observability on the whole distribution survives.
    calibration: std::collections::BTreeMap<String, Histogram>,
}

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// A planner over [`EngineRegistry::standard`] with empty wisdom.
    pub fn new() -> Self {
        Self::with_factory(EngineRegistry::standard)
    }

    /// A planner over a caller-chosen registry factory (e.g.
    /// [`EngineRegistry::paper`] to rank the prior art too, or
    /// `registry_with_asip`, so the ISS participates in rankings).
    pub fn with_factory(factory: RegistryFactory) -> Self {
        Planner {
            factory,
            wisdom: Wisdom::new(),
            hash_cache: std::collections::BTreeMap::new(),
            obs_enabled: afft_obs::enabled(),
            calibration: std::collections::BTreeMap::new(),
        }
    }

    /// Explicitly enables or disables calibration-distribution
    /// recording (the default follows the process-wide `AFFT_OBS`
    /// switch, [`afft_obs::enabled`]).
    #[must_use]
    pub fn with_observability(mut self, on: bool) -> Self {
        self.obs_enabled = on;
        self
    }

    /// Seeds the planner with previously stored wisdom.
    #[must_use]
    pub fn with_wisdom(mut self, wisdom: Wisdom) -> Self {
        self.wisdom = wisdom;
        self
    }

    /// The accumulated wisdom (every plan this planner produced or was
    /// seeded with) — store it to pay the tuning cost once per machine.
    pub fn wisdom(&self) -> &Wisdom {
        &self.wisdom
    }

    /// Mutable access to the wisdom, e.g. to [`Wisdom::merge`] a file
    /// loaded mid-flight.
    pub fn wisdom_mut(&mut self) -> &mut Wisdom {
        &mut self.wisdom
    }

    /// Plans the forward transform of size `n` — see
    /// [`Planner::plan_directed`].
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] for unsupported sizes or backend failures
    /// during calibration.
    pub fn plan(&mut self, n: usize, strategy: Strategy) -> Result<Plan, FftError> {
        self.plan_directed(n, Direction::Forward, strategy)
    }

    /// Plans a transform: wisdom hit if available, otherwise rank the
    /// registry by `strategy` and record the result as new wisdom.
    ///
    /// # Errors
    ///
    /// Returns [`FftError`] for unsupported sizes or backend failures
    /// during calibration.
    pub fn plan_directed(
        &mut self,
        n: usize,
        direction: Direction,
        strategy: Strategy,
    ) -> Result<Plan, FftError> {
        let mut registry = None;
        let backends = match self.hash_cache.get(&n) {
            Some(&hash) => hash,
            None => {
                let r = (self.factory)(n)?;
                let hash = backend_set_hash(&r.names());
                self.hash_cache.insert(n, hash);
                registry = Some(r);
                hash
            }
        };
        let key = WisdomKey::new(n, direction, strategy, backends);
        if let Some(entry) = self.wisdom.get(&key) {
            let ranking = entry
                .ranking
                .iter()
                .map(|(name, score)| EngineRank {
                    name: name.clone(),
                    score_ns: *score,
                    wall_ns: None,
                    modeled_cycles: None,
                    traffic_points: None,
                })
                .collect();
            return Ok(Plan { n, direction, strategy, backends, from_wisdom: true, ranking });
        }

        let mut registry = match registry {
            Some(r) => r,
            None => (self.factory)(n)?,
        };
        let mut ranking = match strategy {
            Strategy::Estimate => {
                registry.engines().map(estimate_rank).collect::<Vec<EngineRank>>()
            }
            Strategy::Measure => {
                let signal = calibration_signal(n);
                // One calibration output serves every engine, allocated
                // outside the timed loops: the rankings compare the
                // math, not the host allocator.
                let mut output = vec![Complex::zero(); n];
                let dir = if direction == Direction::Forward { "fwd" } else { "inv" };
                let mut ranking = Vec::new();
                for engine in registry.engines_mut() {
                    // With observability on, every calibration rep
                    // lands in a per-engine histogram instead of being
                    // discarded after the best-of reduction.
                    let mut hist = self.obs_enabled.then(Histogram::new);
                    let rank = measure_rank(engine, &signal, &mut output, direction, &mut hist)?;
                    if let Some(hist) = hist {
                        self.calibration
                            .entry(format!("n{n}/{dir}/{}", rank.name))
                            .or_default()
                            .merge(&hist);
                    }
                    ranking.push(rank);
                }
                ranking
            }
        };
        ranking.sort_by(|a, b| {
            a.score_ns.partial_cmp(&b.score_ns).unwrap_or(core::cmp::Ordering::Equal)
        });

        let entry = WisdomEntry {
            stamp: unix_stamp(),
            ranking: ranking.iter().map(|r| (r.name.clone(), r.score_ns)).collect(),
        };
        self.wisdom.insert(key, entry);
        Ok(Plan { n, direction, strategy, backends, from_wisdom: false, ranking })
    }

    /// Instantiates the plan's winning engine, owned, from a fresh
    /// registry.
    ///
    /// # Errors
    ///
    /// Returns [`FftError::Backend`] if the planned engine is no
    /// longer registered (wisdom from a different backend set).
    pub fn engine(&self, plan: &Plan) -> Result<Box<dyn FftEngine>, FftError> {
        take_engine(self.factory, plan.n, &plan.best().name)
    }

    /// Every calibration rep this planner has timed, as a named
    /// snapshot (`n{n}/{dir}/{engine}` series) — the distribution
    /// behind each [`Strategy::Measure`] ranking, which the best-of
    /// reduction alone would have discarded. Empty with observability
    /// off, and for planners that only ever ran
    /// [`Strategy::Estimate`] or wisdom replays.
    pub fn calibration_snapshot(&self) -> Snapshot {
        Snapshot::from_series(
            self.calibration.iter().map(|(name, h)| (name.clone(), h.clone())).collect(),
        )
    }
}

fn unix_stamp() -> u64 {
    SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_secs())
}

/// Builds the factory's registry for size `n` and takes `name` out of
/// it, owned — the one plan→engine resolution path shared by
/// [`Planner::engine`] and the `afft_stream` pipeline's long-lived
/// workers. Public so any layer that holds a [`RegistryFactory`] and a
/// planned engine name can construct private engine instances (one per
/// worker — the threading idiom that needs no `Sync` bound on
/// [`FftEngine`]); a sequential caller loops
/// [`FftEngine::execute_into`] on one.
///
/// # Errors
///
/// Returns [`FftError::Backend`] if `name` is not in the factory's
/// registry for `n` (e.g. wisdom from a different backend set), or any
/// error the factory itself reports.
pub fn take_engine(
    factory: RegistryFactory,
    n: usize,
    name: &str,
) -> Result<Box<dyn FftEngine>, FftError> {
    factory(n)?.take(name).ok_or_else(|| FftError::Backend {
        engine: name.to_string(),
        reason: "planned engine is not in the registry".into(),
    })
}

/// A deterministic QPSK-like calibration signal (xorshift-driven, no
/// RNG dependency): constant magnitude per point, sign-random phases.
pub fn calibration_signal(n: usize) -> Vec<C64> {
    let mut state: u64 = 0x243f_6a88_85a3_08d3 ^ n as u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| {
            let bits = next();
            let re = if bits & 1 == 0 { 1.0 } else { -1.0 };
            let im = if bits & 2 == 0 { 1.0 } else { -1.0 };
            Complex::new(re, im) * std::f64::consts::FRAC_1_SQRT_2
        })
        .collect()
}

fn measure_rank(
    engine: &mut dyn FftEngine,
    signal: &[C64],
    output: &mut [C64],
    direction: Direction,
    hist: &mut Option<Histogram>,
) -> Result<EngineRank, FftError> {
    // Warm the engine-owned scratch outside the timed region, so the
    // first timed rep doesn't pay one-time buffer growth.
    engine.execute_into(signal, output, direction)?;
    let mut wall_ns = f64::INFINITY;
    for _ in 0..MEASURE_REPS {
        let start = Instant::now();
        engine.execute_into(signal, output, direction)?;
        let rep_ns = start.elapsed().as_nanos();
        if let Some(hist) = hist {
            hist.record(u64::try_from(rep_ns).unwrap_or(u64::MAX));
        }
        wall_ns = wall_ns.min(rep_ns as f64);
    }
    // Cycle-accurate backends rank by modeled hardware time, not by
    // how long the simulator took on the host.
    let modeled_cycles = engine.cycles();
    let score_ns = modeled_cycles.map_or(wall_ns, |c| c as f64 / ASIP_CLOCK_GHZ);
    Ok(EngineRank {
        name: engine.name().to_string(),
        score_ns,
        wall_ns: Some(wall_ns),
        modeled_cycles,
        traffic_points: engine.traffic().map(|t| t.total()),
    })
}

/// Per-point operation count of one mixed-radix transform: the sum of
/// per-stage butterfly costs over `n`'s {4, 2, 3, 5} factor stages
/// (radix-4 spends ~1.7 ops/point/stage with only `±i` rotations,
/// radix-3 and radix-5 pay their constant rotations). Falls back to a
/// generic `log2 n` for sizes the factoriser rejects, so the model
/// never panics on a foreign registry.
fn mixed_radix_stage_cost(n: usize) -> f64 {
    match afft_core::mixed::factorize(n) {
        Some(radices) => radices
            .iter()
            .map(|r| match r {
                2 => 1.0,
                3 => 1.9,
                4 => 1.7,
                _ => 3.2,
            })
            .sum(),
        None => (usize::BITS - n.leading_zeros()).saturating_sub(1) as f64,
    }
}

/// Total op count of one Bluestein chirp-Z transform of size `n`: two
/// `m`-point mixed-radix runs (the kernel spectrum is plan-time) around
/// the pointwise multiply, plus the O(n) chirp passes, with
/// `m = next_pow2(2n - 1)`. This is 4–8x the cost of a direct kernel
/// at the same size — the model must price that honestly so
/// `mixed_radix` keeps winning every 5-smooth size and `bluestein`
/// only ranks first where nothing structured exists.
fn bluestein_ops(n: usize) -> f64 {
    let m = (2 * n - 1).next_power_of_two();
    let mf = m as f64;
    2.0 * mf * mixed_radix_stage_cost(m) + mf + 2.0 * n as f64
}

/// Total op count of one Rader prime-length transform: two
/// `(p-1)`-point inner passes priced by whichever family serves that
/// length (mixed-radix on 5-smooth, Bluestein otherwise — mirroring the
/// engine's own inner dispatch), plus the generator permutations and
/// the pointwise kernel multiply. When `p - 1` is smooth this beats
/// Bluestein's `>= 2p - 1` padded convolution, which is exactly why
/// both engines register at primes.
fn rader_ops(p: usize) -> f64 {
    let m = p - 1;
    let mf = m as f64;
    let inner = if afft_core::mixed::factorize(m).is_some() {
        mf * mixed_radix_stage_cost(m)
    } else {
        bluestein_ops(m)
    };
    2.0 * inner + 4.0 * mf + p as f64
}

/// Rough per-point-operation cost of the f64 software backends, ns.
const HOST_OP_NS: f64 = 2.0;
/// Rough cost of moving one complex point through main memory, ns.
const HOST_MEM_NS: f64 = 0.5;

fn estimate_rank(engine: &dyn FftEngine) -> EngineRank {
    let n = engine.len();
    let nf = n as f64;
    let log2n = (usize::BITS - n.leading_zeros()).saturating_sub(1) as f64;
    let traffic = engine.traffic().map(|t| t.total());
    let (score_ns, modeled_cycles) = if engine.name() == "asip_iss" {
        // Closed-form cycle model of the array ASIP: N log2 N / 8
        // butterfly issues, 2N streaming beats, fixed startup.
        let cycles = nf * log2n / 8.0 + 2.0 * nf + 64.0;
        (cycles / ASIP_CLOCK_GHZ, Some(cycles as u64))
    } else {
        // Operation models per backend; the constants encode the size
        // thresholds (the naive DFT's N^2 overtakes every N log N
        // structure beyond trivially small N).
        let ops = match engine.name() {
            "dft_naive" => nf * nf,
            "radix2_dit" => nf * log2n,
            "radix2_dif" => 1.1 * nf * log2n, // + bit-reverse pass
            // Radix-4 saves ~25% of the complex multiplies over
            // radix-2, with plan-time twiddles beating the
            // per-butterfly cos/sin of the radix-2 reference.
            "radix4_dit" => 0.75 * nf * log2n,
            // The iterative SIMD engine runs the same op count as its
            // scalar sibling — the win is issue width, modeled by the
            // throughput class below, not a smaller op count.
            "radix4_simd" => 0.75 * nf * log2n,
            // General mixed radix: per-point cost of one stage grows
            // with its radix (hardcoded {2,3,4,5} butterflies).
            "mixed_radix" => nf * mixed_radix_stage_cost(n),
            // The convolution engines close the size domain; their
            // models price the padded/inner transforms they actually
            // run, so they only win where no structured kernel exists.
            "bluestein" => bluestein_ops(n),
            "rader" => rader_ops(n),
            "array_fft" => 1.15 * nf * log2n, // group bookkeeping
            "cached_fft" => 1.2 * nf * log2n,
            "mcfft" => 1.25 * nf * log2n, // per-epoch twiddle passes
            _ => nf * log2n,
        };
        // Throughput class: vectorized engines retire ~`lanes` point
        // operations per issue; the 0.75 derate covers the layout
        // passes and narrow recursion levels the wide path can't cover.
        // Memory traffic is not divided — the vector unit does not
        // widen the memory bus.
        let issue_width = if engine.name().ends_with("_simd") {
            (afft_core::simd::active_level().lanes() as f64 * 0.75).max(1.0)
        } else {
            1.0
        };
        (HOST_OP_NS * ops / issue_width + HOST_MEM_NS * traffic.unwrap_or(0) as f64, None)
    };
    EngineRank {
        name: engine.name().to_string(),
        score_ns,
        wall_ns: None,
        modeled_cycles,
        traffic_points: traffic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimate_ranks_every_registry_engine() {
        let mut planner = Planner::with_factory(EngineRegistry::paper);
        let plan = planner.plan(256, Strategy::Estimate).unwrap();
        assert_eq!(plan.ranking.len(), EngineRegistry::paper(256).unwrap().len());
        assert!(!plan.from_wisdom);
        // Scores are sorted ascending and the O(N^2) reference loses.
        for pair in plan.ranking.windows(2) {
            assert!(pair[0].score_ns <= pair[1].score_ns);
        }
        assert_eq!(plan.ranking.last().unwrap().name, "dft_naive");
        assert_ne!(plan.best().name, "dft_naive");
    }

    #[test]
    fn estimate_prefers_simd_over_scalar_siblings_when_detected() {
        if !afft_core::simd::active_level().is_simd() {
            // No vector unit (or AFFT_NO_SIMD): the SIMD tier is not
            // registered and there is nothing to rank.
            return;
        }
        let mut planner = Planner::new();
        let plan = planner.plan(1024, Strategy::Estimate).unwrap();
        let pos = |name: &str| {
            plan.ranking
                .iter()
                .position(|r| r.name == name)
                .unwrap_or_else(|| panic!("{name} missing from estimate ranking"))
        };
        // Same op model, wider issue: the iterative SIMD engine must
        // outrank its scalar sibling under Estimate.
        assert!(pos("radix4_simd") < pos("radix4_dit"));
    }

    #[test]
    fn measure_ranks_and_caches_into_wisdom() {
        let mut planner = Planner::new();
        let plan = planner.plan(64, Strategy::Measure).unwrap();
        assert!(!plan.from_wisdom);
        assert_eq!(plan.ranking.len(), EngineRegistry::standard(64).unwrap().len());
        assert!(plan.ranking.iter().all(|r| r.wall_ns.is_some()));
        assert_eq!(planner.wisdom().len(), 1);
        // Second call replays the wisdom without re-measuring.
        let replay = planner.plan(64, Strategy::Measure).unwrap();
        assert!(replay.from_wisdom);
        assert_eq!(replay.best().name, plan.best().name);
        assert_eq!(replay.ranking.len(), plan.ranking.len());
    }

    #[test]
    fn composite_sizes_plan_through_the_same_path() {
        let mut planner = Planner::new();
        // Estimate at an LTE-like composite size: the mixed-radix
        // engine must win, and beat the O(N^2) reference.
        let plan = planner.plan(1200, Strategy::Estimate).unwrap();
        assert_eq!(plan.ranking.len(), EngineRegistry::standard(1200).unwrap().len());
        assert_eq!(plan.best().name, "mixed_radix");
        let paper = Planner::with_factory(EngineRegistry::paper).plan(1200, Strategy::Estimate);
        assert_eq!(paper.unwrap().ranking.last().unwrap().name, "dft_naive");
        // Measure at a small composite size ranks and caches wisdom.
        let measured = planner.plan(60, Strategy::Measure).unwrap();
        assert!(measured.ranking.iter().all(|r| r.wall_ns.is_some()));
        let engine = planner.engine(&measured).unwrap();
        assert_eq!(engine.len(), 60);
        // Rough composites (1022 = 2·7·73) plan through the chirp-Z
        // fallback now — no size beyond {0, 1} errors out.
        let rough = planner.plan(1022, Strategy::Estimate).unwrap();
        assert_eq!(rough.best().name, "bluestein");
        assert!(planner.plan(0, Strategy::Estimate).is_err());
        assert!(planner.plan(1, Strategy::Estimate).is_err());
    }

    #[test]
    fn prime_sizes_rank_the_convolution_engines_honestly() {
        let mut planner = Planner::new();
        // At 97 the 96-point (2^5·3, smooth) inner convolution makes
        // Rader cheaper than Bluestein's 256-point padded convolution.
        let plan = planner.plan(97, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "rader");
        let paper = Planner::with_factory(EngineRegistry::paper).plan(97, Strategy::Estimate);
        assert_eq!(paper.unwrap().ranking.last().unwrap().name, "dft_naive");
        // At 1009 the inner length 1008 = 2^4·3^2·7 is itself rough,
        // so Rader recurses into Bluestein and pays twice the chirp-Z
        // cost — the model must rank plain Bluestein first there.
        let plan = planner.plan(1009, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "bluestein");
        // Tiny primes: the direct radix-3 butterfly is genuinely
        // cheapest — the convolution engines must not outrank it.
        let plan = planner.plan(3, Strategy::Estimate).unwrap();
        assert_eq!(plan.best().name, "mixed_radix");
    }

    #[test]
    fn planned_engine_is_instantiable_and_correct_size() {
        let mut planner = Planner::new();
        let plan = planner.plan(128, Strategy::Estimate).unwrap();
        let engine = planner.engine(&plan).unwrap();
        assert_eq!(engine.name(), plan.best().name);
        assert_eq!(engine.len(), 128);
    }

    #[test]
    fn estimate_and_measure_wisdom_are_keyed_apart() {
        let mut planner = Planner::new();
        planner.plan(64, Strategy::Estimate).unwrap();
        planner.plan(64, Strategy::Measure).unwrap();
        planner.plan_directed(64, Direction::Inverse, Strategy::Estimate).unwrap();
        assert_eq!(planner.wisdom().len(), 3);
    }

    #[test]
    fn calibration_signal_is_deterministic_qpsk() {
        let a = calibration_signal(64);
        assert_eq!(a, calibration_signal(64));
        assert_ne!(a, calibration_signal(128)[..64].to_vec());
        for c in &a {
            assert!((c.abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measure_keeps_calibration_distributions() {
        let reps = MEASURE_REPS as u64;
        let mut planner = Planner::with_factory(EngineRegistry::paper).with_observability(true);
        planner.plan(64, Strategy::Measure).unwrap();
        let snap = planner.calibration_snapshot();
        assert_eq!(snap.series().len(), EngineRegistry::paper(64).unwrap().len());
        for (name, hist) in snap.series() {
            assert!(name.starts_with("n64/fwd/"), "{name}");
            assert_eq!(hist.count(), reps, "{name} kept every rep");
            assert!(hist.max().unwrap() >= hist.min().unwrap());
        }
        // A wisdom replay re-runs nothing and records nothing new.
        planner.plan(64, Strategy::Measure).unwrap();
        assert_eq!(planner.calibration_snapshot().get("n64/fwd/dft_naive").unwrap().count(), reps);
    }

    #[test]
    fn observability_off_discards_calibration() {
        let mut planner = Planner::new().with_observability(false);
        planner.plan(64, Strategy::Measure).unwrap();
        assert!(planner.calibration_snapshot().series().is_empty());
    }

    #[test]
    fn unknown_engine_is_a_backend_error() {
        let result = take_engine(EngineRegistry::standard, 64, "asip_iss");
        assert!(matches!(result, Err(FftError::Backend { .. })));
    }

    #[test]
    fn strategy_names_round_trip() {
        for s in [Strategy::Estimate, Strategy::Measure] {
            assert_eq!(Strategy::parse(s.as_str()), Some(s));
        }
        assert_eq!(Strategy::parse("guess"), None);
    }
}
