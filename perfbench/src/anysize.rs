//! `anysize_oneshot`: single-threaded `execute_into` loops on the
//! engines a `Strategy::Measure` plan picks, alternating forward and
//! inverse, over three size classes. The mix covers the power-of-4,
//! power-of-2, mixed-radix, Rader and Bluestein code paths; set-up
//! runs the planner's calibration for every size.

use std::time::{Duration, Instant};

use afft_core::engine::FftEngine;
use afft_core::reference::dft_naive;
use afft_core::Direction;
use afft_num::C64;
use afft_planner::{Planner, Strategy};

use crate::stats::{class_geomeans, geomean, iq_mean, median, percentile, Reservoir};
use crate::trace::Tracer;
use crate::{Phase, Reps, Rng};

/// The sizes and their classes: powers of two, 5-smooth composites,
/// and sizes with a large prime factor.
pub const SIZES: [(usize, &str); 10] = [
    (64, "pow2"),
    (256, "pow2"),
    (1024, "pow2"),
    (2048, "pow2"),
    (60, "smooth"),
    (1200, "smooth"),
    (1536, "smooth"),
    (97, "rough"),
    (1009, "rough"),
    (1344, "rough"),
];

pub const CLASSES: [&str; 3] = ["pow2", "smooth", "rough"];

/// Calls per size per round, alternating forward and inverse.
/// Share of a transform's time that slows as the host-speed gauge does:
/// all of it. The transforms are floating-point butterflies like the
/// gauge; rescaled in full, runs whose gauge read 3.6 to 6.6 us gave
/// p50s within 7% of each other.
const GAUGE_SHARE: f64 = 1.0;
const BATCH: usize = 8;
/// Distinct inputs per size.
const POOL: usize = 4;
/// Relative RMS error bound against the naive DFT, as the repository's
/// accuracy suite asserts it.
const RMS_BOUND: f64 = 1e-12;

fn relative_rms_error(got: &[C64], want: &[C64]) -> f64 {
    let err: f64 = got.iter().zip(want).map(|(&g, &w)| g.dist(w).powi(2)).sum();
    let level: f64 = want.iter().map(|c| c.norm_sqr()).sum();
    (err / level).sqrt()
}

/// One size's engine, inputs and reference outputs.
struct Case {
    n: usize,
    engine: Box<dyn FftEngine>,
    inputs: Vec<Vec<C64>>,
    /// `refs[i][0]` forward, `refs[i][1]` inverse, of `inputs[i]`.
    refs: Vec<[Vec<C64>; 2]>,
    outs: Vec<Vec<C64>>,
    /// Per-call ns of the current phase.
    calls: Reservoir,
}

pub fn run(
    seed: u64,
    seconds: f64,
    passes: usize,
    reps: Reps,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::new(GAUGE_SHARE);
    let mut measure_ms: Vec<Vec<f64>> = vec![Vec::new(); SIZES.len()];
    let mut engines = Vec::new();
    let began = Instant::now();
    while reps.more(phase.setup_s.len(), began) {
        let t = phase.set_up_begin()?;
        let mut planner = Planner::new();
        engines.clear();
        for (i, &(n, _)) in SIZES.iter().enumerate() {
            let t0 = Instant::now();
            let plan = planner
                .plan_directed(n, Direction::Forward, Strategy::Measure)
                .map_err(|e| format!("planning N = {n}: {e}"))?;
            let t1 = Instant::now();
            tracer.record("planner.measure", t0, t1, None, n as u64);
            measure_ms[i].push((t1 - t0).as_secs_f64() * 1e3);
            phase.layers.insert(format!("planner.ranked.{n}"), plan.ranking.len() as f64);
            engines.push(planner.engine(&plan).map_err(|e| e.to_string())?);
        }
        phase.set_up_done(t);
    }
    for (&(n, _), ms) in SIZES.iter().zip(&measure_ms) {
        phase.layers.insert(format!("planner.measure.ms.{n}"), median(ms).unwrap_or(0.0));
    }

    let mut rng = Rng::new(seed, 0xa5a5);
    let mut cases = Vec::new();
    for (engine, &(n, _)) in engines.into_iter().zip(&SIZES) {
        phase.config.insert(format!("engine.n{n}"), engine.name().to_string());
        let inputs: Vec<Vec<C64>> = (0..POOL).map(|_| rng.signal(n)).collect();
        let refs = inputs
            .iter()
            .map(|x| Ok([dft_naive(x, Direction::Forward)?, dft_naive(x, Direction::Inverse)?]))
            .collect::<Result<Vec<_>, afft_core::FftError>>()
            .map_err(|e| e.to_string())?;
        let outs = vec![vec![C64::zero(); n]; BATCH];
        cases.push(Case {
            n,
            engine,
            inputs,
            refs,
            outs,
            calls: Reservoir::new(1 << 14, n as u64),
        });
    }

    let mut class_rates: Vec<Vec<f64>> = vec![Vec::new(); CLASSES.len()];
    let mut req = 0u64;
    let mut batch = 0u64;
    tracer.begin_measuring();
    for _ in 0..passes {
        phase.begin_pass()?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / passes as f64);
        let mut pass_ns: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
        while Instant::now() < deadline {
            phase.read_gauge();
            for (c, case) in cases.iter_mut().enumerate() {
                let used: [usize; BATCH] = std::array::from_fn(|_| rng.below(POOL));
                batch += 1;
                let traced = tracer.sampled(batch);
                let mut prev = Instant::now();
                for (k, &slot) in used.iter().enumerate() {
                    let dir = if k % 2 == 0 { Direction::Forward } else { Direction::Inverse };
                    req += 1;
                    let ok = case.engine.execute_into(&case.inputs[slot], &mut case.outs[k], dir);
                    let now = Instant::now();
                    if traced {
                        tracer.record("core.execute_into", prev, now, None, req);
                    }
                    let ns = (now - prev).as_nanos() as f64;
                    prev = now;
                    pass_ns[c].push(ns);
                    case.calls.push(ns);
                    phase.attempted += 1;
                    if ok.is_err() {
                        // Poison the output so the check below fails it.
                        case.outs[k].fill(C64::new(f64::NAN, f64::NAN));
                    }
                }
                let tv = tracer.clock_if(traced);
                for (k, &slot) in used.iter().enumerate() {
                    let err = relative_rms_error(&case.outs[k], &case.refs[slot][k % 2]);
                    if err.is_nan() || err > RMS_BOUND {
                        phase.failed += 1;
                    }
                }
                tracer.span("bench.verify", tv, None, req);
            }
        }
        // Per size, the rate is one over the median call time: a mean
        // would let one preemption of a sub-microsecond call swing it.
        let rates: Vec<(&str, f64)> = SIZES
            .iter()
            .zip(&pass_ns)
            .map(|(&(_, class), ns)| (class, 1e9 / median(ns).unwrap_or(f64::INFINITY)))
            .collect();
        let all: Vec<f64> = rates.iter().map(|&(_, r)| r).collect();
        phase.end_pass(geomean(&all).ok_or("a size ran no transform")?, &pass_ns)?;
        for (i, (_, rate)) in class_geomeans(&CLASSES, &rates).into_iter().enumerate() {
            class_rates[i].push(rate.ok_or("a class ran no transform")?);
        }
    }
    for (class, rates) in CLASSES.iter().zip(&class_rates) {
        phase.layers.insert(format!("tps_{class}"), iq_mean(rates));
    }
    for case in cases {
        if let Some(q) = percentile(&case.calls.sorted(), 50.0) {
            phase.layers.insert(format!("core.execute_into.ns.{}", case.n), q.value);
        }
    }
    Ok(phase)
}
