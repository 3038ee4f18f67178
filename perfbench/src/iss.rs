//! `iss_table1`: the paper's own workload. The cycle-accurate ASIP ISS
//! (`AsipEngine`) runs forward transforms at N = 64..1024 in turn;
//! simulated cycles are deterministic, so they compare exactly across
//! commits, while host time measures the simulator's own speed.

use std::time::{Duration, Instant};

use afft_asip::engine::AsipEngine;
use afft_bench::paper::TABLE1;
use afft_core::engine::FftEngine;
use afft_core::reference::{dft_naive, max_error};
use afft_core::Direction;
use afft_num::C64;
use afft_sim::Stats;

use crate::stats::{geomean, iq_mean, median, percentile, table1_err, Reservoir};
use crate::trace::Tracer;
use crate::{Phase, Reps, Rng};

/// Share of an ISS run's time that slows as the host-speed gauge does.
/// The simulator is integer and branch work, which the host's slow
/// states hurt less than the gauge's floating-point chains: passes at a
/// gauge of 3.0 and 5.2-5.8 us took 82 and 111-128 us, a share of
/// 0.52-0.61, and runs at 2.3 and 5.2 us gave 0.66.
const GAUGE_SHARE: f64 = 0.6;

/// The sizes of the paper's Table I.
pub const SIZES: [usize; 5] = [64, 128, 256, 512, 1024];

/// Distinct inputs per size.
const POOL: usize = 2;

/// One size's engine, inputs and golden spectra.
struct Case {
    n: usize,
    engine: AsipEngine,
    inputs: Vec<Vec<C64>>,
    /// Naive-DFT spectrum of each input and its peak magnitude.
    golden: Vec<(Vec<C64>, f64)>,
    out: Vec<C64>,
    host_ns: Reservoir,
    stats: Option<Stats>,
}

pub fn run(
    seed: u64,
    seconds: f64,
    passes: usize,
    reps: Reps,
    tracer: &mut Tracer,
) -> Result<Phase, String> {
    let mut phase = Phase::new(GAUGE_SHARE);
    let mut rng = Rng::new(seed, 0x155);
    let inputs: Vec<Vec<Vec<C64>>> =
        SIZES.iter().map(|&n| (0..POOL).map(|_| rng.signal(n)).collect()).collect();

    // Set-up: plan each size and run its first transform.
    let mut engines = Vec::new();
    let began = Instant::now();
    while reps.more(phase.setup_s.len(), began) {
        let t = phase.set_up_begin()?;
        engines.clear();
        for (&n, pool) in SIZES.iter().zip(&inputs) {
            let mut engine = AsipEngine::new(n).map_err(|e| e.to_string())?;
            engine.execute(&pool[0], Direction::Forward).map_err(|e| e.to_string())?;
            engines.push(engine);
        }
        phase.set_up_done(t);
    }

    let mut cases = Vec::new();
    for ((engine, &n), inputs) in engines.into_iter().zip(&SIZES).zip(inputs) {
        let golden = inputs
            .iter()
            .map(|x| {
                let g = dft_naive(x, Direction::Forward).map_err(|e| e.to_string())?;
                let peak = g.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max);
                Ok((g, peak))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let out = vec![C64::zero(); n];
        cases.push(Case {
            n,
            engine,
            inputs,
            golden,
            out,
            host_ns: Reservoir::new(1 << 14, n as u64),
            stats: None,
        });
    }

    let mut mcps = Vec::new();
    let mut req = 0u64;
    tracer.begin_measuring();
    for _ in 0..passes {
        phase.begin_pass()?;
        let deadline = Instant::now() + Duration::from_secs_f64(seconds / passes as f64);
        let mut pass_ns: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
        while Instant::now() < deadline {
            phase.read_gauge();
            for (c, case) in cases.iter_mut().enumerate() {
                let slot = rng.below(POOL);
                req += 1;
                let t0 = Instant::now();
                let ran =
                    case.engine.execute_into(&case.inputs[slot], &mut case.out, Direction::Forward);
                let t1 = Instant::now();
                let traced = tracer.sampled(req);
                if traced {
                    tracer.record("asip.execute", t0, t1, None, req);
                }
                let ns = (t1 - t0).as_nanos() as f64;
                pass_ns[c].push(ns);
                case.host_ns.push(ns);
                phase.attempted += 1;

                let tv = tracer.clock_if(traced);
                let (golden, peak) = &case.golden[slot];
                let within =
                    ran.is_ok() && max_error(&case.out, golden) / peak < case.engine.tolerance();
                tracer.span("bench.verify", tv, None, req);
                let stats = case.engine.last_stats();
                // Simulated cycles must not depend on the data.
                let repeatable = match (stats, case.stats) {
                    (Some(now), Some(before)) => now.cycles == before.cycles,
                    (now, _) => now.is_some(),
                };
                if !(within && repeatable) {
                    phase.failed += 1;
                }
                if stats.is_some() {
                    case.stats = stats;
                }
            }
        }
        // Per size, one over the median run time, as in `anysize`.
        let medians: Vec<f64> =
            pass_ns.iter().map(|ns| median(ns).unwrap_or(f64::INFINITY)).collect();
        let rates: Vec<f64> = medians.iter().map(|ns| 1e9 / ns).collect();
        phase.end_pass(geomean(&rates).ok_or("a size ran no transform")?, &pass_ns)?;
        let cycles: u64 = cases.iter().filter_map(|c| c.stats).map(|s| s.cycles).sum();
        mcps.push(cycles as f64 / medians.iter().sum::<f64>() * 1e3);
    }

    phase.layers.insert("sim_mcps".into(), iq_mean(&mcps));
    let mut sim_cycles = Vec::new();
    for case in cases {
        let n = case.n;
        let s = case.stats.ok_or_else(|| format!("no ISS run at N = {n}"))?;
        sim_cycles.push((n, s.cycles));
        phase.config.insert(format!("sim.cycles.{n}"), s.cycles.to_string());
        for (name, v) in [
            ("cycles", s.cycles as f64),
            ("instrs", s.instrs as f64),
            ("cpi", s.cpi()),
            ("coef_fetches", s.coef_fetches as f64),
            ("cache_misses", s.cache_misses() as f64),
        ] {
            phase.layers.insert(format!("sim.{name}.{n}"), v);
        }
        if let Some(q) = percentile(&case.host_ns.sorted(), 50.0) {
            phase.layers.insert(format!("asip.execute.host_ns.{n}"), q.value);
        }
    }
    let err = table1_err(&TABLE1, &sim_cycles)?;
    phase.layers.insert("table1_err".into(), err);
    phase.config.insert("table1_err".into(), err.to_string());
    Ok(phase)
}
