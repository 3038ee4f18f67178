//! Reusing a plan leaks no state between runs: one `AsipPlan` and one
//! `AsipEngine` per size, alternating forward and inverse over zero,
//! full-scale and random inputs, must reproduce a freshly built plan's
//! first run bit for bit, statistics included. N = 8192 runs the
//! group-loop program the generator falls back to past N = 4096.

use afft_asip::engine::AsipEngine;
use afft_asip::program::ProgramOptions;
use afft_asip::runner::{quantize_input, AsipPlan};
use afft_core::{Direction, FftEngine};
use afft_num::{Complex, C64, CQ15, Q15};
use afft_sim::{MachineConfig, Stats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIZES: [usize; 8] = [64, 128, 256, 512, 1024, 2048, 4096, 8192];

/// Zero, full scale (the Q15 rails, both signs) and two random signals.
fn inputs(n: usize) -> Vec<Vec<C64>> {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let mut random = || -> Vec<C64> {
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    };
    let rail = Q15::ONE_MINUS_EPS.to_f64();
    let full_scale =
        (0..n)
            .map(|m| if m % 3 == 0 { Complex::new(rail, -1.0) } else { Complex::new(-1.0, rail) });
    vec![vec![C64::zero(); n], full_scale.collect(), random(), random()]
}

fn plan(n: usize, dir: Direction) -> AsipPlan {
    AsipPlan::new(n, dir, ProgramOptions::default(), &MachineConfig::default()).expect("plan")
}

/// The first run of a freshly built plan: spectrum and statistics.
fn fresh_run(x: &[CQ15], dir: Direction) -> (Vec<CQ15>, Stats) {
    let mut fresh = plan(x.len(), dir);
    let stats = fresh.run(x).expect("fresh run");
    let mut output = vec![Complex::zero(); x.len()];
    fresh.read_output(&mut output).expect("read");
    (output, stats)
}

fn directions() -> impl Iterator<Item = Direction> {
    [Direction::Forward, Direction::Inverse].into_iter().cycle()
}

#[test]
fn a_reused_plan_matches_a_fresh_run_bit_for_bit() {
    for n in SIZES {
        let mut plans = [plan(n, Direction::Forward), plan(n, Direction::Inverse)];
        let mut output = vec![Complex::zero(); n];
        // Each input twice, so both plans see every input.
        let sequence = inputs(n).into_iter().flat_map(|x| [x.clone(), x]);
        for (call, (x, dir)) in sequence.zip(directions()).enumerate() {
            let x = quantize_input(&x, 1.0);
            let plan = &mut plans[usize::from(dir == Direction::Inverse)];
            let stats = plan.run(&x).expect("plan run");
            plan.read_output(&mut output).expect("read");
            let (fresh_output, fresh_stats) = fresh_run(&x, dir);
            assert_eq!(output, fresh_output, "n={n}, call {call}: spectrum");
            assert_eq!(stats, fresh_stats, "n={n}, call {call}: statistics");
        }
    }
}

#[test]
fn a_reused_engine_matches_a_fresh_run_bit_for_bit() {
    for n in SIZES {
        let mut engine = AsipEngine::new(n).expect("engine");
        let mut output = vec![C64::zero(); n];
        let sequence = inputs(n).into_iter().flat_map(|x| [x.clone(), x]);
        for (call, (x, dir)) in sequence.zip(directions()).enumerate() {
            engine.execute_into(&x, &mut output, dir).expect("engine run");

            // The engine's wire format: the peak component at half of
            // Q15 full scale, rescaled by N on the way out.
            let peak = x.iter().map(|c| c.re.abs().max(c.im.abs())).fold(0.0, f64::max);
            let scale = if peak > 0.0 { 0.5 / peak } else { 1.0 };
            let (fresh_output, fresh_stats) = fresh_run(&quantize_input(&x, scale), dir);
            let restore = n as f64 / scale;
            let want: Vec<C64> = fresh_output.iter().map(|q| q.to_c64() * restore).collect();
            assert_eq!(output, want, "n={n}, call {call}: spectrum");
            assert_eq!(engine.last_stats(), Some(fresh_stats), "n={n}, call {call}: statistics");
        }
    }
}
