//! The `FftEngine` contract, property-tested: every backend the
//! registry returns — software models and the cycle-accurate ASIP —
//! matches the naive DFT within its declared tolerance on random
//! inputs across sizes 8..=1024, inverts its own forward transform,
//! and produces **bit-identical** spectra through the allocating
//! `execute` wrapper and the zero-allocation `execute_into` primitive.

use afft::asip::engine::registry_with_asip;
use afft::core::engine::EngineRegistry;
use afft::core::reference::{dft_naive, max_error};
use afft::core::Direction;
use afft::num::{Complex, C64};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn spectrum_peak(bins: &[C64]) -> f64 {
    bins.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Satellite: every registered engine equals `dft_naive` within its
    /// per-backend tolerance, for random signals and sizes 8..=1024.
    #[test]
    fn every_engine_matches_the_naive_dft(
        log_n in 3u32..=10,
        seed in 0u64..1_000_000,
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let mut registry = registry_with_asip(n).expect("registry");
        prop_assert!(registry.len() >= 4, "registry too small at n={}", n);
        let x = random_signal(n, seed);
        let want = dft_naive(&x, dir).expect("naive");
        let peak = spectrum_peak(&want);
        for engine in registry.engines_mut() {
            let got = engine.execute(&x, dir).unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            prop_assert_eq!(got.len(), n);
            let err = max_error(&got, &want) / peak;
            prop_assert!(
                err < engine.tolerance(),
                "{} at n={} ({:?}): relative error {} exceeds tolerance {}",
                engine.name(), n, dir, err, engine.tolerance()
            );
        }
    }

    /// Satellite: `execute` and `execute_into` are **bit-identical**
    /// (not merely within tolerance) for every engine in the paper
    /// registry, across sizes and both directions — the convenience
    /// wrapper is exactly the primitive plus one allocation. The output
    /// buffer is deliberately reused dirty across engines to prove no
    /// stale contents leak into a result.
    #[test]
    fn execute_into_is_bit_identical_to_execute_for_every_engine(
        log_n in 3u32..=10,
        seed in 0u64..1_000_000,
        inverse in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let dir = if inverse { Direction::Inverse } else { Direction::Forward };
        let mut registry = EngineRegistry::paper(n).expect("registry");
        let x = random_signal(n, seed);
        let mut out = vec![Complex::new(f64::NAN, f64::NAN); n];
        for engine in registry.engines_mut() {
            let alloc = engine
                .execute(&x, dir)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            engine
                .execute_into(&x, &mut out, dir)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            prop_assert_eq!(
                &alloc, &out,
                "{} at n={} ({:?}): wrapper and primitive diverge", engine.name(), n, dir
            );
        }
    }
}

/// Satellite: `execute(Forward)` then `execute(Inverse)` recovers the
/// input (scaled by `N`, per the unnormalised-transform contract) for
/// every engine in the registry.
#[test]
fn forward_then_inverse_recovers_the_input_for_every_engine() {
    for n in [8usize, 64, 256, 1024] {
        let mut registry = registry_with_asip(n).expect("registry");
        let x = random_signal(n, 42 + n as u64);
        let input_peak = spectrum_peak(&x);
        for engine in registry.engines_mut() {
            let spectrum = engine
                .execute(&x, Direction::Forward)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            let back = engine
                .execute(&spectrum, Direction::Inverse)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            let got: Vec<C64> = back.iter().map(|&v| v * (1.0 / n as f64)).collect();
            // Two cascaded transforms: allow each pass its tolerance.
            // The inverse pass's error budget is relative to the
            // spectrum peak (~N times the input peak), so it dominates.
            let budget = 2.0 * engine.tolerance() * spectrum_peak(&spectrum) / n as f64;
            let err = max_error(&got, &x) / input_peak;
            assert!(
                err < (budget / input_peak).max(engine.tolerance()),
                "{} round trip at n={n}: error {err}",
                engine.name()
            );
        }
    }
}
