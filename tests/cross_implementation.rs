//! Cross-implementation consistency through the `FftEngine` layer:
//! every registered backend — software models and the cycle-accurate
//! ASIP — agrees on the spectrum via one polymorphic interface, and the
//! paper's performance hierarchy holds on every observable.

use afft::asip::engine::{registry_with_asip, AsipEngine};
use afft::asip::swfft::run_software_fft;
use afft::baselines::{ti, xtensa};
use afft::core::engine::FftEngine;
use afft::core::reference::{dft_naive, max_error};
use afft::core::Direction;
use afft::num::{Complex, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

fn spectrum_peak(bins: &[C64]) -> f64 {
    bins.iter().map(|c| c.abs()).fold(f64::MIN_POSITIVE, f64::max)
}

#[test]
fn every_registered_engine_computes_the_same_spectrum() {
    for n in [8usize, 64, 256, 1024] {
        let mut registry = registry_with_asip(n).expect("registry");
        let x = random_signal(n, 11 + n as u64);
        let want = dft_naive(&x, Direction::Forward).expect("naive");
        let peak = spectrum_peak(&want);
        for engine in registry.engines_mut() {
            let got = engine
                .execute(&x, Direction::Forward)
                .unwrap_or_else(|e| panic!("{}: {e}", engine.name()));
            let err = max_error(&got, &want) / peak;
            assert!(
                err < engine.tolerance(),
                "{} deviates at n={n}: {err} (tolerance {})",
                engine.name(),
                engine.tolerance()
            );
        }
    }
}

#[test]
fn registry_carries_all_backends_at_1024() {
    let registry = registry_with_asip(1024).expect("registry");
    assert!(registry.len() >= 5, "expected >= 5 backends, got {:?}", registry.names());
    for name in
        ["dft_naive", "radix2_dit", "radix2_dif", "mcfft", "array_fft", "cached_fft", "asip_iss"]
    {
        assert!(registry.get(name).is_some(), "missing engine {name}");
        assert_eq!(registry.get(name).unwrap().len(), 1024);
    }
}

#[test]
fn performance_hierarchy_matches_the_paper() {
    let n = 1024;
    let sw = run_software_fft(&random_signal(n, 1), Direction::Forward).expect("sw");
    let ti_run = ti::run_ti_fft(n, &ti::TiConfig::default());
    let xt = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default());
    let mut imple4 = AsipEngine::new(n).expect("plan");
    imple4.execute(&random_signal(n, 1), Direction::Forward).expect("asip");
    let ours = imple4.last_stats().expect("stats");

    // Cycles: Imple1 >> Imple2 > Imple3 > Imple4 (paper's ordering).
    assert!(sw.stats.cycles > 50 * ti_run.cycles, "Imple1 must dwarf the rest");
    assert!(ti_run.cycles > xt.cycles, "TI slower than Xtensa");
    assert!(xt.cycles > ours.cycles, "Xtensa slower than the array ASIP");

    // Factor bands (paper: 866.5X, 6.0X, 2.3X; we accept the same
    // order of magnitude: the ISS runs 1.75x the paper's cycles at
    // N = 1024 and the baselines are trace-driven models, so the exact
    // factors are not expected).
    let f1 = sw.stats.cycles as f64 / ours.cycles as f64;
    let f2 = ti_run.cycles as f64 / ours.cycles as f64;
    let f3 = xt.cycles as f64 / ours.cycles as f64;
    assert!((200.0..2000.0).contains(&f1), "Imple1 factor {f1}");
    assert!((2.0..12.0).contains(&f2), "Imple2 factor {f2}");
    assert!((1.2..4.0).contains(&f3), "Imple3 factor {f3}");

    // Loads/stores: ours ~ N vs Xtensa ~ (N/2) log2 N (paper: 5.2X/4.4X).
    assert!(xt.loads >= 4 * ours.table_loads());
    assert!(xt.stores >= 4 * ours.table_stores());

    // Cache misses: the streaming CRF port keeps ours far below the
    // cached implementations.
    assert!(ours.cache_misses() < xt.cache_misses());
    assert!(xt.cache_misses() < ti_run.cache_misses());
}

#[test]
fn table_counts_follow_closed_forms() {
    for n in [256usize, 1024] {
        let mut engine = AsipEngine::new(n).expect("plan");
        engine.execute(&random_signal(n, 2), Direction::Forward).expect("asip");
        let stats = engine.last_stats().expect("stats");
        let log2n = n.trailing_zeros() as u64;
        assert_eq!(stats.ldin, n as u64, "LDIN = N (N/2 per epoch)");
        assert_eq!(stats.stout, n as u64, "STOUT = N");
        assert_eq!(stats.but4, n as u64 * log2n / 8, "BUT4 = N log2 N / 8");
        // The trait-level traffic view agrees: two points per beat.
        let traffic = engine.traffic().expect("traffic");
        assert_eq!(traffic.loads, 2 * n);
        assert_eq!(traffic.stores, 2 * n);
        // Xtensa's op count formula for the same size.
        let xt = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default());
        assert_eq!(xt.loads, (n as u64 / 2) * log2n);
    }
}

#[test]
fn traffic_hierarchy_across_engines_matches_section_ii() {
    // The paper's motivation: the plain FFT moves N log2 N points each
    // way, the epoch-structured engines 2N. Read it off the registry.
    let n = 1024usize;
    let registry = registry_with_asip(n).expect("registry");
    let plain = registry.get("radix2_dit").unwrap().traffic().unwrap();
    for epoch_engine in ["cached_fft", "array_fft", "asip_iss"] {
        let t = registry.get(epoch_engine).unwrap().traffic().unwrap();
        assert_eq!(t.total(), 4 * n, "{epoch_engine}");
        assert_eq!(plain.total() / t.total(), 5, "{epoch_engine}: log2(N)/2 = 5x at 1024");
    }
}

#[test]
fn throughput_decreases_with_size_as_in_table1() {
    let mut last = f64::INFINITY;
    for n in [64usize, 128, 256, 512, 1024] {
        let mut engine = AsipEngine::new(n).expect("plan");
        engine.execute(&random_signal(n, 3), Direction::Forward).expect("asip");
        let stats = engine.last_stats().expect("stats");
        let mbps = stats.throughput_mbps(n, 300.0);
        assert!(mbps < last, "throughput must decrease: N={n} gives {mbps} (prev {last})");
        last = mbps;
    }
}
