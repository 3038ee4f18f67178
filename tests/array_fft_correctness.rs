//! Experiment E4 and the central correctness artifact: the array
//! structure (Fig. 1/Fig. 2 data flow) computes the right FFT — on the
//! golden model, on the simulated hardware, bit-exactly between the
//! two, across sizes, directions and signal classes.

use afft::asip::program::{ProgramOptions, UnrollStyle};
use afft::asip::runner::{golden_array_fft, quantize_input, AsipPlan};
use afft::core::reference::{dft_naive, fft_radix2_dit_f64, max_error};
use afft::core::{ArrayFft, Direction};
use afft::num::{twiddle, Complex, C64, CQ15};
use afft::sim::{CacheStats, MachineConfig, Stats};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_signal(n: usize, seed: u64) -> Vec<C64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
}

/// One ASIP transform of `input` on a fresh plan: the natural-order
/// spectrum and the run's statistics.
fn run_with(
    input: &[CQ15],
    dir: Direction,
    options: ProgramOptions,
    machine: &MachineConfig,
) -> (Vec<CQ15>, Stats) {
    let mut plan = AsipPlan::new(input.len(), dir, options, machine).expect("plan");
    let stats = plan.run(input).expect("ASIP run");
    let mut output = vec![Complex::zero(); input.len()];
    plan.read_output(&mut output).expect("read output");
    (output, stats)
}

/// [`run_with`] on the default program and machine.
fn run_asip(input: &[CQ15], dir: Direction) -> (Vec<CQ15>, Stats) {
    run_with(input, dir, ProgramOptions::default(), &MachineConfig::default())
}

#[test]
fn golden_model_matches_naive_dft_all_sizes() {
    for n in [64usize, 128, 256, 512, 1024, 2048] {
        let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
        let x = random_signal(n, n as u64);
        let want = dft_naive(&x, Direction::Forward).expect("naive");
        let got = fft.process(&x, Direction::Forward).expect("array");
        assert!(max_error(&got, &want) < 1e-7 * n as f64, "n={n}");
    }
}

#[test]
fn golden_model_matches_radix2_library() {
    let n = 1024;
    let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
    let x = random_signal(n, 17);
    let mut want = x.clone();
    fft_radix2_dit_f64(&mut want, Direction::Forward).expect("radix2");
    let got = fft.process(&x, Direction::Forward).expect("array");
    assert!(max_error(&got, &want) < 1e-8);
}

#[test]
fn iss_is_bit_exact_against_golden_for_every_paper_size() {
    for n in [64usize, 128, 256, 512, 1024] {
        let input = quantize_input(&random_signal(n, 100 + n as u64), 0.9);
        let (output, _) = run_asip(&input, Direction::Forward);
        let golden = golden_array_fft(&input, Direction::Forward).expect("golden");
        assert_eq!(output, golden, "n={n}: ISS deviates from golden model");
    }
}

#[test]
fn iss_is_bit_exact_for_extension_sizes() {
    for n in [2048usize, 4096] {
        let input = quantize_input(&random_signal(n, 200 + n as u64), 0.9);
        let (output, _) = run_asip(&input, Direction::Forward);
        let golden = golden_array_fft(&input, Direction::Forward).expect("golden");
        assert_eq!(output, golden, "n={n}");
    }
}

#[test]
fn iss_is_bit_exact_for_inverse_direction() {
    let n = 128;
    let input = quantize_input(&random_signal(n, 5), 0.9);
    let (output, _) = run_asip(&input, Direction::Inverse);
    let golden = golden_array_fft(&input, Direction::Inverse).expect("golden");
    assert_eq!(output, golden);
}

#[test]
fn impulse_and_dc_signals() {
    let n = 64;
    let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
    // Impulse -> flat spectrum.
    let mut x = vec![Complex::zero(); n];
    x[0] = Complex::new(1.0, 0.0);
    let y = fft.process(&x, Direction::Forward).expect("fft");
    for bin in &y {
        assert!(bin.dist(Complex::new(1.0, 0.0)) < 1e-9);
    }
    // DC -> single bin.
    let x = vec![Complex::new(1.0, 0.0); n];
    let y = fft.process(&x, Direction::Forward).expect("fft");
    assert!((y[0].re - n as f64).abs() < 1e-9);
    for bin in &y[1..] {
        assert!(bin.abs() < 1e-9);
    }
}

#[test]
fn pure_tones_hit_their_bins_on_the_simulated_hardware() {
    let n = 64;
    for tone in [1usize, 5, 31, 33, 63] {
        let x: Vec<C64> = (0..n).map(|m| twiddle(n, (tone * m) % n).conj() * 0.8).collect();
        let input = quantize_input(&x, 1.0);
        let (output, _) = run_asip(&input, Direction::Forward);
        // Hardware output is DFT/N: the tone bin should be ~0.8.
        for (k, bin) in output.iter().enumerate() {
            let mag = bin.to_c64().abs();
            if k == tone {
                assert!((mag - 0.8).abs() < 0.02, "tone {tone}: bin {k} mag {mag}");
            } else {
                assert!(mag < 0.02, "tone {tone}: leakage at bin {k}: {mag}");
            }
        }
    }
}

#[test]
fn forward_inverse_roundtrip_through_the_hardware() {
    let n = 256;
    let x = random_signal(n, 77);
    let input = quantize_input(&x, 0.9);
    let (fwd, _) = run_asip(&input, Direction::Forward);
    let (inv, _) = run_asip(&fwd, Direction::Inverse);
    // forward scales 1/N, inverse scales 1/N, IDFT brings factor N:
    // recovered = input / N.
    let got: Vec<C64> = inv.iter().map(|c| c.to_c64() * n as f64).collect();
    let want: Vec<C64> = input.iter().map(|c| c.to_c64()).collect();
    assert!(max_error(&got, &want) < 0.05);
}

#[test]
fn linearity_on_the_hardware() {
    let n = 64;
    let a = quantize_input(&random_signal(n, 1), 0.4);
    let b = quantize_input(&random_signal(n, 2), 0.4);
    let sum: Vec<_> = a.iter().zip(&b).map(|(&x, &y)| x + y).collect();
    let (fa, _) = run_asip(&a, Direction::Forward);
    let (fb, _) = run_asip(&b, Direction::Forward);
    let (fs, _) = run_asip(&sum, Direction::Forward);
    for k in 0..n {
        let lin = fa[k].to_c64() + fb[k].to_c64();
        let got = fs[k].to_c64();
        assert!(got.dist(lin) < 5e-3, "bin {k}");
    }
}

#[test]
fn parseval_energy_is_preserved_by_the_golden_model() {
    let n = 512;
    let fft: ArrayFft<f64> = ArrayFft::new(n).expect("plan");
    let x = random_signal(n, 3);
    let y = fft.process(&x, Direction::Forward).expect("fft");
    let ex: f64 = x.iter().map(|c| c.norm_sqr()).sum();
    let ey: f64 = y.iter().map(|c| c.norm_sqr()).sum();
    assert!((ey - ex * n as f64).abs() < 1e-6 * ex * n as f64);
}

/// Pins every ISS observable of the default forward run, so a change to
/// how runs are set up cannot shift cycles unnoticed. A change that
/// remodels a cost (e.g. the pre-rotation timing) updates these on
/// purpose.
#[test]
fn iss_stats_are_pinned_for_the_default_forward_run() {
    // (n, cycles, instrs, alu, mtfft, but4, coef_fetches, cache misses)
    let table = [
        (64, 413, 215, 22, 16, 48, 49, 1),
        (128, 832, 408, 23, 16, 112, 105, 2),
        (256, 1730, 824, 31, 24, 256, 225, 3),
        (512, 3527, 1657, 32, 24, 576, 465, 5),
        (1024, 7279, 3417, 48, 40, 1280, 961, 9),
        (2048, 14850, 7004, 51, 40, 2816, 1953, 17),
        (4096, 30434, 14492, 83, 72, 6144, 3969, 33),
    ];
    for (n, cycles, instrs, alu, mtfft, but4, coef_fetches, misses) in table {
        let want = Stats {
            cycles,
            instrs,
            alu,
            mtfft,
            but4,
            // One LDIN and one STOUT beat per two points, each epoch.
            ldin: n as u64,
            stout: n as u64,
            coef_fetches,
            // On the streaming port only the coefficient fetches touch
            // the D-cache; they only read, so nothing is written back.
            cache: CacheStats {
                accesses: coef_fetches,
                misses,
                read_misses: misses,
                ..CacheStats::default()
            },
            ..Stats::default()
        };
        let input = quantize_input(&random_signal(n, 300 + n as u64), 0.9);
        let (_, stats) = run_asip(&input, Direction::Forward);
        assert_eq!(stats, want, "n={n}");
    }
}

/// Pins the `ablation` bin's three machine/program variants at N = 1024.
#[test]
fn ablation_variants_are_pinned_at_1024() {
    let input = quantize_input(&random_signal(1024, 42), 0.9);
    let run = |options: ProgramOptions, machine: MachineConfig| {
        run_with(&input, Direction::Forward, options, &machine).1
    };
    let cached = run(
        ProgramOptions::default(),
        MachineConfig { custom_ops_cached: true, ..MachineConfig::default() },
    );
    assert_eq!((cached.cycles, cached.cache_misses()), (7663, 201));
    let looped = run(
        ProgramOptions { unroll: UnrollStyle::GroupLoop, ..ProgramOptions::default() },
        MachineConfig::default(),
    );
    assert_eq!(looped.cycles, 7570);
    let noprerot = run(
        ProgramOptions { skip_prerot: true, ..ProgramOptions::default() },
        MachineConfig::default(),
    );
    assert_eq!(noprerot.cycles, 3354);
}
