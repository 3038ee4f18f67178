//! Experiment E6 — ablations of four design choices of the paper's
//! ASIP, all at 1024 points:
//!
//! 1. **CRF streaming port vs cached custom ops** — what the custom
//!    register file buys over routing `LDIN`/`STOUT` through the
//!    D-cache;
//! 2. **straight-line vs looped group code** — the paper's per-size
//!    recompilation against generic loop control;
//! 3. **multiply-on-store pre-rotation vs none** — the cycle cost of
//!    the inter-epoch rotation (run with rotation disabled computes a
//!    different transform; only the cost is compared);
//! 4. **memory-traffic comparison** — array/cached/MCFFT/plain FFT
//!    loads+stores (the paper's Section II motivation).

use afft_asip::program::{ProgramOptions, UnrollStyle};
use afft_asip::runner::AsipPlan;
use afft_bench::workload::random_signal_q15;
use afft_core::cached::{cached_fft, plain_fft_traffic};
use afft_core::mcfft::Epochs;
use afft_core::Direction;
use afft_sim::MachineConfig;

fn run_with(
    input: &[afft_num::CQ15],
    options: ProgramOptions,
    custom_ops_cached: bool,
) -> afft_sim::Stats {
    let machine = MachineConfig { custom_ops_cached, ..MachineConfig::default() };
    AsipPlan::new(input.len(), Direction::Forward, options, &machine)
        .and_then(|mut plan| plan.run(input))
        .expect("ablation run")
}

fn main() {
    let n = 1024usize;
    let input = random_signal_q15(n, 42);
    println!("Ablations at N = {n}");
    println!();

    let base = run_with(&input, ProgramOptions::default(), false);
    println!("baseline (streaming port, straight-line, pre-rotation on):");
    println!("  cycles {}  misses {}", base.cycles, base.cache_misses());
    println!();

    let cached = run_with(&input, ProgramOptions::default(), true);
    println!("1. LDIN/STOUT through the D-cache instead of the streaming port:");
    println!(
        "  cycles {} ({:+.1}%)  misses {} (baseline {})",
        cached.cycles,
        100.0 * (cached.cycles as f64 / base.cycles as f64 - 1.0),
        cached.cache_misses(),
        base.cache_misses(),
    );
    println!();

    let looped = run_with(
        &input,
        ProgramOptions { unroll: UnrollStyle::GroupLoop, ..ProgramOptions::default() },
        false,
    );
    println!("2. software group loop instead of straight-line code:");
    println!(
        "  cycles {} ({:+.1}%)  extra branch instructions {}",
        looped.cycles,
        100.0 * (looped.cycles as f64 / base.cycles as f64 - 1.0),
        looped.branches,
    );
    println!();

    let noprerot =
        run_with(&input, ProgramOptions { skip_prerot: true, ..ProgramOptions::default() }, false);
    println!("3. pre-rotation disabled (transform intentionally wrong; cost only):");
    println!(
        "  cycles {}  =>  multiply-on-store costs {} cycles ({:.1}% of the run)",
        noprerot.cycles,
        base.cycles - noprerot.cycles,
        100.0 * (base.cycles - noprerot.cycles) as f64 / base.cycles as f64,
    );
    println!();

    let fixed_sw = afft_asip::swfft_fixed::run_fixed_fft(&input, Direction::Forward)
        .expect("fixed software FFT");
    println!("4. optimised fixed-point *software* FFT on the same base core:");
    println!(
        "  cycles {}  =>  the custom hardware is still worth {:.1}X beyond dropping soft-float",
        fixed_sw.stats.cycles,
        fixed_sw.stats.cycles as f64 / base.cycles as f64,
    );
    println!();

    println!("5. main-memory traffic (complex points moved), N = {n}:");
    let x = afft_bench::workload::random_signal(n, 7);
    let cached_run = cached_fft(&x, Direction::Forward).expect("cached fft");
    let plain = plain_fft_traffic(n);
    let mc3 = Epochs::new(n, &[16, 8, 8]).expect("valid epochs");
    println!("  plain in-place FFT : {:>6} (N log2 N per direction)", plain.total());
    println!("  cached FFT (Baas)  : {:>6}", cached_run.traffic.total());
    println!("  MCFFT 3 epochs     : {:>6}", mc3.traffic().total());
    println!(
        "  array ASIP         : {:>6} (LDIN+STOUT beats x 2 points)",
        2 * (base.ldin + base.stout)
    );
}
