//! Experiment E7 — the paper's scalability claim, extended: one ASIP
//! program per WiMAX/UWB transform size from 128 to 4096 points
//! (the paper's introduction motivates 128..2048 for WiMAX channel
//! bandwidth scaling), including the non-square sizes, plus the
//! non-canonical split sweep on the golden model.

use afft_asip::program::ProgramOptions;
use afft_asip::runner::AsipPlan;
use afft_bench::row;
use afft_bench::workload::{random_signal, random_signal_q15};
use afft_core::reference::{dft_naive, max_error};
use afft_core::{ArrayFft, Direction, Scaling, Split};
use afft_sim::{MachineConfig, Stats};

/// One forward ASIP run of `input` on the default machine.
fn asip_stats(input: &[afft_num::CQ15]) -> Stats {
    AsipPlan::new(
        input.len(),
        Direction::Forward,
        ProgramOptions::default(),
        &MachineConfig::default(),
    )
    .and_then(|mut plan| plan.run(input))
    .expect("ASIP run")
}

fn main() {
    println!("Scalability sweep: one recompiled program per size (paper Section IV)");
    println!();
    let widths = [6usize, 6, 6, 12, 10, 12, 12];
    println!(
        "{}",
        row(
            &[
                "N".into(),
                "P".into(),
                "Q".into(),
                "cycles".into(),
                "CPI".into(),
                "Mbps@300".into(),
                "us@300MHz".into(),
            ],
            &widths
        )
    );
    for n in [128usize, 256, 512, 1024, 2048, 4096] {
        let split = Split::for_size(n).expect("valid size");
        let input = random_signal_q15(n, n as u64);
        let stats = asip_stats(&input);
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    split.p_size.to_string(),
                    split.q_size.to_string(),
                    stats.cycles.to_string(),
                    format!("{:.2}", stats.cpi()),
                    format!("{:.1}", stats.throughput_mbps(n, 300.0)),
                    format!("{:.2}", stats.cycles as f64 / 300.0),
                ],
                &widths
            )
        );
    }

    println!();
    println!("non-canonical splits of 1024 on the golden model (max error vs naive DFT):");
    for (p, q) in [(32usize, 32usize), (64, 16), (128, 8)] {
        let split = Split::with_factors(1024, p, q).expect("valid factors");
        let fft: ArrayFft<f64> = ArrayFft::with_split(split, Scaling::None).expect("plan");
        let x = random_signal(1024, 9);
        let got = fft.process(&x, Direction::Forward).expect("process");
        let want = dft_naive(&x, Direction::Forward).expect("reference");
        println!("  P={p:<4} Q={q:<4} max error {:.3e}", max_error(&got, &want));
    }

    println!();
    println!("UWB requirement check (802.15.3a: FFT every OFDM symbol):");
    let input = random_signal_q15(128, 3);
    let stats = asip_stats(&input);
    let symbol_ns = 312.5; // UWB OFDM symbol period in ns
    let fft_us = stats.cycles as f64 / 300.0;
    println!(
        "  128-point FFT in {:.2} us at 300 MHz ({} cycles); symbol period {:.4} us",
        fft_us,
        stats.cycles,
        symbol_ns / 1000.0
    );
    println!("  sample throughput: {:.1} Msamples/s", 128.0 * 300.0 / stats.cycles as f64);
}
