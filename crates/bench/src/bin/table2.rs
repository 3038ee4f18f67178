//! Experiment E2 — regenerates the paper's **Table II**: the four
//! implementations of a 1024-point FFT compared on cycles, loads,
//! stores and data-cache misses, with the improvement factors of the
//! array ASIP over each baseline.

use afft_asip::engine::AsipEngine;
use afft_asip::swfft::run_software_fft;
use afft_baselines::{ti, xtensa};
use afft_bench::paper::TABLE2;
use afft_bench::workload::random_signal;
use afft_bench::{factor, row};
use afft_core::engine::FftEngine;
use afft_core::Direction;

struct Row {
    name: &'static str,
    cycles: u64,
    loads: Option<u64>,
    stores: Option<u64>,
    misses: u64,
}

fn main() {
    let n = 1024usize;
    println!("Table II: comparison among different FFT implementations ({n}-point)");
    println!();

    // Imple 1: standard software (soft-float) FFT on the base core.
    let sw = run_software_fft(&random_signal(n, 1), Direction::Forward).expect("software FFT run");
    // Imple 2: TI C6713 VLIW model.
    let ti_run = ti::run_ti_fft(n, &ti::TiConfig::default());
    // Imple 3: Xtensa FFT ASIP model.
    let xt = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default());
    // Imple 4: our array-FFT ASIP, through the engine adapter.
    let mut imple4 = AsipEngine::new(n).expect("plan");
    imple4.execute(&random_signal(n, 1), Direction::Forward).expect("ASIP run");
    let ours = imple4.last_stats().expect("cycle-accurate run retains stats");

    let rows = [
        Row {
            name: "Imple1 standard SW",
            cycles: sw.stats.cycles,
            loads: Some(sw.stats.loads),
            stores: Some(sw.stats.stores),
            misses: sw.stats.cache_misses(),
        },
        Row {
            name: "Imple2 TI DSP",
            cycles: ti_run.cycles,
            loads: None, // the paper reports '-' for the TI column
            stores: None,
            misses: ti_run.cache_misses(),
        },
        Row {
            name: "Imple3 Xtensa ASIP",
            cycles: xt.cycles,
            loads: Some(xt.loads),
            stores: Some(xt.stores),
            misses: xt.cache_misses(),
        },
        Row {
            name: "Imple4 array ASIP",
            cycles: ours.cycles,
            loads: Some(ours.table_loads()),
            stores: Some(ours.table_stores()),
            misses: ours.cache_misses(),
        },
    ];

    let widths = [20usize, 12, 10, 10, 10, 14, 12, 12, 12];
    println!(
        "{}",
        row(
            &[
                "implementation".into(),
                "cycles".into(),
                "loads".into(),
                "stores".into(),
                "misses".into(),
                "paper cycles".into(),
                "paper ld".into(),
                "paper st".into(),
                "paper miss".into(),
            ],
            &widths
        )
    );
    let opt = |v: Option<u64>| v.map_or("-".to_string(), |x| x.to_string());
    for (r, p) in rows.iter().zip(TABLE2.iter()) {
        println!(
            "{}",
            row(
                &[
                    r.name.into(),
                    r.cycles.to_string(),
                    opt(r.loads),
                    opt(r.stores),
                    r.misses.to_string(),
                    p.cycles.to_string(),
                    opt(p.loads),
                    opt(p.stores),
                    p.misses.to_string(),
                ],
                &widths
            )
        );
    }

    println!();
    let ours_cycles = rows[3].cycles as f64;
    println!("improvement of the array ASIP (cycles):");
    for (i, r) in rows.iter().take(3).enumerate() {
        let paper = TABLE2[i].cycles as f64 / TABLE2[3].cycles as f64;
        println!(
            "  over {:<22} measured {:>8}   paper {:>6.1}X",
            r.name,
            factor(ours_cycles, r.cycles as f64),
            paper
        );
    }
    if let (Some(l), Some(s)) = (rows[2].loads, rows[2].stores) {
        println!();
        println!(
            "load/store reduction vs Xtensa: {} loads, {} stores (paper: 5.2X, 4.4X)",
            factor(rows[3].loads.expect("ours has loads") as f64, l as f64),
            factor(rows[3].stores.expect("ours has stores") as f64, s as f64),
        );
    }
    println!(
        "cache-miss reduction vs Xtensa: {} (paper: 2.6X)",
        factor(rows[3].misses as f64, rows[2].misses as f64)
    );
}
