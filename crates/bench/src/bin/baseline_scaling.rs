//! Extension experiment — Table II across sizes: how the four
//! implementations' cycle counts scale from 64 to 4096 points (the
//! paper reports 1024 only; this shows the crossover-free dominance of
//! the array ASIP over the whole WiMAX/UWB range).

use afft_asip::program::ProgramOptions;
use afft_asip::runner::AsipPlan;
use afft_asip::swfft::run_software_fft;
use afft_baselines::{ti, xtensa};
use afft_bench::row;
use afft_bench::workload::{random_signal, random_signal_q15};
use afft_core::Direction;
use afft_sim::MachineConfig;

fn main() {
    println!("cycles across sizes (Imple1 capped at 1024 for runtime)");
    println!();
    let widths = [6usize, 12, 12, 12, 12, 10];
    println!(
        "{}",
        row(
            &[
                "N".into(),
                "Imple1 SW".into(),
                "Imple2 TI".into(),
                "Imple3 Xt".into(),
                "Imple4 ours".into(),
                "best/ours".into(),
            ],
            &widths
        )
    );
    let machine = MachineConfig::default();
    for n in [64usize, 128, 256, 512, 1024, 2048, 4096] {
        let ours = AsipPlan::new(n, Direction::Forward, ProgramOptions::default(), &machine)
            .and_then(|mut plan| plan.run(&random_signal_q15(n, 1)))
            .expect("asip")
            .cycles;
        let ti_c = ti::run_ti_fft(n, &ti::TiConfig::default()).cycles;
        let xt_c = xtensa::run_xtensa_fft(n, &xtensa::XtensaConfig::default()).cycles;
        let sw_c = if n <= 1024 {
            Some(
                run_software_fft(&random_signal(n, 1), Direction::Forward)
                    .expect("sw")
                    .stats
                    .cycles,
            )
        } else {
            None
        };
        let best_other = ti_c.min(xt_c);
        println!(
            "{}",
            row(
                &[
                    n.to_string(),
                    sw_c.map_or("-".into(), |c| c.to_string()),
                    ti_c.to_string(),
                    xt_c.to_string(),
                    ours.to_string(),
                    format!("{:.2}X", best_other as f64 / ours as f64),
                ],
                &widths
            )
        );
        assert!(ours < xt_c && ours < ti_c, "the array ASIP must win at N={n}");
    }
    println!();
    println!("no crossover: the array ASIP wins at every size (paper's scalability claim)");
}
