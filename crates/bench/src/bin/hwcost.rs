//! Experiment E3 — regenerates the paper's **Section IV synthesis
//! numbers**: gate counts, power and critical path of the custom
//! hardware, plus a P-scaling sweep extension.

use afft_bench::paper::hw;
use afft_bench::row;
use afft_hwmodel::{asip_cost, TechLibrary, PISA_CORE_GATES};

fn main() {
    let lib = TechLibrary::tsmc018();
    let c = asip_cost(&lib, 32);
    println!("Section IV hardware cost (P = 32, 1024-point configuration)");
    println!();
    let widths = [26usize, 12, 12];
    println!("{}", row(&["metric".into(), "model".into(), "paper".into()], &widths));
    println!(
        "{}",
        row(
            &["BU+AC gates".into(), format!("{:.0}", c.bu_ac_gates), hw::BU_AC_GATES.to_string()],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "CRF+ROM gates".into(),
                format!("{:.0}", c.crf_rom_gates),
                hw::CRF_ROM_GATES.to_string()
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "total extra gates".into(),
                c.total_gates().to_string(),
                (hw::BU_AC_GATES + hw::CRF_ROM_GATES).to_string()
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "BU+AC power @300MHz (mW)".into(),
                format!("{:.2}", c.bu_ac_power_mw),
                format!("{:.2}", hw::BU_AC_POWER_MW)
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "BU critical path (ns)".into(),
                format!("{:.2}", c.critical_path_ns),
                format!("{:.2}", hw::BU_CRITICAL_NS)
            ],
            &widths
        )
    );
    println!(
        "{}",
        row(
            &[
                "PISA base core gates".into(),
                PISA_CORE_GATES.to_string(),
                hw::PISA_GATES.to_string()
            ],
            &widths
        )
    );
    println!();
    println!(
        "area overhead vs base core: {:.1}%  (paper: 33K / 106K = 31.1%)",
        100.0 * c.overhead_vs_pisa()
    );
    println!(
        "max clock from critical path: {:.0} MHz (paper: \"up to 300 MHz\")",
        c.max_clock_mhz()
    );

    println!();
    {
        use afft_asip::program::ProgramOptions;
        use afft_asip::runner::AsipPlan;
        use afft_bench::workload::random_signal_q15;
        use afft_core::Direction;
        use afft_hwmodel::energy_per_transform_nj;
        use afft_sim::MachineConfig;
        let stats = AsipPlan::new(
            1024,
            Direction::Forward,
            ProgramOptions::default(),
            &MachineConfig::default(),
        )
        .and_then(|mut plan| plan.run(&random_signal_q15(1024, 1)))
        .expect("ASIP run");
        println!(
            "energy per 1024-point FFT (custom hardware, 300 MHz): {:.0} nJ ({} cycles)",
            energy_per_transform_nj(&c, stats.cycles, 300.0),
            stats.cycles
        );
    }

    println!();
    println!("extension: scaling of the custom hardware with CRF size P");
    let widths = [6usize, 12, 12, 12, 12];
    println!(
        "{}",
        row(
            &["P".into(), "BU+AC".into(), "CRF+ROM".into(), "total".into(), "overhead%".into()],
            &widths
        )
    );
    for p in [8usize, 16, 32, 64, 128] {
        let c = asip_cost(&lib, p);
        println!(
            "{}",
            row(
                &[
                    p.to_string(),
                    format!("{:.0}", c.bu_ac_gates),
                    format!("{:.0}", c.crf_rom_gates),
                    c.total_gates().to_string(),
                    format!("{:.1}", 100.0 * c.overhead_vs_pisa()),
                ],
                &widths
            )
        );
    }
}
