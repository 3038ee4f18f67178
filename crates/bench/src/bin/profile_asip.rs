//! Extension experiment — cycle attribution of the Table-I program:
//! where do the 1024-point ASIP's cycles actually go?
//!
//! Uses the simulator's per-PC profiler over the generated Algorithm-1
//! program, then folds the hot spots into phases (LDIN / BUT4 / STOUT /
//! control).

use afft_asip::runner::{AsipConfig, AsipPlan};
use afft_bench::workload::random_signal_q15;
use afft_core::Direction;
use afft_sim::profile::profile_run;

fn main() {
    let n = 1024usize;
    let mut plan = AsipPlan::new(n, Direction::Forward, &AsipConfig::default()).expect("plan");
    plan.stage(&random_signal_q15(n, 1)).expect("stage input");
    let (stats, profile) = profile_run(plan.machine_mut(), 100_000_000).expect("profiled run");

    println!("1024-point ASIP run: {} cycles, {} instructions", stats.cycles, stats.instrs);
    println!();

    // Phase breakdown from the instruction-class counters.
    let t = afft_sim::Timing::default();
    let but4 = stats.but4 * t.but4;
    let ldin = stats.ldin * t.custom_mem; // + second-beat charges folded below
    let stout = stats.stout * t.custom_mem;
    let prerot = stats.coef_fetches * t.coef_fetch;
    let control = stats.alu * t.alu
        + stats.branches * t.branch
        + stats.branches_taken * t.taken_extra
        + stats.mtfft * t.mtfft;
    let accounted = but4 + ldin + stout + prerot + control;
    println!("phase breakdown (issue cycles):");
    for (name, c) in [
        ("BUT4 (butterflies)", but4),
        ("LDIN (loads)", ldin),
        ("STOUT (stores)", stout),
        ("pre-rotation fetch+multiply", prerot),
        ("control (li/mtfft/branches)", control),
        ("memory stalls & misc", stats.cycles - accounted),
    ] {
        println!("  {:<30} {:>8}  ({:>4.1}%)", name, c, 100.0 * c as f64 / stats.cycles as f64);
    }
    println!();
    println!("hottest instructions:");
    print!("{}", profile.report(plan.machine().program(), 10));
}
