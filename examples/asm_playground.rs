//! Drive the ASIP by hand: write assembly *text* using the custom FFT
//! instructions, assemble it, run it on the simulator, and inspect the
//! machine — the workflow a firmware engineer would use against the
//! real chip's toolchain.
//!
//! The program computes one 8-point FFT group entirely through the
//! custom unit, then the example disassembles itself and dumps the
//! results.
//!
//! ```text
//! cargo run --release --example asm_playground
//! ```

use afft::core::reference::dft_naive;
use afft::core::Direction;
use afft::isa::parser::assemble_text;
use afft::num::{Complex, Q15};
use afft::sim::{stage_input, Machine, MachineConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // An 8-point FFT over the custom instructions, written as assembly
    // text. Input at address 0, output at address 256.
    let source = "
        # configure the AC unit: 8-point group (2^3)
        li    t0, 3
        mtfft t0, gsize
        li    t0, 6            # log2 N for the (unused) pre-rotation
        mtfft t0, nlog2

        # load 8 points = 4 LDIN beats from address 0
        li    s0, 0
        ldin  0(s0)
        ldin  8(s0)
        ldin  16(s0)
        ldin  24(s0)

        # three stages, one BUT4 module each
        li    t1, 1            # module index
        li    t2, 1
        but4  t2, t1           # stage 1
        li    t2, 2
        but4  t2, t1           # stage 2
        li    t2, 3
        but4  t2, t1           # stage 3

        # store 8 points = 4 STOUT beats to address 256
        li    s1, 256
        stout 0(s1)
        stout 8(s1)
        stout 16(s1)
        stout 24(s1)
        halt
    ";
    let program = assemble_text(source)?;
    println!("assembled {} instructions; disassembly:", program.len());
    println!("{}", program.disassemble());

    let mut m = Machine::new(MachineConfig::default());
    // Stage an impulse at position 1: spectrum = the twiddle spiral.
    let mut x = vec![Complex::<Q15>::zero(); 8];
    x[1] = Complex::new(Q15::from_f64(0.5), Q15::ZERO);
    stage_input(&mut m, 0, &x)?;
    m.load_program(program);
    let stats = m.run(10_000)?;

    println!("ran in {} cycles ({} instructions)", stats.cycles, stats.instrs);
    println!();

    // The reference spectrum is the naive DFT over the same 8 staged
    // points.
    let exact_in: Vec<Complex<f64>> = x.iter().map(|q| q.to_c64()).collect();
    let want = dft_naive(&exact_in, Direction::Forward)?;

    println!("spectrum (hardware scales by 1/8):");
    let out = m.mem().read_complex_slice(256, 8)?;
    for (k, bin) in out.iter().enumerate() {
        let c = bin.to_c64() * 8.0;
        println!(
            "  X[{k}] = {:+.4} {:+.4}i   (dft_naive says {:+.4} {:+.4}i)",
            c.re, c.im, want[k].re, want[k].im
        );
        assert!(c.dist(want[k]) < 0.01, "bin {k} deviates");
    }
    Ok(())
}
