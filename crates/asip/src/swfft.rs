//! Imple 1: the standard software radix-2 FFT on the base core, in
//! single-precision float, against the soft-float library — the
//! paper's "Standard SW FFT" baseline of Table II.
//!
//! The generator mirrors what an unoptimising compiler produces from
//! the textbook triple loop: every butterfly operand lives in a stack
//! slot, every float operation is a `jal` to `__addsf3`/`__subsf3`/
//! `__mulsf3`, and a bit-reversal permutation pass runs first. The
//! resulting dynamic profile (hundreds of cycles and ~25 loads per
//! butterfly) is the regime that makes the paper's Imple 1 ~870x
//! slower than the ASIP.

use crate::layout::Layout;
use crate::runner::AsipError;
use crate::softfloat::{emit_softfloat_lib, ADDSF, MULSF, SUBSF};
use afft_core::{Direction, FftError};
use afft_isa::{Asm, Instr, Program, Reg};
use afft_num::{Complex, C64};
use afft_sim::{Machine, MachineConfig, Stats, Timing};

const GP: Reg = Reg::GP; // float data base
const K0: Reg = Reg::K0; // twiddle table base
const K1: Reg = Reg::K1; // N
const FP: Reg = Reg::FP;

// Stack-frame slots (offsets from fp), -O0 style.
const WR: i16 = 0;
const WI: i16 = 4;
const AR: i16 = 8;
const AI: i16 = 12;
const BR: i16 = 16;
const BI: i16 = 20;
const TR: i16 = 24;
const TI: i16 = 28;
const TMP: i16 = 32;

/// Generates the Imple-1 program for an `n`-point float FFT.
///
/// Expects float data at `layout.float_base` (8 bytes per point,
/// natural order; transformed in place) and the `N/2`-entry complex
/// float twiddle table at `layout.ftw_base`.
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless `n` is a power of two
/// `>= 4`.
pub fn generate_software_fft(layout: &Layout) -> Result<Program, FftError> {
    let n = layout.n;
    if !n.is_power_of_two() || n < 4 {
        return Err(FftError::InvalidSize {
            n,
            reason: "software FFT needs a power of two >= 4",
            factor: None,
        });
    }
    let log2n = n.trailing_zeros();
    let mut a = Asm::new();
    use Instr::*;
    let (s0, s1, s2, s3, s4, s5, s6, s7) =
        (Reg::S0, Reg::S1, Reg::S2, Reg::S3, Reg::S4, Reg::S5, Reg::S6, Reg::S7);
    let (t0, t1, t2, t3, t4, t5, t6, t7, t8, t9) =
        (Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::T5, Reg::T6, Reg::T7, Reg::T8, Reg::T9);

    // Prologue: bases and frame pointer.
    a.li(GP, layout.float_base as i32);
    a.li(K0, layout.ftw_base as i32);
    a.li(K1, n as i32);
    a.li(FP, layout.stack_top as i32 - 64);

    // ---- Bit-reversal permutation pass ----
    a.li(s0, 0);
    a.label("rev_i");
    a.mv(t0, s0);
    a.li(t2, 0);
    a.li(t1, log2n as i32);
    a.label("rev_bit");
    a.emit(Sll { rd: t2, rt: t2, shamt: 1 });
    a.emit(Andi { rt: t3, rs: t0, imm: 1 });
    a.emit(Or { rd: t2, rs: t2, rt: t3 });
    a.emit(Srl { rd: t0, rt: t0, shamt: 1 });
    a.emit(Addi { rt: t1, rs: t1, imm: -1 });
    a.bgtz_to(t1, "rev_bit");
    a.emit(Slt { rd: t3, rs: s0, rt: t2 });
    a.beq_to(t3, Reg::ZERO, "rev_next");
    a.emit(Sll { rd: t4, rt: s0, shamt: 3 });
    a.emit(Add { rd: t4, rs: t4, rt: GP });
    a.emit(Sll { rd: t5, rt: t2, shamt: 3 });
    a.emit(Add { rd: t5, rs: t5, rt: GP });
    a.emit(Lw { rt: t6, base: t4, offset: 0 });
    a.emit(Lw { rt: t7, base: t4, offset: 4 });
    a.emit(Lw { rt: t8, base: t5, offset: 0 });
    a.emit(Lw { rt: t9, base: t5, offset: 4 });
    a.emit(Sw { rt: t8, base: t4, offset: 0 });
    a.emit(Sw { rt: t9, base: t4, offset: 4 });
    a.emit(Sw { rt: t6, base: t5, offset: 0 });
    a.emit(Sw { rt: t7, base: t5, offset: 4 });
    a.label("rev_next");
    a.emit(Addi { rt: s0, rs: s0, imm: 1 });
    a.bne_to(s0, K1, "rev_i");

    // ---- Triple loop ----
    a.li(s0, 2); // len
    a.emit(Srl { rd: s7, rt: K1, shamt: 1 }); // tw stride = N/2
    a.label("len_loop");
    a.emit(Srl { rd: s1, rt: s0, shamt: 1 }); // half
    a.li(s2, 0); // start
    a.label("start_loop");
    a.emit(Sll { rd: s4, rt: s2, shamt: 3 });
    a.emit(Add { rd: s4, rs: s4, rt: GP }); // addr_a
    a.emit(Sll { rd: t0, rt: s1, shamt: 3 });
    a.emit(Add { rd: s5, rs: s4, rt: t0 }); // addr_b
    a.mv(s6, K0); // twiddle address
    a.li(s3, 0); // k
    a.label("k_loop");
    emit_butterfly(&mut a);
    a.emit(Addi { rt: s4, rs: s4, imm: 8 });
    a.emit(Addi { rt: s5, rs: s5, imm: 8 });
    a.emit(Sll { rd: t0, rt: s7, shamt: 3 });
    a.emit(Add { rd: s6, rs: s6, rt: t0 });
    a.emit(Addi { rt: s3, rs: s3, imm: 1 });
    a.bne_to(s3, s1, "k_loop");
    a.emit(Add { rd: s2, rs: s2, rt: s0 });
    a.bne_to(s2, K1, "start_loop");
    a.emit(Sll { rd: s0, rt: s0, shamt: 1 });
    a.emit(Srl { rd: s7, rt: s7, shamt: 1 });
    a.emit(Slt { rd: t0, rs: K1, rt: s0 }); // N < len -> done
    a.beq_to(t0, Reg::ZERO, "len_loop");
    a.emit(Halt);

    emit_softfloat_lib(&mut a);
    a.assemble().map_err(|e| FftError::InvalidDecomposition {
        reason: format!("software FFT program generation failed: {e}"),
    })
}

/// One -O0-style butterfly: spill everything to the frame, call the
/// soft-float routines for the 4 multiplies and 6 add/subs.
fn emit_butterfly(a: &mut Asm) {
    use Instr::*;
    let t0 = Reg::T0;
    // Spill the six inputs into the frame.
    for (slot, base, off) in [
        (WR, Reg::S6, 0i16),
        (WI, Reg::S6, 4),
        (AR, Reg::S4, 0),
        (AI, Reg::S4, 4),
        (BR, Reg::S5, 0),
        (BI, Reg::S5, 4),
    ] {
        a.emit(Lw { rt: t0, base, offset: off });
        a.emit(Sw { rt: t0, base: FP, offset: slot });
    }
    let call = |a: &mut Asm, op: &str, x: i16, y: i16| {
        a.emit(Lw { rt: Reg::A0, base: FP, offset: x });
        a.emit(Lw { rt: Reg::A1, base: FP, offset: y });
        a.jal_to(op);
    };
    // tr = br*wr - bi*wi
    call(a, MULSF, BR, WR);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TR });
    call(a, MULSF, BI, WI);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TMP });
    call(a, SUBSF, TR, TMP);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TR });
    // ti = br*wi + bi*wr
    call(a, MULSF, BR, WI);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TI });
    call(a, MULSF, BI, WR);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TMP });
    call(a, ADDSF, TI, TMP);
    a.emit(Sw { rt: Reg::V0, base: FP, offset: TI });
    // a' = a + t (stored straight back to the array)
    call(a, ADDSF, AR, TR);
    a.emit(Sw { rt: Reg::V0, base: Reg::S4, offset: 0 });
    call(a, ADDSF, AI, TI);
    a.emit(Sw { rt: Reg::V0, base: Reg::S4, offset: 4 });
    // b' = a - t
    call(a, SUBSF, AR, TR);
    a.emit(Sw { rt: Reg::V0, base: Reg::S5, offset: 0 });
    call(a, SUBSF, AI, TI);
    a.emit(Sw { rt: Reg::V0, base: Reg::S5, offset: 4 });
}

/// Result of an Imple-1 run.
#[derive(Debug, Clone)]
pub struct SwFftRun {
    /// Spectrum in natural order (converted from the f32 memory image).
    pub output: Vec<C64>,
    /// Execution statistics.
    pub stats: Stats,
}

/// Stages data + twiddles, runs the Imple-1 program, reads back the
/// spectrum.
///
/// # Errors
///
/// Returns [`AsipError`] for invalid sizes or simulator traps.
pub fn run_software_fft(
    input: &[C64],
    dir: Direction,
    timing: Timing,
    max_cycles: u64,
) -> Result<SwFftRun, AsipError> {
    let n = input.len();
    let layout = Layout::for_size(n);
    let program = generate_software_fft(&layout)?;
    let mut m = Machine::new(MachineConfig {
        mem_bytes: layout.mem_bytes,
        timing,
        ..MachineConfig::default()
    });
    for (i, &c) in input.iter().enumerate() {
        let base = layout.float_base + 8 * i as u32;
        m.mem_mut().write_u32(base, (c.re as f32).to_bits())?;
        m.mem_mut().write_u32(base + 4, (c.im as f32).to_bits())?;
    }
    for k in 0..n / 2 {
        let w = dir.twiddle(n, k);
        let base = layout.ftw_base + 8 * k as u32;
        m.mem_mut().write_u32(base, (w.re as f32).to_bits())?;
        m.mem_mut().write_u32(base + 4, (w.im as f32).to_bits())?;
    }
    m.load_program(program);
    let stats = m.run(max_cycles)?;
    let mut output = Vec::with_capacity(n);
    for i in 0..n {
        let base = layout.float_base + 8 * i as u32;
        let re = f32::from_bits(m.mem().read_u32(base)?);
        let im = f32::from_bits(m.mem().read_u32(base + 4)?);
        output.push(Complex::new(f64::from(re), f64::from(im)));
    }
    Ok(SwFftRun { output, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(n: usize, seed: u64) -> Vec<C64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0))).collect()
    }

    #[test]
    fn software_fft_matches_reference_16() {
        let x = random_signal(16, 1);
        let run = run_software_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        assert!(max_error(&run.output, &want) < 1e-3, "f32 FFT deviates");
    }

    #[test]
    fn software_fft_matches_reference_64() {
        let x = random_signal(64, 2);
        let run = run_software_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let want = dft_naive(&x, Direction::Forward).unwrap();
        assert!(max_error(&run.output, &want) < 1e-2);
    }

    #[test]
    fn cycle_profile_is_soft_float_dominated() {
        let x = random_signal(64, 3);
        let run = run_software_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let butterflies = 64 / 2 * 6; // N/2 log2 N
        let per_bfly = run.stats.cycles as f64 / butterflies as f64;
        // The paper's Imple-1 regime: hundreds of cycles per butterfly.
        assert!(per_bfly > 300.0 && per_bfly < 1500.0, "cycles/butterfly = {per_bfly}");
        // And memory-heavy: > 15 loads per butterfly.
        assert!(run.stats.loads as f64 / butterflies as f64 > 15.0);
    }

    #[test]
    fn inverse_twiddles_give_inverse_transform() {
        let n = 16;
        let x = random_signal(n, 4);
        let fwd = run_software_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let inv = run_software_fft(&fwd.output, Direction::Inverse, Timing::default(), 50_000_000)
            .unwrap();
        let got: Vec<C64> = inv.output.iter().map(|&v| v * (1.0 / n as f64)).collect();
        assert!(max_error(&got, &x) < 1e-2);
    }
}
