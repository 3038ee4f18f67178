//! An *optimised* fixed-point software FFT on the base core — the
//! strongest software baseline the PISA core can field.
//!
//! The paper's Imple 1 is a float FFT paying ~700 cycles per butterfly
//! in soft-float emulation. A fair question is how much of the 866x
//! speedup is merely "don't use soft-float". This generator answers
//! it: a register-allocated Q15 FFT using the native multiplier,
//! halfword loads/stores on the packed wire format, per-stage
//! arithmetic scaling — essentially what `-O2` would produce from
//! good fixed-point C. It runs ~50 cycles per butterfly, and the ASIP
//! still beats it by an order of magnitude (see the `ablation` and
//! `baseline_scaling` experiments).

use crate::layout::Layout;
use crate::runner::AsipError;
use afft_core::{Direction, FftError};
use afft_isa::{Asm, Instr, Program, Reg};
use afft_num::{twiddle_q15, Complex, Q15};
use afft_sim::{Machine, MachineConfig, Stats, Timing};

/// Generates the optimised fixed-point FFT program.
///
/// Data: packed Q15 complex points (4 bytes) at `layout.in_base`,
/// transformed in place with per-stage `>> 1` scaling (output =
/// `DFT / N`); Q15 twiddles at `layout.table_base` (reusing the
/// pre-rotation region, `N/2` entries staged by the runner).
///
/// # Errors
///
/// Returns [`FftError::InvalidSize`] unless `n` is a power of two
/// `>= 4`.
pub fn generate_fixed_fft(layout: &Layout) -> Result<Program, FftError> {
    let n = layout.n;
    if !n.is_power_of_two() || n < 4 {
        return Err(FftError::InvalidSize {
            n,
            reason: "fixed FFT needs a power of two >= 4",
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
    let (a0, a1, a2, a3) = (Reg::A0, Reg::A1, Reg::A2, Reg::A3);

    a.li(Reg::GP, layout.in_base as i32);
    a.li(Reg::K0, layout.table_base as i32);
    a.li(Reg::K1, n as i32);

    // Bit-reversal permutation (packed 32-bit words, lw/sw).
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
    a.emit(Sll { rd: t4, rt: s0, shamt: 2 });
    a.emit(Add { rd: t4, rs: t4, rt: Reg::GP });
    a.emit(Sll { rd: t5, rt: t2, shamt: 2 });
    a.emit(Add { rd: t5, rs: t5, rt: Reg::GP });
    a.emit(Lw { rt: t6, base: t4, offset: 0 });
    a.emit(Lw { rt: t7, base: t5, offset: 0 });
    a.emit(Sw { rt: t7, base: t4, offset: 0 });
    a.emit(Sw { rt: t6, base: t5, offset: 0 });
    a.label("rev_next");
    a.emit(Addi { rt: s0, rs: s0, imm: 1 });
    a.bne_to(s0, Reg::K1, "rev_i");

    // Triple loop, fully register-allocated.
    a.li(s0, 2); // len
    a.emit(Srl { rd: s7, rt: Reg::K1, shamt: 1 }); // tw stride
    a.label("len_loop");
    a.emit(Srl { rd: s1, rt: s0, shamt: 1 }); // half
    a.li(s2, 0); // start
    a.label("start_loop");
    a.emit(Sll { rd: s4, rt: s2, shamt: 2 });
    a.emit(Add { rd: s4, rs: s4, rt: Reg::GP }); // addr a
    a.emit(Sll { rd: t0, rt: s1, shamt: 2 });
    a.emit(Add { rd: s5, rs: s4, rt: t0 }); // addr b
    a.mv(s6, Reg::K0); // twiddle addr
    a.li(s3, 0); // k
    a.label("k_loop");
    // Load operands as sign-extended halfwords.
    a.emit(Lh { rt: a0, base: s4, offset: 0 }); // ar
    a.emit(Lh { rt: a1, base: s4, offset: 2 }); // ai
    a.emit(Lh { rt: a2, base: s5, offset: 0 }); // br
    a.emit(Lh { rt: a3, base: s5, offset: 2 }); // bi
    a.emit(Lh { rt: t8, base: s6, offset: 0 }); // wr
    a.emit(Lh { rt: t9, base: s6, offset: 2 }); // wi
                                                // t = b * w in Q15: tr = (br wr - bi wi) >> 15.
    a.emit(Mul { rd: t0, rs: a2, rt: t8 });
    a.emit(Mul { rd: t1, rs: a3, rt: t9 });
    a.emit(Sub { rd: t0, rs: t0, rt: t1 });
    a.emit(Sra { rd: t0, rt: t0, shamt: 15 }); // tr
    a.emit(Mul { rd: t1, rs: a2, rt: t9 });
    a.emit(Mul { rd: t2, rs: a3, rt: t8 });
    a.emit(Add { rd: t1, rs: t1, rt: t2 });
    a.emit(Sra { rd: t1, rt: t1, shamt: 15 }); // ti
                                               // a' = (a + t) >> 1 ; b' = (a - t) >> 1 (per-stage scaling).
    a.emit(Add { rd: t2, rs: a0, rt: t0 });
    a.emit(Sra { rd: t2, rt: t2, shamt: 1 });
    a.emit(Add { rd: t3, rs: a1, rt: t1 });
    a.emit(Sra { rd: t3, rt: t3, shamt: 1 });
    a.emit(Sub { rd: t4, rs: a0, rt: t0 });
    a.emit(Sra { rd: t4, rt: t4, shamt: 1 });
    a.emit(Sub { rd: t5, rs: a1, rt: t1 });
    a.emit(Sra { rd: t5, rt: t5, shamt: 1 });
    a.emit(Sh { rt: t2, base: s4, offset: 0 });
    a.emit(Sh { rt: t3, base: s4, offset: 2 });
    a.emit(Sh { rt: t4, base: s5, offset: 0 });
    a.emit(Sh { rt: t5, base: s5, offset: 2 });
    // Advance.
    a.emit(Addi { rt: s4, rs: s4, imm: 4 });
    a.emit(Addi { rt: s5, rs: s5, imm: 4 });
    a.emit(Sll { rd: t0, rt: s7, shamt: 2 });
    a.emit(Add { rd: s6, rs: s6, rt: t0 });
    a.emit(Addi { rt: s3, rs: s3, imm: 1 });
    a.bne_to(s3, s1, "k_loop");
    a.emit(Add { rd: s2, rs: s2, rt: s0 });
    a.bne_to(s2, Reg::K1, "start_loop");
    a.emit(Sll { rd: s0, rt: s0, shamt: 1 });
    a.emit(Srl { rd: s7, rt: s7, shamt: 1 });
    a.emit(Slt { rd: t0, rs: Reg::K1, rt: s0 });
    a.beq_to(t0, Reg::ZERO, "len_loop");
    a.emit(Halt);

    a.assemble().map_err(|e| FftError::InvalidDecomposition {
        reason: format!("fixed FFT program generation failed: {e}"),
    })
}

/// Result of an optimised fixed-point software run.
#[derive(Debug, Clone)]
pub struct FixedFftRun {
    /// Spectrum in natural order, scaled by `1/N` (per-stage halving).
    pub output: Vec<Complex<Q15>>,
    /// Execution statistics.
    pub stats: Stats,
}

/// Stages data + twiddles, runs the optimised fixed-point FFT.
///
/// # Errors
///
/// Returns [`AsipError`] for invalid sizes or simulator traps.
pub fn run_fixed_fft(
    input: &[Complex<Q15>],
    dir: Direction,
    timing: Timing,
    max_cycles: u64,
) -> Result<FixedFftRun, AsipError> {
    let n = input.len();
    let layout = Layout::for_size(n);
    let program = generate_fixed_fft(&layout)?;
    let mut m = Machine::new(MachineConfig {
        mem_bytes: layout.mem_bytes,
        timing,
        ..MachineConfig::default()
    });
    m.mem_mut().write_complex_slice(layout.in_base, input)?;
    for k in 0..n / 2 {
        let mut w = twiddle_q15(n, k);
        if matches!(dir, Direction::Inverse) {
            w = w.conj();
        }
        m.mem_mut().write_complex(layout.table_base + 4 * k as u32, w)?;
    }
    m.load_program(program);
    let stats = m.run(max_cycles)?;
    let output = m.mem().read_complex_slice(layout.in_base, n)?;
    Ok(FixedFftRun { output, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use afft_core::reference::{dft_naive, max_error};
    use afft_num::C64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn signal(n: usize, seed: u64) -> Vec<Complex<Q15>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Complex::new(
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                    Q15::from_f64(rng.gen_range(-0.9..0.9)),
                )
            })
            .collect()
    }

    #[test]
    fn fixed_fft_matches_reference() {
        for n in [64usize, 256] {
            let x = signal(n, n as u64);
            let run = run_fixed_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
            let exact_in: Vec<C64> = x.iter().map(|c| c.to_c64()).collect();
            let want = dft_naive(&exact_in, Direction::Forward).unwrap();
            let got: Vec<C64> = run.output.iter().map(|c| c.to_c64() * n as f64).collect();
            let scale = want.iter().map(|c| c.abs()).fold(0.0, f64::max);
            assert!(
                max_error(&got, &want) / scale < 0.03,
                "n={n}: rel err {}",
                max_error(&got, &want) / scale
            );
        }
    }

    #[test]
    fn sits_between_soft_float_and_the_asip() {
        use crate::runner::{run_array_fft, AsipConfig};
        let n = 256;
        let x = signal(n, 1);
        let fixed = run_fixed_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let asip = run_array_fft(&x, Direction::Forward, &AsipConfig::default()).unwrap();
        let butterflies = (n / 2) as u64 * 8;
        let per_bfly = fixed.stats.cycles as f64 / butterflies as f64;
        // Optimised software regime: tens of cycles per butterfly.
        assert!(per_bfly > 25.0 && per_bfly < 90.0, "cycles/butterfly {per_bfly}");
        // The ASIP still wins by an order of magnitude.
        let factor = fixed.stats.cycles as f64 / asip.stats.cycles as f64;
        assert!(factor > 8.0, "ASIP factor over optimised software: {factor}");
    }

    #[test]
    fn inverse_round_trip() {
        let n = 64;
        let x = signal(n, 2);
        let fwd = run_fixed_fft(&x, Direction::Forward, Timing::default(), 50_000_000).unwrap();
        let inv =
            run_fixed_fft(&fwd.output, Direction::Inverse, Timing::default(), 50_000_000).unwrap();
        let got: Vec<C64> = inv.output.iter().map(|c| c.to_c64() * n as f64).collect();
        let want: Vec<C64> = x.iter().map(|c| c.to_c64()).collect();
        assert!(max_error(&got, &want) < 0.06);
    }
}
