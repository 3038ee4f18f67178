//! The custom FFT program of the paper's Algorithm 1, generated for any
//! transform size.
//!
//! The generator emits straight-line `LDIN`/`BUT4`/`STOUT` bodies per
//! group (the paper recompiles per FFT size, so full in-group unrolling
//! is faithful) inside a software group loop per epoch. All butterfly
//! addressing happens in the AC hardware: the only integer work in the
//! loop is advancing two base addresses and the group counter —
//! exactly the "removes all the address calculation instructions"
//! property the paper claims.

use crate::layout::Layout;
use afft_core::{Direction, Split};
use afft_isa::{Asm, AsmError, FftCfg, Instr, Program, Reg};

/// Registers holding the constants 1..=8 used as `BUT4` operands.
const CONST_REGS: [Reg; 8] =
    [Reg::T0, Reg::T1, Reg::T2, Reg::T3, Reg::T4, Reg::T5, Reg::T6, Reg::T7];

/// Register assignment of the generated program (documented for tests
/// and the `asm_playground` example).
pub mod regs {
    use afft_isa::Reg;
    /// Group counter.
    pub const GROUP: Reg = Reg::A0;
    /// Group-count bound of the current epoch.
    pub const BOUND: Reg = Reg::A1;
    /// `LDIN` base address.
    pub const LD_BASE: Reg = Reg::S0;
    /// `STOUT` base address.
    pub const ST_BASE: Reg = Reg::S1;
    /// Scratch for `MTFFT` immediates.
    pub const SCRATCH: Reg = Reg::V0;
}

/// Code-generation style for the per-epoch group walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnrollStyle {
    /// Fully straight-line groups: the whole epoch is emitted with
    /// immediate offsets and no loop control (what the paper's
    /// "reprogrammed and recompiled for different FFT sizes" produces;
    /// matches Table I's near-zero overhead). Falls back to
    /// [`UnrollStyle::GroupLoop`] when immediate offsets cannot reach
    /// (N > 4096).
    #[default]
    Auto,
    /// Force straight-line generation (errors if offsets overflow).
    StraightLine,
    /// A software loop over groups (smaller code, a few cycles per
    /// group of loop control) — the ablation's comparison point.
    GroupLoop,
}

/// Options controlling generation (ablation experiments vary these).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProgramOptions {
    /// Disable the multiply-on-store pre-rotation (the transform is
    /// then *wrong* across epochs — used only by the ablation that
    /// measures the pre-rotation's cost).
    pub skip_prerot: bool,
    /// Group-walk code-generation style.
    pub unroll: UnrollStyle,
}

/// Generates the array-FFT ASIP program for `split` over `layout`,
/// transforming in direction `dir`.
///
/// The program assumes the input vector at `layout.in_base` (natural
/// order), the compressed pre-rotation table at `layout.table_base`,
/// and leaves the spectrum at `layout.out_base` in the hardware
/// (`AO1 = [AL][AH]`) order.
///
/// # Errors
///
/// Returns [`AsmError`] only on internal generator bugs (labels are
/// generated uniquely); surfaced rather than unwrapped so callers can
/// report context.
pub fn generate_array_fft(
    split: &Split,
    layout: &Layout,
    dir: Direction,
    opts: ProgramOptions,
) -> Result<Program, AsmError> {
    let straight = match opts.unroll {
        UnrollStyle::StraightLine => true,
        UnrollStyle::GroupLoop => false,
        UnrollStyle::Auto => straight_line_fits(split),
    };
    let mut a = Asm::new();
    emit_setup(&mut a, split, layout, dir);
    if straight {
        emit_epoch_straight(&mut a, split, layout, opts, 0);
        emit_epoch_straight(&mut a, split, layout, opts, 1);
    } else {
        emit_epoch(&mut a, split, layout, opts, 0);
        emit_epoch(&mut a, split, layout, opts, 1);
    }
    a.emit(Instr::Halt);
    a.assemble()
}

/// Whether every straight-line immediate offset (up to `4N` bytes from
/// the epoch base register) fits the 16-bit signed field.
fn straight_line_fits(split: &Split) -> bool {
    4 * split.n <= i16::MAX as usize
}

fn emit_epoch_straight(
    a: &mut Asm,
    split: &Split,
    layout: &Layout,
    opts: ProgramOptions,
    epoch: u32,
) {
    let (groups, g_size, g_stages, stride, ld_base, st_base) = if epoch == 0 {
        (split.q_size, split.p_size, split.p_stages, split.q_size, layout.in_base, layout.mid_base)
    } else {
        (split.p_size, split.q_size, split.q_stages, split.p_size, layout.mid_base, layout.out_base)
    };
    let prerot = epoch == 0 && !opts.skip_prerot;
    mtfft_imm(a, FftCfg::GroupSizeLog2, g_stages as i32);
    mtfft_imm(a, FftCfg::LoadStride, stride as i32);
    mtfft_imm(a, FftCfg::PrerotEnable, i32::from(prerot));
    a.li(regs::LD_BASE, ld_base as i32);
    a.li(regs::ST_BASE, st_base as i32);
    for g in 0..groups {
        if prerot {
            if g == 0 {
                a.emit(Instr::Mtfft { rs: Reg::ZERO, sel: FftCfg::GroupId });
            } else {
                a.li(regs::GROUP, g as i32);
                a.emit(Instr::Mtfft { rs: regs::GROUP, sel: FftCfg::GroupId });
            }
        }
        // LDIN beats: group gather base is ld_base + 4g (epoch 0 walks
        // residues; epoch 1 walks output bins) — all immediate.
        for k in 0..g_size / 2 {
            let off = 4 * g + 8 * stride * k;
            a.emit(Instr::Ldin {
                base: regs::LD_BASE,
                offset: i16::try_from(off).expect("straight-line LDIN offset fits"),
            });
        }
        emit_stage_grid(a, g_stages, g_size);
        let block = 4 * g_size * g;
        for k in 0..g_size / 2 {
            let off = block + 8 * k;
            a.emit(Instr::Stout {
                base: regs::ST_BASE,
                offset: i16::try_from(off).expect("straight-line STOUT offset fits"),
            });
        }
    }
}

/// The fully unrolled BUT4 grid of one group.
fn emit_stage_grid(a: &mut Asm, g_stages: u32, g_size: usize) {
    let modules = g_size / 8;
    for j in 1..=g_stages {
        if modules <= CONST_REGS.len() {
            for i in 1..=modules {
                a.emit(Instr::But4 {
                    stage: CONST_REGS[j as usize - 1],
                    module: CONST_REGS[i - 1],
                });
            }
        } else {
            a.li(Reg::A2, 1);
            for _ in 0..modules {
                a.emit(Instr::But4 { stage: CONST_REGS[j as usize - 1], module: Reg::A2 });
                a.emit(Instr::Addi { rt: Reg::A2, rs: Reg::A2, imm: 1 });
            }
        }
    }
}

fn mtfft_imm(a: &mut Asm, sel: FftCfg, value: i32) {
    a.li(regs::SCRATCH, value);
    a.emit(Instr::Mtfft { rs: regs::SCRATCH, sel });
}

fn emit_setup(a: &mut Asm, split: &Split, layout: &Layout, dir: Direction) {
    // Constant registers 1..=max(stage, module) for BUT4 operands; the
    // generator emits only the constants this size actually uses.
    let needed = (split.p_stages as usize).max((split.p_size / 8).min(CONST_REGS.len()));
    for (k, &r) in CONST_REGS.iter().enumerate().take(needed) {
        a.li(r, k as i32 + 1);
    }
    mtfft_imm(a, FftCfg::NLog2, split.log2_n as i32);
    mtfft_imm(a, FftCfg::PrerotBase, layout.table_base as i32);
    if dir == Direction::Inverse {
        mtfft_imm(a, FftCfg::InverseEnable, 1);
    }
}

fn emit_epoch(a: &mut Asm, split: &Split, layout: &Layout, opts: ProgramOptions, epoch: u32) {
    // Epoch geometry: epoch 0 runs Q groups of P points gathered with
    // stride Q from the input; epoch 1 runs P groups of Q points
    // gathered with stride P from the mid buffer.
    let (groups, g_size, g_stages, stride, ld_base, st_base, st_block) = if epoch == 0 {
        (
            split.q_size,
            split.p_size,
            split.p_stages,
            split.q_size,
            layout.in_base,
            layout.mid_base,
            4 * split.p_size as u32,
        )
    } else {
        (
            split.p_size,
            split.q_size,
            split.q_stages,
            split.p_size,
            layout.mid_base,
            layout.out_base,
            4 * split.q_size as u32,
        )
    };
    let prerot = epoch == 0 && !opts.skip_prerot;

    mtfft_imm(a, FftCfg::GroupSizeLog2, g_stages as i32);
    mtfft_imm(a, FftCfg::LoadStride, stride as i32);
    mtfft_imm(a, FftCfg::PrerotEnable, i32::from(prerot));
    a.li(regs::GROUP, 0);
    a.li(regs::BOUND, groups as i32);
    a.li(regs::LD_BASE, ld_base as i32);
    a.li(regs::ST_BASE, st_base as i32);

    let loop_label = format!("epoch{epoch}_group");
    a.label(&loop_label);
    if prerot {
        a.emit(Instr::Mtfft { rs: regs::GROUP, sel: FftCfg::GroupId });
    }
    // LDIN phase: g_size/2 beats; beat k reads points 2k, 2k+1 of the
    // gather, i.e. bytes 8*stride*k from the group base.
    for k in 0..g_size / 2 {
        let off = 8 * stride * k;
        a.emit(Instr::Ldin {
            base: regs::LD_BASE,
            offset: i16::try_from(off).expect("LDIN offset fits i16 for supported N"),
        });
    }
    // Stage phase: fully unrolled BUT4 grid (up to 8 modules straight
    // from constant registers, 1 instruction per BUT4; beyond that a
    // branch-free counter register, 2 per BUT4).
    emit_stage_grid(a, g_stages, g_size);
    // STOUT phase: contiguous beats into the group's output block.
    for k in 0..g_size / 2 {
        a.emit(Instr::Stout {
            base: regs::ST_BASE,
            offset: i16::try_from(8 * k).expect("STOUT offset fits i16"),
        });
    }
    // Advance group: gather base moves one point; store base one block.
    a.emit(Instr::Addi { rt: regs::LD_BASE, rs: regs::LD_BASE, imm: 4 });
    a.emit(Instr::Addi {
        rt: regs::ST_BASE,
        rs: regs::ST_BASE,
        imm: i16::try_from(st_block).expect("block stride fits i16"),
    });
    a.emit(Instr::Addi { rt: regs::GROUP, rs: regs::GROUP, imm: 1 });
    a.bne_to(regs::GROUP, regs::BOUND, &loop_label);
}

/// Predicted dynamic instruction counts of the generated program — the
/// analytical form of Algorithm 1's cost, used by tests to pin the
/// generator and to check that it lands in the regime of Table I's
/// cycle counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrBudget {
    /// `LDIN` count (`N/2` per epoch).
    pub ldin: usize,
    /// `STOUT` count (`N/2` per epoch).
    pub stout: usize,
    /// `BUT4` count (`N * log2 N / 8`).
    pub but4: usize,
    /// Everything else (setup + loop control + `MTFFT`).
    pub overhead: usize,
}

impl InstrBudget {
    /// Computes the budget for a split.
    pub fn for_split(split: &Split) -> InstrBudget {
        let ldin = split.n;
        let stout = split.n;
        let but4 = split.total_bu_ops();
        // Setup: 8 constants + 2/3 mtfft pairs; per epoch: 4 mtfft pairs
        // (8 instrs) + 4 li + per group (mtfft-group for epoch 0 only +
        // 3 addi + 1 bne).
        let e0_groups = split.q_size;
        let e1_groups = split.p_size;
        let setup = 8 + 4 + 1; // consts + nlog2/prerotbase pairs + halt
        let per_epoch = 6 + 8;
        let overhead = setup + 2 * per_epoch + e0_groups * 5 + e1_groups * 4;
        InstrBudget { ldin, stout, but4, overhead }
    }

    /// Total dynamic instructions.
    pub fn total(&self) -> usize {
        self.ldin + self.stout + self.but4 + self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_for_all_paper_sizes() {
        for n in [64usize, 128, 256, 512, 1024, 2048, 4096] {
            let split = Split::for_size(n).unwrap();
            let layout = Layout::for_size(n);
            let p =
                generate_array_fft(&split, &layout, Direction::Forward, ProgramOptions::default())
                    .unwrap();
            assert!(!p.is_empty(), "n={n}");
            // Static structure: straight-line code emits every dynamic
            // LDIN (N/2 per epoch).
            let listing = p.disassemble();
            let ldin_static = listing.matches("ldin").count();
            assert_eq!(ldin_static, n, "n={n}");
        }
    }

    #[test]
    fn offsets_fit_immediates_up_to_16k() {
        // The generator's i16 offsets hold up to N = 16384 (stride
        // 8*Q*k maxes at (P/2-1)*8*Q = 4N - 8Q < 32768 for N <= 8192).
        for n in [4096usize, 8192] {
            let split = Split::for_size(n).unwrap();
            let layout = Layout::for_size(n);
            assert!(generate_array_fft(
                &split,
                &layout,
                Direction::Forward,
                ProgramOptions::default()
            )
            .is_ok());
        }
    }

    #[test]
    fn budget_matches_paper_counts() {
        let split = Split::for_size(1024).unwrap();
        let b = InstrBudget::for_split(&split);
        assert_eq!(b.ldin, 1024);
        assert_eq!(b.stout, 1024);
        assert_eq!(b.but4, 1280);
        // Total lands in the regime of the paper's 4168 cycles.
        assert!(b.total() > 3300 && b.total() < 4500, "total {}", b.total());
    }
}
