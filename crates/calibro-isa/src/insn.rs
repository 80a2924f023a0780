//! The AArch64 instruction subset used by the Calibro pipeline.
//!
//! The subset covers everything ART's code generator needs for the
//! workloads in this reproduction, and — crucially — **every PC-relative
//! addressing form the paper's link-time patcher must handle** (§3.3.4):
//! `b`, `bl`, `b.cond`, `cbz`, `cbnz`, `tbz`, `tbnz`, `adr`, `adrp` and the
//! `ldr` literal form.
//!
//! All PC-relative offsets are stored as **byte offsets relative to the
//! address of the instruction itself**, exactly as the architecture defines
//! them, so `target = insn_address + offset` (for `adrp`,
//! `target_page = align_down(insn_address, 4096) + offset`).

use crate::cond::Cond;
use crate::reg::Reg;

/// Addressing mode for load/store pair instructions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum PairMode {
    /// `[xn, #imm]` — base register unchanged.
    SignedOffset,
    /// `[xn, #imm]!` — base updated before access.
    PreIndex,
    /// `[xn], #imm` — base updated after access.
    PostIndex,
}

/// One decoded AArch64 instruction.
///
/// `wide == true` selects the 64-bit (`x`) register view, `false` the
/// 32-bit (`w`) view, mirroring the `sf` bit in the encodings.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields mirror the architectural operand names
pub enum Insn {
    /// Unconditional PC-relative branch.
    B { offset: i64 },
    /// Branch with link (call); writes the return address to `x30`.
    Bl { offset: i64 },
    /// Conditional PC-relative branch.
    BCond { cond: Cond, offset: i64 },
    /// Compare and branch if zero.
    Cbz { wide: bool, rt: Reg, offset: i64 },
    /// Compare and branch if not zero.
    Cbnz { wide: bool, rt: Reg, offset: i64 },
    /// Test bit and branch if zero.
    Tbz { rt: Reg, bit: u8, offset: i64 },
    /// Test bit and branch if not zero.
    Tbnz { rt: Reg, bit: u8, offset: i64 },
    /// Form PC-relative address.
    Adr { rd: Reg, offset: i64 },
    /// Form PC-relative page address (offset is a byte multiple of 4096).
    Adrp { rd: Reg, offset: i64 },
    /// Load register from a PC-relative literal pool slot.
    LdrLit { wide: bool, rt: Reg, offset: i64 },

    /// Indirect branch.
    Br { rn: Reg },
    /// Indirect call; writes the return address to `x30`.
    Blr { rn: Reg },
    /// Return (indirect branch, conventionally via `x30`).
    Ret { rn: Reg },

    /// Move wide with zero.
    Movz { wide: bool, rd: Reg, imm16: u16, hw: u8 },
    /// Move wide with NOT.
    Movn { wide: bool, rd: Reg, imm16: u16, hw: u8 },
    /// Move wide with keep.
    Movk { wide: bool, rd: Reg, imm16: u16, hw: u8 },

    /// Add immediate; `set_flags` selects `adds`/`cmn`-style behaviour.
    AddImm { wide: bool, set_flags: bool, rd: Reg, rn: Reg, imm12: u16, shift12: bool },
    /// Subtract immediate; with `set_flags` and `rd == ZR` this is `cmp`.
    SubImm { wide: bool, set_flags: bool, rd: Reg, rn: Reg, imm12: u16, shift12: bool },
    /// Add shifted register (LSL shift only in this subset).
    AddReg { wide: bool, set_flags: bool, rd: Reg, rn: Reg, rm: Reg, shift: u8 },
    /// Subtract shifted register; with `set_flags` and `rd == ZR` this is `cmp`.
    SubReg { wide: bool, set_flags: bool, rd: Reg, rn: Reg, rm: Reg, shift: u8 },

    /// Bitwise AND (shifted register); `set_flags` selects `ands`/`tst`.
    AndReg { wide: bool, set_flags: bool, rd: Reg, rn: Reg, rm: Reg, shift: u8 },
    /// Bitwise OR (shifted register); `orr rd, zr, rm` is the canonical `mov`.
    OrrReg { wide: bool, rd: Reg, rn: Reg, rm: Reg, shift: u8 },
    /// Bitwise exclusive OR (shifted register).
    EorReg { wide: bool, rd: Reg, rn: Reg, rm: Reg, shift: u8 },

    /// Signed divide: `rd = rn / rm` (0 on division by zero, per the
    /// architecture — Java-level throws are generated as explicit checks).
    Sdiv { wide: bool, rd: Reg, rn: Reg, rm: Reg },
    /// Logical shift left by register: `rd = rn << (rm % width)`.
    Lslv { wide: bool, rd: Reg, rn: Reg, rm: Reg },
    /// Arithmetic shift right by register: `rd = rn >> (rm % width)`.
    Asrv { wide: bool, rd: Reg, rn: Reg, rm: Reg },
    /// Multiply-add: `rd = ra + rn * rm`.
    Madd { wide: bool, rd: Reg, rn: Reg, rm: Reg, ra: Reg },
    /// Multiply-subtract: `rd = ra - rn * rm`.
    Msub { wide: bool, rd: Reg, rn: Reg, rm: Reg, ra: Reg },

    /// Unsigned bitfield move (the encoding behind `lsl`/`lsr` aliases).
    Ubfm { wide: bool, rd: Reg, rn: Reg, immr: u8, imms: u8 },
    /// Signed bitfield move (the encoding behind the `asr` alias).
    Sbfm { wide: bool, rd: Reg, rn: Reg, immr: u8, imms: u8 },

    /// Load register, unsigned scaled immediate offset (byte offset stored).
    LdrImm { wide: bool, rt: Reg, rn: Reg, offset: u16 },
    /// Store register, unsigned scaled immediate offset (byte offset stored).
    StrImm { wide: bool, rt: Reg, rn: Reg, offset: u16 },

    /// Store pair of 64-bit registers.
    Stp { rt: Reg, rt2: Reg, rn: Reg, offset: i16, mode: PairMode },
    /// Load pair of 64-bit registers.
    Ldp { rt: Reg, rt2: Reg, rn: Reg, offset: i16, mode: PairMode },

    /// No operation.
    Nop,
    /// Breakpoint.
    Brk { imm: u16 },
    /// Supervisor call (used for the simulated runtime's "throw" path).
    Svc { imm: u16 },
}

impl Insn {
    /// Size in bytes of every instruction in this ISA.
    pub const SIZE: u64 = 4;

    /// Returns `true` if this instruction ends a basic block: unconditional
    /// and conditional branches, test/compare-and-branch, indirect branches
    /// and returns.
    ///
    /// Calls (`bl`, `blr`) are *not* terminators — control returns to the
    /// following instruction — matching the paper's terminator-instruction
    /// definition ("jump and return instructions").
    #[must_use]
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Insn::B { .. }
                | Insn::BCond { .. }
                | Insn::Cbz { .. }
                | Insn::Cbnz { .. }
                | Insn::Tbz { .. }
                | Insn::Tbnz { .. }
                | Insn::Br { .. }
                | Insn::Ret { .. }
        )
    }

    /// Returns `true` for call instructions (`bl`, `blr`).
    #[must_use]
    pub fn is_call(&self) -> bool {
        matches!(self, Insn::Bl { .. } | Insn::Blr { .. })
    }

    /// Returns `true` for the indirect jump the paper's LTBO must flag:
    /// `br` (used e.g. for switch tables). `ret` and `blr` are excluded —
    /// `ret` follows the return convention and `blr` is a call.
    #[must_use]
    pub fn is_indirect_jump(&self) -> bool {
        matches!(self, Insn::Br { .. })
    }

    /// Returns `true` if the instruction addresses memory or code relative
    /// to the program counter (the set listed in §3.3.4 of the paper).
    #[must_use]
    pub fn is_pc_relative(&self) -> bool {
        self.pc_rel_offset().is_some()
    }

    /// Returns the PC-relative byte offset carried by this instruction,
    /// or `None` if it is not PC-relative.
    #[must_use]
    pub fn pc_rel_offset(&self) -> Option<i64> {
        match *self {
            Insn::B { offset }
            | Insn::Bl { offset }
            | Insn::BCond { offset, .. }
            | Insn::Cbz { offset, .. }
            | Insn::Cbnz { offset, .. }
            | Insn::Tbz { offset, .. }
            | Insn::Tbnz { offset, .. }
            | Insn::Adr { offset, .. }
            | Insn::Adrp { offset, .. }
            | Insn::LdrLit { offset, .. } => Some(offset),
            _ => None,
        }
    }

    /// Returns a copy of this instruction with its PC-relative offset
    /// replaced — the primitive the paper's patching step (§3.3.4) uses.
    ///
    /// # Panics
    ///
    /// Panics if the instruction is not PC-relative, or if `offset` violates
    /// the form's alignment (4 bytes for branches/literals, 4096 for `adrp`).
    /// Encoding-range violations are caught later by the encoder.
    #[must_use]
    pub fn with_pc_rel_offset(&self, offset: i64) -> Insn {
        let mut insn = *self;
        match &mut insn {
            Insn::B { offset: o }
            | Insn::Bl { offset: o }
            | Insn::BCond { offset: o, .. }
            | Insn::Cbz { offset: o, .. }
            | Insn::Cbnz { offset: o, .. }
            | Insn::Tbz { offset: o, .. }
            | Insn::Tbnz { offset: o, .. }
            | Insn::LdrLit { offset: o, .. } => {
                assert!(offset % 4 == 0, "branch/literal offset {offset:#x} must be 4-aligned");
                *o = offset;
            }
            Insn::Adr { offset: o, .. } => *o = offset,
            Insn::Adrp { offset: o, .. } => {
                assert!(offset % 4096 == 0, "adrp offset {offset:#x} must be page-aligned");
                *o = offset;
            }
            _ => panic!("with_pc_rel_offset on non-PC-relative instruction {insn:?}"),
        }
        insn
    }

    /// Computes the absolute target address of a PC-relative instruction
    /// located at `address`, or `None` if not PC-relative.
    ///
    /// For `adrp` the result is the target *page* base.
    #[must_use]
    pub fn pc_rel_target(&self, address: u64) -> Option<u64> {
        let offset = self.pc_rel_offset()?;
        let base = if matches!(self, Insn::Adrp { .. }) { address & !0xfff } else { address };
        Some(base.wrapping_add(offset as u64))
    }

    /// Returns `true` if executing this instruction writes the link
    /// register `x30`: as a call side effect, as a plain destination, or
    /// as either destination of a load pair (which `dest_reg` cannot
    /// report).
    #[must_use]
    pub fn writes_lr(&self) -> bool {
        match *self {
            Insn::Ldp { rt, rt2, .. } => rt.is_lr() || rt2.is_lr(),
            _ => self.is_call() || self.dest_reg().is_some_and(Reg::is_lr),
        }
    }

    /// Returns `true` if executing this instruction reads `x30`.
    #[must_use]
    pub fn reads_lr(&self) -> bool {
        let mut reads = false;
        self.for_each_read(|r| reads |= r.is_lr());
        reads
    }

    /// Returns `true` if executing this instruction changes `sp`: an
    /// add/sub immediate into register 31 that sets no flags (with flags
    /// set, register 31 is the zero register), or a pair access that
    /// writes its `sp` base back.
    #[must_use]
    pub fn writes_sp(&self) -> bool {
        match *self {
            Insn::AddImm { set_flags: false, rd, .. }
            | Insn::SubImm { set_flags: false, rd, .. } => rd.is_reg31(),
            Insn::Stp { rn, mode, .. } | Insn::Ldp { rn, mode, .. } => {
                rn.is_reg31() && mode != PairMode::SignedOffset
            }
            _ => false,
        }
    }

    /// Returns `true` if this instruction may not move into an outlined
    /// function: it reads `x30`, writes `x30` or writes `sp`. An outlined
    /// body is entered by `bl`, which sets `x30`, returns through
    /// `br x30`, and has no frame of its own.
    #[must_use]
    pub fn is_outline_hazard(&self) -> bool {
        self.reads_lr() || self.writes_lr() || self.writes_sp()
    }

    /// The general-purpose destination register, if any.
    ///
    /// Register 31 destinations (zero register) are reported as written;
    /// callers interested in real dataflow should filter them.
    #[must_use]
    pub fn dest_reg(&self) -> Option<Reg> {
        match *self {
            Insn::Adr { rd, .. } | Insn::Adrp { rd, .. } => Some(rd),
            Insn::LdrLit { rt, .. } | Insn::LdrImm { rt, .. } => Some(rt),
            Insn::Movz { rd, .. } | Insn::Movn { rd, .. } | Insn::Movk { rd, .. } => Some(rd),
            Insn::AddImm { rd, .. }
            | Insn::SubImm { rd, .. }
            | Insn::AddReg { rd, .. }
            | Insn::SubReg { rd, .. }
            | Insn::AndReg { rd, .. }
            | Insn::OrrReg { rd, .. }
            | Insn::EorReg { rd, .. }
            | Insn::Sdiv { rd, .. }
            | Insn::Lslv { rd, .. }
            | Insn::Asrv { rd, .. }
            | Insn::Sbfm { rd, .. }
            | Insn::Madd { rd, .. }
            | Insn::Msub { rd, .. }
            | Insn::Ubfm { rd, .. } => Some(rd),
            _ => None,
        }
    }

    /// Calls `f` with each general-purpose register this instruction
    /// reads, in operand order. The one place read operands are listed;
    /// [`reads_lr`](Insn::reads_lr) and every dataflow client go through
    /// it. Register 31 is reported as read whether it names `sp` or the
    /// zero register; callers interested in real dataflow filter it.
    #[inline]
    pub fn for_each_read(&self, mut f: impl FnMut(Reg)) {
        match *self {
            Insn::Cbz { rt, .. }
            | Insn::Cbnz { rt, .. }
            | Insn::Tbz { rt, .. }
            | Insn::Tbnz { rt, .. } => f(rt),
            Insn::Br { rn } | Insn::Blr { rn } | Insn::Ret { rn } => f(rn),
            Insn::Movk { rd, .. } => f(rd), // read-modify-write
            Insn::AddImm { rn, .. }
            | Insn::SubImm { rn, .. }
            | Insn::Ubfm { rn, .. }
            | Insn::Sbfm { rn, .. }
            | Insn::LdrImm { rn, .. }
            | Insn::Ldp { rn, .. } => f(rn),
            Insn::AddReg { rn, rm, .. }
            | Insn::SubReg { rn, rm, .. }
            | Insn::AndReg { rn, rm, .. }
            | Insn::OrrReg { rn, rm, .. }
            | Insn::EorReg { rn, rm, .. }
            | Insn::Sdiv { rn, rm, .. }
            | Insn::Lslv { rn, rm, .. }
            | Insn::Asrv { rn, rm, .. } => {
                f(rn);
                f(rm);
            }
            Insn::Madd { rn, rm, ra, .. } | Insn::Msub { rn, rm, ra, .. } => {
                f(rn);
                f(rm);
                f(ra);
            }
            Insn::StrImm { rt, rn, .. } => {
                f(rt);
                f(rn);
            }
            Insn::Stp { rt, rt2, rn, .. } => {
                f(rt);
                f(rt2);
                f(rn);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminator_classification_matches_paper() {
        assert!(Insn::B { offset: 8 }.is_terminator());
        assert!(Insn::BCond { cond: Cond::Eq, offset: 8 }.is_terminator());
        assert!(Insn::Cbz { wide: false, rt: Reg::X0, offset: 12 }.is_terminator());
        assert!(Insn::Ret { rn: Reg::LR }.is_terminator());
        assert!(Insn::Br { rn: Reg::X16 }.is_terminator());
        // calls are not terminators
        assert!(!Insn::Bl { offset: 0x1000 }.is_terminator());
        assert!(!Insn::Blr { rn: Reg::LR }.is_terminator());
        assert!(!Insn::AddImm {
            wide: true,
            set_flags: false,
            rd: Reg::X0,
            rn: Reg::X1,
            imm12: 4,
            shift12: false
        }
        .is_terminator());
    }

    #[test]
    fn pc_relative_set_matches_paper_section_3_3_4() {
        let pc_rel: [Insn; 10] = [
            Insn::B { offset: 4 },
            Insn::Bl { offset: 4 },
            Insn::BCond { cond: Cond::Ne, offset: 4 },
            Insn::Cbz { wide: true, rt: Reg::X1, offset: 4 },
            Insn::Cbnz { wide: true, rt: Reg::X1, offset: 4 },
            Insn::Tbz { rt: Reg::X1, bit: 3, offset: 4 },
            Insn::Tbnz { rt: Reg::X1, bit: 3, offset: 4 },
            Insn::Adr { rd: Reg::X0, offset: 16 },
            Insn::Adrp { rd: Reg::X0, offset: 4096 },
            Insn::LdrLit { wide: true, rt: Reg::X0, offset: 8 },
        ];
        for insn in pc_rel {
            assert!(insn.is_pc_relative(), "{insn:?}");
        }
        assert!(!Insn::Br { rn: Reg::X16 }.is_pc_relative());
        assert!(!Insn::Nop.is_pc_relative());
    }

    #[test]
    fn target_computation() {
        let insn = Insn::Cbz { wide: false, rt: Reg::X0, offset: 0xc };
        // The paper's Table 2 example: cbz at 0x138320 targeting 0x13832c.
        assert_eq!(insn.pc_rel_target(0x138320), Some(0x13832c));
        let patched = insn.with_pc_rel_offset(0x8);
        assert_eq!(patched.pc_rel_target(0x138320), Some(0x138328));
    }

    #[test]
    fn adrp_targets_pages() {
        let insn = Insn::Adrp { rd: Reg::X0, offset: 0x2000 };
        assert_eq!(insn.pc_rel_target(0x1234), Some(0x3000));
    }

    #[test]
    #[should_panic(expected = "non-PC-relative")]
    fn patching_non_pc_relative_panics() {
        let _ = Insn::Nop.with_pc_rel_offset(8);
    }

    #[test]
    #[should_panic(expected = "4-aligned")]
    fn patching_misaligned_branch_panics() {
        let _ = Insn::B { offset: 8 }.with_pc_rel_offset(6);
    }

    #[test]
    fn lr_dataflow() {
        assert!(Insn::Bl { offset: 4 }.writes_lr());
        assert!(Insn::Blr { rn: Reg::X8 }.writes_lr());
        assert!(Insn::Ret { rn: Reg::LR }.reads_lr());
        assert!(Insn::Br { rn: Reg::LR }.reads_lr());
        assert!(Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X0, offset: 16 }.writes_lr());
        assert!(!Insn::LdrImm { wide: true, rt: Reg::X2, rn: Reg::X0, offset: 16 }.writes_lr());
        assert!(Insn::StrImm { wide: true, rt: Reg::LR, rn: Reg::SP, offset: 8 }.reads_lr());
    }

    #[test]
    fn a_load_pair_into_x30_writes_the_link_register() {
        // `ldp x29, x30, [sp, #16]`: no writeback, so no sp write, and
        // `x30` is a destination `dest_reg` cannot report.
        let ldp =
            |rt, rt2| Insn::Ldp { rt, rt2, rn: Reg::SP, offset: 16, mode: PairMode::SignedOffset };
        let reload = ldp(Reg::FP, Reg::LR);
        assert!(reload.writes_lr());
        assert!(!reload.reads_lr() && !reload.writes_sp());
        assert!(reload.is_outline_hazard());
        assert!(ldp(Reg::LR, Reg::FP).is_outline_hazard());
        let plain = ldp(Reg::X1, Reg::X2);
        assert!(!plain.writes_lr() && !plain.is_outline_hazard());
    }

    #[test]
    fn sp_classification() {
        let sub_sp = |set_flags, rd| Insn::SubImm {
            wide: true,
            set_flags,
            rd,
            rn: Reg::SP,
            imm12: 0x2000 >> 12,
            shift12: true,
        };
        assert!(sub_sp(false, Reg::SP).writes_sp());
        // With flags set, register 31 is the zero register: `cmp`.
        assert!(!sub_sp(true, Reg::ZR).writes_sp());
        // Reading sp is no write.
        assert!(!sub_sp(false, Reg::X16).writes_sp());
        let push = |mode| Insn::Stp { rt: Reg::FP, rt2: Reg::LR, rn: Reg::SP, offset: -16, mode };
        assert!(push(PairMode::PreIndex).writes_sp());
        assert!(push(PairMode::PostIndex).writes_sp());
        assert!(!push(PairMode::SignedOffset).writes_sp());
        let stack_store = Insn::StrImm { wide: true, rt: Reg::X0, rn: Reg::SP, offset: 16 };
        assert!(!stack_store.writes_sp());
    }

    /// One instance of every variant, in declaration order, its register
    /// fields filled from `r` in field order.
    fn every_variant(r: [Reg; 4], set_flags: bool, mode: PairMode) -> [Insn; 37] {
        let [a, b, c, d] = r;
        let wide = true;
        [
            Insn::B { offset: 8 },
            Insn::Bl { offset: 8 },
            Insn::BCond { cond: Cond::Ne, offset: 8 },
            Insn::Cbz { wide, rt: a, offset: 8 },
            Insn::Cbnz { wide, rt: a, offset: 8 },
            Insn::Tbz { rt: a, bit: 3, offset: 8 },
            Insn::Tbnz { rt: a, bit: 3, offset: 8 },
            Insn::Adr { rd: a, offset: 8 },
            Insn::Adrp { rd: a, offset: 4096 },
            Insn::LdrLit { wide, rt: a, offset: 8 },
            Insn::Br { rn: a },
            Insn::Blr { rn: a },
            Insn::Ret { rn: a },
            Insn::Movz { wide, rd: a, imm16: 7, hw: 0 },
            Insn::Movn { wide, rd: a, imm16: 7, hw: 0 },
            Insn::Movk { wide, rd: a, imm16: 7, hw: 1 },
            Insn::AddImm { wide, set_flags, rd: a, rn: b, imm12: 16, shift12: false },
            Insn::SubImm { wide, set_flags, rd: a, rn: b, imm12: 16, shift12: false },
            Insn::AddReg { wide, set_flags, rd: a, rn: b, rm: c, shift: 0 },
            Insn::SubReg { wide, set_flags, rd: a, rn: b, rm: c, shift: 0 },
            Insn::AndReg { wide, set_flags, rd: a, rn: b, rm: c, shift: 0 },
            Insn::OrrReg { wide, rd: a, rn: b, rm: c, shift: 0 },
            Insn::EorReg { wide, rd: a, rn: b, rm: c, shift: 0 },
            Insn::Sdiv { wide, rd: a, rn: b, rm: c },
            Insn::Lslv { wide, rd: a, rn: b, rm: c },
            Insn::Asrv { wide, rd: a, rn: b, rm: c },
            Insn::Madd { wide, rd: a, rn: b, rm: c, ra: d },
            Insn::Msub { wide, rd: a, rn: b, rm: c, ra: d },
            Insn::Ubfm { wide, rd: a, rn: b, immr: 1, imms: 63 },
            Insn::Sbfm { wide, rd: a, rn: b, immr: 1, imms: 63 },
            Insn::LdrImm { wide, rt: a, rn: b, offset: 8 },
            Insn::StrImm { wide, rt: a, rn: b, offset: 8 },
            Insn::Stp { rt: a, rt2: b, rn: c, offset: 16, mode },
            Insn::Ldp { rt: a, rt2: b, rn: c, offset: 16, mode },
            Insn::Nop,
            Insn::Brk { imm: 1 },
            Insn::Svc { imm: 1 },
        ]
    }

    #[test]
    fn the_read_walk_visits_the_recorded_registers_of_every_variant() {
        // What the removed `source_regs() -> Vec<Reg>` returned for each
        // row of `every_variant([x1, x2, x3, x4], ..)`, recorded from it
        // before it was deleted: the walk must visit exactly these, in
        // this order.
        const X1: Reg = Reg::X1;
        const X2: Reg = Reg::X2;
        const X3: Reg = Reg::X3;
        const X4: Reg = Reg::X4;
        const RECORDED: [&[Reg]; 37] = [
            &[],           // b
            &[],           // bl
            &[],           // b.cond
            &[X1],         // cbz
            &[X1],         // cbnz
            &[X1],         // tbz
            &[X1],         // tbnz
            &[],           // adr
            &[],           // adrp
            &[],           // ldr (literal)
            &[X1],         // br
            &[X1],         // blr
            &[X1],         // ret
            &[],           // movz
            &[],           // movn
            &[X1],         // movk
            &[X2],         // add (immediate)
            &[X2],         // sub (immediate)
            &[X2, X3],     // add (register)
            &[X2, X3],     // sub (register)
            &[X2, X3],     // and
            &[X2, X3],     // orr
            &[X2, X3],     // eor
            &[X2, X3],     // sdiv
            &[X2, X3],     // lslv
            &[X2, X3],     // asrv
            &[X2, X3, X4], // madd
            &[X2, X3, X4], // msub
            &[X2],         // ubfm
            &[X2],         // sbfm
            &[X2],         // ldr (immediate)
            &[X1, X2],     // str (immediate)
            &[X1, X2, X3], // stp
            &[X3],         // ldp
            &[],           // nop
            &[],           // brk
            &[],           // svc
        ];
        for mode in [PairMode::SignedOffset, PairMode::PreIndex, PairMode::PostIndex] {
            for set_flags in [false, true] {
                let insns = every_variant([X1, X2, X3, X4], set_flags, mode);
                for (insn, recorded) in insns.iter().zip(RECORDED) {
                    let mut walked = Vec::new();
                    insn.for_each_read(|r| walked.push(r));
                    assert_eq!(walked, recorded, "{insn:?}");
                }
            }
        }
    }

    #[test]
    fn indirect_jump_flagging() {
        assert!(Insn::Br { rn: Reg::X17 }.is_indirect_jump());
        assert!(!Insn::Ret { rn: Reg::LR }.is_indirect_jump());
        assert!(!Insn::Blr { rn: Reg::X17 }.is_indirect_jump());
    }
}
