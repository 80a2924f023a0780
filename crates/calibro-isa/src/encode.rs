//! Binary encoding of the instruction subset into real AArch64 machine
//! words.
//!
//! Every encoder produces the exact bit pattern an assembler would, so the
//! serialized `.text` segment measured by the experiments is genuine
//! AArch64 machine code, byte for byte.

use core::fmt;

use crate::insn::{Insn, PairMode};

/// An error produced when an instruction's operands do not fit its
/// encoding (offset out of range, misaligned target, bad immediate).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EncodeError {
    insn: Insn,
    reason: &'static str,
}

impl EncodeError {
    fn new(insn: &Insn, reason: &'static str) -> EncodeError {
        EncodeError { insn: *insn, reason }
    }

    /// The instruction that failed to encode.
    #[must_use]
    pub fn insn(&self) -> &Insn {
        &self.insn
    }
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot encode {:?}: {}", self.insn, self.reason)
    }
}

impl std::error::Error for EncodeError {}

fn sf(wide: bool) -> u32 {
    u32::from(wide) << 31
}

/// Checks that `offset` is 4-aligned and fits in a signed `bits`-wide
/// word-scaled immediate; returns the masked scaled field.
fn branch_imm(insn: &Insn, offset: i64, bits: u32) -> Result<u32, EncodeError> {
    if offset % 4 != 0 {
        return Err(EncodeError::new(insn, "branch offset not 4-aligned"));
    }
    let scaled = offset / 4;
    let limit = 1i64 << (bits - 1);
    if scaled < -limit || scaled >= limit {
        return Err(EncodeError::new(insn, "branch offset out of range"));
    }
    Ok((scaled as u32) & ((1u32 << bits) - 1))
}

/// `Insn::Bl { offset }.encode()`, for a linker binding many calls.
///
/// # Errors
///
/// The same [`EncodeError`] that encoding the instruction returns: a
/// misaligned or out-of-range offset.
#[inline]
pub fn encode_bl(offset: i64) -> Result<u32, EncodeError> {
    Ok(0x9400_0000 | branch_imm(&Insn::Bl { offset }, offset, 26)?)
}

impl Insn {
    /// Encodes the instruction into its 32-bit machine word.
    ///
    /// # Errors
    ///
    /// Returns [`EncodeError`] when an operand does not fit the encoding:
    /// out-of-range or misaligned PC-relative offsets, immediates wider
    /// than their fields, or shift amounts that exceed the register width.
    pub fn encode(&self) -> Result<u32, EncodeError> {
        let word = match *self {
            Insn::B { offset } => 0x1400_0000 | branch_imm(self, offset, 26)?,
            Insn::Bl { offset } => 0x9400_0000 | branch_imm(self, offset, 26)?,
            Insn::BCond { cond, offset } => {
                0x5400_0000 | (branch_imm(self, offset, 19)? << 5) | cond.bits()
            }
            Insn::Cbz { wide, rt, offset } => {
                sf(wide) | 0x3400_0000 | (branch_imm(self, offset, 19)? << 5) | rt.bits()
            }
            Insn::Cbnz { wide, rt, offset } => {
                sf(wide) | 0x3500_0000 | (branch_imm(self, offset, 19)? << 5) | rt.bits()
            }
            Insn::Tbz { rt, bit, offset } => {
                if bit > 63 {
                    return Err(EncodeError::new(self, "tested bit exceeds 63"));
                }
                let b5 = u32::from(bit >> 5) << 31;
                let b40 = u32::from(bit & 0x1f) << 19;
                b5 | 0x3600_0000 | b40 | (branch_imm(self, offset, 14)? << 5) | rt.bits()
            }
            Insn::Tbnz { rt, bit, offset } => {
                if bit > 63 {
                    return Err(EncodeError::new(self, "tested bit exceeds 63"));
                }
                let b5 = u32::from(bit >> 5) << 31;
                let b40 = u32::from(bit & 0x1f) << 19;
                b5 | 0x3700_0000 | b40 | (branch_imm(self, offset, 14)? << 5) | rt.bits()
            }
            Insn::Adr { rd, offset } => {
                if !(-(1 << 20)..1 << 20).contains(&offset) {
                    return Err(EncodeError::new(self, "adr offset out of +/-1MiB range"));
                }
                let imm = (offset as u32) & 0x1f_ffff;
                ((imm & 3) << 29) | 0x1000_0000 | ((imm >> 2) << 5) | rd.bits()
            }
            Insn::Adrp { rd, offset } => {
                if offset % 4096 != 0 {
                    return Err(EncodeError::new(self, "adrp offset not page-aligned"));
                }
                let pages = offset >> 12;
                if !(-(1i64 << 20)..1i64 << 20).contains(&pages) {
                    return Err(EncodeError::new(self, "adrp offset out of +/-4GiB range"));
                }
                let imm = (pages as u32) & 0x1f_ffff;
                ((imm & 3) << 29) | 0x9000_0000 | ((imm >> 2) << 5) | rd.bits()
            }
            Insn::LdrLit { wide, rt, offset } => {
                let base = if wide { 0x5800_0000 } else { 0x1800_0000 };
                base | (branch_imm(self, offset, 19)? << 5) | rt.bits()
            }

            Insn::Br { rn } => 0xd61f_0000 | (rn.bits() << 5),
            Insn::Blr { rn } => 0xd63f_0000 | (rn.bits() << 5),
            Insn::Ret { rn } => 0xd65f_0000 | (rn.bits() << 5),

            Insn::Movn { wide, rd, imm16, hw }
            | Insn::Movz { wide, rd, imm16, hw }
            | Insn::Movk { wide, rd, imm16, hw } => {
                let max_hw = if wide { 3 } else { 1 };
                if hw > max_hw {
                    return Err(EncodeError::new(self, "hw shift exceeds register width"));
                }
                let opc = match self {
                    Insn::Movn { .. } => 0x1280_0000,
                    Insn::Movz { .. } => 0x5280_0000,
                    _ => 0x7280_0000,
                };
                sf(wide) | opc | (u32::from(hw) << 21) | (u32::from(imm16) << 5) | rd.bits()
            }

            Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 }
            | Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 } => {
                if imm12 >= 1 << 12 {
                    return Err(EncodeError::new(self, "immediate exceeds 12 bits"));
                }
                let op = u32::from(matches!(self, Insn::SubImm { .. })) << 30;
                let s = u32::from(set_flags) << 29;
                sf(wide)
                    | op
                    | s
                    | 0x1100_0000
                    | (u32::from(shift12) << 22)
                    | (u32::from(imm12) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::AddReg { wide, set_flags, rd, rn, rm, shift }
            | Insn::SubReg { wide, set_flags, rd, rn, rm, shift } => {
                check_shift(self, wide, shift)?;
                let op = u32::from(matches!(self, Insn::SubReg { .. })) << 30;
                let s = u32::from(set_flags) << 29;
                sf(wide)
                    | op
                    | s
                    | 0x0b00_0000
                    | (rm.bits() << 16)
                    | (u32::from(shift) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::AndReg { wide, set_flags, rd, rn, rm, shift } => {
                check_shift(self, wide, shift)?;
                let opc = if set_flags { 0x6a00_0000 } else { 0x0a00_0000 };
                sf(wide)
                    | opc
                    | (rm.bits() << 16)
                    | (u32::from(shift) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }
            Insn::OrrReg { wide, rd, rn, rm, shift } => {
                check_shift(self, wide, shift)?;
                sf(wide)
                    | 0x2a00_0000
                    | (rm.bits() << 16)
                    | (u32::from(shift) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }
            Insn::EorReg { wide, rd, rn, rm, shift } => {
                check_shift(self, wide, shift)?;
                sf(wide)
                    | 0x4a00_0000
                    | (rm.bits() << 16)
                    | (u32::from(shift) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::Sdiv { wide, rd, rn, rm } => {
                sf(wide) | 0x1ac0_0c00 | (rm.bits() << 16) | (rn.bits() << 5) | rd.bits()
            }
            Insn::Lslv { wide, rd, rn, rm } => {
                sf(wide) | 0x1ac0_2000 | (rm.bits() << 16) | (rn.bits() << 5) | rd.bits()
            }
            Insn::Asrv { wide, rd, rn, rm } => {
                sf(wide) | 0x1ac0_2800 | (rm.bits() << 16) | (rn.bits() << 5) | rd.bits()
            }

            Insn::Madd { wide, rd, rn, rm, ra } => {
                sf(wide)
                    | 0x1b00_0000
                    | (rm.bits() << 16)
                    | (ra.bits() << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }
            Insn::Msub { wide, rd, rn, rm, ra } => {
                sf(wide)
                    | 0x1b00_8000
                    | (rm.bits() << 16)
                    | (ra.bits() << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::Sbfm { wide, rd, rn, immr, imms } => {
                let width: u8 = if wide { 64 } else { 32 };
                if immr >= width || imms >= width {
                    return Err(EncodeError::new(self, "bitfield position exceeds width"));
                }
                let n = u32::from(wide) << 22;
                sf(wide)
                    | 0x1300_0000
                    | n
                    | (u32::from(immr) << 16)
                    | (u32::from(imms) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::Ubfm { wide, rd, rn, immr, imms } => {
                let width: u8 = if wide { 64 } else { 32 };
                if immr >= width || imms >= width {
                    return Err(EncodeError::new(self, "bitfield position exceeds width"));
                }
                let n = u32::from(wide) << 22;
                sf(wide)
                    | 0x5300_0000
                    | n
                    | (u32::from(immr) << 16)
                    | (u32::from(imms) << 10)
                    | (rn.bits() << 5)
                    | rd.bits()
            }

            Insn::LdrImm { wide, rt, rn, offset } | Insn::StrImm { wide, rt, rn, offset } => {
                let scale: u16 = if wide { 8 } else { 4 };
                if offset % scale != 0 {
                    return Err(EncodeError::new(self, "load/store offset misaligned"));
                }
                let imm12 = offset / scale;
                if imm12 >= 1 << 12 {
                    return Err(EncodeError::new(self, "load/store offset exceeds imm12"));
                }
                let size = if wide { 0xc000_0000 } else { 0x8000_0000 };
                let opc = u32::from(matches!(self, Insn::LdrImm { .. })) << 22;
                size | 0x3900_0000 | opc | (u32::from(imm12) << 10) | (rn.bits() << 5) | rt.bits()
            }

            Insn::Stp { rt, rt2, rn, offset, mode } | Insn::Ldp { rt, rt2, rn, offset, mode } => {
                if offset % 8 != 0 {
                    return Err(EncodeError::new(self, "pair offset misaligned"));
                }
                let imm7 = offset / 8;
                if !(-64..64).contains(&imm7) {
                    return Err(EncodeError::new(self, "pair offset exceeds imm7"));
                }
                let mode_bits = match mode {
                    PairMode::PostIndex => 1u32,
                    PairMode::SignedOffset => 2,
                    PairMode::PreIndex => 3,
                } << 23;
                let l = u32::from(matches!(self, Insn::Ldp { .. })) << 22;
                0xa800_0000
                    | mode_bits
                    | l
                    | (((imm7 as u32) & 0x7f) << 15)
                    | (rt2.bits() << 10)
                    | (rn.bits() << 5)
                    | rt.bits()
            }

            Insn::Nop => 0xd503_201f,
            Insn::Brk { imm } => 0xd420_0000 | (u32::from(imm) << 5),
            Insn::Svc { imm } => 0xd400_0001 | (u32::from(imm) << 5),
        };
        Ok(word)
    }
}

fn check_shift(insn: &Insn, wide: bool, shift: u8) -> Result<(), EncodeError> {
    let width: u8 = if wide { 64 } else { 32 };
    if shift >= width {
        return Err(EncodeError::new(insn, "register shift exceeds width"));
    }
    Ok(())
}

/// Encodes a slice of instructions into their machine words, one per
/// instruction.
///
/// # Errors
///
/// Propagates the first [`EncodeError`].
pub fn encode_words(insns: &[Insn]) -> Result<Vec<u32>, EncodeError> {
    // Not `collect()`: through `Result` it cannot size the vector.
    let mut words = Vec::with_capacity(insns.len());
    for insn in insns {
        words.push(insn.encode()?);
    }
    Ok(words)
}

/// Convenience: encodes a slice of instructions into a little-endian byte
/// buffer.
///
/// # Errors
///
/// Propagates the first [`EncodeError`].
pub fn encode_all(insns: &[Insn]) -> Result<Vec<u8>, EncodeError> {
    let mut bytes = Vec::with_capacity(insns.len() * 4);
    for insn in insns {
        bytes.extend_from_slice(&insn.encode()?.to_le_bytes());
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Cond;
    use crate::reg::Reg;

    // Golden encodings cross-checked against GNU as output.
    #[test]
    fn golden_branches() {
        assert_eq!(Insn::B { offset: 0 }.encode().unwrap(), 0x1400_0000);
        assert_eq!(Insn::B { offset: 4 }.encode().unwrap(), 0x1400_0001);
        assert_eq!(Insn::B { offset: -4 }.encode().unwrap(), 0x17ff_ffff);
        assert_eq!(Insn::Bl { offset: 8 }.encode().unwrap(), 0x9400_0002);
        assert_eq!(Insn::BCond { cond: Cond::Eq, offset: 8 }.encode().unwrap(), 0x5400_0040);
        assert_eq!(
            Insn::Cbz { wide: false, rt: Reg::X0, offset: 0xc }.encode().unwrap(),
            0x3400_0060
        );
        assert_eq!(
            Insn::Cbnz { wide: true, rt: Reg::X3, offset: -8 }.encode().unwrap(),
            0xb5ff_ffc3
        );
        assert_eq!(Insn::Tbz { rt: Reg::X1, bit: 33, offset: 16 }.encode().unwrap(), 0xb608_0081);
    }

    #[test]
    fn golden_indirect() {
        assert_eq!(Insn::Br { rn: Reg::X30 }.encode().unwrap(), 0xd61f_03c0);
        assert_eq!(Insn::Blr { rn: Reg::X30 }.encode().unwrap(), 0xd63f_03c0);
        assert_eq!(Insn::Ret { rn: Reg::X30 }.encode().unwrap(), 0xd65f_03c0);
    }

    #[test]
    fn golden_stack_overflow_check_pattern() {
        // The paper's Figure 4c: sub x16, sp, #0x2000 ; ldr wzr, [x16]
        let sub = Insn::SubImm {
            wide: true,
            set_flags: false,
            rd: Reg::X16,
            rn: Reg::SP,
            imm12: 2, // 2 << 12 = 0x2000
            shift12: true,
        };
        assert_eq!(sub.encode().unwrap(), 0xd140_0bf0);
        let ldr = Insn::LdrImm { wide: false, rt: Reg::ZR, rn: Reg::X16, offset: 0 };
        assert_eq!(ldr.encode().unwrap(), 0xb940_021f);
    }

    #[test]
    fn golden_java_call_pattern() {
        // The paper's Figure 4a: ldr x30, [x0, #offset] ; blr x30
        let ldr = Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X0, offset: 24 };
        assert_eq!(ldr.encode().unwrap(), 0xf940_0c1e);
        assert_eq!(Insn::Blr { rn: Reg::LR }.encode().unwrap(), 0xd63f_03c0);
    }

    #[test]
    fn golden_moves_and_arith() {
        assert_eq!(
            Insn::Movz { wide: true, rd: Reg::X0, imm16: 42, hw: 0 }.encode().unwrap(),
            0xd280_0540
        );
        assert_eq!(
            Insn::AddImm {
                wide: true,
                set_flags: false,
                rd: Reg::X0,
                rn: Reg::X1,
                imm12: 1,
                shift12: false
            }
            .encode()
            .unwrap(),
            0x9100_0420
        );
        // cmp w2, w1 == subs wzr, w2, w1
        assert_eq!(
            Insn::SubReg {
                wide: false,
                set_flags: true,
                rd: Reg::ZR,
                rn: Reg::X2,
                rm: Reg::X1,
                shift: 0
            }
            .encode()
            .unwrap(),
            0x6b01_005f
        );
        // mov x3, x4 == orr x3, xzr, x4
        assert_eq!(
            Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 }
                .encode()
                .unwrap(),
            0xaa04_03e3
        );
    }

    #[test]
    fn golden_pairs() {
        // stp x29, x30, [sp, #-16]!
        let stp = Insn::Stp {
            rt: Reg::FP,
            rt2: Reg::LR,
            rn: Reg::SP,
            offset: -16,
            mode: PairMode::PreIndex,
        };
        assert_eq!(stp.encode().unwrap(), 0xa9bf_7bfd);
        // ldp x29, x30, [sp], #16
        let ldp = Insn::Ldp {
            rt: Reg::FP,
            rt2: Reg::LR,
            rn: Reg::SP,
            offset: 16,
            mode: PairMode::PostIndex,
        };
        assert_eq!(ldp.encode().unwrap(), 0xa8c1_7bfd);
    }

    #[test]
    fn golden_misc() {
        assert_eq!(Insn::Nop.encode().unwrap(), 0xd503_201f);
        assert_eq!(Insn::Brk { imm: 1 }.encode().unwrap(), 0xd420_0020);
        assert_eq!(Insn::Svc { imm: 0 }.encode().unwrap(), 0xd400_0001);
        assert_eq!(Insn::Adr { rd: Reg::X0, offset: 12 }.encode().unwrap(), 0x1000_0060);
        assert_eq!(Insn::Adrp { rd: Reg::X1, offset: 4096 }.encode().unwrap(), 0xb000_0001);
        assert_eq!(
            Insn::LdrLit { wide: true, rt: Reg::X2, offset: 8 }.encode().unwrap(),
            0x5800_0042
        );
    }

    #[test]
    fn range_errors() {
        assert!(Insn::B { offset: 3 }.encode().is_err());
        assert!(Insn::B { offset: 1 << 30 }.encode().is_err());
        assert!(Insn::BCond { cond: Cond::Ne, offset: 1 << 25 }.encode().is_err());
        assert!(Insn::Tbz { rt: Reg::X0, bit: 64, offset: 4 }.encode().is_err());
        assert!(Insn::Adr { rd: Reg::X0, offset: 1 << 22 }.encode().is_err());
        assert!(Insn::Adrp { rd: Reg::X0, offset: 4095 }.encode().is_err());
        assert!(
            Insn::Movz { wide: false, rd: Reg::X0, imm16: 0, hw: 2 }.encode().is_err(),
            "hw=2 invalid for 32-bit move wide"
        );
        assert!(
            Insn::LdrImm { wide: true, rt: Reg::X0, rn: Reg::X1, offset: 7 }.encode().is_err(),
            "misaligned"
        );
        assert!(
            Insn::Stp {
                rt: Reg::X0,
                rt2: Reg::X1,
                rn: Reg::SP,
                offset: 512,
                mode: PairMode::SignedOffset
            }
            .encode()
            .is_err(),
            "imm7 range"
        );
    }

    #[test]
    fn the_bl_shortcuts_agree_with_the_full_codec() {
        for offset in [0, 8, -4, 6, 1 << 27, (1 << 27) - 4, -(1 << 27), -(1 << 27) - 4] {
            assert_eq!(encode_bl(offset), Insn::Bl { offset }.encode(), "offset {offset}");
        }
        let words = (0..=u32::MAX).step_by(0x0013_3337).chain([0x9400_0000, 0x97ff_ffff]);
        for word in words {
            let bl = matches!(crate::decode(word), Ok(Insn::Bl { .. }));
            assert_eq!(crate::is_bl(word), bl, "{word:#010x}");
        }
    }

    #[test]
    fn encode_all_concatenates() {
        let bytes = encode_all(&[Insn::Nop, Insn::Ret { rn: Reg::LR }]).unwrap();
        assert_eq!(bytes.len(), 8);
        assert_eq!(&bytes[0..4], &0xd503_201fu32.to_le_bytes());
        assert_eq!(&bytes[4..8], &0xd65f_03c0u32.to_le_bytes());
    }
}
