//! Decoding AArch64 machine words back into [`Insn`] values.
//!
//! The decoder recognizes exactly the subset the encoder produces. Words
//! outside the subset — including data words embedded in the text segment,
//! the hazard the paper's LTBO metadata exists to avoid (§3.2) — decode to
//! [`DecodeError::Unallocated`].

use core::fmt;

use crate::cond::Cond;
use crate::insn::{Insn, PairMode};
use crate::reg::Reg;

/// An error produced when a machine word is not a recognized instruction.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DecodeError {
    /// The word does not match any encoding in the supported subset.
    Unallocated(u32),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Unallocated(w) => {
                write!(f, "word {w:#010x} is not an instruction in the supported subset")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

fn sign_extend(value: u32, bits: u32) -> i64 {
    let shift = 64 - bits;
    ((i64::from(value)) << shift) >> shift
}

fn rd(w: u32) -> Reg {
    Reg::from_bits(w)
}

fn rn(w: u32) -> Reg {
    Reg::from_bits(w >> 5)
}

fn rm(w: u32) -> Reg {
    Reg::from_bits(w >> 16)
}

fn ra(w: u32) -> Reg {
    Reg::from_bits(w >> 10)
}

fn imm19_offset(w: u32) -> i64 {
    sign_extend((w >> 5) & 0x7_ffff, 19) * 4
}

/// `true` when `w` decodes to a `bl`: the top six bits alone say so, so
/// a linker checking a call site needs no full decode.
#[must_use]
#[inline]
pub fn is_bl(w: u32) -> bool {
    w >> 26 == 0b100101
}

/// Decodes one machine word.
///
/// # Errors
///
/// Returns [`DecodeError::Unallocated`] for words outside the supported
/// subset (including embedded data that happens to sit in a text segment).
pub fn decode(w: u32) -> Result<Insn, DecodeError> {
    // Fixed-pattern system instructions first.
    if w == 0xd503_201f {
        return Ok(Insn::Nop);
    }
    if w & 0xffe0_001f == 0xd420_0000 {
        return Ok(Insn::Brk { imm: ((w >> 5) & 0xffff) as u16 });
    }
    if w & 0xffe0_001f == 0xd400_0001 {
        return Ok(Insn::Svc { imm: ((w >> 5) & 0xffff) as u16 });
    }
    if w & 0xffff_fc1f == 0xd61f_0000 {
        return Ok(Insn::Br { rn: rn(w) });
    }
    if w & 0xffff_fc1f == 0xd63f_0000 {
        return Ok(Insn::Blr { rn: rn(w) });
    }
    if w & 0xffff_fc1f == 0xd65f_0000 {
        return Ok(Insn::Ret { rn: rn(w) });
    }

    // Unconditional immediate branches.
    match w >> 26 {
        0b000101 => return Ok(Insn::B { offset: sign_extend(w & 0x3ff_ffff, 26) * 4 }),
        0b100101 => return Ok(Insn::Bl { offset: sign_extend(w & 0x3ff_ffff, 26) * 4 }),
        _ => {}
    }

    if w & 0xff00_0010 == 0x5400_0000 {
        return Ok(Insn::BCond { cond: Cond::from_bits(w), offset: imm19_offset(w) });
    }

    let wide = w >> 31 == 1;
    match (w >> 24) & 0x7f {
        0x34 => return Ok(Insn::Cbz { wide, rt: rd(w), offset: imm19_offset(w) }),
        0x35 => return Ok(Insn::Cbnz { wide, rt: rd(w), offset: imm19_offset(w) }),
        0x36 | 0x37 => {
            let bit = (((w >> 31) & 1) << 5 | ((w >> 19) & 0x1f)) as u8;
            let offset = sign_extend((w >> 5) & 0x3fff, 14) * 4;
            let rt = rd(w);
            return Ok(if (w >> 24) & 0x7f == 0x36 {
                Insn::Tbz { rt, bit, offset }
            } else {
                Insn::Tbnz { rt, bit, offset }
            });
        }
        _ => {}
    }

    // ADR / ADRP.
    if w & 0x1f00_0000 == 0x1000_0000 {
        let immlo = (w >> 29) & 3;
        let immhi = (w >> 5) & 0x7_ffff;
        let imm = sign_extend(immhi << 2 | immlo, 21);
        return Ok(if w >> 31 == 0 {
            Insn::Adr { rd: rd(w), offset: imm }
        } else {
            Insn::Adrp { rd: rd(w), offset: imm << 12 }
        });
    }

    // LDR literal.
    if w & 0xbf00_0000 == 0x1800_0000 {
        let wide = (w >> 30) & 1 == 1;
        return Ok(Insn::LdrLit { wide, rt: rd(w), offset: imm19_offset(w) });
    }

    // Move wide.
    if (w >> 23) & 0x3f == 0b100101 {
        let opc = (w >> 29) & 3;
        let hw = ((w >> 21) & 3) as u8;
        let imm16 = ((w >> 5) & 0xffff) as u16;
        if !wide && hw > 1 {
            return Err(DecodeError::Unallocated(w));
        }
        let (rd, wide) = (rd(w), wide);
        return match opc {
            0b00 => Ok(Insn::Movn { wide, rd, imm16, hw }),
            0b10 => Ok(Insn::Movz { wide, rd, imm16, hw }),
            0b11 => Ok(Insn::Movk { wide, rd, imm16, hw }),
            _ => Err(DecodeError::Unallocated(w)),
        };
    }

    // Add/sub immediate.
    if (w >> 23) & 0x3f == 0b100010 {
        let op = (w >> 30) & 1 == 1;
        let set_flags = (w >> 29) & 1 == 1;
        let shift12 = (w >> 22) & 1 == 1;
        let imm12 = ((w >> 10) & 0xfff) as u16;
        let (rd, rn) = (rd(w), rn(w));
        return Ok(if op {
            Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 }
        } else {
            Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 }
        });
    }

    // Add/sub shifted register (LSL-only subset).
    if (w >> 24) & 0x1f == 0b01011 && (w >> 21) & 1 == 0 {
        if (w >> 22) & 3 != 0 {
            return Err(DecodeError::Unallocated(w)); // only LSL shifts in subset
        }
        let op = (w >> 30) & 1 == 1;
        let set_flags = (w >> 29) & 1 == 1;
        let shift = ((w >> 10) & 0x3f) as u8;
        if !wide && shift >= 32 {
            return Err(DecodeError::Unallocated(w));
        }
        let (rd, rn, rm) = (rd(w), rn(w), rm(w));
        return Ok(if op {
            Insn::SubReg { wide, set_flags, rd, rn, rm, shift }
        } else {
            Insn::AddReg { wide, set_flags, rd, rn, rm, shift }
        });
    }

    // Logical shifted register (LSL-only, non-inverted subset).
    if (w >> 24) & 0x1f == 0b01010 && (w >> 21) & 1 == 0 {
        if (w >> 22) & 3 != 0 {
            return Err(DecodeError::Unallocated(w));
        }
        let opc = (w >> 29) & 3;
        let shift = ((w >> 10) & 0x3f) as u8;
        if !wide && shift >= 32 {
            return Err(DecodeError::Unallocated(w));
        }
        let (rd, rn, rm) = (rd(w), rn(w), rm(w));
        return match opc {
            0b00 => Ok(Insn::AndReg { wide, set_flags: false, rd, rn, rm, shift }),
            0b01 => Ok(Insn::OrrReg { wide, rd, rn, rm, shift }),
            0b10 => Ok(Insn::EorReg { wide, rd, rn, rm, shift }),
            0b11 => Ok(Insn::AndReg { wide, set_flags: true, rd, rn, rm, shift }),
            _ => unreachable!(),
        };
    }

    // Signed divide and variable shifts (data-processing 2-source).
    if w & 0x7fe0_fc00 == 0x1ac0_0c00 {
        return Ok(Insn::Sdiv { wide, rd: rd(w), rn: rn(w), rm: rm(w) });
    }
    if w & 0x7fe0_fc00 == 0x1ac0_2000 {
        return Ok(Insn::Lslv { wide, rd: rd(w), rn: rn(w), rm: rm(w) });
    }
    if w & 0x7fe0_fc00 == 0x1ac0_2800 {
        return Ok(Insn::Asrv { wide, rd: rd(w), rn: rn(w), rm: rm(w) });
    }

    // Multiply-add / multiply-subtract.
    if (w >> 21) & 0x3ff == 0b00_1101_1000 {
        let o0 = (w >> 15) & 1 == 1;
        let (rd, rn, rm, ra) = (rd(w), rn(w), rm(w), Reg::from_bits(w >> 10));
        return Ok(if o0 {
            Insn::Msub { wide, rd, rn, rm, ra }
        } else {
            Insn::Madd { wide, rd, rn, rm, ra }
        });
    }

    // SBFM (opc == 00).
    if (w >> 23) & 0x3f == 0b100110 && (w >> 29) & 3 == 0b00 {
        let n = (w >> 22) & 1 == 1;
        if n != wide {
            return Err(DecodeError::Unallocated(w));
        }
        let immr = ((w >> 16) & 0x3f) as u8;
        let imms = ((w >> 10) & 0x3f) as u8;
        if !wide && (immr >= 32 || imms >= 32) {
            return Err(DecodeError::Unallocated(w));
        }
        return Ok(Insn::Sbfm { wide, rd: rd(w), rn: rn(w), immr, imms });
    }

    // UBFM.
    if (w >> 23) & 0x3f == 0b100110 && (w >> 29) & 3 == 0b10 {
        let n = (w >> 22) & 1 == 1;
        if n != wide {
            return Err(DecodeError::Unallocated(w));
        }
        let immr = ((w >> 16) & 0x3f) as u8;
        let imms = ((w >> 10) & 0x3f) as u8;
        if !wide && (immr >= 32 || imms >= 32) {
            return Err(DecodeError::Unallocated(w));
        }
        return Ok(Insn::Ubfm { wide, rd: rd(w), rn: rn(w), immr, imms });
    }

    // Load/store register, unsigned immediate.
    if (w >> 24) & 0x3f == 0b11_1001 {
        let size = w >> 30;
        let opc = (w >> 22) & 3;
        let wide = match size {
            0b10 => false,
            0b11 => true,
            _ => return Err(DecodeError::Unallocated(w)),
        };
        let scale: u32 = if wide { 8 } else { 4 };
        let offset = (((w >> 10) & 0xfff) * scale) as u16;
        let (rt, rn) = (rd(w), rn(w));
        return match opc {
            0b00 => Ok(Insn::StrImm { wide, rt, rn, offset }),
            0b01 => Ok(Insn::LdrImm { wide, rt, rn, offset }),
            _ => Err(DecodeError::Unallocated(w)),
        };
    }

    // Load/store pair, 64-bit.
    if (w >> 27) & 0x7 == 0b101 && (w >> 26) & 1 == 0 && w >> 30 == 0b10 {
        let mode = match (w >> 23) & 7 {
            1 => PairMode::PostIndex,
            2 => PairMode::SignedOffset,
            3 => PairMode::PreIndex,
            _ => return Err(DecodeError::Unallocated(w)),
        };
        let load = (w >> 22) & 1 == 1;
        let offset = (sign_extend((w >> 15) & 0x7f, 7) * 8) as i16;
        let (rt, rn, rt2) = (rd(w), rn(w), Reg::from_bits(w >> 10));
        return Ok(if load {
            Insn::Ldp { rt, rt2, rn, offset, mode }
        } else {
            Insn::Stp { rt, rt2, rn, offset, mode }
        });
    }

    let _ = (rm(w), ra(w));
    Err(DecodeError::Unallocated(w))
}

/// Decodes machine words into instructions, one per word — the inverse
/// of [`encode_words`](crate::encode_words).
///
/// # Errors
///
/// Returns the first [`DecodeError`] together with its word index.
pub fn decode_all(words: &[u32]) -> Result<Vec<Insn>, (usize, DecodeError)> {
    let mut insns = Vec::with_capacity(words.len());
    for (i, &word) in words.iter().enumerate() {
        insns.push(decode(word).map_err(|e| (i, e))?);
    }
    Ok(insns)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decodes_known_words() {
        assert_eq!(decode(0xd503_201f).unwrap(), Insn::Nop);
        assert_eq!(decode(0xd65f_03c0).unwrap(), Insn::Ret { rn: Reg::LR });
        assert_eq!(decode(0x1400_0001).unwrap(), Insn::B { offset: 4 });
        assert_eq!(decode(0x17ff_ffff).unwrap(), Insn::B { offset: -4 });
        assert_eq!(
            decode(0xf940_0c1e).unwrap(),
            Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X0, offset: 24 }
        );
    }

    #[test]
    fn rejects_unallocated() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
        // A plausible "embedded data" word: ASCII "abcd".
        assert!(matches!(decode(0x6463_6261), Err(DecodeError::Unallocated(_))));
    }

    #[test]
    fn decode_all_reports_position() {
        assert_eq!(decode_all(&[0xd503_201f]), Ok(vec![Insn::Nop]));
        let err = decode_all(&[0xd503_201f, 0]).unwrap_err();
        assert_eq!(err.0, 1);
    }
}
