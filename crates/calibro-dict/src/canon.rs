//! Canonicalization of outlined-function bodies.
//!
//! Two tenants rarely hand the dictionary byte-identical bodies: the
//! register allocator numbers temporaries in whatever order the
//! method's dataflow dictated, so the "same" outlined computation
//! arrives as `add x2, x2, x5` from one app and `add x1, x1, x3` from
//! another. The dictionary key must identify these — that is the whole
//! cross-tenant bet — without ever identifying two bodies that compute
//! different things.
//!
//! The canonical form renames every *renameable* register to the order
//! of its first appearance in the operand stream. Registers with a
//! pinned architectural or runtime meaning are never renamed — `x16`/
//! `x17` (IPC scratch), `x19` (the ART thread register), `x29` (frame
//! pointer), `x30` (link register) and encoding 31 (`zr`/`sp`) — so a
//! body reading the thread register can only match another body reading
//! the thread register. Everything else about the instruction (opcode,
//! width, immediates, shift amounts, branch shape, pair mode) passes
//! through untouched: any semantic difference survives into the
//! canonical encoding and therefore into the key.
//!
//! Separator normalization happens one layer up: dictionary bodies are
//! *code words*, so the synthetic separator symbols of the suffix-tree
//! stream (normalized by
//! [`sequence_content_key`](calibro_cache::sequence_content_key)) never
//! reach this module.
//!
//! The key is the 128-bit [`StableHasher`] digest of the canonical
//! sequence's machine encoding under a fixed salt, computed from the
//! body's words with one decode per word. A pure function of
//! the body's content, it is trivially invariant under build-thread
//! count and candidate discovery order. The key also *places*: a sealed
//! epoch lays its island out in key order, so unlike the cache's
//! addressing keys it does not follow
//! [`SCHEMA_VERSION`](calibro_cache::SCHEMA_VERSION) — a schema bump
//! must not reorder served images (DESIGN.md §7), and a dictionary body
//! is its own key's preimage, so no schema change can make one stale.

use calibro_cache::{CacheKey, StableHasher};
use calibro_isa::{Insn, Reg};

/// Hash-domain tag for dictionary keys, distinct from every other
/// key-construction tag in the pipeline.
const DICT_KEY_TAG: u8 = 0x45;

/// The key's salt: the schema string in force when the first epoch
/// layouts were recorded, frozen so island order never moves with it.
const DICT_KEY_SALT: &str = "0.1.0+s5";

/// Registers that are never renamed: `x16`/`x17` (intra-procedure-call
/// scratch), `x19` (ART thread register), `x29` (frame pointer), `x30`
/// (link register) and encoding 31 (`zr`/`sp`).
const FIXED: [bool; 32] = {
    let mut fixed = [false; 32];
    fixed[16] = true;
    fixed[17] = true;
    fixed[19] = true;
    fixed[29] = true;
    fixed[30] = true;
    fixed[31] = true;
    fixed
};

/// The renameable encodings in canonical assignment order: the n-th
/// distinct renameable register a body mentions becomes `POOL[n]`.
const POOL: [u8; 26] =
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 18, 20, 21, 22, 23, 24, 25, 26, 27, 28];

/// First-appearance register renamer for one body.
#[derive(Default)]
struct Mapper {
    /// concrete encoding -> canonical encoding, once assigned.
    map: [Option<u8>; 32],
    /// Renameable registers assigned so far.
    assigned: usize,
}

impl Mapper {
    fn map(&mut self, r: Reg) -> Reg {
        let idx = r.index() as usize;
        if FIXED[idx] {
            return r;
        }
        if let Some(canonical) = self.map[idx] {
            return Reg::new(canonical);
        }
        let canonical = POOL[self.assigned];
        self.map[idx] = Some(canonical);
        self.assigned += 1;
        Reg::new(canonical)
    }
}

/// Rewrites one instruction into canonical register space. The match is
/// exhaustive on purpose: a new [`Insn`] variant must decide its
/// renaming here before it can flow into the dictionary.
fn remap(insn: Insn, m: &mut Mapper) -> Insn {
    match insn {
        Insn::B { offset } => Insn::B { offset },
        Insn::Bl { offset } => Insn::Bl { offset },
        Insn::BCond { cond, offset } => Insn::BCond { cond, offset },
        Insn::Cbz { wide, rt, offset } => Insn::Cbz { wide, rt: m.map(rt), offset },
        Insn::Cbnz { wide, rt, offset } => Insn::Cbnz { wide, rt: m.map(rt), offset },
        Insn::Tbz { rt, bit, offset } => Insn::Tbz { rt: m.map(rt), bit, offset },
        Insn::Tbnz { rt, bit, offset } => Insn::Tbnz { rt: m.map(rt), bit, offset },
        Insn::Adr { rd, offset } => Insn::Adr { rd: m.map(rd), offset },
        Insn::Adrp { rd, offset } => Insn::Adrp { rd: m.map(rd), offset },
        Insn::LdrLit { wide, rt, offset } => Insn::LdrLit { wide, rt: m.map(rt), offset },
        Insn::Br { rn } => Insn::Br { rn: m.map(rn) },
        Insn::Blr { rn } => Insn::Blr { rn: m.map(rn) },
        Insn::Ret { rn } => Insn::Ret { rn: m.map(rn) },
        Insn::Movz { wide, rd, imm16, hw } => Insn::Movz { wide, rd: m.map(rd), imm16, hw },
        Insn::Movn { wide, rd, imm16, hw } => Insn::Movn { wide, rd: m.map(rd), imm16, hw },
        Insn::Movk { wide, rd, imm16, hw } => Insn::Movk { wide, rd: m.map(rd), imm16, hw },
        Insn::AddImm { wide, set_flags, rd, rn, imm12, shift12 } => {
            Insn::AddImm { wide, set_flags, rd: m.map(rd), rn: m.map(rn), imm12, shift12 }
        }
        Insn::SubImm { wide, set_flags, rd, rn, imm12, shift12 } => {
            Insn::SubImm { wide, set_flags, rd: m.map(rd), rn: m.map(rn), imm12, shift12 }
        }
        Insn::AddReg { wide, set_flags, rd, rn, rm, shift } => {
            Insn::AddReg { wide, set_flags, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), shift }
        }
        Insn::SubReg { wide, set_flags, rd, rn, rm, shift } => {
            Insn::SubReg { wide, set_flags, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), shift }
        }
        Insn::AndReg { wide, set_flags, rd, rn, rm, shift } => {
            Insn::AndReg { wide, set_flags, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), shift }
        }
        Insn::OrrReg { wide, rd, rn, rm, shift } => {
            Insn::OrrReg { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), shift }
        }
        Insn::EorReg { wide, rd, rn, rm, shift } => {
            Insn::EorReg { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), shift }
        }
        Insn::Sdiv { wide, rd, rn, rm } => {
            Insn::Sdiv { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm) }
        }
        Insn::Lslv { wide, rd, rn, rm } => {
            Insn::Lslv { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm) }
        }
        Insn::Asrv { wide, rd, rn, rm } => {
            Insn::Asrv { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm) }
        }
        Insn::Madd { wide, rd, rn, rm, ra } => {
            Insn::Madd { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), ra: m.map(ra) }
        }
        Insn::Msub { wide, rd, rn, rm, ra } => {
            Insn::Msub { wide, rd: m.map(rd), rn: m.map(rn), rm: m.map(rm), ra: m.map(ra) }
        }
        Insn::Ubfm { wide, rd, rn, immr, imms } => {
            Insn::Ubfm { wide, rd: m.map(rd), rn: m.map(rn), immr, imms }
        }
        Insn::Sbfm { wide, rd, rn, immr, imms } => {
            Insn::Sbfm { wide, rd: m.map(rd), rn: m.map(rn), immr, imms }
        }
        Insn::LdrImm { wide, rt, rn, offset } => {
            Insn::LdrImm { wide, rt: m.map(rt), rn: m.map(rn), offset }
        }
        Insn::StrImm { wide, rt, rn, offset } => {
            Insn::StrImm { wide, rt: m.map(rt), rn: m.map(rn), offset }
        }
        Insn::Stp { rt, rt2, rn, offset, mode } => {
            Insn::Stp { rt: m.map(rt), rt2: m.map(rt2), rn: m.map(rn), offset, mode }
        }
        Insn::Ldp { rt, rt2, rn, offset, mode } => {
            Insn::Ldp { rt: m.map(rt), rt2: m.map(rt2), rn: m.map(rn), offset, mode }
        }
        Insn::Nop => Insn::Nop,
        Insn::Brk { imm } => Insn::Brk { imm },
        Insn::Svc { imm } => Insn::Svc { imm },
    }
}

/// Rewrites `insns` into canonical register space: the n-th distinct
/// renameable register the body mentions becomes `POOL[n]`.
#[must_use]
pub fn canonicalize(insns: &[Insn]) -> Vec<Insn> {
    let mut mapper = Mapper::default();
    insns.iter().map(|&i| remap(i, &mut mapper)).collect()
}

/// The 128-bit dictionary key of the body `words`: the [`StableHasher`]
/// digest of its [`canonicalize`]d sequence's machine encoding.
/// Register-renamed but structurally identical bodies share a key; any
/// semantic difference changes the encoding and so the key.
///
/// The machine encoding is an isomorphic image of the subset the
/// pipeline emits, so hashing words cannot merge semantic differences.
/// Every body the pipeline routes is instruction words; a word that does
/// not decode, or whose instruction does not encode, stands for itself
/// (it cannot equal a canonical word, which always decodes and encodes).
#[must_use]
pub fn canonical_key(words: &[u32]) -> CacheKey {
    let mut mapper = Mapper::default();
    let mut h = StableHasher::with_capacity(words.len() * 8 + 64);
    h.write_tag(DICT_KEY_TAG);
    h.write_str(DICT_KEY_SALT);
    h.write_usize(words.len());
    for &word in words {
        let insn = calibro_isa::decode(word).ok();
        let canonical = insn.and_then(|insn| remap(insn, &mut mapper).encode().ok());
        h.write_u32(canonical.unwrap_or(word));
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_isa::Cond;

    /// [`canonical_key`] of a body given as instructions.
    fn key(insns: &[Insn]) -> CacheKey {
        canonical_key(&calibro_isa::encode_words(insns).expect("test bodies encode"))
    }

    fn add(rd: u8, rn: u8, rm: u8) -> Insn {
        Insn::AddReg {
            wide: true,
            set_flags: false,
            rd: Reg::new(rd),
            rn: Reg::new(rn),
            rm: Reg::new(rm),
            shift: 0,
        }
    }

    #[test]
    fn renamed_bodies_share_a_key() {
        let a = [add(2, 2, 5), Insn::Movz { wide: false, rd: Reg::new(5), imm16: 7, hw: 0 }];
        let b = [add(1, 1, 3), Insn::Movz { wide: false, rd: Reg::new(3), imm16: 7, hw: 0 }];
        assert_eq!(key(&a), key(&b));
        assert_eq!(canonicalize(&a), canonicalize(&b));
    }

    /// Keys hashed from a body's words equal those recorded when the
    /// key was computed from its instructions: a key places its body in
    /// every sealed island, so it must never move.
    #[test]
    fn keys_equal_the_recorded_keys() {
        let x = Reg::new;
        let golden = [
            (
                vec![
                    Insn::Movz { wide: false, rd: x(2), imm16: 7, hw: 0 },
                    Insn::AddReg {
                        wide: true,
                        set_flags: false,
                        rd: x(2),
                        rn: x(2),
                        rm: x(2),
                        shift: 0,
                    },
                ],
                "9ca16928746f5745614d9d9f997b21ac",
            ),
            (
                vec![
                    Insn::LdrImm { wide: true, rt: Reg::X0, rn: Reg::X19, offset: 8 },
                    Insn::LdrImm { wide: true, rt: Reg::X1, rn: Reg::X0, offset: 16 },
                ],
                "1f48553e3c0fb097b2c51feb3e338cc1",
            ),
            (
                vec![
                    Insn::Movz { wide: true, rd: Reg::X0, imm16: 1, hw: 0 },
                    Insn::BCond { cond: Cond::Eq, offset: 8 },
                ],
                "2881c8957ee6032cb6178fbe590ec373",
            ),
        ];
        for (body, hex) in golden {
            assert_eq!(key(&body).to_hex(), hex, "{body:?}");
        }
    }

    #[test]
    fn fixed_registers_never_rename() {
        // x19 (thread) load vs x0 load: structurally identical shapes,
        // but the pinned register is semantic — keys must differ.
        let thread = [Insn::LdrImm { wide: true, rt: Reg::X0, rn: Reg::X19, offset: 8 }];
        let plain = [Insn::LdrImm { wide: true, rt: Reg::X1, rn: Reg::X0, offset: 8 }];
        assert_ne!(key(&thread), key(&plain));
        assert_eq!(
            canonicalize(&thread)[0],
            Insn::LdrImm { wide: true, rt: Reg::new(0), rn: Reg::X19, offset: 8 }
        );
    }

    #[test]
    fn semantic_differences_change_the_key() {
        let base = [add(2, 2, 5)];
        let diff_op = [Insn::SubReg {
            wide: true,
            set_flags: false,
            rd: Reg::new(2),
            rn: Reg::new(2),
            rm: Reg::new(5),
            shift: 0,
        }];
        let diff_width = [Insn::AddReg {
            wide: false,
            set_flags: false,
            rd: Reg::new(2),
            rn: Reg::new(2),
            rm: Reg::new(5),
            shift: 0,
        }];
        let diff_shift = [Insn::AddReg {
            wide: true,
            set_flags: false,
            rd: Reg::new(2),
            rn: Reg::new(2),
            rm: Reg::new(5),
            shift: 1,
        }];
        let diff_flags = [Insn::AddReg {
            wide: true,
            set_flags: true,
            rd: Reg::new(2),
            rn: Reg::new(2),
            rm: Reg::new(5),
            shift: 0,
        }];
        let base = key(&base);
        for other in [&diff_op[..], &diff_width, &diff_shift, &diff_flags] {
            assert_ne!(base, key(other));
        }
        // Branch shape: cond and offset are both semantic.
        let beq = [Insn::BCond { cond: Cond::Eq, offset: 8 }];
        let bne = [Insn::BCond { cond: Cond::Ne, offset: 8 }];
        let beq_far = [Insn::BCond { cond: Cond::Eq, offset: 16 }];
        assert_ne!(key(&beq), key(&bne));
        assert_ne!(key(&beq), key(&beq_far));
    }

    #[test]
    fn dataflow_shape_survives_renaming() {
        // `add x2, x2, x5` (accumulate) vs `add x2, x5, x5` (double):
        // both touch two registers, but the first-use pattern differs,
        // so renaming cannot merge them.
        assert_ne!(key(&[add(2, 2, 5)]), key(&[add(2, 5, 5)]));
    }
}
