//! Canonical hashing of DEX methods — the "method bytecode" component
//! of the cache key.
//!
//! These functions only *serialize*: each write lands bytes in the
//! [`StableHasher`]'s buffer, and the caller's final
//! `finish`/`finish_reset` mixes the whole method word-at-a-time (see
//! [`crate::hash`]). Passing a reused per-worker hasher in makes the
//! per-method cost one buffer fill plus one mixing pass, with no
//! allocation after the first method.
//!
//! The method *header* uses the framed `write_*` helpers (it is a
//! handful of writes per method); each *instruction* is packed into one
//! or two raw 64-bit words via [`StableHasher::write_word`] — the hot
//! loop of every warm rebuild's keys phase. The packing is injective
//! without per-field framing because the low byte of an instruction's
//! first word is its variant tag, and that tag (plus, for `Invoke` /
//! `Switch`, a count lane in the same word) fully determines the layout
//! and number of words that follow. Lanes within a word are fixed:
//! tag in bits 0..8, small operands (`BinOp`/`Cmp`/`InvokeKind`) in
//! bits 8..16, and `VReg`s (u16) in 16-bit lanes from bit 16 up.
//!
//! Every function here destructures its input exhaustively (no `..`
//! patterns, no wildcard match arms over fields): adding a field to
//! [`Method`] or a variant to [`DexInsn`] fails compilation right here,
//! so the fingerprint can never silently stop covering an input that
//! affects compilation.

use calibro_dex::{DexFile, DexInsn, Method, VReg};

use crate::hash::StableHasher;

/// Feeds one method's full compilation-relevant content into `h`.
///
/// The method `name` is included even though the current code generator
/// never reads it: the cache must stay correct if diagnostics ever leak
/// into output, and method renames are rare enough that the extra
/// invalidation is free insurance.
pub fn hash_method(m: &Method, h: &mut StableHasher) {
    let Method { id, class, name, num_regs, num_args, insns, is_native } = m;
    h.write_tag(0x4D); // 'M'
    h.write_u32(id.0);
    h.write_u32(class.0);
    h.write_str(name);
    h.write_u16(*num_regs);
    h.write_u16(*num_args);
    h.write_bool(*is_native);
    h.write_usize(insns.len());
    for insn in insns {
        hash_insn(insn, h);
    }
}

/// Feeds a whole program into `h` — used as an extra key component when
/// whole-program inlining is enabled, because then a method's compiled
/// code can depend on any callee's body.
pub fn hash_program(dex: &DexFile, h: &mut StableHasher) {
    h.write_tag(0x50); // 'P'
    h.write_usize(dex.methods().len());
    for m in dex.methods() {
        hash_method(m, h);
    }
    h.write_usize(dex.classes().len());
    for c in dex.classes() {
        h.write_u32(c.id.0);
        h.write_u32(c.num_fields);
    }
    h.write_u32(dex.num_statics());
}

fn vreg_bits(v: VReg) -> u64 {
    u64::from(v.0)
}

/// `Option<VReg>` in a 17-bit lane: a presence bit above the register
/// number, so `None` cannot alias `Some(VReg(0))`.
fn opt_vreg_bits(v: Option<VReg>) -> u64 {
    match v {
        None => 0,
        Some(r) => (1 << 16) | u64::from(r.0),
    }
}

/// Invoke arguments, four 16-bit register lanes per word. Unused lanes
/// of the final word are zero — unambiguous because the argument count
/// is a lane of the instruction's first word.
fn write_packed_args(args: &[VReg], h: &mut StableHasher) {
    for chunk in args.chunks(4) {
        let mut w = 0u64;
        for (i, &a) in chunk.iter().enumerate() {
            w |= u64::from(a.0) << (16 * i);
        }
        h.write_word(w);
    }
}

/// Packs one instruction into one or two raw words (plus overflow words
/// for invoke arguments and switch targets). See the module doc for the
/// lane layout and the injectivity argument.
fn hash_insn(insn: &DexInsn, h: &mut StableHasher) {
    match insn {
        DexInsn::Nop => h.write_word(0),
        DexInsn::Const { dst, value } => {
            h.write_word(1 | vreg_bits(*dst) << 16);
            h.write_word(i64::from(*value) as u64);
        }
        DexInsn::Move { dst, src } => {
            h.write_word(2 | vreg_bits(*dst) << 16 | vreg_bits(*src) << 32);
        }
        DexInsn::Bin { op, dst, a, b } => {
            h.write_word(
                3 | u64::from(op.code()) << 8
                    | vreg_bits(*dst) << 16
                    | vreg_bits(*a) << 32
                    | vreg_bits(*b) << 48,
            );
        }
        DexInsn::BinLit { op, dst, a, lit } => {
            h.write_word(
                4 | u64::from(op.code()) << 8 | vreg_bits(*dst) << 16 | vreg_bits(*a) << 32,
            );
            h.write_word(i64::from(*lit) as u64);
        }
        DexInsn::IGet { dst, obj, field } => {
            h.write_word(5 | vreg_bits(*dst) << 16 | vreg_bits(*obj) << 32);
            h.write_word(u64::from(field.0));
        }
        DexInsn::IPut { src, obj, field } => {
            h.write_word(6 | vreg_bits(*src) << 16 | vreg_bits(*obj) << 32);
            h.write_word(u64::from(field.0));
        }
        DexInsn::SGet { dst, slot } => {
            h.write_word(7 | vreg_bits(*dst) << 16 | u64::from(slot.0) << 32);
        }
        DexInsn::SPut { src, slot } => {
            h.write_word(8 | vreg_bits(*src) << 16 | u64::from(slot.0) << 32);
        }
        DexInsn::NewInstance { dst, class } => {
            h.write_word(9 | vreg_bits(*dst) << 16 | u64::from(class.0) << 32);
        }
        DexInsn::Invoke { kind, method, args, dst } => {
            assert!(args.len() < (1 << 16), "invoke argument count overflows its packed lane");
            h.write_word(
                10 | u64::from(kind.code()) << 8
                    | (args.len() as u64) << 16
                    | opt_vreg_bits(*dst) << 32,
            );
            h.write_word(u64::from(method.0));
            write_packed_args(args, h);
        }
        DexInsn::InvokeNative { method, args, dst } => {
            assert!(args.len() < (1 << 16), "invoke argument count overflows its packed lane");
            h.write_word(11 | (args.len() as u64) << 16 | opt_vreg_bits(*dst) << 32);
            h.write_word(u64::from(method.0));
            write_packed_args(args, h);
        }
        DexInsn::If { cmp, a, b, target } => {
            h.write_word(
                12 | u64::from(cmp.code()) << 8 | vreg_bits(*a) << 16 | vreg_bits(*b) << 32,
            );
            h.write_word(*target as u64);
        }
        DexInsn::IfZ { cmp, a, target } => {
            h.write_word(13 | u64::from(cmp.code()) << 8 | vreg_bits(*a) << 16);
            h.write_word(*target as u64);
        }
        DexInsn::Goto { target } => {
            h.write_word(14);
            h.write_word(*target as u64);
        }
        DexInsn::Switch { src, first_key, targets } => {
            assert!(
                u64::try_from(targets.len()).is_ok_and(|n| n < (1 << 32)),
                "switch target count overflows its packed lane"
            );
            h.write_word(15 | vreg_bits(*src) << 16 | (targets.len() as u64) << 32);
            h.write_word(i64::from(*first_key) as u64);
            for &t in targets {
                h.write_word(t as u64);
            }
        }
        DexInsn::Return { src } => {
            h.write_word(16 | vreg_bits(*src) << 16);
        }
        DexInsn::ReturnVoid => h.write_word(17),
        DexInsn::Throw { src } => {
            h.write_word(18 | vreg_bits(*src) << 16);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::CacheKey;
    use calibro_dex::{BinOp, ClassId, InvokeKind, MethodId};

    fn method(insns: Vec<DexInsn>) -> Method {
        Method {
            id: MethodId(3),
            class: ClassId(1),
            name: "m".to_owned(),
            num_regs: 4,
            num_args: 1,
            insns,
            is_native: false,
        }
    }

    fn key(m: &Method) -> CacheKey {
        let mut h = StableHasher::new();
        hash_method(m, &mut h);
        h.finish()
    }

    #[test]
    fn identical_methods_hash_identically() {
        let a = method(vec![DexInsn::Const { dst: VReg(0), value: 7 }, DexInsn::ReturnVoid]);
        assert_eq!(key(&a), key(&a.clone()));
    }

    #[test]
    fn every_header_field_is_covered() {
        let base = method(vec![DexInsn::ReturnVoid]);
        let k = key(&base);
        for (label, tweak) in [
            ("id", Method { id: MethodId(4), ..base.clone() }),
            ("class", Method { class: ClassId(2), ..base.clone() }),
            ("name", Method { name: "other".into(), ..base.clone() }),
            ("num_regs", Method { num_regs: 5, ..base.clone() }),
            ("num_args", Method { num_args: 0, ..base.clone() }),
            ("is_native", Method { is_native: true, insns: vec![], ..base.clone() }),
            ("insns", Method { insns: vec![DexInsn::Nop, DexInsn::ReturnVoid], ..base.clone() }),
        ] {
            assert_ne!(key(&tweak), k, "field `{label}` not covered by the hash");
        }
    }

    #[test]
    fn packed_invoke_args_do_not_alias_zero_padding() {
        // [VReg(1)] packs into a word whose upper lanes are zero — the
        // same word [VReg(1), VReg(0), VReg(0), VReg(0)] would produce.
        // The argument-count lane in the first word must keep them
        // distinct.
        let invoke = |args: Vec<VReg>| {
            method(vec![DexInsn::Invoke {
                kind: InvokeKind::Static,
                method: MethodId(9),
                args,
                dst: None,
            }])
        };
        let one = invoke(vec![VReg(1)]);
        let padded = invoke(vec![VReg(1), VReg(0), VReg(0), VReg(0)]);
        assert_ne!(key(&one), key(&padded));
    }

    #[test]
    fn invoke_dst_presence_is_not_aliased_by_register_zero() {
        let invoke = |dst: Option<VReg>| {
            method(vec![DexInsn::Invoke {
                kind: InvokeKind::Virtual,
                method: MethodId(9),
                args: vec![VReg(2)],
                dst,
            }])
        };
        assert_ne!(key(&invoke(None)), key(&invoke(Some(VReg(0)))));
    }

    #[test]
    fn operand_changes_change_the_hash() {
        let a = method(vec![
            DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) },
            DexInsn::Return { src: VReg(0) },
        ]);
        let mut b = a.clone();
        b.insns[0] = DexInsn::Bin { op: BinOp::Sub, dst: VReg(0), a: VReg(1), b: VReg(2) };
        assert_ne!(key(&a), key(&b));
        let mut c = a.clone();
        c.insns[0] = DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(1) };
        assert_ne!(key(&a), key(&c));
    }
}
