//! Canonical hashing of DEX methods — the "method bytecode" component
//! of the cache key.
//!
//! One walk: a method's key is the hash of the bytes its [`Wire`] row
//! writes — a domain tag, the `id`, then the method body exactly as
//! [`DexFile`]'s row carries it (`put_method_body`) — and a program's
//! key is the hash of the program's wire form. There is no second
//! serialiser: two methods share a key only if they share those bytes,
//! and `decode(encode(x)) == x` (`tests/key_wire.rs`) proves the bytes
//! determine the method. A new [`Method`] field or `DexInsn` variant is
//! one edit, in calibro-dex's `wire.rs`, where the exhaustive
//! destructuring and the decoder's literal both fail compilation until
//! it is covered.
//!
//! These functions only *serialize*: the bytes land in the
//! [`StableHasher`]'s buffer, and the caller's final
//! `finish`/`finish_reset` mixes the whole method word-at-a-time (see
//! [`crate::hash`]). Passing a reused per-worker hasher in makes the
//! per-method cost one buffer fill plus one mixing pass, with no
//! allocation after the first method.
//!
//! [`Wire`]: calibro_dex::wire::Wire

use calibro_dex::wire::put_method_body;
use calibro_dex::{DexFile, Method};

use crate::hash::StableHasher;

/// Feeds one method's full compilation-relevant content into `h`.
///
/// The method `name` is included even though the current code generator
/// never reads it: the cache must stay correct if diagnostics ever leak
/// into output, and method renames are rare enough that the extra
/// invalidation is free insurance.
pub fn hash_method(m: &Method, h: &mut StableHasher) {
    h.write_tag(0x4D); // 'M'
    h.write_wire(&m.id);
    put_method_body(m, &mut h.w);
}

/// Feeds a whole program into `h`: the domain tag, then the program's
/// wire form — so the key is computable from a request's bytes without
/// decoding them. The program's content key (calibrod's `ProgramId`)
/// and the program half of tenant and routing identities.
pub fn hash_program(dex: &DexFile, h: &mut StableHasher) {
    h.write_tag(0x50); // 'P'
    h.write_wire(dex);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::CacheKey;
    use calibro_dex::{BinOp, ClassId, DexInsn, InvokeKind, MethodId, VReg};

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

    /// Bodies that differ in one operand, one operand order, one
    /// argument count (zero registers as padding) or one `Option`
    /// presence (`None` against register zero): pairwise distinct keys.
    #[test]
    fn operand_changes_change_the_hash() {
        let bin = |op, a, b| DexInsn::Bin { op, dst: VReg(0), a: VReg(a), b: VReg(b) };
        let invoke = |kind, args: &[u16], dst: Option<u16>| DexInsn::Invoke {
            kind,
            method: MethodId(9),
            args: args.iter().map(|&r| VReg(r)).collect(),
            dst: dst.map(VReg),
        };
        let bodies = [
            bin(BinOp::Add, 1, 2),
            bin(BinOp::Sub, 1, 2),
            bin(BinOp::Add, 2, 1),
            invoke(InvokeKind::Static, &[1], None),
            invoke(InvokeKind::Static, &[1, 0, 0, 0], None),
            invoke(InvokeKind::Virtual, &[2], None),
            invoke(InvokeKind::Virtual, &[2], Some(0)),
        ];
        let keys: Vec<CacheKey> = bodies
            .iter()
            .map(|insn| key(&method(vec![insn.clone(), DexInsn::Return { src: VReg(0) }])))
            .collect();
        for (i, a) in keys.iter().enumerate() {
            for (j, b) in keys.iter().enumerate().skip(i + 1) {
                assert_ne!(a, b, "bodies {i} and {j} share a key");
            }
        }
    }
}
