//! The DEX-like bytecode instruction set.
//!
//! A register machine modeled on the Dalvik executable format: virtual
//! registers, instance/static field accesses, invoke instructions that
//! leave their result in an optional destination register, and structured
//! branch targets given as instruction indices.
//!
//! The set is chosen so that compilation exercises everything Calibro
//! needs: `Invoke*` lowers to the ART Java-call pattern (Figure 4a),
//! `NewInstance`/`Div`/`Throw` lower to runtime entrypoint calls and slow
//! paths (Figure 4b), non-leaf methods get the stack-overflow check
//! (Figure 4c), and `Switch` lowers to an indirect jump that flags the
//! method as unoutlinable (§3.2).

use crate::ids::{ClassId, FieldId, MethodId, StaticId, VReg};

/// Declares an operand enum together with its stable numeric code.
/// The code is what the wire codec transports and what the method hash
/// packs into cache keys, so it is named exactly once, here: append
/// variants, never renumber.
macro_rules! coded_enum {
    ($(#[$meta:meta])* $name:ident { $($(#[$doc:meta])* $variant:ident = $code:literal,)* }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
        pub enum $name {
            $($(#[$doc])* $variant = $code,)*
        }

        impl $name {
            /// The variant's stable numeric code.
            #[inline]
            #[must_use]
            pub const fn code(self) -> u8 {
                self as u8
            }

            /// The variant carrying `code`; `None` for an undefined code.
            #[inline]
            #[must_use]
            pub const fn from_code(code: u8) -> Option<$name> {
                match code {
                    $($code => Some($name::$variant),)*
                    _ => None,
                }
            }
        }
    };
}

coded_enum! {
    /// Comparison kind for two-register and register-vs-zero branches.
    Cmp {
        /// Equal.
        Eq = 0,
        /// Not equal.
        Ne = 1,
        /// Signed less than.
        Lt = 2,
        /// Signed greater or equal.
        Ge = 3,
        /// Signed greater than.
        Gt = 4,
        /// Signed less or equal.
        Le = 5,
    }
}

coded_enum! {
    /// Binary arithmetic/logical operation kind.
    BinOp {
        /// Wrapping addition.
        Add = 0,
        /// Wrapping subtraction.
        Sub = 1,
        /// Wrapping multiplication.
        Mul = 2,
        /// Signed division (throws on division by zero — has a slow path).
        Div = 3,
        /// Bitwise AND.
        And = 4,
        /// Bitwise OR.
        Or = 5,
        /// Bitwise XOR.
        Xor = 6,
        /// Logical shift left (amount masked to 5 bits).
        Shl = 7,
        /// Logical shift right (amount masked to 5 bits).
        Shr = 8,
    }
}

coded_enum! {
    /// The kind of an invoke instruction.
    InvokeKind {
        /// Virtual dispatch through the receiver's `ArtMethod`.
        Virtual = 0,
        /// Static dispatch (no receiver).
        Static = 1,
    }
}

/// One DEX-like bytecode instruction.
///
/// Branch targets are indices into the owning method's instruction list.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum DexInsn {
    /// No operation.
    Nop,
    /// Load a constant: `dst = value`.
    Const { dst: VReg, value: i32 },
    /// Register copy: `dst = src`.
    Move { dst: VReg, src: VReg },
    /// Binary operation on registers: `dst = a <op> b`.
    Bin { op: BinOp, dst: VReg, a: VReg, b: VReg },
    /// Binary operation with a literal: `dst = a <op> lit`.
    BinLit { op: BinOp, dst: VReg, a: VReg, lit: i16 },
    /// Instance field load: `dst = obj.field` (null check has a slow path).
    IGet { dst: VReg, obj: VReg, field: FieldId },
    /// Instance field store: `obj.field = src`.
    IPut { src: VReg, obj: VReg, field: FieldId },
    /// Static field load: `dst = statics[slot]`.
    SGet { dst: VReg, slot: StaticId },
    /// Static field store: `statics[slot] = src`.
    SPut { src: VReg, slot: StaticId },
    /// Allocate an instance: `dst = new class` (runtime entrypoint call).
    NewInstance { dst: VReg, class: ClassId },
    /// Call a method; `args[0]` is the receiver for virtual calls.
    Invoke { kind: InvokeKind, method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// Call a Java native (JNI) method — the callee is outside the OAT.
    InvokeNative { method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// Conditional branch comparing two registers.
    If { cmp: Cmp, a: VReg, b: VReg, target: usize },
    /// Conditional branch comparing a register with zero.
    IfZ { cmp: Cmp, a: VReg, target: usize },
    /// Unconditional branch.
    Goto { target: usize },
    /// Packed switch on `src`: `targets[src - first_key]`, falling through
    /// when out of range. Lowers to an indirect jump table.
    Switch { src: VReg, first_key: i32, targets: Vec<usize> },
    /// Return a value.
    Return { src: VReg },
    /// Return without a value.
    ReturnVoid,
    /// Throw an exception carried in a register (runtime call, no return).
    Throw { src: VReg },
}

impl DexInsn {
    /// Returns `true` if the instruction ends a basic block.
    #[must_use]
    pub fn is_block_end(&self) -> bool {
        matches!(
            self,
            DexInsn::If { .. }
                | DexInsn::IfZ { .. }
                | DexInsn::Goto { .. }
                | DexInsn::Switch { .. }
                | DexInsn::Return { .. }
                | DexInsn::ReturnVoid
                | DexInsn::Throw { .. }
        )
    }

    /// Returns `true` if the instruction never falls through.
    #[must_use]
    pub fn is_unconditional_exit(&self) -> bool {
        matches!(
            self,
            DexInsn::Goto { .. }
                | DexInsn::Return { .. }
                | DexInsn::ReturnVoid
                | DexInsn::Throw { .. }
        )
    }

    /// Calls `f` with each explicit branch target (fall-through
    /// excluded), in operand order. The one place targets are listed.
    #[inline]
    pub fn for_each_branch_target(&self, mut f: impl FnMut(usize)) {
        match self {
            DexInsn::If { target, .. } | DexInsn::IfZ { target, .. } | DexInsn::Goto { target } => {
                f(*target);
            }
            DexInsn::Switch { targets, .. } => targets.iter().copied().for_each(f),
            _ => {}
        }
    }

    /// Explicit branch targets of this instruction (fall-through excluded).
    #[must_use]
    pub fn branch_targets(&self) -> Vec<usize> {
        let mut targets = Vec::new();
        self.for_each_branch_target(|t| targets.push(t));
        targets
    }

    /// Calls `f` with each register this instruction reads, in operand
    /// order. The one place read operands are listed.
    #[inline]
    pub fn for_each_read(&self, mut f: impl FnMut(VReg)) {
        match self {
            DexInsn::Move { src, .. }
            | DexInsn::SPut { src, .. }
            | DexInsn::Return { src }
            | DexInsn::Throw { src }
            | DexInsn::Switch { src, .. } => f(*src),
            DexInsn::Bin { a, b, .. } | DexInsn::If { a, b, .. } => {
                f(*a);
                f(*b);
            }
            DexInsn::BinLit { a, .. } | DexInsn::IfZ { a, .. } => f(*a),
            DexInsn::IGet { obj, .. } => f(*obj),
            DexInsn::IPut { src, obj, .. } => {
                f(*src);
                f(*obj);
            }
            DexInsn::Invoke { args, .. } | DexInsn::InvokeNative { args, .. } => {
                args.iter().copied().for_each(f);
            }
            DexInsn::Nop
            | DexInsn::Const { .. }
            | DexInsn::SGet { .. }
            | DexInsn::NewInstance { .. }
            | DexInsn::Goto { .. }
            | DexInsn::ReturnVoid => {}
        }
    }

    /// All registers read by this instruction.
    #[must_use]
    pub fn reads(&self) -> Vec<VReg> {
        let mut regs = Vec::new();
        self.for_each_read(|r| regs.push(r));
        regs
    }

    /// The register written by this instruction, if any.
    #[must_use]
    pub fn writes(&self) -> Option<VReg> {
        match self {
            DexInsn::Const { dst, .. }
            | DexInsn::Move { dst, .. }
            | DexInsn::Bin { dst, .. }
            | DexInsn::BinLit { dst, .. }
            | DexInsn::IGet { dst, .. }
            | DexInsn::SGet { dst, .. }
            | DexInsn::NewInstance { dst, .. } => Some(*dst),
            DexInsn::Invoke { dst, .. } | DexInsn::InvokeNative { dst, .. } => *dst,
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn operand_codes_round_trip_and_reject_undefined_values() {
        // The numbering itself is pinned where it matters: the wire
        // fixtures in calibro-server and the method-hash golden.
        for code in 0..=u8::MAX {
            assert_eq!(BinOp::from_code(code).map(BinOp::code), (code < 9).then_some(code));
            assert_eq!(Cmp::from_code(code).map(Cmp::code), (code < 6).then_some(code));
            assert_eq!(
                InvokeKind::from_code(code).map(InvokeKind::code),
                (code < 2).then_some(code)
            );
        }
        assert_eq!((BinOp::Xor.code(), Cmp::Ge.code(), InvokeKind::Static.code()), (6, 3, 1));
    }

    #[test]
    fn block_end_classification() {
        assert!(DexInsn::Goto { target: 0 }.is_block_end());
        assert!(DexInsn::ReturnVoid.is_block_end());
        assert!(DexInsn::Switch { src: VReg(0), first_key: 0, targets: vec![1] }.is_block_end());
        assert!(!DexInsn::Nop.is_block_end());
        assert!(!DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![],
            dst: None
        }
        .is_block_end());
    }

    #[test]
    fn fallthrough_classification() {
        assert!(DexInsn::Goto { target: 3 }.is_unconditional_exit());
        assert!(!DexInsn::If { cmp: Cmp::Eq, a: VReg(0), b: VReg(1), target: 3 }
            .is_unconditional_exit());
    }

    #[test]
    fn dataflow_queries() {
        let insn = DexInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(0), b: VReg(1) };
        assert_eq!(insn.reads(), vec![VReg(0), VReg(1)]);
        assert_eq!(insn.writes(), Some(VReg(2)));
        let call = DexInsn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(4),
            args: vec![VReg(3), VReg(5)],
            dst: Some(VReg(0)),
        };
        assert_eq!(call.reads(), vec![VReg(3), VReg(5)]);
        assert_eq!(call.writes(), Some(VReg(0)));
    }

    #[test]
    fn branch_targets() {
        let sw = DexInsn::Switch { src: VReg(1), first_key: 10, targets: vec![4, 9, 2] };
        assert_eq!(sw.branch_targets(), vec![4, 9, 2]);
        assert!(DexInsn::ReturnVoid.branch_targets().is_empty());
    }
}
