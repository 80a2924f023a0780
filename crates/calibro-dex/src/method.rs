//! Methods and classes of the DEX-like container.

use crate::ids::{ClassId, MethodId, VReg};
use crate::insn::DexInsn;

/// A method body in the DEX-like bytecode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Method {
    /// The method's index in its [`DexFile`](crate::DexFile).
    pub id: MethodId,
    /// Owning class.
    pub class: ClassId,
    /// Human-readable name (diagnostics only).
    pub name: String,
    /// Number of virtual registers, arguments included.
    pub num_regs: u16,
    /// Number of arguments; they arrive in the *last* `num_args`
    /// registers, Dalvik-style.
    pub num_args: u16,
    /// Bytecode; empty for native methods.
    pub insns: Vec<DexInsn>,
    /// Java native (JNI) method: no bytecode, executed by the runtime's
    /// native bridge, and flagged unoutlinable by LTBO (§3.2).
    pub is_native: bool,
}

impl Method {
    /// Registers holding the arguments, in order.
    #[must_use]
    pub fn arg_regs(&self) -> Vec<VReg> {
        let first = self.num_regs - self.num_args;
        (first..self.num_regs).map(VReg).collect()
    }

    /// Returns `true` if the method calls anything (a *non-leaf* method in
    /// ART terms — these get the stack-overflow check of Figure 4c).
    #[must_use]
    pub fn is_leaf(&self) -> bool {
        !self.insns.iter().any(|i| {
            matches!(
                i,
                DexInsn::Invoke { .. } | DexInsn::InvokeNative { .. } | DexInsn::NewInstance { .. }
            )
        })
    }

    /// Returns `true` if the method contains a `switch` (which lowers to
    /// an indirect jump).
    #[must_use]
    pub fn has_switch(&self) -> bool {
        self.insns.iter().any(|i| matches!(i, DexInsn::Switch { .. }))
    }
}

/// A class: a named field count plus its method members.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Class {
    /// The class's index in its [`DexFile`](crate::DexFile).
    pub id: ClassId,
    /// Human-readable name.
    pub name: String,
    /// Number of 8-byte instance field slots.
    pub num_fields: u32,
    /// Methods belonging to this class.
    pub methods: Vec<MethodId>,
}

impl Class {
    /// Object size in bytes: an 8-byte header plus the field slots.
    #[must_use]
    pub fn instance_size(&self) -> u64 {
        8 + u64::from(self.num_fields) * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FieldId;
    use crate::insn::{BinOp, InvokeKind};

    fn method(insns: Vec<DexInsn>) -> Method {
        Method {
            id: MethodId(0),
            class: ClassId(0),
            name: "test".to_owned(),
            num_regs: 6,
            num_args: 2,
            insns,
            is_native: false,
        }
    }

    #[test]
    fn args_arrive_in_trailing_registers() {
        let m = method(vec![DexInsn::ReturnVoid]);
        assert_eq!(m.arg_regs(), vec![VReg(4), VReg(5)]);
    }

    #[test]
    fn leaf_detection() {
        let leaf = method(vec![
            DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(4), b: VReg(5) },
            DexInsn::Return { src: VReg(0) },
        ]);
        assert!(leaf.is_leaf());
        let caller = method(vec![
            DexInsn::Invoke {
                kind: InvokeKind::Static,
                method: MethodId(1),
                args: vec![],
                dst: None,
            },
            DexInsn::ReturnVoid,
        ]);
        assert!(!caller.is_leaf());
        let allocator = method(vec![
            DexInsn::NewInstance { dst: VReg(0), class: ClassId(0) },
            DexInsn::ReturnVoid,
        ]);
        assert!(!allocator.is_leaf(), "allocation calls the runtime");
    }

    #[test]
    fn switch_detection() {
        let m = method(vec![
            DexInsn::Switch { src: VReg(4), first_key: 0, targets: vec![1, 1] },
            DexInsn::ReturnVoid,
        ]);
        assert!(m.has_switch());
        let m = method(vec![DexInsn::IGet { dst: VReg(0), obj: VReg(4), field: FieldId(0) }]);
        assert!(!m.has_switch());
    }

    #[test]
    fn instance_size() {
        let class = Class { id: ClassId(0), name: "C".into(), num_fields: 3, methods: vec![] };
        assert_eq!(class.instance_size(), 32);
    }
}
