//! A bytecode verifier for the DEX-like container.
//!
//! Mirrors the subset of the Dalvik verifier the pipeline relies on:
//! register bounds, branch-target validity, method/class/field reference
//! validity, and termination (every path ends in a return or throw).

use core::fmt;

use crate::file::DexFile;
use crate::ids::{MethodId, VReg};
use crate::insn::DexInsn;
use crate::method::Method;

/// A verification failure.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields name the offending method/insn
pub enum VerifyError {
    /// A register operand is out of the method's register range.
    RegisterOutOfRange { method: MethodId, insn: usize, reg: u16, num_regs: u16 },
    /// A branch target is not a valid instruction index.
    BadBranchTarget { method: MethodId, insn: usize, target: usize },
    /// A referenced method does not exist.
    BadMethodRef { method: MethodId, insn: usize },
    /// A referenced class does not exist.
    BadClassRef { method: MethodId, insn: usize },
    /// A referenced instance field is outside its class's field count.
    BadFieldRef { method: MethodId, insn: usize },
    /// A referenced static slot is outside the reserved statics area.
    BadStaticRef { method: MethodId, insn: usize },
    /// Execution can fall off the end of the method.
    FallsOffEnd { method: MethodId },
    /// A non-native method has no instructions.
    EmptyBody { method: MethodId },
    /// A native method carries bytecode.
    NativeWithBody { method: MethodId },
    /// A switch with no targets.
    EmptySwitch { method: MethodId, insn: usize },
    /// An invoke whose argument count exceeds the ABI limit (8).
    TooManyArgs { method: MethodId, insn: usize, count: usize },
    /// A callee is marked native but was called with `Invoke`, or vice
    /// versa.
    WrongInvokeKind { method: MethodId, insn: usize },
    /// A register is read on some path before any assignment reaches it.
    /// Dalvik rejects these outright; allowing them would make observable
    /// behaviour depend on stale register/stack contents, which differ
    /// between build configurations.
    UninitializedRead { method: MethodId, insn: usize, reg: u16 },
    /// The method declares more arguments than registers. Arguments
    /// arrive in the trailing `num_args` registers, so every consumer
    /// computes `num_regs - num_args`.
    ArgsExceedRegisters { method: MethodId, num_args: u16, num_regs: u16 },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::RegisterOutOfRange { method, insn, reg, num_regs } => {
                write!(f, "{method}@{insn}: register v{reg} out of range (method has {num_regs})")
            }
            VerifyError::BadBranchTarget { method, insn, target } => {
                write!(f, "{method}@{insn}: branch target {target} out of range")
            }
            VerifyError::BadMethodRef { method, insn } => {
                write!(f, "{method}@{insn}: reference to missing method")
            }
            VerifyError::BadClassRef { method, insn } => {
                write!(f, "{method}@{insn}: reference to missing class")
            }
            VerifyError::BadFieldRef { method, insn } => {
                write!(f, "{method}@{insn}: field index outside class layout")
            }
            VerifyError::BadStaticRef { method, insn } => {
                write!(f, "{method}@{insn}: static slot outside statics area")
            }
            VerifyError::FallsOffEnd { method } => {
                write!(f, "{method}: control flow can fall off the end")
            }
            VerifyError::EmptyBody { method } => write!(f, "{method}: non-native method is empty"),
            VerifyError::NativeWithBody { method } => {
                write!(f, "{method}: native method has bytecode")
            }
            VerifyError::EmptySwitch { method, insn } => {
                write!(f, "{method}@{insn}: switch with no targets")
            }
            VerifyError::TooManyArgs { method, insn, count } => {
                write!(f, "{method}@{insn}: {count} arguments exceed the ABI limit of 8")
            }
            VerifyError::WrongInvokeKind { method, insn } => {
                write!(f, "{method}@{insn}: invoke kind does not match callee nativeness")
            }
            VerifyError::UninitializedRead { method, insn, reg } => {
                write!(f, "{method}@{insn}: register v{reg} read before definite assignment")
            }
            VerifyError::ArgsExceedRegisters { method, num_args, num_regs } => {
                write!(f, "{method}: {num_args} arguments exceed the {num_regs} registers")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies every method of `dex`.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered, in method order.
pub fn verify(dex: &DexFile) -> Result<(), VerifyError> {
    for method in dex.methods() {
        verify_intrinsic(method)?;
        verify_references(dex, method)?;
    }
    Ok(())
}

/// The checks that read only the method's own content: body shape,
/// the register file holding the arguments, register bounds, branch
/// targets, argument counts, termination, and the definite-assignment
/// dataflow.
///
/// These are exactly the checks an incremental build may skip for a
/// method replayed from the artifact cache: the cache key covers every
/// byte they read, so a hit proves they passed when the entry was
/// created. The contextual [`verify_references`] checks must still run
/// on every build.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_intrinsic(method: &Method) -> Result<(), VerifyError> {
    let id = method.id;
    if method.is_native {
        if !method.insns.is_empty() {
            return Err(VerifyError::NativeWithBody { method: id });
        }
        return Ok(());
    }
    if method.insns.is_empty() {
        return Err(VerifyError::EmptyBody { method: id });
    }
    if method.num_args > method.num_regs {
        return Err(VerifyError::ArgsExceedRegisters {
            method: id,
            num_args: method.num_args,
            num_regs: method.num_regs,
        });
    }
    let n = method.insns.len();
    for (idx, insn) in method.insns.iter().enumerate() {
        // Register bounds: reads in operand order, then the write; the
        // first offender is the one reported.
        let mut out_of_range = None;
        let mut bound = |reg: VReg| {
            if reg.0 >= method.num_regs {
                out_of_range.get_or_insert(reg.0);
            }
        };
        insn.for_each_read(&mut bound);
        insn.writes().into_iter().for_each(&mut bound);
        if let Some(reg) = out_of_range {
            return Err(VerifyError::RegisterOutOfRange {
                method: id,
                insn: idx,
                reg,
                num_regs: method.num_regs,
            });
        }
        // Branch targets.
        let mut bad_target = None;
        insn.for_each_branch_target(|target| {
            if target >= n {
                bad_target.get_or_insert(target);
            }
        });
        if let Some(target) = bad_target {
            return Err(VerifyError::BadBranchTarget { method: id, insn: idx, target });
        }
        match insn {
            DexInsn::Invoke { args, .. } | DexInsn::InvokeNative { args, .. } if args.len() > 8 => {
                return Err(VerifyError::TooManyArgs { method: id, insn: idx, count: args.len() });
            }
            DexInsn::Switch { targets, .. } if targets.is_empty() => {
                return Err(VerifyError::EmptySwitch { method: id, insn: idx });
            }
            _ => {}
        }
    }
    // The last instruction must not fall through.
    if !method.insns[n - 1].is_unconditional_exit() {
        return Err(VerifyError::FallsOffEnd { method: id });
    }
    check_definite_assignment(method)
}

/// The contextual checks: every method, class, field, and static slot a
/// method references must exist in `dex`, and invoke kinds must match
/// the callee's nativeness. These depend on the rest of the program, so
/// they run on every build — cached or not.
///
/// # Errors
///
/// Returns the first [`VerifyError`] encountered.
pub fn verify_references(dex: &DexFile, method: &Method) -> Result<(), VerifyError> {
    let id = method.id;
    // Fields are class-relative; without static type info we bound-check
    // against the largest class layout.
    let max_fields = dex.classes().iter().map(|c| c.num_fields).max().unwrap_or(0);
    for (idx, insn) in method.insns.iter().enumerate() {
        match insn {
            DexInsn::Invoke { method: callee, .. } => {
                if callee.index() >= dex.methods().len() {
                    return Err(VerifyError::BadMethodRef { method: id, insn: idx });
                }
                if dex.method(*callee).is_native {
                    return Err(VerifyError::WrongInvokeKind { method: id, insn: idx });
                }
            }
            DexInsn::InvokeNative { method: callee, .. } => {
                if callee.index() >= dex.methods().len() {
                    return Err(VerifyError::BadMethodRef { method: id, insn: idx });
                }
                if !dex.method(*callee).is_native {
                    return Err(VerifyError::WrongInvokeKind { method: id, insn: idx });
                }
            }
            DexInsn::NewInstance { class, .. } if class.index() >= dex.classes().len() => {
                return Err(VerifyError::BadClassRef { method: id, insn: idx });
            }
            DexInsn::IGet { field, .. } | DexInsn::IPut { field, .. } if field.0 >= max_fields => {
                return Err(VerifyError::BadFieldRef { method: id, insn: idx });
            }
            DexInsn::SGet { slot, .. } | DexInsn::SPut { slot, .. }
                if slot.0 >= dex.num_statics() =>
            {
                return Err(VerifyError::BadStaticRef { method: id, insn: idx });
            }
            _ => {}
        }
    }
    Ok(())
}

/// Forward may-be-uninitialized dataflow over the instruction CFG, as the
/// Dalvik verifier performs: at entry only the argument registers (the
/// *last* `num_args` slots) are assigned; states meet by intersection, and
/// every read must see a definitely-assigned register. Runs after the
/// bounds checks, so register indices are known to be in range and
/// `num_args <= num_regs`.
fn check_definite_assignment(method: &Method) -> Result<(), VerifyError> {
    let n = method.insns.len();
    let num_regs = method.num_regs as usize;
    let words = num_regs.div_ceil(64).max(1);
    // One arena: instruction `i`'s in-state is `states[i * words..][..words]`,
    // meaningful once `reached[i]`.
    let mut states = vec![0u64; n * words];
    let mut reached = vec![false; n];
    for r in num_regs - method.num_args as usize..num_regs {
        states[r / 64] |= 1 << (r % 64);
    }
    reached[0] = true;
    let mut out = vec![0u64; words];
    // LIFO worklist, successors pushed as explicit targets then the
    // fall-through: the visiting order decides which of several
    // uninitialized reads is the one reported.
    let mut work = vec![0usize];
    while let Some(idx) = work.pop() {
        out.copy_from_slice(&states[idx * words..][..words]);
        let insn = &method.insns[idx];
        let mut uninitialized = None;
        insn.for_each_read(|reg| {
            let r = reg.0 as usize;
            if out[r / 64] & (1 << (r % 64)) == 0 {
                uninitialized.get_or_insert(reg.0);
            }
        });
        if let Some(reg) = uninitialized {
            return Err(VerifyError::UninitializedRead { method: method.id, insn: idx, reg });
        }
        if let Some(dst) = insn.writes() {
            let r = dst.0 as usize;
            out[r / 64] |= 1 << (r % 64);
        }
        let mut flow_to = |s: usize| {
            let state = &mut states[s * words..][..words];
            let changed = if reached[s] {
                let mut shrank = false;
                for (e, o) in state.iter_mut().zip(&out) {
                    let met = *e & *o;
                    shrank |= met != *e;
                    *e = met;
                }
                shrank
            } else {
                state.copy_from_slice(&out);
                reached[s] = true;
                true
            };
            if changed {
                work.push(s);
            }
        };
        insn.for_each_branch_target(&mut flow_to);
        if !insn.is_unconditional_exit() && idx + 1 < n {
            flow_to(idx + 1);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClassId, StaticId};
    use crate::insn::{BinOp, InvokeKind};

    fn dex_with(insns: Vec<DexInsn>) -> DexFile {
        let mut dex = DexFile::new();
        let c = dex.add_class("Main", 4);
        dex.reserve_statics(2);
        dex.add_method(Method {
            id: MethodId(0),
            class: c,
            name: "m".into(),
            num_regs: 4,
            num_args: 1,
            insns,
            is_native: false,
        });
        dex
    }

    #[test]
    fn accepts_well_formed() {
        let dex = dex_with(vec![
            DexInsn::Const { dst: VReg(0), value: 5 },
            DexInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(0), b: VReg(3) },
            DexInsn::Return { src: VReg(1) },
        ]);
        assert_eq!(verify(&dex), Ok(()));
    }

    #[test]
    fn rejects_register_overflow() {
        let dex = dex_with(vec![DexInsn::Const { dst: VReg(9), value: 5 }, DexInsn::ReturnVoid]);
        assert!(matches!(verify(&dex), Err(VerifyError::RegisterOutOfRange { reg: 9, .. })));
    }

    #[test]
    fn rejects_bad_branch() {
        let dex = dex_with(vec![DexInsn::Goto { target: 42 }]);
        assert!(matches!(verify(&dex), Err(VerifyError::BadBranchTarget { target: 42, .. })));
    }

    #[test]
    fn rejects_fallthrough_end() {
        let dex = dex_with(vec![DexInsn::Const { dst: VReg(0), value: 1 }]);
        assert!(matches!(verify(&dex), Err(VerifyError::FallsOffEnd { .. })));
    }

    #[test]
    fn rejects_missing_method_ref() {
        let dex = dex_with(vec![
            DexInsn::Invoke {
                kind: InvokeKind::Static,
                method: MethodId(77),
                args: vec![],
                dst: None,
            },
            DexInsn::ReturnVoid,
        ]);
        assert!(matches!(verify(&dex), Err(VerifyError::BadMethodRef { .. })));
    }

    #[test]
    fn rejects_bad_static_slot() {
        let dex =
            dex_with(vec![DexInsn::SGet { dst: VReg(0), slot: StaticId(5) }, DexInsn::ReturnVoid]);
        assert!(matches!(verify(&dex), Err(VerifyError::BadStaticRef { .. })));
    }

    #[test]
    fn rejects_invoke_kind_mismatch() {
        let mut dex = DexFile::new();
        let c = dex.add_class("Main", 0);
        let native = dex.add_method(Method {
            id: MethodId(0),
            class: c,
            name: "nat".into(),
            num_regs: 0,
            num_args: 0,
            insns: vec![],
            is_native: true,
        });
        dex.add_method(Method {
            id: MethodId(0),
            class: c,
            name: "caller".into(),
            num_regs: 1,
            num_args: 0,
            insns: vec![
                DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: native,
                    args: vec![],
                    dst: None,
                },
                DexInsn::ReturnVoid,
            ],
            is_native: false,
        });
        assert!(matches!(verify(&dex), Err(VerifyError::WrongInvokeKind { .. })));
    }

    #[test]
    fn rejects_bad_class_ref() {
        let dex = dex_with(vec![
            DexInsn::NewInstance { dst: VReg(0), class: ClassId(9) },
            DexInsn::ReturnVoid,
        ]);
        assert!(matches!(verify(&dex), Err(VerifyError::BadClassRef { .. })));
    }

    #[test]
    fn rejects_read_before_assignment() {
        // v1 is never written before the read (only v3 is an argument).
        let dex = dex_with(vec![
            DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(3) },
            DexInsn::Return { src: VReg(0) },
        ]);
        assert!(matches!(
            verify(&dex),
            Err(VerifyError::UninitializedRead { insn: 0, reg: 1, .. })
        ));
    }

    #[test]
    fn rejects_read_assigned_on_only_one_path() {
        // v0 is assigned only when the branch is taken; the meet at the
        // join point must drop it.
        let dex = dex_with(vec![
            DexInsn::IfZ { cmp: crate::insn::Cmp::Eq, a: VReg(3), target: 2 },
            DexInsn::Const { dst: VReg(0), value: 1 },
            DexInsn::Return { src: VReg(0) },
        ]);
        assert!(matches!(
            verify(&dex),
            Err(VerifyError::UninitializedRead { insn: 2, reg: 0, .. })
        ));
    }

    #[test]
    fn accepts_read_assigned_on_all_paths() {
        let dex = dex_with(vec![
            DexInsn::IfZ { cmp: crate::insn::Cmp::Eq, a: VReg(3), target: 3 },
            DexInsn::Const { dst: VReg(0), value: 1 },
            DexInsn::Goto { target: 4 },
            DexInsn::Const { dst: VReg(0), value: 2 },
            DexInsn::Return { src: VReg(0) },
        ]);
        assert_eq!(verify(&dex), Ok(()));
    }

    #[test]
    fn loop_carried_assignment_reaches_the_back_edge() {
        // v0 is assigned before the loop; the back edge must not lose it.
        let dex = dex_with(vec![
            DexInsn::Const { dst: VReg(0), value: 10 },
            DexInsn::BinLit { op: BinOp::Sub, dst: VReg(0), a: VReg(0), lit: 1 },
            DexInsn::IfZ { cmp: crate::insn::Cmp::Gt, a: VReg(0), target: 1 },
            DexInsn::Return { src: VReg(0) },
        ]);
        assert_eq!(verify(&dex), Ok(()));
    }

    #[test]
    fn rejects_more_arguments_than_registers() {
        // Every consumer computes `num_regs - num_args` on `u16`.
        let mut dex = dex_with(vec![DexInsn::ReturnVoid]);
        dex.method_mut(MethodId(0)).num_args = 5;
        assert_eq!(
            verify(&dex),
            Err(VerifyError::ArgsExceedRegisters { method: MethodId(0), num_args: 5, num_regs: 4 })
        );
        dex.method_mut(MethodId(0)).num_args = 4;
        assert_eq!(verify(&dex), Ok(()), "all registers may be arguments");
    }

    #[test]
    fn native_methods_must_be_empty() {
        let mut dex = DexFile::new();
        let c = dex.add_class("Main", 0);
        dex.add_method(Method {
            id: MethodId(0),
            class: c,
            name: "nat".into(),
            num_regs: 1,
            num_args: 0,
            insns: vec![DexInsn::ReturnVoid],
            is_native: true,
        });
        assert!(matches!(verify(&dex), Err(VerifyError::NativeWithBody { .. })));
    }
}
