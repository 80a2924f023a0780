//! Rejection corpus: one malformed program per [`VerifyError`] variant,
//! plus the definite-assignment shapes whose *first* reported error
//! depends on the dataflow's visiting order (LIFO worklist, explicit
//! targets before the fall-through). Each case asserts the exact error
//! value — variant, `insn`, `reg` — so a verifier that still rejects but
//! blames a different instruction is a failure. The values were recorded
//! from the `Vec<Option<Vec<u64>>>` implementation this suite outlived.

use calibro_dex::{
    verify, BinOp, ClassId, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodId, StaticId,
    VReg, VerifyError,
};

const M: MethodId = MethodId(1);

/// A container with one 4-field class, 2 static slots, a native method
/// (id 0) and the method under test (id 1).
fn dex_with(num_regs: u16, num_args: u16, insns: Vec<DexInsn>) -> DexFile {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 4);
    dex.reserve_statics(2);
    let method = |name: &str, num_regs, num_args, insns, is_native| Method {
        id: MethodId(0),
        class,
        name: name.to_owned(),
        num_regs,
        num_args,
        insns,
        is_native,
    };
    dex.add_method(method("nat", 0, 0, vec![], true));
    dex.add_method(method("m", num_regs, num_args, insns, false));
    dex
}

fn rejects(num_regs: u16, num_args: u16, insns: Vec<DexInsn>) -> VerifyError {
    verify(&dex_with(num_regs, num_args, insns)).expect_err("corpus entries are malformed")
}

fn konst(dst: u16) -> DexInsn {
    DexInsn::Const { dst: VReg(dst), value: 1 }
}

fn add(dst: u16, a: u16, b: u16) -> DexInsn {
    DexInsn::Bin { op: BinOp::Add, dst: VReg(dst), a: VReg(a), b: VReg(b) }
}

fn if_z(a: u16, target: usize) -> DexInsn {
    DexInsn::IfZ { cmp: Cmp::Eq, a: VReg(a), target }
}

fn call(method: u32, args: Vec<VReg>) -> DexInsn {
    DexInsn::Invoke { kind: InvokeKind::Static, method: MethodId(method), args, dst: None }
}

/// Maps every variant to a slot, so adding a `VerifyError` variant
/// without a corpus entry fails to compile here.
fn variant_slot(error: &VerifyError) -> usize {
    match error {
        VerifyError::RegisterOutOfRange { .. } => 0,
        VerifyError::BadBranchTarget { .. } => 1,
        VerifyError::BadMethodRef { .. } => 2,
        VerifyError::BadClassRef { .. } => 3,
        VerifyError::BadFieldRef { .. } => 4,
        VerifyError::BadStaticRef { .. } => 5,
        VerifyError::FallsOffEnd { .. } => 6,
        VerifyError::EmptyBody { .. } => 7,
        VerifyError::NativeWithBody { .. } => 8,
        VerifyError::EmptySwitch { .. } => 9,
        VerifyError::TooManyArgs { .. } => 10,
        VerifyError::WrongInvokeKind { .. } => 11,
        VerifyError::UninitializedRead { .. } => 12,
        VerifyError::ArgsExceedRegisters { .. } => 13,
    }
}

#[test]
fn every_variant_is_reported_with_its_exact_value() {
    let native_with_body = {
        let mut dex = dex_with(1, 0, vec![DexInsn::ReturnVoid]);
        dex.method_mut(MethodId(0)).insns = vec![DexInsn::ReturnVoid];
        verify(&dex).expect_err("native method with bytecode")
    };
    let corpus = [
        // Reads are checked before the write, in operand order.
        (
            rejects(4, 1, vec![add(9, 8, 7), DexInsn::ReturnVoid]),
            VerifyError::RegisterOutOfRange { method: M, insn: 0, reg: 8, num_regs: 4 },
        ),
        // An in-range read does not hide the out-of-range write.
        (
            rejects(4, 1, vec![add(9, 3, 3), DexInsn::ReturnVoid]),
            VerifyError::RegisterOutOfRange { method: M, insn: 0, reg: 9, num_regs: 4 },
        ),
        // Registers are checked before the same instruction's target.
        (
            rejects(4, 1, vec![if_z(5, 99), DexInsn::ReturnVoid]),
            VerifyError::RegisterOutOfRange { method: M, insn: 0, reg: 5, num_regs: 4 },
        ),
        // ...and before its argument count.
        (
            rejects(4, 1, vec![call(1, vec![VReg(4); 9]), DexInsn::ReturnVoid]),
            VerifyError::RegisterOutOfRange { method: M, insn: 0, reg: 4, num_regs: 4 },
        ),
        // Instruction order wins over check order: insn 0's target is
        // reported although insn 1 has a bad register.
        (
            rejects(4, 1, vec![if_z(3, 7), konst(9), DexInsn::ReturnVoid]),
            VerifyError::BadBranchTarget { method: M, insn: 0, target: 7 },
        ),
        // The first offending switch target, in table order.
        (
            rejects(
                4,
                1,
                vec![
                    DexInsn::Switch { src: VReg(3), first_key: 0, targets: vec![1, 5, 9] },
                    DexInsn::ReturnVoid,
                ],
            ),
            VerifyError::BadBranchTarget { method: M, insn: 0, target: 5 },
        ),
        (
            rejects(4, 1, vec![call(77, vec![]), DexInsn::ReturnVoid]),
            VerifyError::BadMethodRef { method: M, insn: 0 },
        ),
        (
            rejects(
                4,
                1,
                vec![
                    konst(0),
                    DexInsn::NewInstance { dst: VReg(0), class: ClassId(9) },
                    DexInsn::ReturnVoid,
                ],
            ),
            VerifyError::BadClassRef { method: M, insn: 1 },
        ),
        (
            rejects(
                4,
                1,
                vec![
                    DexInsn::IPut { src: VReg(3), obj: VReg(3), field: FieldId(4) },
                    DexInsn::ReturnVoid,
                ],
            ),
            VerifyError::BadFieldRef { method: M, insn: 0 },
        ),
        (
            rejects(
                4,
                1,
                vec![DexInsn::SGet { dst: VReg(0), slot: StaticId(2) }, DexInsn::ReturnVoid],
            ),
            VerifyError::BadStaticRef { method: M, insn: 0 },
        ),
        (rejects(4, 1, vec![konst(0), if_z(0, 0)]), VerifyError::FallsOffEnd { method: M }),
        (rejects(4, 1, vec![]), VerifyError::EmptyBody { method: M }),
        (native_with_body, VerifyError::NativeWithBody { method: MethodId(0) }),
        (
            rejects(
                4,
                1,
                vec![
                    DexInsn::Switch { src: VReg(3), first_key: 0, targets: vec![] },
                    DexInsn::ReturnVoid,
                ],
            ),
            VerifyError::EmptySwitch { method: M, insn: 0 },
        ),
        (
            rejects(4, 1, vec![call(1, vec![VReg(3); 9]), DexInsn::ReturnVoid]),
            VerifyError::TooManyArgs { method: M, insn: 0, count: 9 },
        ),
        (
            rejects(4, 1, vec![call(0, vec![]), DexInsn::ReturnVoid]),
            VerifyError::WrongInvokeKind { method: M, insn: 0 },
        ),
        (
            rejects(
                4,
                1,
                vec![
                    DexInsn::InvokeNative { method: M, args: vec![], dst: None },
                    DexInsn::ReturnVoid,
                ],
            ),
            VerifyError::WrongInvokeKind { method: M, insn: 0 },
        ),
        // Only the trailing `num_args` registers are assigned at entry.
        (
            rejects(4, 2, vec![add(0, 2, 1), DexInsn::Return { src: VReg(0) }]),
            VerifyError::UninitializedRead { method: M, insn: 0, reg: 1 },
        ),
        // The one variant this suite did not outlive: it used to pass
        // verification and panic a compile worker. Reported before any
        // instruction is looked at.
        (
            rejects(1, 2, vec![konst(7), DexInsn::ReturnVoid]),
            VerifyError::ArgsExceedRegisters { method: M, num_args: 2, num_regs: 1 },
        ),
    ];
    let mut covered = [false; 14];
    for (index, (actual, expected)) in corpus.iter().enumerate() {
        assert_eq!(actual, expected, "corpus entry {index}");
        covered[variant_slot(actual)] = true;
    }
    assert!(covered.iter().all(|&c| c), "a VerifyError variant has no corpus entry: {covered:?}");
}

#[test]
fn diamond_join_reports_the_register_the_fall_through_arm_lacks() {
    // Both arms leave one operand of the join's add unassigned; which
    // one is blamed depends on which arm's state reaches the join first.
    let error = rejects(
        4,
        1,
        vec![
            if_z(3, 3),
            konst(0),
            DexInsn::Goto { target: 4 },
            konst(1),
            add(2, 0, 1),
            DexInsn::Return { src: VReg(2) },
        ],
    );
    assert_eq!(error, VerifyError::UninitializedRead { method: M, insn: 4, reg: 1 });
}

#[test]
fn loop_back_edge_shrinks_the_head_and_blames_the_exit_first() {
    // Entry jumps into the loop body past the initialisation of v0, so
    // the back edge carries a state without v0 to the head (insn 2,
    // which reads it) and to the exit (insn 5, which reads it too).
    let error = rejects(
        4,
        1,
        vec![
            if_z(3, 3),
            konst(0),
            DexInsn::Move { dst: VReg(1), src: VReg(0) },
            DexInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(3), lit: 1 },
            if_z(1, 2),
            DexInsn::Return { src: VReg(0) },
        ],
    );
    assert_eq!(error, VerifyError::UninitializedRead { method: M, insn: 5, reg: 0 });
}

#[test]
fn switch_fan_out_meets_three_arms_at_the_join() {
    // Each arm assigns a different register; the join reads all three.
    let error = rejects(
        4,
        1,
        vec![
            DexInsn::Switch { src: VReg(3), first_key: 0, targets: vec![3, 5, 3] },
            konst(0),
            DexInsn::Goto { target: 7 },
            konst(1),
            DexInsn::Goto { target: 7 },
            konst(2),
            DexInsn::Goto { target: 7 },
            add(0, 0, 1),
            DexInsn::Return { src: VReg(2) },
        ],
    );
    assert_eq!(error, VerifyError::UninitializedRead { method: M, insn: 7, reg: 1 });
}

#[test]
fn sixty_five_registers_meet_across_the_word_boundary() {
    // v64 (second state word) is assigned on both paths and survives the
    // meet; v63 (last bit of the first word) is assigned on one only.
    let error = rejects(
        65,
        0,
        vec![konst(64), if_z(64, 3), konst(63), add(0, 64, 63), DexInsn::Return { src: VReg(0) }],
    );
    assert_eq!(error, VerifyError::UninitializedRead { method: M, insn: 3, reg: 63 });
}
