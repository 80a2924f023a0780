//! End-to-end tests: dex bytecode -> HGraph -> passes -> AArch64 ->
//! link -> execute, checked against the IR evaluator and direct
//! expectations. This is the substrate-correctness bedrock the outlining
//! experiments stand on.

use std::collections::HashMap;

use calibro_codegen::{compile_method, compile_native_stub, CodegenOptions};
use calibro_dex::{
    BinOp, Cmp, DexFile, DexInsn, InvokeKind, Method, MethodBuilder, MethodId, StaticId, VReg,
};
use calibro_hgraph::{build_hgraph, eval_pure, run_pipeline_with, EvalOutcome, PipelineConfig};
use calibro_oat::{link, LinkInput};
use calibro_runtime::{ExecOutcome, NativeMethod, Runtime, RuntimeEnv, ThrowKind};
use proptest::prelude::*;

/// Compiles a whole dex file and returns a loaded runtime.
fn boot(dex: &DexFile, cto: bool, env: &RuntimeEnv) -> Runtime {
    boot_with(dex, cto, env, &PipelineConfig::all())
}

/// [`boot`] with only the passes `passes` switches on.
fn boot_with(dex: &DexFile, cto: bool, env: &RuntimeEnv, passes: &PipelineConfig) -> Runtime {
    calibro_dex::verify(dex).expect("verify");
    let opts = CodegenOptions { cto, collect_metadata: true };
    let mut methods = Vec::new();
    for m in dex.methods() {
        if m.is_native {
            methods.push(compile_native_stub(m.id, &opts));
        } else {
            let mut graph = build_hgraph(m);
            run_pipeline_with(&mut graph, passes);
            calibro_hgraph::check(&graph).expect("graph check");
            methods.push(compile_method(&graph, &opts));
        }
    }
    let oat = link(LinkInput { methods, ..LinkInput::default() }, 0x4000_0000).expect("link");
    calibro_oat::validate_stack_maps(&oat).expect("stack maps");
    Runtime::new(&oat, env)
}

fn env_with_classes(dex: &DexFile) -> RuntimeEnv {
    RuntimeEnv {
        class_sizes: dex.classes().iter().map(calibro_dex::Class::instance_size).collect(),
        natives: HashMap::new(),
        statics: vec![0; dex.num_statics() as usize],
        icache: false,
    }
}

#[test]
fn fibonacci_runs_correctly() {
    // fib(n) via recursion: exercises calls, frames, stack checks.
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("fib", 4, 1);
    let recurse = b.label();
    b.push(DexInsn::Const { dst: VReg(0), value: 2 });
    b.if_cmp(Cmp::Ge, VReg(3), VReg(0), recurse);
    b.push(DexInsn::Return { src: VReg(3) });
    b.bind(recurse);
    b.push(DexInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(3), lit: -1 });
    b.push(DexInsn::Invoke {
        kind: InvokeKind::Static,
        method: MethodId(0),
        args: vec![VReg(1)],
        dst: Some(VReg(1)),
    });
    b.push(DexInsn::BinLit { op: BinOp::Add, dst: VReg(2), a: VReg(3), lit: -2 });
    b.push(DexInsn::Invoke {
        kind: InvokeKind::Static,
        method: MethodId(0),
        args: vec![VReg(2)],
        dst: Some(VReg(2)),
    });
    b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) });
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    for cto in [false, true] {
        let mut rt = boot(&dex, cto, &env);
        let inv = rt.call(MethodId(0), &[10], 1_000_000).unwrap();
        assert_eq!(inv.outcome, ExecOutcome::Returned(55), "cto={cto}");
    }
}

#[test]
fn objects_fields_and_statics() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Point", 2);
    dex.reserve_statics(1);
    // make_and_sum(a, b): p = new Point; p.f0 = a; p.f1 = b;
    //                     statics[0] = p.f0; return p.f0 + p.f1
    let mut b = MethodBuilder::new("make_and_sum", 6, 2);
    b.push(DexInsn::NewInstance { dst: VReg(0), class });
    b.push(DexInsn::IPut { src: VReg(4), obj: VReg(0), field: calibro_dex::FieldId(0) });
    b.push(DexInsn::IPut { src: VReg(5), obj: VReg(0), field: calibro_dex::FieldId(1) });
    b.push(DexInsn::IGet { dst: VReg(1), obj: VReg(0), field: calibro_dex::FieldId(0) });
    b.push(DexInsn::SPut { src: VReg(1), slot: StaticId(0) });
    b.push(DexInsn::IGet { dst: VReg(2), obj: VReg(0), field: calibro_dex::FieldId(1) });
    b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(3), a: VReg(1), b: VReg(2) });
    b.push(DexInsn::Return { src: VReg(3) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    for cto in [false, true] {
        let mut rt = boot(&dex, cto, &env);
        let inv = rt.call(MethodId(0), &[30, 12], 100_000).unwrap();
        assert_eq!(inv.outcome, ExecOutcome::Returned(42));
        assert_eq!(rt.static_value(0), 30);
        assert_eq!(rt.heap_allocs(), 1);
    }
}

#[test]
fn division_by_zero_throws() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("div", 3, 2);
    b.push(DexInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(2) });
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    for cto in [false, true] {
        let mut rt = boot(&dex, cto, &env);
        assert_eq!(
            rt.call(MethodId(0), &[10, 2], 100_000).unwrap().outcome,
            ExecOutcome::Returned(5)
        );
        assert_eq!(
            rt.call(MethodId(0), &[10, 0], 100_000).unwrap().outcome,
            ExecOutcome::Threw(ThrowKind::DivZero)
        );
    }
}

#[test]
fn null_receiver_throws() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 1);
    let mut b = MethodBuilder::new("deref", 2, 1);
    b.push(DexInsn::IGet { dst: VReg(0), obj: VReg(1), field: calibro_dex::FieldId(0) });
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    let mut rt = boot(&dex, false, &env);
    assert_eq!(
        rt.call(MethodId(0), &[0], 100_000).unwrap().outcome,
        ExecOutcome::Threw(ThrowKind::NullPointer)
    );
}

#[test]
fn explicit_throw_delivers_value() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("boom", 2, 1);
    b.push(DexInsn::Throw { src: VReg(1) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    let mut rt = boot(&dex, true, &env);
    assert_eq!(
        rt.call(MethodId(0), &[123], 100_000).unwrap().outcome,
        ExecOutcome::Threw(ThrowKind::Explicit(123))
    );
}

#[test]
fn native_methods_bridge_to_rust() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let native = dex.add_method(Method {
        id: MethodId(0),
        class,
        name: "nativeHash".into(),
        num_regs: 0,
        num_args: 2,
        insns: vec![],
        is_native: true,
    });
    let mut b = MethodBuilder::new("caller", 3, 2);
    b.push(DexInsn::InvokeNative {
        method: native,
        args: vec![VReg(1), VReg(2)],
        dst: Some(VReg(0)),
    });
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let mut env = env_with_classes(&dex);
    env.natives.insert(
        native.0,
        NativeMethod { arity: 2, func: |args| args[0].wrapping_mul(31).wrapping_add(args[1]) },
    );
    let mut rt = boot(&dex, false, &env);
    assert_eq!(rt.call(MethodId(1), &[3, 4], 100_000).unwrap().outcome, ExecOutcome::Returned(97));
}

#[test]
fn switch_dispatch() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("sw", 2, 1);
    let c10 = b.label();
    let c20 = b.label();
    let c30 = b.label();
    let end = b.label();
    b.switch(VReg(1), 5, &[c10, c20, c30]);
    b.push(DexInsn::Const { dst: VReg(0), value: -1 });
    b.goto(end);
    b.bind(c10);
    b.push(DexInsn::Const { dst: VReg(0), value: 10 });
    b.goto(end);
    b.bind(c20);
    b.push(DexInsn::Const { dst: VReg(0), value: 20 });
    b.goto(end);
    b.bind(c30);
    b.push(DexInsn::Const { dst: VReg(0), value: 30 });
    b.bind(end);
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    let mut rt = boot(&dex, false, &env);
    for (input, expected) in [(5, 10), (6, 20), (7, 30), (4, -1), (8, -1), (-5, -1)] {
        assert_eq!(
            rt.call(MethodId(0), &[input], 100_000).unwrap().outcome,
            ExecOutcome::Returned(expected),
            "switch({input})"
        );
    }
}

/// Constant folding resolves the branch, and no pass removes the block
/// it no longer reaches: the optimized graph keeps that block, and the
/// method still checks, compiles and runs exactly as its unoptimized
/// build does.
#[test]
fn a_block_a_folded_branch_no_longer_reaches_is_kept_and_harmless() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("f", 3, 1);
    let taken = b.label();
    b.push(DexInsn::Const { dst: VReg(0), value: 1 });
    b.if_z(Cmp::Ne, VReg(0), taken);
    b.push(DexInsn::BinLit { op: BinOp::Mul, dst: VReg(1), a: VReg(2), lit: 3 });
    b.push(DexInsn::Return { src: VReg(1) });
    b.bind(taken);
    b.push(DexInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(2), lit: 5 });
    b.push(DexInsn::Return { src: VReg(1) });
    dex.add_method(b.build(class));

    let mut graph = build_hgraph(&dex.methods()[0]);
    let stats = run_pipeline_with(&mut graph, &PipelineConfig::all());
    assert!(stats.folded > 0, "the branch folds");
    let mut reached = vec![false; graph.blocks.len()];
    let mut stack = vec![graph.entry()];
    while let Some(block) = stack.pop() {
        if !std::mem::replace(&mut reached[block.index()], true) {
            graph.blocks[block.index()].terminator.for_each_successor(|s| stack.push(s));
        }
    }
    assert!(reached.contains(&false), "a block is left unreached: {graph:?}");
    calibro_hgraph::check(&graph).expect("graph check");

    // `boot` compiles that same graph with `compile_method` and links it.
    let env = env_with_classes(&dex);
    for cto in [false, true] {
        let mut optimized = boot(&dex, cto, &env);
        let mut plain = boot_with(&dex, cto, &env, &PipelineConfig::none());
        for arg in [-7, 0, 4] {
            let a = optimized.call(MethodId(0), &[arg], 10_000).unwrap();
            let b = plain.call(MethodId(0), &[arg], 10_000).unwrap();
            assert_eq!(a.outcome, b.outcome, "cto={cto} arg={arg}");
            assert_eq!(a.outcome, ExecOutcome::Returned(arg + 5), "cto={cto} arg={arg}");
        }
    }
}

#[test]
fn deep_recursion_hits_the_stack_guard() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("infinite", 2, 1);
    b.push(DexInsn::Invoke {
        kind: InvokeKind::Static,
        method: MethodId(0),
        args: vec![VReg(1)],
        dst: Some(VReg(0)),
    });
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let env = env_with_classes(&dex);
    let mut rt = boot(&dex, false, &env);
    assert_eq!(
        rt.call(MethodId(0), &[1], 10_000_000).unwrap().outcome,
        ExecOutcome::Threw(ThrowKind::StackOverflow)
    );
}

// ---------------------------------------------------------------------
// Differential property test: random loop-free pure programs must behave
// identically under the IR evaluator and on the simulated hardware.
// ---------------------------------------------------------------------

const NUM_REGS: u16 = 6;
const NUM_ARGS: u16 = 2;

fn any_vreg() -> impl Strategy<Value = VReg> {
    (0..NUM_REGS).prop_map(VReg)
}

fn any_binop() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Add),
        Just(BinOp::Sub),
        Just(BinOp::Mul),
        Just(BinOp::Div),
        Just(BinOp::And),
        Just(BinOp::Or),
        Just(BinOp::Xor),
        Just(BinOp::Shl),
        Just(BinOp::Shr),
    ]
}

fn any_cmp() -> impl Strategy<Value = Cmp> {
    prop_oneof![
        Just(Cmp::Eq),
        Just(Cmp::Ne),
        Just(Cmp::Lt),
        Just(Cmp::Ge),
        Just(Cmp::Gt),
        Just(Cmp::Le),
    ]
}

fn body_insn() -> impl Strategy<Value = DexInsn> {
    prop_oneof![
        (any_vreg(), any::<i32>()).prop_map(|(dst, value)| DexInsn::Const { dst, value }),
        (any_vreg(), any_vreg()).prop_map(|(dst, src)| DexInsn::Move { dst, src }),
        (any_binop(), any_vreg(), any_vreg(), any_vreg())
            .prop_map(|(op, dst, a, b)| DexInsn::Bin { op, dst, a, b }),
        (any_binop(), any_vreg(), any_vreg(), any::<i16>())
            .prop_map(|(op, dst, a, lit)| DexInsn::BinLit { op, dst, a, lit }),
    ]
}

fn loop_free_program() -> impl Strategy<Value = Vec<DexInsn>> {
    (2usize..20)
        .prop_flat_map(|len| {
            (
                prop::collection::vec(body_insn(), len),
                prop::collection::vec((any_cmp(), any_vreg(), 1usize..6), len),
                prop::collection::vec(any::<bool>(), len),
                any_vreg(),
            )
        })
        .prop_map(|(body, branches, use_branch, ret)| {
            let len = body.len();
            // Prelude: define the non-argument registers, so arbitrary
            // reads below are definitely assigned (the verifier rejects
            // undefined reads). Branch targets shift by the prelude size.
            let prelude = (NUM_REGS - NUM_ARGS) as usize;
            let mut insns = Vec::with_capacity(prelude + len + 1);
            for r in 0..prelude {
                insns.push(DexInsn::Const { dst: VReg(r as u16), value: r as i32 * 3 - 5 });
            }
            for (i, insn) in body.into_iter().enumerate() {
                if use_branch[i] && i + branches[i].2 < len {
                    let (cmp, a, skip) = branches[i];
                    insns.push(DexInsn::IfZ { cmp, a, target: prelude + i + skip });
                } else {
                    insns.push(insn);
                }
            }
            insns.push(DexInsn::Return { src: ret });
            insns
        })
}

/// The differential check body: compile `insns` as a single loop-free
/// method and demand the simulated hardware agrees with the IR evaluator
/// on the unoptimized graph. Panics (which proptest catches and shrinks)
/// double as plain assertions for the promoted regression tests below.
fn assert_hardware_matches_ir(insns: Vec<DexInsn>, a0: i32, a1: i32, cto: bool) {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("prop", NUM_REGS, NUM_ARGS);
    for i in insns {
        b.push(i);
    }
    dex.add_method(b.build(class));

    // IR truth (on the *unoptimized* graph).
    let reference = build_hgraph(dex.method(MethodId(0)));
    let expected = eval_pure(&reference, &[a0, a1], 100_000).expect("pure");

    let env = env_with_classes(&dex);
    let mut rt = boot(&dex, cto, &env);
    let inv = rt.call(MethodId(0), &[a0, a1], 1_000_000).unwrap();
    let got = inv.outcome;
    match expected {
        EvalOutcome::Returned(Some(v)) => {
            assert_eq!(got, ExecOutcome::Returned(v));
        }
        EvalOutcome::Returned(None) => unreachable!("program always returns a value"),
        EvalOutcome::Threw(_) => {
            assert!(matches!(got, ExecOutcome::Threw(ThrowKind::DivZero)));
        }
        EvalOutcome::OutOfSteps => unreachable!("loop-free"),
    }
}

/// The prelude `loop_free_program` emits: define every non-argument
/// register so arbitrary reads pass the definite-assignment verifier.
fn regression_prelude() -> Vec<DexInsn> {
    (0..(NUM_REGS - NUM_ARGS) as usize)
        .map(|r| DexInsn::Const { dst: VReg(r as u16), value: r as i32 * 3 - 5 })
        .collect()
}

/// Promoted from `end_to_end.proptest-regressions`: a `BinLit` Add whose
/// result register was later overwritten exposed a dead-definition
/// mix-up between the evaluator and the generated code. The original
/// seed read `v0` before assignment — now rejected by the verifier — so
/// the standard prelude pins `v0 = -5` first; the interesting shape
/// (compute into v5, clobber v0 twice, return v5) is preserved.
#[test]
fn regression_binlit_result_survives_operand_clobber() {
    let mut insns = regression_prelude();
    insns.extend([
        DexInsn::BinLit { op: BinOp::Add, dst: VReg(5), a: VReg(0), lit: 4096 },
        DexInsn::Const { dst: VReg(0), value: 8110 },
        DexInsn::Const { dst: VReg(0), value: 617_426_783 },
        DexInsn::Return { src: VReg(5) },
    ]);
    assert_hardware_matches_ir(insns, 1_081_967_398, 1_234_685_687, true);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn hardware_matches_ir_semantics(
        insns in loop_free_program(),
        a0 in any::<i32>(),
        a1 in any::<i32>(),
        cto in any::<bool>(),
    ) {
        assert_hardware_matches_ir(insns, a0, a1, cto);
    }
}
