//! Shrunk reproducers for real divergences the conformance harness has
//! found, committed verbatim (modulo naming) from `conform --shrink`
//! output. Each asserts the divergence stays fixed; the matching seed
//! lines live in `corpus/regressions.txt`.

use calibro_conform::{check_program, find_variant, Program};
use calibro_dex::{BinOp, DexFile, DexInsn, Method, MethodId, VReg};
use calibro_workloads::{generators::standard_env, TraceCall};

/// Found by `conform --seeds 100` as `motif-app 42 plain/none/t1` and
/// shrunk to one method / five instructions: local CSE recorded the
/// self-overwriting `v2 = v2 + v4` in its available-expression table, so
/// the following `v0 = v2 + v4` — a *different* value, since the first
/// add destroyed its own operand — was folded into `Move v0 <- v2`. The
/// optimized baseline returned -2 where every unoptimized build
/// correctly returned 1.
#[test]
fn conform_repro_cse_self_overwrite() {
    let mut dex = DexFile::new();
    let class = dex.add_class("C0", 2);
    dex.reserve_statics(8);
    dex.add_method(Method {
        id: MethodId(0), // assigned by table position
        class,
        name: "m48".to_owned(),
        num_regs: 8,
        num_args: 2,
        is_native: false,
        insns: vec![
            DexInsn::Move { dst: VReg(4), src: VReg(6) },
            DexInsn::Const { dst: VReg(2), value: -5 },
            DexInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(2), b: VReg(4) },
            DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(4) },
            DexInsn::Return { src: VReg(0) },
        ],
    });
    let trace = vec![TraceCall { method: MethodId(0), args: [3, 7] }];
    let env = standard_env(&dex);
    let program = Program::from_parts("motif-app-42", dex, env, trace);
    let variant = find_variant("plain/none/t1").expect("known matrix row");
    check_program(&program, &[variant]).expect("divergence fixed");
}

/// The same program must agree across the whole matrix, not just the
/// row the divergence was found on.
#[test]
fn conform_repro_cse_self_overwrite_full_matrix() {
    let mut dex = DexFile::new();
    let class = dex.add_class("C0", 2);
    dex.reserve_statics(8);
    dex.add_method(Method {
        id: MethodId(0),
        class,
        name: "m48".to_owned(),
        num_regs: 8,
        num_args: 2,
        is_native: false,
        insns: vec![
            DexInsn::Move { dst: VReg(4), src: VReg(6) },
            DexInsn::Const { dst: VReg(2), value: -5 },
            DexInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(2), b: VReg(4) },
            DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(4) },
            DexInsn::Return { src: VReg(0) },
        ],
    });
    let trace = vec![TraceCall { method: MethodId(0), args: [3, 7] }];
    let env = standard_env(&dex);
    let program = Program::from_parts("motif-app-42", dex, env, trace);
    check_program(&program, &calibro_conform::full_matrix()).expect("agrees everywhere");
}
