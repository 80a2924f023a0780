//! LTBO correctness: outlined builds must be smaller, structurally
//! valid, and observationally identical to the baseline — on hand-built
//! programs and on randomized program suites.

use std::collections::{HashMap, HashSet};

use calibro::{build, BuildOptions, LtboMode};
use calibro_dex::{
    BinOp, Cmp, DexFile, DexInsn, FieldId, InvokeKind, MethodBuilder, MethodId, StaticId, VReg,
};
use calibro_runtime::{Runtime, RuntimeEnv};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn env_for(dex: &DexFile) -> RuntimeEnv {
    RuntimeEnv {
        class_sizes: dex.classes().iter().map(calibro_dex::Class::instance_size).collect(),
        natives: HashMap::new(),
        statics: vec![0; dex.num_statics() as usize],
        icache: false,
    }
}

/// A dex file with heavy cross-method redundancy: `n` methods sharing a
/// long straight-line motif.
fn redundant_dex(n: usize) -> DexFile {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 2);
    dex.reserve_statics(2);
    for i in 0..n {
        let mut b = MethodBuilder::new(format!("m{i}"), 6, 2);
        // Unique prefix so methods are not wholly identical.
        b.push(DexInsn::Const { dst: VReg(0), value: i as i32 });
        // Shared motif (12 instructions, no calls, no branches).
        for _ in 0..3 {
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(4), b: VReg(5) });
            b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(2), a: VReg(1), b: VReg(4) });
            b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(3), a: VReg(2), lit: 3 });
            b.push(DexInsn::Bin { op: BinOp::Sub, dst: VReg(1), a: VReg(3), b: VReg(2) });
        }
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    dex
}

#[test]
fn ltbo_shrinks_redundant_code() {
    let dex = redundant_dex(8);
    let baseline = build(&dex, &BuildOptions::baseline()).unwrap();
    let outlined = build(&dex, &BuildOptions::cto_ltbo()).unwrap();
    assert!(outlined.stats.ltbo.outlined_functions > 0);
    assert!(outlined.stats.ltbo.occurrences_replaced >= 8);
    assert!(
        outlined.oat.text_size_bytes() < baseline.oat.text_size_bytes(),
        "outlined {} >= baseline {}",
        outlined.oat.text_size_bytes(),
        baseline.oat.text_size_bytes()
    );
    calibro_oat::validate_stack_maps(&outlined.oat).unwrap();
}

#[test]
fn outlined_build_behaves_identically() {
    let dex = redundant_dex(8);
    let env = env_for(&dex);
    let baseline = build(&dex, &BuildOptions::baseline()).unwrap();
    let outlined = build(&dex, &BuildOptions::cto_ltbo()).unwrap();
    let mut rt_a = Runtime::new(&baseline.oat, &env);
    let mut rt_b = Runtime::new(&outlined.oat, &env);
    for m in 0..8u32 {
        for args in [[3, 4], [0, 0], [-5, 17]] {
            let a = rt_a.call(MethodId(m), &args, 100_000).unwrap();
            let b = rt_b.call(MethodId(m), &args, 100_000).unwrap();
            assert_eq!(a.outcome, b.outcome, "m{m} args {args:?}");
        }
    }
    assert_eq!(rt_a.heap_allocs(), rt_b.heap_allocs());
}

#[test]
fn parallel_mode_is_correct_but_may_miss_cross_group_repeats() {
    let dex = redundant_dex(12);
    let env = env_for(&dex);
    let global = build(&dex, &BuildOptions::cto_ltbo()).unwrap();
    let parallel = build(&dex, &BuildOptions::cto_ltbo_parallel(4, 2)).unwrap();
    // PlOpti never beats the global tree on size.
    assert!(parallel.oat.text_size_bytes() >= global.oat.text_size_bytes());
    // And still behaves identically.
    let mut rt = Runtime::new(&parallel.oat, &env);
    let inv = rt.call(MethodId(0), &[2, 3], 100_000).unwrap();
    let mut rt_base = Runtime::new(&build(&dex, &BuildOptions::baseline()).unwrap().oat, &env);
    let base = rt_base.call(MethodId(0), &[2, 3], 100_000).unwrap();
    assert_eq!(inv.outcome, base.outcome);
}

#[test]
fn hot_filtering_excludes_hot_bodies() {
    let dex = redundant_dex(8);
    let all_hot: HashSet<u32> = (0..8).collect();
    let unfiltered = build(&dex, &BuildOptions::cto_ltbo()).unwrap();
    let filtered = build(&dex, &BuildOptions::cto_ltbo().with_hot_filter(all_hot)).unwrap();
    // Methods have no slow paths here, so filtering everything disables
    // outlining entirely.
    assert_eq!(filtered.stats.ltbo.outlined_functions, 0);
    assert!(filtered.oat.text_size_bytes() > unfiltered.oat.text_size_bytes());
}

#[test]
fn hot_methods_still_outline_slow_paths() {
    // Methods whose only redundancy sits in division slow paths.
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    for i in 0..6 {
        let mut b = MethodBuilder::new(format!("d{i}"), 4, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: i });
        b.push(DexInsn::Bin { op: BinOp::Div, dst: VReg(1), a: VReg(2), b: VReg(3) });
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    let all_hot: HashSet<u32> = (0..6).collect();
    let filtered = build(&dex, &BuildOptions::cto_ltbo().with_hot_filter(all_hot)).unwrap();
    assert!(
        filtered.stats.ltbo.hot_restricted_methods == 6,
        "all methods restricted to slow paths"
    );
    // The slow paths are two instructions + guard; with min_len 2 they
    // repeat across methods — at least one outlined function when the
    // benefit model approves.
    let env = env_for(&dex);
    let mut rt = Runtime::new(&filtered.oat, &env);
    assert_eq!(
        rt.call(MethodId(0), &[10, 2], 100_000).unwrap().outcome,
        calibro_runtime::ExecOutcome::Returned(5)
    );
    assert!(matches!(
        rt.call(MethodId(1), &[10, 0], 100_000).unwrap().outcome,
        calibro_runtime::ExecOutcome::Threw(calibro_runtime::ThrowKind::DivZero)
    ));
}

#[test]
fn switch_methods_are_excluded() {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 0);
    let mut b = MethodBuilder::new("sw", 4, 1);
    let arm = b.label();
    let end = b.label();
    b.switch(VReg(3), 0, &[arm, arm]);
    b.bind(arm);
    // Redundant body inside the switch method.
    for _ in 0..8 {
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(3), b: VReg(3) });
        b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(1), a: VReg(0), b: VReg(3) });
    }
    b.bind(end);
    b.push(DexInsn::Return { src: VReg(0) });
    dex.add_method(b.build(class));

    let out = build(&dex, &BuildOptions::cto_ltbo()).unwrap();
    assert_eq!(out.stats.ltbo.excluded_methods, 1);
    assert_eq!(out.stats.ltbo.outlined_functions, 0);
}

// ---------------------------------------------------------------------
// Randomized differential suite.
// ---------------------------------------------------------------------

/// Generates a multi-method dex file with seeded redundancy: motifs are
/// drawn from a small pool so repeats occur across methods.
fn random_app(seed: u64, n_methods: usize) -> DexFile {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 3);
    dex.reserve_statics(4);

    // Motif pool: short straight-line snippets.
    let motif_pool: Vec<Vec<DexInsn>> = (0..6)
        .map(|k| {
            let mut rng = StdRng::seed_from_u64(1000 + k);
            (0..4 + k as usize % 3)
                .map(|_| {
                    let ops = [BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And, BinOp::Or];
                    DexInsn::Bin {
                        op: ops[rng.gen_range(0..ops.len())],
                        dst: VReg(rng.gen_range(0..4)),
                        a: VReg(rng.gen_range(0..6)),
                        b: VReg(rng.gen_range(0..6)),
                    }
                })
                .collect()
        })
        .collect();

    for i in 0..n_methods {
        let mut b = MethodBuilder::new(format!("m{i}"), 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: rng.gen_range(-100..100) });
        // Motifs read v0..v5 freely; seed the locals so every read is
        // definitely assigned (the verifier rejects undefined reads).
        for r in 1..4 {
            b.push(DexInsn::Const { dst: VReg(r), value: rng.gen_range(-10..10) });
        }
        let blocks = rng.gen_range(1..4);
        for _ in 0..blocks {
            // Optional guard.
            if rng.gen_bool(0.5) {
                let skip = b.label();
                b.if_z(Cmp::Lt, VReg(rng.gen_range(4..6)), skip);
                for insn in &motif_pool[rng.gen_range(0..motif_pool.len())] {
                    b.push(insn.clone());
                }
                b.bind(skip);
            } else {
                for insn in &motif_pool[rng.gen_range(0..motif_pool.len())] {
                    b.push(insn.clone());
                }
            }
            // Occasional heap/static traffic.
            if rng.gen_bool(0.3) {
                b.push(DexInsn::NewInstance { dst: VReg(1), class });
                b.push(DexInsn::IPut { src: VReg(0), obj: VReg(1), field: FieldId(0) });
                b.push(DexInsn::IGet { dst: VReg(2), obj: VReg(1), field: FieldId(0) });
                b.push(DexInsn::SPut { src: VReg(2), slot: StaticId(rng.gen_range(0..4)) });
            }
            // Call an earlier method (acyclic).
            if i > 0 && rng.gen_bool(0.4) {
                let callee = MethodId(rng.gen_range(0..i) as u32);
                b.push(DexInsn::Invoke {
                    kind: InvokeKind::Static,
                    method: callee,
                    args: vec![VReg(4), VReg(5)],
                    dst: Some(VReg(3)),
                });
                b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(3) });
            }
        }
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    dex
}

/// The suite body: every optimization level must behave identically to
/// the baseline on the random app for `seed`, across all ten methods.
/// Plain asserts so the promoted regression test below reuses it;
/// proptest catches the panics and shrinks.
fn assert_all_levels_equal(seed: u64, a0: i32, a1: i32) {
    let dex = random_app(seed, 10);
    let env = env_for(&dex);
    let baseline = build(&dex, &BuildOptions::baseline()).unwrap();
    let variants = [
        build(&dex, &BuildOptions::cto()).unwrap(),
        build(&dex, &BuildOptions::cto_ltbo()).unwrap(),
        build(&dex, &BuildOptions::cto_ltbo_parallel(3, 2)).unwrap(),
        build(
            &dex,
            &BuildOptions { cto: false, ltbo: Some(LtboMode::Global), ..BuildOptions::default() },
        )
        .unwrap(),
    ];
    let mut rt_base = Runtime::new(&baseline.oat, &env);
    let mut results = Vec::new();
    for m in 0..10u32 {
        results.push(rt_base.call(MethodId(m), &[a0, a1], 2_000_000).unwrap());
    }
    for (vi, variant) in variants.iter().enumerate() {
        calibro_oat::validate_stack_maps(&variant.oat).unwrap();
        let mut rt = Runtime::new(&variant.oat, &env);
        for m in 0..10u32 {
            let inv = rt.call(MethodId(m), &[a0, a1], 2_000_000).unwrap();
            assert_eq!(
                inv.outcome, results[m as usize].outcome,
                "variant {vi} method {m} seed {seed}"
            );
        }
        assert_eq!(rt.heap_allocs(), rt_base.heap_allocs());
        assert_eq!(
            rt.state_digest(),
            rt_base.state_digest(),
            "heap/static state diverged in variant {vi}"
        );
    }
}

/// Promoted from `ltbo_correctness.proptest-regressions`: the minimal
/// seed on which an early outlining bug diverged from the baseline.
/// Named and always-run so the case survives seed-file pruning.
#[test]
fn regression_seed_zero_all_levels_equal() {
    assert_all_levels_equal(0, 0, 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every optimization level behaves identically to the baseline on
    /// random multi-method apps, across methods and argument sets.
    #[test]
    fn all_levels_are_observationally_equal(seed in 0u64..5_000, a0 in -50i32..50, a1 in 1i32..50) {
        assert_all_levels_equal(seed, a0, a1);
    }
}
