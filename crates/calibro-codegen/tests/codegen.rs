//! Tests for code generation: ART pattern emission, CTO substitution,
//! and LTBO.1 metadata correctness.

use calibro_codegen::{
    compile_method, compile_native_stub, layout, thunk_code, CallTarget, CodegenOptions,
    CompiledMethod, ThunkKind,
};
use calibro_dex::{BinOp, ClassId, Cmp, DexInsn, InvokeKind, MethodBuilder, MethodId, VReg};
use calibro_hgraph::build_hgraph;
use calibro_isa::{Insn, Reg};

fn opts_baseline() -> CodegenOptions {
    CodegenOptions { cto: false, collect_metadata: true }
}

fn opts_cto() -> CodegenOptions {
    CodegenOptions { cto: true, collect_metadata: true }
}

fn compile(
    insns: Vec<DexInsn>,
    num_regs: u16,
    num_args: u16,
    opts: &CodegenOptions,
) -> CompiledMethod {
    let mut b = MethodBuilder::new("t", num_regs, num_args);
    for i in insns {
        b.push(i);
    }
    let graph = build_hgraph(&b.build(ClassId(0)));
    compile_method(&graph, opts)
}

fn caller_body() -> Vec<DexInsn> {
    vec![
        DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(1),
            args: vec![VReg(1)],
            dst: Some(VReg(0)),
        },
        DexInsn::Return { src: VReg(0) },
    ]
}

/// Counts consecutive instruction pairs matching the Figure 4a pattern.
fn count_java_call_pattern(code: &[Insn]) -> usize {
    code.windows(2)
        .filter(|w| {
            matches!(
                w[0],
                Insn::LdrImm { wide: true, rt, rn, offset }
                    if rt == Reg::LR && rn == Reg::X0 && offset == layout::ART_METHOD_ENTRY_OFFSET
            ) && matches!(w[1], Insn::Blr { rn } if rn == Reg::LR)
        })
        .count()
}

fn count_stack_check_pattern(code: &[Insn]) -> usize {
    code.windows(2)
        .filter(|w| {
            matches!(w[0], Insn::SubImm { rd, rn, imm12, shift12: true, .. }
                if rd == Reg::X16 && rn == Reg::SP && imm12 == 2)
                && matches!(w[1], Insn::LdrImm { wide: false, rt, rn, offset: 0 }
                    if rt == Reg::ZR && rn == Reg::X16)
        })
        .count()
}

#[test]
fn baseline_emits_figure_4a_and_4c_patterns() {
    let m = compile(caller_body(), 2, 1, &opts_baseline());
    assert_eq!(count_java_call_pattern(&m.insns), 1, "one Java call pattern");
    assert_eq!(count_stack_check_pattern(&m.insns), 1, "non-leaf prologue check");
    assert!(
        m.relocs.iter().all(|r| !matches!(r.target, CallTarget::Thunk(_))),
        "no thunk relocs in baseline"
    );
}

#[test]
fn cto_replaces_patterns_with_thunk_calls() {
    let m = compile(caller_body(), 2, 1, &opts_cto());
    assert_eq!(count_java_call_pattern(&m.insns), 0);
    assert_eq!(count_stack_check_pattern(&m.insns), 0);
    let thunks: Vec<ThunkKind> = m
        .relocs
        .iter()
        .filter_map(|r| match r.target {
            CallTarget::Thunk(t) => Some(t),
            _ => None,
        })
        .collect();
    assert!(thunks.contains(&ThunkKind::JavaEntry));
    assert!(thunks.contains(&ThunkKind::StackCheck));
}

#[test]
fn cto_code_is_smaller() {
    let baseline = compile(caller_body(), 2, 1, &opts_baseline());
    let cto = compile(caller_body(), 2, 1, &opts_cto());
    // Each pattern is 2 insns -> 1 bl; two patterns here.
    assert_eq!(baseline.insns.len() - cto.insns.len(), 2);
}

#[test]
fn leaf_methods_skip_the_stack_check() {
    let leaf = vec![
        DexInsn::BinLit { op: BinOp::Add, dst: VReg(0), a: VReg(1), lit: 1 },
        DexInsn::Return { src: VReg(0) },
    ];
    let m = compile(leaf, 2, 1, &opts_baseline());
    assert_eq!(count_stack_check_pattern(&m.insns), 0);
}

#[test]
fn allocation_emits_runtime_call_pattern() {
    let body = vec![
        DexInsn::NewInstance { dst: VReg(0), class: ClassId(0) },
        DexInsn::Return { src: VReg(0) },
    ];
    let m = compile(body, 1, 0, &opts_baseline());
    let has_pattern = m.insns.windows(2).any(|w| {
        matches!(w[0], Insn::LdrImm { wide: true, rt, rn, offset }
            if rt == Reg::LR && rn == Reg::X19 && offset == layout::EP_ALLOC_OBJECT)
            && matches!(w[1], Insn::Blr { rn } if rn == Reg::LR)
    });
    assert!(has_pattern, "Figure 4b pattern for pAllocObjectResolved");
}

#[test]
fn division_produces_slow_path_metadata() {
    let body = vec![
        DexInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(2) },
        DexInsn::Return { src: VReg(0) },
    ];
    let m = compile(body, 3, 2, &opts_baseline());
    assert_eq!(m.tables.slow_paths().len(), 1);
    let [start, end] = m.tables.slow_paths()[0];
    assert!(end > start);
    // The slow path calls the div-zero entrypoint.
    let slow = &m.insns[start as usize..end as usize];
    assert!(slow.iter().any(|i| matches!(
        i,
        Insn::LdrImm { rn, offset, .. } if *rn == Reg::X19 && *offset == layout::EP_THROW_DIV_ZERO
    )));
    // And ends before a Brk guard boundary recorded as terminator.
    assert!(m.tables.terminators().iter().any(|&t| t == end - 1 || t == end));
}

#[test]
fn switch_sets_indirect_jump_flag() {
    let mut b = MethodBuilder::new("sw", 2, 1);
    let a0 = b.label();
    let a1 = b.label();
    let end = b.label();
    b.switch(VReg(1), 0, &[a0, a1]);
    b.bind(a0);
    b.push(DexInsn::Const { dst: VReg(0), value: 1 });
    b.goto(end);
    b.bind(a1);
    b.push(DexInsn::Const { dst: VReg(0), value: 2 });
    b.bind(end);
    b.push(DexInsn::Return { src: VReg(0) });
    let graph = build_hgraph(&b.build(ClassId(0)));
    let m = compile_method(&graph, &opts_baseline());
    assert!(m.tables.has_indirect_jump());
    assert!(m.insns.iter().any(|i| i.is_indirect_jump()));
}

#[test]
fn pc_rel_metadata_covers_every_internal_branch() {
    let body = vec![
        DexInsn::IfZ { cmp: Cmp::Eq, a: VReg(1), target: 3 },
        DexInsn::Const { dst: VReg(0), value: 1 },
        DexInsn::Goto { target: 4 },
        DexInsn::Const { dst: VReg(0), value: 2 },
        DexInsn::Return { src: VReg(0) },
    ];
    let m = compile(body, 2, 1, &opts_baseline());
    for (idx, insn) in m.insns.iter().enumerate() {
        if insn.is_pc_relative() && !insn.is_call() {
            let &[_, target] = m
                .tables
                .pc_rel()
                .iter()
                .find(|&&[at, _]| at as usize == idx)
                .unwrap_or_else(|| panic!("unrecorded PC-relative insn at {idx}: {insn}"));
            // The recorded target matches the instruction's offset.
            let expected = (target as i64 - idx as i64) * 4;
            assert_eq!(insn.pc_rel_offset(), Some(expected));
        }
    }
}

#[test]
fn terminator_metadata_matches_code() {
    let m = compile(caller_body(), 2, 1, &opts_baseline());
    for (idx, insn) in m.insns.iter().enumerate() {
        let recorded = m.tables.terminators().contains(&(idx as u32));
        let expected = insn.is_terminator() || matches!(insn, Insn::Brk { .. });
        assert_eq!(recorded, expected, "at {idx}: {insn}");
    }
}

#[test]
fn dual_half_constants_use_the_literal_pool() {
    let body =
        vec![DexInsn::Const { dst: VReg(0), value: 0x1234_5678 }, DexInsn::Return { src: VReg(0) }];
    let m = compile(body, 1, 0, &opts_baseline());
    assert_eq!(m.pool[..], [0x1234_5678]);
    assert_eq!(m.tables.embedded_data(), [[m.insns.len() as u32, 1]]);
    // An LdrLit points at the pool word.
    let lit = m
        .insns
        .iter()
        .enumerate()
        .find(|(_, i)| matches!(i, Insn::LdrLit { .. }))
        .expect("literal load");
    let &[_, target] = m
        .tables
        .pc_rel()
        .iter()
        .find(|&&[at, _]| at as usize == lit.0)
        .expect("pool pc-rel record");
    assert_eq!(target as usize, m.insns.len(), "target is the first pool word");
}

#[test]
fn stack_maps_follow_calls() {
    let m = compile(caller_body(), 2, 1, &opts_baseline());
    assert!(!m.tables.stack_maps().is_empty());
    for &[native_offset, _] in m.tables.stack_maps() {
        let word = (native_offset / 4) as usize;
        assert!(word > 0 && word <= m.insns.len());
        assert!(m.insns[word - 1].is_call(), "stack map not after a call");
    }
}

#[test]
fn native_stub_is_flagged_and_bridges() {
    let m = compile_native_stub(MethodId(7), &opts_baseline());
    assert!(m.tables.is_native_stub());
    assert!(m.insns.iter().any(|i| matches!(
        i,
        Insn::LdrImm { rn, offset, .. } if *rn == Reg::X19 && *offset == layout::EP_NATIVE_BRIDGE
    )));
    assert!(matches!(m.insns.last(), Some(Insn::Ret { .. })));
}

#[test]
fn thunks_are_bl_compatible() {
    // Every thunk must neither write x30 (so the bl return address
    // survives) nor touch sp.
    for kind in [
        ThunkKind::JavaEntry,
        ThunkKind::RuntimeEntry(layout::EP_ALLOC_OBJECT),
        ThunkKind::StackCheck,
    ] {
        let code = thunk_code(kind);
        for insn in &code {
            assert!(!insn.writes_lr(), "{kind:?}: {insn} clobbers lr");
        }
        // Ends in an indirect branch (tail call or return).
        assert!(matches!(code.last(), Some(Insn::Br { .. })));
    }
}

#[test]
fn generated_code_encodes_and_decodes() {
    let bodies: Vec<Vec<DexInsn>> = vec![
        caller_body(),
        vec![
            DexInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(2) },
            DexInsn::Return { src: VReg(0) },
        ],
        vec![DexInsn::Const { dst: VReg(0), value: 0x7fff_fff1 }, DexInsn::Return { src: VReg(0) }],
    ];
    for body in bodies {
        let m = compile(body, 3, 2, &opts_baseline());
        for insn in m.insns.iter() {
            let word = insn.encode().unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(calibro_isa::decode(word).unwrap(), *insn);
        }
    }
}

#[test]
fn spilled_registers_roundtrip_through_the_frame() {
    // 12 virtual registers forces frame slots for v8..v11.
    let body = vec![
        DexInsn::Const { dst: VReg(9), value: 7 },
        DexInsn::BinLit { op: BinOp::Add, dst: VReg(10), a: VReg(9), lit: 1 },
        DexInsn::Return { src: VReg(10) },
    ];
    let m = compile(body, 12, 1, &opts_baseline());
    // Spill stores and reloads must exist.
    assert!(m.insns.iter().any(|i| matches!(i, Insn::StrImm { rn, .. } if rn.is_reg31())));
    assert!(m.insns.iter().any(|i| matches!(i, Insn::LdrImm { rn, .. } if rn.is_reg31() )));
}
