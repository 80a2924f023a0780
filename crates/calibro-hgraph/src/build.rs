//! DEX bytecode -> HGraph construction (the `method -> HGraph` arrow of
//! the paper's Figure 5).

use calibro_dex::{DexInsn, Method};

use crate::graph::{BlockId, HBlock, HGraph, HInsn, HTerminator};

/// Builds the control-flow graph for one method.
///
/// Block leaders are: instruction 0, every branch target, and every
/// instruction following a block-ending instruction.
///
/// # Panics
///
/// Panics if called on a native method (no bytecode) — callers must
/// filter those, as `dex2oat` does.
#[must_use]
pub fn build_hgraph(method: &Method) -> HGraph {
    assert!(!method.is_native, "cannot build an HGraph for a native method");
    assert!(!method.insns.is_empty(), "method body is empty");
    let insns = &method.insns;
    let n = insns.len();

    // 1. Find leaders.
    let mut is_leader = vec![false; n];
    is_leader[0] = true;
    for (i, insn) in insns.iter().enumerate() {
        insn.for_each_branch_target(|t| is_leader[t] = true);
        if insn.is_block_end() && i + 1 < n {
            is_leader[i + 1] = true;
        }
    }

    // 2. Assign block ids by leader position.
    let mut block_of = vec![BlockId(0); n];
    let mut leaders = Vec::new();
    for (i, &lead) in is_leader.iter().enumerate() {
        if lead {
            leaders.push(i);
        }
        block_of[i] = BlockId(leaders.len() as u32 - 1);
    }

    // 3. Emit blocks.
    let mut blocks = Vec::with_capacity(leaders.len());
    for (bi, &start) in leaders.iter().enumerate() {
        let end = leaders.get(bi + 1).copied().unwrap_or(n);
        let id = BlockId(bi as u32);
        let mut body = Vec::new();
        let mut terminator = None;
        for (i, insn) in insns[start..end].iter().enumerate() {
            let at = start + i;
            let fallthrough = || {
                assert!(at + 1 < n, "verifier guarantees no fall-off-end");
                block_of[at + 1]
            };
            match insn {
                DexInsn::Goto { target } => {
                    terminator = Some(HTerminator::Goto { target: block_of[*target] });
                }
                DexInsn::If { cmp, a, b, target } => {
                    terminator = Some(HTerminator::If {
                        cmp: *cmp,
                        a: *a,
                        b: *b,
                        then_bb: block_of[*target],
                        else_bb: fallthrough(),
                    });
                }
                DexInsn::IfZ { cmp, a, target } => {
                    terminator = Some(HTerminator::IfZ {
                        cmp: *cmp,
                        a: *a,
                        then_bb: block_of[*target],
                        else_bb: fallthrough(),
                    });
                }
                DexInsn::Switch { src, first_key, targets } => {
                    terminator = Some(HTerminator::Switch {
                        src: *src,
                        first_key: *first_key,
                        targets: targets.iter().map(|&t| block_of[t]).collect(),
                        default: fallthrough(),
                    });
                }
                DexInsn::Return { src } => {
                    terminator = Some(HTerminator::Return { src: Some(*src) });
                }
                DexInsn::ReturnVoid => terminator = Some(HTerminator::Return { src: None }),
                DexInsn::Throw { src } => terminator = Some(HTerminator::Throw { src: *src }),
                DexInsn::Nop => {}
                DexInsn::Const { dst, value } => {
                    body.push(HInsn::Const { dst: *dst, value: *value });
                }
                DexInsn::Move { dst, src } => body.push(HInsn::Move { dst: *dst, src: *src }),
                DexInsn::Bin { op, dst, a, b } => {
                    body.push(HInsn::Bin { op: *op, dst: *dst, a: *a, b: *b });
                }
                DexInsn::BinLit { op, dst, a, lit } => {
                    body.push(HInsn::BinLit { op: *op, dst: *dst, a: *a, lit: *lit });
                }
                DexInsn::IGet { dst, obj, field } => {
                    body.push(HInsn::IGet { dst: *dst, obj: *obj, field: *field });
                }
                DexInsn::IPut { src, obj, field } => {
                    body.push(HInsn::IPut { src: *src, obj: *obj, field: *field });
                }
                DexInsn::SGet { dst, slot } => body.push(HInsn::SGet { dst: *dst, slot: *slot }),
                DexInsn::SPut { src, slot } => body.push(HInsn::SPut { src: *src, slot: *slot }),
                DexInsn::NewInstance { dst, class } => {
                    body.push(HInsn::NewInstance { dst: *dst, class: *class });
                }
                DexInsn::Invoke { kind, method, args, dst } => body.push(HInsn::Invoke {
                    kind: *kind,
                    method: *method,
                    args: args.clone(),
                    dst: *dst,
                }),
                DexInsn::InvokeNative { method, args, dst } => body.push(HInsn::InvokeNative {
                    method: *method,
                    args: args.clone(),
                    dst: *dst,
                }),
            }
        }
        // A block cut by a leader (no explicit terminator) falls through.
        let terminator = terminator.unwrap_or_else(|| {
            assert!(end < n, "verifier guarantees no fall-off-end");
            HTerminator::Goto { target: block_of[end] }
        });
        blocks.push(HBlock { id, insns: body, terminator });
    }

    HGraph { method: method.id, blocks, num_regs: method.num_regs, num_args: method.num_args }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_dex::{BinOp, ClassId, Cmp, MethodBuilder, VReg};

    #[test]
    fn straight_line_is_one_block() {
        let mut b = MethodBuilder::new("straight", 2, 1);
        b.push(DexInsn::Const { dst: VReg(0), value: 3 });
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        let g = build_hgraph(&b.build(ClassId(0)));
        assert_eq!(g.blocks.len(), 1);
        assert_eq!(g.blocks[0].insns.len(), 2);
        assert_eq!(g.blocks[0].terminator, HTerminator::Return { src: Some(VReg(0)) });
    }

    #[test]
    fn diamond_produces_four_blocks() {
        let mut b = MethodBuilder::new("diamond", 2, 1);
        let els = b.label();
        let end = b.label();
        b.if_z(Cmp::Eq, VReg(1), els);
        b.push(DexInsn::Const { dst: VReg(0), value: 1 });
        b.goto(end);
        b.bind(els);
        b.push(DexInsn::Const { dst: VReg(0), value: 2 });
        b.bind(end);
        b.push(DexInsn::Return { src: VReg(0) });
        let g = build_hgraph(&b.build(ClassId(0)));
        assert_eq!(g.blocks.len(), 4);
        match &g.blocks[0].terminator {
            HTerminator::IfZ { then_bb, else_bb, .. } => {
                assert_eq!(*then_bb, BlockId(2));
                assert_eq!(*else_bb, BlockId(1));
            }
            t => panic!("unexpected terminator {t:?}"),
        }
        // The else block falls into the join.
        assert_eq!(g.blocks[2].terminator, HTerminator::Goto { target: BlockId(3) });
    }

    #[test]
    fn loop_back_edge() {
        let mut b = MethodBuilder::new("loop", 2, 1);
        let top = b.label();
        let out = b.label();
        b.bind(top);
        b.if_z(Cmp::Le, VReg(1), out);
        b.push(DexInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(1), lit: -1 });
        b.goto(top);
        b.bind(out);
        b.push(DexInsn::ReturnVoid);
        let g = build_hgraph(&b.build(ClassId(0)));
        let preds = g.predecessors();
        // The loop head has two predecessors: entry fall-in is itself the
        // head here (block 0), so the body jumps back to it.
        assert!(preds[0].contains(&BlockId(1)));
    }

    #[test]
    fn switch_lowers_to_terminator() {
        let mut b = MethodBuilder::new("sw", 2, 1);
        let a0 = b.label();
        let end = b.label();
        b.switch(VReg(1), 5, &[a0, a0]);
        b.bind(a0);
        b.push(DexInsn::Const { dst: VReg(0), value: 1 });
        b.bind(end);
        b.push(DexInsn::ReturnVoid);
        let g = build_hgraph(&b.build(ClassId(0)));
        match &g.blocks[0].terminator {
            HTerminator::Switch { first_key, targets, default, .. } => {
                assert_eq!(*first_key, 5);
                assert_eq!(targets.len(), 2);
                assert_eq!(*default, BlockId(1));
            }
            t => panic!("unexpected terminator {t:?}"),
        }
        assert!(g.has_switch());
    }

    #[test]
    #[should_panic(expected = "native method")]
    fn native_methods_rejected() {
        let method = calibro_dex::Method {
            id: calibro_dex::MethodId(0),
            class: ClassId(0),
            name: "nat".into(),
            num_regs: 0,
            num_args: 0,
            insns: vec![],
            is_native: true,
        };
        let _ = build_hgraph(&method);
    }
}
