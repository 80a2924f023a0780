//! Instruction simplification and strength reduction (dex2oat's
//! "strength reduction" family): algebraic identities on binary ops.

use calibro_dex::{BinOp, VReg};

use crate::graph::{HGraph, HInsn};

/// Runs the pass; returns the number of simplified instructions.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    for block in &mut graph.blocks {
        for insn in &mut block.insns {
            if let Some(simpler) = simplify(insn) {
                *insn = simpler;
                changes += 1;
            }
        }
    }
    changes
}

fn simplify(insn: &HInsn) -> Option<HInsn> {
    match *insn {
        HInsn::BinLit { op, dst, a, lit } => match (op, lit) {
            // x * 2^k  ->  x << k (the canonical strength reduction).
            (BinOp::Mul, l) if l > 1 && (l as u16).is_power_of_two() => Some(HInsn::BinLit {
                op: BinOp::Shl,
                dst,
                a,
                lit: i16::from((l as u16).trailing_zeros() as u8),
            }),
            (BinOp::Mul, 1) => Some(HInsn::Move { dst, src: a }),
            (BinOp::Mul, 0) => Some(HInsn::Const { dst, value: 0 }),
            (BinOp::Add | BinOp::Sub | BinOp::Or | BinOp::Xor | BinOp::Shl | BinOp::Shr, 0) => {
                Some(HInsn::Move { dst, src: a })
            }
            (BinOp::And, 0) => Some(HInsn::Const { dst, value: 0 }),
            (BinOp::And, -1) => Some(HInsn::Move { dst, src: a }),
            (BinOp::Div, 1) => Some(HInsn::Move { dst, src: a }),
            _ => None,
        },
        HInsn::Bin { op, dst, a, b } if a == b => match op {
            // x - x == 0, x ^ x == 0.
            BinOp::Sub | BinOp::Xor => Some(HInsn::Const { dst, value: 0 }),
            // x & x == x | x == x.
            BinOp::And | BinOp::Or => Some(HInsn::Move { dst, src: a }),
            _ => None,
        },
        HInsn::Move { dst, src } if dst == src => {
            // A self-move is a nop; turn it into a Const? No — drop is
            // DCE's job; rewrite into a no-op-equivalent is not smaller.
            None
        }
        _ => None,
    }
    .filter(|s| s != insn)
}

/// Convenience for tests: the register the instruction defines.
#[allow(dead_code)]
fn defined(insn: &HInsn) -> Option<VReg> {
    insn.writes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HTerminator};
    use calibro_dex::MethodId;

    fn apply(insn: HInsn) -> HInsn {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 4,
            num_args: 2,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![insn],
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        };
        run(&mut g);
        g.blocks[0].insns[0].clone()
    }

    #[test]
    fn multiply_by_power_of_two_becomes_shift() {
        let out = apply(HInsn::BinLit { op: BinOp::Mul, dst: VReg(0), a: VReg(2), lit: 8 });
        assert_eq!(out, HInsn::BinLit { op: BinOp::Shl, dst: VReg(0), a: VReg(2), lit: 3 });
    }

    #[test]
    fn additive_identities() {
        let out = apply(HInsn::BinLit { op: BinOp::Add, dst: VReg(0), a: VReg(2), lit: 0 });
        assert_eq!(out, HInsn::Move { dst: VReg(0), src: VReg(2) });
        let out = apply(HInsn::BinLit { op: BinOp::Mul, dst: VReg(0), a: VReg(2), lit: 0 });
        assert_eq!(out, HInsn::Const { dst: VReg(0), value: 0 });
        let out = apply(HInsn::BinLit { op: BinOp::And, dst: VReg(0), a: VReg(2), lit: -1 });
        assert_eq!(out, HInsn::Move { dst: VReg(0), src: VReg(2) });
    }

    #[test]
    fn same_operand_folds() {
        let out = apply(HInsn::Bin { op: BinOp::Xor, dst: VReg(0), a: VReg(2), b: VReg(2) });
        assert_eq!(out, HInsn::Const { dst: VReg(0), value: 0 });
        let out = apply(HInsn::Bin { op: BinOp::Or, dst: VReg(0), a: VReg(2), b: VReg(2) });
        assert_eq!(out, HInsn::Move { dst: VReg(0), src: VReg(2) });
    }

    #[test]
    fn negative_multiplier_untouched() {
        // -32768 as u16 is a power of two bit pattern; must not trigger.
        let insn = HInsn::BinLit { op: BinOp::Mul, dst: VReg(0), a: VReg(2), lit: i16::MIN };
        assert_eq!(apply(insn.clone()), insn);
        let insn = HInsn::BinLit { op: BinOp::Mul, dst: VReg(0), a: VReg(2), lit: -4 };
        assert_eq!(apply(insn.clone()), insn);
    }

    #[test]
    fn division_by_one_is_safe_to_elide() {
        let out = apply(HInsn::BinLit { op: BinOp::Div, dst: VReg(0), a: VReg(2), lit: 1 });
        assert_eq!(out, HInsn::Move { dst: VReg(0), src: VReg(2) });
    }
}
