//! Local common-subexpression elimination (dex2oat lists global CSE; this
//! reproduction implements the per-block variant over pure expressions).
//!
//! The available-expression table is a plain list, cleared per block: it
//! never holds more than one block's expressions, and every write
//! already walks all of it to invalidate, so a lookup that walks it too
//! costs nothing a hash would save.

use calibro_dex::{BinOp, VReg};

use crate::graph::{HGraph, HInsn};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Expr {
    Bin(BinOp, VReg, VReg),
    BinLit(BinOp, VReg, i16),
}

/// Runs the pass; returns the number of expressions replaced by moves.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    // (expr, register currently holding its value); one entry per expr.
    let mut available: Vec<(Expr, VReg)> = Vec::new();
    for block in &mut graph.blocks {
        available.clear();
        for insn in &mut block.insns {
            let expr = match insn {
                HInsn::Bin { op, a, b, .. } if !matches!(op, BinOp::Div) => {
                    Some(Expr::Bin(*op, *a, *b))
                }
                HInsn::BinLit { op, a, lit, .. } if !matches!(op, BinOp::Div) => {
                    Some(Expr::BinLit(*op, *a, *lit))
                }
                _ => None,
            };
            if let (Some(expr), Some(dst)) = (expr, insn.writes()) {
                if let Some(&(_, holder)) = available.iter().find(|(e, _)| *e == expr) {
                    if holder != dst {
                        *insn = HInsn::Move { dst, src: holder };
                        changes += 1;
                    }
                    invalidate(&mut available, dst);
                    // After `dst = holder`, dst holds the expression too,
                    // but keeping a single holder is simpler and sound.
                    continue;
                }
                invalidate(&mut available, dst);
                // A self-overwriting expression (dst is one of its own
                // operands, e.g. `v2 = v2 + v4`) must not be recorded:
                // the table entry would describe the pre-instruction
                // operand value, which this instruction just destroyed.
                let reads_dst = match expr {
                    Expr::Bin(_, a, b) => a == dst || b == dst,
                    Expr::BinLit(_, a, _) => a == dst,
                };
                if !reads_dst {
                    available.push((expr, dst));
                }
            } else if let Some(dst) = insn.writes() {
                invalidate(&mut available, dst);
            }
        }
    }
    changes
}

/// Drops every expression that reads or is held in `reg`.
fn invalidate(available: &mut Vec<(Expr, VReg)>, reg: VReg) {
    available.retain(|(expr, holder)| {
        if *holder == reg {
            return false;
        }
        match expr {
            Expr::Bin(_, a, b) => *a != reg && *b != reg,
            Expr::BinLit(_, a, _) => *a != reg,
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HTerminator};
    use calibro_dex::MethodId;

    fn one_block(insns: Vec<HInsn>, num_regs: u16) -> HGraph {
        HGraph {
            method: MethodId(0),
            num_regs,
            num_args: 2,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns,
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        }
    }

    #[test]
    fn duplicate_expression_becomes_move() {
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) },
                HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 1);
        assert_eq!(g.blocks[0].insns[1], HInsn::Move { dst: VReg(1), src: VReg(0) });
    }

    #[test]
    fn operand_redefinition_invalidates() {
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) },
                HInsn::Const { dst: VReg(2), value: 5 },
                HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn holder_redefinition_invalidates() {
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) },
                HInsn::Const { dst: VReg(0), value: 5 },
                HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn division_is_not_cse_candidate() {
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(2), b: VReg(3) },
                HInsn::Bin { op: BinOp::Div, dst: VReg(1), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0, "division can throw; must not be merged");
    }

    #[test]
    fn self_overwriting_expression() {
        // dst equals an operand: x0 = x0 + x1 twice must NOT fold — the
        // second computes a different value.
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(2), b: VReg(3) },
                HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn self_overwriting_expression_is_not_recorded() {
        // Found by the conformance harness (motif-app seed 42, shrunk):
        // `v2 = v2 + v4; v0 = v2 + v4` — the first add destroys its own
        // operand, so the second is a DIFFERENT value and must stay a
        // real add, not become `Move v0 <- v2`.
        let mut g = one_block(
            vec![
                HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(2), b: VReg(3) },
                HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0);
        assert_eq!(
            g.blocks[0].insns[1],
            HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(2), b: VReg(3) }
        );

        // Same for the literal form.
        let mut g = one_block(
            vec![
                HInsn::BinLit { op: BinOp::Add, dst: VReg(2), a: VReg(2), lit: 7 },
                HInsn::BinLit { op: BinOp::Add, dst: VReg(0), a: VReg(2), lit: 7 },
            ],
            4,
        );
        assert_eq!(run(&mut g), 0);
    }
}
