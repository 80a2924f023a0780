//! Constant folding and propagation + static branch simplification
//! (per-block, as in dex2oat's per-method HGraph passes).
//!
//! Known values live in one register-indexed table allocated per run.
//! The pass relies on `reg < num_regs` (the verifier and
//! [`check`](crate::check) enforce it); a register outside the table
//! on a hand-built graph is never indexed — its value is simply never
//! known.

use calibro_dex::VReg;

use crate::eval::{eval_binop, eval_cmp};
use crate::graph::{HGraph, HInsn, HTerminator};

/// `known[r]` is the constant `r` holds at this point of the block, if
/// any. `touched` lists every slot that went from unknown to known since
/// the last reset, so moving to the next block costs O(touched), not
/// O(num_regs).
struct Known {
    known: Vec<Option<i32>>,
    touched: Vec<u16>,
}

impl Known {
    fn get(&self, r: VReg) -> Option<i32> {
        self.known.get(r.0 as usize).copied().flatten()
    }

    fn set(&mut self, r: VReg, value: i32) {
        if let Some(slot) = self.known.get_mut(r.0 as usize) {
            if slot.is_none() {
                self.touched.push(r.0);
            }
            *slot = Some(value);
        }
    }

    fn forget(&mut self, r: VReg) {
        if let Some(slot) = self.known.get_mut(r.0 as usize) {
            *slot = None;
        }
    }
}

/// Runs the pass; returns the number of instructions or terminators
/// rewritten.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    let mut known = Known { known: vec![None; graph.num_regs as usize], touched: Vec::new() };
    for block in &mut graph.blocks {
        for insn in &mut block.insns {
            let rewritten = match insn {
                HInsn::Const { dst, value } => {
                    known.set(*dst, *value);
                    continue;
                }
                HInsn::Move { dst, src } => known.get(*src).map(|v| (*dst, v)),
                HInsn::Bin { op, dst, a, b } => match (known.get(*a), known.get(*b)) {
                    (Some(va), Some(vb)) => eval_binop(*op, va, vb).map(|v| (*dst, v)),
                    _ => None,
                },
                HInsn::BinLit { op, dst, a, lit } => known
                    .get(*a)
                    .and_then(|va| eval_binop(*op, va, i32::from(*lit)))
                    .map(|v| (*dst, v)),
                _ => None,
            };
            match rewritten {
                Some((dst, value)) => {
                    *insn = HInsn::Const { dst, value };
                    known.set(dst, value);
                    changes += 1;
                }
                None => {
                    if let Some(dst) = insn.writes() {
                        known.forget(dst);
                    }
                }
            }
        }
        // Branch simplification on statically-known conditions.
        let new_term = match &block.terminator {
            HTerminator::If { cmp, a, b, then_bb, else_bb } => {
                match (known.get(*a), known.get(*b)) {
                    (Some(va), Some(vb)) => Some(HTerminator::Goto {
                        target: if eval_cmp(*cmp, va, vb) { *then_bb } else { *else_bb },
                    }),
                    _ => None,
                }
            }
            HTerminator::IfZ { cmp, a, then_bb, else_bb } => {
                known.get(*a).map(|va| HTerminator::Goto {
                    target: if eval_cmp(*cmp, va, 0) { *then_bb } else { *else_bb },
                })
            }
            HTerminator::Switch { src, first_key, targets, default } => known.get(*src).map(|v| {
                let idx = i64::from(v) - i64::from(*first_key);
                let target = if idx >= 0 && (idx as usize) < targets.len() {
                    targets[idx as usize]
                } else {
                    *default
                };
                HTerminator::Goto { target }
            }),
            _ => None,
        };
        if let Some(t) = new_term {
            block.terminator = t;
            changes += 1;
        }
        // Constants are block-local.
        for r in known.touched.drain(..) {
            known.known[r as usize] = None;
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock};
    use calibro_dex::{BinOp, Cmp, MethodId};

    fn graph(blocks: Vec<HBlock>, num_regs: u16) -> HGraph {
        HGraph { method: MethodId(0), blocks, num_regs, num_args: 0 }
    }

    #[test]
    fn folds_chains() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 6 },
                    HInsn::Const { dst: VReg(1), value: 7 },
                    HInsn::Bin { op: BinOp::Mul, dst: VReg(2), a: VReg(0), b: VReg(1) },
                    HInsn::BinLit { op: BinOp::Add, dst: VReg(2), a: VReg(2), lit: 1 },
                ],
                terminator: HTerminator::Return { src: Some(VReg(2)) },
            }],
            3,
        );
        let changes = run(&mut g);
        assert_eq!(changes, 2);
        assert_eq!(g.blocks[0].insns[2], HInsn::Const { dst: VReg(2), value: 42 });
        assert_eq!(g.blocks[0].insns[3], HInsn::Const { dst: VReg(2), value: 43 });
    }

    #[test]
    fn never_folds_division_by_zero() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 5 },
                    HInsn::Const { dst: VReg(1), value: 0 },
                    HInsn::Bin { op: BinOp::Div, dst: VReg(2), a: VReg(0), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(2)) },
            }],
            3,
        );
        run(&mut g);
        assert!(matches!(g.blocks[0].insns[2], HInsn::Bin { op: BinOp::Div, .. }));
    }

    #[test]
    fn simplifies_known_branches() {
        let mut g = graph(
            vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 0 }],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(0),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: None },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: None },
                },
            ],
            1,
        );
        run(&mut g);
        assert_eq!(g.blocks[0].terminator, HTerminator::Goto { target: BlockId(1) });
    }

    #[test]
    fn calls_kill_constants() {
        let mut g = graph(
            vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 1 },
                    HInsn::Invoke {
                        kind: calibro_dex::InvokeKind::Static,
                        method: MethodId(1),
                        args: vec![],
                        dst: Some(VReg(0)),
                    },
                    HInsn::BinLit { op: BinOp::Add, dst: VReg(1), a: VReg(0), lit: 1 },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
            2,
        );
        let changes = run(&mut g);
        assert_eq!(changes, 0, "value after call is unknown");
    }
}
