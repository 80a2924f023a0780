//! Local copy propagation: within a block, uses of a copied register are
//! redirected to the copy source while the copy relation holds.
//!
//! The relation lives in one register-indexed table allocated per run.
//! The pass relies on `reg < num_regs` (the verifier and
//! [`check`](crate::check) enforce it); a register outside the table
//! on a hand-built graph is never indexed — it simply takes part in no
//! copy relation.

use calibro_dex::VReg;

use crate::graph::{HGraph, HInsn, HTerminator};

/// `copy_of[r] == s` means `r` currently holds the same value as `s`;
/// `copy_of[r] == r` means no relation. `copies` lists the registers
/// with a relation, so a write scans those instead of the whole table.
struct Copies {
    copy_of: Vec<u16>,
    copies: Vec<u16>,
}

impl Copies {
    fn resolve(&self, r: VReg) -> VReg {
        self.copy_of.get(r.0 as usize).map_or(r, |&s| VReg(s))
    }

    /// Forgets every relation `reg` takes part in, as copy or as source.
    fn kill(&mut self, reg: VReg) {
        let copy_of = &mut self.copy_of;
        self.copies.retain(|&d| {
            let stale = d == reg.0 || copy_of[d as usize] == reg.0;
            if stale {
                copy_of[d as usize] = d;
            }
            !stale
        });
    }

    fn record(&mut self, dst: VReg, src: VReg) {
        if let Some(slot) = self.copy_of.get_mut(dst.0 as usize) {
            *slot = src.0;
            self.copies.push(dst.0);
        }
    }
}

/// Runs the pass; returns the number of operand replacements.
pub fn run(graph: &mut HGraph) -> usize {
    let mut changes = 0;
    let mut rel = Copies { copy_of: (0..graph.num_regs).collect(), copies: Vec::new() };
    for block in &mut graph.blocks {
        for insn in &mut block.insns {
            // Rewrite reads first.
            changes += rewrite_reads(insn, |r| rel.resolve(r));
            // Then update the relation for the write.
            match insn {
                HInsn::Move { dst, src } if dst != src => {
                    rel.kill(*dst);
                    rel.record(*dst, *src);
                }
                _ => {
                    if let Some(dst) = insn.writes() {
                        rel.kill(dst);
                    }
                }
            }
        }
        changes += rewrite_terminator_reads(&mut block.terminator, |r| rel.resolve(r));
        // The relation is block-local.
        for d in rel.copies.drain(..) {
            rel.copy_of[d as usize] = d;
        }
    }
    changes
}

fn rewrite_reads(insn: &mut HInsn, resolve: impl Fn(VReg) -> VReg) -> usize {
    let mut n = 0;
    let mut fix = |r: &mut VReg| {
        let to = resolve(*r);
        if to != *r {
            *r = to;
            n += 1;
        }
    };
    match insn {
        HInsn::Move { src, .. } => fix(src),
        HInsn::Bin { a, b, .. } => {
            fix(a);
            fix(b);
        }
        HInsn::BinLit { a, .. } => fix(a),
        HInsn::IGet { obj, .. } => fix(obj),
        HInsn::IPut { src, obj, .. } => {
            fix(src);
            fix(obj);
        }
        HInsn::SPut { src, .. } => fix(src),
        HInsn::Invoke { args, .. } | HInsn::InvokeNative { args, .. } => {
            for a in args {
                fix(a);
            }
        }
        _ => {}
    }
    n
}

fn rewrite_terminator_reads(term: &mut HTerminator, resolve: impl Fn(VReg) -> VReg) -> usize {
    let mut n = 0;
    let mut fix = |r: &mut VReg| {
        let to = resolve(*r);
        if to != *r {
            *r = to;
            n += 1;
        }
    };
    match term {
        HTerminator::If { a, b, .. } => {
            fix(a);
            fix(b);
        }
        HTerminator::IfZ { a, .. } | HTerminator::Switch { src: a, .. } => fix(a),
        HTerminator::Return { src: Some(a) } | HTerminator::Throw { src: a } => fix(a),
        _ => {}
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock};
    use calibro_dex::{BinOp, MethodId};

    #[test]
    fn propagates_through_uses() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Move { dst: VReg(0), src: VReg(2) },
                    HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(0), b: VReg(0) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 2);
        assert_eq!(
            g.blocks[0].insns[1],
            HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(2), b: VReg(2) }
        );
    }

    #[test]
    fn redefinition_kills_the_relation() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Move { dst: VReg(0), src: VReg(2) },
                    HInsn::Const { dst: VReg(2), value: 9 }, // source overwritten
                    HInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(0), b: VReg(0) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 0, "copy must not survive source redefinition");
    }

    #[test]
    fn terminator_reads_are_rewritten() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![HInsn::Move { dst: VReg(0), src: VReg(1) }],
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        };
        let changes = run(&mut g);
        assert_eq!(changes, 1);
        assert_eq!(g.blocks[0].terminator, HTerminator::Return { src: Some(VReg(1)) });
    }
}
