//! Return merging (listed among dex2oat's code-size optimizations):
//! duplicate return-only blocks are merged into one, so each method keeps
//! a single epilogue per distinct return shape.
//!
//! Both tables are dense: the canonical block per return shape is
//! indexed by the returned register, the alias map by [`BlockId`]. The
//! pass relies on `reg < num_regs` and in-range block ids (the verifier
//! and [`check`](crate::check) enforce both); on a hand-built graph a
//! register or block outside its table is never indexed — that block is
//! simply not merged.

use calibro_dex::VReg;

use crate::graph::{BlockId, HBlock, HGraph, HTerminator};

/// What a bodyless return block returns (`Some(None)` for return-void);
/// `None` for every other block.
fn return_shape(block: &HBlock) -> Option<Option<VReg>> {
    match block.terminator {
        HTerminator::Return { src } if block.insns.is_empty() => Some(src),
        _ => None,
    }
}

/// Runs the pass; returns the number of redirected edges. Duplicate
/// blocks become unreachable and are collected by
/// [`remove_unreachable`](crate::passes::dce::remove_unreachable).
pub fn run(graph: &mut HGraph) -> usize {
    // Most methods have a single epilogue: nothing to merge, no tables.
    if graph.blocks.iter().filter_map(return_shape).nth(1).is_none() {
        return 0;
    }
    // Canonical block per return shape: slot 0 is `return-void`, slot
    // `r + 1` is `return vr`.
    let mut canonical: Vec<Option<BlockId>> = vec![None; graph.num_regs as usize + 1];
    let mut alias: Vec<Option<BlockId>> = vec![None; graph.blocks.len()];
    let mut aliased = false;
    for block in &graph.blocks {
        let Some(src) = return_shape(block) else { continue };
        let shape = src.map_or(0, |r| r.0 as usize + 1);
        match (canonical.get_mut(shape), alias.get_mut(block.id.index())) {
            (Some(Some(keep)), Some(slot)) => {
                *slot = Some(*keep);
                aliased = true;
            }
            (Some(first @ None), _) => *first = Some(block.id),
            _ => {}
        }
    }
    if !aliased {
        return 0;
    }
    let mut changes = 0;
    let mut fix = |b: &mut BlockId| {
        if let Some(keep) = alias.get(b.index()).copied().flatten() {
            *b = keep;
            changes += 1;
        }
    };
    for block in &mut graph.blocks {
        match &mut block.terminator {
            HTerminator::Goto { target } => fix(target),
            HTerminator::If { then_bb, else_bb, .. }
            | HTerminator::IfZ { then_bb, else_bb, .. } => {
                fix(then_bb);
                fix(else_bb);
            }
            HTerminator::Switch { targets, default, .. } => {
                for t in targets {
                    fix(t);
                }
                fix(default);
            }
            _ => {}
        }
    }
    changes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::HInsn;
    use calibro_dex::{Cmp, MethodId};

    #[test]
    fn duplicate_returns_merge() {
        let ret = |id: u32| HBlock {
            id: BlockId(id),
            insns: vec![],
            terminator: HTerminator::Return { src: Some(VReg(0)) },
        };
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                ret(1),
                ret(2),
            ],
        };
        assert_eq!(run(&mut g), 1);
        match g.blocks[0].terminator {
            HTerminator::IfZ { then_bb, else_bb, .. } => {
                assert_eq!(then_bb, BlockId(1));
                assert_eq!(else_bb, BlockId(1), "second return redirected to the first");
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn distinct_return_values_stay_separate() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(1)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }

    #[test]
    fn blocks_with_bodies_are_not_merged() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Eq,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 1 }],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 2 }],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }
}
