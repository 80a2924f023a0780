//! Global dead-code elimination via backward liveness dataflow —
//! dex2oat's dead-code elimination. Blocks a folded branch no longer
//! reaches are left in place: codegen emits them and nothing jumps to
//! them.
//!
//! Liveness is a dense bitset dataflow: block `b`'s set is the
//! `words = ceil(num_regs / 64)` words at `b * words` of one flat
//! `Vec<u64>`. The pass relies on `reg < num_regs` (the verifier and
//! [`check`](crate::check) enforce it); a register outside the bitset
//! on a hand-built graph is never indexed — it is treated as always
//! live, so nothing that writes it is removed.

use calibro_dex::VReg;

use crate::graph::HGraph;

fn set(bits: &mut [u64], reg: VReg) {
    if let Some(word) = bits.get_mut(reg.0 as usize / 64) {
        *word |= 1 << (reg.0 % 64);
    }
}

fn clear(bits: &mut [u64], reg: VReg) {
    if let Some(word) = bits.get_mut(reg.0 as usize / 64) {
        *word &= !(1 << (reg.0 % 64));
    }
}

fn is_live(bits: &[u64], reg: VReg) -> bool {
    bits.get(reg.0 as usize / 64).is_none_or(|word| word & (1 << (reg.0 % 64)) != 0)
}

/// Registers live when leaving each block: `(words, live_out)` with
/// block `b`'s set at `live_out[b * words..][..words]`.
fn live_out_sets(graph: &HGraph) -> (usize, Vec<u64>) {
    let n = graph.blocks.len();
    let words = (graph.num_regs as usize).div_ceil(64).max(1);
    // live_in[b] = gen[b] | (live_out[b] & !kill[b]): `gen` holds the
    // reads not preceded by a write in the block, `kill` the writes.
    let mut gen = vec![0u64; n * words];
    let mut kill = vec![0u64; n * words];
    for (b, block) in graph.blocks.iter().enumerate() {
        let (gen, kill) = (&mut gen[b * words..][..words], &mut kill[b * words..][..words]);
        block.terminator.for_each_read(|r| set(gen, r));
        for insn in block.insns.iter().rev() {
            if let Some(dst) = insn.writes() {
                clear(gen, dst);
                set(kill, dst);
            }
            insn.for_each_read(|r| set(gen, r));
        }
    }

    // Fixpoint, blocks in reverse order, each pulling from its successors.
    let mut live_out = vec![0u64; n * words];
    let mut changed = true;
    while changed {
        changed = false;
        for (b, block) in graph.blocks.iter().enumerate().rev() {
            block.terminator.for_each_successor(|succ| {
                let s = succ.index() * words;
                for w in 0..words {
                    let live_in = gen[s + w] | (live_out[s + w] & !kill[s + w]);
                    let merged = live_out[b * words + w] | live_in;
                    changed |= merged != live_out[b * words + w];
                    live_out[b * words + w] = merged;
                }
            });
        }
    }
    (words, live_out)
}

/// Removes pure instructions whose results are never used. Returns the
/// number of removed instructions.
pub fn run(graph: &mut HGraph) -> usize {
    let (words, live_out) = live_out_sets(graph);

    // Sweep each block back to front: a survivor is swapped to the front
    // of the survivors already found, so they end up in order in
    // `insns[kept_from..]` and the dead writes in `insns[..kept_from]`.
    let mut removed = 0;
    let mut live = vec![0u64; words];
    for (b, block) in graph.blocks.iter_mut().enumerate() {
        live.copy_from_slice(&live_out[b * words..][..words]);
        block.terminator.for_each_read(|r| set(&mut live, r));
        let mut kept_from = block.insns.len();
        for i in (0..block.insns.len()).rev() {
            let insn = &block.insns[i];
            if let Some(dst) = insn.writes() {
                if insn.is_pure() && !is_live(&live, dst) {
                    continue;
                }
                clear(&mut live, dst);
            }
            insn.for_each_read(|r| set(&mut live, r));
            kept_from -= 1;
            block.insns.swap(i, kept_from);
        }
        removed += kept_from;
        block.insns.drain(..kept_from);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HInsn, HTerminator};
    use calibro_dex::{BinOp, Cmp, MethodId};

    #[test]
    fn removes_dead_pure_code() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 1 }, // dead
                    HInsn::Const { dst: VReg(1), value: 2 }, // live (returned)
                    HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) }, // dead
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        assert_eq!(run(&mut g), 2);
        assert_eq!(g.blocks[0].insns.len(), 1);
    }

    #[test]
    fn keeps_impure_dead_writes() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    // Result unused, but division can throw: must stay.
                    HInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: None },
            }],
        };
        assert_eq!(run(&mut g), 0);
        assert_eq!(g.blocks[0].insns.len(), 1);
    }

    #[test]
    fn liveness_crosses_blocks_and_loops() {
        // v0 set in entry, used after the loop: must survive even though
        // the loop body doesn't mention it.
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 42 }],
                    terminator: HTerminator::Goto { target: BlockId(1) },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![HInsn::BinLit {
                        op: BinOp::Add,
                        dst: VReg(1),
                        a: VReg(1),
                        lit: -1,
                    }],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Gt,
                        a: VReg(1),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        };
        assert_eq!(run(&mut g), 0);
    }

    /// The hash-set implementation the bitsets replaced, kept verbatim as
    /// the oracle: push along predecessor edges, one `HashSet` per block.
    mod reference {
        use std::collections::HashSet;

        use calibro_dex::VReg;

        use crate::graph::HGraph;

        fn live_in(graph: &HGraph, bi: usize, live_out: &HashSet<VReg>) -> HashSet<VReg> {
            let block = &graph.blocks[bi];
            let mut live = live_out.clone();
            live.extend(block.terminator.reads());
            for insn in block.insns.iter().rev() {
                if let Some(dst) = insn.writes() {
                    live.remove(&dst);
                }
                live.extend(insn.reads());
            }
            live
        }

        pub fn live_out_sets(graph: &HGraph) -> Vec<HashSet<VReg>> {
            let preds = graph.predecessors();
            let n = graph.blocks.len();
            let mut live_out: Vec<HashSet<VReg>> = vec![HashSet::new(); n];
            let mut changed = true;
            while changed {
                changed = false;
                for bi in (0..n).rev() {
                    let live_in = live_in(graph, bi, &live_out[bi]);
                    for &p in &preds[bi] {
                        for r in &live_in {
                            changed |= live_out[p.index()].insert(*r);
                        }
                    }
                }
            }
            live_out
        }

        pub fn run(graph: &mut HGraph) -> usize {
            let live_out = live_out_sets(graph);
            let mut removed = 0;
            for (block, mut live) in graph.blocks.iter_mut().zip(live_out) {
                live.extend(block.terminator.reads());
                let mut kept = Vec::with_capacity(block.insns.len());
                for insn in std::mem::take(&mut block.insns).into_iter().rev() {
                    if insn.writes().is_some_and(|dst| insn.is_pure() && !live.contains(&dst)) {
                        removed += 1;
                        continue;
                    }
                    if let Some(dst) = insn.writes() {
                        live.remove(&dst);
                    }
                    live.extend(insn.reads());
                    kept.push(insn);
                }
                kept.reverse();
                block.insns = kept;
            }
            removed
        }
    }

    mod props {
        use calibro_dex::{BinOp, Cmp, InvokeKind, MethodId, VReg};
        use proptest::prelude::*;

        use super::super::{is_live, live_out_sets, run};
        use super::reference;
        use crate::graph::{BlockId, HBlock, HGraph, HInsn, HTerminator};

        type RawInsn = (u8, u16, u16, u16);
        type RawBlock = (Vec<RawInsn>, u8, u16, u16, Vec<u32>);

        /// Random CFGs over a handful of registers around the 64-bit
        /// word boundaries, so writes and reads actually meet. Edges go
        /// anywhere: loops, self-loops, switches and unreachable blocks
        /// all occur.
        fn any_graph() -> impl Strategy<Value = HGraph> {
            let raw_insn = (0u8..7, any::<u16>(), any::<u16>(), any::<u16>());
            let raw_block = (
                prop::collection::vec(raw_insn, 0..6),
                0u8..7,
                any::<u16>(),
                any::<u16>(),
                prop::collection::vec(any::<u32>(), 1..4),
            );
            let num_regs = prop_oneof![Just(1u16), Just(63), Just(64), Just(65), Just(130)];
            (num_regs, prop::collection::vec(raw_block, 1..9))
                .prop_map(|(num_regs, raw)| graph_from(num_regs, &raw))
        }

        fn graph_from(num_regs: u16, raw: &[RawBlock]) -> HGraph {
            let reg = |r: u16| {
                const NEAR_WORD_EDGES: [u16; 8] = [0, 1, 62, 63, 64, 65, 128, 129];
                VReg(NEAR_WORD_EDGES[r as usize % 8] % num_regs)
            };
            let bb = |b: u32| BlockId(b % raw.len() as u32);
            let blocks = raw
                .iter()
                .enumerate()
                .map(|(id, (insns, kind, a, b, edges))| HBlock {
                    id: BlockId(id as u32),
                    insns: insns
                        .iter()
                        .map(|&(kind, dst, a, b)| match kind {
                            0 => HInsn::Const { dst: reg(dst), value: 7 },
                            1 => HInsn::Move { dst: reg(dst), src: reg(a) },
                            2 => HInsn::Bin { op: BinOp::Add, dst: reg(dst), a: reg(a), b: reg(b) },
                            // Impure: must survive a dead destination.
                            3 => HInsn::Bin { op: BinOp::Div, dst: reg(dst), a: reg(a), b: reg(b) },
                            4 => HInsn::BinLit { op: BinOp::Xor, dst: reg(dst), a: reg(a), lit: 3 },
                            5 => HInsn::SPut { src: reg(a), slot: calibro_dex::StaticId(0) },
                            _ => HInsn::Invoke {
                                kind: InvokeKind::Static,
                                method: MethodId(0),
                                args: vec![reg(a), reg(b)],
                                dst: (dst % 2 == 0).then(|| reg(dst)),
                            },
                        })
                        .collect(),
                    terminator: match kind {
                        0 => HTerminator::Goto { target: bb(edges[0]) },
                        1 => HTerminator::If {
                            cmp: Cmp::Lt,
                            a: reg(*a),
                            b: reg(*b),
                            then_bb: bb(edges[0]),
                            else_bb: bb(edges[0] >> 8),
                        },
                        2 => HTerminator::IfZ {
                            cmp: Cmp::Eq,
                            a: reg(*a),
                            then_bb: bb(edges[0]),
                            else_bb: bb(edges[0] >> 8),
                        },
                        3 => HTerminator::Switch {
                            src: reg(*a),
                            first_key: 0,
                            targets: edges.iter().map(|&e| bb(e)).collect(),
                            default: bb(edges[0] >> 8),
                        },
                        4 => HTerminator::Return { src: Some(reg(*a)) },
                        5 => HTerminator::Return { src: None },
                        _ => HTerminator::Throw { src: reg(*a) },
                    },
                })
                .collect();
            HGraph { method: MethodId(0), blocks, num_regs, num_args: 0 }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Every block's live-out bitset is exactly the reference's
            /// hash set, and the sweep removes exactly the same
            /// instructions.
            #[test]
            fn bitset_liveness_equals_the_hash_set_reference(graph in any_graph()) {
                let (words, bits) = live_out_sets(&graph);
                prop_assert_eq!(words, (graph.num_regs as usize).div_ceil(64).max(1));
                let expected = reference::live_out_sets(&graph);
                for (b, expected) in expected.iter().enumerate() {
                    let live = &bits[b * words..][..words];
                    for r in (0..graph.num_regs).map(VReg) {
                        prop_assert_eq!(
                            is_live(live, r),
                            expected.contains(&r),
                            "block {} register {}", b, r
                        );
                    }
                }

                let (mut dense, mut hashed) = (graph.clone(), graph);
                prop_assert_eq!(run(&mut dense), reference::run(&mut hashed));
                prop_assert_eq!(dense.blocks, hashed.blocks);
            }
        }
    }
}
