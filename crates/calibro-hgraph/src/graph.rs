//! The HGraph IR: dex2oat's control-flow-graph intermediate
//! representation, reproduced as a register-based CFG.
//!
//! ART's real HGraph is SSA-form; this reproduction keeps virtual
//! registers and runs dataflow-based passes instead, which preserves the
//! pipeline structure the paper relies on (Figure 5: `method -> HGraph ->
//! opt passes -> code generation`) without the full SSA machinery.

use calibro_dex::{BinOp, ClassId, Cmp, FieldId, InvokeKind, MethodId, StaticId, VReg};

/// Identifier of a basic block within one [`HGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The raw index.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A non-terminator HGraph instruction.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum HInsn {
    /// `dst = value`.
    Const { dst: VReg, value: i32 },
    /// `dst = src`.
    Move { dst: VReg, src: VReg },
    /// `dst = a <op> b`.
    Bin { op: BinOp, dst: VReg, a: VReg, b: VReg },
    /// `dst = a <op> lit`.
    BinLit { op: BinOp, dst: VReg, a: VReg, lit: i16 },
    /// `dst = obj.field`.
    IGet { dst: VReg, obj: VReg, field: FieldId },
    /// `obj.field = src`.
    IPut { src: VReg, obj: VReg, field: FieldId },
    /// `dst = statics[slot]`.
    SGet { dst: VReg, slot: StaticId },
    /// `statics[slot] = src`.
    SPut { src: VReg, slot: StaticId },
    /// `dst = new class`.
    NewInstance { dst: VReg, class: ClassId },
    /// Java method call.
    Invoke { kind: InvokeKind, method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
    /// JNI method call.
    InvokeNative { method: MethodId, args: Vec<VReg>, dst: Option<VReg> },
}

impl HInsn {
    /// Calls `f` with each register read, in operand order. The one
    /// place read operands are listed; [`reads`](HInsn::reads) and every
    /// pass go through it.
    #[inline]
    pub fn for_each_read(&self, mut f: impl FnMut(VReg)) {
        match self {
            HInsn::Move { src, .. } | HInsn::SPut { src, .. } => f(*src),
            HInsn::Bin { a, b, .. } => {
                f(*a);
                f(*b);
            }
            HInsn::BinLit { a, .. } => f(*a),
            HInsn::IGet { obj, .. } => f(*obj),
            HInsn::IPut { src, obj, .. } => {
                f(*src);
                f(*obj);
            }
            HInsn::Invoke { args, .. } | HInsn::InvokeNative { args, .. } => {
                args.iter().copied().for_each(f);
            }
            HInsn::Const { .. } | HInsn::SGet { .. } | HInsn::NewInstance { .. } => {}
        }
    }

    /// Registers read.
    #[must_use]
    pub fn reads(&self) -> Vec<VReg> {
        let mut regs = Vec::new();
        self.for_each_read(|r| regs.push(r));
        regs
    }

    /// Register written, if any.
    #[must_use]
    pub fn writes(&self) -> Option<VReg> {
        match self {
            HInsn::Const { dst, .. }
            | HInsn::Move { dst, .. }
            | HInsn::Bin { dst, .. }
            | HInsn::BinLit { dst, .. }
            | HInsn::IGet { dst, .. }
            | HInsn::SGet { dst, .. }
            | HInsn::NewInstance { dst, .. } => Some(*dst),
            HInsn::Invoke { dst, .. } | HInsn::InvokeNative { dst, .. } => *dst,
            _ => None,
        }
    }

    /// Returns `true` if removing this instruction (when its result is
    /// dead) cannot change observable behaviour. Division is impure — it
    /// can throw.
    #[must_use]
    pub fn is_pure(&self) -> bool {
        match self {
            HInsn::Const { .. } | HInsn::Move { .. } | HInsn::BinLit { .. } => {
                !matches!(self, HInsn::BinLit { op: BinOp::Div, .. })
            }
            HInsn::Bin { op, .. } => !matches!(op, BinOp::Div),
            HInsn::SGet { .. } => true,
            // Field loads can fault on null receivers.
            _ => false,
        }
    }
}

/// A block terminator.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
#[allow(missing_docs)] // variant fields are self-describing operands
pub enum HTerminator {
    /// Unconditional jump.
    Goto { target: BlockId },
    /// Two-register conditional.
    If { cmp: Cmp, a: VReg, b: VReg, then_bb: BlockId, else_bb: BlockId },
    /// Register-vs-zero conditional.
    IfZ { cmp: Cmp, a: VReg, then_bb: BlockId, else_bb: BlockId },
    /// Jump table.
    Switch { src: VReg, first_key: i32, targets: Vec<BlockId>, default: BlockId },
    /// Return, optionally with a value.
    Return { src: Option<VReg> },
    /// Throw an exception value.
    Throw { src: VReg },
}

impl HTerminator {
    /// Calls `f` with each successor block in evaluation order (switch
    /// targets, then the default). The one place edges are listed.
    #[inline]
    pub fn for_each_successor(&self, mut f: impl FnMut(BlockId)) {
        match self {
            HTerminator::Goto { target } => f(*target),
            HTerminator::If { then_bb, else_bb, .. }
            | HTerminator::IfZ { then_bb, else_bb, .. } => {
                f(*then_bb);
                f(*else_bb);
            }
            HTerminator::Switch { targets, default, .. } => {
                targets.iter().copied().for_each(&mut f);
                f(*default);
            }
            HTerminator::Return { .. } | HTerminator::Throw { .. } => {}
        }
    }

    /// Successor blocks in evaluation order.
    #[must_use]
    pub fn successors(&self) -> Vec<BlockId> {
        let mut succs = Vec::new();
        self.for_each_successor(|b| succs.push(b));
        succs
    }

    /// Calls `f` with each register the terminator reads, in operand
    /// order.
    #[inline]
    pub fn for_each_read(&self, mut f: impl FnMut(VReg)) {
        match self {
            HTerminator::If { a, b, .. } => {
                f(*a);
                f(*b);
            }
            HTerminator::IfZ { a, .. }
            | HTerminator::Switch { src: a, .. }
            | HTerminator::Return { src: Some(a) }
            | HTerminator::Throw { src: a } => f(*a),
            HTerminator::Goto { .. } | HTerminator::Return { src: None } => {}
        }
    }

    /// Registers read by the terminator.
    #[must_use]
    pub fn reads(&self) -> Vec<VReg> {
        let mut regs = Vec::new();
        self.for_each_read(|r| regs.push(r));
        regs
    }
}

/// A basic block: straight-line instructions plus one terminator.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HBlock {
    /// The block's id (== its index in the graph).
    pub id: BlockId,
    /// Straight-line body.
    pub insns: Vec<HInsn>,
    /// The closing control transfer.
    pub terminator: HTerminator,
}

/// A method's control-flow graph.
#[derive(Clone, Debug)]
pub struct HGraph {
    /// The method this graph was built from.
    pub method: MethodId,
    /// Blocks; index 0 is the entry block.
    pub blocks: Vec<HBlock>,
    /// Virtual register count (arguments included).
    pub num_regs: u16,
    /// Argument count; arguments arrive in the trailing registers.
    pub num_args: u16,
}

impl HGraph {
    /// The entry block id.
    #[must_use]
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Total instruction count including terminators.
    #[must_use]
    pub fn insn_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insns.len() + 1).sum()
    }

    /// Predecessor map: `preds[b]` lists blocks jumping to `b`.
    #[must_use]
    pub fn predecessors(&self) -> Vec<Vec<BlockId>> {
        let mut preds = vec![Vec::new(); self.blocks.len()];
        for block in &self.blocks {
            block.terminator.for_each_successor(|succ| preds[succ.index()].push(block.id));
        }
        preds
    }

    /// Returns `true` if any instruction is a call (method is non-leaf).
    #[must_use]
    pub fn has_calls(&self) -> bool {
        self.blocks.iter().any(|b| {
            b.insns.iter().any(|i| {
                matches!(
                    i,
                    HInsn::Invoke { .. } | HInsn::InvokeNative { .. } | HInsn::NewInstance { .. }
                )
            })
        })
    }

    /// Returns `true` if the graph contains a switch terminator.
    #[must_use]
    pub fn has_switch(&self) -> bool {
        self.blocks.iter().any(|b| matches!(b.terminator, HTerminator::Switch { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_block_graph() -> HGraph {
        HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![HInsn::Const { dst: VReg(0), value: 1 }],
                    terminator: HTerminator::Goto { target: BlockId(1) },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(0)) },
                },
            ],
        }
    }

    #[test]
    fn successor_and_predecessor_queries() {
        let g = two_block_graph();
        assert_eq!(g.blocks[0].terminator.successors(), vec![BlockId(1)]);
        let preds = g.predecessors();
        assert_eq!(preds[1], vec![BlockId(0)]);
        assert!(preds[0].is_empty());
    }

    #[test]
    fn purity() {
        assert!(HInsn::Const { dst: VReg(0), value: 3 }.is_pure());
        assert!(HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(1) }.is_pure());
        assert!(!HInsn::Bin { op: BinOp::Div, dst: VReg(0), a: VReg(1), b: VReg(1) }.is_pure());
        assert!(!HInsn::IGet { dst: VReg(0), obj: VReg(1), field: FieldId(0) }.is_pure());
        assert!(!HInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![],
            dst: None
        }
        .is_pure());
    }

    #[test]
    fn insn_count_includes_terminators() {
        assert_eq!(two_block_graph().insn_count(), 3);
    }
}
