//! Structural invariant checking for HGraphs; used by tests and debug
//! assertions between passes.

use core::fmt;

use calibro_dex::VReg;

use crate::graph::{HGraph, HTerminator};

/// A structural violation found by [`check`].
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields name the offending block/register
pub enum CheckError {
    /// The graph has no blocks.
    Empty,
    /// A block's `id` does not equal its index.
    MisnumberedBlock { index: usize },
    /// A terminator references a block outside the graph.
    DanglingEdge { block: usize, target: u32 },
    /// An instruction or terminator uses a register outside `num_regs`.
    RegisterOutOfRange { block: usize, reg: u16 },
    /// A switch terminator with no targets.
    EmptySwitch { block: usize },
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Empty => f.write_str("graph has no blocks"),
            CheckError::MisnumberedBlock { index } => {
                write!(f, "block at index {index} has a mismatched id")
            }
            CheckError::DanglingEdge { block, target } => {
                write!(f, "block {block} branches to missing block {target}")
            }
            CheckError::RegisterOutOfRange { block, reg } => {
                write!(f, "block {block} uses out-of-range register v{reg}")
            }
            CheckError::EmptySwitch { block } => write!(f, "block {block} has an empty switch"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Checks the structural invariants every pass must preserve.
///
/// # Errors
///
/// Returns the first [`CheckError`] found.
pub fn check(graph: &HGraph) -> Result<(), CheckError> {
    if graph.blocks.is_empty() {
        return Err(CheckError::Empty);
    }
    for (index, block) in graph.blocks.iter().enumerate() {
        if block.id.index() != index {
            return Err(CheckError::MisnumberedBlock { index });
        }
        let mut dangling = None;
        block.terminator.for_each_successor(|succ| {
            if succ.index() >= graph.blocks.len() {
                dangling.get_or_insert(succ.0);
            }
        });
        if let Some(target) = dangling {
            return Err(CheckError::DanglingEdge { block: index, target });
        }
        if let HTerminator::Switch { targets, .. } = &block.terminator {
            if targets.is_empty() {
                return Err(CheckError::EmptySwitch { block: index });
            }
        }
        // Per instruction reads then the write, then the terminator's
        // reads; the first offender is the one reported.
        let mut out_of_range = None;
        let mut bound = |reg: VReg| {
            if reg.0 >= graph.num_regs {
                out_of_range.get_or_insert(reg.0);
            }
        };
        for insn in &block.insns {
            insn.for_each_read(&mut bound);
            insn.writes().into_iter().for_each(&mut bound);
        }
        block.terminator.for_each_read(&mut bound);
        if let Some(reg) = out_of_range {
            return Err(CheckError::RegisterOutOfRange { block: index, reg });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HInsn};
    use calibro_dex::MethodId;

    fn valid() -> HGraph {
        HGraph {
            method: MethodId(0),
            num_regs: 2,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![HInsn::Const { dst: VReg(0), value: 1 }],
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        }
    }

    #[test]
    fn accepts_valid() {
        assert_eq!(check(&valid()), Ok(()));
    }

    #[test]
    fn rejects_dangling_edge() {
        let mut g = valid();
        g.blocks[0].terminator = HTerminator::Goto { target: BlockId(7) };
        assert_eq!(check(&g), Err(CheckError::DanglingEdge { block: 0, target: 7 }));
    }

    #[test]
    fn rejects_register_overflow() {
        let mut g = valid();
        g.blocks[0].insns.push(HInsn::Const { dst: VReg(5), value: 0 });
        assert_eq!(check(&g), Err(CheckError::RegisterOutOfRange { block: 0, reg: 5 }));
    }

    #[test]
    fn rejects_misnumbered_blocks() {
        let mut g = valid();
        g.blocks[0].id = BlockId(3);
        assert_eq!(check(&g), Err(CheckError::MisnumberedBlock { index: 0 }));
    }
}
