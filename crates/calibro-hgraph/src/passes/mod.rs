//! The optimization-pass pipeline — the "opt passes" stage of the
//! paper's Figure 5, reproducing dex2oat's size-relevant HGraph passes.

pub mod constant_folding;
pub mod copy_prop;
pub mod dce;
pub mod simplify;

use calibro_dex::wire::wire_fields;

use crate::graph::HGraph;

/// Counters reported by [`run_pipeline`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct PassStats {
    /// Instructions folded to constants / branches simplified.
    pub folded: usize,
    /// Operand replacements by copy propagation.
    pub copies_propagated: usize,
    /// Dead instructions removed.
    pub dead_removed: usize,
    /// Algebraic simplifications applied.
    pub simplified: usize,
    /// Number of pipeline iterations executed.
    pub iterations: usize,
    /// Instructions in the graph before the pipeline ran.
    pub insns_in: usize,
    /// Instructions in the graph after the pipeline ran.
    pub insns_out: usize,
}

impl PassStats {
    /// Total number of individual changes.
    ///
    /// Excludes the instruction-delta counters (`insns_in`/`insns_out`):
    /// `total() == 0` means the pipeline changed nothing, which is what
    /// idempotence checks rely on.
    #[must_use]
    pub fn total(&self) -> usize {
        self.folded + self.copies_propagated + self.dead_removed + self.simplified
    }

    /// Net instructions removed by the pipeline (never negative: passes
    /// only shrink or keep the graph).
    #[must_use]
    pub fn insns_removed(&self) -> usize {
        self.insns_in.saturating_sub(self.insns_out)
    }
}

impl core::ops::AddAssign for PassStats {
    /// Accumulates another run's counters (used to aggregate per-method
    /// stats into whole-build observability totals).
    fn add_assign(&mut self, other: PassStats) {
        self.folded += other.folded;
        self.copies_propagated += other.copies_propagated;
        self.dead_removed += other.dead_removed;
        self.simplified += other.simplified;
        self.iterations += other.iterations;
        self.insns_in += other.insns_in;
        self.insns_out += other.insns_out;
    }
}

/// Per-pass switches for the pipeline — one flag per optimization, so
/// differential harnesses can compile under every pass subset and prove
/// each combination observationally equal to the full pipeline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Copy propagation.
    pub copy_prop: bool,
    /// Constant folding / constant-branch resolution.
    pub constant_folding: bool,
    /// Algebraic simplification / strength reduction.
    pub simplify: bool,
    /// Dead-code elimination.
    pub dce: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig::all()
    }
}

impl PipelineConfig {
    /// Every pass enabled — the standard dex2oat-style pipeline.
    #[must_use]
    pub const fn all() -> PipelineConfig {
        PipelineConfig { copy_prop: true, constant_folding: true, simplify: true, dce: true }
    }

    /// Every pass disabled — codegen sees the graph as built.
    #[must_use]
    pub const fn none() -> PipelineConfig {
        PipelineConfig { copy_prop: false, constant_folding: false, simplify: false, dce: false }
    }

    /// A short human-readable tag naming the enabled passes (used in
    /// conformance-harness labels and divergence reports).
    #[must_use]
    pub fn label(&self) -> String {
        if *self == PipelineConfig::all() {
            return "all".to_owned();
        }
        if *self == PipelineConfig::none() {
            return "none".to_owned();
        }
        let flags = [
            (self.copy_prop, "cp"),
            (self.constant_folding, "fold"),
            (self.simplify, "simp"),
            (self.dce, "dce"),
        ];
        let on: Vec<&str> = flags.iter().filter(|(f, _)| *f).map(|&(_, n)| n).collect();
        on.join("+")
    }
}

// The cache persists a method's counters and keys a build by its pass
// switches: both travel as their fields, in declaration order.
wire_fields!(PassStats {
    folded,
    copies_propagated,
    dead_removed,
    simplified,
    iterations,
    insns_in,
    insns_out,
});
wire_fields!(PipelineConfig { copy_prop, constant_folding, simplify, dce });

/// Runs the standard pass pipeline (every pass enabled) to a fixpoint.
pub fn run_pipeline(graph: &mut HGraph) -> PassStats {
    run_pipeline_with(graph, &PipelineConfig::all())
}

/// Runs the pass pipeline with per-pass switches to a fixpoint (bounded
/// at 4 iterations, which suffices for the pass set — each iteration
/// only exposes a bounded amount of new work).
pub fn run_pipeline_with(graph: &mut HGraph, config: &PipelineConfig) -> PassStats {
    let mut stats = PassStats { insns_in: graph.insn_count(), ..PassStats::default() };
    for _ in 0..4 {
        let mut round = 0;
        if config.copy_prop {
            let n = copy_prop::run(graph);
            stats.copies_propagated += n;
            round += n;
        }
        if config.constant_folding {
            let n = constant_folding::run(graph);
            stats.folded += n;
            round += n;
        }
        if config.simplify {
            let n = simplify::run(graph);
            stats.simplified += n;
            round += n;
        }
        if config.dce {
            let n = dce::run(graph);
            stats.dead_removed += n;
            round += n;
        }
        stats.iterations += 1;
        if round == 0 {
            break;
        }
    }
    stats.insns_out = graph.insn_count();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{BlockId, HBlock, HInsn, HTerminator};
    use calibro_dex::{BinOp, Cmp, MethodId, VReg};

    #[test]
    fn pipeline_shrinks_redundant_code() {
        // A constant condition guards two identical returns through
        // redundant arithmetic: the branch folds to a jump and the
        // arithmetic to a constant, and the dead add goes.
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 4,
            num_args: 1,
            blocks: vec![
                HBlock {
                    id: BlockId(0),
                    insns: vec![
                        HInsn::Const { dst: VReg(0), value: 3 },
                        HInsn::BinLit { op: BinOp::Mul, dst: VReg(1), a: VReg(0), lit: 4 },
                        HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(1), b: VReg(1) }, // dead
                    ],
                    terminator: HTerminator::IfZ {
                        cmp: Cmp::Gt,
                        a: VReg(0),
                        then_bb: BlockId(1),
                        else_bb: BlockId(2),
                    },
                },
                HBlock {
                    id: BlockId(1),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(1)) },
                },
                HBlock {
                    id: BlockId(2),
                    insns: vec![],
                    terminator: HTerminator::Return { src: Some(VReg(1)) },
                },
            ],
        };
        let before = g.insn_count();
        let stats = run_pipeline(&mut g);
        assert!(stats.total() > 0);
        assert!(g.insn_count() < before);
        // The constant branch was resolved; the block it no longer
        // reaches stays (codegen emits it, nothing jumps to it).
        assert_eq!(g.blocks[0].terminator, HTerminator::Goto { target: BlockId(1) });
        // v1 = 3 * 4 folded to 12.
        assert!(g.blocks[0].insns.contains(&HInsn::Const { dst: VReg(1), value: 12 }));
    }

    #[test]
    fn stats_track_instruction_deltas_and_merge() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 4,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 3 },
                    HInsn::BinLit { op: BinOp::Mul, dst: VReg(1), a: VReg(0), lit: 4 },
                    HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(1), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let before = g.insn_count();
        let stats = run_pipeline(&mut g);
        assert_eq!(stats.insns_in, before);
        assert_eq!(stats.insns_out, g.insn_count());
        assert_eq!(stats.insns_removed(), before - g.insn_count());

        let mut sum = PassStats::default();
        sum += stats;
        sum += stats;
        assert_eq!(sum.insns_in, 2 * stats.insns_in);
        assert_eq!(sum.total(), 2 * stats.total());
        assert_eq!(sum.iterations, 2 * stats.iterations);
    }

    #[test]
    fn disabled_pipeline_changes_nothing() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 4,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 3 },
                    HInsn::BinLit { op: BinOp::Mul, dst: VReg(1), a: VReg(0), lit: 4 },
                    HInsn::Bin { op: BinOp::Add, dst: VReg(2), a: VReg(1), b: VReg(1) },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let snapshot = format!("{g:?}");
        let stats = run_pipeline_with(&mut g, &PipelineConfig::none());
        assert_eq!(stats.total(), 0);
        assert_eq!(stats.insns_in, stats.insns_out);
        assert_eq!(format!("{g:?}"), snapshot);
    }

    #[test]
    fn single_pass_subsets_run_only_their_pass() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 4,
            num_args: 1,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![
                    HInsn::Const { dst: VReg(0), value: 3 },
                    HInsn::BinLit { op: BinOp::Mul, dst: VReg(1), a: VReg(0), lit: 4 },
                ],
                terminator: HTerminator::Return { src: Some(VReg(1)) },
            }],
        };
        let cfg = PipelineConfig { constant_folding: true, ..PipelineConfig::none() };
        let stats = run_pipeline_with(&mut g, &cfg);
        assert!(stats.folded > 0);
        assert_eq!(stats.total(), stats.folded, "only folding may report changes");
    }

    #[test]
    fn config_labels_are_stable() {
        assert_eq!(PipelineConfig::all().label(), "all");
        assert_eq!(PipelineConfig::none().label(), "none");
        let cfg = PipelineConfig { dce: false, ..PipelineConfig::all() };
        assert_eq!(cfg.label(), "cp+fold+simp");
    }

    #[test]
    fn pipeline_is_idempotent() {
        let mut g = HGraph {
            method: MethodId(0),
            num_regs: 3,
            num_args: 2,
            blocks: vec![HBlock {
                id: BlockId(0),
                insns: vec![HInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(1), b: VReg(2) }],
                terminator: HTerminator::Return { src: Some(VReg(0)) },
            }],
        };
        run_pipeline(&mut g);
        let snapshot = format!("{g:?}");
        let stats = run_pipeline(&mut g);
        assert_eq!(stats.total(), 0);
        assert_eq!(format!("{g:?}"), snapshot);
    }
}
