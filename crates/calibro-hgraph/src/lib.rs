//! # calibro-hgraph
//!
//! The HGraph intermediate representation of the reproduction's
//! `dex2oat`: a register-based control-flow graph built from DEX
//! bytecode, the four size-relevant optimization passes dex2oat runs on
//! it (copy propagation, constant folding/propagation, algebraic
//! simplification and dead-code elimination), a structural checker, and
//! a pure-fragment evaluator used as the semantic oracle in
//! differential pass tests.
//!
//! # Examples
//!
//! ```
//! use calibro_dex::{ClassId, DexInsn, MethodBuilder, VReg};
//! use calibro_hgraph::{build_hgraph, check, run_pipeline};
//!
//! let mut b = MethodBuilder::new("f", 2, 1);
//! b.push(DexInsn::Const { dst: VReg(0), value: 21 });
//! b.push(DexInsn::BinLit {
//!     op: calibro_dex::BinOp::Mul,
//!     dst: VReg(0),
//!     a: VReg(0),
//!     lit: 2,
//! });
//! b.push(DexInsn::Return { src: VReg(0) });
//! let mut graph = build_hgraph(&b.build(ClassId(0)));
//! let stats = run_pipeline(&mut graph);
//! assert!(stats.folded > 0); // 21 * 2 folded to 42
//! check(&graph)?;
//! # Ok::<(), calibro_hgraph::CheckError>(())
//! ```

#![warn(missing_docs)]

mod build;
mod check;
mod eval;
mod graph;
pub mod passes;

pub use build::build_hgraph;
pub use check::{check, CheckError};
pub use eval::{eval_binop, eval_cmp, eval_pure, EvalOutcome, NotPure};
pub use graph::{BlockId, HBlock, HGraph, HInsn, HTerminator};
pub use passes::{run_pipeline, run_pipeline_with, PassStats, PipelineConfig};

// The parallel compile phase in `calibro::build` moves graphs across
// worker threads; keep that guarantee explicit so a future interior-
// mutability addition fails here rather than at the driver's use site.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<HGraph>();
    assert_send_sync::<PassStats>();
};
