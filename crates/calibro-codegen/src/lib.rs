//! # calibro-codegen
//!
//! HGraph -> AArch64 code generation for the reproduction's `dex2oat`,
//! including:
//!
//! * emission of the three ART-specific repetitive patterns the paper's
//!   Observation 3 identifies (Figure 4): the Java call through
//!   `ArtMethod`, the runtime entrypoint call through the thread register
//!   `x19`, and the stack-overflow check;
//! * **CTO** (§3.1) — compilation-time outlining of those patterns into
//!   shared thunks called with a single `bl`;
//! * **LTBO.1** (§3.2) — collection of the link-time metadata: embedded
//!   data, PC-relative instructions with targets, terminators, indirect-
//!   jump and native flags, and slow-path ranges;
//! * stack maps for every call site (§3.5).
//!
//! # Examples
//!
//! ```
//! use calibro_codegen::{compile_method, CodegenOptions};
//! use calibro_dex::{ClassId, DexInsn, MethodBuilder, VReg};
//! use calibro_hgraph::build_hgraph;
//!
//! let mut b = MethodBuilder::new("add1", 2, 1);
//! b.push(DexInsn::BinLit {
//!     op: calibro_dex::BinOp::Add,
//!     dst: VReg(0),
//!     a: VReg(1),
//!     lit: 1,
//! });
//! b.push(DexInsn::Return { src: VReg(0) });
//! let graph = build_hgraph(&b.build(ClassId(0)));
//! let compiled = compile_method(&graph, &CodegenOptions::default());
//! assert!(compiled.insns.len() > 4); // prologue + body + epilogue
//! ```

#![warn(missing_docs)]

mod codegen;
mod compiled;
pub mod layout;
mod regalloc;

pub use codegen::{compile_method, compile_native_stub, thunk_code, CodegenOptions};
pub use compiled::{
    CallTarget, CompiledMethod, MethodTables, Reloc, TableSlices, TablesMut, ThunkKind,
};
pub use regalloc::{Frame, Home};
