//! # calibro-dex
//!
//! A compact DEX-like bytecode container: the input format of the
//! reproduction's `dex2oat` pipeline. Provides typed ids, a register-
//! machine instruction set, methods/classes/files, a verifier, and a
//! label-resolving method builder.
//!
//! The instruction set deliberately covers the features Calibro's
//! compilation hooks care about: virtual/static invokes (ART Java-call
//! pattern), allocation and division (runtime entrypoints + slow paths),
//! switches (indirect jump tables), and native methods (JNI flag).
//!
//! # Examples
//!
//! ```
//! use calibro_dex::{verify, DexFile, DexInsn, Method, MethodBuilder, MethodId, VReg};
//!
//! let mut dex = DexFile::new();
//! let class = dex.add_class("Main", 2);
//! let mut b = MethodBuilder::new("answer", 1, 0);
//! b.push(DexInsn::Const { dst: VReg(0), value: 42 });
//! b.push(DexInsn::Return { src: VReg(0) });
//! let id = dex.add_method(b.build(class));
//! assert_eq!(id, MethodId(0));
//! verify(&dex)?;
//! # Ok::<(), calibro_dex::VerifyError>(())
//! ```

#![warn(missing_docs)]

mod builder;
mod file;
mod ids;
mod insn;
mod method;
mod verify;
pub mod wire;

pub use builder::{DexLabel, MethodBuilder};
pub use file::DexFile;
pub use ids::{ClassId, FieldId, MethodId, StaticId, VReg};
pub use insn::{BinOp, Cmp, DexInsn, InvokeKind};
pub use method::{Class, Method};
pub use verify::{verify, verify_intrinsic, verify_references, VerifyError};
