//! # calibro
//!
//! The reproduction of **Calibro: Compilation-Assisted Linking-Time
//! Binary Code Outlining for Code Size Reduction in Android
//! Applications** (CGO '25): a `dex2oat`-style build driver that
//! composes
//!
//! * **CTO** (§3.1) — compilation-time outlining of the three
//!   ART-specific repetitive patterns (implemented in
//!   [`calibro_codegen`]),
//! * **LTBO** (§3.2-§3.3) — compilation-assisted link-time binary code
//!   outlining with suffix-tree repeat detection, the Figure 2 benefit
//!   model, outlined-function creation and PC-relative patching,
//! * **PlOpti** (§3.4.1) — paralleled suffix trees, and
//! * **HfOpti** (§3.4.2) — profile-guided hot-function filtering,
//!
//! over the substrate crates (`calibro-dex`, `calibro-hgraph`,
//! `calibro-codegen`, `calibro-oat`).
//!
//! # Examples
//!
//! ```
//! use calibro::{build, BuildOptions};
//! use calibro_dex::{BinOp, ClassId, DexFile, DexInsn, MethodBuilder, VReg};
//!
//! let mut dex = DexFile::new();
//! let class = dex.add_class("Main", 0);
//! // Two methods with identical bodies: LTBO finds the repeats.
//! for name in ["a", "b"] {
//!     let mut b = MethodBuilder::new(name, 4, 1);
//!     for _ in 0..3 {
//!         b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(3), b: VReg(3) });
//!         b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(1), a: VReg(0), b: VReg(3) });
//!         b.push(DexInsn::Bin { op: BinOp::Sub, dst: VReg(2), a: VReg(1), b: VReg(0) });
//!         b.push(DexInsn::Bin { op: BinOp::Or, dst: VReg(0), a: VReg(2), b: VReg(1) });
//!     }
//!     b.push(DexInsn::Return { src: VReg(0) });
//!     dex.add_method(b.build(class));
//! }
//! let baseline = build(&dex, &BuildOptions::baseline())?;
//! let outlined = build(&dex, &BuildOptions::cto_ltbo())?;
//! assert!(outlined.oat.text_size_bytes() < baseline.oat.text_size_bytes());
//! # Ok::<(), calibro::BuildError>(())
//! ```

#![warn(missing_docs)]

mod driver;
mod fingerprint;
mod ltbo;
mod pipeline;
mod report;

pub use calibro_cache::{
    ArtifactStore, CacheConfig, CacheEntry, CacheError, CacheKey, CacheStats, StableHasher,
    SymbolTemplate,
};
pub use calibro_hgraph::{PassStats, PipelineConfig};
pub use calibro_oat::RewriteStats;
pub use driver::{build, BuildError, BuildOptions, BuildOutput, BuildStats, WorkerLoad};
pub use fingerprint::{
    fingerprint_ltbo_config, fingerprint_options, method_cache_key, options_fingerprint,
    program_salt, reference_env,
};
#[doc(hidden)]
pub use ltbo::build_template;
pub use ltbo::detect_fault;
pub use ltbo::{run_ltbo, LtboConfig, LtboMode, LtboResult, LtboStats, OutlineError};
pub use pipeline::{
    panic_message, BuildSession, CodegenArtifact, FrontendArtifact, MethodOutcome, SizeArtifact,
};
pub use report::{size_report, SizeReport};
