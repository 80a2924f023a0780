//! # calibro-oat
//!
//! The OAT container of the reproduction: the linker that lays out
//! compiled methods / LTBO outlined functions / CTO thunks and binds
//! call labels to addresses, the linked [`OatFile`] model, stack-map
//! validation (§3.5 of the paper), and genuine ELF64 serialization so
//! the on-disk `.text` size can be measured like the paper's Table 4.
//!
//! # Examples
//!
//! ```
//! use calibro_codegen::{compile_method, CodegenOptions};
//! use calibro_dex::{ClassId, DexInsn, MethodBuilder, VReg};
//! use calibro_hgraph::build_hgraph;
//! use calibro_oat::{link, to_elf_bytes, from_elf_bytes, LinkInput};
//!
//! let mut b = MethodBuilder::new("id", 1, 1);
//! b.push(DexInsn::Return { src: VReg(0) });
//! let mut compiled = compile_method(
//!     &build_hgraph(&b.build(ClassId(0))),
//!     &CodegenOptions { cto: false, collect_metadata: true },
//! );
//! compiled.method = calibro_dex::MethodId(0); // table position

//! let oat = link(
//!     LinkInput { methods: vec![compiled], ..LinkInput::default() },
//!     0x4000_0000,
//! )?;
//! let elf = to_elf_bytes(&oat);
//! let back = from_elf_bytes(&elf)?;
//! assert_eq!(back.words, oat.words);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod elf;
mod file;
mod linker;
mod rewrite;
mod stackmap;
mod structure;

pub use elf::{from_elf_bytes, to_elf_bytes, LoadError};
pub use file::{OatFile, OatMethodRecord, OutlinedRecord, ThunkRecord, DEFAULT_BASE_ADDRESS};
pub use linker::{link, link_with_stats, LinkError, LinkInput, OutlinedBodies};
pub use rewrite::{Edit, MethodEdits, RewriteStats, Rewriter, Rewritten};
pub use stackmap::{
    dex_pc_for_return_offset, insn_at, validate_method_stack_maps, validate_stack_maps,
    StackMapError,
};
pub use structure::{validate_structure, StructureError};
