//! # calibro-isa
//!
//! The AArch64 instruction subset underpinning the Calibro reproduction:
//! registers, condition codes, an instruction model with real machine-word
//! encodings, a decoder, a disassembler, and a small label-fixup assembler.
//!
//! Calibro (CGO '25) outlines repeated *binary* code sequences in Android
//! OAT files and patches PC-relative instructions afterwards. Everything
//! the paper's link-time machinery manipulates lives here:
//!
//! * the full PC-relative set of §3.3.4 (`b`, `bl`, `b.cond`, `cbz`,
//!   `cbnz`, `tbz`, `tbnz`, `adr`, `adrp`, `ldr` literal) with target
//!   arithmetic and offset patching ([`Insn::with_pc_rel_offset`]);
//! * terminator/call/indirect-jump classification matching the metadata
//!   categories of §3.2 ([`Insn::is_terminator`], [`Insn::is_call`],
//!   [`Insn::is_indirect_jump`]);
//! * link-register and stack-pointer dataflow queries used to prove
//!   outlining safety ([`Insn::reads_lr`], [`Insn::writes_lr`],
//!   [`Insn::writes_sp`], and all three together,
//!   [`Insn::is_outline_hazard`]) over one operand walk
//!   ([`Insn::for_each_read`]).
//!
//! # Examples
//!
//! Reproduce the paper's Table 2 patching step — a `cbz` whose target moved
//! because two following instructions were outlined into one `bl`:
//!
//! ```
//! use calibro_isa::{decode, Insn, Reg};
//!
//! let cbz = Insn::Cbz { wide: false, rt: Reg::X0, offset: 0xc };
//! assert_eq!(cbz.pc_rel_target(0x138320), Some(0x13832c));
//!
//! // After outlining, the logical target lives at 0x138328: patch it.
//! let patched = cbz.with_pc_rel_offset(0x8);
//! assert_eq!(patched.pc_rel_target(0x138320), Some(0x138328));
//!
//! // The patched instruction is a real machine word.
//! let word = patched.encode()?;
//! assert_eq!(decode(word)?, patched);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

mod buffer;
mod cond;
mod decode;
mod disasm;
mod encode;
mod insn;
mod reg;

pub use buffer::{Asm, AsmError, Label};
pub use cond::Cond;
pub use decode::{decode, decode_all, is_bl, DecodeError};
pub use encode::{encode_all, encode_bl, encode_words, EncodeError};
pub use insn::{Insn, PairMode};
pub use reg::{reg_name, Reg};
