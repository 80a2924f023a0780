//! Structural validation of a linked [`OatFile`] — the static half of
//! the conformance oracle. Execution-based differential testing only
//! exercises code the trace reaches; these checks hold for every byte of
//! the text segment: all symbols lie inside the text and don't overlap,
//! every instruction word (outside literal pools) decodes, every
//! PC-relative control transfer lands inside the text, and every LTBO
//! outlined function ends in its indirect return.

use calibro_isa::{decode, Insn};

use crate::file::OatFile;

/// A structural invariant violation found by [`validate_structure`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StructureError {
    /// A symbol's offset is not word-aligned.
    Misaligned {
        /// Symbol name (`m3`, `outlined[1]`, `thunk[0]`).
        symbol: String,
        /// The misaligned byte offset.
        offset: u64,
    },
    /// A symbol extends past the end of the text segment.
    OutOfText {
        /// Symbol name.
        symbol: String,
        /// First word of the symbol.
        start_word: usize,
        /// Size in words.
        size_words: usize,
        /// Total words in the text segment.
        text_words: usize,
    },
    /// Two symbols occupy overlapping word ranges.
    Overlap {
        /// First symbol (lower start offset).
        a: String,
        /// Second symbol.
        b: String,
    },
    /// An instruction word (outside a literal pool) failed to decode.
    Undecodable {
        /// Symbol the word belongs to.
        symbol: String,
        /// Word index within the text segment.
        word: usize,
        /// The raw word value.
        value: u32,
    },
    /// A PC-relative branch or literal load targets an address outside
    /// the text segment.
    BranchOutOfText {
        /// Symbol the branch belongs to.
        symbol: String,
        /// Word index of the branch within the text segment.
        word: usize,
        /// The absolute target address.
        target: u64,
    },
    /// An LTBO outlined function does not end in an indirect branch
    /// (`br`), so control could fall through into a neighbour.
    OutlinedNoReturn {
        /// Index into [`OatFile::outlined`].
        index: usize,
    },
    /// The text segment ends past the 64-bit address space.
    BeyondAddressSpace {
        /// The segment's claimed load address.
        base_address: u64,
    },
}

impl core::fmt::Display for StructureError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            StructureError::Misaligned { symbol, offset } => {
                write!(f, "symbol {symbol} at misaligned byte offset {offset}")
            }
            StructureError::OutOfText { symbol, start_word, size_words, text_words } => write!(
                f,
                "symbol {symbol} spans words {start_word}..{} but the text has {text_words} words",
                start_word + size_words
            ),
            StructureError::Overlap { a, b } => write!(f, "symbols {a} and {b} overlap"),
            StructureError::Undecodable { symbol, word, value } => {
                write!(f, "word {word} ({value:#010x}) in {symbol} does not decode")
            }
            StructureError::BranchOutOfText { symbol, word, target } => {
                write!(f, "branch at word {word} in {symbol} targets {target:#x} outside the text")
            }
            StructureError::OutlinedNoReturn { index } => {
                write!(f, "outlined function {index} does not end in `br`")
            }
            StructureError::BeyondAddressSpace { base_address } => {
                write!(f, "the text segment at {base_address:#x} ends past the address space")
            }
        }
    }
}

impl std::error::Error for StructureError {}

/// One symbol's extent plus how many leading words are instructions (the
/// rest is literal pool, which may hold arbitrary bit patterns).
struct Symbol {
    name: String,
    start_word: usize,
    size_words: usize,
    insn_words: usize,
}

/// Validates the structural invariants of a linked OAT file.
///
/// Checked invariants:
/// 1. every method / outlined function / thunk is word-aligned and fully
///    inside the text segment;
/// 2. no two symbols overlap;
/// 3. every instruction word (literal pools excluded) decodes;
/// 4. every PC-relative control transfer (`b`, `bl`, `b.cond`, `cbz`,
///    `cbnz`, `tbz`, `tbnz`) and literal load stays inside the text
///    segment (`adr`/`adrp` are exempt: they may materialize runtime
///    addresses);
/// 5. every outlined function ends in an indirect branch (`br`).
///
/// # Errors
///
/// Returns the first [`StructureError`] found, in the order above.
pub fn validate_structure(oat: &OatFile) -> Result<(), StructureError> {
    let text_words = oat.words.len();
    let mut symbols: Vec<Symbol> = Vec::new();
    for m in &oat.methods {
        symbols.push(Symbol {
            name: format!("m{}", m.method.0),
            start_word: (m.offset / 4) as usize,
            size_words: m.code_words as usize,
            insn_words: m.insn_words as usize,
        });
        if m.offset % 4 != 0 {
            return Err(StructureError::Misaligned {
                symbol: format!("m{}", m.method.0),
                offset: m.offset,
            });
        }
    }
    for (i, o) in oat.outlined.iter().enumerate() {
        if o.offset % 4 != 0 {
            return Err(StructureError::Misaligned {
                symbol: format!("outlined[{i}]"),
                offset: o.offset,
            });
        }
        symbols.push(Symbol {
            name: format!("outlined[{i}]"),
            start_word: (o.offset / 4) as usize,
            size_words: o.size_words as usize,
            insn_words: o.size_words as usize,
        });
    }
    for (i, t) in oat.thunks.iter().enumerate() {
        if t.offset % 4 != 0 {
            return Err(StructureError::Misaligned {
                symbol: format!("thunk[{i}]"),
                offset: t.offset,
            });
        }
        symbols.push(Symbol {
            name: format!("thunk[{i}]"),
            start_word: (t.offset / 4) as usize,
            size_words: t.size_words as usize,
            insn_words: t.size_words as usize,
        });
    }

    // 1. Bounds.
    for s in &symbols {
        if s.start_word + s.size_words > text_words {
            return Err(StructureError::OutOfText {
                symbol: s.name.clone(),
                start_word: s.start_word,
                size_words: s.size_words,
                text_words,
            });
        }
    }

    // 2. Overlap: sort by start, adjacent symbols must not intersect.
    let mut order: Vec<usize> = (0..symbols.len()).collect();
    order.sort_by_key(|&i| (symbols[i].start_word, symbols[i].size_words));
    for pair in order.windows(2) {
        let (a, b) = (&symbols[pair[0]], &symbols[pair[1]]);
        if a.start_word + a.size_words > b.start_word && b.size_words > 0 && a.size_words > 0 {
            return Err(StructureError::Overlap { a: a.name.clone(), b: b.name.clone() });
        }
    }

    // 3 + 4. Decode instruction words and bound PC-relative targets.
    // The load address is the file's own claim: a text that ends past
    // the address space is an error, not a wrapped range.
    let text_base = oat.base_address;
    let text_end = text_base
        .checked_add(oat.text_size_bytes())
        .ok_or(StructureError::BeyondAddressSpace { base_address: text_base })?;
    for s in &symbols {
        for w in s.start_word..s.start_word + s.insn_words {
            let value = oat.words[w];
            let Ok(insn) = decode(value) else {
                return Err(StructureError::Undecodable { symbol: s.name.clone(), word: w, value });
            };
            let pc = text_base + w as u64 * 4;
            let rel_target = match insn {
                Insn::Bl { offset }
                | Insn::B { offset }
                | Insn::BCond { offset, .. }
                | Insn::Cbz { offset, .. }
                | Insn::Cbnz { offset, .. }
                | Insn::Tbz { offset, .. }
                | Insn::Tbnz { offset, .. }
                | Insn::LdrLit { offset, .. } => Some(pc.wrapping_add_signed(offset)),
                _ => None,
            };
            if let Some(target) = rel_target {
                if target < text_base || target >= text_end {
                    return Err(StructureError::BranchOutOfText {
                        symbol: s.name.clone(),
                        word: w,
                        target,
                    });
                }
            }
        }
    }

    // 5. Outlined functions must end in an indirect return. An empty
    // one has no last word, so no return.
    for (index, o) in oat.outlined.iter().enumerate() {
        let end = (o.offset / 4) as usize + o.size_words as usize;
        let returns = o.size_words > 0 && matches!(decode(oat.words[end - 1]), Ok(Insn::Br { .. }));
        if !returns {
            return Err(StructureError::OutlinedNoReturn { index });
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::file::{OatMethodRecord, OutlinedRecord};
    use calibro_dex::MethodId;
    use calibro_isa::{Insn, Reg};

    const NOP: u32 = 0xd503_201f;
    const RET: u32 = 0xd65f_03c0;

    fn record(id: u32, offset: u64, words: u32) -> OatMethodRecord {
        OatMethodRecord {
            method: MethodId(id),
            offset,
            insn_words: words,
            code_words: words,
            tables: calibro_codegen::MethodTables::default(),
        }
    }

    fn two_method_file() -> OatFile {
        OatFile {
            base_address: 0x1000,
            words: vec![NOP, RET, NOP, RET],
            methods: vec![record(0, 0, 2), record(1, 8, 2)],
            thunks: vec![],
            outlined: vec![],
        }
    }

    #[test]
    fn valid_file_passes() {
        validate_structure(&two_method_file()).expect("well-formed file validates");
    }

    #[test]
    fn overlap_is_detected() {
        let mut oat = two_method_file();
        oat.methods[1].offset = 4; // now overlaps method 0's second word
        assert_eq!(
            validate_structure(&oat),
            Err(StructureError::Overlap { a: "m0".into(), b: "m1".into() })
        );
    }

    #[test]
    fn out_of_text_is_detected() {
        let mut oat = two_method_file();
        oat.methods[1].code_words = 99;
        assert!(matches!(
            validate_structure(&oat),
            Err(StructureError::OutOfText { ref symbol, .. }) if symbol == "m1"
        ));
    }

    #[test]
    fn undecodable_word_is_detected() {
        let mut oat = two_method_file();
        oat.words[2] = 0xffff_ffff;
        assert!(matches!(
            validate_structure(&oat),
            Err(StructureError::Undecodable { word: 2, value: 0xffff_ffff, .. })
        ));
    }

    #[test]
    fn branch_out_of_text_is_detected() {
        let mut oat = two_method_file();
        // `b` forward past the end of the 16-byte text segment.
        oat.words[2] = Insn::B { offset: 64 }.encode().unwrap();
        assert!(matches!(
            validate_structure(&oat),
            Err(StructureError::BranchOutOfText { word: 2, .. })
        ));
    }

    #[test]
    fn literal_pool_words_are_exempt_from_decoding() {
        let mut oat = two_method_file();
        oat.methods[1].insn_words = 1; // second word of m1 is pool data
        oat.words[3] = 0xffff_ffff;
        validate_structure(&oat).expect("pool words may hold any bits");
    }

    #[test]
    fn outlined_must_end_in_br() {
        let mut oat = two_method_file();
        oat.words.extend([NOP, Insn::Br { rn: Reg::X30 }.encode().unwrap()]);
        oat.outlined.push(OutlinedRecord { offset: 16, size_words: 2 });
        validate_structure(&oat).expect("br-terminated outlined body validates");
        oat.words[5] = NOP;
        assert_eq!(validate_structure(&oat), Err(StructureError::OutlinedNoReturn { index: 0 }));
    }

    #[test]
    fn a_call_out_of_text_is_detected() {
        let mut oat = two_method_file();
        oat.base_address = 0x4000_0000;
        // m1 word 0 (index 2) calls 64 MiB above the text: no image
        // lies there, so the call is a wild branch like any other.
        let (target, pc) = (oat.base_address + 0x0400_0000, oat.base_address + 2 * 4);
        oat.words[2] = Insn::Bl { offset: target as i64 - pc as i64 }.encode().unwrap();
        assert!(matches!(
            validate_structure(&oat),
            Err(StructureError::BranchOutOfText { word: 2, .. })
        ));
    }
}
