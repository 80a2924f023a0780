//! The linked OAT file: the final text segment plus per-method records.

use std::sync::Arc;

use calibro_codegen::{MethodMetadata, StackMapEntry, ThunkKind};
use calibro_dex::wire::{wire_fields, wire_seq};
use calibro_dex::MethodId;

/// Default load address of the text segment.
pub const DEFAULT_BASE_ADDRESS: u64 = 0x4000_0000;

/// One linked method inside an [`OatFile`].
#[derive(Clone, Debug)]
pub struct OatMethodRecord {
    /// The method id.
    pub method: MethodId,
    /// Byte offset of the method's code within the text segment.
    pub offset: u64,
    /// Instruction words (excluding the trailing literal pool).
    pub insn_words: u32,
    /// Total code words including the literal pool.
    pub code_words: u32,
    /// LTBO metadata carried through linking: the compiled method's own
    /// table, shared, when linking moved none of its words.
    pub metadata: Arc<MethodMetadata>,
    /// Stack maps, sorted by native offset (shared like `metadata`).
    pub stack_maps: Arc<[StackMapEntry]>,
}

impl OatMethodRecord {
    /// Byte size of the method's code (pool included).
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.code_words as u64 * 4
    }

    /// Returns `true` if `address` (absolute) falls inside this method.
    #[must_use]
    pub fn contains(&self, base: u64, address: u64) -> bool {
        let start = base + self.offset;
        address >= start && address < start + self.size_bytes()
    }
}

/// A linked CTO thunk.
#[derive(Clone, Copy, Debug)]
pub struct ThunkRecord {
    /// Which pattern this thunk implements.
    pub kind: ThunkKind,
    /// Byte offset within the text segment.
    pub offset: u64,
    /// Size in words.
    pub size_words: u32,
}

/// A linked LTBO outlined function.
#[derive(Clone, Debug)]
pub struct OutlinedRecord {
    /// Byte offset within the text segment.
    pub offset: u64,
    /// Size in words (sequence + the `br x30` return).
    pub size_words: u32,
}

/// A linked OAT file.
#[derive(Clone, Debug)]
pub struct OatFile {
    /// Load address of the text segment.
    pub base_address: u64,
    /// The encoded text segment (little-endian words).
    pub words: Vec<u32>,
    /// Per-method records, in method-id order.
    pub methods: Vec<OatMethodRecord>,
    /// CTO thunks.
    pub thunks: Vec<ThunkRecord>,
    /// LTBO outlined functions.
    pub outlined: Vec<OutlinedRecord>,
}

impl OatFile {
    /// Size of the text segment in bytes — the paper's Table 4 metric.
    #[must_use]
    pub fn text_size_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }

    /// Absolute entry address of a method.
    ///
    /// # Panics
    ///
    /// Panics if the method id is out of range.
    #[must_use]
    pub fn entry_address(&self, method: MethodId) -> u64 {
        self.base_address + self.methods[method.index()].offset
    }

    /// Finds the method containing an absolute address, if any.
    #[must_use]
    pub fn method_at(&self, address: u64) -> Option<&OatMethodRecord> {
        // Methods are laid out in offset order; binary search.
        if address < self.base_address {
            return None;
        }
        let rel = address - self.base_address;
        let idx = self.methods.partition_point(|m| m.offset <= rel);
        let record = self.methods[..idx].last()?;
        record.contains(self.base_address, address).then_some(record)
    }

    /// The text segment as raw little-endian bytes.
    #[must_use]
    pub fn text_bytes(&self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(self.words.len() * 4);
        for w in &self.words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    /// A FNV-1a digest of the text segment, for cheap byte-identity
    /// comparisons (warm-vs-cold rebuild checks, conformance rows).
    #[must_use]
    pub fn text_digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for w in &self.words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Total words attributable to outlined functions and thunks (diagnostics for the experiment harness).
    #[must_use]
    pub fn outlined_words(&self) -> usize {
        self.outlined.iter().map(|o| o.size_words as usize).sum::<usize>()
            + self.thunks.iter().map(|t| t.size_words as usize).sum::<usize>()
    }
}

// ---------------------------------------------------------------------
// Codec: the `.oatdata` records are rows of the `Wire` table, in field
// order — word counts and indices `u32`, offsets `u64`.
// ---------------------------------------------------------------------

wire_fields!(OatMethodRecord { method, offset, insn_words, code_words, metadata, stack_maps });
wire_fields!(ThunkRecord { kind, offset, size_words });
wire_fields!(OutlinedRecord { offset, size_words });

// A method record's smallest form: its id, offset and two counts, four
// empty metadata tables and two flag bytes, an empty stack-map table.
wire_seq!(
    OatMethodRecord: 4 + 8 + 4 + 4 + (4 + 4 + 4 + 1 + 1 + 4) + 4,
    ThunkRecord: (1 + 2) + 8 + 4,
    OutlinedRecord: 8 + 4,
);

#[cfg(test)]
mod tests {
    use super::*;

    fn file_with_two_methods() -> OatFile {
        OatFile {
            base_address: 0x1000,
            words: vec![0xd503_201f; 6],
            methods: vec![
                OatMethodRecord {
                    method: MethodId(0),
                    offset: 0,
                    insn_words: 2,
                    code_words: 2,
                    metadata: Arc::default(),
                    stack_maps: Arc::default(),
                },
                OatMethodRecord {
                    method: MethodId(1),
                    offset: 8,
                    insn_words: 4,
                    code_words: 4,
                    metadata: Arc::default(),
                    stack_maps: Arc::default(),
                },
            ],
            thunks: vec![],
            outlined: vec![],
        }
    }

    #[test]
    fn address_queries() {
        let oat = file_with_two_methods();
        assert_eq!(oat.entry_address(MethodId(1)), 0x1008);
        assert_eq!(oat.method_at(0x1000).unwrap().method, MethodId(0));
        assert_eq!(oat.method_at(0x1004).unwrap().method, MethodId(0));
        assert_eq!(oat.method_at(0x1008).unwrap().method, MethodId(1));
        assert_eq!(oat.method_at(0x1014).unwrap().method, MethodId(1));
        assert!(oat.method_at(0x1018).is_none());
        assert!(oat.method_at(0xfff).is_none());
    }

    #[test]
    fn sizes() {
        let oat = file_with_two_methods();
        assert_eq!(oat.text_size_bytes(), 24);
        assert_eq!(oat.text_bytes().len(), 24);
    }
}
