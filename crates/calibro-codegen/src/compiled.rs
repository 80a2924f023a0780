//! The output of per-method compilation: machine code plus the
//! compilation-time metadata the paper's LTBO collects (§3.2).

use std::borrow::Cow;
use std::sync::Arc;

use calibro_dex::wire::{
    encode, wire_fields, wire_seq, FieldEnds, Reader, Wire, WireError, Writer,
};
use calibro_dex::MethodId;
use calibro_isa::{decode_all, Insn};

/// A compilation-time-outlined pattern thunk (the paper's §3.1 "cache
/// with a label L"). The linker emits each used thunk once per OAT.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ThunkKind {
    /// Figure 4a: `ldr x16, [x0, #ENTRY]; br x16` — tail-jump into the
    /// callee through its `ArtMethod`, preserving the `bl`-installed
    /// return address.
    JavaEntry,
    /// Figure 4b: `ldr x16, [x19, #offset]; br x16` — tail-jump into a
    /// runtime entrypoint. One thunk per entrypoint offset.
    RuntimeEntry(u16),
    /// Figure 4c: `sub x16, sp, #GUARD; ldr wzr, [x16]; br x30` — probe
    /// the stack redzone and return.
    StackCheck,
}

/// A call-site relocation: the linker binds the `bl` at word index `at`
/// to the final address of `target` (§3.2: "the later linking phase ...
/// will bind function labels to addresses").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Reloc {
    /// Word index of the `bl` within the method's code.
    pub at: usize,
    /// What the call must reach.
    pub target: CallTarget,
}

/// Target of a call-site relocation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CallTarget {
    /// Another compiled method's entry.
    Method(MethodId),
    /// A CTO pattern thunk.
    Thunk(ThunkKind),
    /// A link-time outlined function, by index (created by LTBO, §3.3.3).
    Outlined(u32),
}

/// One intra-method PC-relative record: instruction at `at` targets the
/// instruction (or literal word) at `target` (word indices). This is the
/// §3.2 "instructions of PC-relative addressing: record the offsets of
/// these instructions, as well as those of their targets".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PcRel {
    /// Word index of the PC-relative instruction.
    pub at: u32,
    /// Word index of its target within the same method.
    pub target: u32,
}

/// A stack-map entry: maps the native return offset of a call site back
/// to the bytecode pc, as ART requires for unwinding/GC (§3.5).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StackMapEntry {
    /// Byte offset (within the method) of the instruction *after* the
    /// call — the value the link register holds while the callee runs.
    pub native_offset: u32,
    /// The bytecode pc of the call instruction.
    pub dex_pc: u32,
}

/// The compilation-time metadata of §3.2, recorded per method.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodMetadata {
    /// PC-relative instructions with their intra-method targets.
    pub pc_rel: Vec<PcRel>,
    /// Word indices of basic-block terminators.
    pub terminators: Vec<u32>,
    /// Embedded (non-instruction) data ranges: `(word offset, word len)`.
    pub embedded_data: Vec<(u32, u32)>,
    /// Method contains an indirect jump (`br`) — unoutlinable (§3.2).
    pub has_indirect_jump: bool,
    /// Method is a Java-native (JNI) stub — unoutlinable (§3.2).
    pub is_native_stub: bool,
    /// Slow-path regions `(start word, end word)` — outlinable even in
    /// hot functions (§3.2, §3.4.2).
    pub slow_paths: Vec<(u32, u32)>,
}

impl MethodMetadata {
    /// Returns `true` if word `idx` lies inside a recorded slow path.
    #[must_use]
    pub fn in_slow_path(&self, idx: usize) -> bool {
        self.slow_paths.iter().any(|&(s, e)| (s as usize..e as usize).contains(&idx))
    }

    /// Returns `true` if word `idx` lies inside embedded data.
    #[must_use]
    pub fn in_embedded_data(&self, idx: usize) -> bool {
        self.embedded_data
            .iter()
            .any(|&(s, l)| (s as usize..s as usize + l as usize).contains(&idx))
    }
}

/// A compiled method: its code (with unresolved call offsets), call
/// relocations, LTBO metadata and stack maps.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The originating method.
    pub method: MethodId,
    /// Machine instructions, as the build that compiled the method
    /// emitted them — and only there: empty in an artifact-cache entry,
    /// in a method replayed from one, and once outline edits were
    /// applied to the method's `words` in place, so no stale instruction
    /// is left to read. Read the code through
    /// [`instructions`](Self::instructions).
    pub insns: Arc<[Insn]>,
    /// The method's code: one encoded word per instruction, call sites
    /// as their placeholder. Codegen encodes it once; the linker applies
    /// the outline pass's edits while it copies these words into the
    /// text segment.
    ///
    /// This and every table below are shared, so cloning a method copies
    /// nothing: a method replayed from the artifact cache and the entry
    /// it came from hold one copy of each.
    pub words: Arc<[u32]>,
    /// Raw literal-pool words appended after `words`.
    pub pool: Arc<[u32]>,
    /// Call-site relocations.
    pub relocs: Arc<[Reloc]>,
    /// The §3.2 metadata.
    pub metadata: Arc<MethodMetadata>,
    /// Stack maps for every call site, ordered by native offset.
    pub stack_maps: Arc<[StackMapEntry]>,
}

impl CompiledMethod {
    /// Total size in words (code + literal pool).
    #[must_use]
    pub fn size_words(&self) -> usize {
        self.words.len() + self.pool.len()
    }

    /// The method's instructions: borrowed while `insns` holds them,
    /// decoded from `words` when it does not (a cache hit, or a method
    /// rewritten in place). A reader that needs instructions after
    /// codegen asks here, once per method per pass.
    ///
    /// # Panics
    ///
    /// Panics if a word does not decode — codegen encoded every one, and
    /// the cache admits only words that decode.
    #[must_use]
    pub fn instructions(&self) -> Cow<'_, [Insn]> {
        if self.insns.is_empty() && !self.words.is_empty() {
            Cow::Owned(decode_all(&self.words).expect("a compiled method's words decode"))
        } else {
            Cow::Borrowed(&self.insns)
        }
    }
}

// ---------------------------------------------------------------------
// Codec: the rows the artifact cache persists and the OAT's `.oatdata`
// carries. Every table is `u32`-counted and every word index a `u32`, so
// a method's metadata has one binary form on disk and in the artifact.
// ---------------------------------------------------------------------

wire_fields!(Reloc { at, target });
wire_fields!(PcRel { at, target });
wire_fields!(StackMapEntry { native_offset, dex_pc });
wire_fields!(MethodMetadata {
    pc_rel,
    terminators,
    embedded_data,
    has_indirect_jump,
    is_native_stub,
    slow_paths,
});

// A relocation's smallest form is its `u64` word index and a bare call
// target tag.
wire_seq!(Reloc: 8 + 1, PcRel: 4 + 4, StackMapEntry: 4 + 4);

/// A tag byte, then a `u16` argument — the entrypoint offset of a
/// runtime-entry thunk, zero for the other two kinds.
impl Wire for ThunkKind {
    fn put(&self, w: &mut Writer) {
        let (tag, arg) = match *self {
            ThunkKind::JavaEntry => (0, 0),
            ThunkKind::RuntimeEntry(offset) => (1, offset),
            ThunkKind::StackCheck => (2, 0),
        };
        w.u8(tag);
        w.u16(arg);
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<ThunkKind, WireError> {
        let tag = r.u8(what)?;
        let arg = r.u16(what)?;
        match tag {
            0 => Ok(ThunkKind::JavaEntry),
            1 => Ok(ThunkKind::RuntimeEntry(arg)),
            2 => Ok(ThunkKind::StackCheck),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }

    fn encoded_len(&self) -> usize {
        1 + 2
    }
}

/// One tag byte for the target kind — the three thunk kinds fused in —
/// then the id, index or entrypoint offset it carries.
impl Wire for CallTarget {
    fn put(&self, w: &mut Writer) {
        match self {
            CallTarget::Method(id) => {
                w.u8(0);
                id.put(w);
            }
            CallTarget::Thunk(ThunkKind::JavaEntry) => w.u8(1),
            CallTarget::Thunk(ThunkKind::RuntimeEntry(offset)) => {
                w.u8(2);
                offset.put(w);
            }
            CallTarget::Thunk(ThunkKind::StackCheck) => w.u8(3),
            CallTarget::Outlined(i) => {
                w.u8(4);
                i.put(w);
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<CallTarget, WireError> {
        Ok(match r.u8(what)? {
            0 => CallTarget::Method(Wire::get(r, what)?),
            1 => CallTarget::Thunk(ThunkKind::JavaEntry),
            2 => CallTarget::Thunk(ThunkKind::RuntimeEntry(Wire::get(r, what)?)),
            3 => CallTarget::Thunk(ThunkKind::StackCheck),
            4 => CallTarget::Outlined(Wire::get(r, what)?),
            tag => return Err(WireError::InvalidTag { what, tag }),
        })
    }
}

/// A compiled method's code travels once, as its words under the name
/// `insns` — a `u32` count, then one word per instruction. Decoding
/// keeps the words only: a decoded method's `insns` is empty, as a
/// stored entry's is (whether the words are code is the cache's
/// validator's to check). The shared tables travel as owned ones would.
/// Written by hand because `wire_fields!` puts every field on the wire;
/// the destructures below are still exhaustive.
impl Wire for CompiledMethod {
    fn put(&self, w: &mut Writer) {
        let CompiledMethod { method, insns: _, words, pool, relocs, metadata, stack_maps } = self;
        method.put(w);
        w.seq(words);
        pool.put(w);
        relocs.put(w);
        metadata.put(w);
        stack_maps.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<CompiledMethod, WireError> {
        Ok(CompiledMethod {
            method: Wire::get(r, "method")?,
            insns: Arc::default(),
            words: Wire::get(r, "insns")?,
            pool: Wire::get(r, "pool")?,
            relocs: Wire::get(r, "relocs")?,
            metadata: Wire::get(r, "metadata")?,
            stack_maps: Wire::get(r, "stack_maps")?,
        })
    }
}

impl FieldEnds for CompiledMethod {
    fn field_ends(&self) -> Vec<(&'static str, usize)> {
        let CompiledMethod { method, insns: _, words, pool, relocs, metadata, stack_maps } = self;
        let lens = [
            ("method", encode(method).len()),
            ("insns", 4 + 4 * words.len()),
            ("pool", encode(pool).len()),
            ("relocs", encode(relocs).len()),
            ("metadata", encode(metadata).len()),
            ("stack_maps", encode(stack_maps).len()),
        ];
        let mut end = 0;
        lens.map(|(name, len)| {
            end += len;
            (name, end)
        })
        .to_vec()
    }
}

// Compiled methods cross worker-thread boundaries in `calibro::build`'s
// parallel compile phase; fail here if that ever stops holding.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompiledMethod>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_range_queries() {
        let meta = MethodMetadata {
            slow_paths: vec![(10, 13)],
            embedded_data: vec![(20, 2)],
            ..MethodMetadata::default()
        };
        assert!(meta.in_slow_path(10));
        assert!(meta.in_slow_path(12));
        assert!(!meta.in_slow_path(13));
        assert!(meta.in_embedded_data(21));
        assert!(!meta.in_embedded_data(22));
    }

    #[test]
    fn every_declared_minimum_is_the_smallest_encoding() {
        use calibro_dex::wire::SeqElem;
        fn smallest<T: SeqElem>(value: T) {
            assert_eq!(encode(&value).len(), T::MIN_BYTES, "{}", core::any::type_name::<T>());
        }
        smallest(Reloc { at: 0, target: CallTarget::Thunk(ThunkKind::JavaEntry) });
        smallest(PcRel { at: 0, target: 0 });
        smallest(StackMapEntry { native_offset: 0, dex_pc: 0 });
    }

    #[test]
    fn sizes_count_the_pool() {
        let insns = [Insn::Nop, Insn::Ret { rn: calibro_isa::Reg::LR }];
        let m = CompiledMethod {
            method: MethodId(0),
            insns: insns.into(),
            words: calibro_isa::encode_words(&insns).unwrap().into(),
            pool: Arc::from([0xdead_beef]),
            relocs: Arc::default(),
            metadata: Arc::default(),
            stack_maps: Arc::default(),
        };
        assert_eq!(m.size_words(), 3);
    }

    #[test]
    fn instructions_are_borrowed_or_decoded_from_the_words() {
        let insns = [Insn::Nop, Insn::Ret { rn: calibro_isa::Reg::LR }];
        let mut m = CompiledMethod {
            method: MethodId(0),
            insns: insns.into(),
            words: calibro_isa::encode_words(&insns).unwrap().into(),
            pool: Arc::default(),
            relocs: Arc::default(),
            metadata: Arc::default(),
            stack_maps: Arc::default(),
        };
        assert!(matches!(m.instructions(), Cow::Borrowed(code) if code == insns));
        m.insns = Arc::from([]);
        assert!(matches!(m.instructions(), Cow::Owned(code) if code == insns));
    }
}
