//! The output of per-method compilation: machine code plus the
//! compilation-time metadata the paper's LTBO collects (§3.2).

use std::borrow::Cow;
use std::fmt;
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

/// Header of a [`MethodTables`] block: where each of the five sections
/// ends, then the flags word.
const SECTIONS: usize = 5;
const FLAGS: usize = SECTIONS;
const HEADER: usize = SECTIONS + 1;
const INDIRECT_JUMP: u32 = 1;
const NATIVE_STUB: u32 = 2;

/// A method's §3.2 metadata and §3.5 stack maps as one immutable block
/// of words, shared by codegen's outcome, the cache entry, every hit
/// replayed from it and the linked record.
///
/// The block opens with a header — the end of each section, then a
/// flags word — and then come the sections, each a run of words:
///
/// - **PC-relative pairs** `[at, target]`: the instruction at word `at`
///   targets the instruction (or literal word) at `target` (§3.2: "record
///   the offsets of these instructions, as well as those of their
///   targets");
/// - **terminators**: word indices of basic-block terminators;
/// - **embedded-data pairs** `[start, len]`: non-instruction word ranges;
/// - **slow-path pairs** `[start, end)`: outlinable even in hot methods
///   (§3.2, §3.4.2);
/// - **stack-map pairs** `[native offset, dex pc]`: the byte offset of
///   the word after a call (the value the link register holds while the
///   callee runs) and the call's bytecode pc, by native offset (§3.5).
///
/// The flags mark a method with an indirect jump and a JNI stub, both
/// unoutlinable (§3.2). Tables with no entry and no flag are the empty
/// block, which allocates nothing; no other block is empty, so two
/// tables are equal exactly when their blocks are.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MethodTables(Arc<[u32]>);

/// A method's tables as slices: what [`MethodTables::new`] packs and
/// [`MethodTables::sections`] reads back.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[allow(missing_docs)] // each field is the section `MethodTables` documents
pub struct TableSlices<'a> {
    pub pc_rel: &'a [[u32; 2]],
    pub terminators: &'a [u32],
    pub embedded_data: &'a [[u32; 2]],
    pub slow_paths: &'a [[u32; 2]],
    pub stack_maps: &'a [[u32; 2]],
    pub has_indirect_jump: bool,
    pub is_native_stub: bool,
}

/// The sections of a block being rewritten: every entry may change, no
/// table its length, the flags not at all.
#[allow(missing_docs)] // each field is the section `MethodTables` documents
pub struct TablesMut<'a> {
    pub pc_rel: &'a mut [[u32; 2]],
    pub terminators: &'a mut [u32],
    pub embedded_data: &'a mut [[u32; 2]],
    pub slow_paths: &'a mut [[u32; 2]],
    pub stack_maps: &'a mut [[u32; 2]],
}

impl MethodTables {
    /// The row of empty tables: five counts and two flag bytes.
    pub const EMPTY_ROW_BYTES: usize = 5 * 4 + 2;

    /// Packs `tables` into one block: one allocation, exactly sized, or
    /// none when every table is empty and no flag is set.
    #[must_use]
    pub fn new(tables: TableSlices<'_>) -> MethodTables {
        let TableSlices {
            pc_rel,
            terminators,
            embedded_data,
            slow_paths,
            stack_maps,
            has_indirect_jump,
            is_native_stub,
        } = tables;
        let sections = [
            pc_rel.as_flattened(),
            terminators,
            embedded_data.as_flattened(),
            slow_paths.as_flattened(),
            stack_maps.as_flattened(),
        ];
        let flags = if has_indirect_jump { INDIRECT_JUMP } else { 0 }
            | if is_native_stub { NATIVE_STUB } else { 0 };
        let body: usize = sections.iter().map(|s| s.len()).sum();
        if body == 0 && flags == 0 {
            return MethodTables::default();
        }
        // An exact-length iterator collects into one allocation.
        let mut block: Arc<[u32]> = std::iter::repeat_n(0, HEADER + body).collect();
        let b = Arc::get_mut(&mut block).expect("a fresh block is unique");
        let mut end = HEADER;
        for (k, section) in sections.into_iter().enumerate() {
            b[end..end + section.len()].copy_from_slice(section);
            end += section.len();
            b[k] = u32::try_from(end).expect("a method's tables fit a u32 index");
        }
        b[FLAGS] = flags;
        MethodTables(block)
    }

    /// Section `k`'s words (none in the empty block).
    fn section(&self, k: usize) -> &[u32] {
        let b = &self.0;
        if b.is_empty() {
            return &[];
        }
        let start = if k == 0 { HEADER } else { b[k - 1] as usize };
        &b[start..b[k] as usize]
    }

    fn pairs(&self, k: usize) -> &[[u32; 2]] {
        self.section(k).as_chunks().0
    }

    /// PC-relative `[at, target]` pairs.
    #[must_use]
    pub fn pc_rel(&self) -> &[[u32; 2]] {
        self.pairs(0)
    }

    /// Word indices of basic-block terminators.
    #[must_use]
    pub fn terminators(&self) -> &[u32] {
        self.section(1)
    }

    /// Embedded-data `[start, len]` word ranges.
    #[must_use]
    pub fn embedded_data(&self) -> &[[u32; 2]] {
        self.pairs(2)
    }

    /// Slow-path `[start, end)` word ranges.
    #[must_use]
    pub fn slow_paths(&self) -> &[[u32; 2]] {
        self.pairs(3)
    }

    /// Stack maps, `[native offset, dex pc]` pairs by native offset.
    #[must_use]
    pub fn stack_maps(&self) -> &[[u32; 2]] {
        self.pairs(4)
    }

    fn flags(&self) -> u32 {
        self.0.get(FLAGS).copied().unwrap_or(0)
    }

    /// The method contains an indirect jump (`br`): unoutlinable (§3.2).
    #[must_use]
    pub fn has_indirect_jump(&self) -> bool {
        self.flags() & INDIRECT_JUMP != 0
    }

    /// The method is a Java-native (JNI) stub: unoutlinable (§3.2).
    #[must_use]
    pub fn is_native_stub(&self) -> bool {
        self.flags() & NATIVE_STUB != 0
    }

    /// Every table and flag.
    #[must_use]
    pub fn sections(&self) -> TableSlices<'_> {
        TableSlices {
            pc_rel: self.pc_rel(),
            terminators: self.terminators(),
            embedded_data: self.embedded_data(),
            slow_paths: self.slow_paths(),
            stack_maps: self.stack_maps(),
            has_indirect_jump: self.has_indirect_jump(),
            is_native_stub: self.is_native_stub(),
        }
    }

    /// The whole block, header included: what the tables occupy.
    #[must_use]
    pub fn block(&self) -> &[u32] {
        &self.0
    }

    /// `true` when both share one block.
    #[must_use]
    pub fn ptr_eq(a: &MethodTables, b: &MethodTables) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Returns `true` if word `idx` lies inside a recorded slow path.
    #[must_use]
    pub fn in_slow_path(&self, idx: usize) -> bool {
        self.slow_paths().iter().any(|&[s, e]| (s as usize..e as usize).contains(&idx))
    }

    /// Returns `true` if word `idx` lies inside embedded data.
    #[must_use]
    pub fn in_embedded_data(&self, idx: usize) -> bool {
        self.embedded_data()
            .iter()
            .any(|&[s, l]| (s as usize..s as usize + l as usize).contains(&idx))
    }

    /// A copy of these tables with their entries rewritten by `edit`:
    /// every table keeps its length under outline edits, so the copy is
    /// one allocation the size of this block, filled as `edit` walks its
    /// sections in place. The empty block is shared, not copied.
    #[must_use]
    pub fn remapped(&self, edit: impl FnOnce(TablesMut<'_>)) -> MethodTables {
        if self.0.is_empty() {
            return self.clone();
        }
        let mut block: Arc<[u32]> = Arc::from(&self.0[..]);
        let b = Arc::get_mut(&mut block).expect("a fresh block is unique");
        let (header, mut rest) = b.split_at_mut(HEADER);
        let mut start = HEADER;
        let mut take = |k: usize| {
            let end = header[k] as usize;
            let (section, tail) = std::mem::take(&mut rest).split_at_mut(end - start);
            (start, rest) = (end, tail);
            section
        };
        edit(TablesMut {
            pc_rel: take(0).as_chunks_mut().0,
            terminators: take(1),
            embedded_data: take(2).as_chunks_mut().0,
            slow_paths: take(3).as_chunks_mut().0,
            stack_maps: take(4).as_chunks_mut().0,
        });
        MethodTables(block)
    }
}

impl fmt::Debug for MethodTables {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.sections();
        f.debug_struct("MethodTables")
            .field("pc_rel", &t.pc_rel)
            .field("terminators", &t.terminators)
            .field("embedded_data", &t.embedded_data)
            .field("slow_paths", &t.slow_paths)
            .field("stack_maps", &t.stack_maps)
            .field("has_indirect_jump", &t.has_indirect_jump)
            .field("is_native_stub", &t.is_native_stub)
            .finish()
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
    /// This and the tables below are shared, so cloning a method copies
    /// nothing: a method replayed from the artifact cache and the entry
    /// it came from hold one copy of each.
    pub words: Arc<[u32]>,
    /// Raw literal-pool words appended after `words`.
    pub pool: Arc<[u32]>,
    /// Call-site relocations, ascending by site.
    pub relocs: Arc<[Reloc]>,
    /// The §3.2 metadata and the stack maps, one shared block.
    pub tables: MethodTables,
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

// A relocation's smallest form is its `u64` word index and a bare call
// target tag.
wire_seq!(Reloc: 8 + 1);

/// The tables' row: the counted tables and two flag bytes in the order
/// of the §3.2 metadata's fields — PC-relative pairs, terminators,
/// embedded-data pairs, the indirect-jump and native-stub flags,
/// slow-path pairs — then the counted stack maps. Each table is a `u32`
/// count, then its words (both halves of each pair), copied as a whole;
/// each decodes under its own name.
impl Wire for MethodTables {
    fn put(&self, w: &mut Writer) {
        w.u32_rows(self.section(0), 2);
        w.u32_rows(self.section(1), 1);
        w.u32_rows(self.section(2), 2);
        self.has_indirect_jump().put(w);
        self.is_native_stub().put(w);
        w.u32_rows(self.section(3), 2);
        w.u32_rows(self.section(4), 2);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<MethodTables, WireError> {
        let mut block = vec![0; HEADER];
        let mut section = |r: &mut Reader<'_>, k: usize, width, what| {
            r.u32_rows(width, &mut block, what)?;
            block[k] = block.len() as u32;
            Ok::<_, WireError>(())
        };
        section(r, 0, 2, "pc_rel")?;
        section(r, 1, 1, "terminators")?;
        section(r, 2, 2, "embedded_data")?;
        let has_indirect_jump = bool::get(r, "has_indirect_jump")?;
        let is_native_stub = bool::get(r, "is_native_stub")?;
        section(r, 3, 2, "slow_paths")?;
        section(r, 4, 2, "stack_maps")?;
        block[FLAGS] = if has_indirect_jump { INDIRECT_JUMP } else { 0 }
            | if is_native_stub { NATIVE_STUB } else { 0 };
        Ok(if block.len() == HEADER && block[FLAGS] == 0 {
            MethodTables::default()
        } else {
            MethodTables(block.into())
        })
    }

    fn encoded_len(&self) -> usize {
        MethodTables::EMPTY_ROW_BYTES + 4 * self.0.len().saturating_sub(HEADER)
    }
}

impl FieldEnds for MethodTables {
    fn field_ends(&self) -> Vec<(&'static str, usize)> {
        let table = |k: usize| 4 + 4 * self.section(k).len();
        let lens = [
            ("pc_rel", table(0)),
            ("terminators", table(1)),
            ("embedded_data", table(2)),
            ("has_indirect_jump", 1),
            ("is_native_stub", 1),
            ("slow_paths", table(3)),
            ("stack_maps", table(4)),
        ];
        let mut end = 0;
        lens.map(|(name, len)| {
            end += len;
            (name, end)
        })
        .to_vec()
    }
}

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
        let CompiledMethod { method, insns: _, words, pool, relocs, tables } = self;
        method.put(w);
        w.seq(words);
        pool.put(w);
        relocs.put(w);
        tables.put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<CompiledMethod, WireError> {
        Ok(CompiledMethod {
            method: Wire::get(r, "method")?,
            insns: Arc::default(),
            words: Wire::get(r, "insns")?,
            pool: Wire::get(r, "pool")?,
            relocs: Wire::get(r, "relocs")?,
            tables: Wire::get(r, "tables")?,
        })
    }
}

impl FieldEnds for CompiledMethod {
    fn field_ends(&self) -> Vec<(&'static str, usize)> {
        let CompiledMethod { method, insns: _, words, pool, relocs, tables } = self;
        let lens = [
            ("method", encode(method).len()),
            ("insns", 4 + 4 * words.len()),
            ("pool", encode(pool).len()),
            ("relocs", encode(relocs).len()),
            ("tables", tables.encoded_len()),
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

    fn sample() -> TableSlices<'static> {
        TableSlices {
            pc_rel: &[[0, 2], [1, 5]],
            terminators: &[3],
            embedded_data: &[[20, 2]],
            slow_paths: &[[10, 13]],
            stack_maps: &[[8, 1]],
            has_indirect_jump: false,
            is_native_stub: true,
        }
    }

    #[test]
    fn tables_read_back_as_packed_and_answer_range_queries() {
        let tables = MethodTables::new(sample());
        assert_eq!(tables.sections(), sample());
        assert_eq!(tables.block().len(), HEADER + 4 + 1 + 2 + 2 + 2);
        assert!(tables.in_slow_path(10));
        assert!(tables.in_slow_path(12));
        assert!(!tables.in_slow_path(13));
        assert!(tables.in_embedded_data(21));
        assert!(!tables.in_embedded_data(22));
        // Nothing in them: the shared empty block, which reads as empty.
        let empty = MethodTables::new(TableSlices::default());
        assert!(empty.block().is_empty() && empty == MethodTables::default());
        assert_eq!(empty.sections(), TableSlices::default());
        // A flag alone is not empty.
        let stub =
            MethodTables::new(TableSlices { is_native_stub: true, ..TableSlices::default() });
        assert!(stub.is_native_stub() && !stub.has_indirect_jump() && stub != empty);
    }

    #[test]
    fn remapping_copies_the_block_once_and_keeps_every_length() {
        let tables = MethodTables::new(sample());
        let moved = tables.remapped(|t| {
            assert_eq!((t.pc_rel.len(), t.terminators.len(), t.stack_maps.len()), (2, 1, 1));
            t.pc_rel[1] = [1, 4];
            t.terminators[0] = 2;
            t.stack_maps[0][0] = 4;
        });
        let expected = TableSlices {
            pc_rel: &[[0, 2], [1, 4]],
            terminators: &[2],
            stack_maps: &[[4, 1]],
            ..sample()
        };
        assert_eq!(moved.sections(), expected);
        assert_eq!(tables.sections(), sample(), "the original is untouched");
        let empty = MethodTables::default();
        assert!(MethodTables::ptr_eq(&empty.remapped(|_| unreachable!()), &empty));
    }

    #[test]
    fn tables_round_trip_and_keep_their_field_ends() {
        for tables in [MethodTables::new(sample()), MethodTables::default()] {
            let bytes = encode(&tables);
            assert_eq!(bytes.len(), tables.encoded_len());
            assert_eq!(tables.field_ends().last(), Some(&("stack_maps", bytes.len())));
            assert_eq!(calibro_dex::wire::decode::<MethodTables>(&bytes), Ok(tables));
        }
    }

    #[test]
    fn every_declared_minimum_is_the_smallest_encoding() {
        use calibro_dex::wire::SeqElem;
        fn smallest<T: SeqElem>(value: T) {
            assert_eq!(encode(&value).len(), T::MIN_BYTES, "{}", core::any::type_name::<T>());
        }
        smallest(Reloc { at: 0, target: CallTarget::Thunk(ThunkKind::JavaEntry) });
        assert_eq!(encode(&MethodTables::default()).len(), MethodTables::EMPTY_ROW_BYTES);
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
            tables: MethodTables::default(),
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
            tables: MethodTables::default(),
        };
        assert!(matches!(m.instructions(), Cow::Borrowed(code) if code == insns));
        m.insns = Arc::from([]);
        assert!(matches!(m.instructions(), Cow::Owned(code) if code == insns));
    }
}
