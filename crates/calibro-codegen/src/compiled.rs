//! The output of per-method compilation: machine code plus the
//! compilation-time metadata the paper's LTBO collects (§3.2).

use std::sync::Arc;

use calibro_dex::MethodId;
use calibro_isa::Insn;

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
    /// A merged-function island, by index (created by the function-merge
    /// size pass; cf. the global function merger of PAPERS.md). A thunk
    /// materializes the member's distinguishing constants into parameter
    /// registers and tail-branches here.
    Merged(u32),
    /// A shared-dictionary body in the daemon-wide dictionary island, by
    /// word offset within that island. Unlike [`Outlined`](Self::Outlined)
    /// the body lives outside this OAT, emitted once per daemon and
    /// linked by every tenant (cf. ShareJIT's cross-process sharing,
    /// PAPERS.md).
    Dict(u32),
}

/// One intra-method PC-relative record: instruction at `at` targets the
/// instruction (or literal word) at `target` (word indices). This is the
/// §3.2 "instructions of PC-relative addressing: record the offsets of
/// these instructions, as well as those of their targets".
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PcRel {
    /// Word index of the PC-relative instruction.
    pub at: usize,
    /// Word index of its target within the same method.
    pub target: usize,
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
    pub terminators: Vec<usize>,
    /// Embedded (non-instruction) data ranges: `(word offset, word len)`.
    pub embedded_data: Vec<(usize, usize)>,
    /// Method contains an indirect jump (`br`) — unoutlinable (§3.2).
    pub has_indirect_jump: bool,
    /// Method is a Java-native (JNI) stub — unoutlinable (§3.2).
    pub is_native_stub: bool,
    /// Slow-path regions `(start word, end word)` — outlinable even in
    /// hot functions (§3.2, §3.4.2).
    pub slow_paths: Vec<(usize, usize)>,
}

impl MethodMetadata {
    /// Returns `true` if word `idx` lies inside a recorded slow path.
    #[must_use]
    pub fn in_slow_path(&self, idx: usize) -> bool {
        self.slow_paths.iter().any(|&(s, e)| idx >= s && idx < e)
    }

    /// Returns `true` if word `idx` lies inside embedded data.
    #[must_use]
    pub fn in_embedded_data(&self, idx: usize) -> bool {
        self.embedded_data.iter().any(|&(s, l)| idx >= s && idx < s + l)
    }
}

/// A compiled method: its code (with unresolved call offsets), call
/// relocations, LTBO metadata and stack maps.
#[derive(Clone, Debug)]
pub struct CompiledMethod {
    /// The originating method.
    pub method: MethodId,
    /// Machine instructions, as codegen emitted them; empty once a size
    /// pass rewrote the method's `words`, so no stale instruction is
    /// left to read. Shared, not owned: a method replayed from the
    /// artifact cache and the cache entry it came from hold one copy.
    pub insns: Arc<[Insn]>,
    /// The method's code: one encoded word per instruction, call sites
    /// as their placeholder. Codegen encodes it once; every later stage
    /// rewrites or copies these words, and the linker emits them.
    /// Shared like `insns`, so cloning a method never copies its code.
    pub words: Arc<[u32]>,
    /// Raw literal-pool words appended after `words`.
    pub pool: Vec<u32>,
    /// Call-site relocations.
    pub relocs: Vec<Reloc>,
    /// The §3.2 metadata.
    pub metadata: MethodMetadata,
    /// Stack maps for every call site, ordered by native offset.
    pub stack_maps: Vec<StackMapEntry>,
}

impl CompiledMethod {
    /// Total size in words (code + literal pool).
    #[must_use]
    pub fn size_words(&self) -> usize {
        self.words.len() + self.pool.len()
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
    fn sizes_count_the_pool() {
        let insns = [Insn::Nop, Insn::Ret { rn: calibro_isa::Reg::LR }];
        let m = CompiledMethod {
            method: MethodId(0),
            insns: insns.into(),
            words: calibro_isa::encode_words(&insns).unwrap().into(),
            pool: vec![0xdead_beef],
            relocs: vec![],
            metadata: MethodMetadata::default(),
            stack_maps: vec![],
        };
        assert_eq!(m.size_words(), 3);
    }
}
