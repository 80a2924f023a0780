//! The linker: lays out compiled methods, outlined functions and CTO
//! thunks, applies the outline pass's edits, binds call labels to
//! addresses, and assembles the final text segment from their words
//! (the "linking" stage of the paper's Figure 5).

use std::fmt;

use calibro_codegen::{thunk_code, CallTarget, CompiledMethod, Reloc, ThunkKind};
use calibro_isa::{decode, EncodeError, Insn};

use crate::file::{OatFile, OatMethodRecord, OutlinedRecord, ThunkRecord};
use crate::rewrite::{removed_words, MethodEdits, RewriteStats, Rewriter};

/// Input to the linker: every body as its words, and the edits the
/// outline pass planned for the methods.
#[derive(Debug, Default)]
pub struct LinkInput {
    /// Compiled methods; index must equal `MethodId`. Each is sized,
    /// copied and patched from its `words`, with its edits applied.
    pub methods: Vec<CompiledMethod>,
    /// Each method's outlined occurrences, sorted, applied as the method
    /// is copied into the text segment. Empty when nothing was outlined
    /// (or the methods were rewritten already, as `calibro::run_ltbo`
    /// does).
    pub edits: MethodEdits,
    /// LTBO outlined functions' words, addressed by
    /// `CallTarget::Outlined(i)`.
    pub outlined: Vec<Vec<u32>>,
}

/// A linking failure.
#[derive(Debug)]
#[allow(missing_docs)] // variant fields name the offending site
pub enum LinkError {
    /// A method's table index does not match its id.
    MisorderedMethod { index: usize },
    /// A relocation references a missing method or outlined function.
    UnresolvedTarget { method: usize, at: usize },
    /// A relocation site is not a `bl` instruction.
    NotACallSite { method: usize, at: usize },
    /// A thunk did not land at the offset its callers were bound to (an
    /// internal layout inconsistency, surfaced as an error rather than
    /// as calls into the wrong code).
    MissingThunk { kind: ThunkKind },
    /// Final encoding failed (usually a branch out of range).
    Encode(EncodeError),
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::MisorderedMethod { index } => {
                write!(f, "method at table index {index} has a mismatched id")
            }
            LinkError::UnresolvedTarget { method, at } => {
                write!(f, "method {method}: unresolved call target at word {at}")
            }
            LinkError::NotACallSite { method, at } => {
                write!(f, "method {method}: relocation at word {at} is not a bl")
            }
            LinkError::MissingThunk { kind } => {
                write!(f, "thunk {kind:?} was not laid out where its callers were bound")
            }
            LinkError::Encode(e) => write!(f, "encoding failed: {e}"),
        }
    }
}

impl std::error::Error for LinkError {}

impl From<EncodeError> for LinkError {
    fn from(e: EncodeError) -> LinkError {
        LinkError::Encode(e)
    }
}

/// Links the input into a final [`OatFile`] at `base_address`.
///
/// Layout: methods in id order, then outlined functions, then one copy
/// of each CTO thunk referenced by any relocation (the §3.1 pattern
/// cache, materialized).
///
/// Every method and outlined function is sized from its words
/// (a method's less the words its edits remove) and written into the
/// text segment once: a method with edits as [`Rewriter::rewrite`]
/// rewrites it, whose remapped metadata and stack maps go into its
/// record; any other keeps its own, shared. Call patching then checks
/// and rewrites the call sites already there. Only the CTO thunks, the
/// patched call sites and the PC-relative sites whose distance changed
/// are encoded here — linking is on the warm-rebuild critical path for
/// every build.
///
/// # Errors
///
/// Returns a [`LinkError`] for unresolved relocations, malformed inputs,
/// or out-of-range branches.
pub fn link(input: LinkInput, base_address: u64) -> Result<OatFile, LinkError> {
    link_with_stats(input, base_address).map(|(oat, _)| oat)
}

/// Links the input like [`link`], and also returns what applying the
/// edits changed beyond the call sites — counted in the one pass that
/// rewrites the records, which is why a build reports it from here.
///
/// # Errors
///
/// Everything [`link`] can return.
pub fn link_with_stats(
    input: LinkInput,
    base_address: u64,
) -> Result<(OatFile, RewriteStats), LinkError> {
    let LinkInput { methods, edits, outlined } = input;
    // --- Collect referenced thunks (sorted for determinism). -----------
    // A handful of kinds against tens of thousands of relocations: a
    // small table scanned per relocation, sorted once.
    let mut thunk_kinds: Vec<ThunkKind> = Vec::new();
    for r in methods.iter().flat_map(|m| m.relocs.iter()) {
        if let CallTarget::Thunk(kind) = r.target {
            if !thunk_kinds.contains(&kind) {
                thunk_kinds.push(kind);
            }
        }
    }
    thunk_kinds.sort_unstable();

    // --- Assign offsets. ------------------------------------------------
    let mut offset = 0u64;
    let mut method_offsets = Vec::with_capacity(methods.len());
    for (index, m) in methods.iter().enumerate() {
        if m.method.index() != index {
            return Err(LinkError::MisorderedMethod { index });
        }
        method_offsets.push(offset);
        offset += (m.size_words() - removed_words(edits.of(index))) as u64 * 4;
    }
    let mut outlined_offsets = Vec::with_capacity(outlined.len());
    for o in &outlined {
        outlined_offsets.push(offset);
        offset += o.len() as u64 * 4;
    }
    // Sorted by kind, so a relocation's thunk is a binary search away.
    let mut thunks: Vec<(ThunkKind, u64, Vec<Insn>)> = Vec::with_capacity(thunk_kinds.len());
    for kind in thunk_kinds {
        let code = thunk_code(kind);
        let size = code.len() as u64 * 4;
        thunks.push((kind, offset, code));
        offset += size;
    }

    let resolve = |method: usize, r: &Reloc| -> Result<u64, LinkError> {
        let unresolved = LinkError::UnresolvedTarget { method, at: r.at };
        match r.target {
            CallTarget::Method(id) => method_offsets.get(id.index()).copied().ok_or(unresolved),
            CallTarget::Thunk(kind) => thunks
                .binary_search_by_key(&kind, |&(k, _, _)| k)
                .map(|i| thunks[i].1)
                .map_err(|_| unresolved),
            CallTarget::Outlined(i) => outlined_offsets.get(i as usize).copied().ok_or(unresolved),
        }
    };
    // Call sites carry a placeholder `bl`, so the body's words hold a
    // valid word there and this overwrites it with the resolved offset.
    // `site` names the method in errors, `code_start` is its offset and
    // `body` its words in the text segment — the one place a site is
    // checked.
    let patch_calls = |site: usize,
                       relocs: &[Reloc],
                       code_start: u64,
                       body: &mut [u32]|
     -> Result<(), LinkError> {
        for r in relocs {
            if !matches!(body.get(r.at).map(|&word| decode(word)), Some(Ok(Insn::Bl { .. }))) {
                return Err(LinkError::NotACallSite { method: site, at: r.at });
            }
            let target = resolve(site, r)?;
            let insn_addr = code_start + r.at as u64 * 4;
            body[r.at] = Insn::Bl { offset: target as i64 - insn_addr as i64 }.encode()?;
        }
        Ok(())
    };

    // --- Write every body's words, apply edits and patch calls. ---------
    let mut words = Vec::with_capacity((offset / 4) as usize);
    let mut records = Vec::with_capacity(methods.len());
    let (mut rewriter, mut stats) = (Rewriter::default(), RewriteStats::default());
    for (index, m) in methods.iter().enumerate() {
        // Codegen encoded the instructions once, and rewriting words in
        // place (`run_ltbo`) empties them; this checks the words before
        // their edits apply. The debug-profile test run is what checks
        // the two forms never disagree.
        debug_assert!(
            m.insns.is_empty()
                || calibro_isa::encode_words(&m.insns).as_deref() == Ok(&m.words[..]),
            "method {index}: its words are not its instructions encoded"
        );
        let code_start = method_offsets[index];
        let start_word = words.len();
        let rewritten = rewriter.rewrite(m, edits.of(index), &mut words);
        stats += rewritten.stats;
        patch_calls(index, rewritten.relocs, code_start, &mut words[start_word..])?;
        let insn_words = (words.len() - start_word) as u32;
        words.extend_from_slice(&m.pool);
        records.push(OatMethodRecord {
            method: m.method,
            offset: code_start,
            insn_words,
            code_words: insn_words + m.pool.len() as u32,
            metadata: rewritten.metadata,
            stack_maps: rewritten.stack_maps,
        });
    }

    let mut outlined_records = Vec::with_capacity(outlined.len());
    for (o, &off) in outlined.iter().zip(&outlined_offsets) {
        words.extend_from_slice(o);
        outlined_records.push(OutlinedRecord { offset: off, size_words: o.len() as u32 });
    }

    let mut thunk_records = Vec::with_capacity(thunks.len());
    for (kind, off, code) in &thunks {
        // The relocations were resolved against `off`; the thunk has to
        // land exactly there.
        if *off != words.len() as u64 * 4 {
            return Err(LinkError::MissingThunk { kind: *kind });
        }
        for insn in code {
            words.push(insn.encode()?);
        }
        thunk_records.push(ThunkRecord {
            kind: *kind,
            offset: *off,
            size_words: code.len() as u32,
        });
    }

    let oat = OatFile {
        base_address,
        words,
        methods: records,
        thunks: thunk_records,
        outlined: outlined_records,
    };
    Ok((oat, stats))
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use calibro_codegen::{compile_method, CodegenOptions};
    use calibro_dex::{ClassId, DexInsn, InvokeKind, MethodBuilder, MethodId, VReg};
    use calibro_hgraph::build_hgraph;
    use calibro_isa::Reg;

    fn simple_method(
        name: &str,
        callee: Option<MethodId>,
        opts: &CodegenOptions,
    ) -> CompiledMethod {
        let mut b = MethodBuilder::new(name, 2, 1);
        if let Some(m) = callee {
            b.push(DexInsn::Invoke {
                kind: InvokeKind::Static,
                method: m,
                args: vec![VReg(1)],
                dst: Some(VReg(0)),
            });
        } else {
            b.push(DexInsn::BinLit {
                op: calibro_dex::BinOp::Add,
                dst: VReg(0),
                a: VReg(1),
                lit: 1,
            });
        }
        b.push(DexInsn::Return { src: VReg(0) });
        compile_method(&build_hgraph(&b.build(ClassId(0))), opts)
    }

    fn with_id(mut m: CompiledMethod, id: u32) -> CompiledMethod {
        m.method = MethodId(id);
        m
    }

    /// Appends `insn` to `m`'s code and returns its word index.
    fn push_insn(m: &mut CompiledMethod, insn: Insn) -> usize {
        m.insns = m.insns.iter().copied().chain([insn]).collect();
        m.words = m.words.iter().copied().chain([insn.encode().unwrap()]).collect();
        m.words.len() - 1
    }

    /// Adds a relocation at word `at` of `m`'s code.
    fn add_reloc(m: &mut CompiledMethod, at: usize, target: CallTarget) {
        m.relocs = m.relocs.iter().copied().chain([Reloc { at, target }]).collect();
    }

    #[test]
    fn java_calls_are_runtime_bound_not_linker_bound() {
        // Baseline Java calls dispatch through the ArtMethod table at
        // runtime (Figure 4a); the linker must see no Method relocations.
        let opts = CodegenOptions { cto: false, collect_metadata: true };
        let caller = with_id(simple_method("caller", Some(MethodId(1)), &opts), 0);
        assert!(caller.relocs.is_empty());
        let callee = with_id(simple_method("callee", None, &opts), 1);
        let input = LinkInput { methods: vec![caller, callee], ..Default::default() };
        let oat = link(input, 0x4000_0000).unwrap();
        assert_eq!(oat.methods.len(), 2);
        assert!(oat.thunks.is_empty());
        // Methods are laid out back to back.
        assert_eq!(oat.methods[1].offset, oat.methods[0].offset + oat.methods[0].size_bytes());
    }

    #[test]
    fn cto_thunks_are_emitted_once_and_reachable() {
        let opts = CodegenOptions { cto: true, collect_metadata: true };
        let m0 = with_id(simple_method("a", Some(MethodId(2)), &opts), 0);
        let m1 = with_id(simple_method("b", Some(MethodId(2)), &opts), 1);
        let m2 = with_id(simple_method("leaf", None, &opts), 2);
        let input = LinkInput { methods: vec![m0, m1, m2], ..Default::default() };
        let oat = link(input, 0x4000_0000).unwrap();
        // JavaEntry + StackCheck thunks expected.
        assert_eq!(oat.thunks.len(), 2);
        for t in &oat.thunks {
            // Thunk body decodes and ends in br.
            let start = (t.offset / 4) as usize;
            let last = decode(oat.words[start + t.size_words as usize - 1]).unwrap();
            assert!(matches!(last, Insn::Br { .. }));
        }
    }

    #[test]
    fn outlined_functions_are_linked() {
        let opts = CodegenOptions { cto: false, collect_metadata: true };
        let mut m = with_id(simple_method("a", None, &opts), 0);
        // Fake an outlined call: append a reloc targeting outlined fn 0
        // over an existing bl... instead create a bl at a known position.
        let at = push_insn(&mut m, Insn::Bl { offset: 0 });
        add_reloc(&mut m, at, CallTarget::Outlined(0));
        let outlined =
            vec![calibro_isa::encode_words(&[Insn::Nop, Insn::Br { rn: Reg::LR }]).unwrap()];
        let input = LinkInput { methods: vec![m], outlined, ..Default::default() };
        let oat = link(input, 0x1000).unwrap();
        assert_eq!(oat.outlined.len(), 1);
        let record = &oat.outlined[0];
        assert_eq!(record.size_words, 2);
        // The bl reaches the outlined function.
        let mut reached = false;
        for w in 0..oat.methods[0].insn_words as usize {
            if let Ok(Insn::Bl { offset }) = decode(oat.words[w]) {
                let addr = oat.base_address + w as u64 * 4;
                if addr.wrapping_add(offset as u64) == oat.base_address + record.offset {
                    reached = true;
                }
            }
        }
        assert!(reached);
    }

    #[test]
    fn edits_are_applied_as_a_method_is_written_and_an_unedited_record_shares_its_tables() {
        use crate::rewrite::Edit;
        use calibro_codegen::MethodMetadata;

        // Four movs and a `ret`; the first three movs are outlined.
        let mov = |rd: Reg| Insn::OrrReg { wide: true, rd, rn: Reg::ZR, rm: Reg::X9, shift: 0 };
        let body =
            [mov(Reg::X1), mov(Reg::X2), mov(Reg::X3), mov(Reg::X4), Insn::Ret { rn: Reg::LR }];
        let edited = CompiledMethod {
            method: MethodId(0),
            insns: body.as_slice().into(),
            words: calibro_isa::encode_words(&body).unwrap().into(),
            pool: Arc::default(),
            relocs: Arc::default(),
            metadata: Arc::new(MethodMetadata {
                terminators: vec![4],
                ..MethodMetadata::default()
            }),
            stack_maps: Arc::default(),
        };
        let other = CompiledMethod { method: MethodId(1), ..edited.clone() };
        let (metadata, ret) = (Arc::clone(&other.metadata), Insn::Ret { rn: Reg::LR });
        let edits = MethodEdits {
            edits: vec![Edit { start: 0, len: 3, target: CallTarget::Outlined(0) }],
            bounds: vec![0, 1, 1],
        };
        let outlined = vec![calibro_isa::encode_words(&[mov(Reg::X1), ret]).unwrap()];
        let input = LinkInput { methods: vec![edited, other], edits, outlined };
        let (oat, stats) = link_with_stats(input, 0x1000).unwrap();

        let (record, record_1) = (&oat.methods[0], &oat.methods[1]);
        assert_eq!((record.insn_words, record_1.offset), (3, 12));
        assert_eq!(record.metadata.terminators, [2]);
        assert_eq!(stats, RewriteStats::default(), "no PC-relative site, no stack map");
        let Ok(Insn::Bl { offset }) = decode(oat.words[0]) else { panic!("no bl at word 0") };
        assert_eq!(0x1000 + offset as u64, 0x1000 + oat.outlined[0].offset);
        assert_eq!(decode(oat.words[1]).unwrap(), mov(Reg::X4));
        assert!(Arc::ptr_eq(&record_1.metadata, &metadata), "an unedited record copied its table");
    }

    fn cto_trio() -> Vec<CompiledMethod> {
        let opts = CodegenOptions { cto: true, collect_metadata: true };
        vec![
            with_id(simple_method("a", Some(MethodId(2)), &opts), 0),
            with_id(simple_method("b", Some(MethodId(2)), &opts), 1),
            with_id(simple_method("leaf", None, &opts), 2),
        ]
    }

    #[test]
    fn a_method_whose_words_are_its_only_code_links_to_the_same_image() {
        let methods = cto_trio();
        let plain = link(LinkInput { methods: methods.clone(), ..Default::default() }, 0x4000_0000)
            .unwrap();
        assert!(plain.methods.iter().any(|r| r.insn_words > 0) && !plain.thunks.is_empty());
        // Sizes, offsets, call sites and records all come from the words.
        let mut wordy = methods;
        for m in &mut wordy {
            m.insns = Arc::from([]);
        }
        let copied = link(LinkInput { methods: wordy, ..Default::default() }, 0x4000_0000).unwrap();
        assert_eq!(format!("{:?}", copied), format!("{:?}", plain));
    }

    #[test]
    fn a_relocation_at_a_non_branch_word_is_not_a_call_site() {
        let mut methods = cto_trio();
        let (index, at) = methods
            .iter()
            .enumerate()
            .find_map(|(i, m)| m.relocs.first().map(|r| (i, r.at)))
            .expect("a cto method calls a thunk");
        // The words are the method's only code, so they are what is checked.
        let m = &mut methods[index];
        let mut words = m.words.to_vec();
        words[at] = Insn::Nop.encode().unwrap();
        m.words = words.into();
        m.insns = Arc::from([]);
        match link(LinkInput { methods, ..Default::default() }, 0x4000_0000) {
            Err(LinkError::NotACallSite { method, at: site }) => {
                assert_eq!((method, site), (index, at))
            }
            other => panic!("expected NotACallSite, got {other:?}"),
        }
    }

    #[test]
    fn unresolved_targets_error() {
        let opts = CodegenOptions { cto: false, collect_metadata: true };
        let mut m = with_id(simple_method("a", None, &opts), 0);
        let at = push_insn(&mut m, Insn::Bl { offset: 0 });
        add_reloc(&mut m, at, CallTarget::Outlined(7));
        let input = LinkInput { methods: vec![m], ..Default::default() };
        assert!(matches!(link(input, 0x1000), Err(LinkError::UnresolvedTarget { .. })));
    }

    #[test]
    fn misordered_methods_error() {
        let opts = CodegenOptions { cto: false, collect_metadata: true };
        let m = with_id(simple_method("a", None, &opts), 5);
        let input = LinkInput { methods: vec![m], ..Default::default() };
        assert!(matches!(link(input, 0x1000), Err(LinkError::MisorderedMethod { index: 0 })));
    }

    #[test]
    fn all_non_embedded_words_decode() {
        let opts = CodegenOptions { cto: true, collect_metadata: true };
        let m0 = with_id(simple_method("a", Some(MethodId(1)), &opts), 0);
        let m1 = with_id(simple_method("b", None, &opts), 1);
        let input = LinkInput { methods: vec![m0, m1], ..Default::default() };
        let oat = link(input, 0x4000_0000).unwrap();
        for record in &oat.methods {
            let start = (record.offset / 4) as usize;
            for w in 0..record.code_words as usize {
                if record.metadata.in_embedded_data(w) {
                    continue;
                }
                decode(oat.words[start + w])
                    .unwrap_or_else(|e| panic!("{:?} word {w}: {e}", record.method));
            }
        }
    }
}
