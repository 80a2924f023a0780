//! Applying the outline pass's edits to one method: §3.3.4 (call-site
//! replacement and PC-relative patching) and §3.5 (the metadata and
//! stack maps follow the code). The linker calls [`Rewriter::rewrite`]
//! with the text segment as the sink, so each edited method is written
//! once, already rewritten, and each call site is bound as it is copied;
//! `calibro::run_ltbo` calls it with a per-method buffer to rewrite a
//! method in place, collecting the call sites into its relocations.

use calibro_codegen::{CallTarget, CompiledMethod, MethodTables, Reloc};
use calibro_isa::{decode, Insn};

/// One outlined occurrence in a method: its words `start..start + len`
/// become a single `bl` to outlined function `outlined`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edit {
    /// The occurrence's first code word.
    pub start: u32,
    /// Its length in words (at least one).
    pub len: u32,
    /// The outlined function the `bl` that replaces it lands on, by its
    /// `CallTarget::Outlined` index.
    pub outlined: u32,
}

/// Every method's edits as one flat list: method `idx`'s are
/// `edits[spans[idx][0]..spans[idx][1]]`, sorted by `start` and not
/// overlapping. A method's span is wherever its edits were written, so
/// the outline pass writes each group's edits in one run whatever the
/// method order; a method past the end of `spans` (every method, for
/// the default) has none.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodEdits {
    /// The edits, one method's after another's.
    pub edits: Vec<Edit>,
    /// Each method's range of `edits`, as `[start, end]`.
    pub spans: Vec<[u32; 2]>,
}

impl MethodEdits {
    /// Method `idx`'s edits (none past the last method with a span).
    #[must_use]
    pub fn of(&self, idx: usize) -> &[Edit] {
        match self.spans.get(idx) {
            Some(&[start, end]) => &self.edits[start as usize..end as usize],
            None => &[],
        }
    }
}

/// The words `edits` remove from their method: each keeps one, its `bl`.
#[must_use]
pub(crate) fn removed_words(edits: &[Edit]) -> usize {
    edits.iter().map(|e| e.len.saturating_sub(1) as usize).sum()
}

/// What applying outline edits changed beyond the call sites, counted
/// as the records are rewritten (the linker's, or `calibro::run_ltbo`'s,
/// one pass over them).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct RewriteStats {
    /// PC-relative instructions re-encoded because edits between them
    /// and their target changed the distance (§3.3.4).
    pub pc_rel_patched: usize,
    /// Stack-map entries whose return offset moved (§3.5).
    pub stack_maps_updated: usize,
}

impl std::ops::AddAssign for RewriteStats {
    fn add_assign(&mut self, other: RewriteStats) {
        self.pc_rel_patched += other.pc_rel_patched;
        self.stack_maps_updated += other.stack_maps_updated;
    }
}

/// A method's tables after [`Rewriter::rewrite`].
#[derive(Debug)]
pub struct Rewritten {
    /// The §3.2 metadata and the stack maps: the method's own block,
    /// shared, when it had no edits.
    pub tables: MethodTables,
    /// What moved.
    pub stats: RewriteStats,
}

/// Rewrites methods one after another, reusing its scratch.
#[derive(Debug, Default)]
pub struct Rewriter {
    /// The current method's new index of each old code word up to its
    /// last edit's end, [`GONE`] for a word inside an outlined range,
    /// behind its first.
    moved: Vec<u32>,
}

/// [`Rewriter::moved`]'s mark for a word an edit removed.
const GONE: u32 = u32::MAX;

/// Old word index → new, for one method's edits: one lookup per record,
/// in any order.
#[derive(Clone, Copy)]
struct Moved<'a> {
    /// The new index of each old code word up to the last edit's end,
    /// or [`GONE`].
    words: &'a [u32],
    /// The words all the edits removed: the words behind the last edit,
    /// the pool and the end of the code move back by this as a block.
    removed: u32,
}

impl Moved<'_> {
    /// Where word `old` lands, for a record no edit may swallow.
    fn keep(self, old: u32, what: &str) -> u32 {
        match self.words.get(old as usize) {
            Some(&GONE) => panic!("{what} removed by outlining"),
            Some(&new) => new,
            None => old - self.removed,
        }
    }
}

impl Rewriter {
    /// Appends `m`'s code with `edits` applied to `sink` — the pool is
    /// the caller's to append — hands each call site to `call` as it is
    /// copied, and returns the method's tables to match.
    ///
    /// Each outlined range becomes a placeholder `bl`, and everything
    /// between two edits is copied as a run of words. After each run,
    /// `call` gets the method's code so far (`sink` from the method's
    /// first word) and each relocation of the run at its new index, then
    /// the `bl` of the edit behind the run, as a relocation to
    /// `CallTarget::Outlined(edit.outlined)`: every call site in site
    /// order, for the linker to bind in place or `run_ltbo` to collect. A
    /// relocation at or past the code's end is handed over behind the
    /// last run, shifted like the pool, for the caller to refuse. The
    /// first error `call` returns ends the rewrite.
    ///
    /// A record's new index is its old one less the words removed by
    /// the edits wholly before it, looked up in a map of the method's
    /// words filled as its runs are copied (behind the last edit, every
    /// record moves back by all they removed); the tables are copied
    /// once ([`MethodTables::remapped`]) and remapped in place. A
    /// PC-relative site is re-encoded with its new offset only when the
    /// edits between it and its target changed that distance; every
    /// other site already encodes it, as codegen emits it and the
    /// cache's trust boundary demands of a loaded method. A
    /// method without edits is copied, its relocations are handed over as
    /// they are, and it keeps its own tables. The records are counted as
    /// they move ([`RewriteStats`]).
    ///
    /// # Errors
    ///
    /// The first error `call` returns.
    ///
    /// # Panics
    ///
    /// Panics if the edits overlap, are unsorted or leave the code, if a
    /// method with edits has relocations out of site order, or if an
    /// edit swallows a call site, a PC-relative site or target, a
    /// terminator, a slow-path bound or a stack map's call: outlining
    /// never places an occurrence over any of them.
    pub fn rewrite<E>(
        &mut self,
        m: &CompiledMethod,
        edits: &[Edit],
        sink: &mut Vec<u32>,
        mut call: impl FnMut(&mut [u32], Reloc) -> Result<(), E>,
    ) -> Result<Rewritten, E> {
        let base = sink.len();
        if edits.is_empty() {
            sink.extend_from_slice(&m.words);
            for &r in m.relocs.iter() {
                call(&mut sink[base..], r)?;
            }
            return Ok(Rewritten { tables: m.tables.clone(), stats: RewriteStats::default() });
        }
        let words = &m.words;
        let old_len = words.len();
        sink.reserve(old_len);
        let bl_word = Insn::Bl { offset: 0 }.encode().expect("a placeholder bl encodes");
        let mut relocs = m.relocs.iter().peekable();
        // Sized once to the last edit's end, each outlined range's
        // interior already marked; each run then writes its new indices.
        let moved = &mut self.moved;
        moved.clear();
        moved.resize(edits.last().map_or(0, |e| e.start as usize + e.len as usize), GONE);
        let (mut word, mut removed) = (0, 0);
        // One round per edit, and a last one for the run behind the last edit.
        for edit in edits.iter().map(Some).chain([None]) {
            let run_end = edit.map_or(old_len, |e| e.start as usize);
            assert!(word <= run_end, "edits overlap or are unsorted");
            // Untouched words move as a block, back by what the edits
            // before them removed; so do their call sites.
            sink.extend_from_slice(&words[word..run_end]);
            if edit.is_some() {
                for (new, old) in moved[word..run_end].iter_mut().zip(word as u32..) {
                    *new = old - removed;
                }
            }
            while let Some(r) = relocs.next_if(|r| edit.is_none() || r.at < run_end) {
                assert!(r.at >= word, "call site removed by outlining, or relocations unsorted");
                call(&mut sink[base..], Reloc { at: r.at - removed as usize, target: r.target })?;
            }
            let Some(edit) = edit else { break };
            let end = edit.start as usize + edit.len as usize;
            assert!(edit.len > 0 && end <= old_len, "edit leaves the code");
            // The range's first word becomes the call; its interior vanishes.
            sink.push(bl_word);
            let at = sink.len() - 1 - base;
            moved[edit.start as usize] = at as u32;
            call(&mut sink[base..], Reloc { at, target: CallTarget::Outlined(edit.outlined) })?;
            removed += edit.len - 1;
            word = end;
        }
        let moved = Moved { words: moved, removed };
        let code = &mut sink[base..];

        let mut stats = RewriteStats::default();
        let tables = m.tables.remapped(|t| {
            // §3.3.4: patch PC-relative instructions whose distance changed.
            for pair in t.pc_rel {
                let [old_at, old_target] = *pair;
                let at = moved.keep(old_at, "PC-relative instruction");
                let target = moved.keep(old_target, "branch target");
                let new_offset = (i64::from(target) - i64::from(at)) * 4;
                let site = &mut code[at as usize];
                if old_at - at != old_target - target {
                    // Outlining only removes words between a site and its
                    // target, so the offset keeps its sign and alignment
                    // and shrinks in magnitude: the form that held the old
                    // one holds the new one.
                    *site = decode(*site)
                        .expect("a PC-relative site decodes")
                        .with_pc_rel_offset(new_offset)
                        .encode()
                        .expect("a shrunken PC-relative offset encodes");
                    stats.pc_rel_patched += 1;
                } else {
                    debug_assert_eq!(
                        decode(*site).ok().and_then(|site| site.pc_rel_offset()),
                        Some(new_offset),
                        "{:?}: the unpatched PC-relative site at word {at} does not encode \
                         its distance",
                        m.method
                    );
                }
                *pair = [at, target];
            }
            // Terminators are separators, so no edit swallows one.
            for t in t.terminators {
                *t = moved.keep(*t, "terminator");
            }
            // The pool block moved as a whole.
            for [start, _] in t.embedded_data {
                *start = moved.keep(*start, "embedded data");
            }
            // Starts are leaders (branch targets) and ends follow
            // terminators or end the code, so both survive; interiors
            // shrink.
            for [start, end] in t.slow_paths {
                *start = moved.keep(*start, "slow-path start");
                *end = moved.keep(*end, "slow-path end");
            }
            // §3.5: return offsets move with their call sites.
            for [native_offset, _] in t.stack_maps {
                let new_call =
                    moved.keep(stack_map_call(*native_offset, m), "call under a stack map");
                let offset = (new_call + 1) * 4;
                stats.stack_maps_updated += usize::from(offset != *native_offset);
                *native_offset = offset;
            }
        });
        Ok(Rewritten { tables, stats })
    }
}

/// The word of the call a stack-map entry at `native_offset` follows.
///
/// # Panics
///
/// An entry names the word *after* its call, so one at native offset 0
/// follows nothing: corrupt metadata, reported with context instead of
/// wrapping around.
fn stack_map_call(native_offset: u32, m: &CompiledMethod) -> u32 {
    (native_offset / 4).checked_sub(1).unwrap_or_else(|| {
        panic!(
            "stack map at native offset 0 in method {:?}: entries name the word after a call, \
             so offset 0 cannot follow any instruction",
            m.method
        )
    })
}
