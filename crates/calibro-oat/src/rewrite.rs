//! Applying the outline pass's edits to one method: §3.3.4 (call-site
//! replacement and PC-relative patching) and §3.5 (the metadata and
//! stack maps follow the code). The linker calls [`Rewriter::rewrite`]
//! with the text segment as the sink, so each edited method is written
//! once, already rewritten; `calibro::run_ltbo` calls it with a
//! per-method buffer to rewrite a method in place.

use std::sync::Arc;

use calibro_codegen::{CallTarget, CompiledMethod, MethodMetadata, PcRel, Reloc, StackMapEntry};
use calibro_isa::{decode, Insn};

/// One outlined occurrence in a method: its words `start..start + len`
/// become a single `bl` to `target`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Edit {
    /// The occurrence's first code word.
    pub start: u32,
    /// Its length in words (at least one).
    pub len: u32,
    /// Where the `bl` that replaces it lands: an outlined function or a
    /// dictionary body.
    pub target: CallTarget,
}

/// Every method's edits as one flat list: method `idx`'s are
/// `edits[bounds[idx]..bounds[idx + 1]]`, sorted by `start` and not
/// overlapping. Empty `bounds` (the default) means no method has any.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodEdits {
    /// The edits, grouped by method in method-index order.
    pub edits: Vec<Edit>,
    /// Each method's first edit, and the list's length last.
    pub bounds: Vec<usize>,
}

impl MethodEdits {
    /// Method `idx`'s edits (none past the last method with bounds).
    #[must_use]
    pub fn of(&self, idx: usize) -> &[Edit] {
        match self.bounds.get(idx..idx + 2) {
            Some(&[start, end]) => &self.edits[start..end],
            _ => &[],
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

/// A method's call sites and tables after [`Rewriter::rewrite`]. The
/// relocations are borrowed: the method's own, or the rewriter's
/// scratch.
#[derive(Debug)]
pub struct Rewritten<'a> {
    /// Call relocations, sorted by site.
    pub relocs: &'a [Reloc],
    /// The §3.2 metadata.
    pub metadata: Arc<MethodMetadata>,
    /// Stack maps, ordered by native offset.
    pub stack_maps: Arc<[StackMapEntry]>,
    /// What moved.
    pub stats: RewriteStats,
}

/// Rewrites methods one after another, reusing its scratch.
#[derive(Debug, Default)]
pub struct Rewriter {
    /// The current method's [`Shift::removed`].
    removed: Vec<u32>,
    relocs: Vec<Reloc>,
}

/// Old word index → new, for one method's edits; a copy walks one
/// table. Codegen emits terminators, PC-relative sites and stack maps in
/// ascending order, so the edits wholly before a record are found by
/// stepping on from those before the previous one; an index below the
/// previous one is found by a binary search, so any order maps right.
#[derive(Clone, Copy)]
struct Shift<'a> {
    edits: &'a [Edit],
    /// `removed[k]`: the words the first `k` edits removed.
    removed: &'a [u32],
    /// The edits wholly before the previous index.
    before: usize,
}

impl Shift<'_> {
    /// How many edits lie wholly before `old`.
    fn before(&mut self, old: u32) -> usize {
        let ends_by = |e: &Edit| e.start + e.len <= old;
        let mut before = self.before;
        if before > 0 && !ends_by(&self.edits[before - 1]) {
            before = self.edits.partition_point(ends_by);
        } else {
            while before < self.edits.len() && ends_by(&self.edits[before]) {
                before += 1;
            }
        }
        self.before = before;
        before
    }

    /// Where word `old` lands; `None` inside an outlined range, behind
    /// its first word (which becomes the `bl`). The pool, and the end of
    /// the code, lie behind every edit and shift as a block.
    fn map(&mut self, old: u32) -> Option<u32> {
        let before = self.before(old);
        match self.edits.get(before) {
            Some(e) if e.start < old => None,
            _ => Some(old - self.removed[before]),
        }
    }

    /// [`map`](Self::map) for a record no edit may swallow.
    fn keep(&mut self, old: u32, what: &str) -> u32 {
        self.map(old).unwrap_or_else(|| panic!("{what} removed by outlining"))
    }
}

impl Rewriter {
    /// Fills `removed` for `edits` and returns their shift.
    fn shift<'a>(&'a mut self, edits: &'a [Edit]) -> Shift<'a> {
        self.removed.clear();
        self.removed.push(0);
        let mut total = 0;
        for e in edits {
            total += e.len.saturating_sub(1);
            self.removed.push(total);
        }
        Shift { edits, removed: &self.removed, before: 0 }
    }

    /// Appends `m`'s code with `edits` applied to `sink` — the pool is
    /// the caller's to append — and returns its relocations, metadata
    /// and stack maps to match.
    ///
    /// Each outlined range becomes a placeholder `bl`, and everything
    /// between two edits is copied as a run of words. A record's new
    /// index is its old one less the words removed by the edits wholly
    /// before it, found by walking the method's few edits along each
    /// table. A PC-relative site is decoded, given its new offset and
    /// encoded again only when the edits between it and its target
    /// changed that distance; every other site already encodes it, as
    /// codegen emits it and the cache's trust boundary demands of a
    /// loaded method. A method without edits is copied and keeps its own
    /// tables. The records are counted as they move ([`RewriteStats`]).
    ///
    /// # Panics
    ///
    /// Panics if the edits overlap, are unsorted or leave the code, or
    /// if one swallows a call site, a PC-relative site or target, a
    /// terminator, a slow-path bound or a stack map's call: outlining
    /// never places an occurrence over any of them.
    pub fn rewrite<'a>(
        &'a mut self,
        m: &'a CompiledMethod,
        edits: &[Edit],
        sink: &mut Vec<u32>,
    ) -> Rewritten<'a> {
        if edits.is_empty() {
            sink.extend_from_slice(&m.words);
            return Rewritten {
                relocs: &m.relocs,
                metadata: Arc::clone(&m.metadata),
                stack_maps: Arc::clone(&m.stack_maps),
                stats: RewriteStats::default(),
            };
        }
        let words = &m.words;
        let old_len = words.len();
        let base = sink.len();
        sink.reserve(old_len);
        let bl_word = Insn::Bl { offset: 0 }.encode().expect("a placeholder bl encodes");
        let mut word = 0;
        // One round per edit, and a last one for the run behind the last edit.
        for edit in edits.iter().map(Some).chain([None]) {
            let run_end = edit.map_or(old_len, |e| e.start as usize);
            assert!(word <= run_end, "edits overlap or are unsorted");
            // Untouched words move as a block.
            sink.extend_from_slice(&words[word..run_end]);
            let Some(edit) = edit else { break };
            let end = edit.start as usize + edit.len as usize;
            assert!(edit.len > 0 && end <= old_len, "edit leaves the code");
            // The range's first word becomes the call; its interior vanishes.
            sink.push(bl_word);
            word = end;
        }
        let code = &mut sink[base..];

        let mut relocs = std::mem::take(&mut self.relocs);
        let shift = self.shift(edits);
        // Call relocations move where they sit; each edit's `bl` adds one,
        // at its first word's new index.
        relocs.clear();
        let mut sites = shift;
        relocs.extend(m.relocs.iter().map(|r| Reloc {
            at: sites.keep(r.at as u32, "call site") as usize,
            target: r.target,
        }));
        relocs.extend(edits.iter().zip(shift.removed).map(|(edit, &removed)| Reloc {
            at: (edit.start - removed) as usize,
            target: edit.target,
        }));
        relocs.sort_by_key(|r| r.at);

        let meta = &m.metadata;
        let mut stats = RewriteStats::default();
        // §3.3.4: patch PC-relative instructions whose distance changed.
        let (mut sites, mut targets) = (shift, shift);
        let pc_rel = meta
            .pc_rel
            .iter()
            .map(|rec| {
                let at = sites.keep(rec.at, "PC-relative instruction");
                let target = targets.keep(rec.target, "branch target");
                let new_offset = (i64::from(target) - i64::from(at)) * 4;
                let site = &mut code[at as usize];
                if rec.at - at != rec.target - target {
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
                PcRel { at, target }
            })
            .collect();
        let mut walk = shift;
        let terminators = meta.terminators.iter().map(|&t| walk.keep(t, "terminator")).collect();
        let mut walk = shift;
        let embedded_data =
            meta.embedded_data.iter().map(|&(s, l)| (walk.keep(s, "embedded data"), l)).collect();
        let (mut starts, mut ends) = (shift, shift);
        let slow_paths = meta
            .slow_paths
            .iter()
            .map(|&(s, e)| (starts.keep(s, "slow-path start"), ends.keep(e, "slow-path end")))
            .collect();
        let metadata = Arc::new(MethodMetadata {
            pc_rel,
            // Terminators are separators, so no edit swallows one.
            terminators,
            // The pool block moved as a whole.
            embedded_data,
            has_indirect_jump: meta.has_indirect_jump,
            is_native_stub: meta.is_native_stub,
            // Starts are leaders (branch targets) and ends follow
            // terminators or end the code, so both survive; interiors
            // shrink.
            slow_paths,
        });
        // §3.5: return offsets move with their call sites.
        let stack_maps = if m.stack_maps.is_empty() {
            Arc::clone(&m.stack_maps)
        } else {
            let mut calls = shift;
            m.stack_maps
                .iter()
                .map(|sm| {
                    let new_call = calls.keep(stack_map_call(sm, m), "call under a stack map");
                    let native_offset = (new_call + 1) * 4;
                    stats.stack_maps_updated += usize::from(native_offset != sm.native_offset);
                    StackMapEntry { native_offset, dex_pc: sm.dex_pc }
                })
                .collect()
        };
        self.relocs = relocs;
        Rewritten { relocs: &self.relocs, metadata, stack_maps, stats }
    }
}

/// The word of the call a stack-map entry follows.
///
/// # Panics
///
/// An entry names the word *after* its call, so one at native offset 0
/// follows nothing: corrupt metadata, reported with context instead of
/// wrapping around.
fn stack_map_call(sm: &StackMapEntry, m: &CompiledMethod) -> u32 {
    (sm.native_offset / 4).checked_sub(1).unwrap_or_else(|| {
        panic!(
            "stack map at native offset 0 in method {:?}: entries name the word after a call, \
             so offset 0 cannot follow any instruction",
            m.method
        )
    })
}
