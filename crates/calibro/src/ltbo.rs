//! LTBO.2 — linking-time binary code outlining (§3.3 of the paper).
//!
//! Consumes the compiled methods *with* their §3.2 metadata, and:
//!
//! 1. chooses candidate methods (§3.3.1) — excluding methods with
//!    indirect jumps and Java-native stubs; under hot-function filtering
//!    (§3.4.2) hot methods contribute only their slow paths;
//! 2. maps each method's code to a symbol sequence in which terminators
//!    become unique separator numbers (§3.3.2) — plus, for binary-level
//!    soundness, unique numbers for basic-block leaders, PC-relative
//!    instructions, link-register users and SP writers;
//! 3. detects repetitive sequences with (optionally paralleled, §3.4.1)
//!    suffix trees and the Figure 2 benefit model;
//! 4. outlines each selected sequence into a function ending in
//!    `br x30`, replaces occurrences with `bl`, and
//! 5. patches every PC-relative instruction whose relative target moved
//!    (§3.3.4) while updating terminator/slow-path/stack-map records
//!    (§3.5).

use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calibro_cache::{
    ArtifactStore, CacheEntry, CacheError, CacheKey, GroupPlanEntry, SymbolTemplate,
};
use calibro_codegen::{CallTarget, CompiledMethod, PcRel, Reloc};
use calibro_dict::DictSession;
use calibro_isa::{decode, decode_all, Insn, Reg};
use calibro_suffix::{
    detect_group, group_text_len, partition_stable_by, replay_group_plan, GroupPlan,
    TaggedSequence, UNIQUE_SEPARATOR_BASE,
};

use crate::fingerprint::group_plan_key_from;
use crate::pipeline::{panic_message, run_indexed};

/// How the suffix-tree stage runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LtboMode {
    /// One global suffix tree over all candidate methods (§3.3).
    Global,
    /// `PlOpti` (§3.4.1): partition candidates into `groups` groups and
    /// run them on `threads` worker threads.
    Parallel {
        /// Number of per-group suffix trees.
        groups: usize,
        /// Worker threads.
        threads: usize,
    },
}

/// LTBO configuration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LtboConfig {
    /// Suffix-tree organization.
    pub mode: LtboMode,
    /// Minimum repeated-sequence length in instructions.
    pub min_len: usize,
    /// Hot methods (from `HfOpti` profiling, §3.4.2): only their slow
    /// paths are outlined. `None` disables hot filtering.
    pub hot_methods: Option<HashSet<u32>>,
}

impl Default for LtboConfig {
    fn default() -> LtboConfig {
        LtboConfig { mode: LtboMode::Global, min_len: 2, hot_methods: None }
    }
}

/// Statistics reported by [`run_ltbo`].
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct LtboStats {
    /// Methods eligible for outlining after §3.3.1 exclusions.
    pub candidate_methods: usize,
    /// Methods excluded for indirect jumps or nativeness.
    pub excluded_methods: usize,
    /// Hot methods restricted to slow paths.
    pub hot_restricted_methods: usize,
    /// Outlined functions created.
    pub outlined_functions: usize,
    /// Call sites rewritten.
    pub occurrences_replaced: usize,
    /// Net instruction words saved (occurrences shrunk minus outlined
    /// function bodies added).
    pub words_saved: i64,
    /// PC-relative instructions patched (§3.3.4).
    pub pc_rel_patched: usize,
    /// Stack-map entries updated (§3.5).
    pub stack_maps_updated: usize,
    /// Suffix-tree groups the detection stage was organized into
    /// (1 under [`LtboMode::Global`]). Identical warm and cold, and for
    /// any worker-thread count — only the *cache* counters say how many
    /// groups replayed instead of re-detecting.
    pub detection_groups: usize,
}

/// A typed failure of the outline pass.
#[derive(Debug)]
pub enum OutlineError {
    /// Detection or materialization of one group's plan panicked; the
    /// worker's panic payload is captured instead of aborting the
    /// process.
    Worker {
        /// Index of the offending group.
        group: usize,
        /// The panic payload, stringified.
        message: String,
    },
    /// The group-plan cache returned an error (corrupt or unreadable
    /// persisted plan).
    Cache(CacheError),
}

impl core::fmt::Display for OutlineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            OutlineError::Worker { group, message } => {
                write!(f, "outline worker for group {group} panicked: {message}")
            }
            OutlineError::Cache(e) => write!(f, "group-plan cache error: {e}"),
        }
    }
}

impl std::error::Error for OutlineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OutlineError::Worker { .. } => None,
            OutlineError::Cache(e) => Some(e),
        }
    }
}

/// Test-only fault injection for the detection pool: arming a group
/// index makes that group's detection panic, exercising the typed
/// worker-error path ([`OutlineError::Worker`] /
/// `BuildError::OutlineWorker`) from integration tests. Disarmed by
/// default; the hook costs one relaxed atomic load per group.
#[doc(hidden)]
pub mod detect_fault {
    use std::sync::atomic::{AtomicUsize, Ordering};

    const DISARMED: usize = usize::MAX;
    static TARGET: AtomicUsize = AtomicUsize::new(DISARMED);

    /// Arms the fault: detection of group `index` will panic.
    pub fn arm(index: usize) {
        TARGET.store(index, Ordering::SeqCst);
    }

    /// Disarms the fault.
    pub fn disarm() {
        TARGET.store(DISARMED, Ordering::SeqCst);
    }

    pub(crate) fn check(index: usize) {
        if TARGET.load(Ordering::Relaxed) == index {
            panic!("injected detection fault in group {index}");
        }
    }
}

/// The result of a link-time outlining run.
#[derive(Debug)]
pub struct LtboResult {
    /// The outlined functions' words, in `CallTarget::Outlined` index
    /// order.
    pub outlined: Vec<Vec<u32>>,
    /// Run statistics.
    pub stats: LtboStats,
    /// Wall time of the detection phase alone: cache probe, then per
    /// group either plan replay or symbol text + suffix-tree detection.
    /// Excludes finding the templates and patching.
    pub detect_time: Duration,
}

const UNIQUE_BASE: u64 = UNIQUE_SEPARATOR_BASE;

/// Width of each method's private separator band: method `idx` numbers
/// its separators from `UNIQUE_BASE + (idx + 1) * SEP_STRIDE`. Giving
/// every method a band derived from its own index (rather than a global
/// running counter) makes a method's symbols independent of every other
/// method's, so an edit to one method renumbers nothing else. Detection
/// is invariant under any injective renaming of separators (they are
/// canonicalized in hashes and never appear inside candidates), so the
/// numbering scheme itself is free to change — which is also why this
/// differs from the global counter older schemas used.
const SEP_STRIDE: u64 = 1 << 24;

/// First separator value of method `idx`'s private band.
fn sep_base(idx: usize) -> u64 {
    // Group joint separators live at 0xfffe << 48; method bands must
    // stay strictly below them.
    const GROUP_SEP_BASE: u64 = 0xfffe_0000_0000_0000;
    let base = UNIQUE_BASE + (idx as u64 + 1) * SEP_STRIDE;
    assert!(base + SEP_STRIDE < GROUP_SEP_BASE, "method index {idx} exhausts separator space");
    base
}

/// One candidate method's §3.3.2 symbolization — its structure only.
/// The symbol text itself is made by [`materialize`], and only for the
/// groups detection actually runs on.
struct Symbolized<'a> {
    /// Hot method restricted to its slow paths.
    hot: bool,
    /// The template the symbols replay from, over the method's words: it
    /// answers symbol offset → code word lookups
    /// ([`SymbolTemplate::word_at`]), gives the sequence's length without
    /// its text, and carries the sequence's content key (the Merkle leaf
    /// of the group key) and partition hash. Both hashes canonicalize
    /// separators, so the values cached at template construction equal a
    /// direct hash of the replayed symbols whatever this method's band —
    /// no per-build re-hashing.
    template: Cow<'a, SymbolTemplate>,
}

/// Classifies one method (§3.3.1) and finds its symbolization template
/// (§3.3.2); `None` means the method is not a candidate (indirect jump,
/// native stub, or hot with no slow paths). `entry` is the store entry
/// codegen compiled or replayed the method from: while the method still
/// shares that entry's words nothing has rewritten it, so the entry's
/// template describes it and is borrowed. A fresh [`build_template`] is
/// owned when that does not apply — there is no entry, or the method is
/// hot (cached templates are built for the unfiltered case).
fn symbolize<'a>(
    m: &CompiledMethod,
    entry: Option<&'a CacheEntry>,
    hot_methods: Option<&HashSet<u32>>,
) -> Option<Symbolized<'a>> {
    if m.metadata.has_indirect_jump || m.metadata.is_native_stub {
        return None;
    }
    let hot = hot_methods.is_some_and(|set| set.contains(&m.method.0));
    if hot && m.metadata.slow_paths.is_empty() {
        return None;
    }
    let unmodified = entry.filter(|e| !hot && Arc::ptr_eq(&m.words, &e.compiled.words));
    let template = match unmodified.and_then(|e| e.template.as_ref()) {
        Some(template) => Cow::Borrowed(template),
        None => Cow::Owned(build_template(m, hot)),
    };
    Some(Symbolized { hot, template })
}

#[cfg(test)]
thread_local! {
    /// How many symbol texts this thread has materialized.
    static MATERIALIZED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Replays method `idx`'s template over its `words` into its symbol
/// text, assigning separators from the method's private band. O(method),
/// so it runs for the members of groups that must be re-detected and for
/// nobody else.
fn materialize(idx: usize, words: &[u32], template: &SymbolTemplate) -> TaggedSequence {
    #[cfg(test)]
    MATERIALIZED.with(|n| n.set(n.get() + 1));
    let mut unique = sep_base(idx);
    let symbols = template.replay_symbols(words, &mut unique);
    assert!(
        unique <= sep_base(idx) + SEP_STRIDE,
        "method {idx} used more than {SEP_STRIDE} separators"
    );
    TaggedSequence { tag: idx, symbols }
}

/// Where an outlined call site's `bl` lands.
#[derive(Clone, Copy)]
enum EditCall {
    /// A private outlined function of this build.
    Outlined(u32),
    /// The shared dictionary island, at this word offset.
    Dict(u32),
}

/// One planned rewrite within a method.
struct Edit {
    /// The occurrence's first symbol offset while plans are materialized,
    /// its first code word once [`SymbolTemplate::word_at`] mapped it.
    start: usize,
    len: usize,
    call: EditCall,
}

/// Runs LTBO over the compiled methods, mutating them in place and
/// returning the outlined functions to hand to the linker. The
/// session-free entry point: every method is symbolized from scratch
/// and no plan is cached. A rewritten method's code is its new `words`;
/// its `insns` is left empty.
///
/// # Panics
///
/// Panics if metadata is inconsistent with the code (these are internal
/// invariants; the compiler produces consistent metadata, and cached
/// artifacts are validated at load time).
pub fn run_ltbo(methods: &mut [CompiledMethod], config: &LtboConfig) -> LtboResult {
    match outline_methods(methods, &[], config, None, None) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// The one outlining route, shared by [`run_ltbo`] and the staged
/// pipeline's outline pass. Beyond the five §3.3 steps it offers:
///
/// - **Template replay.** `entries` is indexed by method position and
///   holds the store entry each method was compiled into or replayed
///   from; a method that still shares its entry's words replays the
///   entry's cached §3.3.2 symbol structure instead of re-extracting it
///   from code and metadata (see [`symbolize`]). An empty or short
///   slice falls back to extraction.
/// - **Words are the code.** A template replays over its method's words,
///   a rewritten method's words are rewritten ([`apply_edits`]) — never
///   its instructions — and its `insns` is left empty. Outlined bodies
///   are their candidates' words; they are decoded only for the
///   dictionary.
/// - **Typed worker errors.** A panic inside one group's detection or
///   materialization (e.g. a [`GroupPlan::resolve`] separator-space
///   panic on an inconsistent plan) is caught and surfaced as
///   [`OutlineError::Worker`] with the group index and the panic
///   payload, instead of unwinding through — or, on a pool thread,
///   aborting — the whole build.
/// - **Incremental detection.** With `store` set, each group's selected
///   candidates are cached — as the flat rows of a [`GroupPlanEntry`] —
///   under a key covering the group's canonicalized symbol text plus
///   the `LtboConfig` fingerprint ([`group_plan_key_from`]). Groups
///   whose key hits replay the layout from the members' lengths
///   ([`replay_group_plan`]) and read the cached rows in place, skipping
///   both the symbol text and the suffix tree; only dirty groups
///   materialize their text and re-detect. A hit whose
///   recorded text length is not this group's (a foreign plan under the
///   right key) is not replayed: the group re-detects and overwrites
///   it. Replay is byte-exact:
///   content-stable partitioning ([`partition_stable_by`]) pins each
///   sequence's group, and detection is deterministic under any
///   injective separator renumbering, such as a rebuild performs, so
///   a cached plan equals the plan fresh detection would produce.
///   Under [`LtboMode::Global`] the single whole-program group goes
///   through the same cache (useful when *nothing* changed); under
///   [`LtboMode::Parallel`] dirty-group detection runs on the
///   configured worker threads.
/// - **Dictionary arbitration.** With `dict` set (which requires
///   `store` for the dictionary lane), every selected candidate goes
///   through [`DictSession::route`] before materialization: a
///   byte-identical body in the session's pinned island becomes `bl`s
///   into the island (`CallTarget::Dict`, zero body cost this build);
///   everything else is outlined privately, with misses published for
///   future epochs. Arbitration runs sequentially in plan order, so the
///   decision sequence — and therefore the emitted code — is identical
///   at any detection thread count, warm or cold.
///
/// # Errors
///
/// [`OutlineError::Worker`] as above; [`OutlineError::Cache`] when a
/// persisted group plan exists but is corrupt or unreadable.
pub(crate) fn outline_methods(
    methods: &mut [CompiledMethod],
    entries: &[Arc<CacheEntry>],
    config: &LtboConfig,
    store: Option<&ArtifactStore>,
    mut dict: Option<&mut DictSession>,
) -> Result<LtboResult, OutlineError> {
    let mut stats = LtboStats::default();

    // --- §3.3.1: choose candidates; §3.3.2: find their templates. -------
    let mut candidates: Vec<usize> = Vec::new();
    let mut templates: Vec<Option<Cow<'_, SymbolTemplate>>> = vec![None; methods.len()];
    for (idx, m) in methods.iter().enumerate() {
        match symbolize(m, entries.get(idx).map(|e| &**e), config.hot_methods.as_ref()) {
            None => stats.excluded_methods += 1,
            Some(symbolized) => {
                if symbolized.hot {
                    stats.hot_restricted_methods += 1;
                }
                stats.candidate_methods += 1;
                candidates.push(idx);
                templates[idx] = Some(symbolized.template);
            }
        }
    }
    // Every candidate kept its template.
    let template_of =
        |idx: usize| templates[idx].as_deref().expect("a candidate method kept its template");
    // A sequence's length without its text.
    let len_of = |idx: usize| template_of(idx).symbol_count();

    // --- §3.3.3: detect repeats and select the outline plan. ------------
    let detect_start = Instant::now();
    let (groups, threads) = match config.mode {
        LtboMode::Global => (vec![candidates], 1),
        LtboMode::Parallel { groups, threads } => {
            let by_hash = |_, idx: &usize| template_of(*idx).group_hash();
            (partition_stable_by(candidates, groups, by_hash), threads.max(1))
        }
    };
    stats.detection_groups = groups.len();

    // Probe the plan cache; a hit means the group's canonicalized text
    // (and the LTBO config) is unchanged since the plan was detected.
    // The key is composed Merkle-style from the members' precomputed
    // content keys — O(members) here, not O(text).
    let mut keys: Vec<CacheKey> = Vec::new();
    let mut cached: Vec<Option<Arc<GroupPlanEntry>>> = vec![None; groups.len()];
    // Groups whose key turned out to hold a plan for some other text.
    let mut foreign = vec![false; groups.len()];
    if let Some(store) = store {
        keys = groups
            .iter()
            .map(|g| {
                let members: Vec<CacheKey> =
                    g.iter().map(|&idx| template_of(idx).content_key()).collect();
                group_plan_key_from(config, &members)
            })
            .collect();
        for (i, &key) in keys.iter().enumerate() {
            let Some(entry) = store.groups().get(key).map_err(OutlineError::Cache)? else {
                continue;
            };
            // A plan is replayed only on the text it was detected on.
            // The key says so already; the recorded length says so
            // independently of whoever put the entry under that key, and
            // a plan laid over a text of another length resolves into
            // separator space at best.
            if entry.text_len == group_text_len(groups[i].iter().map(|&idx| len_of(idx))) {
                cached[i] = Some(entry);
            } else {
                foreign[i] = true;
            }
        }
    }

    let min_len = config.min_len;
    let (groups_ref, cached_ref) = (&groups, &cached);
    let code: &[CompiledMethod] = methods;
    // A miss comes back with its candidates as the rows it is cached as.
    let (detected, _loads) = run_indexed(groups.len(), threads, |i| {
        if cached_ref[i].is_some() {
            let members = groups_ref[i].iter().map(|&idx| (idx, len_of(idx)));
            return (replay_group_plan(members), None, 0);
        }
        let text: Vec<TaggedSequence> = groups_ref[i]
            .iter()
            .map(|&idx| materialize(idx, &code[idx].words, template_of(idx)))
            .collect();
        detect_fault::check(i);
        let group_start = Instant::now();
        let (plan, candidates) = detect_group(&text, min_len);
        let cost_us = u64::try_from(group_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let text_len = group_text_len(plan.lens.iter().copied());
        (plan, Some(GroupPlanEntry::from_candidates(text_len, &candidates)), cost_us)
    })
    .map_err(|p| OutlineError::Worker { group: p.index, message: p.message })?;
    let detect_time = detect_start.elapsed();

    // One shape from here on, hit or miss: the layout and the lane's rows.
    let mut plans: Vec<(GroupPlan, Arc<GroupPlanEntry>)> = Vec::with_capacity(groups.len());
    for (i, (plan, fresh, cost_us)) in detected.into_iter().enumerate() {
        // Detection CPU rides into the plan lane as recompute cost, so
        // eviction pressure drops cheap plans first.
        let entry = match (fresh, store) {
            (None, _) => cached[i].take().expect("a replayed group has its entry"),
            (Some(entry), Some(store)) if foreign[i] => {
                store.groups().replace_with_cost(keys[i], entry, cost_us)
            }
            (Some(entry), Some(store)) => store.groups().insert_with_cost(keys[i], entry, cost_us),
            (Some(entry), None) => Arc::new(entry),
        };
        plans.push((plan, entry));
    }

    // --- Materialize outlined functions and per-method edits. -----------
    let mut outlined: Vec<Vec<u32>> = Vec::new();
    let mut edits: Vec<Vec<Edit>> = (0..methods.len()).map(|_| Vec::new()).collect();
    let ret_word = Insn::Br { rn: Reg::LR }.encode().expect("br x30 encodes");
    for (group, (plan, entry)) in plans.iter().enumerate() {
        let dict = &mut dict;
        let materialized = catch_unwind(AssertUnwindSafe(|| {
            for (words, positions) in entry.candidates() {
                // A candidate's words are those of the instructions it
                // repeats (a loaded plan's were checked at the cache's
                // trust boundary). Room for the `br x30` a private copy
                // ends in.
                let mut body: Vec<u32> = Vec::with_capacity(words.len() + 1);
                body.extend_from_slice(words);
                // Dictionary arbitration: a byte-identical island body
                // serves every occurrence at call overhead only.
                let call = match (dict.as_deref_mut(), store) {
                    (Some(session), Some(store)) => {
                        let insns = decode_all(&body).expect("candidate symbols decode");
                        session.route(&insns, store).map(EditCall::Dict)
                    }
                    _ => None,
                };
                let call = match call {
                    Some(call) => call,
                    None => {
                        let id = outlined.len() as u32;
                        body.push(ret_word);
                        stats.words_saved -= body.len() as i64;
                        outlined.push(body);
                        stats.outlined_functions += 1;
                        EditCall::Outlined(id)
                    }
                };
                for &pos in positions {
                    let (tag, sym_off) = plan.resolve(pos as usize);
                    edits[tag].push(Edit { start: sym_off, len: words.len(), call });
                    stats.occurrences_replaced += 1;
                    stats.words_saved += words.len() as i64 - 1;
                }
            }
        }));
        if let Err(payload) = materialized {
            return Err(OutlineError::Worker { group, message: panic_message(payload) });
        }
    }
    // Symbol offsets to code words, one method's template at a time.
    // Occurrences start at literal symbols, whose words rise with their
    // symbol offsets: sorted by word, the edits are in occurrence order.
    for (idx, method_edits) in edits.iter_mut().enumerate() {
        if method_edits.is_empty() {
            continue;
        }
        let template = template_of(idx);
        for edit in method_edits.iter_mut() {
            edit.start = template.word_at(edit.start);
        }
        method_edits.sort_unstable_by_key(|e| e.start);
    }

    // --- §3.3.4 + §3.5: apply edits, patch PC-relative, fix records. ----
    let (mut map, mut new_words) = (Vec::new(), Vec::new());
    for (idx, method_edits) in edits.iter().enumerate() {
        if method_edits.is_empty() {
            continue;
        }
        let (patched, maps_updated) =
            apply_edits(&mut methods[idx], method_edits, &mut map, &mut new_words);
        stats.pc_rel_patched += patched;
        stats.stack_maps_updated += maps_updated;
    }

    Ok(LtboResult { outlined, stats, detect_time })
}

const FRESH: u8 = SymbolTemplate::FRESH;
const LEADER: u8 = SymbolTemplate::LEADER;

/// Builds the §3.3.2 symbolization structure for one method: one flag
/// byte per code word, marking the words that replay to a fresh
/// separator (terminators, PC-relative sites, call relocations, LR
/// users, SP writers — and in a hot method every word outside the slow
/// paths) and those a leader separator precedes (branch targets). The
/// literal words are the method's own `words`, read at replay, so nothing
/// is encoded or copied here. Replaying the result through
/// [`SymbolTemplate::replay_symbols`] yields exactly the symbol sequence
/// direct extraction would produce — the cache stores the
/// `hot_slow_paths_only = false` template so warm builds skip this scan
/// entirely.
///
/// One pass over the metadata marks each word's flag byte, one pass over
/// the instructions ([`CompiledMethod::instructions`], decoded from the
/// words when the method has none) asks [`Insn::is_outline_hazard`] of
/// each word not already fresh; the flag bytes are the one allocation
/// for a method without branch targets, and [`SymbolTemplate::new`]
/// hashes flags and words in place.
#[doc(hidden)]
pub fn build_template(m: &CompiledMethod, hot_slow_paths_only: bool) -> SymbolTemplate {
    let code_len = m.words.len();
    // A hot method outlines its slow paths only: every word starts
    // fresh and the slow paths are cleared back, before any other mark.
    let mut flags = vec![if hot_slow_paths_only { FRESH } else { 0 }; code_len];
    if hot_slow_paths_only {
        for &(start, end) in &m.metadata.slow_paths {
            for f in flags.get_mut(start..end.min(code_len)).unwrap_or_default() {
                *f &= !FRESH;
            }
        }
    }
    for rec in &m.metadata.pc_rel {
        flags[rec.at] |= FRESH;
        if let Some(f) = flags.get_mut(rec.target) {
            *f |= LEADER;
        }
    }
    // Call relocations are also position-bound (the linker rewrites their
    // offsets per site); LR rules would exclude them anyway.
    for r in &m.relocs {
        flags[r.at] |= FRESH;
    }
    for &t in &m.metadata.terminators {
        if let Some(f) = flags.get_mut(t) {
            *f |= FRESH;
        }
    }
    for (f, insn) in flags.iter_mut().zip(m.instructions().iter()) {
        if *f & FRESH == 0 && insn.is_outline_hazard() {
            *f |= FRESH;
        }
    }
    SymbolTemplate::new(flags, &m.words)
}

/// Applies sorted, non-overlapping edits to one method's `words` and to
/// its §3.2/§3.5 tables: each outlined range becomes a placeholder `bl`,
/// everything between two edits is copied as a run of words, PC-relative
/// sites are patched on their word (decode, new offset, encode) and
/// every record is remapped. No instruction is copied: the new words are
/// the method's code from here on, and its `insns` is left empty. `map`
/// (old word index → new word index) and `new_words` are scratch, reused
/// from method to method; the finished words are copied into the
/// method's `Arc` once. Returns `(pc_rel_patched, stack_maps_updated)`.
fn apply_edits(
    m: &mut CompiledMethod,
    edits: &[Edit],
    map: &mut Vec<usize>,
    new_words: &mut Vec<u32>,
) -> (usize, usize) {
    let words = &m.words;
    let old_len = words.len();
    let new_code_len = old_len - edits.iter().map(|e| e.len.saturating_sub(1)).sum::<usize>();
    // usize::MAX = removed (the interior of an outlined range).
    map.clear();
    map.resize(old_len + m.pool.len() + 1, usize::MAX);
    new_words.clear();
    new_words.reserve(new_code_len);
    let mut new_relocs: Vec<Reloc> = Vec::with_capacity(m.relocs.len() + edits.len());
    let bl_word = Insn::Bl { offset: 0 }.encode().expect("a placeholder bl encodes");
    let mut word = 0;
    // One round per edit, and a last one for the run behind the last edit.
    for edit in edits.iter().map(Some).chain([None]) {
        let run_end = edit.map_or(old_len, |e| e.start);
        assert!(word <= run_end, "edits overlap or are unsorted");
        // Untouched words move as a block.
        let at = new_words.len();
        for (i, slot) in map[word..run_end].iter_mut().enumerate() {
            *slot = at + i;
        }
        new_words.extend_from_slice(&words[word..run_end]);
        let Some(edit) = edit else { break };
        assert!(edit.len > 0 && edit.start + edit.len <= old_len, "edit leaves the code");
        // The range's first word becomes the call; its interior vanishes.
        let target = match edit.call {
            EditCall::Outlined(id) => CallTarget::Outlined(id),
            EditCall::Dict(at) => CallTarget::Dict(at),
        };
        map[edit.start] = new_words.len();
        new_relocs.push(Reloc { at: new_words.len(), target });
        new_words.push(bl_word);
        word = edit.start + edit.len;
    }
    debug_assert_eq!(new_words.len(), new_code_len);
    // Pool words shift as a block; map old pool indices too.
    for (i, slot) in map.iter_mut().enumerate().skip(old_len) {
        *slot = new_code_len + (i - old_len);
    }

    // Carry over original call relocations. The §3.2 tables below are
    // remapped where they sit: their lengths do not change.
    for r in &m.relocs {
        let at = map[r.at];
        assert_ne!(at, usize::MAX, "call site removed by outlining");
        new_relocs.push(Reloc { at, target: r.target });
    }
    new_relocs.sort_by_key(|r| r.at);

    // §3.3.4: patch PC-relative instructions with their updated offsets.
    let mut patched = 0;
    for rec in &mut m.metadata.pc_rel {
        let at = map[rec.at];
        let target = map[rec.target];
        assert_ne!(at, usize::MAX, "PC-relative instruction removed by outlining");
        assert_ne!(target, usize::MAX, "branch target removed by outlining");
        let new_offset = (target as i64 - at as i64) * 4;
        let site = decode(new_words[at]).expect("a PC-relative site decodes");
        if site.pc_rel_offset() != Some(new_offset) {
            // Outlining only removes words between a site and its
            // target, so the offset keeps its sign and alignment and
            // shrinks in magnitude: the form that held the old one
            // holds the new one.
            new_words[at] = site
                .with_pc_rel_offset(new_offset)
                .encode()
                .expect("a shrunken PC-relative offset encodes");
            patched += 1;
        }
        *rec = PcRel { at, target };
    }

    // Terminators: removed ones (inside outlined ranges) cannot exist —
    // terminators are separators — so every record survives remapping.
    for t in &mut m.metadata.terminators {
        *t = map[*t];
        assert_ne!(*t, usize::MAX, "terminator removed by outlining");
    }

    // Slow paths: remap range endpoints. Starts are leaders (branch
    // targets) and ends follow terminators, so both survive; interior
    // shrinkage is fine.
    for (s, e) in &mut m.metadata.slow_paths {
        *s = map[*s];
        *e = if *e == old_len { new_code_len } else { map[*e] };
        assert_ne!(*s, usize::MAX);
        assert_ne!(*e, usize::MAX);
    }

    // Embedded data: the pool block moved as a whole.
    for (s, _) in &mut m.metadata.embedded_data {
        *s = map[*s];
    }

    // §3.5: stack maps — return offsets move with their call sites.
    let mut maps_updated = 0;
    for sm in &mut m.stack_maps {
        let old_word = (sm.native_offset / 4) as usize;
        // The entry names the word *after* the call; remap via the call.
        // An offset of 0 would name the word before the method, i.e. the
        // metadata is corrupt — panic with context instead of letting the
        // subtraction wrap around to index `map[usize::MAX]`.
        let call_word = old_word.checked_sub(1).unwrap_or_else(|| {
            panic!(
                "stack map at native offset 0 in method {:?}: \
                 entries name the word after a call, so offset 0 cannot \
                 follow any instruction",
                m.method
            )
        });
        let new_call = map[call_word];
        assert_ne!(new_call, usize::MAX, "call under a stack map removed");
        let new_offset = (new_call as u32 + 1) * 4;
        if new_offset != sm.native_offset {
            sm.native_offset = new_offset;
            maps_updated += 1;
        }
    }

    m.insns = Arc::default();
    m.words = Arc::from(&new_words[..]);
    m.relocs = new_relocs;
    (patched, maps_updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_codegen::{MethodMetadata, StackMapEntry};
    use calibro_dex::MethodId;
    use calibro_isa::encode_words;

    /// Method 7 compiled to `insns`, with their words.
    fn compiled(insns: Vec<Insn>) -> CompiledMethod {
        CompiledMethod {
            method: MethodId(7),
            words: encode_words(&insns).expect("the body encodes").into(),
            insns: insns.into(),
            pool: vec![],
            relocs: vec![],
            metadata: MethodMetadata::default(),
            stack_maps: vec![],
        }
    }

    fn movs_then_ret() -> Vec<Insn> {
        let mov = |rd: Reg, rm: Reg| Insn::OrrReg { wide: true, rd, rn: Reg::ZR, rm, shift: 0 };
        vec![
            mov(Reg::X1, Reg::X2),
            mov(Reg::X3, Reg::X4),
            mov(Reg::X5, Reg::X6),
            Insn::Ret { rn: Reg::LR },
        ]
    }

    fn method_with_stack_map(native_offset: u32) -> CompiledMethod {
        let mut m = compiled(movs_then_ret());
        m.stack_maps = vec![StackMapEntry { native_offset, dex_pc: 0 }];
        m
    }

    #[test]
    #[should_panic(expected = "stack map at native offset 0")]
    fn apply_edits_rejects_stack_map_at_offset_zero() {
        // A stack map names the word after its call, so native offset 0 is
        // unconstructible from valid codegen. Before the guard this
        // underflowed `old_word - 1` and indexed `map[usize::MAX]`.
        let mut m = method_with_stack_map(0);
        let edits = [Edit { start: 0, len: 2, call: EditCall::Outlined(0) }];
        apply_edits(&mut m, &edits, &mut Vec::new(), &mut Vec::new());
    }

    #[test]
    fn apply_edits_remaps_valid_stack_maps() {
        // The stack map names word 3 (offset 12); outlining words 0-1 into
        // a single `bl` shifts it back by one word, to offset 8.
        let mut m = method_with_stack_map(12);
        let edits = [Edit { start: 0, len: 2, call: EditCall::Outlined(0) }];
        let (_patched, maps_updated) =
            apply_edits(&mut m, &edits, &mut Vec::new(), &mut Vec::new());
        assert_eq!(maps_updated, 1);
        assert_eq!(m.stack_maps[0].native_offset, 8);
        // The words are the method's code now.
        assert!(m.insns.is_empty());
        assert_eq!(m.words.len(), 3);
        assert!(matches!(decode(m.words[0]), Ok(Insn::Bl { .. })));
    }

    #[test]
    fn an_x30_reloading_load_pair_is_a_fresh_word() {
        // `ldp x29, x30, [sp, #16]` writes no sp, but reloads the link
        // register an outlined body returns through.
        let mut insns = movs_then_ret();
        insns[1] = Insn::Ldp {
            rt: Reg::FP,
            rt2: Reg::LR,
            rn: Reg::SP,
            offset: 16,
            mode: calibro_isa::PairMode::SignedOffset,
        };
        let template = build_template(&compiled(insns), false);
        assert_eq!(template.flags()[..2], [0, FRESH]);
    }

    #[test]
    fn a_hit_replays_its_entry_s_template_by_reference() {
        use crate::{BuildOptions, BuildSession};
        use calibro_workloads::{generate, AppSpec};

        let options = BuildOptions::cto_ltbo();
        let dex = generate(&AppSpec::small("borrowed", 5)).dex;
        let session = BuildSession::new();
        session.build(&dex, &options).expect("cold build");
        let frontend = session.frontend(&dex, &options).expect("frontend");
        let codegen = session.codegen(&dex, &options, frontend).expect("codegen");
        let mut borrowed = 0;
        for o in &codegen.outcomes {
            assert!(o.cache_hit && o.compiled.insns.is_empty(), "a hit is words only");
            let Some(symbolized) = symbolize(&o.compiled, Some(&o.entry), None) else { continue };
            let cached = o.entry.template.as_ref().expect("a candidate's entry has a template");
            assert!(matches!(symbolized.template, Cow::Borrowed(t) if std::ptr::eq(t, cached)));
            borrowed += 1;
        }
        assert!(borrowed > 0);
    }

    #[test]
    fn symbol_text_is_materialized_only_for_groups_that_re_detect() {
        use crate::{BuildOptions, BuildSession};
        use calibro_workloads::{generate, mutate_methods, AppSpec};

        // One detection thread: the whole outline pass runs on this
        // thread, so the thread-local counter sees every materialization.
        let options = BuildOptions::cto_ltbo_parallel(8, 1);
        let dex = generate(&AppSpec::small("lazy", 9)).dex;
        let session = BuildSession::new();
        let texts = |build: &dyn Fn() -> crate::BuildOutput| {
            let before = MATERIALIZED.get();
            let out = build();
            (MATERIALIZED.get() - before, out)
        };

        let (cold_texts, cold) = texts(&|| session.build(&dex, &options).unwrap());
        assert_eq!(cold_texts, cold.stats.ltbo.candidate_methods, "cold: every candidate, once");

        // Every group hits: not one method's text is made, and the plans
        // (built from symbol counts) still resolve every occurrence.
        let (warm_texts, warm) = texts(&|| session.build(&dex, &options).unwrap());
        assert_eq!(warm.stats.cache.group_misses, 0);
        assert_eq!(warm_texts, 0, "a group that hit materialized symbol text");
        assert_eq!(warm.stats.ltbo, cold.stats.ltbo);
        assert_eq!(warm.oat.words, cold.oat.words);

        // After an edit: the members of the groups that missed, nobody else.
        let mut edited = dex.clone();
        assert!(!mutate_methods(&mut edited, 7, 0.03).is_empty());
        let (edit_texts, after) = texts(&|| session.build(&edited, &options).unwrap());
        let missed = after.stats.cache.group_misses as usize;
        assert!(missed > 0 && missed < after.stats.ltbo.detection_groups);
        assert!(edit_texts > 0 && edit_texts < after.stats.ltbo.candidate_methods);
        assert_eq!(after.oat.words, crate::build(&edited, &options).unwrap().oat.words);
    }

    #[test]
    fn run_ltbo_leaves_the_words_the_staged_path_leaves() {
        use crate::{BuildOptions, BuildSession};
        use calibro_workloads::{generate, AppSpec};

        let options = BuildOptions::cto_ltbo();
        let config = options.ltbo_config().expect("ltbo is on");
        let dex = generate(&AppSpec::small("decoded", 11)).dex;
        let session = BuildSession::new();
        let frontend = session.frontend(&dex, &options).expect("frontend");
        let codegen = session.codegen(&dex, &options, frontend).expect("codegen");
        let original: Vec<CompiledMethod> =
            codegen.outcomes.iter().map(|o| o.compiled.clone()).collect();
        let entries: Vec<Arc<CacheEntry>> = codegen.outcomes.into_iter().map(|o| o.entry).collect();

        // Entries make the staged run replay templates; the free run
        // builds every one afresh.
        let mut staged = original.clone();
        let staged_run = outline_methods(&mut staged, &entries, &config, None, None).unwrap();
        let mut free = original.clone();
        let free_run = run_ltbo(&mut free, &config);
        assert_eq!(free_run.stats, staged_run.stats);
        assert_eq!(free_run.outlined, staged_run.outlined);

        let mut rewritten = 0;
        for ((f, s), o) in free.iter().zip(&staged).zip(&original) {
            assert_eq!((&f.words, &f.insns), (&s.words, &s.insns));
            assert_eq!((&f.relocs, &f.metadata), (&s.relocs, &s.metadata));
            assert_eq!(f.stack_maps, s.stack_maps);
            if Arc::ptr_eq(&s.words, &o.words) {
                assert!(Arc::ptr_eq(&s.insns, &o.insns));
            } else {
                rewritten += 1;
                assert!(s.insns.is_empty(), "{:?} kept stale instructions", s.method);
            }
        }
        assert!(rewritten > 0, "nothing was outlined");
    }

    /// The per-word implementation the run-copying one replaced, kept
    /// verbatim as the oracle: it knows nothing of encoded words.
    mod reference {
        use super::super::{
            CallTarget, CompiledMethod, Edit, EditCall, Insn, PcRel, Reloc, UNIQUE_BASE,
        };

        /// The three-bitmap symbolization the one-pass one replaced, kept
        /// as the oracle — but for the private `writes_sp` it called, now
        /// [`Insn::writes_sp`], and for what it emits: each symbol as
        /// both hashes see it (a literal's word, `UNIQUE_BASE` for a
        /// separator) with the code word it maps back to (`usize::MAX`
        /// for a leader).
        pub fn build_template(
            m: &CompiledMethod,
            words: &[u32],
            hot_slow_paths_only: bool,
        ) -> Vec<(u64, usize)> {
            let code_len = m.insns.len();
            assert_eq!(words.len(), code_len, "one encoded word per instruction");
            let mut is_pc_rel_site = vec![false; code_len];
            let mut is_leader = vec![false; code_len];
            for rec in &m.metadata.pc_rel {
                is_pc_rel_site[rec.at] = true;
                if rec.target < code_len {
                    is_leader[rec.target] = true;
                }
            }
            // Call relocations are also position-bound (the linker rewrites their
            // offsets per site); LR rules would exclude them anyway.
            for r in &m.relocs {
                is_pc_rel_site[r.at] = true;
            }
            let mut is_terminator = vec![false; code_len];
            for &t in &m.metadata.terminators {
                if t < code_len {
                    is_terminator[t] = true;
                }
            }

            let mut symbols = Vec::with_capacity(code_len + 8);
            for (word, insn) in m.insns.iter().enumerate() {
                // A basic-block leader must start a fresh sequence: branches land
                // here, so no repeat may span this boundary.
                if is_leader[word] {
                    symbols.push((UNIQUE_BASE, usize::MAX));
                }
                let excluded = is_terminator[word]
                    || is_pc_rel_site[word]
                    || insn.reads_lr()
                    || insn.writes_lr()
                    || insn.writes_sp()
                    || (hot_slow_paths_only && !m.metadata.in_slow_path(word));
                if excluded {
                    symbols.push((UNIQUE_BASE, word));
                } else {
                    symbols.push((u64::from(words[word]), word));
                }
            }
            symbols
        }

        pub fn apply_edits(m: &mut CompiledMethod, edits: &[Edit]) -> (usize, usize) {
            let old_len = m.insns.len();
            // old word index -> new word index (usize::MAX = removed).
            let mut map = vec![usize::MAX; old_len + m.pool.len() + 1];
            let mut new_insns = Vec::with_capacity(old_len);
            let mut new_relocs: Vec<Reloc> = Vec::new();
            let mut next_edit = 0;
            let mut word = 0;
            while word < old_len {
                if next_edit < edits.len() && edits[next_edit].start == word {
                    let edit = &edits[next_edit];
                    map[word] = new_insns.len();
                    let target = match edit.call {
                        EditCall::Outlined(id) => CallTarget::Outlined(id),
                        EditCall::Dict(at) => CallTarget::Dict(at),
                    };
                    new_relocs.push(Reloc { at: new_insns.len(), target });
                    new_insns.push(Insn::Bl { offset: 0 });
                    // Interior words vanish.
                    word += edit.len;
                    next_edit += 1;
                } else {
                    map[word] = new_insns.len();
                    new_insns.push(m.insns[word]);
                    word += 1;
                }
            }
            debug_assert_eq!(next_edit, edits.len(), "edit start did not align to a word");
            // Pool words shift as a block; map old pool indices too.
            let new_code_len = new_insns.len();
            for (i, slot) in map.iter_mut().enumerate().skip(old_len) {
                *slot = new_code_len + (i - old_len);
            }

            // Carry over original call relocations.
            for r in &m.relocs {
                let at = map[r.at];
                assert_ne!(at, usize::MAX, "call site removed by outlining");
                new_relocs.push(Reloc { at, target: r.target });
            }
            new_relocs.sort_by_key(|r| r.at);

            // §3.3.4: patch PC-relative instructions with their updated offsets.
            let mut patched = 0;
            let mut new_pc_rel = Vec::with_capacity(m.metadata.pc_rel.len());
            for rec in &m.metadata.pc_rel {
                let at = map[rec.at];
                let target = map[rec.target];
                assert_ne!(at, usize::MAX, "PC-relative instruction removed by outlining");
                assert_ne!(target, usize::MAX, "branch target removed by outlining");
                let new_offset = (target as i64 - at as i64) * 4;
                if new_insns[at].pc_rel_offset() != Some(new_offset) {
                    new_insns[at] = new_insns[at].with_pc_rel_offset(new_offset);
                    patched += 1;
                }
                new_pc_rel.push(PcRel { at, target });
            }

            // Terminators: removed ones (inside outlined ranges) cannot exist —
            // terminators are separators — so every record survives remapping.
            let mut new_terminators = Vec::with_capacity(m.metadata.terminators.len());
            for &t in &m.metadata.terminators {
                let nt = map[t];
                assert_ne!(nt, usize::MAX, "terminator removed by outlining");
                new_terminators.push(nt);
            }

            // Slow paths: remap range endpoints. Starts are leaders (branch
            // targets) and ends follow terminators, so both survive; interior
            // shrinkage is fine.
            let mut new_slow = Vec::with_capacity(m.metadata.slow_paths.len());
            for &(s, e) in &m.metadata.slow_paths {
                let ns = map[s];
                let ne = if e == old_len { new_code_len } else { map[e] };
                assert_ne!(ns, usize::MAX);
                assert_ne!(ne, usize::MAX);
                new_slow.push((ns, ne));
            }

            // Embedded data: the pool block moved as a whole.
            let mut new_embedded = Vec::with_capacity(m.metadata.embedded_data.len());
            for &(s, l) in &m.metadata.embedded_data {
                new_embedded.push((map[s], l));
            }

            // §3.5: stack maps — return offsets move with their call sites.
            let mut maps_updated = 0;
            for sm in &mut m.stack_maps {
                let old_word = (sm.native_offset / 4) as usize;
                // The entry names the word *after* the call; remap via the call.
                // An offset of 0 would name the word before the method, i.e. the
                // metadata is corrupt — panic with context instead of letting the
                // subtraction wrap around to index `map[usize::MAX]`.
                let call_word = old_word.checked_sub(1).unwrap_or_else(|| {
                    panic!(
                        "stack map at native offset 0 in method {:?}: \
                         entries name the word after a call, so offset 0 cannot \
                         follow any instruction",
                        m.method
                    )
                });
                let new_call = map[call_word];
                assert_ne!(new_call, usize::MAX, "call under a stack map removed");
                let new_offset = (new_call as u32 + 1) * 4;
                if new_offset != sm.native_offset {
                    sm.native_offset = new_offset;
                    maps_updated += 1;
                }
            }

            m.insns = new_insns.into();
            m.relocs = new_relocs;
            m.metadata.pc_rel = new_pc_rel;
            m.metadata.terminators = new_terminators;
            m.metadata.slow_paths = new_slow;
            m.metadata.embedded_data = new_embedded;
            (patched, maps_updated)
        }
    }

    mod differential {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        use super::super::*;
        use super::reference;
        use calibro_codegen::{MethodMetadata, StackMapEntry, ThunkKind};
        use calibro_dex::MethodId;
        use calibro_isa::{encode_words, Cond};

        /// A method with consistent §3.2 metadata and a sorted,
        /// non-overlapping edit set over it, grown from `seed`. Edits
        /// come first (adjacent ones, single-word gaps, one at word 0 and
        /// one ending at the last word all occur); then every word no
        /// edit covers draws a role — PC-relative site, call with a
        /// stack map behind it, terminator, plain — and sites pick
        /// targets anywhere an edit's interior is not: before or behind
        /// any number of edits, an edit's first word, the pool, the end.
        fn case(n: usize, pool_len: usize, seed: u64) -> (CompiledMethod, Vec<Edit>) {
            let mut rng = TestRng::seed_from_u64(seed);
            let mut below = |bound: usize| rng.below(bound as u64) as usize;

            let mut edits = Vec::new();
            let mut interior = vec![false; n + 1];
            let mut covered = vec![false; n];
            let mut word = 0;
            loop {
                word += [0, 0, 1, 1, 2, 3, 5, 9][below(8)];
                if word >= n {
                    break;
                }
                let len = (1 + below(5)).min(n - word);
                let call = match below(2) {
                    0 => EditCall::Outlined(below(9) as u32),
                    _ => EditCall::Dict(below(99) as u32),
                };
                edits.push(Edit { start: word, len, call });
                covered[word..word + len].fill(true);
                interior[word + 1..word + len].fill(true);
                word += len;
            }
            let landing: Vec<usize> =
                (0..=n + pool_len).filter(|&w| w >= n || !interior[w]).collect();

            let plain = |k: usize| match k % 3 {
                0 => Insn::Nop,
                1 => Insn::AddImm {
                    wide: true,
                    set_flags: false,
                    rd: Reg::X1,
                    rn: Reg::X2,
                    imm12: (k % 4096) as u16,
                    shift12: false,
                },
                _ => Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 },
            };
            let mut insns = Vec::with_capacity(n);
            let mut m = CompiledMethod {
                method: MethodId(3),
                insns: Arc::from([]),
                words: Arc::from([]),
                pool: (0..pool_len as u32).map(|i| 0xdead_0000 + i).collect(),
                relocs: Vec::new(),
                metadata: MethodMetadata::default(),
                stack_maps: Vec::new(),
            };
            for (w, &in_edit) in covered.iter().enumerate() {
                let role = if in_edit { 9 } else { below(10) };
                let insn = match role {
                    0..=2 => {
                        let target = landing[below(landing.len())];
                        let offset = (target as i64 - w as i64) * 4;
                        m.metadata.pc_rel.push(PcRel { at: w, target });
                        match below(6) {
                            0 => Insn::B { offset },
                            1 => Insn::BCond { cond: Cond::Ne, offset },
                            2 => Insn::Cbz { wide: false, rt: Reg::X5, offset },
                            3 => Insn::Tbnz { rt: Reg::X6, bit: 3, offset },
                            4 => Insn::Adr { rd: Reg::X7, offset },
                            _ => Insn::LdrLit { wide: true, rt: Reg::X8, offset },
                        }
                    }
                    3 | 4 => {
                        let target = match below(2) {
                            0 => CallTarget::Thunk(ThunkKind::StackCheck),
                            _ => CallTarget::Method(MethodId(below(50) as u32)),
                        };
                        m.relocs.push(Reloc { at: w, target });
                        let native_offset = (w as u32 + 1) * 4;
                        m.stack_maps.push(StackMapEntry { native_offset, dex_pc: w as u32 });
                        Insn::Bl { offset: 0 }
                    }
                    5 => {
                        m.metadata.terminators.push(w);
                        Insn::Ret { rn: Reg::LR }
                    }
                    _ => plain(below(9000)),
                };
                insns.push(insn);
            }
            m.words = encode_words(&insns).expect("the case encodes").into();
            m.insns = insns.into();
            for _ in 0..below(3) {
                let (a, b) =
                    (landing[below(landing.len())].min(n), landing[below(landing.len())].min(n));
                if a != b {
                    m.metadata.slow_paths.push((a.min(b), a.max(b)));
                }
            }
            if pool_len > 0 {
                m.metadata.embedded_data.push((n, pool_len));
            }
            (m, edits)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Copying runs of words yields exactly what rebuilding
            /// instructions word by word did: the new words are the
            /// reference's instructions encoded, and relocations, every
            /// metadata table, stack maps and counters match. The method
            /// keeps no instructions of its own.
            #[test]
            fn copying_runs_equals_the_per_word_reference(
                n in 1usize..72,
                pool_len in 0usize..4,
                seed in any::<u64>(),
                stale in 0usize..160,
            ) {
                let (method, edits) = case(n, pool_len, seed);
                let (mut expected, mut actual) = (method.clone(), method);
                let counters = reference::apply_edits(&mut expected, &edits);
                // The scratch arrives dirty from the method before.
                let (mut map, mut words) = (vec![7; stale], vec![9; stale]);
                let (patched, maps_updated) = apply_edits(&mut actual, &edits, &mut map, &mut words);
                prop_assert_eq!((patched, maps_updated), counters);
                let reference = encode_words(&expected.insns).expect("the reference encodes");
                prop_assert_eq!(&actual.words[..], &reference[..]);
                prop_assert!(actual.insns.is_empty());
                prop_assert_eq!(&actual.pool, &expected.pool);
                prop_assert_eq!(&actual.relocs, &expected.relocs);
                prop_assert_eq!(&actual.metadata, &expected.metadata);
                prop_assert_eq!(&actual.stack_maps, &expected.stack_maps);
            }
        }

        /// A method for symbolization, grown from `seed`: instructions
        /// drawn from a palette of plain words and every kind of `x30`/`sp`
        /// hazard (the `x30`-loading `ldp` among them), arbitrary words
        /// behind them, PC-relative records targeting the code, the pool
        /// and past it, call relocations, terminators at and past the
        /// code's end, and unsorted, overlapping, reversed and
        /// overhanging slow paths.
        fn symbolize_case(n: usize, pool_len: usize, seed: u64) -> CompiledMethod {
            use calibro_isa::PairMode::{PostIndex, PreIndex, SignedOffset};

            let mut rng = TestRng::seed_from_u64(seed);
            let mut below = |bound: usize| rng.below(bound as u64) as usize;
            let sub = |set_flags, rd, rn| Insn::SubImm {
                wide: true,
                set_flags,
                rd,
                rn,
                imm12: 16,
                shift12: false,
            };
            let pair = |load, rt, rt2, mode| match load {
                true => Insn::Ldp { rt, rt2, rn: Reg::SP, offset: 16, mode },
                false => Insn::Stp { rt, rt2, rn: Reg::SP, offset: -16, mode },
            };
            let palette = [
                Insn::Nop,
                Insn::AddImm {
                    wide: true,
                    set_flags: false,
                    rd: Reg::X1,
                    rn: Reg::X2,
                    imm12: 4,
                    shift12: false,
                },
                Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 },
                Insn::Movk { wide: true, rd: Reg::LR, imm16: 1, hw: 1 },
                Insn::Bl { offset: 0 },
                Insn::Blr { rn: Reg::X8 },
                Insn::Ret { rn: Reg::LR },
                Insn::B { offset: 8 },
                Insn::StrImm { wide: true, rt: Reg::LR, rn: Reg::SP, offset: 8 },
                Insn::LdrImm { wide: true, rt: Reg::LR, rn: Reg::X0, offset: 8 },
                Insn::StrImm { wide: true, rt: Reg::X1, rn: Reg::SP, offset: 8 },
                pair(false, Reg::FP, Reg::LR, PreIndex),
                pair(true, Reg::FP, Reg::LR, PostIndex),
                pair(true, Reg::FP, Reg::LR, SignedOffset),
                pair(true, Reg::X1, Reg::X2, SignedOffset),
                pair(false, Reg::X1, Reg::X2, SignedOffset),
                sub(false, Reg::SP, Reg::SP),
                sub(true, Reg::ZR, Reg::X1),
                sub(false, Reg::X16, Reg::SP),
            ];
            let mut m = CompiledMethod {
                method: MethodId(5),
                insns: (0..n).map(|_| palette[below(palette.len())]).collect(),
                words: Arc::from([]),
                pool: (0..pool_len as u32).map(|i| 0xbeef_0000 + i).collect(),
                relocs: Vec::new(),
                metadata: MethodMetadata::default(),
                stack_maps: Vec::new(),
            };
            m.words = (0..n).map(|_| below(1 << 30) as u32).collect();
            // Targets inside the code, in the pool, and past both.
            for _ in 0..below(n + 1) {
                m.metadata.pc_rel.push(PcRel { at: below(n), target: below(n + pool_len + 3) });
            }
            for _ in 0..below(3) {
                let target = CallTarget::Thunk(ThunkKind::StackCheck);
                m.relocs.push(Reloc { at: below(n), target });
            }
            for _ in 0..below(4) {
                m.metadata.terminators.push(below(n + 3));
            }
            for _ in 0..below(4) {
                m.metadata.slow_paths.push((below(n + 2), below(n + 2)));
            }
            m
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// One flag byte per word and one hazard query make exactly
            /// the symbols the three bitmaps and four queries made, hot
            /// filtering on and off: the template replays to them, maps
            /// every one of them back to the reference's word, and hashes
            /// them as the reference's sequence hashes.
            #[test]
            fn one_pass_symbolization_equals_the_three_bitmap_reference(
                n in 1usize..48,
                pool_len in 0usize..4,
                seed in any::<u64>(),
                hot in any::<bool>(),
                band in 0u64..4,
            ) {
                let method = symbolize_case(n, pool_len, seed);
                let expected = reference::build_template(&method, &method.words, hot);
                let actual = build_template(&method, hot);
                prop_assert_eq!(actual.symbol_count(), expected.len());

                let start = UNIQUE_BASE + band * SEP_STRIDE;
                let (mut unique, mut fresh) = (start, start);
                let replayed = actual.replay_symbols(&method.words, &mut unique);
                let numbered: Vec<u64> = expected
                    .iter()
                    .map(|&(sym, _)| match sym {
                        UNIQUE_BASE => {
                            fresh += 1;
                            fresh
                        }
                        literal => literal,
                    })
                    .collect();
                prop_assert_eq!(replayed, numbered);
                prop_assert_eq!(unique, fresh);

                let words: Vec<usize> = expected.iter().map(|&(_, word)| word).collect();
                let mapped: Vec<usize> = (0..expected.len()).map(|s| actual.word_at(s)).collect();
                prop_assert_eq!(mapped, words);

                let canonical: Vec<u64> = expected.iter().map(|&(sym, _)| sym).collect();
                prop_assert_eq!(actual.content_key(), calibro_cache::sequence_content_key(&canonical));
                prop_assert_eq!(actual.group_hash(), calibro_suffix::stable_sequence_hash(&canonical));
            }
        }
    }
}
