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
//!    `br x30` and plans, per method, the edits that replace its
//!    occurrences with `bl`s. The linker applies them (§3.3.4, §3.5:
//!    call sites, PC-relative patching, the records that follow the
//!    code) as it writes each method into the text segment once;
//!    [`run_ltbo`] applies them in place through the same routine.

use std::borrow::Cow;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calibro_cache::{
    ArtifactStore, CacheEntry, CacheError, CacheKey, GroupPlanEntry, SymbolTemplate,
};
use calibro_codegen::{CallTarget, CompiledMethod};
use calibro_isa::{Insn, Reg};
use calibro_oat::{Edit, MethodEdits, RewriteStats, Rewriter};
use calibro_suffix::{
    detect_group, group_text_len, partition_stable_by, GroupPlan, OutlineCandidate, TaggedSequence,
    UNIQUE_SEPARATOR_BASE,
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
    /// What rewriting the methods changed beyond their call sites
    /// (§3.3.4, §3.5). In a build the linker applies the edits and
    /// [`BuildStats::rewrite`](crate::BuildStats::rewrite) reports it.
    pub rewrite: RewriteStats,
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
/// normalized in hashes and never appear inside candidates), so the
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
    /// knows which symbols have no word behind them (its leaders, which
    /// turn a fresh plan's positions into words) and carries the
    /// sequence's content key (the Merkle leaf of the group key) and
    /// partition hash. Both hashes normalize separators, so the values
    /// cached at template construction equal a direct hash of the
    /// replayed symbols whatever this method's band — no per-build
    /// re-hashing.
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

/// A fresh plan as the rows it is cached and replayed as: every
/// occurrence's group-text position resolved, once, to its group-code
/// word offset — the position less the symbols before it that have no
/// word behind them, which are the members' leader separators (`leaders`
/// of member `j`, in group order) and the joints between members. One
/// ascending list of those, one binary search per occurrence; the plan's
/// code length is the text's less the same list.
fn plan_rows<'t>(
    plan: &GroupPlan,
    candidates: &[OutlineCandidate],
    leaders: impl Fn(usize) -> &'t [u32],
) -> GroupPlanEntry {
    let mut wordless = Vec::new();
    for (j, (&offset, &len)) in plan.offsets.iter().zip(&plan.lens).enumerate() {
        wordless.extend(leaders(j).iter().map(|&leader| offset + leader as usize));
        wordless.push(offset + len);
    }
    let code_len = group_text_len(plan.lens.iter().copied()) - wordless.len();
    GroupPlanEntry::from_candidates(code_len, candidates, |pos| {
        pos - wordless.partition_point(|&sym| sym < pos)
    })
}

/// The word each member of a group starts at in the group's code, and
/// the code's length last: `starts[j]..starts[j + 1]` are member `j`'s
/// words. Fills `starts`, scratch reused from group to group.
fn member_starts(members: &[usize], methods: &[CompiledMethod], starts: &mut Vec<usize>) {
    starts.clear();
    let mut at = 0;
    for &idx in members {
        starts.push(at);
        at += methods[idx].words.len();
    }
    starts.push(at);
}

/// The method (a member of the group) and the word within it that a
/// cached occurrence at group-code offset `pos` starts at.
///
/// # Panics
///
/// Panics if the occurrence's `len` words leave that method, which no
/// plan detected on this group's code can place.
fn locate(members: &[usize], starts: &[usize], pos: usize, len: usize) -> (usize, usize) {
    let j = starts.partition_point(|&start| start <= pos) - 1;
    assert!(pos + len <= starts[j + 1], "occurrence at word {pos} leaves its method");
    (members[j], pos - starts[j])
}

/// `found`'s edits grouped by method — a counting sort on the method
/// index — as one flat list and each method's bounds in it: method
/// `idx`'s edits are `edits[bounds[idx]..bounds[idx + 1]]`.
fn by_method(found: &[(usize, Edit)], methods: usize) -> MethodEdits {
    let mut bounds = vec![0; methods + 1];
    for &(idx, _) in found {
        bounds[idx] += 1;
    }
    for i in 1..bounds.len() {
        bounds[i] += bounds[i - 1];
    }
    // Back to front, so each method's bound ends at its first edit.
    let mut edits = vec![Edit { start: 0, len: 0, target: CallTarget::Outlined(0) }; found.len()];
    for &(idx, edit) in found.iter().rev() {
        bounds[idx] -= 1;
        edits[bounds[idx]] = edit;
    }
    MethodEdits { edits, bounds }
}

/// Runs LTBO over the compiled methods, rewriting them in place and
/// returning the outlined functions to hand to the linker. The
/// session-free entry point: every method is symbolized from scratch
/// and no plan is cached. Each method with edits is rewritten by the
/// linker's own routine ([`Rewriter::rewrite`]) into a per-method
/// buffer: its code is its new `words`, and its `insns` is left empty.
/// The methods then link without edits to the bytes a build's linker
/// writes when it applies the edits itself.
///
/// # Panics
///
/// Panics if metadata is inconsistent with the code (these are internal
/// invariants; the compiler produces consistent metadata, and cached
/// artifacts are validated at load time).
pub fn run_ltbo(methods: &mut [CompiledMethod], config: &LtboConfig) -> LtboResult {
    let (mut result, edits) = match outline_methods(methods, &[], config, None) {
        Ok(planned) => planned,
        Err(e) => panic!("{e}"),
    };
    result.rewrite = rewrite_in_place(methods, &edits);
    result
}

/// Applies each method's `edits` to it in place: new words, relocations,
/// metadata and stack maps, and no instructions. A method without edits
/// is left as it is.
fn rewrite_in_place(methods: &mut [CompiledMethod], edits: &MethodEdits) -> RewriteStats {
    let (mut rewriter, mut words, mut stats) =
        (Rewriter::default(), Vec::new(), RewriteStats::default());
    for (idx, m) in methods.iter_mut().enumerate() {
        let method_edits = edits.of(idx);
        if method_edits.is_empty() {
            continue;
        }
        words.clear();
        let rewritten = rewriter.rewrite(m, method_edits, &mut words);
        stats += rewritten.stats;
        let relocs = rewritten.relocs.into();
        let (metadata, stack_maps) = (rewritten.metadata, rewritten.stack_maps);
        *m = CompiledMethod {
            method: m.method,
            insns: Arc::default(),
            words: words.as_slice().into(),
            pool: Arc::clone(&m.pool),
            relocs,
            metadata,
            stack_maps,
        };
    }
    stats
}

/// The one outlining route, shared by [`run_ltbo`] and the staged
/// pipeline's outline pass: plans the outlined functions and each
/// method's edits, sorted, and changes no method. Beyond the §3.3 steps
/// it offers:
///
/// - **Template replay.** `entries` is indexed by method position and
///   holds the store entry each method was compiled into or replayed
///   from; a method that still shares its entry's words replays the
///   entry's cached §3.3.2 symbol structure instead of re-extracting it
///   from code and metadata (see [`symbolize`]). An empty or short
///   slice falls back to extraction.
/// - **Words are the code.** A template replays over its method's words,
///   a plan's occurrences are offsets into its group's words, and an edit
///   names the words it replaces. Outlined bodies are their candidates'
///   words, and nothing decodes them. No method's tables are read here:
///   what the edits do to them is counted where they are rewritten.
/// - **Typed worker errors.** A panic inside one group's detection or
///   materialization (e.g. a [`locate`] panic on an occurrence that
///   leaves its method) is caught and surfaced as
///   [`OutlineError::Worker`] with the group index and the panic
///   payload, instead of unwinding through — or, on a pool thread,
///   aborting — the whole build.
/// - **Incremental detection.** With `store` set, each group's selected
///   candidates are cached — as the flat rows of a [`GroupPlanEntry`] —
///   under a key covering the group's normalized symbol text plus
///   the `LtboConfig` fingerprint ([`group_plan_key_from`]). Groups
///   whose key hits read the cached rows in place and find each
///   occurrence's method from the members' word counts ([`locate`]),
///   skipping both the symbol text and the suffix tree; only dirty groups
///   materialize their text, re-detect and resolve their plan to words
///   ([`plan_rows`]). A hit whose recorded code length is not this
///   group's (a foreign plan under the right key) is not replayed: the
///   group re-detects and overwrites it. Replay is byte-exact:
///   content-stable partitioning ([`partition_stable_by`]) pins each
///   sequence's group, and detection is deterministic under any
///   injective separator renumbering, such as a rebuild performs, so
///   a cached plan equals the plan fresh detection would produce.
///   Under [`LtboMode::Global`] the single whole-program group goes
///   through the same cache (useful when *nothing* changed); under
///   [`LtboMode::Parallel`] dirty-group detection runs on the
///   configured worker threads.
///
/// # Errors
///
/// [`OutlineError::Worker`] as above; [`OutlineError::Cache`] when a
/// persisted group plan exists but is corrupt or unreadable.
pub(crate) fn outline_methods(
    methods: &[CompiledMethod],
    entries: &[Arc<CacheEntry>],
    config: &LtboConfig,
    store: Option<&ArtifactStore>,
) -> Result<(LtboResult, MethodEdits), OutlineError> {
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
    let code_len =
        |group: &[usize]| group.iter().map(|&idx| methods[idx].words.len()).sum::<usize>();

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

    // Probe the plan cache; a hit means the group's normalized text
    // and word layout (and the LTBO config) are unchanged since the plan
    // was detected. The key is composed Merkle-style from the members'
    // precomputed content keys — O(members) here, not O(text).
    let mut keys: Vec<CacheKey> = Vec::new();
    let mut cached: Vec<Option<Arc<GroupPlanEntry>>> = vec![None; groups.len()];
    // Groups whose key turned out to hold a plan for some other code.
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
            // A plan is replayed only on the code it was detected on.
            // The key says so already; the recorded length says so
            // independently of whoever put the entry under that key, and
            // a plan laid over code of another length puts its
            // occurrences on other words at best.
            if entry.code_len == code_len(&groups[i]) {
                cached[i] = Some(entry);
            } else {
                foreign[i] = true;
            }
        }
    }

    let min_len = config.min_len;
    let (groups_ref, cached_ref) = (&groups, &cached);
    // A miss comes back with its candidates as the rows it is cached as.
    let (detected, _loads) = run_indexed(groups.len(), threads, |i| {
        if cached_ref[i].is_some() {
            return (None, 0);
        }
        let members = &groups_ref[i];
        let text: Vec<TaggedSequence> = members
            .iter()
            .map(|&idx| materialize(idx, &methods[idx].words, template_of(idx)))
            .collect();
        detect_fault::check(i);
        let group_start = Instant::now();
        let (plan, candidates) = detect_group(&text, min_len);
        let cost_us = u64::try_from(group_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let rows = plan_rows(&plan, &candidates, |j| template_of(members[j]).leaders());
        (Some(rows), cost_us)
    })
    .map_err(|p| OutlineError::Worker { group: p.index, message: p.message })?;
    let detect_time = detect_start.elapsed();

    // One shape from here on, hit or miss: the lane's rows.
    let mut plans: Vec<Arc<GroupPlanEntry>> = Vec::with_capacity(groups.len());
    for (i, (fresh, cost_us)) in detected.into_iter().enumerate() {
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
        plans.push(entry);
    }

    // --- Materialize outlined functions; find every occurrence. --------
    let mut outlined: Vec<Vec<u32>> = Vec::new();
    let mut found: Vec<(usize, Edit)> =
        Vec::with_capacity(plans.iter().map(|entry| entry.positions.len()).sum());
    let mut starts = Vec::new();
    let ret_word = Insn::Br { rn: Reg::LR }.encode().expect("br x30 encodes");
    for (group, entry) in plans.iter().enumerate() {
        let members = &groups[group];
        member_starts(members, methods, &mut starts);
        let materialized = catch_unwind(AssertUnwindSafe(|| {
            for (words, positions) in entry.candidates() {
                // A candidate's words are those of the instructions it
                // repeats (a loaded plan's were checked at the cache's
                // trust boundary); its body ends in `br x30`.
                let target = CallTarget::Outlined(outlined.len() as u32);
                let body = [words, &[ret_word]].concat();
                stats.words_saved -= body.len() as i64;
                outlined.push(body);
                stats.outlined_functions += 1;
                let len = words.len();
                for &pos in positions {
                    let (idx, start) = locate(members, &starts, pos as usize, len);
                    found.push((idx, Edit { start: start as u32, len: len as u32, target }));
                }
                stats.occurrences_replaced += positions.len();
                stats.words_saved += (len as i64 - 1) * positions.len() as i64;
            }
        }));
        if let Err(payload) = materialized {
            return Err(OutlineError::Worker { group, message: panic_message(payload) });
        }
    }

    // --- Each method's edits, sorted, for the linker to apply. ---------
    let mut edits = by_method(&found, methods.len());
    for bounds in edits.bounds.windows(2) {
        // A method's occurrences never overlap: by first word is in order.
        edits.edits[bounds[0]..bounds[1]].sort_unstable_by_key(|e| e.start);
    }
    let rewrite = RewriteStats::default();
    Ok((LtboResult { outlined, stats, rewrite, detect_time }, edits))
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
            let slow = start as usize..(end as usize).min(code_len);
            for f in flags.get_mut(slow).unwrap_or_default() {
                *f &= !FRESH;
            }
        }
    }
    for rec in &m.metadata.pc_rel {
        flags[rec.at as usize] |= FRESH;
        if let Some(f) = flags.get_mut(rec.target as usize) {
            *f |= LEADER;
        }
    }
    // Call relocations are also position-bound (the linker rewrites their
    // offsets per site); LR rules would exclude them anyway.
    for r in m.relocs.iter() {
        flags[r.at] |= FRESH;
    }
    for &t in &m.metadata.terminators {
        if let Some(f) = flags.get_mut(t as usize) {
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

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_codegen::{PcRel, StackMapEntry};
    use calibro_dex::MethodId;
    use calibro_isa::{decode, encode_words};

    /// Method 7 compiled to `insns`, with their words.
    fn compiled(insns: Vec<Insn>) -> CompiledMethod {
        CompiledMethod {
            method: MethodId(7),
            words: encode_words(&insns).expect("the body encodes").into(),
            insns: insns.into(),
            pool: Arc::default(),
            relocs: Arc::default(),
            metadata: Arc::default(),
            stack_maps: Arc::default(),
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
        m.stack_maps = Arc::from([StackMapEntry { native_offset, dex_pc: 0 }]);
        m
    }

    /// `m` with `edits` applied in place, as [`run_ltbo`] applies them.
    fn rewritten(m: &CompiledMethod, edits: &[Edit]) -> CompiledMethod {
        let mut methods = [m.clone()];
        let edits = MethodEdits { edits: edits.to_vec(), bounds: vec![0, edits.len()] };
        rewrite_in_place(&mut methods, &edits);
        let [m] = methods;
        m
    }

    #[test]
    #[should_panic(expected = "stack map at native offset 0")]
    fn rewriting_rejects_a_stack_map_at_offset_zero() {
        // A stack map names the word after its call, so native offset 0 is
        // unconstructible from valid codegen. Before the guard this
        // underflowed `old_word - 1` and indexed `map[usize::MAX]`.
        let edits = [Edit { start: 0, len: 2, target: CallTarget::Outlined(0) }];
        let _ = rewritten(&method_with_stack_map(0), &edits);
    }

    #[test]
    fn rewriting_remaps_valid_stack_maps() {
        // The stack map names word 3 (offset 12); outlining words 0-1 into
        // a single `bl` shifts it back by one word, to offset 8.
        let original = method_with_stack_map(12);
        let edits = [Edit { start: 0, len: 2, target: CallTarget::Outlined(0) }];
        let mut sink = Vec::new();
        let stats = Rewriter::default().rewrite(&original, &edits, &mut sink).stats;
        assert_eq!((stats.pc_rel_patched, stats.stack_maps_updated), (0, 1));
        let m = rewritten(&original, &edits);
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
        // (word offsets, found from member word counts) still place every
        // occurrence.
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
    fn run_ltbo_rewrites_in_place_what_the_linker_rewrites() {
        use crate::{BuildOptions, BuildSession};
        use calibro_oat::{link, link_with_stats, to_elf_bytes, LinkInput};
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
        // builds every one afresh. Either plans the same edits.
        let (staged, edits) = outline_methods(&original, &entries, &config, None).unwrap();
        let (fresh, fresh_edits) = outline_methods(&original, &[], &config, None).unwrap();
        assert_eq!((fresh.stats, &fresh.outlined), (staged.stats, &staged.outlined));
        assert_eq!(fresh_edits, edits);

        let mut in_place = original.clone();
        let free = run_ltbo(&mut in_place, &config);
        assert_eq!((free.stats, &free.outlined), (staged.stats, &staged.outlined));
        assert_eq!(staged.rewrite, RewriteStats::default(), "planning rewrites nothing");
        let mut rewritten = 0;
        for (idx, (m, o)) in in_place.iter().zip(&original).enumerate() {
            if edits.of(idx).is_empty() {
                assert!(Arc::ptr_eq(&m.words, &o.words) && Arc::ptr_eq(&m.insns, &o.insns));
            } else {
                rewritten += 1;
                assert!(m.insns.is_empty(), "{:?} kept stale instructions", m.method);
            }
        }
        assert!(rewritten > 0, "nothing was outlined");

        // Rewritten here and linked without edits, or rewritten by the
        // linker: one routine, the same image.
        let base = options.base_address;
        let outlined = staged.outlined;
        let input = LinkInput { methods: original, edits, outlined };
        let (by_linker, moved) = link_with_stats(input, base).unwrap();
        assert_eq!(moved, free.rewrite);
        assert!(moved.pc_rel_patched > 0 && moved.stack_maps_updated > 0);
        let outlined = free.outlined;
        let by_run = link(LinkInput { methods: in_place, outlined, ..LinkInput::default() }, base);
        assert_eq!(to_elf_bytes(&by_run.unwrap()), to_elf_bytes(&by_linker));
    }

    #[test]
    fn a_plan_replays_only_over_the_word_layout_it_was_detected_on() {
        use calibro_cache::ArtifactStore;

        // `body` with its terminators and its `b`s (site, target): both
        // replay to a fresh separator, and a `b`'s target to a leader's.
        let method = |body: &[Insn], terminators: &[u32], branches: &[(u32, u32)]| {
            let mut m = compiled(body.to_vec());
            let metadata = Arc::make_mut(&mut m.metadata);
            metadata.terminators = terminators.to_vec();
            metadata.pc_rel = branches.iter().map(|&(at, target)| PcRel { at, target }).collect();
            m
        };
        let motif = &movs_then_ret()[..3];
        let ret = Insn::Ret { rn: Reg::LR };
        let b = |at: usize, target: usize| Insn::B { offset: (target as i64 - at as i64) * 4 };
        // [motif, sep, leader, motif, sep, sep] and [motif, sep, sep,
        // motif, leader, sep], both over nine words: one text for
        // detection, one group, one code length, but the second motif
        // one word further on.
        let early = method(&[motif, &[b(3, 4)], motif, &[ret, ret]].concat(), &[7, 8], &[(3, 4)]);
        let late = method(&[motif, &[b(3, 8), ret], motif, &[ret]].concat(), &[4, 8], &[(3, 8)]);
        let (e, l) = (build_template(&early, false), build_template(&late, false));
        assert_eq!((e.group_hash(), e.flags().len()), (l.group_hash(), l.flags().len()));
        assert_ne!(e.content_key(), l.content_key());

        let third = method(&[motif, &[ret]].concat(), &[3], &[]);
        let config = LtboConfig::default();
        let outline = |m: &CompiledMethod, store: Option<&ArtifactStore>| {
            let methods = [third.clone(), third.clone(), third.clone(), m.clone()];
            let (run, edits) = outline_methods(&methods, &[], &config, store).expect("outline");
            (edits, run.outlined, run.stats)
        };
        // A store primed with one layout, rebuilt with the other: the
        // rebuild misses and plans the cold build's edits.
        let store = ArtifactStore::default();
        let (_, _, primed) = outline(&early, Some(&store));
        assert_eq!(primed.occurrences_replaced, 5, "the motif was not outlined everywhere");
        let rebuilt = outline(&late, Some(&store));
        assert_eq!(rebuilt, outline(&late, None));
        assert_eq!(store.stats().group_hits, 0);
    }

    /// The per-word implementation the run-copying one replaced, kept
    /// as the oracle — but for the types it reads and writes (edits name
    /// their call target, a method's tables are shared): it knows
    /// nothing of encoded words.
    mod reference {
        use std::sync::Arc;

        use super::super::{CompiledMethod, Edit, Insn, UNIQUE_BASE};
        use calibro_codegen::{PcRel, Reloc};

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
                is_pc_rel_site[rec.at as usize] = true;
                if (rec.target as usize) < code_len {
                    is_leader[rec.target as usize] = true;
                }
            }
            // Call relocations are also position-bound (the linker rewrites their
            // offsets per site); LR rules would exclude them anyway.
            for r in m.relocs.iter() {
                is_pc_rel_site[r.at] = true;
            }
            let mut is_terminator = vec![false; code_len];
            for &t in &m.metadata.terminators {
                if (t as usize) < code_len {
                    is_terminator[t as usize] = true;
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

        pub fn rewrite(m: &mut CompiledMethod, edits: &[Edit]) -> (usize, usize) {
            let old_len = m.insns.len();
            // old word index -> new word index (usize::MAX = removed).
            let mut map = vec![usize::MAX; old_len + m.pool.len() + 1];
            let mut new_insns = Vec::with_capacity(old_len);
            let mut new_relocs: Vec<Reloc> = Vec::new();
            let mut next_edit = 0;
            let mut word = 0;
            while word < old_len {
                if next_edit < edits.len() && edits[next_edit].start as usize == word {
                    let edit = &edits[next_edit];
                    map[word] = new_insns.len();
                    new_relocs.push(Reloc { at: new_insns.len(), target: edit.target });
                    new_insns.push(Insn::Bl { offset: 0 });
                    // Interior words vanish.
                    word += edit.len as usize;
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
            for r in m.relocs.iter() {
                let at = map[r.at];
                assert_ne!(at, usize::MAX, "call site removed by outlining");
                new_relocs.push(Reloc { at, target: r.target });
            }
            new_relocs.sort_by_key(|r| r.at);

            // §3.3.4: patch PC-relative instructions with their updated offsets.
            let mut patched = 0;
            let mut new_pc_rel = Vec::with_capacity(m.metadata.pc_rel.len());
            for rec in &m.metadata.pc_rel {
                let at = map[rec.at as usize];
                let target = map[rec.target as usize];
                assert_ne!(at, usize::MAX, "PC-relative instruction removed by outlining");
                assert_ne!(target, usize::MAX, "branch target removed by outlining");
                let new_offset = (target as i64 - at as i64) * 4;
                if new_insns[at].pc_rel_offset() != Some(new_offset) {
                    new_insns[at] = new_insns[at].with_pc_rel_offset(new_offset);
                    patched += 1;
                }
                new_pc_rel.push(PcRel { at: at as u32, target: target as u32 });
            }

            // Terminators: removed ones (inside outlined ranges) cannot exist —
            // terminators are separators — so every record survives remapping.
            let mut new_terminators = Vec::with_capacity(m.metadata.terminators.len());
            for &t in &m.metadata.terminators {
                let nt = map[t as usize];
                assert_ne!(nt, usize::MAX, "terminator removed by outlining");
                new_terminators.push(nt as u32);
            }

            // Slow paths: remap range endpoints. Starts are leaders (branch
            // targets) and ends follow terminators, so both survive; interior
            // shrinkage is fine.
            let mut new_slow = Vec::with_capacity(m.metadata.slow_paths.len());
            for &(s, e) in &m.metadata.slow_paths {
                let ns = map[s as usize];
                let ne = if e as usize == old_len { new_code_len } else { map[e as usize] };
                assert_ne!(ns, usize::MAX);
                assert_ne!(ne, usize::MAX);
                new_slow.push((ns as u32, ne as u32));
            }

            // Embedded data: the pool block moved as a whole.
            let mut new_embedded = Vec::with_capacity(m.metadata.embedded_data.len());
            for &(s, l) in &m.metadata.embedded_data {
                new_embedded.push((map[s as usize] as u32, l));
            }

            // §3.5: stack maps — return offsets move with their call sites.
            let mut maps_updated = 0;
            for sm in Arc::make_mut(&mut m.stack_maps) {
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
            m.relocs = new_relocs.into();
            let metadata = Arc::make_mut(&mut m.metadata);
            metadata.pc_rel = new_pc_rel;
            metadata.terminators = new_terminators;
            metadata.slow_paths = new_slow;
            metadata.embedded_data = new_embedded;
            (patched, maps_updated)
        }
    }

    mod differential {
        use proptest::prelude::*;
        use proptest::test_runner::TestRng;

        use super::super::*;
        use super::reference;
        use calibro_cache::LEADER_SEPARATOR;
        use calibro_codegen::{MethodMetadata, PcRel, Reloc, StackMapEntry, ThunkKind};
        use calibro_dex::MethodId;
        use calibro_isa::{encode_words, Cond};

        /// A method with consistent §3.2 metadata and a sorted,
        /// non-overlapping edit set over it, grown from `seed`. Edits
        /// come first (adjacent ones, single-word gaps, one at word 0 and
        /// one ending at the last word all occur); then every word no
        /// edit covers draws a role — PC-relative site, call with a
        /// stack map behind it, terminator, plain. Most sites pick
        /// targets anywhere an edit's interior is not: before or behind
        /// any number of edits, an edit's first word, the pool, the end.
        /// The rest land within their own run of untouched words, or on
        /// the first word of the edit behind it: no edit changes their
        /// distance, so their words are copied as they are. One case in
        /// four lists its tables in descending order.
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
                let target = CallTarget::Outlined(below(99) as u32);
                edits.push(Edit { start: word as u32, len: len as u32, target });
                covered[word..word + len].fill(true);
                interior[word + 1..word + len].fill(true);
                word += len;
            }
            let landing: Vec<usize> =
                (0..=n + pool_len).filter(|&w| w >= n || !interior[w]).collect();
            // The run of untouched words each word lies in, through the
            // first word of the edit that ends it.
            let run_of = |w: usize| {
                let ends = edits.iter().map(|e| (e.start + e.len) as usize);
                let start = ends.filter(|&end| end <= w).max();
                let end = edits.iter().map(|e| e.start as usize).filter(|&start| start > w).min();
                (start.unwrap_or(0), end.unwrap_or(n))
            };

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
            let (mut relocs, mut stack_maps) = (Vec::new(), Vec::new());
            let mut metadata = MethodMetadata::default();
            for (w, &in_edit) in covered.iter().enumerate() {
                let role = if in_edit { 9 } else { below(11) };
                let insn = match role {
                    0..=2 | 10 => {
                        let target = match role {
                            10 => {
                                let (start, end) = run_of(w);
                                start + below(end - start + 1)
                            }
                            _ => landing[below(landing.len())],
                        };
                        let offset = (target as i64 - w as i64) * 4;
                        metadata.pc_rel.push(PcRel { at: w as u32, target: target as u32 });
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
                        relocs.push(Reloc { at: w, target });
                        let native_offset = (w as u32 + 1) * 4;
                        stack_maps.push(StackMapEntry { native_offset, dex_pc: w as u32 });
                        Insn::Bl { offset: 0 }
                    }
                    5 => {
                        metadata.terminators.push(w as u32);
                        Insn::Ret { rn: Reg::LR }
                    }
                    _ => plain(below(9000)),
                };
                insns.push(insn);
            }
            for _ in 0..below(3) {
                let (a, b) =
                    (landing[below(landing.len())].min(n), landing[below(landing.len())].min(n));
                if a != b {
                    metadata.slow_paths.push((a.min(b) as u32, a.max(b) as u32));
                }
            }
            if pool_len > 0 {
                metadata.embedded_data.push((n as u32, pool_len as u32));
            }
            // Codegen emits its tables ascending; a table in any other
            // order must map the same.
            if below(4) == 0 {
                metadata.pc_rel.reverse();
                metadata.terminators.reverse();
                stack_maps.reverse();
            }
            let m = CompiledMethod {
                method: MethodId(3),
                words: encode_words(&insns).expect("the case encodes").into(),
                insns: insns.into(),
                pool: (0..pool_len as u32).map(|i| 0xdead_0000 + i).collect(),
                relocs: relocs.into(),
                metadata: Arc::new(metadata),
                stack_maps: stack_maps.into(),
            };
            (m, edits)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(2048))]

            /// Copying runs of words yields exactly what rebuilding
            /// instructions word by word did: the words appended to the
            /// sink are the reference's instructions encoded, and
            /// relocations, every metadata table, stack maps and the
            /// counted moves match. Rewritten in place, an edited method
            /// keeps no instructions of its own.
            #[test]
            fn copying_runs_equals_the_per_word_reference(
                n in 1usize..72,
                pool_len in 0usize..4,
                seed in any::<u64>(),
                stale in 0usize..160,
            ) {
                let (method, edits) = case(n, pool_len, seed);
                let mut expected = method.clone();
                let counters = reference::rewrite(&mut expected, &edits);
                let reference = encode_words(&expected.insns).expect("the reference encodes");

                // The scratch arrives dirty from the method before, and
                // the sink holds the words of those before it.
                let mut rewriter = Rewriter::default();
                let mut sink = vec![9; stale];
                let (before, before_edits) = case(n, pool_len, seed ^ 1);
                let _ = rewriter.rewrite(&before, &before_edits, &mut sink);
                let base = sink.len();
                let out = rewriter.rewrite(&method, &edits, &mut sink);
                prop_assert_eq!((out.stats.pc_rel_patched, out.stats.stack_maps_updated), counters);
                prop_assert_eq!(&sink[base..], &reference[..]);
                prop_assert_eq!(out.relocs, &expected.relocs[..]);
                prop_assert_eq!(&out.metadata, &expected.metadata);
                prop_assert_eq!(&out.stack_maps, &expected.stack_maps);

                // A method without edits keeps its words, and with them
                // its instructions.
                let actual = super::rewritten(&method, &edits);
                prop_assert_eq!(&actual.words[..], &reference[..]);
                prop_assert_eq!(actual.insns.is_empty(), !edits.is_empty());
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
            let insns: Arc<[Insn]> = (0..n).map(|_| palette[below(palette.len())]).collect();
            let words = (0..n).map(|_| below(1 << 30) as u32).collect();
            let mut metadata = MethodMetadata::default();
            // Targets inside the code, in the pool, and past both.
            for _ in 0..below(n + 1) {
                let (at, target) = (below(n) as u32, below(n + pool_len + 3) as u32);
                metadata.pc_rel.push(PcRel { at, target });
            }
            let mut relocs = Vec::new();
            for _ in 0..below(3) {
                let target = CallTarget::Thunk(ThunkKind::StackCheck);
                relocs.push(Reloc { at: below(n), target });
            }
            for _ in 0..below(4) {
                metadata.terminators.push(below(n + 3) as u32);
            }
            for _ in 0..below(4) {
                metadata.slow_paths.push((below(n + 2) as u32, below(n + 2) as u32));
            }
            CompiledMethod {
                method: MethodId(5),
                insns,
                words,
                pool: (0..pool_len as u32).map(|i| 0xbeef_0000 + i).collect(),
                relocs: relocs.into(),
                metadata: Arc::new(metadata),
                stack_maps: Arc::default(),
            }
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

                // A symbol with no word behind it is a leader's separator.
                let canonical: Vec<u64> = expected
                    .iter()
                    .map(|&(sym, word)| if word == usize::MAX { LEADER_SEPARATOR } else { sym })
                    .collect();
                prop_assert_eq!(actual.content_key(), calibro_cache::sequence_content_key(&canonical));
                prop_assert_eq!(actual.group_hash(), calibro_suffix::stable_sequence_hash(&canonical));
            }
        }

        /// A method with no code of its own but `words`.
        fn words_only(words: &[u32]) -> CompiledMethod {
            CompiledMethod {
                method: MethodId(1),
                insns: Arc::from([]),
                words: words.into(),
                pool: Arc::default(),
                relocs: Arc::default(),
                metadata: Arc::default(),
                stack_maps: Arc::default(),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            /// A fresh plan's word-space rows put every occurrence on the
            /// word `GroupPlan::resolve` and `SymbolTemplate::word_at` put
            /// it on, and replaying the rows — each occurrence's method
            /// found from the members' word counts, the edits grouped by
            /// method and sorted — gives every method exactly the edits
            /// resolution gives it. Groups of one to four members over a
            /// four-word alphabet (many repeats), with leaders, fresh
            /// words and empty members.
            #[test]
            fn word_space_rows_equal_resolving_the_fresh_plan(
                seed in any::<u64>(),
                min_len in 1usize..4,
            ) {
                let mut rng = TestRng::seed_from_u64(seed);
                let mut below = |bound: usize| rng.below(bound as u64) as usize;
                let group: Vec<(Vec<u32>, SymbolTemplate)> = (0..1 + below(4))
                    .map(|_| {
                        let n = below(40);
                        let words: Vec<u32> = (0..n).map(|_| 0x100 + below(4) as u32).collect();
                        let flags = (0..n).map(|_| [FRESH, LEADER, FRESH | LEADER, 0, 0, 0, 0][below(7)]);
                        let template = SymbolTemplate::new(flags.collect(), &words);
                        (words, template)
                    })
                    .collect();
                // Member `j` is method `2j + 1`, among methods outside the group.
                let members: Vec<usize> = (0..group.len()).map(|j| 2 * j + 1).collect();
                let mut methods: Vec<CompiledMethod> = (0..2 * group.len() + 1).map(|_| words_only(&[9])).collect();
                let mut base = vec![0; methods.len()];
                let mut code_len = 0;
                for (&idx, (words, _)) in members.iter().zip(&group) {
                    methods[idx] = words_only(words);
                    base[idx] = code_len;
                    code_len += words.len();
                }

                let text: Vec<TaggedSequence> = members
                    .iter()
                    .zip(&group)
                    .map(|(&idx, (words, template))| materialize(idx, words, template))
                    .collect();
                let (plan, candidates) = detect_group(&text, min_len);
                let rows = plan_rows(&plan, &candidates, |j| group[j].1.leaders());

                // The reference resolves a position to its method's symbol,
                // then to that symbol's word.
                let resolved = |pos: usize| {
                    let (idx, sym) = plan.resolve(pos);
                    (idx, group[idx / 2].1.word_at(sym))
                };
                let expected: Vec<u32> = candidates
                    .iter()
                    .flat_map(|c| c.positions.iter().map(|&pos| resolved(pos)))
                    .map(|(idx, word)| (base[idx] + word) as u32)
                    .collect();
                prop_assert_eq!(&rows.positions, &expected);
                prop_assert_eq!(rows.code_len, code_len);

                let mut starts = Vec::new();
                member_starts(&members, &methods, &mut starts);
                let mut found = Vec::new();
                let mut want: Vec<Vec<Edit>> = vec![Vec::new(); methods.len()];
                for (c, ((words, positions), cand)) in rows.candidates().zip(&candidates).enumerate() {
                    let (len, target) = (words.len(), CallTarget::Outlined(c as u32));
                    for &pos in positions {
                        let (idx, start) = locate(&members, &starts, pos as usize, len);
                        found.push((idx, Edit { start: start as u32, len: len as u32, target }));
                    }
                    for &pos in &cand.positions {
                        let (idx, start) = resolved(pos);
                        want[idx].push(Edit { start: start as u32, len: cand.len as u32, target });
                    }
                }
                let MethodEdits { mut edits, bounds } = by_method(&found, methods.len());
                for (idx, want) in want.iter_mut().enumerate() {
                    want.sort_by_key(|e| e.start);
                    let got = &mut edits[bounds[idx]..bounds[idx + 1]];
                    got.sort_unstable_by_key(|e| e.start);
                    prop_assert_eq!(&got[..], &want[..], "method {}", idx);
                }
            }
        }
    }
}
