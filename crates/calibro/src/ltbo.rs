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
    ArtifactStore, CacheEntry, CacheError, CacheKey, GroupPlanEntry, SymbolTemplate, TemplateSlot,
};
use calibro_codegen::{CallTarget, CompiledMethod, PcRel, Reloc};
use calibro_dict::DictSession;
use calibro_isa::Insn;
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
#[derive(Clone, Debug)]
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
    /// The outlined functions, in `CallTarget::Outlined` index order.
    pub outlined: Vec<Vec<Insn>>,
    /// Run statistics.
    pub stats: LtboStats,
    /// Wall time of the detection phase alone (cache probe + suffix-tree
    /// detection / plan replay), excluding symbolization and patching.
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

/// One candidate method's §3.3.2 symbolization.
struct Symbolized<'a> {
    /// Hot method restricted to its slow paths.
    hot: bool,
    /// The symbol sequence (separators in the method's own band).
    symbols: Vec<u64>,
    /// The template the symbols were replayed from: its slots answer
    /// symbol offset → code word lookups
    /// ([`SymbolTemplate::word_at`]) and it carries the sequence's
    /// content key (the Merkle leaf of the group key) and partition
    /// hash. Both hashes canonicalize separators, so the values cached
    /// at template construction equal a direct hash of `symbols`
    /// whatever this method's band — no per-build re-hashing.
    template: Cow<'a, SymbolTemplate>,
}

/// Classifies and symbolizes one method (§3.3.1 + §3.3.2), assigning
/// separators from the method's private band; `None` means the method
/// is not a candidate (indirect jump, native stub, or hot with no slow
/// paths). `cached` is the store entry's template for this method:
/// it is borrowed when it applies, and a fresh [`build_template`] is
/// owned when it does not — there is no entry, or the method is hot
/// (cached templates are built for the unfiltered case).
fn symbolize<'a>(
    idx: usize,
    m: &CompiledMethod,
    cached: Option<&'a SymbolTemplate>,
    hot_methods: Option<&HashSet<u32>>,
) -> Option<Symbolized<'a>> {
    if m.metadata.has_indirect_jump || m.metadata.is_native_stub {
        return None;
    }
    let hot = hot_methods.is_some_and(|set| set.contains(&m.method.0));
    if hot && m.metadata.slow_paths.is_empty() {
        return None;
    }
    let template = match cached {
        Some(template) if !hot => Cow::Borrowed(template),
        _ => Cow::Owned(build_template(m, hot)),
    };
    let mut unique = sep_base(idx);
    let symbols = template.replay_symbols(&mut unique);
    assert!(
        unique <= sep_base(idx) + SEP_STRIDE,
        "method {idx} used more than {SEP_STRIDE} separators"
    );
    Some(Symbolized { hot, symbols, template })
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
    start: usize,
    len: usize,
    call: EditCall,
}

/// Runs LTBO over the compiled methods, mutating them in place and
/// returning the outlined functions to hand to the linker. The
/// session-free entry point: every method is symbolized from scratch
/// and no plan is cached.
///
/// # Panics
///
/// Panics if metadata is inconsistent with the code (these are internal
/// invariants; the compiler produces consistent metadata, and cached
/// artifacts are validated at load time).
pub fn run_ltbo(methods: &mut [CompiledMethod], config: &LtboConfig) -> LtboResult {
    match outline_methods(methods, config, &[], None, None) {
        Ok(result) => result,
        Err(e) => panic!("{e}"),
    }
}

/// The one outlining route, shared by [`run_ltbo`] and the staged
/// pipeline's outline pass. Beyond the five §3.3 steps it offers:
///
/// - **Template replay.** `entries` is indexed by method position; a
///   method whose entry carries a [`SymbolTemplate`] replays the cached
///   §3.3.2 symbol structure instead of re-extracting it from code and
///   metadata (see [`symbolize`]). An empty or short slice falls back
///   to extraction.
/// - **Typed worker errors.** A panic inside one group's detection or
///   materialization (e.g. a [`GroupPlan::resolve`] separator-space
///   panic on an inconsistent plan) is caught and surfaced as
///   [`OutlineError::Worker`] with the group index and the panic
///   payload, instead of unwinding through — or, on a pool thread,
///   aborting — the whole build.
/// - **Incremental detection.** With `store` set, each group's selected
///   candidates are cached under a key covering the group's
///   canonicalized symbol text plus the `LtboConfig` fingerprint
///   ([`group_plan_key_from`]). Groups whose key hits replay the cached
///   plan ([`replay_group_plan`]) and skip suffix-tree construction
///   entirely; only dirty groups re-detect. Replay is byte-exact:
///   content-stable partitioning ([`partition_stable_by`]) pins each
///   sequence's group, and detection is deterministic under the
///   order-isomorphic separator renumbering that a rebuild performs, so
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
    config: &LtboConfig,
    entries: &[Arc<CacheEntry>],
    store: Option<&ArtifactStore>,
    mut dict: Option<&mut DictSession>,
) -> Result<LtboResult, OutlineError> {
    let mut stats = LtboStats::default();

    // --- §3.3.1: choose candidates; §3.3.2: map to symbols. ------------
    let mut sequences = Vec::new();
    let mut templates: Vec<Option<Cow<'_, SymbolTemplate>>> = vec![None; methods.len()];
    for (idx, m) in methods.iter().enumerate() {
        let cached = entries.get(idx).and_then(|entry| entry.template.as_ref());
        match symbolize(idx, m, cached, config.hot_methods.as_ref()) {
            None => stats.excluded_methods += 1,
            Some(Symbolized { hot, symbols, template }) => {
                if hot {
                    stats.hot_restricted_methods += 1;
                }
                stats.candidate_methods += 1;
                sequences.push(TaggedSequence { tag: idx, symbols });
                templates[idx] = Some(template);
            }
        }
    }
    // Every sequence's tag names a candidate, whose template was kept.
    let template_of =
        |tag: usize| templates[tag].as_deref().expect("a candidate method kept its template");

    // --- §3.3.3: detect repeats and select the outline plan. ------------
    let detect_start = Instant::now();
    let (groups, threads) = match config.mode {
        LtboMode::Global => (vec![sequences], 1),
        LtboMode::Parallel { groups, threads } => {
            let by_hash = |_, s: &TaggedSequence| template_of(s.tag).group_hash();
            (partition_stable_by(sequences, groups, by_hash), threads.max(1))
        }
    };
    stats.detection_groups = groups.len();

    // Probe the plan cache; a hit means the group's canonicalized text
    // (and the LTBO config) is unchanged since the plan was detected.
    // The key is composed Merkle-style from the members' precomputed
    // content keys — O(members) here, not O(text).
    let mut keys: Vec<CacheKey> = Vec::new();
    let mut cached: Vec<Option<Arc<GroupPlanEntry>>> = vec![None; groups.len()];
    if let Some(store) = store {
        keys = groups
            .iter()
            .map(|g| {
                let members: Vec<CacheKey> =
                    g.iter().map(|s| template_of(s.tag).content_key()).collect();
                group_plan_key_from(config, &members)
            })
            .collect();
        for (slot, &key) in cached.iter_mut().zip(&keys) {
            *slot = store.groups().get(key).map_err(OutlineError::Cache)?;
        }
    }

    let min_len = config.min_len;
    let groups_ref = &groups;
    let cached_ref = &cached;
    let (tagged_plans, _loads) = run_indexed(groups.len(), threads, |i| {
        if let Some(entry) = &cached_ref[i] {
            return (replay_group_plan(&groups_ref[i], entry.candidates.clone()), true, 0);
        }
        detect_fault::check(i);
        let group_start = Instant::now();
        let plan = detect_group(&groups_ref[i], min_len);
        let cost_us = u64::try_from(group_start.elapsed().as_micros()).unwrap_or(u64::MAX);
        (plan, false, cost_us)
    })
    .map_err(|p| OutlineError::Worker { group: p.index, message: p.message })?;
    let detect_time = detect_start.elapsed();

    if let Some(store) = store {
        for (i, (plan, reused, cost_us)) in tagged_plans.iter().enumerate() {
            if !reused {
                // Detection CPU rides into the plan lane as recompute
                // cost, so eviction pressure drops cheap plans first.
                store.groups().insert_with_cost(
                    keys[i],
                    GroupPlanEntry {
                        text_len: group_text_len(&groups[i]),
                        candidates: plan.candidates.clone(),
                    },
                    *cost_us,
                );
            }
        }
    }
    let plans: Vec<GroupPlan> = tagged_plans.into_iter().map(|(plan, _, _)| plan).collect();

    // --- Materialize outlined functions and per-method edits. -----------
    let mut outlined: Vec<Vec<Insn>> = Vec::new();
    let mut edits: Vec<Vec<Edit>> = (0..methods.len()).map(|_| Vec::new()).collect();
    for (group, plan) in plans.iter().enumerate() {
        let dict = &mut dict;
        let materialized = catch_unwind(AssertUnwindSafe(|| {
            for cand in &plan.candidates {
                let body: Vec<Insn> = cand
                    .symbols
                    .iter()
                    .map(|&s| {
                        calibro_isa::decode(u32::try_from(s).expect("candidate symbol is a word"))
                            .expect("candidate symbols decode")
                    })
                    .collect();
                // Dictionary arbitration: a byte-identical island body
                // serves every occurrence at call overhead only.
                let call = match (dict.as_deref_mut(), store) {
                    (Some(session), Some(store)) => session.route(&body, store).map(EditCall::Dict),
                    _ => None,
                };
                let call = match call {
                    Some(call) => call,
                    None => {
                        let id = outlined.len() as u32;
                        let mut body = body;
                        body.push(Insn::Br { rn: calibro_isa::Reg::LR });
                        stats.words_saved -= body.len() as i64;
                        outlined.push(body);
                        stats.outlined_functions += 1;
                        EditCall::Outlined(id)
                    }
                };
                for &pos in &cand.positions {
                    let (tag, sym_off) = plan.resolve(pos);
                    let word = template_of(tag).word_at(sym_off);
                    edits[tag].push(Edit { start: word, len: cand.len, call });
                    stats.occurrences_replaced += 1;
                    stats.words_saved += cand.len as i64 - 1;
                }
            }
        }));
        if let Err(payload) = materialized {
            return Err(OutlineError::Worker { group, message: panic_message(payload) });
        }
    }

    // --- §3.3.4 + §3.5: apply edits, patch PC-relative, fix records. ----
    for (idx, mut method_edits) in edits.into_iter().enumerate() {
        if method_edits.is_empty() {
            continue;
        }
        method_edits.sort_by_key(|e| e.start);
        let (patched, maps_updated) = apply_edits(&mut methods[idx], &method_edits);
        stats.pc_rel_patched += patched;
        stats.stack_maps_updated += maps_updated;
    }

    Ok(LtboResult { outlined, stats, detect_time })
}

/// Builds the §3.3.2 symbolization structure for one method: which
/// words are separator-forced (terminators, PC-relative sites, LR
/// users, SP writers, block leaders) and the encoded words of the rest.
/// Replaying the result through [`SymbolTemplate::replay_symbols`]
/// yields exactly the symbol sequence direct extraction would produce —
/// the cache stores the `hot_slow_paths_only = false` template so warm
/// builds skip this scan and the per-instruction encoding entirely.
///
/// # Panics
///
/// Panics if an instruction fails to encode (codegen only emits
/// encodable instructions, and cached entries re-validated this).
pub(crate) fn build_template(m: &CompiledMethod, hot_slow_paths_only: bool) -> SymbolTemplate {
    let code_len = m.insns.len();
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

    let mut slots = Vec::with_capacity(code_len + 8);
    for (word, insn) in m.insns.iter().enumerate() {
        // A basic-block leader must start a fresh sequence: branches land
        // here, so no repeat may span this boundary.
        if is_leader[word] {
            slots.push(TemplateSlot::Leader);
        }
        let excluded = is_terminator[word]
            || is_pc_rel_site[word]
            || insn.reads_lr()
            || insn.writes_lr()
            || writes_sp(insn)
            || (hot_slow_paths_only && !m.metadata.in_slow_path(word));
        let word = u32::try_from(word).expect("method shorter than 2^32 words");
        if excluded {
            slots.push(TemplateSlot::Fresh { word });
        } else {
            let encoded = insn.encode().expect("compiled instruction encodes");
            slots.push(TemplateSlot::Lit { encoded, word });
        }
    }
    SymbolTemplate::new(slots)
}

/// Returns `true` if executing the instruction changes `sp` — such
/// instructions cannot move into an outlined function (which must be
/// frame-transparent).
fn writes_sp(insn: &Insn) -> bool {
    match insn {
        Insn::AddImm { set_flags: false, rd, .. } | Insn::SubImm { set_flags: false, rd, .. } => {
            rd.is_reg31()
        }
        Insn::Stp { rn, mode, .. } | Insn::Ldp { rn, mode, .. } => {
            rn.is_reg31() && !matches!(mode, calibro_isa::PairMode::SignedOffset)
        }
        _ => false,
    }
}

/// Applies sorted, non-overlapping edits to one method: replaces each
/// outlined range with a `bl`, rebuilds the position map, patches
/// PC-relative instructions, and updates every §3.2/§3.5 record.
/// Returns `(pc_rel_patched, stack_maps_updated)`.
fn apply_edits(m: &mut CompiledMethod, edits: &[Edit]) -> (usize, usize) {
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

    m.insns = new_insns;
    m.relocs = new_relocs;
    m.metadata.pc_rel = new_pc_rel;
    m.metadata.terminators = new_terminators;
    m.metadata.slow_paths = new_slow;
    m.metadata.embedded_data = new_embedded;
    (patched, maps_updated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_codegen::{MethodMetadata, StackMapEntry};
    use calibro_dex::MethodId;
    use calibro_isa::Reg;

    fn method_with_stack_map(native_offset: u32) -> CompiledMethod {
        let mov = |rd: Reg, rm: Reg| Insn::OrrReg { wide: true, rd, rn: Reg::ZR, rm, shift: 0 };
        CompiledMethod {
            method: MethodId(7),
            insns: vec![
                mov(Reg::X1, Reg::X2),
                mov(Reg::X3, Reg::X4),
                mov(Reg::X5, Reg::X6),
                Insn::Ret { rn: Reg::LR },
            ],
            pool: vec![],
            relocs: vec![],
            metadata: MethodMetadata::default(),
            stack_maps: vec![StackMapEntry { native_offset, dex_pc: 0 }],
        }
    }

    #[test]
    #[should_panic(expected = "stack map at native offset 0")]
    fn apply_edits_rejects_stack_map_at_offset_zero() {
        // A stack map names the word after its call, so native offset 0 is
        // unconstructible from valid codegen. Before the guard this
        // underflowed `old_word - 1` and indexed `map[usize::MAX]`.
        let mut m = method_with_stack_map(0);
        apply_edits(&mut m, &[Edit { start: 0, len: 2, call: EditCall::Outlined(0) }]);
    }

    #[test]
    fn apply_edits_remaps_valid_stack_maps() {
        // The stack map names word 3 (offset 12); outlining words 0-1 into
        // a single `bl` shifts it back by one word, to offset 8.
        let mut m = method_with_stack_map(12);
        let (_patched, maps_updated) =
            apply_edits(&mut m, &[Edit { start: 0, len: 2, call: EditCall::Outlined(0) }]);
        assert_eq!(maps_updated, 1);
        assert_eq!(m.stack_maps[0].native_offset, 8);
        assert_eq!(m.insns.len(), 3);
        assert!(matches!(m.insns[0], Insn::Bl { .. }));
    }
}
