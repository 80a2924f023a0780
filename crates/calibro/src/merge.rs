//! The function-merge size pass — the second size backend next to LTBO.
//!
//! Android apps carry families of near-identical compiled methods
//! (generated accessors, clone-and-tweak handlers) whose bodies differ
//! only in a couple of immediate constants. Outlining cannot collapse
//! them completely: the differing constants break every repeat at the
//! `mov`-immediate sites. Function merging can: the pass
//!
//! 1. buckets candidate bodies by a *structural hash* that ignores
//!    `movz`/`movn` immediates (§ the shape of the code, not its
//!    constants);
//! 2. forms groups of bodies that are word-identical except at up to
//!    [`MergeConfig::max_params`] mov-immediate positions;
//! 3. lets the paper's Figure 2 benefit model arbitrate merge-vs-outline
//!    per group (a group whose repeats outlining would compress better
//!    is left for LTBO); and
//! 4. folds each surviving group into one shared *island* — the
//!    representative body with each differing position rewritten to read
//!    a parameter register — and replaces every member with a *thunk*
//!    that materializes its distinguishing constants into `x16`/`x17`
//!    (the AArch64 intra-procedure-call scratch registers) and
//!    tail-branches to the island with a plain `b`.
//!
//! Correctness is inherited: an island is the representative body
//! executed with the same machine state the original member entry had —
//! the thunk only writes `x16`/`x17`, which no candidate body touches —
//! so whatever made the member correct makes the island correct,
//! including its `ret`, which consumes the caller's untouched return
//! address.
//!
//! Like LTBO's group plans, merge decisions are cached: one
//! [`MergePlanEntry`] per shape bucket, keyed by the full
//! [`MergeConfig`] fingerprint plus every member body's content hash
//! ([`merge_plan_key_from`]), so a warm build replays the same merges
//! without re-running the pairwise grouping scan.

use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Instant;

use calibro_cache::{ArtifactStore, CacheKey, MergePlanEntry, MergePlanGroup, StableHasher};
use calibro_codegen::{CallTarget, CompiledMethod, MethodMetadata, Reloc};
use calibro_isa::{encode_words, Insn, Reg};
use calibro_oat::MergedBody;
use calibro_suffix::benefit;

use crate::driver::BuildError;
use crate::fingerprint::merge_plan_key_from;

/// Parameter registers a thunk may materialize constants into, in
/// parameter order. `x16`/`x17` are the AArch64 intra-procedure-call
/// scratch registers — a branch sequence (which a thunk is) may clobber
/// them, and candidate bodies that touch them are excluded.
pub(crate) const PARAM_REGS: [Reg; 2] = [Reg::X16, Reg::X17];

/// Function-merge configuration — the knobs of the second size backend.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeConfig {
    /// Minimum body length (instruction words) for a method to be a
    /// merge candidate. Tiny bodies cannot amortize a thunk.
    pub min_body_words: usize,
    /// Maximum differing mov-immediate positions per group. Each costs
    /// one parameter register; at most `PARAM_REGS` (two) are
    /// available, and larger values are clamped.
    pub max_params: usize,
    /// Let the Figure 2 benefit model arbitrate merge-vs-outline per
    /// group: merge only when the merge saving beats the estimated
    /// outlining saving over the same bodies. Merge-only builds (no
    /// LTBO pass downstream to pick up dropped groups) should disable
    /// this — [`BuildOptions::cto_merge`](crate::BuildOptions::cto_merge)
    /// does.
    pub arbitrate: bool,
}

impl Default for MergeConfig {
    fn default() -> MergeConfig {
        MergeConfig { min_body_words: 4, max_params: 2, arbitrate: true }
    }
}

/// Statistics reported by the merge pass.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct MergeStats {
    /// Methods eligible for merging.
    pub candidate_methods: usize,
    /// Methods excluded (indirect jumps, literal pools, short bodies,
    /// PC-dependent addressing, parameter-register use, hot filtering).
    pub excluded_methods: usize,
    /// Merge groups applied (one island each).
    pub merge_groups: usize,
    /// Methods replaced by thunks (members of applied groups).
    pub merged_methods: usize,
    /// Net instruction words saved: original member bodies minus
    /// (thunks + islands).
    pub words_saved: i64,
    /// Groups dropped because the benefit model preferred outlining.
    /// Counted only when a bucket's plan is freshly arbitrated — a
    /// replayed plan stores surviving groups alone, so warm builds
    /// report zero here (the cache counters say a replay happened).
    pub outline_preferred: usize,
}

/// The merge pass's output: islands for the linker plus statistics.
pub(crate) struct MergeOutcome {
    /// Island bodies, in `CallTarget::Merged` index order.
    pub islands: Vec<MergedBody>,
    /// Run statistics.
    pub stats: MergeStats,
}

/// The content hash of one merge candidate's body: its words, literal
/// pool and call relocations — exactly the inputs group formation
/// compares. The Merkle leaf of [`merge_plan_key_from`]: any change to
/// any member's body or call structure moves its bucket's plan key.
#[must_use]
pub fn merge_content_key(m: &CompiledMethod) -> CacheKey {
    let mut h = StableHasher::new();
    h.write_tag(0x6D); // 'm'
    h.write_usize(m.words.len());
    for &word in m.words.iter() {
        h.write_u32(word);
    }
    h.write_wire(&m.pool);
    h.write_wire(&m.relocs);
    h.finish()
}

/// A merge candidate: the method, and its instructions — borrowed from
/// it, or decoded from its words once for the whole pass.
struct Body<'a> {
    m: &'a CompiledMethod,
    insns: Cow<'a, [Insn]>,
}

/// The structural hash bodies are bucketed by: every instruction's
/// encoded word except `movz`/`movn`, which contribute only their
/// variant, width and destination — the immediate (the merge's
/// parameter) is dropped, so clones differing in constants collide —
/// then the call relocations. Compared for equality only, within one
/// pass: it decides which bodies meet in a bucket, never their order.
fn shape_hash(body: &Body<'_>) -> u64 {
    let (m, insns) = (body.m, &body.insns);
    let mut h = StableHasher::new();
    h.write_tag(0x53); // 'S'
    h.write_usize(insns.len());
    for (insn, &word) in insns.iter().zip(m.words.iter()) {
        match *insn {
            Insn::Movz { wide, rd, .. } => {
                h.write_tag(1);
                h.write_bool(wide);
                h.write_u32(u32::from(rd.index()));
            }
            Insn::Movn { wide, rd, .. } => {
                h.write_tag(2);
                h.write_bool(wide);
                h.write_u32(u32::from(rd.index()));
            }
            _ => {
                h.write_tag(0);
                h.write_u32(word);
            }
        }
    }
    h.write_wire(&m.relocs);
    let k = h.finish();
    k.hi ^ k.lo
}

/// Returns `true` if the instruction reads or writes a parameter
/// register. `dest_reg` and the read walk cover every operand but a
/// load pair's two destinations, which `dest_reg` cannot report.
fn touches_param_reg(insn: &Insn) -> bool {
    let p = |r: Reg| PARAM_REGS.contains(&r);
    let mut touches = insn.dest_reg().is_some_and(p);
    insn.for_each_read(|r| touches |= p(r));
    touches || matches!(*insn, Insn::Ldp { rt, rt2, .. } if p(rt) || p(rt2))
}

/// §3.3.1-style candidate choice for merging. A body qualifies only
/// when relocating it wholesale into an island cannot change its
/// behavior: no indirect jumps or native stubs, no literal pool or
/// embedded data, no PC-dependent address computation (`adr`/`adrp`/
/// `ldr` literal), no parameter-register use, and a trailing `ret` so
/// the island returns where the original method returned. Hot methods
/// are excluded — a thunk indirection on a hot entry is the exact cost
/// HfOpti exists to avoid. Returns the body of an eligible method; its
/// instructions are decoded only once the checks that need none passed.
fn eligible<'a>(
    m: &'a CompiledMethod,
    config: &MergeConfig,
    hot: Option<&HashSet<u32>>,
) -> Option<Body<'a>> {
    if m.metadata.has_indirect_jump || m.metadata.is_native_stub {
        return None;
    }
    if !m.pool.is_empty() || !m.metadata.embedded_data.is_empty() {
        return None;
    }
    if m.words.len() < config.min_body_words.max(1) {
        return None;
    }
    if hot.is_some_and(|set| set.contains(&m.method.0)) {
        return None;
    }
    let insns = m.instructions();
    if !matches!(insns.last(), Some(Insn::Ret { .. })) {
        return None;
    }
    let relocatable = insns.iter().all(|insn| {
        !matches!(insn, Insn::Adr { .. } | Insn::Adrp { .. } | Insn::LdrLit { .. })
            && !touches_param_reg(insn)
    });
    relocatable.then_some(Body { m, insns })
}

/// Returns `true` when two differing instructions at one position may
/// become a merge parameter: both fully-defining mov-immediates of the
/// same variant, width and destination (only the constant differs).
/// `movk` is never a parameter — it read-modify-writes its destination.
fn diff_compatible(a: &Insn, b: &Insn) -> bool {
    match (*a, *b) {
        (Insn::Movz { wide: wa, rd: ra, .. }, Insn::Movz { wide: wb, rd: rb, .. })
        | (Insn::Movn { wide: wa, rd: ra, .. }, Insn::Movn { wide: wb, rd: rb, .. }) => {
            wa == wb && ra == rb
        }
        _ => false,
    }
}

/// The merge saving of a group: `k` bodies of `w` words collapse to one
/// `w`-word island plus `k` thunks of `p + 1` words (`p` parameter movs
/// and the tail branch).
fn merge_saving(w: usize, k: usize, p: usize) -> i64 {
    (k as i64 - 1) * w as i64 - k as i64 * (p as i64 + 1)
}

/// Estimates what LTBO could save on the same `count` bodies instead:
/// the body splits into maximal runs at every merge parameter, call
/// site, terminator and the trailing `ret` (all separator-forced in
/// §3.3.2), and each profitable run contributes the Figure 2 saving.
fn outline_estimate(body: &CompiledMethod, diffs: &[u32], count: usize) -> i64 {
    let w = body.words.len();
    let mut cut = vec![false; w];
    if w > 0 {
        cut[w - 1] = true;
    }
    for &d in diffs {
        cut[d as usize] = true;
    }
    for r in body.relocs.iter() {
        if r.at < w {
            cut[r.at] = true;
        }
    }
    for &t in &body.metadata.terminators {
        if (t as usize) < w {
            cut[t as usize] = true;
        }
    }
    let mut total = 0i64;
    let mut run = 0usize;
    for &is_cut in &cut {
        if is_cut {
            if benefit::is_profitable(run, count) {
                total += benefit::saving(run, count);
            }
            run = 0;
        } else {
            run += 1;
        }
    }
    if benefit::is_profitable(run, count) {
        total += benefit::saving(run, count);
    }
    total
}

/// Computes one shape bucket's merge plan from scratch: greedy group
/// formation in member order, then benefit arbitration. Returns the
/// surviving groups (bucket-local indices) plus the count of groups the
/// benefit model handed to outlining instead.
fn plan_bucket(bodies: &[&Body<'_>], config: &MergeConfig) -> (Vec<MergePlanGroup>, usize) {
    let max_params = config.max_params.min(PARAM_REGS.len());
    let mut assigned = vec![false; bodies.len()];
    let mut groups = Vec::new();
    let mut outline_preferred = 0;
    for rep in 0..bodies.len() {
        if assigned[rep] {
            continue;
        }
        let rep_body = bodies[rep];
        let mut members = vec![rep as u32];
        let mut diffs: Vec<u32> = Vec::new();
        for cand in rep + 1..bodies.len() {
            if assigned[cand] {
                continue;
            }
            let cand_body = bodies[cand];
            if cand_body.insns.len() != rep_body.insns.len()
                || cand_body.m.relocs != rep_body.m.relocs
            {
                continue;
            }
            let mut cand_diffs: Vec<u32> = Vec::new();
            let mut compatible = true;
            for (i, (a, b)) in rep_body.insns.iter().zip(cand_body.insns.iter()).enumerate() {
                if a == b {
                    continue;
                }
                if diff_compatible(a, b) {
                    cand_diffs.push(i as u32);
                } else {
                    compatible = false;
                    break;
                }
            }
            if !compatible {
                continue;
            }
            let union = merge_sorted(&diffs, &cand_diffs);
            if union.len() > max_params {
                continue;
            }
            diffs = union;
            members.push(cand as u32);
        }
        if members.len() < 2 {
            continue;
        }
        let saving = merge_saving(rep_body.insns.len(), members.len(), diffs.len());
        if saving <= 0 {
            continue;
        }
        if config.arbitrate && outline_estimate(rep_body.m, &diffs, members.len()) >= saving {
            outline_preferred += 1;
            continue;
        }
        for &m in &members {
            assigned[m as usize] = true;
        }
        groups.push(MergePlanGroup { rep: rep as u32, members, diff_positions: diffs });
    }
    (groups, outline_preferred)
}

/// Union of two sorted, duplicate-free position lists.
fn merge_sorted(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                out.push(x);
                i += 1;
                j += 1;
            }
            (Some(&x), Some(&y)) if x < y => {
                out.push(x);
                i += 1;
            }
            (Some(_), Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => unreachable!(),
        }
    }
    out
}

/// Verifies a cached plan against the bucket's *current* bodies before
/// replaying it: every structural fact group formation would have
/// established is re-checked in O(members × words), so a replayed merge
/// is provably identical to a freshly computed one even under a content
/// hash collision. A `false` falls back to recomputation.
fn plan_is_applicable(bodies: &[&Body<'_>], entry: &MergePlanEntry) -> bool {
    if entry.member_count as usize != bodies.len() {
        return false;
    }
    let mut seen = vec![false; bodies.len()];
    for group in &entry.groups {
        if group.members.len() < 2 || !group.members.contains(&group.rep) {
            return false;
        }
        let Some(&rep_body) = bodies.get(group.rep as usize) else { return false };
        if group.diff_positions.iter().any(|&d| d as usize >= rep_body.insns.len()) {
            return false;
        }
        for &m in &group.members {
            let Some(&body) = bodies.get(m as usize) else { return false };
            if seen[m as usize] {
                return false;
            }
            seen[m as usize] = true;
            if body.insns.len() != rep_body.insns.len() || body.m.relocs != rep_body.m.relocs {
                return false;
            }
            for (i, (a, b)) in rep_body.insns.iter().zip(body.insns.iter()).enumerate() {
                let is_diff = group.diff_positions.contains(&(i as u32));
                if is_diff {
                    // Parameter positions must be mov-immediates even
                    // when this member happens to equal the rep there
                    // (`diff_compatible(a, a)` covers the equal case).
                    if !diff_compatible(a, b) {
                        return false;
                    }
                } else if a != b {
                    return false;
                }
            }
        }
    }
    true
}

/// Builds one group's island: the representative body's words with each
/// parameter position re-encoded to copy its value from the parameter
/// register (`orr rd, zr, xN` — a register `mov` of the original width).
fn make_island(rep: &Body<'_>, diffs: &[u32]) -> MergedBody {
    let mut words = rep.m.words.to_vec();
    for (j, &d) in diffs.iter().enumerate() {
        let (wide, rd) = match rep.insns[d as usize] {
            Insn::Movz { wide, rd, .. } | Insn::Movn { wide, rd, .. } => (wide, rd),
            ref other => unreachable!("merge parameter at non-mov instruction {other:?}"),
        };
        let param = Insn::OrrReg { wide, rd, rn: Reg::ZR, rm: PARAM_REGS[j], shift: 0 };
        words[d as usize] = param.encode().expect("a register mov encodes");
    }
    MergedBody { words, relocs: rep.m.relocs.to_vec() }
}

/// Builds one member's thunk: its distinguishing mov-immediates
/// retargeted to the parameter registers, then a plain `b` to the
/// island (patched by the linker through the `Merged` relocation).
fn make_thunk(member: &[Insn], diffs: &[u32], island: u32) -> (Vec<Insn>, Vec<Reloc>) {
    let mut insns = Vec::with_capacity(diffs.len() + 1);
    for (j, &d) in diffs.iter().enumerate() {
        let insn = match member[d as usize] {
            Insn::Movz { wide, imm16, hw, .. } => Insn::Movz { wide, rd: PARAM_REGS[j], imm16, hw },
            Insn::Movn { wide, imm16, hw, .. } => Insn::Movn { wide, rd: PARAM_REGS[j], imm16, hw },
            ref other => unreachable!("merge parameter at non-mov instruction {other:?}"),
        };
        insns.push(insn);
    }
    let at = insns.len();
    insns.push(Insn::B { offset: 0 });
    (insns, vec![Reloc { at, target: CallTarget::Merged(island) }])
}

/// Runs the function-merge pass over the compiled methods, mutating
/// merged members into thunks in place, and returning the islands for
/// the linker.
///
/// Deterministic by construction: candidates are scanned in method
/// order, buckets form in first-seen order, group formation is greedy
/// in member order, and the whole pass runs on the calling thread — its
/// cost is a single linear scan plus pairwise comparison inside (rare)
/// same-shape buckets, far below a compile fan-out's.
///
/// # Errors
///
/// [`BuildError::Cache`] when a persisted merge plan exists but is
/// corrupt or unreadable.
pub(crate) fn run_merge(
    methods: &mut [CompiledMethod],
    config: &MergeConfig,
    hot: Option<&HashSet<u32>>,
    store: Option<&ArtifactStore>,
) -> Result<MergeOutcome, BuildError> {
    let mut stats = MergeStats::default();

    // --- Choose candidates and bucket by shape, in method order. --------
    // Each candidate's instructions are decoded (when it has none) once,
    // here, and read by every step until its thunk is built.
    let mut bodies: Vec<Option<Body<'_>>> = Vec::with_capacity(methods.len());
    let mut buckets: Vec<Vec<usize>> = Vec::new();
    let mut by_shape: HashMap<u64, usize> = HashMap::new();
    for (idx, m) in methods.iter().enumerate() {
        let body = eligible(m, config, hot);
        match &body {
            None => stats.excluded_methods += 1,
            Some(body) => {
                stats.candidate_methods += 1;
                let slot = *by_shape.entry(shape_hash(body)).or_insert_with(|| {
                    buckets.push(Vec::new());
                    buckets.len() - 1
                });
                buckets[slot].push(idx);
            }
        }
        bodies.push(body);
    }
    let body_of = |idx: usize| bodies[idx].as_ref().expect("a bucket member is a candidate");

    // --- Plan each bucket: replay a cached plan or compute afresh. ------
    let mut planned: Vec<(Vec<usize>, Vec<MergePlanGroup>)> = Vec::new();
    for bucket in buckets {
        if bucket.len() < 2 {
            continue;
        }
        let members: Vec<&Body<'_>> = bucket.iter().map(|&i| body_of(i)).collect();
        let groups = match store {
            Some(store) => {
                let keys: Vec<CacheKey> = members.iter().map(|b| merge_content_key(b.m)).collect();
                let key = merge_plan_key_from(config, &keys);
                match store.merges().get(key).map_err(BuildError::Cache)? {
                    Some(entry) if plan_is_applicable(&members, &entry) => entry.groups.clone(),
                    hit => {
                        let plan_start = Instant::now();
                        let (groups, preferred) = plan_bucket(&members, config);
                        stats.outline_preferred += preferred;
                        // An inapplicable hit means the key is already
                        // taken (keep-first store) — don't re-insert.
                        if hit.is_none() {
                            let cost_us =
                                u64::try_from(plan_start.elapsed().as_micros()).unwrap_or(u64::MAX);
                            store.merges().insert_with_cost(
                                key,
                                MergePlanEntry {
                                    member_count: bucket.len() as u32,
                                    groups: groups.clone(),
                                },
                                cost_us,
                            );
                        }
                        groups
                    }
                }
            }
            None => {
                let (groups, preferred) = plan_bucket(&members, config);
                stats.outline_preferred += preferred;
                groups
            }
        };
        if !groups.is_empty() {
            planned.push((bucket, groups));
        }
    }

    // --- Build islands and thunks, then turn members into thunks. -------
    let mut islands = Vec::new();
    let mut thunks: Vec<(usize, Vec<Insn>, Vec<Reloc>)> = Vec::new();
    for (bucket, groups) in planned {
        for group in groups {
            let island_id = islands.len() as u32;
            let diffs = &group.diff_positions;
            let rep = body_of(bucket[group.rep as usize]);
            islands.push(make_island(rep, diffs));
            for &m in &group.members {
                let global = bucket[m as usize];
                let (insns, relocs) = make_thunk(&body_of(global).insns, diffs, island_id);
                thunks.push((global, insns, relocs));
                stats.merged_methods += 1;
            }
            stats.merge_groups += 1;
            stats.words_saved += merge_saving(rep.m.words.len(), group.members.len(), diffs.len());
        }
    }
    drop(bodies);
    for (global, insns, relocs) in thunks {
        let method = &mut methods[global];
        method.words = encode_words(&insns).expect("a thunk encodes").into();
        method.insns = insns.into();
        method.relocs = relocs.into();
        // Mark the thunk unoutlinable — this flag is what keeps the
        // outline pass off it: outlining its movs behind a `bl` would
        // clobber the return address the island's `ret` consumes.
        method.metadata =
            Arc::new(MethodMetadata { has_indirect_jump: true, ..MethodMetadata::default() });
        method.stack_maps = Arc::default();
    }
    Ok(MergeOutcome { islands, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_dex::MethodId;
    use calibro_isa::decode;

    fn mov_z(rd: Reg, imm16: u16) -> Insn {
        Insn::Movz { wide: true, rd, imm16, hw: 0 }
    }

    fn add(rd: Reg, rn: Reg, rm: Reg) -> Insn {
        Insn::AddReg { wide: true, set_flags: false, rd, rn, rm, shift: 0 }
    }

    /// Method `id` compiled to `insns`, with their words.
    fn compiled(id: u32, insns: Vec<Insn>) -> CompiledMethod {
        CompiledMethod {
            method: MethodId(id),
            words: encode_words(&insns).expect("the body encodes").into(),
            insns: insns.into(),
            pool: Arc::default(),
            relocs: Arc::default(),
            metadata: Arc::default(),
            stack_maps: Arc::default(),
        }
    }

    /// A straight-line candidate body: load a constant, combine, return.
    fn clone_insns(imm: u16) -> Vec<Insn> {
        vec![
            mov_z(Reg::X1, imm),
            add(Reg::X0, Reg::X0, Reg::X1),
            add(Reg::X0, Reg::X0, Reg::X0),
            add(Reg::X2, Reg::X0, Reg::X1),
            add(Reg::X0, Reg::X2, Reg::X0),
            Insn::Ret { rn: Reg::LR },
        ]
    }

    fn clone_body(id: u32, imm: u16) -> CompiledMethod {
        compiled(id, clone_insns(imm))
    }

    #[test]
    fn clones_differing_in_one_constant_merge() {
        let mut methods = vec![clone_body(0, 10), clone_body(1, 11), clone_body(2, 12)];
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let outcome = run_merge(&mut methods, &config, None, None).unwrap();
        assert_eq!(outcome.islands.len(), 1);
        assert_eq!(outcome.stats.merge_groups, 1);
        assert_eq!(outcome.stats.merged_methods, 3);
        // k=3 bodies of w=6 words, p=1 parameter: 2*6 - 3*2 = 6 saved.
        assert_eq!(outcome.stats.words_saved, 6);
        // Every member became a two-word thunk: mov x16, #imm; b island.
        for (i, m) in methods.iter().enumerate() {
            assert_eq!(m.insns.len(), 2, "member {i}");
            assert!(matches!(m.insns[0], Insn::Movz { rd: Reg::X16, .. }));
            assert!(matches!(m.insns[1], Insn::B { .. }));
            assert_eq!(m.words[..], encode_words(&m.insns).unwrap()[..], "member {i}");
            assert_eq!(m.relocs[..], [Reloc { at: 1, target: CallTarget::Merged(0) }]);
            assert!(m.metadata.has_indirect_jump);
        }
        // The island reads the parameter register where the constant was.
        // Everywhere else it is the representative's code.
        let island = &outcome.islands[0];
        let param = decode(island.words[0]);
        assert!(matches!(param, Ok(Insn::OrrReg { rd: Reg::X1, rm: Reg::X16, .. })));
        assert_eq!(island.words[1..], encode_words(&clone_insns(10)).unwrap()[1..]);
    }

    #[test]
    fn structurally_different_bodies_do_not_merge() {
        let mut insns = clone_insns(10);
        insns[3] = add(Reg::X3, Reg::X0, Reg::X1); // different dest
        let mut methods = vec![clone_body(0, 10), compiled(1, insns)];
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let outcome = run_merge(&mut methods, &config, None, None).unwrap();
        assert!(outcome.islands.is_empty());
        assert_eq!(outcome.stats.merged_methods, 0);
    }

    #[test]
    fn param_register_use_excludes_a_body() {
        let mut insns = clone_insns(10);
        insns[1] = add(Reg::X0, Reg::X0, Reg::X16);
        let mut methods = vec![compiled(0, insns), clone_body(1, 11), clone_body(2, 12)];
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let outcome = run_merge(&mut methods, &config, None, None).unwrap();
        assert_eq!(outcome.stats.excluded_methods, 1);
        // The two clean clones still merge.
        assert_eq!(outcome.stats.merged_methods, 2);
        assert!(matches!(methods[0].insns[1], Insn::AddReg { .. }), "tainted body untouched");
    }

    #[test]
    fn hot_methods_are_excluded() {
        let mut methods = vec![clone_body(0, 10), clone_body(1, 11)];
        let hot: HashSet<u32> = [0].into_iter().collect();
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let outcome = run_merge(&mut methods, &config, Some(&hot), None).unwrap();
        assert_eq!(outcome.stats.excluded_methods, 1);
        assert_eq!(outcome.stats.merged_methods, 0, "one survivor cannot form a group");
    }

    #[test]
    fn plans_replay_from_the_store_identically() {
        let store = ArtifactStore::new(calibro_cache::CacheConfig::default());
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let mut cold = vec![clone_body(0, 10), clone_body(1, 11), clone_body(2, 12)];
        let cold_out = run_merge(&mut cold, &config, None, Some(&store)).unwrap();
        assert_eq!(store.stats().merge_misses, 1);
        assert_eq!(store.stats().merge_stores, 1);
        let mut warm = vec![clone_body(0, 10), clone_body(1, 11), clone_body(2, 12)];
        let warm_out = run_merge(&mut warm, &config, None, Some(&store)).unwrap();
        assert_eq!(store.stats().merge_hits, 1);
        assert_eq!(cold.len(), warm.len());
        for (c, w) in cold.iter().zip(&warm) {
            assert_eq!((&c.insns, &c.words), (&w.insns, &w.words));
            assert_eq!(c.relocs, w.relocs);
        }
        for (c, w) in cold_out.islands.iter().zip(&warm_out.islands) {
            assert_eq!(c.words, w.words);
            assert_eq!(c.relocs, w.relocs);
        }
        assert_eq!(cold_out.stats.merge_groups, warm_out.stats.merge_groups);
        assert_eq!(cold_out.stats.words_saved, warm_out.stats.words_saved);
    }

    #[test]
    fn max_params_bounds_group_formation() {
        // Three constants differ — more than the two parameter registers.
        let triple = |id: u32, a: u16, b: u16, c: u16| {
            compiled(
                id,
                vec![
                    mov_z(Reg::X1, a),
                    mov_z(Reg::X2, b),
                    mov_z(Reg::X3, c),
                    add(Reg::X0, Reg::X1, Reg::X2),
                    add(Reg::X0, Reg::X0, Reg::X3),
                    Insn::Ret { rn: Reg::LR },
                ],
            )
        };
        let mut methods = vec![triple(0, 1, 2, 3), triple(1, 4, 5, 6)];
        let config = MergeConfig { arbitrate: false, ..MergeConfig::default() };
        let outcome = run_merge(&mut methods, &config, None, None).unwrap();
        assert_eq!(outcome.stats.merged_methods, 0);
        // With only one constant differing, the same shape merges.
        let mut methods = vec![triple(0, 1, 2, 3), triple(1, 1, 2, 6)];
        let outcome = run_merge(&mut methods, &config, None, None).unwrap();
        assert_eq!(outcome.stats.merged_methods, 2);
        assert_eq!(outcome.islands[0].words.len(), 6);
    }
}
