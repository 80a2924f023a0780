//! The delta-debugging shrinker: given a program that makes the oracle
//! report a divergence, cut it down — trace entries, then whole methods
//! (stubbed, then compacted away), then basic-block ranges, then single
//! instructions — re-verifying the divergence after every cut, until no
//! cut survives. Every candidate is gated by [`calibro_dex::verify`], so
//! the minimized program is always a well-formed input.

use calibro_dex::{DexFile, DexInsn, Method, MethodId, VReg};
use calibro_workloads::TraceCall;

use crate::matrix::Variant;
use crate::mutate::Mutation;
use crate::oracle::{check_variant, run_baseline, Divergence};
use crate::program::Program;

/// Shrinks `program` while `fails` keeps returning `true`.
///
/// `fails` must hold for the input program; the returned program is a
/// local minimum — removing any single trace entry, method, block range
/// or instruction either breaks dex verification or makes `fails`
/// return `false`.
pub fn shrink(program: &Program, fails: &dyn Fn(&Program) -> bool) -> Program {
    shrink_rooted(program, fails, &[])
}

/// Like [`shrink`], but `root_names` pins methods (by name) that the
/// compaction stage must keep even when no trace call reaches them —
/// e.g. the target of an injected mutation, which is load-bearing for
/// the failure without being executed.
pub fn shrink_rooted(
    program: &Program,
    fails: &dyn Fn(&Program) -> bool,
    root_names: &[String],
) -> Program {
    assert!(fails(program), "shrink requires a failing input");
    let mut current = program.clone();
    current.generator = "shrunk".to_owned();
    loop {
        let mut progressed = false;
        progressed |= shrink_trace(&mut current, fails);
        progressed |= stub_methods(&mut current, fails);
        progressed |= compact(&mut current, fails, root_names);
        progressed |= remove_ranges(&mut current, fails);
        progressed |= remove_single_insns(&mut current, fails);
        if !progressed {
            return current;
        }
    }
}

/// Shrinks the first divergence of `variant` on `program` and returns
/// the minimized program with the divergence it still exhibits.
///
/// With an injected `mutation`, the mutated method is tracked by *name*
/// across shrinking (its [`MethodId`] changes as compaction renumbers),
/// and candidates that would remove it are rejected — the mutation must
/// stay applicable for the failure to persist.
///
/// # Panics
///
/// Panics if `program` does not diverge under `variant` (with the
/// optional injected `mutation`) in the first place.
#[must_use]
pub fn shrink_divergence(
    program: &Program,
    variant: &Variant,
    mutation: Option<&Mutation>,
) -> (Program, Divergence) {
    let Some(mutation) = mutation else {
        let fails = |p: &Program| divergence_of(p, variant, None).is_some();
        let minimized = shrink(program, &fails);
        let divergence =
            divergence_of(&minimized, variant, None).expect("shrink preserves the divergence");
        return (minimized, divergence);
    };
    let name = program.dex.method(mutation.method).name.clone();
    let fails = |p: &Program| {
        resolve_mutation(p, &name, mutation)
            .is_some_and(|m| divergence_of(p, variant, Some(&m)).is_some())
    };
    let minimized = shrink_rooted(program, &fails, std::slice::from_ref(&name));
    let resolved =
        resolve_mutation(&minimized, &name, mutation).expect("shrink keeps the mutated method");
    let divergence = divergence_of(&minimized, variant, Some(&resolved))
        .expect("shrink preserves the divergence");
    (minimized, divergence)
}

/// Re-targets `proto` at the method named `name` in `p`, if it still
/// exists (compaction renumbers ids; names are stable).
fn resolve_mutation(p: &Program, name: &str, proto: &Mutation) -> Option<Mutation> {
    let idx = p.dex.methods().iter().position(|m| m.name == name)?;
    Some(Mutation { method: MethodId(idx as u32), word: proto.word, bit: proto.bit })
}

/// The divergence `program` exhibits under `variant`, if any. A failure
/// of the baseline itself (build error or trap) counts: it flows through
/// the same reporting channel.
#[must_use]
pub fn divergence_of(
    program: &Program,
    variant: &Variant,
    mutation: Option<&Mutation>,
) -> Option<Divergence> {
    match run_baseline(program) {
        Err(d) => Some(d),
        Ok(baseline) => check_variant(program, &baseline, variant, mutation).err(),
    }
}

/// Rebuilds a program with replaced method bodies / trace, gated by dex
/// verification. Method ids must be table positions (order preserved).
fn rebuild(old: &Program, methods: Vec<Method>, trace: Vec<TraceCall>) -> Option<Program> {
    let mut dex = DexFile::new();
    for class in old.dex.classes() {
        dex.add_class(class.name.clone(), class.num_fields);
    }
    dex.reserve_statics(old.dex.num_statics());
    for method in methods {
        dex.add_method(method);
    }
    calibro_dex::verify(&dex).ok()?;
    let mut candidate = old.clone();
    candidate.dex = dex;
    candidate.trace = trace;
    Some(candidate)
}

/// Tries a candidate; on success installs it into `current`.
fn try_candidate(
    current: &mut Program,
    methods: Vec<Method>,
    trace: Vec<TraceCall>,
    fails: &dyn Fn(&Program) -> bool,
) -> bool {
    match rebuild(current, methods, trace) {
        Some(candidate) if fails(&candidate) => {
            *current = candidate;
            true
        }
        _ => false,
    }
}

/// Stage 1: drop trace entries, halves first, then singles (ddmin-lite).
fn shrink_trace(current: &mut Program, fails: &dyn Fn(&Program) -> bool) -> bool {
    let mut progressed = false;
    let mut chunk = (current.trace.len() / 2).max(1);
    loop {
        let mut start = 0;
        while start < current.trace.len() {
            let end = (start + chunk).min(current.trace.len());
            let mut trace = current.trace.clone();
            trace.drain(start..end);
            if try_candidate(current, owned_methods(current), trace, fails) {
                progressed = true;
                // Retry the same window — it now holds new entries.
            } else {
                start = end;
            }
        }
        if chunk == 1 {
            return progressed;
        }
        chunk = (chunk / 2).max(1);
    }
}

/// The two-instruction body every removable method is reduced to before
/// compaction deletes it outright.
fn stub_body() -> Vec<DexInsn> {
    vec![DexInsn::Const { dst: VReg(0), value: 0 }, DexInsn::Return { src: VReg(0) }]
}

/// Stage 2: replace whole method bodies with a trivial stub (ids stay
/// stable, so callers and the trace keep working).
fn stub_methods(current: &mut Program, fails: &dyn Fn(&Program) -> bool) -> bool {
    let mut progressed = false;
    for k in (0..current.dex.methods().len()).rev() {
        let m = &current.dex.methods()[k];
        // Only stub bodies strictly larger than the stub: every stage
        // must monotonically shrink the program, or stubbing would
        // ping-pong with instruction removal forever.
        if m.is_native || m.num_regs == 0 || m.insns.len() <= stub_body().len() {
            continue;
        }
        let mut methods = owned_methods(current);
        methods[k].insns = stub_body();
        if try_candidate(current, methods, current.trace.clone(), fails) {
            progressed = true;
        }
    }
    progressed
}

/// Stage 3: remove whole basic-block ranges. Leaders are instruction 0,
/// every branch target, and every instruction after a block end.
fn remove_ranges(current: &mut Program, fails: &dyn Fn(&Program) -> bool) -> bool {
    let mut progressed = false;
    for k in 0..current.dex.methods().len() {
        loop {
            let insns = &current.dex.methods()[k].insns;
            let body_len = insns.len();
            if body_len <= 2 {
                break;
            }
            let mut leaders = vec![0usize];
            for (i, insn) in insns.iter().enumerate() {
                for t in insn.branch_targets() {
                    leaders.push(t);
                }
                if insn.is_block_end() && i + 1 < body_len {
                    leaders.push(i + 1);
                }
            }
            leaders.sort_unstable();
            leaders.dedup();
            leaders.push(body_len);
            let mut cut = false;
            for w in leaders.windows(2) {
                let (start, end) = (w[0], w[1]);
                if end - start >= body_len {
                    continue; // never empty the body here; stubbing does that
                }
                if try_remove_range(current, k, start, end, fails) {
                    progressed = true;
                    cut = true;
                    break; // leaders are stale; recompute
                }
            }
            if !cut {
                break;
            }
        }
    }
    progressed
}

/// Stage 4: remove single instructions, scanning backwards.
fn remove_single_insns(current: &mut Program, fails: &dyn Fn(&Program) -> bool) -> bool {
    let mut progressed = false;
    for k in 0..current.dex.methods().len() {
        let mut i = current.dex.methods()[k].insns.len();
        while i > 0 {
            i -= 1;
            if current.dex.methods()[k].insns.len() <= 1 {
                break;
            }
            if try_remove_range(current, k, i, i + 1, fails) {
                progressed = true;
            }
        }
    }
    progressed
}

/// Builds the candidate with `insns[start..end]` of method `k` removed
/// and all branch targets remapped, and tries it.
fn try_remove_range(
    current: &mut Program,
    k: usize,
    start: usize,
    end: usize,
    fails: &dyn Fn(&Program) -> bool,
) -> bool {
    let mut methods = owned_methods(current);
    let removed = end - start;
    let insns = &mut methods[k].insns;
    insns.drain(start..end);
    for insn in insns.iter_mut() {
        remap_targets(insn, |t| {
            if t >= end {
                t - removed
            } else if t >= start {
                start
            } else {
                t
            }
        });
    }
    try_candidate(current, methods, current.trace.clone(), fails)
}

/// Copies of `p`'s methods, for a candidate to edit.
fn owned_methods(p: &Program) -> Vec<Method> {
    p.dex.methods().iter().map(|m| (**m).clone()).collect()
}

/// Applies `f` to every branch target of `insn` in place.
fn remap_targets(insn: &mut DexInsn, f: impl Fn(usize) -> usize) {
    match insn {
        DexInsn::If { target, .. } | DexInsn::IfZ { target, .. } | DexInsn::Goto { target } => {
            *target = f(*target);
        }
        DexInsn::Switch { targets, .. } => {
            for t in targets {
                *t = f(*t);
            }
        }
        _ => {}
    }
}

/// Stage 5: delete methods no longer reachable from the trace (or from a
/// pinned root), remapping every `MethodId` (invoke operands, trace
/// entries, registered natives). One all-or-nothing candidate per pass.
fn compact(current: &mut Program, fails: &dyn Fn(&Program) -> bool, root_names: &[String]) -> bool {
    let methods = current.dex.methods();
    let mut keep = vec![false; methods.len()];
    let mut stack: Vec<usize> = current.trace.iter().map(|c| c.method.index()).collect();
    stack.extend(
        methods.iter().enumerate().filter(|(_, m)| root_names.contains(&m.name)).map(|(k, _)| k),
    );
    while let Some(k) = stack.pop() {
        if keep[k] {
            continue;
        }
        keep[k] = true;
        for insn in &methods[k].insns {
            if let DexInsn::Invoke { method, .. } | DexInsn::InvokeNative { method, .. } = insn {
                stack.push(method.index());
            }
        }
    }
    if keep.iter().all(|&k| k) {
        return false;
    }

    let mut remap = vec![MethodId(0); methods.len()];
    let mut next = 0u32;
    for (k, kept) in keep.iter().enumerate() {
        if *kept {
            remap[k] = MethodId(next);
            next += 1;
        }
    }
    let mut new_methods = Vec::new();
    for (k, m) in methods.iter().enumerate() {
        if !keep[k] {
            continue;
        }
        let mut m = (**m).clone();
        m.id = remap[k];
        for insn in &mut m.insns {
            if let DexInsn::Invoke { method, .. } | DexInsn::InvokeNative { method, .. } = insn {
                *method = remap[method.index()];
            }
        }
        new_methods.push(m);
    }
    let new_trace: Vec<TraceCall> =
        current.trace.iter().map(|c| TraceCall { method: remap[c.method.index()], ..*c }).collect();
    let Some(mut candidate) = rebuild(current, new_methods, new_trace) else {
        return false;
    };
    candidate.env.natives = current
        .env
        .natives
        .iter()
        .filter(|(id, _)| keep[**id as usize])
        .map(|(id, f)| (remap[*id as usize].0, *f))
        .collect();
    if fails(&candidate) {
        *current = candidate;
        true
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_workloads::generators::{ProgramGen, StackCheckGen};

    #[test]
    fn shrink_reaches_a_small_program_for_a_trace_predicate() {
        // Predicate: the trace still calls the deepest method. The
        // shrinker should strip everything that method doesn't need.
        let app = StackCheckGen.generate(5);
        let deepest = app.dex.methods().len() - 1;
        let program = Program::from_app("stack-check", 5, app);
        let target = calibro_dex::MethodId(deepest as u32);
        let fails = move |p: &Program| {
            p.trace.iter().any(|c| p.dex.method(c.method).name == format!("deep{deepest}"))
                && p.trace.len() <= 50
        };
        assert!(program.trace.iter().any(|c| c.method == target));
        let small = shrink(&program, &fails);
        assert!(small.trace.len() <= 2, "trace shrinks to the essential call");
        calibro_dex::verify(&small.dex).expect("shrunk program verifies");
    }

    #[test]
    fn compaction_drops_untraced_methods() {
        let program = Program::from_seed("art-call", 4).unwrap();
        // Keep only the first trace call; everything unreachable from it
        // should disappear under a trivially-true predicate on structure.
        let mut p = program.clone();
        p.trace.truncate(1);
        let fails = |q: &Program| !q.trace.is_empty();
        let small = shrink(&p, &fails);
        assert!(small.dex.methods().len() <= program.dex.methods().len());
        calibro_dex::verify(&small.dex).expect("compacted program verifies");
        for c in &small.trace {
            assert!(c.method.index() < small.dex.methods().len());
        }
    }
}
