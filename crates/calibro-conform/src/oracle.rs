//! The differential oracle: build a program under the baseline and a
//! variant configuration, replay the same trace in [`calibro_runtime`]
//! on both, and demand identical architectural observables plus
//! structural invariants on the linked OAT.

use std::sync::Arc;

use calibro::{build, BuildSession, DictRegistry, MIN_ISLAND_WORDS};
use calibro_oat::{validate_stack_maps, validate_structure, DictImage, OatFile};
use calibro_runtime::{ExecOutcome, Runtime, StateSnapshot};

use crate::matrix::Variant;
use crate::mutate::Mutation;
use crate::program::Program;

/// Step budget per trace call — far above anything the generators emit,
/// so hitting it means divergent control flow (e.g. a branch patched to
/// loop), which the oracle reports as a trap.
pub const MAX_STEPS: u64 = 2_000_000;

/// Cycle-sanity slack: a variant may run up to `CYCLE_FACTOR`× the
/// baseline cycles (plus [`CYCLE_SLACK`]) before the oracle calls it a
/// divergence. Outlining legitimately adds call/branch overhead, but a
/// blow-up beyond this bound means the variant executes different logic.
pub const CYCLE_FACTOR: u64 = 32;
/// Constant slack added on top of [`CYCLE_FACTOR`].
pub const CYCLE_SLACK: u64 = 100_000;

/// One observed difference between the baseline and a variant build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Divergence {
    /// The variant build failed outright.
    BuildFailed {
        /// Variant label.
        label: String,
        /// The build error.
        error: String,
    },
    /// The linked OAT violated a structural invariant.
    Structure {
        /// Variant label.
        label: String,
        /// The structural error.
        error: String,
    },
    /// A stack map failed validation.
    StackMaps {
        /// Variant label.
        label: String,
        /// The stack-map error.
        error: String,
    },
    /// The variant trapped at the simulator level (a compiler bug, not a
    /// Java exception).
    Trap {
        /// Variant label.
        label: String,
        /// Index into the trace.
        call_index: usize,
        /// The trap, via `Debug`.
        trap: String,
    },
    /// A call returned/threw differently than the baseline.
    OutcomeMismatch {
        /// Variant label.
        label: String,
        /// Index into the trace.
        call_index: usize,
        /// What the baseline observed.
        baseline: ExecOutcome,
        /// What the variant observed.
        variant: ExecOutcome,
    },
    /// The final observable state differs (statics / heap / allocations).
    StateMismatch {
        /// Variant label.
        label: String,
        /// Baseline snapshot, via `Debug`.
        baseline: String,
        /// Variant snapshot, via `Debug`.
        variant: String,
    },
    /// The variant's cycle count is outside the sanity envelope.
    CycleImbalance {
        /// Variant label.
        label: String,
        /// Baseline total cycles over the trace.
        baseline: u64,
        /// Variant total cycles over the trace.
        variant: u64,
    },
    /// A warm rebuild through the populated artifact cache did not
    /// reproduce the cold build byte for byte (or failed to replay every
    /// method from the cache).
    WarmMismatch {
        /// Variant label.
        label: String,
        /// What differed.
        detail: String,
    },
    /// The shared-dictionary contract broke: an unresolvable or
    /// mis-sized island link, a rider that failed to hit published
    /// bodies, or dictionary routing that grew the text.
    Dict {
        /// Variant label.
        label: String,
        /// What broke.
        detail: String,
    },
}

impl Divergence {
    /// The variant label the divergence was observed under.
    #[must_use]
    pub fn label(&self) -> &str {
        match self {
            Divergence::BuildFailed { label, .. }
            | Divergence::Structure { label, .. }
            | Divergence::StackMaps { label, .. }
            | Divergence::Trap { label, .. }
            | Divergence::OutcomeMismatch { label, .. }
            | Divergence::StateMismatch { label, .. }
            | Divergence::CycleImbalance { label, .. }
            | Divergence::WarmMismatch { label, .. }
            | Divergence::Dict { label, .. } => label,
        }
    }
}

impl core::fmt::Display for Divergence {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Divergence::BuildFailed { label, error } => {
                write!(f, "[{label}] build failed: {error}")
            }
            Divergence::Structure { label, error } => {
                write!(f, "[{label}] structural invariant violated: {error}")
            }
            Divergence::StackMaps { label, error } => {
                write!(f, "[{label}] stack-map validation failed: {error}")
            }
            Divergence::Trap { label, call_index, trap } => {
                write!(f, "[{label}] call {call_index} trapped: {trap}")
            }
            Divergence::OutcomeMismatch { label, call_index, baseline, variant } => {
                write!(f, "[{label}] call {call_index}: baseline {baseline:?}, variant {variant:?}")
            }
            Divergence::StateMismatch { label, baseline, variant } => {
                write!(f, "[{label}] final state differs: baseline {baseline}, variant {variant}")
            }
            Divergence::CycleImbalance { label, baseline, variant } => {
                write!(f, "[{label}] cycle imbalance: baseline {baseline}, variant {variant}")
            }
            Divergence::WarmMismatch { label, detail } => {
                write!(f, "[{label}] warm rebuild mismatch: {detail}")
            }
            Divergence::Dict { label, detail } => {
                write!(f, "[{label}] dictionary contract broken: {detail}")
            }
        }
    }
}

/// The baseline's observations over the full trace, computed once per
/// program and compared against every variant.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// Per-call outcomes, in trace order.
    pub outcomes: Vec<ExecOutcome>,
    /// Observable state after the whole trace.
    pub snapshot: StateSnapshot,
    /// Total cycles over the trace.
    pub cycles: u64,
}

/// Builds and executes the baseline configuration.
///
/// # Errors
///
/// Returns a [`Divergence`] labelled `baseline` if the baseline itself
/// fails to build or traps — which indicates a generator or baseline
/// compiler bug rather than an outlining bug, but is reported through
/// the same channel so the driver surfaces it instead of crashing.
pub fn run_baseline(program: &Program) -> Result<BaselineRun, Divergence> {
    let label = "baseline".to_owned();
    let output = build(&program.dex, &crate::matrix::baseline_options())
        .map_err(|e| Divergence::BuildFailed { label: label.clone(), error: e.to_string() })?;
    let mut runtime = Runtime::new(&output.oat, &program.env);
    let mut outcomes = Vec::with_capacity(program.trace.len());
    for (call_index, call) in program.trace.iter().enumerate() {
        let inv = runtime.call(call.method, &call.args, MAX_STEPS).map_err(|t| {
            Divergence::Trap { label: label.clone(), call_index, trap: format!("{t:?}") }
        })?;
        outcomes.push(inv.outcome);
    }
    Ok(BaselineRun { outcomes, snapshot: runtime.snapshot(), cycles: runtime.total_cycles() })
}

/// Validates a linked OAT and replays the trace against the baseline's
/// observations.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_oat(
    program: &Program,
    baseline: &BaselineRun,
    label: &str,
    oat: &OatFile,
) -> Result<(), Divergence> {
    check_oat_with_dict(program, baseline, label, oat, None)
}

/// Like [`check_oat`], but maps a shared dictionary island alongside
/// the OAT before replaying the trace — the execution environment a
/// dictionary-routed build actually runs in.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_oat_with_dict(
    program: &Program,
    baseline: &BaselineRun,
    label: &str,
    oat: &OatFile,
    island: Option<&DictImage>,
) -> Result<(), Divergence> {
    validate_structure(oat)
        .map_err(|e| Divergence::Structure { label: label.to_owned(), error: e.to_string() })?;
    validate_stack_maps(oat)
        .map_err(|e| Divergence::StackMaps { label: label.to_owned(), error: e.to_string() })?;

    let mut runtime = Runtime::new_with_dict(oat, &program.env, island);
    for (call_index, call) in program.trace.iter().enumerate() {
        let inv = runtime.call(call.method, &call.args, MAX_STEPS).map_err(|t| {
            Divergence::Trap { label: label.to_owned(), call_index, trap: format!("{t:?}") }
        })?;
        if inv.outcome != baseline.outcomes[call_index] {
            return Err(Divergence::OutcomeMismatch {
                label: label.to_owned(),
                call_index,
                baseline: baseline.outcomes[call_index],
                variant: inv.outcome,
            });
        }
    }
    let snapshot = runtime.snapshot();
    if snapshot != baseline.snapshot {
        return Err(Divergence::StateMismatch {
            label: label.to_owned(),
            baseline: format!("{:?}", baseline.snapshot),
            variant: format!("{snapshot:?}"),
        });
    }
    let cycles = runtime.total_cycles();
    let bound = |reference: u64| reference.saturating_mul(CYCLE_FACTOR) + CYCLE_SLACK;
    if cycles > bound(baseline.cycles) || baseline.cycles > bound(cycles) {
        return Err(Divergence::CycleImbalance {
            label: label.to_owned(),
            baseline: baseline.cycles,
            variant: cycles,
        });
    }
    Ok(())
}

/// Builds one variant (applying `mutation` post-link if given) and
/// checks it against the baseline.
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_variant(
    program: &Program,
    baseline: &BaselineRun,
    variant: &Variant,
    mutation: Option<&Mutation>,
) -> Result<(), Divergence> {
    let output = build(&program.dex, &variant.options).map_err(|e| Divergence::BuildFailed {
        label: variant.label.clone(),
        error: e.to_string(),
    })?;
    let mut oat = output.oat;
    if let Some(m) = mutation {
        // An inapplicable mutation (method gone or too short after a
        // shrink cut) leaves the build clean; the caller sees "no
        // divergence" and rejects the cut.
        m.apply(&mut oat);
    }
    check_oat(program, baseline, &variant.label, &oat)
}

/// Builds one variant twice through the same [`BuildSession`] — cold,
/// then warm through the now-populated artifact cache — and checks that
/// the warm rebuild (a) replayed every method from the cache, (b)
/// reproduced the cold OAT byte for byte, and (c) still passes the
/// differential oracle against the baseline.
///
/// # Errors
///
/// Returns a [`Divergence::WarmMismatch`] if the warm rebuild diverges
/// from the cold one, or the first oracle divergence otherwise.
pub fn check_variant_warm(
    program: &Program,
    baseline: &BaselineRun,
    variant: &Variant,
) -> Result<(), Divergence> {
    let session = calibro::BuildSession::new();
    let cold = session.build(&program.dex, &variant.options).map_err(|e| {
        Divergence::BuildFailed { label: variant.label.clone(), error: e.to_string() }
    })?;
    let warm =
        session.build(&program.dex, &variant.options).map_err(|e| Divergence::WarmMismatch {
            label: variant.label.clone(),
            detail: format!("warm rebuild failed: {e}"),
        })?;
    if warm.stats.methods_from_cache != warm.stats.methods {
        return Err(Divergence::WarmMismatch {
            label: variant.label.clone(),
            detail: format!(
                "only {} of {} methods replayed from cache",
                warm.stats.methods_from_cache, warm.stats.methods
            ),
        });
    }
    if cold.oat.words != warm.oat.words || cold.oat.text_digest() != warm.oat.text_digest() {
        return Err(Divergence::WarmMismatch {
            label: variant.label.clone(),
            detail: format!(
                "OAT digests differ: cold {:#018x}, warm {:#018x}",
                cold.oat.text_digest(),
                warm.oat.text_digest()
            ),
        });
    }
    // With an unchanged program every detection group's plan must replay
    // from the cache: a group miss here means the group key is unstable
    // (it covers something that drifted between two identical builds).
    if variant.options.ltbo.is_some() && warm.stats.cache.group_misses != 0 {
        return Err(Divergence::WarmMismatch {
            label: variant.label.clone(),
            detail: format!(
                "{} of {} detection groups missed the plan cache on an unchanged program",
                warm.stats.cache.group_misses, warm.stats.ltbo.detection_groups
            ),
        });
    }
    check_oat(program, baseline, &variant.label, &warm.oat)
}

/// Resolves the island an OAT links into from the registry that built
/// it. `None` when the build never routed (no link recorded).
///
/// # Errors
///
/// Returns [`Divergence::Dict`] if the linked epoch is gone or its
/// layout disagrees with the link's recorded size.
fn island_of(
    registry: &DictRegistry,
    oat: &OatFile,
    label: &str,
) -> Result<Option<DictImage>, Divergence> {
    let Some(link) = oat.dict else { return Ok(None) };
    let layout = registry.layout(link.epoch).ok_or_else(|| Divergence::Dict {
        label: label.to_owned(),
        detail: format!("linked island epoch {} is not resolvable", link.epoch),
    })?;
    if layout.words().len() != link.size_words as usize {
        return Err(Divergence::Dict {
            label: label.to_owned(),
            detail: format!(
                "island link records {} words but epoch {} holds {}",
                link.size_words,
                link.epoch,
                layout.words().len()
            ),
        });
    }
    Ok(Some(DictImage {
        base_address: link.base_address,
        epoch: link.epoch,
        words: layout.words().to_vec(),
    }))
}

/// Builds one variant twice through a shared-dictionary session —
/// publisher against the empty epoch-0 island, then a seal, then the
/// rider that must route to the now-sealed bodies — and holds *both*
/// images to the differential oracle with the island mapped. Returns
/// `(rider_hits, publisher_publishes)` so the driver can gate on the
/// sweep actually exercising the dictionary.
///
/// # Errors
///
/// Returns the first [`Divergence`] found: an oracle failure on either
/// image, or a broken dictionary contract ([`Divergence::Dict`]).
pub fn check_variant_dict(
    program: &Program,
    baseline: &BaselineRun,
    variant: &Variant,
) -> Result<(u64, u64), Divergence> {
    let label = format!("dict/{}", variant.label);
    let mut options = variant.options.clone();
    options.dict = true;
    let registry = Arc::new(DictRegistry::default());
    let session = BuildSession::new().with_dict_registry(Arc::clone(&registry));

    // Publisher: every candidate misses the empty island, publishes,
    // and stays privately outlined — the image must pass as-is.
    let publisher = session
        .build(&program.dex, &options)
        .map_err(|e| Divergence::BuildFailed { label: label.clone(), error: e.to_string() })?;
    if publisher.stats.dict.hits != 0 {
        return Err(Divergence::Dict {
            label,
            detail: format!(
                "publisher scored {} hits on an empty island",
                publisher.stats.dict.hits
            ),
        });
    }
    let island = island_of(&registry, &publisher.oat, &label)?;
    check_oat_with_dict(program, baseline, &label, &publisher.oat, island.as_ref())?;

    registry.seal_epoch();

    // Rider: the identical program now finds its own bodies sealed in
    // the island; every eligible candidate must route there — only a
    // body shorter than the island's minimum may stay private — and the
    // text must not grow.
    let rider = session
        .build(&program.dex, &options)
        .map_err(|e| Divergence::BuildFailed { label: label.clone(), error: e.to_string() })?;
    let published = publisher.stats.dict.publishes;
    // A private record's size counts its `br x30`.
    let kept =
        rider.oat.outlined.iter().filter(|f| f.size_words as usize > MIN_ISLAND_WORDS).count();
    if kept > 0 {
        return Err(Divergence::Dict {
            label,
            detail: format!(
                "the rider outlined {kept} bodies of {MIN_ISLAND_WORDS}+ words privately \
                 ({} hits, {published} published)",
                rider.stats.dict.hits
            ),
        });
    }
    if rider.oat.text_size_bytes() > publisher.oat.text_size_bytes() {
        return Err(Divergence::Dict {
            label,
            detail: format!(
                "dictionary routing grew the text: {} -> {} bytes",
                publisher.oat.text_size_bytes(),
                rider.oat.text_size_bytes()
            ),
        });
    }
    let island = island_of(&registry, &rider.oat, &label)?;
    check_oat_with_dict(program, baseline, &label, &rider.oat, island.as_ref())?;
    Ok((rider.stats.dict.hits, published))
}

/// Runs [`check_variant_dict`] over every LTBO-bearing matrix row (the
/// only rows that can route) and returns the summed `(hits,
/// publishes)`.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, or the baseline's own failure.
pub fn check_program_dict(
    program: &Program,
    variants: &[Variant],
) -> Result<(u64, u64), Divergence> {
    let baseline = run_baseline(program)?;
    let (mut hits, mut publishes) = (0u64, 0u64);
    for variant in variants.iter().filter(|v| v.options.ltbo.is_some()) {
        let (h, p) = check_variant_dict(program, &baseline, variant)?;
        hits += h;
        publishes += p;
    }
    Ok((hits, publishes))
}

/// Runs the whole matrix row list for one program.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, or the baseline's own failure.
pub fn check_program(program: &Program, variants: &[Variant]) -> Result<(), Divergence> {
    let baseline = run_baseline(program)?;
    for variant in variants {
        check_variant(program, &baseline, variant, None)?;
    }
    Ok(())
}

/// Like [`check_program`], but every variant is verified through a warm
/// rebuild: the program is built twice through a populated cache and the
/// replayed OAT must match the cold build bit for bit *and* satisfy the
/// oracle.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, or the baseline's own failure.
pub fn check_program_warm(program: &Program, variants: &[Variant]) -> Result<(), Divergence> {
    let baseline = run_baseline(program)?;
    for variant in variants {
        check_variant_warm(program, &baseline, variant)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::full_matrix;

    #[test]
    fn clean_program_passes_the_full_matrix() {
        let program = Program::from_seed("art-call", 1).unwrap();
        check_program(&program, &full_matrix()).expect("no divergence on a clean build");
    }

    #[test]
    fn warm_rebuilds_pass_the_full_matrix() {
        let program = Program::from_seed("art-call", 2).unwrap();
        check_program_warm(&program, &full_matrix()).expect("warm rebuilds match cold builds");
    }

    #[test]
    fn dict_sessions_pass_the_ltbo_rows() {
        let program = Program::from_seed("art-call", 3).unwrap();
        let (hits, publishes) =
            check_program_dict(&program, &full_matrix()).expect("dict builds stay conformant");
        assert!(publishes > 0, "art-call programs must stage dictionary bodies");
        assert!(hits > 0, "riders must route to the sealed bodies");
    }

    #[test]
    fn the_rider_routes_every_eligible_candidate_of_a_program_with_register_twins() {
        // This program outlines register variants of some of its bodies:
        // each variant must route to its own island copy.
        let program = Program::from_seed("motif-app", 0).unwrap();
        let variant = crate::matrix::find_variant("ltbo-global/all/t1").expect("a matrix row");
        let baseline = run_baseline(&program).expect("the baseline runs");
        let (hits, publishes) =
            check_variant_dict(&program, &baseline, &variant).expect("every candidate routes");
        assert_eq!((hits, publishes), (36, 36));
    }

    #[test]
    fn divergence_carries_its_label() {
        let d = Divergence::BuildFailed { label: "cto/all/t1".into(), error: "x".into() };
        assert_eq!(d.label(), "cto/all/t1");
        assert!(d.to_string().contains("cto/all/t1"));
    }
}
