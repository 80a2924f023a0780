//! The differential oracle: build a program under the baseline and a
//! variant configuration, replay the same trace in [`calibro_runtime`]
//! on both, and demand identical architectural observables plus
//! structural invariants on the linked OAT.

use calibro::build;
use calibro_oat::{validate_stack_maps, validate_structure, OatFile};
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
            | Divergence::WarmMismatch { label, .. } => label,
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
    validate_structure(oat)
        .map_err(|e| Divergence::Structure { label: label.to_owned(), error: e.to_string() })?;
    validate_stack_maps(oat)
        .map_err(|e| Divergence::StackMaps { label: label.to_owned(), error: e.to_string() })?;

    let mut runtime = Runtime::new(oat, &program.env);
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

/// Builds one variant through `session`, which may hold other matrix
/// rows' artifacts of the program, and once more through it, and checks
/// that (a) the first build reproduced a fresh session's OAT byte for
/// byte, whatever it replayed from the rows before it (every hit across
/// configurations the method and group-plan keys allow), (b) the second
/// replayed every method and every detection group from the cache and
/// reproduced the same bytes, and (c) the replay still passes the
/// differential oracle against the baseline.
///
/// # Errors
///
/// Returns a [`Divergence::WarmMismatch`] if a session build diverges
/// from the fresh one, or the first oracle divergence otherwise.
pub fn check_variant_warm(
    program: &Program,
    baseline: &BaselineRun,
    variant: &Variant,
    session: &calibro::BuildSession,
) -> Result<(), Divergence> {
    let label = || variant.label.clone();
    let fresh = build(&program.dex, &variant.options)
        .map_err(|e| Divergence::BuildFailed { label: label(), error: e.to_string() })?;
    let through_session = |what: &str| {
        let out = session.build(&program.dex, &variant.options).map_err(|e| {
            Divergence::WarmMismatch { label: label(), detail: format!("{what} failed: {e}") }
        })?;
        if fresh.oat.words != out.oat.words || fresh.oat.text_digest() != out.oat.text_digest() {
            return Err(Divergence::WarmMismatch {
                label: label(),
                detail: format!(
                    "OAT digests differ: fresh session {:#018x}, {what} {:#018x}",
                    fresh.oat.text_digest(),
                    out.oat.text_digest()
                ),
            });
        }
        Ok(out)
    };
    through_session("shared-session build")?;
    let warm = through_session("warm rebuild")?;
    if warm.stats.methods_from_cache != warm.stats.methods {
        return Err(Divergence::WarmMismatch {
            label: label(),
            detail: format!(
                "only {} of {} methods replayed from cache",
                warm.stats.methods_from_cache, warm.stats.methods
            ),
        });
    }
    // With an unchanged program every detection group's plan must replay
    // from the cache: a group miss here means the group key is unstable
    // (it covers something that drifted between two identical builds).
    if variant.options.ltbo.is_some() && warm.stats.cache.group_misses != 0 {
        return Err(Divergence::WarmMismatch {
            label: label(),
            detail: format!(
                "{} of {} detection groups missed the plan cache on an unchanged program",
                warm.stats.cache.group_misses, warm.stats.ltbo.detection_groups
            ),
        });
    }
    check_oat(program, baseline, &variant.label, &warm.oat)
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

/// Like [`check_program`], but every variant is built through one
/// session shared by all of them ([`check_variant_warm`]): each row's
/// bytes must equal a fresh session's, its warm rebuild must replay
/// everything to the same bytes, and the replay must satisfy the oracle.
///
/// # Errors
///
/// Returns the first [`Divergence`] found, or the baseline's own failure.
pub fn check_program_warm(program: &Program, variants: &[Variant]) -> Result<(), Divergence> {
    let baseline = run_baseline(program)?;
    let session = calibro::BuildSession::new();
    for variant in variants {
        check_variant_warm(program, &baseline, variant, &session)?;
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
    fn divergence_carries_its_label() {
        let d = Divergence::BuildFailed { label: "cto/all/t1".into(), error: "x".into() };
        assert_eq!(d.label(), "cto/all/t1");
        assert!(d.to_string().contains("cto/all/t1"));
    }
}
