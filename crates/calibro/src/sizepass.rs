//! The size stage: every size transform between codegen and link —
//! the function-merge backend, then CTO's metadata-assisted LTBO — is
//! one function over the shared [`SizeArtifact`], called in a fixed
//! order by [`BuildSession::outline`](crate::BuildSession::outline).
//!
//! Each pass has
//!
//! * a **config fingerprint** folded into the build's 128-bit cache
//!   keys by [`fingerprint_options`](crate::fingerprint_options) —
//!   `BuildOptions`' wire row, whose exhaustive destructure means no
//!   pass knob can silently be left out of a key;
//! * a **cache lane** in `calibro-cache` (the group-plan lane for
//!   outlining, the merge-plan lane for merging), each with its own
//!   memory + checksummed-disk tiers and hit/miss/store/evict counters
//!   surfaced through [`CacheStats`](calibro_cache::CacheStats); and
//! * its output in the **typed inter-stage artifact**: merge rewrites
//!   its members into thunks in place; outlining only plans edits,
//!   which the linker applies.
//!
//! Pass order is part of the contract: merge runs before outline, so
//! LTBO sees thunks (and skips them — a thunk's `bl`-outlined movs
//! would clobber the return address its island's `ret` consumes) and
//! arbitration can leave a group for the outliner to compress instead.
//! A third pass is one more function here and one more call in
//! `outline`, after its config joined `BuildOptions` and its wire row.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calibro_cache::{ArtifactStore, CacheEntry};
use calibro_codegen::CompiledMethod;
use calibro_dict::{DictSession, DictStats};
use calibro_oat::{DictImage, MergedBody, MethodEdits};

use crate::driver::BuildError;
use crate::ltbo::{outline_methods, LtboConfig, LtboStats, OutlineError};
use crate::merge::{run_merge, MergeConfig, MergeStats};

/// The typed artifact flowing through the size passes and into the
/// linker: the methods, the edits planned for them, and everything the
/// passes extracted out of them.
pub struct SizeArtifact {
    /// The methods, in method-index order, as codegen left them but for
    /// merged members, which became parameter thunks. Outlining changes
    /// none of them: its occurrences are in `edits`.
    pub methods: Vec<CompiledMethod>,
    /// Each method's outlined occurrences, sorted by first word: the
    /// linker replaces each with a `bl` as it writes the method into the
    /// text segment. Empty when LTBO is off.
    pub edits: MethodEdits,
    /// Outlined function bodies' words, in `CallTarget::Outlined` index
    /// order.
    pub outlined: Vec<Vec<u32>>,
    /// Merged-function islands, in `CallTarget::Merged` index order.
    pub merged: Vec<MergedBody>,
    /// Merge statistics (zeroed when the merge pass is off).
    pub merge: MergeStats,
    /// LTBO statistics (zeroed when LTBO is off).
    pub ltbo: LtboStats,
    /// Wall time of the merge pass.
    pub merge_time: Duration,
    /// Wall time of the outline pass: planning, not applying, the edits.
    pub ltbo_time: Duration,
    /// Wall time of the outline pass's detection core: cache-key probes
    /// plus, per group, plan replay or symbol text and suffix-tree
    /// detection (excludes finding the templates and planning the edits).
    pub detect_time: Duration,
    /// Total instruction words before any size pass ran.
    pub words_before: usize,
    /// Shared-dictionary routing outcomes (zeroed without a
    /// dictionary session).
    pub dict: DictStats,
    /// Dictionary epoch the outline pass routed against (0 without a
    /// session).
    pub dict_epoch: u64,
    /// The island image this artifact's `CallTarget::Dict` relocations
    /// resolve into — handed to
    /// [`link_with_dict`](calibro_oat::link_with_dict). `None` without
    /// a dictionary session.
    pub dict_island: Option<DictImage>,
}

impl SizeArtifact {
    /// Wraps freshly compiled methods into the artifact the size passes
    /// fill.
    #[must_use]
    pub fn new(methods: Vec<CompiledMethod>) -> SizeArtifact {
        let words_before = methods.iter().map(CompiledMethod::size_words).sum();
        SizeArtifact {
            methods,
            edits: MethodEdits::default(),
            outlined: Vec::new(),
            merged: Vec::new(),
            merge: MergeStats::default(),
            ltbo: LtboStats::default(),
            merge_time: Duration::default(),
            ltbo_time: Duration::default(),
            detect_time: Duration::default(),
            words_before,
            dict: DictStats::default(),
            dict_epoch: 0,
            dict_island: None,
        }
    }
}

/// Session state the passes share: the artifact store behind each
/// pass's cache lane, the store entry codegen compiled or replayed each
/// method from (in method-index order; a method still shares its
/// entry's `words` exactly while nothing has rewritten it), the
/// hot-method set and the dictionary session.
pub(crate) struct PassContext<'a> {
    pub(crate) store: &'a ArtifactStore,
    pub(crate) entries: &'a [Arc<CacheEntry>],
    pub(crate) hot_methods: Option<&'a HashSet<u32>>,
    pub(crate) dict: Option<&'a mut DictSession>,
}

/// The function-merge pass (see [`crate::merge`]): members of each
/// merge group become parameter thunks, their shared bodies islands.
///
/// # Errors
///
/// [`BuildError::Cache`] when a persisted merge plan is corrupt.
pub(crate) fn merge_pass(
    artifact: &mut SizeArtifact,
    config: &MergeConfig,
    ctx: &PassContext<'_>,
) -> Result<(), BuildError> {
    let start = Instant::now();
    let outcome = run_merge(&mut artifact.methods, config, ctx.hot_methods, Some(ctx.store))?;
    artifact.merged = outcome.islands;
    artifact.merge = outcome.stats;
    artifact.merge_time = start.elapsed();
    Ok(())
}

/// The LTBO outline pass (see [`crate::ltbo`]), over the post-merge
/// methods: plans the outlined functions and each method's edits.
///
/// # Errors
///
/// [`BuildError::OutlineWorker`] when one group's detection or
/// materialization panics, [`BuildError::Cache`] when a persisted group
/// plan is corrupt.
pub(crate) fn outline_pass(
    artifact: &mut SizeArtifact,
    config: &LtboConfig,
    ctx: &mut PassContext<'_>,
) -> Result<(), BuildError> {
    let start = Instant::now();
    debug_assert!(artifact.outlined.is_empty(), "a second outline pass would clash ids");
    let (result, edits) = outline_methods(
        &artifact.methods,
        ctx.entries,
        config,
        Some(ctx.store),
        ctx.dict.as_deref_mut(),
    )
    .map_err(|e| match e {
        OutlineError::Worker { group, message } => BuildError::OutlineWorker { group, message },
        OutlineError::Cache(e) => BuildError::Cache(e),
    })?;
    artifact.edits = edits;
    artifact.outlined = result.outlined;
    artifact.ltbo = result.stats;
    artifact.detect_time = result.detect_time;
    artifact.ltbo_time = start.elapsed();
    Ok(())
}
