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
//! * its edits to the **typed inter-stage artifact**.
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
use calibro_isa::Insn;
use calibro_oat::{DictImage, MergedBody};

use crate::driver::BuildError;
use crate::ltbo::{outline_methods, LtboConfig, LtboStats, OutlineError};
use crate::merge::{run_merge, MergeConfig, MergeStats};

/// Where one method of a [`SizeArtifact`] stands relative to the code
/// codegen emitted for it, and therefore where its already-encoded
/// machine words are — so that the linker copies them instead of
/// encoding the method again. Whoever rewrites a method moves its marker
/// in the same breath.
#[derive(Debug)]
pub enum MethodWords {
    /// Nothing rewrote the method since codegen: it is still exactly its
    /// store entry's `compiled` (its `insns` are the entry's, shared), so
    /// the entry's words are its words (and the entry's symbolization
    /// template describes it).
    Entry(Arc<CacheEntry>),
    /// The outline pass rewrote it into these words, which are its only
    /// code: the method's `insns` is empty, and no instruction of it
    /// exists to go stale.
    Outlined(Vec<u32>),
    /// No words: a pass that keeps none rewrote the method (the merge
    /// pass turned it into a thunk), or it never had a store entry. The
    /// linker encodes it.
    None,
}

impl MethodWords {
    /// The method's encoded words, one per instruction, if it has any.
    #[must_use]
    pub fn as_slice(&self) -> Option<&[u32]> {
        match self {
            MethodWords::Entry(entry) => Some(entry.words()),
            MethodWords::Outlined(words) => Some(words),
            MethodWords::None => None,
        }
    }
}

/// The typed artifact flowing through the size passes and into the
/// linker: the (progressively rewritten) methods plus everything the
/// passes extracted out of them.
pub struct SizeArtifact {
    /// The methods, in method-index order — merged members become
    /// parameter thunks, outlined occurrences become `bl`s. A method the
    /// outline pass rewrote has empty `insns`: its code is its
    /// [`MethodWords::Outlined`] words, which the linker sizes and
    /// patches it from.
    pub methods: Vec<CompiledMethod>,
    /// Per method, where its encoded words come from (same order as
    /// `methods`; empty when the methods came without store entries).
    /// A [`MethodWords::Entry`] must be the entry its method was
    /// compiled into or replayed from, with the method unmodified since
    /// — which is how codegen hands methods to the size stage.
    pub words: Vec<MethodWords>,
    /// Outlined function bodies, in `CallTarget::Outlined` index order.
    pub outlined: Vec<Vec<Insn>>,
    /// Merged-function islands, in `CallTarget::Merged` index order.
    pub merged: Vec<MergedBody>,
    /// Merge statistics (zeroed when the merge pass is off).
    pub merge: MergeStats,
    /// LTBO statistics (zeroed when LTBO is off).
    pub ltbo: LtboStats,
    /// Wall time of the merge pass.
    pub merge_time: Duration,
    /// Wall time of the outline pass.
    pub ltbo_time: Duration,
    /// Wall time of the outline pass's detection core: cache-key probes
    /// plus, per group, plan replay or symbol text and suffix-tree
    /// detection (excludes finding the templates and edit application).
    pub detect_time: Duration,
    /// Total instruction words before any size pass ran.
    pub words_before: usize,
    /// Shared-dictionary arbitration outcomes (zeroed without a
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
    /// Wraps freshly compiled methods into the artifact every size pass
    /// edits in place. The methods carry no words until somebody fills
    /// in [`words`](Self::words).
    #[must_use]
    pub fn new(methods: Vec<CompiledMethod>) -> SizeArtifact {
        let words_before = methods.iter().map(CompiledMethod::size_words).sum();
        SizeArtifact {
            methods,
            words: Vec::new(),
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
/// pass's cache lane, the hot-method set and the dictionary session.
pub(crate) struct PassContext<'a> {
    pub(crate) store: &'a ArtifactStore,
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
    let outcome = run_merge(
        &mut artifact.methods,
        &mut artifact.words,
        config,
        ctx.hot_methods,
        Some(ctx.store),
    )?;
    artifact.merged = outcome.islands;
    artifact.merge = outcome.stats;
    artifact.merge_time = start.elapsed();
    Ok(())
}

/// The LTBO outline pass (see [`crate::ltbo`]), over the post-merge
/// methods.
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
    let result = outline_methods(
        &mut artifact.methods,
        &mut artifact.words,
        config,
        Some(ctx.store),
        ctx.dict.as_deref_mut(),
    )
    .map_err(|e| match e {
        OutlineError::Worker { group, message } => BuildError::OutlineWorker { group, message },
        OutlineError::Cache(e) => BuildError::Cache(e),
    })?;
    artifact.outlined = result.outlined;
    artifact.ltbo = result.stats;
    artifact.detect_time = result.detect_time;
    artifact.ltbo_time = start.elapsed();
    Ok(())
}
