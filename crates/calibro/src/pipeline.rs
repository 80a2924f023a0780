//! The staged build pipeline: Figure 5 of the paper as four explicit
//! stages with typed artifacts flowing between them —
//!
//! ```text
//! Frontend  --FrontendArtifact-->  Codegen  --CodegenArtifact-->
//!     Size passes  --SizeArtifact-->  Link  -->  OatFile
//! ```
//!
//! * **Frontend** verifies the dex, computes per-method cache keys,
//!   probes the [`ArtifactStore`], and builds HGraphs for the methods
//!   that missed (plus whole-program inlining when enabled);
//! * **Codegen** runs the pass pipeline and code generation for every
//!   miss — populating the store — and replays every hit;
//! * **Size passes** run the function merger, then LTBO (see
//!   [`sizepass`](crate::sizepass)) over the compiled methods,
//!   replaying cached symbolization templates and per-pass plan lanes;
//! * **Link** binds labels and lays out the final text segment from
//!   every body's words.
//!
//! A [`BuildSession`] owns the store and threads it through the stages,
//! so consecutive builds of related inputs recompile only the changed
//! methods. [`BuildSession::build`] is exactly the four stages in order
//! plus statistics.
//!
//! # Determinism
//!
//! Warm and cold builds produce bit-identical OAT files, for any thread
//! count:
//!
//! * a cache key covers everything per-method compilation reads — the
//!   schema salt, the full [`BuildOptions`] fingerprint, the method's
//!   canonical bytecode, and (when whole-program inlining is on) the
//!   whole-program hash — so equal keys imply equal compile inputs, and
//!   compilation is a pure function of those inputs;
//! * results land in method-index-order slots regardless of which
//!   worker produced them (see [`run_indexed`]);
//! * LTBO consumes cached symbolization *templates*
//!   ([`SymbolTemplate`]) rather than symbol sequences: fresh separator
//!   numbers are assigned at replay from the method's own index-derived
//!   band, exactly as direct extraction would assign them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use calibro_cache::{ArtifactStore, CacheConfig, CacheEntry, CacheKey};
use calibro_codegen::{compile_method, compile_native_stub, CodegenOptions, CompiledMethod};
use calibro_dex::DexFile;
use calibro_dict::DictRegistry;
use calibro_hgraph::{
    build_hgraph, run_inlining, run_pipeline_with, HGraph, InlineConfig, PassStats,
};
use calibro_oat::{DictImage, LinkInput, OatFile, DICT_BASE_ADDRESS};

use crate::driver::{BuildError, BuildOptions, BuildOutput, BuildStats, WorkerLoad};
use crate::fingerprint::{method_cache_key, options_fingerprint, program_salt, reference_env};
use crate::ltbo::build_template;
use crate::sizepass::{merge_pass, outline_pass, PassContext, SizeArtifact};

/// A build context holding the content-addressed artifact store across
/// builds. One-shot callers use [`build`](crate::build); incremental
/// callers keep a session alive and rebuild through it:
///
/// ```
/// use calibro::{BuildOptions, BuildSession};
/// use calibro_dex::{DexFile, DexInsn, MethodBuilder, VReg};
///
/// let mut dex = DexFile::new();
/// let class = dex.add_class("Main", 0);
/// let mut b = MethodBuilder::new("f", 2, 1);
/// b.push(DexInsn::Return { src: VReg(1) });
/// dex.add_method(b.build(class));
///
/// let session = BuildSession::new();
/// let cold = session.build(&dex, &BuildOptions::default())?;
/// let warm = session.build(&dex, &BuildOptions::default())?;
/// assert_eq!(cold.oat.words, warm.oat.words);
/// assert_eq!(warm.stats.methods_from_cache, 1);
/// # Ok::<(), calibro::BuildError>(())
/// ```
pub struct BuildSession {
    store: Arc<ArtifactStore>,
    /// The shared outline dictionary, when this session belongs to a
    /// daemon hosting one. [`BuildOptions::dict`] routes outline
    /// candidates through it; without a registry the flag is inert.
    dict: Option<Arc<DictRegistry>>,
}

impl Default for BuildSession {
    fn default() -> BuildSession {
        BuildSession::new()
    }
}

impl core::fmt::Debug for BuildSession {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BuildSession").field("store", &self.store).finish()
    }
}

impl BuildSession {
    /// A session with a fresh in-memory store under the default
    /// configuration.
    #[must_use]
    pub fn new() -> BuildSession {
        BuildSession::with_config(CacheConfig::default())
    }

    /// A session with a fresh store under `config` (set
    /// [`CacheConfig::disk_dir`] for a persistent cache).
    #[must_use]
    pub fn with_config(config: CacheConfig) -> BuildSession {
        BuildSession { store: Arc::new(ArtifactStore::new(config)), dict: None }
    }

    /// A session over an existing (possibly shared) store.
    #[must_use]
    pub fn with_store(store: Arc<ArtifactStore>) -> BuildSession {
        BuildSession { store, dict: None }
    }

    /// Attaches a shared outline dictionary. Builds with
    /// [`BuildOptions::dict`] set then arbitrate every outline candidate
    /// against the registry's current epoch island.
    #[must_use]
    pub fn with_dict_registry(mut self, registry: Arc<DictRegistry>) -> BuildSession {
        self.dict = Some(registry);
        self
    }

    /// The session's artifact store (for counters or sharing).
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
    }

    /// The attached dictionary registry, if any.
    #[must_use]
    pub fn dict_registry(&self) -> Option<&Arc<DictRegistry>> {
        self.dict.as_ref()
    }

    /// Runs the full pipeline: frontend → codegen → outline → link.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the input fails bytecode verification,
    /// a persistent cache entry is corrupt, or the final link fails.
    pub fn build(&self, dex: &DexFile, options: &BuildOptions) -> Result<BuildOutput, BuildError> {
        let base = self.store.stats();
        let frontend = self.frontend(dex, options)?;
        let mut stats = BuildStats {
            verify_time: frontend.verify_time,
            key_time: frontend.key_time,
            graph_time: frontend.graph_time,
            inline_time: frontend.inline_time,
            compile_threads: options.compile_threads.max(1),
            ..BuildStats::default()
        };
        let graph_busy: Duration = frontend.graph_loads.iter().map(|w| w.busy).sum();

        let codegen = self.codegen(dex, options, frontend)?;
        stats.codegen_time = codegen.codegen_time;
        stats.compile_time =
            stats.key_time + stats.graph_time + stats.inline_time + stats.codegen_time;
        stats.passes = codegen.passes;
        stats.per_worker = codegen.per_worker.clone();
        stats.compile_cpu_time =
            graph_busy + stats.per_worker.iter().map(|w| w.busy).sum::<Duration>();
        stats.methods = codegen.outcomes.len();
        stats.methods_from_cache = codegen.outcomes.iter().filter(|o| o.cache_hit).count();

        let size = self.outline(options, codegen)?;
        stats.words_before_ltbo = size.words_before;
        stats.merge = size.merge;
        stats.merge_time = size.merge_time;
        stats.ltbo = size.ltbo;
        stats.ltbo_time = size.ltbo_time;
        stats.detect_time = size.detect_time;
        stats.dict = size.dict;
        stats.dict_epoch = size.dict_epoch;
        stats.dict_island_words = size.dict_island.as_ref().map_or(0, |d| d.words.len());

        let link_start = Instant::now();
        let oat = self.link(options, size)?;
        stats.link_time = link_start.elapsed();
        stats.cache = self.store.stats().since(&base);
        Ok(BuildOutput { oat, stats })
    }

    /// Stage 1 — **Frontend**: computes every method's cache key,
    /// probes the store, verifies the dex (hits skip the intrinsic
    /// per-method checks their key already covers), and builds HGraphs
    /// for the misses. With whole-program inlining enabled, a single
    /// miss forces graphs for *all* methods (any callee body may be
    /// inlined) and the sequential inlining pre-phase runs as in a cold
    /// build.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Verify`] on invalid bytecode and
    /// [`BuildError::Cache`] when the persistent layer holds a corrupt
    /// entry for one of the probed keys.
    pub fn frontend(
        &self,
        dex: &DexFile,
        options: &BuildOptions,
    ) -> Result<FrontendArtifact, BuildError> {
        let key_start = Instant::now();
        let inputs = dex.methods();
        let threads = options.compile_threads.max(1);
        let fp = options_fingerprint(options);
        let salt = options.inlining.then(|| program_salt(dex));
        // Key hashing fans out like codegen: each worker serializes
        // methods into its own reused thread-local buffer and mixes
        // word-at-a-time (see calibro_cache::hash). Probing stays
        // sequential — it is one lock acquisition per method.
        let (keys, _key_loads) =
            run_indexed(inputs.len(), threads, |i| method_cache_key(&inputs[i], fp, salt))
                .map_err(|p| BuildError::CompileWorker { method: p.index, message: p.message })?;
        // One batched probe: local tiers per key, then every local miss
        // resolved through the peer tier in a single pipelined exchange
        // (a fleet sibling's warm lane) instead of a round trip per key.
        let cached = self.store.get_many(&keys).map_err(BuildError::Cache)?;
        let key_time = key_start.elapsed();

        // A cache hit proves the method's intrinsic checks (register
        // bounds, branch targets, definite assignment) passed when the
        // entry was created — the key covers every byte they read. The
        // contextual reference checks additionally read the program
        // environment, so a hit skips them only when the entry's
        // recorded environment fingerprint matches this build's: then
        // both inputs of the (deterministic) check are unchanged and so
        // is its verdict.
        let ref_env = reference_env(dex);
        let verify_start = Instant::now();
        for (m, hit) in inputs.iter().zip(&cached) {
            match hit {
                Some(entry) if entry.ref_env == ref_env => {}
                Some(_) => calibro_dex::verify_references(dex, m).map_err(BuildError::Verify)?,
                None => {
                    calibro_dex::verify_intrinsic(m).map_err(BuildError::Verify)?;
                    calibro_dex::verify_references(dex, m).map_err(BuildError::Verify)?;
                }
            }
        }
        let verify_time = verify_start.elapsed();

        let misses = cached.iter().filter(|c| c.is_none()).count();
        let inlining = options.inlining && misses > 0;
        let need_graph: Vec<bool> = inputs
            .iter()
            .zip(&cached)
            .map(|(m, hit)| !m.is_native && (inlining || hit.is_none()))
            .collect();
        let start = Instant::now();
        let (mut graphs, graph_loads) =
            run_indexed(inputs.len(), threads, |i| need_graph[i].then(|| build_hgraph(&inputs[i])))
                .map_err(|p| BuildError::CompileWorker { method: p.index, message: p.message })?;
        let graph_time = start.elapsed();

        // Whole-program inlining reads callee graphs while rewriting
        // callers, so it stays a sequential phase between the fans.
        let inline_start = Instant::now();
        if inlining {
            run_inlining(&mut graphs, &InlineConfig::default());
        }
        let inline_time = inline_start.elapsed();

        Ok(FrontendArtifact {
            keys,
            cached,
            graphs,
            ref_env,
            verify_time,
            key_time,
            graph_time,
            inline_time,
            graph_loads,
        })
    }

    /// Stage 2 — **Codegen**: for every cache miss, runs the pass
    /// pipeline and code generation, builds the LTBO symbolization
    /// template (when LTBO is on), and populates the store; every hit is
    /// replayed from its entry. Results land in method-index order.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::CompileWorker`] when a compile worker
    /// panics (the panic is contained to its method, not the process).
    pub fn codegen(
        &self,
        dex: &DexFile,
        options: &BuildOptions,
        frontend: FrontendArtifact,
    ) -> Result<CodegenArtifact, BuildError> {
        let threads = options.compile_threads.max(1);
        // Both size passes consume method metadata: LTBO for separator
        // placement, merge for eligibility (indirect jumps, embedded
        // data, terminators). A merge-only build without metadata would
        // admit bodies whose hazards were simply never recorded.
        let collect_metadata =
            options.ltbo.is_some() || options.merge.is_some() || options.force_metadata;
        let codegen_opts = CodegenOptions { cto: options.cto, collect_metadata };
        let want_template = options.ltbo.is_some();
        let inputs = dex.methods();
        let FrontendArtifact { keys, cached, graphs, ref_env, .. } = frontend;
        let start = Instant::now();
        // Workers take ownership of their graph through a per-slot mutex
        // (locked exactly once, by the worker that drew the index).
        let cells: Vec<Mutex<Option<HGraph>>> = graphs.into_iter().map(Mutex::new).collect();
        // A method's words are shared between its outcome and its entry,
        // so neither a hit nor a miss copies code. The entry keeps no
        // instructions: a hit is words only, and the instructions a miss
        // was compiled to live on its outcome, for this build alone.
        let (outcomes, per_worker) = run_indexed(inputs.len(), threads, |i| {
            if let Some(entry) = &cached[i] {
                return MethodOutcome {
                    compiled: entry.compiled.clone(),
                    pass_stats: entry.pass_stats,
                    entry: Arc::clone(entry),
                    cache_hit: true,
                };
            }
            let compile_start = Instant::now();
            let graph = cells[i].lock().unwrap_or_else(PoisonError::into_inner).take();
            let (compiled, pass_stats) = match graph {
                None => (compile_native_stub(inputs[i].id, &codegen_opts), PassStats::default()),
                Some(mut graph) => {
                    let pass_stats = run_pipeline_with(&mut graph, &options.passes);
                    (compile_method(&graph, &codegen_opts), pass_stats)
                }
            };
            let template = want_template.then(|| build_template(&compiled, false));
            let stored = CompiledMethod { insns: Arc::default(), ..compiled.clone() };
            let entry = CacheEntry { compiled: stored, pass_stats, template, ref_env };
            // The measured compile CPU rides into the store as the
            // entry's recompute cost: under memory pressure the
            // cost-aware eviction policy keeps the methods that were
            // expensive to produce.
            let cost_us = u64::try_from(compile_start.elapsed().as_micros()).unwrap_or(u64::MAX);
            let entry = self.store.methods().insert_with_cost(keys[i], entry, cost_us);
            MethodOutcome { compiled, pass_stats, entry, cache_hit: false }
        })
        .map_err(|p| BuildError::CompileWorker { method: p.index, message: p.message })?;
        let codegen_time = start.elapsed();

        // Merged in method-index order — deterministic across schedules.
        let mut passes = PassStats::default();
        for o in &outcomes {
            passes += o.pass_stats;
        }
        Ok(CodegenArtifact { outcomes, passes, codegen_time, per_worker })
    }

    /// Stage 3 — **Size passes**: runs the size transforms the options
    /// ask for — merge, then LTBO over the post-merge methods — mutating
    /// the compiled methods in place. Each pass replays its cache lane
    /// through the session's store — symbolization templates and group
    /// plans for outlining, bucket plans for merging — so only content
    /// that changed is re-analyzed. A no-op pass-through when both
    /// [`BuildOptions::merge`] and [`BuildOptions::ltbo`] are `None`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::OutlineWorker`] when one group's detection
    /// or materialization panics, and [`BuildError::Cache`] when a
    /// persisted plan is corrupt.
    pub fn outline(
        &self,
        options: &BuildOptions,
        codegen: CodegenArtifact,
    ) -> Result<SizeArtifact, BuildError> {
        let (methods, entries): (Vec<_>, Vec<_>) =
            codegen.outcomes.into_iter().map(|o| (o.compiled, o.entry)).unzip();
        let mut artifact = SizeArtifact::new(methods);
        // The dictionary session pins one epoch's island for the whole
        // stage; the session is opened lazily so dict-off builds (and
        // sessions without a registry) pay nothing.
        let mut dict_session = match &self.dict {
            Some(registry) if options.dict && options.ltbo.is_some() => Some(registry.session()),
            _ => None,
        };
        let mut ctx = PassContext {
            store: &self.store,
            entries: &entries,
            hot_methods: options.hot_methods.as_ref(),
            dict: dict_session.as_mut(),
        };
        if let Some(config) = &options.merge {
            merge_pass(&mut artifact, config, &ctx)?;
        }
        if let Some(config) = options.ltbo_config() {
            outline_pass(&mut artifact, &config, &mut ctx)?;
        }
        if let Some(session) = dict_session {
            artifact.dict = session.stats();
            artifact.dict_epoch = session.epoch();
            artifact.dict_island = Some(DictImage {
                base_address: DICT_BASE_ADDRESS,
                epoch: session.epoch(),
                words: session.layout().words().to_vec(),
            });
        }
        Ok(artifact)
    }

    /// Stage 4 — **Link**: binds call labels to addresses and lays out
    /// the final text segment from every body's words.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Link`] when the linker rejects the input
    /// (e.g. an unencodable branch or a dangling call target).
    pub fn link(
        &self,
        options: &BuildOptions,
        artifact: SizeArtifact,
    ) -> Result<OatFile, BuildError> {
        let SizeArtifact { methods, outlined, merged, dict_island, .. } = artifact;
        calibro_oat::link_with_dict(
            LinkInput { methods, outlined, merged },
            options.base_address,
            dict_island.as_ref(),
        )
        .map_err(BuildError::Link)
    }
}

/// The frontend stage's output: per-method cache keys, probe results,
/// and the HGraphs of every method that must be (re)compiled.
pub struct FrontendArtifact {
    /// Content address of each method, in method-index order.
    pub keys: Vec<CacheKey>,
    /// Store probe result per method (`Some` = warm hit).
    pub cached: Vec<Option<Arc<CacheEntry>>>,
    /// HGraph per method; `None` for native methods and warm hits.
    pub graphs: Vec<Option<HGraph>>,
    /// This build's [`reference_env`] fingerprint — recorded in every
    /// entry codegen stores, compared against entries on probe.
    pub ref_env: u64,
    /// Time verifying the input dex.
    pub verify_time: Duration,
    /// Time fingerprinting, hashing methods, and probing the store.
    pub key_time: Duration,
    /// Time building HGraphs.
    pub graph_time: Duration,
    /// Time in whole-program inlining.
    pub inline_time: Duration,
    /// Per-worker load of the graph-building fan.
    pub graph_loads: Vec<WorkerLoad>,
}

/// One method's compilation outcome within a [`CodegenArtifact`].
pub struct MethodOutcome {
    /// The compiled method (owned, but its `words` shared with
    /// `entry.compiled`'s; the size passes rewrite it downstream). A miss
    /// also carries the instructions codegen just emitted, which its
    /// entry does not keep; a hit is words only.
    pub compiled: CompiledMethod,
    /// Pass-pipeline counters (replayed from the entry on a hit, so
    /// warm observability matches cold).
    pub pass_stats: PassStats,
    /// The store entry backing this method — source of the cached LTBO
    /// symbolization template.
    pub entry: Arc<CacheEntry>,
    /// Whether the method was replayed from the cache.
    pub cache_hit: bool,
}

/// The codegen stage's output: every compiled method plus aggregate
/// pass counters and worker loads.
pub struct CodegenArtifact {
    /// Per-method outcomes, in method-index order.
    pub outcomes: Vec<MethodOutcome>,
    /// Pass counters summed in method-index order.
    pub passes: PassStats,
    /// Wall time of the stage.
    pub codegen_time: Duration,
    /// Per-worker load, in worker order.
    pub per_worker: Vec<WorkerLoad>,
}

/// A contained worker panic from [`run_indexed`]: the lowest panicking
/// index and its stringified payload. Callers wrap it in the
/// appropriate typed [`BuildError`] variant.
#[derive(Debug)]
pub(crate) struct WorkerPanic {
    pub(crate) index: usize,
    pub(crate) message: String,
}

/// Stringifies a panic payload (`&str` and `String` payloads verbatim,
/// anything else a placeholder).
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Number of hardware threads the host actually exposes, cached after
/// the first query (the syscall behind `available_parallelism` is not
/// free on the warm path). Falls back to 1 when the OS cannot say.
fn available_threads() -> usize {
    use std::sync::OnceLock;
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Runs `f(0..count)` across up to `threads` workers, returning results
/// in index order plus one [`WorkerLoad`] per worker.
///
/// Workers draw indices from a shared atomic cursor and hand their
/// `(index, value)` pairs back through their join handles; the pairs
/// are scattered into index order after the joins, so the output order
/// — and therefore everything derived from it — is independent of the
/// schedule. This is the one place a build spawns threads. With
/// `threads <= 1` (or nothing to do) the closure runs on the calling
/// thread with no synchronization at all. The requested fan-out is
/// clamped to [`available_threads`] — results are identical at any
/// worker count, so spawning more CPU-bound workers than cores buys
/// nothing but scheduler churn.
///
/// # Errors
///
/// A panic in `f` is caught per item and returned as [`WorkerPanic`]
/// instead of unwinding (single-threaded) or aborting the process when
/// it crosses a pool-thread boundary (parallel). Remaining work stops
/// at the next index draw; when several items panic before the pool
/// drains, the lowest index is reported.
pub(crate) fn run_indexed<T, F>(
    count: usize,
    threads: usize,
    f: F,
) -> Result<(Vec<T>, Vec<WorkerLoad>), WorkerPanic>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let threads = threads.min(available_threads());
    if threads <= 1 || count <= 1 {
        let start = Instant::now();
        let mut out: Vec<T> = Vec::with_capacity(count);
        for i in 0..count {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => out.push(v),
                Err(payload) => {
                    return Err(WorkerPanic { index: i, message: panic_message(payload) })
                }
            }
        }
        return Ok((out, vec![WorkerLoad { items: count, busy: start.elapsed() }]));
    }
    let workers = threads.min(count);
    let cursor = AtomicUsize::new(0);
    let poisoned = std::sync::atomic::AtomicBool::new(false);
    let worker = || {
        let start = Instant::now();
        let mut done: Vec<(usize, T)> = Vec::new();
        let mut panic = None;
        while !poisoned.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= count {
                break;
            }
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Ok(v) => done.push((i, v)),
                Err(payload) => {
                    panic = Some(WorkerPanic { index: i, message: panic_message(payload) });
                    poisoned.store(true, Ordering::Relaxed);
                    break;
                }
            }
        }
        let load = WorkerLoad { items: done.len(), busy: start.elapsed() };
        (done, panic, load)
    };
    let reports: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        handles.into_iter().map(|h| h.join().expect("workers catch their panics")).collect()
    });
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    let mut loads = Vec::with_capacity(workers);
    let mut panics = Vec::new();
    for (done, panic, load) in reports {
        loads.push(load);
        panics.extend(panic);
        for (i, v) in done {
            slots[i] = Some(v);
        }
    }
    if let Some(lowest) = panics.into_iter().min_by_key(|p| p.index) {
        return Err(lowest);
    }
    let out = slots.into_iter().map(|slot| slot.expect("every index slot is filled")).collect();
    Ok((out, loads))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_indexed_preserves_index_order() {
        for threads in [1, 2, 8, 64] {
            let (out, loads) = run_indexed(100, threads, |i| i * 3).unwrap();
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
            assert_eq!(loads.iter().map(|w| w.items).sum::<usize>(), 100);
            assert!(loads.len() <= threads.max(1));
        }
    }

    #[test]
    fn run_indexed_handles_empty_and_oversubscribed() {
        let (out, loads) = run_indexed(0, 8, |i| i).unwrap();
        assert!(out.is_empty());
        assert_eq!(loads.iter().map(|w| w.items).sum::<usize>(), 0);
        // More threads than items: never spawns more workers than items.
        let (out, loads) = run_indexed(3, 16, |i| i + 1).unwrap();
        assert_eq!(out, vec![1, 2, 3]);
        assert!(loads.len() <= 3);
    }

    #[test]
    fn run_indexed_contains_worker_panics() {
        // The panic must not cross the pool boundary (which would abort
        // the process) — it comes back as a typed WorkerPanic, for both
        // the sequential and the parallel path.
        for threads in [1, 4] {
            let err = run_indexed(8, threads, |i| {
                assert!(i != 5, "worker fault at {i}");
                i
            })
            .expect_err("armed fault must surface");
            assert_eq!(err.index, 5);
            assert!(err.message.contains("worker fault at 5"), "message: {}", err.message);
        }
    }

    #[test]
    fn run_indexed_reports_the_lowest_of_two_panics_and_drops_finished_items() {
        use std::sync::atomic::AtomicBool;
        // One CPU clamps every fan-out to the sequential arm, where
        // index 1 would wait for ever on an index 2 that never starts.
        if available_threads() < 2 {
            return;
        }
        // Index 2 always panics first in time and index 1 after it, on
        // the other worker: the lower index wins, not the earlier panic.
        let upper_fired = AtomicBool::new(false);
        let token = Arc::new(());
        let err = run_indexed(8, 2, |i| {
            if i == 2 {
                upper_fired.store(true, Ordering::SeqCst);
                panic!("fault at 2");
            }
            if i == 1 {
                while !upper_fired.load(Ordering::SeqCst) {
                    std::thread::yield_now();
                }
                panic!("fault at 1");
            }
            Arc::clone(&token)
        })
        .expect_err("both faults are armed");
        assert_eq!((err.index, err.message.as_str()), (1, "fault at 1"));
        // Index 0 completed on one of the two workers; the error path
        // hands back no values and keeps none alive.
        assert_eq!(Arc::strong_count(&token), 1);
    }
}
