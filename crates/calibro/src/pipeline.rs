//! The staged build pipeline: Figure 5 of the paper as four explicit
//! stages with typed artifacts flowing between them —
//!
//! ```text
//! Frontend  --FrontendArtifact-->  Codegen  --CodegenArtifact-->
//!     Size  --SizeArtifact-->  Link  -->  OatFile
//! ```
//!
//! * **Frontend** verifies the dex, computes per-method cache keys,
//!   probes the [`ArtifactStore`], and builds HGraphs for the methods
//!   that missed;
//! * **Codegen** runs the pass pipeline and code generation for every
//!   miss — populating the store — and replays every hit;
//! * **Size** runs CTO's metadata-assisted LTBO over the compiled
//!   methods, replaying cached symbolization templates and group plans;
//!   it plans each method's edits and changes no method;
//! * **Link** lays out the final text segment from every body's words,
//!   writing each method once with its edits applied, and binds labels.
//!
//! A [`BuildSession`] owns the store and threads it through the stages,
//! so consecutive builds of related inputs recompile only the changed
//! methods. [`BuildSession::build`] is exactly the four stages in order
//! plus statistics. The session also remembers the key of every method
//! allocation it has keyed, so a rebuild hashes only the methods that
//! are new or compiled under another [`CompileConfig`] (see
//! [`BuildSession`]).
//!
//! # Determinism
//!
//! Warm and cold builds produce bit-identical OAT files, for any thread
//! count:
//!
//! * a method key covers exactly what per-method compilation reads — the
//!   schema salt, the [`CompileConfig`] and the method's canonical
//!   bytecode — so equal keys imply equal compile inputs, and compilation
//!   is a pure function of those inputs; a group-plan key covers exactly
//!   what detection reads, its members' symbol text and `min_len`;
//! * results land in method-index-order slots regardless of which
//!   worker produced them (see [`run_indexed`]);
//! * LTBO consumes cached symbolization *templates*
//!   ([`SymbolTemplate`]) rather than symbol sequences: fresh separator
//!   numbers are assigned at replay from the method's own index-derived
//!   band, exactly as direct extraction would assign them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use calibro_cache::{ArtifactStore, CacheConfig, CacheEntry, CacheKey};
use calibro_codegen::{compile_method, compile_native_stub, CodegenOptions, CompiledMethod};
use calibro_dex::{DexFile, Method};
use calibro_hgraph::{build_hgraph, run_pipeline_with, HGraph, PassStats};
use calibro_oat::{LinkInput, MethodEdits, OatFile, OutlinedBodies, RewriteStats};

use crate::driver::{BuildError, BuildOptions, BuildOutput, BuildStats, CompileConfig, WorkerLoad};
use crate::fingerprint::{compile_fingerprint, method_cache_key, reference_env};
use crate::ltbo::{build_template, outline_methods, LtboStats, OutlineError};

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
/// assert_eq!(warm.stats.methods_keyed, 0);
/// # Ok::<(), calibro::BuildError>(())
/// ```
///
/// # Method keys
///
/// Every build addresses each method by [`method_cache_key`], which
/// serializes and hashes the method's whole body under the build's
/// [`compile_fingerprint`](crate::compile_fingerprint). A method of a
/// [`DexFile`] is its own shared allocation, and a clone edited through
/// [`DexFile::method_mut`] shares every method it did not edit with the
/// original, so the session keeps the key of every allocation it has
/// keyed, with the compile fingerprint it was keyed under: a rebuild
/// hashes only the allocations it has not seen under its compile
/// fingerprint. Options that differ only outside the [`CompileConfig`]
/// (load address, hot set, LTBO mode, `min_seq_len`, thread counts)
/// share every key. [`BuildStats::methods_keyed`] counts the hashed ones.
///
/// A remembered key is the key of the method at that address because
/// the memo holds a [`Weak`] to the allocation. While a `Weak` exists,
/// the allocation is never freed, so its address is never reused by
/// another method; and the value in it cannot change in place:
/// [`Arc::get_mut`] refuses while a `Weak` exists, and [`Arc::make_mut`]
/// (what [`DexFile::method_mut`] calls) then moves the value to a new
/// allocation before handing out `&mut`. So a live `Arc` at a
/// remembered address is the allocation the key was computed from,
/// holding the bytes it was computed from. Keys are bit-identical to a
/// fresh session's: the memo only decides which ones are hashed again.
pub struct BuildSession {
    store: Arc<ArtifactStore>,
    /// The key of every method allocation this session has keyed (see
    /// "Method keys" above).
    keys: Mutex<KeyMemo>,
}

/// One method allocation's remembered key: the allocation it was
/// computed from (a `Weak`, which keeps its address from reuse and names
/// it), and the key with the compile fingerprint it was computed under.
struct MemoEntry {
    method: Weak<Method>,
    fp: CacheKey,
    key: CacheKey,
}

const _: () = assert!(std::mem::size_of::<MemoEntry>() == 40);

/// The session's method keys, one entry per allocation, in the order
/// they were first recorded: the methods of a program keyed in order —
/// and of every clone sharing them — sit side by side, so a warm build
/// reads its keys sequentially and probes `index` only past an edit.
/// Entries of dropped methods are swept once the memo has doubled since
/// the last sweep, so sweeping costs amortized O(1) per key.
#[derive(Default)]
struct KeyMemo {
    slots: Vec<MemoEntry>,
    /// Each entry's slot, by address.
    index: HashMap<usize, usize>,
    live_at_sweep: usize,
}

impl KeyMemo {
    /// The slot of `method`'s entry, if it has one: `guess` when that
    /// slot holds its address (an address has one entry), else `index`'s.
    fn slot(&self, method: &Arc<Method>, guess: usize) -> Option<usize> {
        let address = address(method);
        match self.slots.get(guess) {
            Some(entry) if entry.method.as_ptr() as usize == address => Some(guess),
            _ => self.index.get(&address).copied(),
        }
    }

    /// Records `key` as `method`'s under compile fingerprint `fp`.
    fn record(&mut self, method: &Arc<Method>, fp: CacheKey, key: CacheKey) {
        let entry = MemoEntry { method: Arc::downgrade(method), fp, key };
        match self.index.get(&address(method)) {
            Some(&slot) => self.slots[slot] = entry,
            None => {
                self.index.insert(address(method), self.slots.len());
                self.slots.push(entry);
            }
        }
    }

    /// Drops the entries of dropped methods, keeping the order of the
    /// rest, once the memo has doubled since the last sweep.
    fn sweep(&mut self) {
        if self.slots.len() > 2 * self.live_at_sweep {
            self.slots.retain(|entry| entry.method.strong_count() > 0);
            let live = self.slots.iter().enumerate();
            self.index = live.map(|(i, e)| (e.method.as_ptr() as usize, i)).collect();
            self.live_at_sweep = self.slots.len();
        }
    }
}

/// The address a method's memo entry is filed under.
fn address(method: &Arc<Method>) -> usize {
    Arc::as_ptr(method) as usize
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
        BuildSession::with_store(Arc::new(ArtifactStore::new(config)))
    }

    /// A session over an existing (possibly shared) store.
    #[must_use]
    pub fn with_store(store: Arc<ArtifactStore>) -> BuildSession {
        BuildSession { store, keys: Mutex::default() }
    }

    /// The session's artifact store (for counters or sharing).
    #[must_use]
    pub fn store(&self) -> &Arc<ArtifactStore> {
        &self.store
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
            methods_keyed: frontend.methods_keyed,
            verify_time: frontend.verify_time,
            key_time: frontend.key_time,
            graph_time: frontend.graph_time,
            compile_threads: options.compile_threads.max(1),
            ..BuildStats::default()
        };
        let graph_busy: Duration = frontend.graph_loads.iter().map(|w| w.busy).sum();

        let codegen = self.codegen(dex, options, frontend)?;
        stats.codegen_time = codegen.codegen_time;
        stats.compile_time = stats.key_time + stats.graph_time + stats.codegen_time;
        stats.passes = codegen.passes;
        stats.per_worker = codegen.per_worker.clone();
        stats.compile_cpu_time =
            graph_busy + stats.per_worker.iter().map(|w| w.busy).sum::<Duration>();
        stats.methods = codegen.outcomes.len();
        stats.methods_from_cache = codegen.outcomes.iter().filter(|o| o.cache_hit).count();

        let size = self.outline(options, codegen)?;
        stats.words_before_ltbo = size.words_before;
        stats.ltbo = size.ltbo;
        stats.ltbo_time = size.ltbo_time;
        stats.detect_time = size.detect_time;

        let link_start = Instant::now();
        let (oat, rewrite) = self.link_with_stats(options, size)?;
        stats.link_time = link_start.elapsed();
        stats.rewrite = rewrite;
        stats.cache = self.store.stats().since(&base);
        Ok(BuildOutput { oat, stats })
    }

    /// Stage 1 — **Frontend**: computes every method's cache key,
    /// probes the store, verifies the dex (hits skip the intrinsic
    /// per-method checks their key already covers), and builds HGraphs
    /// for the misses.
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
        let (keys, methods_keyed) = self.method_keys(dex, options)?;
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

        // Hit first: a hit reads nothing of its method, so an all-hit
        // build never loads the methods' allocations here.
        let need_graph: Vec<bool> =
            inputs.iter().zip(&cached).map(|(m, hit)| hit.is_none() && !m.is_native).collect();
        let start = Instant::now();
        let (graphs, graph_loads) =
            run_indexed(inputs.len(), threads, |i| need_graph[i].then(|| build_hgraph(&inputs[i])))
                .map_err(|p| BuildError::CompileWorker { method: p.index, message: p.message })?;
        let graph_time = start.elapsed();

        Ok(FrontendArtifact {
            keys,
            methods_keyed,
            cached,
            graphs,
            ref_env,
            verify_time,
            key_time,
            graph_time,
            graph_loads,
        })
    }

    /// Every method's [`method_cache_key`] under `options`, in
    /// method-index order, and how many of them were hashed: the memo
    /// answers every allocation it holds under these options, and the
    /// rest are hashed unlocked — fanned out like codegen, each worker
    /// serializing into its own reused buffer — then recorded.
    fn method_keys(
        &self,
        dex: &DexFile,
        options: &BuildOptions,
    ) -> Result<(Vec<CacheKey>, usize), BuildError> {
        let fp = compile_fingerprint(&options.compile_config());
        let methods = dex.methods();
        // A miss's place holds a placeholder until its key is hashed.
        let mut misses = Vec::new();
        let mut keys = Vec::with_capacity(methods.len());
        {
            let memo = self.key_memo();
            // Guess each method's slot as the last slot found plus the
            // method's distance from that one in this program: the next
            // slot for a program keyed in order, and past an edit too.
            let (mut last_slot, mut last_i) = (0, 0);
            for (i, m) in methods.iter().enumerate() {
                let slot = memo.slot(m, last_slot + (i - last_i));
                if let Some(slot) = slot {
                    (last_slot, last_i) = (slot, i);
                }
                match slot.map(|slot| &memo.slots[slot]).filter(|entry| entry.fp == fp) {
                    Some(entry) => keys.push(entry.key),
                    None => {
                        misses.push(i);
                        keys.push(fp);
                    }
                }
            }
        }
        if !misses.is_empty() {
            let threads = options.compile_threads.max(1);
            let (hashed, _) =
                run_indexed(misses.len(), threads, |j| method_cache_key(&methods[misses[j]], fp))
                    .map_err(|p| BuildError::CompileWorker {
                    method: misses[p.index],
                    message: p.message,
                })?;
            let mut memo = self.key_memo();
            for (&i, key) in misses.iter().zip(hashed) {
                keys[i] = key;
                memo.record(&methods[i], fp, key);
            }
            memo.sweep();
        }
        Ok((keys, misses.len()))
    }

    /// The key memo. A poisoned lock is recovered (DESIGN.md §7 "Lock
    /// policy"): a critical section only reads entries, records keys (an
    /// entry written whole, or a new one with its index entry) or sweeps.
    /// Each entry names the allocation it was computed from, so a dead
    /// holder leaves at worst a key not yet recorded.
    fn key_memo(&self) -> MutexGuard<'_, KeyMemo> {
        self.keys.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stage 2 — **Codegen**: for every cache miss, runs the pass
    /// pipeline and code generation, builds the LTBO symbolization
    /// template (when it collects metadata), and populates the store;
    /// every hit is replayed from its entry. It reads the options only
    /// through [`BuildOptions::compile_config`], and `compile_threads` to
    /// schedule. Results land in method-index order.
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
        // All a method's compilation reads of the options, as its key
        // covers it. LTBO places its separators from method metadata, so
        // a method compiled with metadata gets its symbolization template.
        let CompileConfig { cto, passes, metadata } = options.compile_config();
        let codegen_opts = CodegenOptions { cto, collect_metadata: metadata };
        let inputs = dex.methods();
        let FrontendArtifact { keys, cached, graphs, ref_env, .. } = frontend;
        let start = Instant::now();
        // Workers take ownership of their graph through a per-slot mutex
        // (locked exactly once, by the worker that drew the index).
        let cells: Vec<Mutex<Option<HGraph>>> = graphs.into_iter().map(Mutex::new).collect();
        // A method's words and tables are shared between its outcome and
        // its entry, so neither a hit nor a miss copies them. The entry
        // keeps no instructions: a hit is words only, and the instructions
        // a miss was compiled to live on its outcome, for this build alone.
        let (outcomes, per_worker) = run_indexed(inputs.len(), threads, |i| {
            if let Some(entry) = &cached[i] {
                return MethodOutcome {
                    compiled: entry.compiled.clone(),
                    pass_stats: entry.pass_stats,
                    entry: Arc::clone(entry),
                    cache_hit: true,
                };
            }
            let graph = cells[i].lock().unwrap_or_else(PoisonError::into_inner).take();
            let (compiled, pass_stats) = match graph {
                None => (compile_native_stub(inputs[i].id, &codegen_opts), PassStats::default()),
                Some(mut graph) => {
                    let pass_stats = run_pipeline_with(&mut graph, &passes);
                    (compile_method(&graph, &codegen_opts), pass_stats)
                }
            };
            let template = metadata.then(|| build_template(&compiled, false));
            let stored = CompiledMethod { insns: Arc::default(), ..compiled.clone() };
            let entry = CacheEntry { compiled: stored, pass_stats, template, ref_env };
            let entry = self.store.methods().insert(keys[i], entry);
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

    /// Stage 3 — **Size**: LTBO over the compiled methods (see
    /// [`run_ltbo`](crate::run_ltbo)), when the options ask for it. It plans the
    /// outlined functions and each method's edits, which the linker
    /// applies; no method changes here. Symbolization templates and
    /// group plans replay through the session's store, so only content
    /// that changed is re-analyzed. A pass-through when
    /// [`BuildOptions::ltbo`] is `None`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::OutlineWorker`] when one group's detection
    /// or materialization panics, and [`BuildError::Cache`] when a
    /// persisted group plan is corrupt.
    pub fn outline(
        &self,
        options: &BuildOptions,
        codegen: CodegenArtifact,
    ) -> Result<SizeArtifact, BuildError> {
        let (methods, entries): (Vec<_>, Vec<_>) =
            codegen.outcomes.into_iter().map(|o| (o.compiled, o.entry)).unzip();
        let words_before = methods.iter().map(CompiledMethod::size_words).sum();
        let Some(config) = options.ltbo_config() else {
            return Ok(SizeArtifact { methods, words_before, ..SizeArtifact::default() });
        };
        let start = Instant::now();
        let (result, edits) = outline_methods(&methods, &entries, &config, Some(&self.store))
            .map_err(|e| match e {
                OutlineError::Worker { group, message } => {
                    BuildError::OutlineWorker { group, message }
                }
                OutlineError::Cache(e) => BuildError::Cache(e),
            })?;
        Ok(SizeArtifact {
            methods,
            edits,
            outlined: result.outlined,
            ltbo: result.stats,
            ltbo_time: start.elapsed(),
            detect_time: result.detect_time,
            words_before,
        })
    }

    /// Stage 4 — **Link**: lays out the final text segment from every
    /// body's words, applying the outline pass's edits as it writes each
    /// method, and binds call labels to addresses.
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
        self.link_with_stats(options, artifact).map(|(oat, _)| oat)
    }

    /// [`link`](Self::link), and what applying the edits changed.
    fn link_with_stats(
        &self,
        options: &BuildOptions,
        artifact: SizeArtifact,
    ) -> Result<(OatFile, RewriteStats), BuildError> {
        let SizeArtifact { methods, edits, outlined, .. } = artifact;
        calibro_oat::link_with_stats(LinkInput { methods, edits, outlined }, options.base_address)
            .map_err(BuildError::Link)
    }
}

/// The frontend stage's output: per-method cache keys, probe results,
/// and the HGraphs of every method that must be (re)compiled.
pub struct FrontendArtifact {
    /// Content address of each method, in method-index order.
    pub keys: Vec<CacheKey>,
    /// How many of `keys` this build hashed; the rest came from the
    /// session's key memo.
    pub methods_keyed: usize,
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
    /// Per-worker load of the graph-building fan.
    pub graph_loads: Vec<WorkerLoad>,
}

/// One method's compilation outcome within a [`CodegenArtifact`].
pub struct MethodOutcome {
    /// The compiled method, sharing its words and every table with
    /// `entry.compiled`. A miss also carries the instructions codegen
    /// just emitted, which its entry does not keep; a hit is words only.
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

/// The size stage's output, what the linker reads: the methods, the
/// edits planned for them, and what LTBO extracted out of them.
#[derive(Default)]
pub struct SizeArtifact {
    /// The methods, in method-index order, as codegen left them.
    /// Outlining changes none of them: its occurrences are in `edits`.
    pub methods: Vec<CompiledMethod>,
    /// Each method's outlined occurrences, sorted by first word: the
    /// linker replaces each with a `bl` as it writes the method into the
    /// text segment. Empty when LTBO is off.
    pub edits: MethodEdits,
    /// Outlined function bodies' words, in `CallTarget::Outlined` index
    /// order, as one buffer.
    pub outlined: OutlinedBodies,
    /// LTBO statistics (zeroed when LTBO is off).
    pub ltbo: LtboStats,
    /// Wall time of the stage: planning, not applying, the edits.
    pub ltbo_time: Duration,
    /// Wall time re-detecting the dirty groups: their symbol text,
    /// suffix trees and plan rows (excludes the templates, the group
    /// keys and store probes, and replaying the plans into edits).
    pub detect_time: Duration,
    /// Total instruction words before outlining.
    pub words_before: usize,
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
#[must_use]
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
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

    /// The session's key memo, against [`method_cache_key`] recomputed
    /// and against a fresh session's bytes.
    mod key_memo {
        use super::*;
        use crate::LtboMode;
        use calibro_dex::{wire, ClassId, DexInsn, MethodBuilder, VReg};
        use calibro_workloads::{generate, mutate_methods, AppSpec};
        use proptest::prelude::*;

        /// Options arms: the global and the sharded tree and a hot
        /// filter, which share one compile config, and a plain build,
        /// which has another.
        fn arms(methods: u32) -> Vec<(&'static str, BuildOptions)> {
            vec![
                ("plain", BuildOptions::baseline()),
                ("global", BuildOptions::cto_ltbo()),
                (
                    "parallel",
                    BuildOptions {
                        ltbo: Some(LtboMode::Parallel { groups: 4, threads: 2 }),
                        compile_threads: 2,
                        ..BuildOptions::cto_ltbo()
                    },
                ),
                (
                    "hot",
                    BuildOptions::cto_ltbo().with_hot_filter((0..methods).step_by(3).collect()),
                ),
            ]
        }

        /// Every method's key, hashed afresh.
        fn recomputed(dex: &DexFile, options: &BuildOptions) -> Vec<CacheKey> {
            let fp = compile_fingerprint(&options.compile_config());
            dex.methods().iter().map(|m| method_cache_key(m, fp)).collect()
        }

        fn elf(out: &BuildOutput) -> Vec<u8> {
            calibro_oat::to_elf_bytes(&out.oat)
        }

        #[test]
        fn every_arm_keys_once_and_builds_a_fresh_sessions_bytes() {
            let app = generate(&AppSpec::small("held", 71));
            let methods = app.dex.methods().len();
            for (arm, options) in arms(methods as u32) {
                let cold = BuildSession::new().build(&app.dex, &options).expect("build");
                let session = BuildSession::new();
                let first = session.build(&app.dex, &options).expect("first build");
                assert_eq!(first.stats.methods_keyed, methods, "{arm}: a new session keys all");
                let warm = session.build(&app.dex, &options).expect("warm build");
                assert_eq!(elf(&first), elf(&cold), "{arm}: artifact");
                assert_eq!(elf(&warm), elf(&cold), "{arm}: warm artifact");
                assert_eq!(warm.stats.methods_keyed, 0, "{arm}: the memo answers every key");
                assert_eq!(warm.stats.methods_from_cache, methods, "{arm}: all hits");
                // A clone shares its methods, so it is keyed already.
                let frontend = session.frontend(&app.dex.clone(), &options).expect("frontend");
                assert_eq!(frontend.methods_keyed, 0, "{arm}: a clone is keyed already");
                assert_eq!(frontend.keys, recomputed(&app.dex, &options), "{arm}: keys");
            }
        }

        /// Options that differ from `cto_ltbo` only outside its compile
        /// config: load address, `min_seq_len` and compile threads, and
        /// by turns a hot set or the sharded tree.
        fn outside(n: u64) -> BuildOptions {
            let options = BuildOptions {
                base_address: 0x4000_0000 + 0x10_0000 * n,
                min_seq_len: 2 + n as usize % 3,
                compile_threads: 1 + n as usize % 2,
                ..BuildOptions::cto_ltbo()
            };
            match n % 3 {
                0 => options,
                1 => options.with_hot_filter((0..n as u32).collect()),
                _ => BuildOptions {
                    ltbo: Some(LtboMode::Parallel { groups: 4, threads: n as usize }),
                    ..options
                },
            }
        }

        /// One session builds a program under options in turn, each
        /// build to a fresh session's bytes with every key
        /// `method_cache_key`'s: options that differ only outside the
        /// compile config key and compile no method, and a rebuild that
        /// changes only the sharded tree's thread count replays every
        /// group plan too; another compile config replaces the keys.
        #[test]
        fn an_allocation_keeps_one_key_under_its_last_compile_config() {
            let app = generate(&AppSpec::small("ways", 72));
            let methods = app.dex.methods().len();
            let session = BuildSession::new();
            // How many methods the build keyed and how many it compiled.
            let build = |options: &BuildOptions| {
                let out = session.build(&app.dex, options).expect("build");
                let fresh = BuildSession::new().build(&app.dex, options).expect("fresh build");
                assert_eq!(elf(&out), elf(&fresh), "artifact under {options:?}");
                let frontend = session.frontend(&app.dex, options).expect("frontend");
                assert_eq!(frontend.keys, recomputed(&app.dex, options), "keys under {options:?}");
                (out.stats.methods_keyed, methods - out.stats.methods_from_cache)
            };
            assert_eq!(build(&outside(0)), (methods, methods), "a new session keys all");
            for n in 1..7 {
                assert_eq!(build(&outside(n)), (0, 0), "options {n} share the compile config");
            }
            let sharded = |threads| BuildOptions {
                ltbo: Some(LtboMode::Parallel { groups: 4, threads }),
                ..outside(0)
            };
            assert_eq!(build(&sharded(1)), (0, 0), "the sharded tree shares it too");
            let out = session.build(&app.dex, &sharded(3)).expect("three threads");
            let groups = out.stats.ltbo.detection_groups as u64;
            assert_eq!((out.stats.cache.group_hits, out.stats.cache.group_misses), (groups, 0));

            let plain = BuildOptions::baseline();
            assert_eq!(build(&plain), (methods, methods), "another compile config is keyed anew");
            assert_eq!(build(&plain.clone().with_compile_threads(4)), (0, 0));
            assert_eq!(build(&outside(0)), (methods, 0), "the plain keys replaced the first");
        }

        /// A held program rebuilt under options in turn: two load
        /// addresses (calibrod answering two clients that differ only
        /// there) key it once, and two compile configs at every switch.
        /// Every build of the second kind replays every method but the
        /// first one's: the store keeps both configs' entries.
        #[test]
        fn alternating_options_key_each_method_once_per_compile_config_switch() {
            let app = generate(&AppSpec::small("alternating", 75));
            let methods = app.dex.methods().len();
            let session = BuildSession::new();
            let at = |n: u64| BuildOptions { base_address: 0x4000_0000 + n, ..outside(0) };
            for build in 0..8 {
                let out = session.build(&app.dex, &at(build % 2)).expect("build");
                let keyed = if build == 0 { methods } else { 0 };
                assert_eq!(out.stats.methods_keyed, keyed, "build {build}");
            }
            for build in 0..4 {
                let options = if build % 2 == 0 { BuildOptions::baseline() } else { at(0) };
                let out = session.build(&app.dex, &options).expect("build");
                assert_eq!(out.stats.methods_keyed, methods, "switch {build}");
                let replayed = if build == 0 { 0 } else { methods };
                assert_eq!(out.stats.methods_from_cache, replayed, "switch {build}");
                let fresh = BuildSession::new().build(&app.dex, &options).expect("fresh");
                assert_eq!(elf(&out), elf(&fresh), "switch {build}");
            }
        }

        #[test]
        fn a_poisoned_memo_keeps_answering() {
            let app = generate(&AppSpec::small("poisoned-memo", 73));
            let options = BuildOptions::cto_ltbo();
            let session = Arc::new(BuildSession::new());
            let before = session.frontend(&app.dex, &options).expect("frontend").keys;
            let holder = Arc::clone(&session);
            let died = std::thread::spawn(move || {
                let _memo = holder.keys.lock();
                panic!("a holder of the key memo dies");
            });
            assert!(died.join().is_err());
            assert!(session.keys.is_poisoned());
            let after = session.frontend(&app.dex, &options).expect("frontend");
            assert_eq!((after.methods_keyed, after.keys), (0, before));
        }

        /// A program edited in place once the build that keyed it has
        /// returned: the memo's `Weak` is all that names the old
        /// allocation, so the edit moves the method and it is keyed anew.
        #[test]
        fn an_in_place_edit_under_the_memos_weak_is_keyed_anew() {
            let mut dex = generate(&AppSpec::small("in-place", 74)).dex;
            let options = BuildOptions::cto_ltbo();
            let session = BuildSession::new();
            session.build(&dex, &options).expect("build");
            let id = mutate_methods(&mut dex.clone(), 5, 0.0)[0];
            let method = &dex.methods()[id.index()];
            assert_eq!((Arc::strong_count(method), Arc::weak_count(method)), (1, 1));
            let before = Arc::as_ptr(method);
            mutate_methods(&mut dex, 5, 0.0);
            assert_ne!(Arc::as_ptr(&dex.methods()[id.index()]), before, "the edit moved it");

            let rebuilt = session.build(&dex, &options).expect("rebuild");
            assert_eq!(rebuilt.stats.methods_keyed, 1);
            assert_eq!(rebuilt.stats.methods_from_cache, dex.methods().len() - 1);
            let fresh = BuildSession::new().build(&dex, &options).expect("fresh");
            assert_eq!(elf(&rebuilt), elf(&fresh));
            let frontend = session.frontend(&dex, &options).expect("frontend");
            assert_eq!(frontend.keys, recomputed(&dex, &options));
        }

        /// A small app, so a script's builds stay quick in a debug run.
        fn tiny(seed: u64) -> DexFile {
            let spec = AppSpec {
                methods: 14,
                classes: 2,
                natives: 1,
                clone_families: 1,
                trace_len: 8,
                ..AppSpec::small("script", seed)
            };
            generate(&spec).dex
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Random scripts against one session: clone and edit, add a
            /// method, edit a uniquely owned program in place, round-trip
            /// it through the wire, change the options arm or the load
            /// address. After each step, the build hashes exactly the
            /// allocations the session holds no key of under its compile
            /// config (it keeps an allocation's key under its last one),
            /// every key is `method_cache_key`'s, and the bytes are a
            /// fresh session's.
            #[test]
            fn the_memo_hashes_exactly_the_allocations_it_has_not_keyed(
                seed in any::<u64>(),
                script in proptest::collection::vec((0u8..6, any::<u64>()), 1..8),
            ) {
                let mut dex = tiny(seed);
                let arms = arms(dex.methods().len() as u32);
                let mut options = arms[1].1.clone();
                let session = BuildSession::new();
                // The model: the compile fingerprint each allocation was
                // last keyed under. Its `Weak`s keep every address it
                // names from reuse.
                let mut seen: HashMap<usize, (Weak<Method>, CacheKey)> = HashMap::new();
                let mut older: Vec<DexFile> = Vec::new();
                for (step, (op, arg)) in std::iter::once((6, 0)).chain(script).enumerate() {
                    match op {
                        0 => {
                            let mut edited = dex.clone();
                            mutate_methods(&mut edited, arg, 0.2);
                            older.push(std::mem::replace(&mut dex, edited));
                        }
                        1 => {
                            let mut b = MethodBuilder::new("added", 1, 0);
                            b.push(DexInsn::Const { dst: VReg(0), value: arg as i32 });
                            b.push(DexInsn::Return { src: VReg(0) });
                            dex.add_method(b.build(ClassId(0)));
                        }
                        2 => {
                            older.clear();
                            let unique = dex.methods().iter().all(|m| Arc::strong_count(m) == 1);
                            prop_assert!(unique, "step {}: the program is uniquely owned", step);
                            mutate_methods(&mut dex, arg, 0.2);
                        }
                        3 => dex = wire::decode(&wire::encode(&dex)).expect("round trip"),
                        4 => options = arms[(arg % 4) as usize].1.clone(),
                        5 => options.base_address = 0x4000_0000 + 0x10_0000 * (arg % 6),
                        _ => {}
                    }
                    let fp = compile_fingerprint(&options.compile_config());
                    let unseen = dex
                        .methods()
                        .iter()
                        .filter(|m| seen.get(&address(m)).is_none_or(|&(_, last)| last != fp))
                        .count();
                    let built = session.build(&dex, &options).expect("build");
                    prop_assert_eq!(built.stats.methods_keyed, unseen, "step {}", step);
                    let fresh = BuildSession::new().build(&dex, &options).expect("fresh build");
                    prop_assert!(elf(&built) == elf(&fresh), "step {}: artifact", step);
                    let frontend = session.frontend(&dex, &options).expect("frontend");
                    prop_assert_eq!(frontend.methods_keyed, 0, "step {}", step);
                    prop_assert_eq!(frontend.keys, recomputed(&dex, &options), "step {}", step);
                    for m in dex.methods() {
                        seen.entry(address(m)).or_insert_with(|| (Arc::downgrade(m), fp)).1 = fp;
                    }
                }
            }
        }
    }
}
