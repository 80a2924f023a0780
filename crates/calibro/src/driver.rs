//! Build configuration, statistics and errors for the `dex2oat`-style
//! driver, plus the one-shot [`build`] entry point. The staged pipeline
//! itself — frontend, codegen, outline, link, with the content-addressed
//! artifact cache between builds — lives in
//! [`pipeline`](crate::pipeline).

use std::collections::HashSet;
use std::time::Duration;

use calibro_cache::{CacheError, CacheStats};
use calibro_dex::DexFile;
use calibro_hgraph::{PassStats, PipelineConfig};
use calibro_oat::{LinkError, OatFile, RewriteStats, DEFAULT_BASE_ADDRESS};

use crate::ltbo::{LtboConfig, LtboMode, LtboStats};
use crate::pipeline::BuildSession;

/// Full build configuration — one row of the paper's Table 4 matrix.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BuildOptions {
    /// Compilation-time outlining of the three ART patterns (§3.1).
    pub cto: bool,
    /// Link-time binary outlining (§3.2-§3.3); `None` disables LTBO,
    /// and with it the size stage
    /// ([`BuildSession::outline`](crate::BuildSession::outline)).
    pub ltbo: Option<LtboMode>,
    /// Minimum outlined sequence length (instructions).
    pub min_seq_len: usize,
    /// Hot methods to filter (§3.4.2), usually from
    /// [`calibro_profile`](https://docs.rs) profiling.
    pub hot_methods: Option<HashSet<u32>>,
    /// Load address for the text segment.
    pub base_address: u64,
    /// Collect LTBO metadata even when LTBO is off (used by the
    /// redundancy-analysis tooling behind the paper's Table 1).
    pub force_metadata: bool,
    /// Worker threads for the per-method compile phase (HGraph build,
    /// pass pipeline, codegen). `1` (the default) compiles sequentially
    /// on the calling thread. Per-method compilation is independent, so
    /// the linked output is bit-identical for every thread count:
    /// results land in index-order slots regardless of completion order.
    pub compile_threads: usize,
    /// Per-pass switches for the optimization pipeline. Defaults to every
    /// pass enabled; the conformance harness compiles under pass subsets
    /// to prove outlining is sound on unoptimized and partially optimized
    /// code alike.
    pub passes: PipelineConfig,
}

impl Default for BuildOptions {
    fn default() -> BuildOptions {
        BuildOptions {
            cto: false,
            ltbo: None,
            min_seq_len: 2,
            hot_methods: None,
            base_address: DEFAULT_BASE_ADDRESS,
            force_metadata: false,
            compile_threads: 1,
            passes: PipelineConfig::all(),
        }
    }
}

impl BuildOptions {
    /// The paper's Baseline: all dex2oat optimizations, no outlining.
    #[must_use]
    pub fn baseline() -> BuildOptions {
        BuildOptions::default()
    }

    /// The paper's `CTO` configuration.
    #[must_use]
    pub fn cto() -> BuildOptions {
        BuildOptions { cto: true, ..BuildOptions::default() }
    }

    /// The paper's `CTO+LTBO` configuration (single global suffix tree).
    #[must_use]
    pub fn cto_ltbo() -> BuildOptions {
        BuildOptions { cto: true, ltbo: Some(LtboMode::Global), ..BuildOptions::default() }
    }

    /// The paper's `CTO+LTBO+PlOpti` configuration.
    #[must_use]
    pub fn cto_ltbo_parallel(groups: usize, threads: usize) -> BuildOptions {
        BuildOptions {
            cto: true,
            ltbo: Some(LtboMode::Parallel { groups, threads }),
            ..BuildOptions::default()
        }
    }

    /// Exactly [`cto_ltbo`](Self::cto_ltbo). Function merging is gone
    /// (DESIGN.md §12); this name stays only because the benchmark
    /// harness builds with it, and goes when the harness stops.
    #[must_use]
    pub fn cto_merge_ltbo() -> BuildOptions {
        BuildOptions::cto_ltbo()
    }

    /// Adds hot-function filtering (`HfOpti`, §3.4.2).
    #[must_use]
    pub fn with_hot_filter(mut self, hot: HashSet<u32>) -> BuildOptions {
        self.hot_methods = Some(hot);
        self
    }

    /// Sets the worker-thread count for the per-method compile phase.
    #[must_use]
    pub fn with_compile_threads(mut self, threads: usize) -> BuildOptions {
        self.compile_threads = threads;
        self
    }

    /// Sets the per-pass pipeline switches (conformance harnesses compile
    /// under pass subsets; the defaults enable every pass).
    #[must_use]
    pub fn with_passes(mut self, passes: PipelineConfig) -> BuildOptions {
        self.passes = passes;
        self
    }

    /// What per-method compilation reads of these options: the one
    /// input of a method's key besides its body (DESIGN.md §7).
    #[must_use]
    pub fn compile_config(&self) -> CompileConfig {
        CompileConfig {
            cto: self.cto,
            passes: self.passes,
            metadata: self.ltbo.is_some() || self.force_metadata,
        }
    }

    /// The outline pass's configuration under these options (`None`
    /// when LTBO is off) — what the size stage runs with and what the
    /// wire's LTBO fingerprint is derived from.
    #[must_use]
    pub fn ltbo_config(&self) -> Option<LtboConfig> {
        self.ltbo.map(|mode| LtboConfig {
            mode,
            min_len: self.min_seq_len,
            hot_methods: self.hot_methods.clone(),
        })
    }
}

/// The options per-method compilation reads, derived from
/// [`BuildOptions::compile_config`]: codegen compiles each method from
/// its body and these alone, so they and the body are all its cache key
/// covers. `compile_threads` only schedules, and the LTBO mode, hot set,
/// `min_seq_len` and load address are read after codegen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompileConfig {
    /// Compilation-time outlining (§3.1).
    pub cto: bool,
    /// The pass pipeline's switches.
    pub passes: PipelineConfig,
    /// Whether codegen collects the §3.2 metadata, and with it builds
    /// each method's symbolization template: under LTBO, or when
    /// [`BuildOptions::force_metadata`] asks for it.
    pub metadata: bool,
}

/// Load record for one compile worker.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Methods this worker processed.
    pub items: usize,
    /// Wall time the worker spent between first and last item.
    pub busy: Duration,
}

/// Phase timings and statistics for one build (Table 6's raw data, plus
/// the observability layer behind `BENCH_*.json`).
#[derive(Clone, Debug, Default)]
pub struct BuildStats {
    /// Time compiling methods (keys + HGraph + passes + codegen).
    pub compile_time: Duration,
    /// Time verifying the input dex.
    pub verify_time: Duration,
    /// Time computing cache keys and probing the artifact store (part
    /// of `compile_time`).
    pub key_time: Duration,
    /// Time building HGraphs (part of `compile_time`).
    pub graph_time: Duration,
    /// Time in the pass pipeline + codegen (part of `compile_time`).
    pub codegen_time: Duration,
    /// CPU time summed across compile workers (≈ `compile_time` at one
    /// thread; up to `compile_threads ×` beyond it when parallel).
    pub compile_cpu_time: Duration,
    /// Worker threads used for the compile phase.
    pub compile_threads: usize,
    /// Per-worker load for the pipeline + codegen phase, in worker
    /// order.
    pub per_worker: Vec<WorkerLoad>,
    /// Optimization-pass counters aggregated over all methods (merged in
    /// method-index order, so identical for every thread count).
    pub passes: PassStats,
    /// Time in LTBO: suffix trees (or plan replay), outlined bodies, and
    /// planning each method's edits. Applying them is link time.
    pub ltbo_time: Duration,
    /// Time re-detecting the groups whose plan the cache did not hold:
    /// their symbol text, suffix trees and plan rows. A subset of
    /// [`ltbo_time`](Self::ltbo_time) that excludes the group keys,
    /// the store probes and replaying plans into edits; on a build that
    /// replays every plan it is zero.
    pub detect_time: Duration,
    /// Time linking: laying out and writing the text segment, applying
    /// LTBO's edits (call sites, PC-relative patches, remapped records)
    /// and binding calls.
    pub link_time: Duration,
    /// LTBO statistics (zeroed when LTBO is off).
    pub ltbo: LtboStats,
    /// What the linker's applying LTBO's edits changed beyond the call
    /// sites: PC-relative sites re-encoded, stack-map entries moved
    /// (zeroed when nothing was outlined). In the JSON form, with `ltbo`.
    pub rewrite: RewriteStats,
    /// Methods compiled.
    pub methods: usize,
    /// Methods replayed from the artifact cache instead of compiled
    /// (part of `methods`).
    pub methods_from_cache: usize,
    /// Methods whose cache key this build hashed: the methods the
    /// session had not keyed before under this build's
    /// [`CompileConfig`] (the rest reuse the key their allocation was
    /// given by an earlier build, see [`BuildSession`](crate::BuildSession)).
    pub methods_keyed: usize,
    /// Artifact-store activity attributable to this build (hits,
    /// misses, stores, evictions and the disk-layer counters).
    pub cache: CacheStats,
    /// Total instruction words before LTBO.
    pub words_before_ltbo: usize,
    /// Profile-feedback generation this build belongs to: 0 for a
    /// plain one-shot build, `>= 1` when calibrod built it for a
    /// tenant's generation table (each drift-triggered refresh bumps
    /// it). Byte determinism is promised *within* a generation — same
    /// generation, same bytes.
    pub generation: u64,
}

impl BuildStats {
    /// Total wall-clock build time: the four top-level phases (verify,
    /// compile, LTBO, link), which together cover every stage of the
    /// build.
    #[must_use]
    pub fn total_time(&self) -> Duration {
        self.verify_time + self.compile_time + self.ltbo_time + self.link_time
    }

    /// Serializes the stats as a self-contained JSON object (hand
    /// rolled — every field is numeric, so no escaping is needed). Its
    /// `merge` object is two zeros: function merging is gone, and the
    /// benchmark harness still reads them by name.
    #[must_use]
    pub fn to_json(&self) -> String {
        let us = |d: Duration| d.as_micros();
        let per_worker: Vec<String> = self
            .per_worker
            .iter()
            .map(|w| format!(r#"{{"items":{},"busy_us":{}}}"#, w.items, us(w.busy)))
            .collect();
        let p = &self.passes;
        let l = &self.ltbo;
        let r = &self.rewrite;
        format!(
            concat!(
                "{{",
                r#""methods":{},"methods_from_cache":{},"methods_keyed":{},"words_before_ltbo":{},"#,
                r#""compile_threads":{},"generation":{},"#,
                r#""times_us":{{"verify":{},"keys":{},"graphs":{},"codegen":{},"#,
                r#""compile":{},"ltbo":{},"detect":{},"link":{},"total":{}}},"#,
                r#""compile_cpu_us":{},"per_worker":[{}],"#,
                r#""cache":{},"#,
                r#""passes":{{"folded":{},"copies_propagated":{},"dead_removed":{},"#,
                r#""simplified":{},"iterations":{},"insns_in":{},"insns_out":{}}},"#,
                r#""ltbo":{{"candidate_methods":{},"excluded_methods":{},"#,
                r#""hot_restricted_methods":{},"outlined_functions":{},"#,
                r#""occurrences_replaced":{},"words_saved":{},"pc_rel_patched":{},"#,
                r#""stack_maps_updated":{},"detection_groups":{}}},"#,
                r#""merge":{{"merged_methods":0,"words_saved":0}}"#,
                "}}",
            ),
            self.methods,
            self.methods_from_cache,
            self.methods_keyed,
            self.words_before_ltbo,
            self.compile_threads,
            self.generation,
            us(self.verify_time),
            us(self.key_time),
            us(self.graph_time),
            us(self.codegen_time),
            us(self.compile_time),
            us(self.ltbo_time),
            us(self.detect_time),
            us(self.link_time),
            us(self.total_time()),
            us(self.compile_cpu_time),
            per_worker.join(","),
            self.cache.to_json(),
            p.folded,
            p.copies_propagated,
            p.dead_removed,
            p.simplified,
            p.iterations,
            p.insns_in,
            p.insns_out,
            l.candidate_methods,
            l.excluded_methods,
            l.hot_restricted_methods,
            l.outlined_functions,
            l.occurrences_replaced,
            l.words_saved,
            r.pc_rel_patched,
            r.stack_maps_updated,
            l.detection_groups,
        )
    }
}

/// The output of a build.
#[derive(Debug)]
pub struct BuildOutput {
    /// The linked OAT file.
    pub oat: OatFile,
    /// Build statistics.
    pub stats: BuildStats,
}

/// A build failure.
#[derive(Debug)]
pub enum BuildError {
    /// The input dex file failed verification.
    Verify(calibro_dex::VerifyError),
    /// The persistent artifact cache holds a corrupt or unreadable
    /// entry for one of this build's keys. Surfaced as an error (never
    /// silently recompiled around) so poisoned caches get diagnosed.
    Cache(CacheError),
    /// Linking failed.
    Link(LinkError),
    /// A compile worker panicked while processing one method. The panic
    /// is caught at the pool boundary and surfaced with the method index
    /// and payload message instead of aborting the whole process.
    CompileWorker {
        /// Index of the method whose compilation panicked (lowest index
        /// when several workers fault in one phase).
        method: usize,
        /// The panic payload, rendered as text.
        message: String,
    },
    /// An outline worker panicked while detecting or materializing one
    /// detection group's plan.
    OutlineWorker {
        /// Index of the detection group whose worker panicked.
        group: usize,
        /// The panic payload, rendered as text.
        message: String,
    },
}

impl core::fmt::Display for BuildError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BuildError::Verify(e) => write!(f, "dex verification failed: {e}"),
            BuildError::Cache(e) => write!(f, "artifact cache failed: {e}"),
            BuildError::Link(e) => write!(f, "linking failed: {e}"),
            BuildError::CompileWorker { method, message } => {
                write!(f, "compile worker for method {method} panicked: {message}")
            }
            BuildError::OutlineWorker { group, message } => {
                write!(f, "outline worker for group {group} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Verify(e) => Some(e),
            BuildError::Cache(e) => Some(e),
            BuildError::Link(e) => Some(e),
            BuildError::CompileWorker { .. } | BuildError::OutlineWorker { .. } => None,
        }
    }
}

/// Compiles a dex file into an OAT file under the given options — the
/// reproduction's `dex2oat` entry point. Runs the staged pipeline
/// through a one-shot [`BuildSession`]; callers that rebuild related
/// inputs should keep a session alive instead, so unchanged methods
/// replay from its artifact cache.
///
/// # Errors
///
/// Returns [`BuildError`] if the input fails bytecode verification or
/// the final link fails.
pub fn build(dex: &DexFile, options: &BuildOptions) -> Result<BuildOutput, BuildError> {
    BuildSession::new().build(dex, options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_json_is_well_formed() {
        let stats = BuildStats {
            methods: 12,
            methods_keyed: 5,
            compile_threads: 4,
            generation: 3,
            per_worker: vec![
                WorkerLoad { items: 7, busy: Duration::from_micros(250) },
                WorkerLoad { items: 5, busy: Duration::from_micros(310) },
            ],
            ..BuildStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains(r#""methods":12"#));
        assert!(json.contains(r#""methods_keyed":5"#));
        assert!(json.contains(r#""compile_threads":4"#));
        assert!(json.contains(r#""generation":3"#));
        assert!(
            json.contains(r#""per_worker":[{"items":7,"busy_us":250},{"items":5,"busy_us":310}]"#)
        );
        assert!(json.contains(r#""passes":{"folded":0"#));
        assert!(json.contains(r#""ltbo":{"candidate_methods":0"#));
        assert!(json.contains(r#""merge":{"merged_methods":0,"words_saved":0}"#));
        assert!(json.contains(&format!(r#""cache":{},"passes""#, stats.cache.to_json())));
        assert!(json.ends_with(r#""merge":{"merged_methods":0,"words_saved":0}}"#));
        assert!(json.contains(r#""compile":0,"ltbo":0"#));
    }

    #[test]
    fn total_time_sums_all_four_phases() {
        let stats = BuildStats {
            verify_time: Duration::from_micros(3),
            compile_time: Duration::from_micros(50),
            ltbo_time: Duration::from_micros(9_000),
            link_time: Duration::from_micros(110_000),
            // Sub-phases of `compile_time` / `ltbo_time`: not summed again.
            key_time: Duration::from_micros(20),
            codegen_time: Duration::from_micros(30),
            detect_time: Duration::from_micros(8_000),
            ..BuildStats::default()
        };
        assert_eq!(stats.total_time(), Duration::from_micros(119_053));
        assert!(stats.to_json().contains(r#""link":110000,"total":119053}"#));
    }
}
