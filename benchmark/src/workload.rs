//! What the four workloads share: the interface the runner drives, the
//! staged (traced) build, the counters read from a build's statistics,
//! and the aggregation of stage spans into per-layer metrics.

use calibro::{BuildOptions, BuildSession};
use calibro_dex::DexFile;
use calibro_oat::OatFile;
use calibro_workloads::App;

use crate::calib::{Calibrator, Sample};
use crate::inputs::{replay, Reference};
use crate::json::Json;
use crate::stats::{weighted_median, Class};
use crate::trace::Tracer;

/// The pipeline stages a traced build is split into, in order; also the
/// span names in the span file.
pub const STAGES: [&str; 5] = ["frontend", "codegen", "outline", "link", "elf_write"];

/// One closed-loop workload, set up and ready to run ops.
pub trait Workload {
    /// The op classes with their mix shares (which sum to 1).
    fn classes(&self) -> Vec<Class>;

    /// Ops the run makes regardless of `--seconds`: enough for every
    /// class to be sampled, for the counters to repeat exactly, and for
    /// the process's memory to have reached its plateau (peak memory is
    /// read over the second half of exactly these ops, so that it does
    /// not depend on how many more the machine got through).
    fn min_ops(&self) -> u64;

    /// Runs op `i` of the fixed sequence with tracing off. Returns its
    /// class and timing; `Err` is a failed op.
    fn op(&mut self, i: u64, cal: &mut Calibrator) -> Result<(usize, Sample), String>;

    /// Runs op `i` again with spans around each layer boundary. With
    /// `count_allocs` the counting allocator is on during the op; its
    /// atomics slow allocation-heavy code by tens of percent, so the
    /// runner counts on a fixed few ops and discards their timing.
    fn traced_op(
        &mut self,
        i: u64,
        count_allocs: bool,
        cal: &mut Calibrator,
        tracer: &mut Tracer,
    ) -> Result<(usize, Sample), String>;

    /// How many traced ops, from the first, count allocations: one pass
    /// over the classes in their mix.
    fn alloc_ops(&self) -> u64;

    /// Staged builds recorded so far (see [`staged_build`]) and the
    /// weight of each of their classes.
    fn staged(&self) -> (&[StagedOp], Vec<f64>);

    /// The inputs, each with the configuration the workload builds it
    /// under: what the micro-probes run on.
    fn probe_inputs(&self) -> Vec<(&App, &BuildOptions)>;

    /// The apps whose artifacts are replayed and checked, in the order
    /// of [`Finished::artifacts`].
    fn checked_apps(&self) -> Vec<&App>;

    /// Variant `v` (1, 2, …) of the workload's inputs: the same specs
    /// generated from another sub-seed, each with the configuration the
    /// workload would build it under. Never timed; see
    /// `SIZE_METHODS` in `main.rs`.
    fn variant(&self, v: u64) -> Result<Vec<(App, BuildOptions)>, String>;

    /// Median share of the client-observed latency that the daemon
    /// reports as build time; zero for a workload without a daemon.
    fn build_share(&self) -> f64 {
        0.0
    }

    /// Stops whatever the workload started and hands over what it
    /// produced.
    fn finish(self: Box<Self>) -> Finished;
}

/// Accumulates a workload's calibrated set-up time, step by step.
#[derive(Default)]
pub struct SetupClock {
    pub cal_ms: f64,
}

impl SetupClock {
    /// Runs one set-up step between kernel readings and adds its time.
    pub fn step<T>(&mut self, cal: &mut Calibrator, f: impl FnOnce() -> T) -> T {
        let (out, sample) = cal.time(f);
        self.cal_ms += sample.cal_ms;
        out
    }
}

/// What a workload leaves behind for checking and reporting.
pub struct Finished {
    /// The checked apps, in the order of [`Workload::checked_apps`].
    pub apps: Vec<App>,
    /// The artifact produced for each checked app (`None`: the run never
    /// produced one, which is a failure).
    pub artifacts: Vec<Option<OatFile>>,
    /// Output checks the workload made itself while running (reply bytes
    /// against set-up bytes, warm against cold), as failure messages.
    pub failures: Vec<String>,
    pub counts: BuildCounts,
    /// Daemon counters at the fixed point of the sequence; zeros for a
    /// workload without a daemon.
    pub server: ServerCounts,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ServerCounts {
    pub requests_completed: u64,
    pub rejected_overloaded: u64,
    pub build_errors: u64,
}

/// The exact metrics: sizes and simulated run-time cost of the checked
/// artifacts and of the baseline builds of the same inputs, summed, plus
/// every behavioural mismatch found.
#[derive(Debug, Default)]
pub struct Verdict {
    pub text_bytes: u64,
    pub run_cycles: u64,
    pub resident_bytes: u64,
    pub baseline_text_bytes: u64,
    pub baseline_cycles: u64,
    pub baseline_resident_bytes: u64,
    pub icache_misses: u64,
    pub heap_allocs: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    /// Replays `app`'s trace on `oat`, compares what happened with
    /// `reference`, and adds the artifact's size and run-time cost.
    fn add(&mut self, app: &App, oat: &OatFile, reference: &Reference) {
        self.baseline_text_bytes += reference.baseline_text_bytes;
        self.baseline_cycles += reference.baseline_cycles;
        self.baseline_resident_bytes += reference.baseline_resident_bytes;
        self.text_bytes += oat.text_size_bytes();
        match replay(oat, app) {
            Err(e) => self.failures.push(e),
            Ok(r) => {
                self.run_cycles += r.cycles;
                self.resident_bytes += r.resident_bytes;
                self.icache_misses += r.icache_misses;
                self.heap_allocs += r.heap_allocs;
                self.failures.extend(reference.check(&r).err());
            }
        }
    }

    /// Adds each app's artifact, checked against its reference.
    pub fn add_artifacts(
        &mut self,
        apps: &[App],
        artifacts: &[Option<OatFile>],
        refs: &[Reference],
    ) {
        for ((app, artifact), reference) in apps.iter().zip(artifacts).zip(refs) {
            match artifact {
                Some(oat) => self.add(app, oat, reference),
                None => self.failures.push(format!("{}: no artifact was produced", app.name)),
            }
        }
    }

    /// Builds `app` under `options` in a fresh session and adds the
    /// artifact, checked against a baseline build of the same app.
    pub fn add_built(&mut self, app: &App, options: &BuildOptions) {
        let built = BuildSession::new()
            .build(&app.dex, options)
            .map_err(|e| format!("{}: build failed: {e}", app.name))
            .and_then(|out| Ok((out, Reference::from_baseline(app)?)));
        match built {
            Ok((out, reference)) => self.add(app, &out.oat, &reference),
            Err(e) => self.failures.push(e),
        }
    }
}

/// Counters summed over a fixed set of builds, read from
/// `BuildStats::to_json` — the document the daemon's replies carry too,
/// so direct and served builds are read the same way.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct BuildCounts {
    pub builds: u64,
    pub elf_bytes: u64,
    /// Methods compiled (not replayed from the cache), summed.
    pub compiled: f64,
    pub cache: CacheCounts,
    insns_in: f64,
    insns_out: f64,
    words_before_ltbo: f64,
    outlined_functions: f64,
    occurrences_replaced: f64,
    ltbo_words_saved: f64,
    merged_methods: f64,
    merge_words_saved: f64,
}

/// Store activity over the counted builds, all lanes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CacheCounts {
    pub hits: f64,
    pub misses: f64,
    pub group_hits: f64,
    pub group_misses: f64,
    pub merge_hits: f64,
    pub merge_misses: f64,
    pub evictions: f64,
}

fn ratio(hits: f64, misses: f64) -> f64 {
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

impl BuildCounts {
    /// Adds one build: its statistics document and the size of its ELF.
    pub fn add(&mut self, stats_json: &str, elf_len: usize) -> Result<(), String> {
        let doc = Json::parse(stats_json).map_err(|e| format!("build statistics: {e}"))?;
        let num = |path: &[&str]| {
            doc.at(path)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("build statistics lack {}", path.join(".")))
        };
        self.builds += 1;
        self.elf_bytes += elf_len as u64;
        self.compiled += num(&["methods"])? - num(&["methods_from_cache"])?;
        self.cache.hits += num(&["cache", "hits"])?;
        self.cache.misses += num(&["cache", "misses"])?;
        self.cache.group_hits += num(&["cache", "group_hits"])?;
        self.cache.group_misses += num(&["cache", "group_misses"])?;
        self.cache.merge_hits += num(&["cache", "merge_hits"])?;
        self.cache.merge_misses += num(&["cache", "merge_misses"])?;
        self.cache.evictions += num(&["cache", "evictions"])?
            + num(&["cache", "group_evictions"])?
            + num(&["cache", "merge_evictions"])?;
        self.insns_in += num(&["passes", "insns_in"])?;
        self.insns_out += num(&["passes", "insns_out"])?;
        self.words_before_ltbo += num(&["words_before_ltbo"])?;
        self.outlined_functions += num(&["ltbo", "outlined_functions"])?;
        self.occurrences_replaced += num(&["ltbo", "occurrences_replaced"])?;
        self.ltbo_words_saved += num(&["ltbo", "words_saved"])?;
        self.merged_methods += num(&["merge", "merged_methods"])?;
        self.merge_words_saved += num(&["merge", "words_saved"])?;
        Ok(())
    }

    /// The count metrics, by name.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let c = &self.cache;
        vec![
            ("pipeline.methods_compiled_per_op", self.compiled / self.builds.max(1) as f64),
            ("cache.method_hit_ratio", ratio(c.hits, c.misses)),
            ("cache.group_hit_ratio", ratio(c.group_hits, c.group_misses)),
            ("cache.merge_hit_ratio", ratio(c.merge_hits, c.merge_misses)),
            ("cache.evictions", c.evictions),
            ("hgraph.insns_in", self.insns_in),
            ("hgraph.insns_out", self.insns_out),
            ("codegen.words_before_ltbo", self.words_before_ltbo),
            ("ltbo.outlined_functions", self.outlined_functions),
            ("ltbo.occurrences_replaced", self.occurrences_replaced),
            ("ltbo.words_saved", self.ltbo_words_saved),
            ("merge.merged_methods", self.merged_methods),
            ("merge.words_saved", self.merge_words_saved),
            ("oat.elf_bytes", self.elf_bytes as f64),
        ]
    }
}

/// One staged build: which class it belongs to and how it was timed.
/// Its stage spans are the children of span `span` in the tracer.
#[derive(Clone, Copy, Debug)]
pub struct StagedOp {
    pub class: usize,
    pub span: usize,
    pub sample: Sample,
}

/// Builds `dex` by calling the public stages one at a time, with a span
/// around each, and serialises the result. The whole op is one
/// calibrated region: kernel readings between the stages would evict
/// what one stage leaves in cache for the next, which `build()` never
/// does. `session` is `None` for a cold build, which then includes
/// making the session, as the untraced cold op does. `count_allocs`
/// switches the counting allocator on for the op (and only the op: the
/// kernel allocates too).
pub fn staged_build(
    session: Option<&BuildSession>,
    dex: &DexFile,
    options: &BuildOptions,
    op_id: u64,
    count_allocs: bool,
    cal: &mut Calibrator,
    tracer: &mut Tracer,
) -> Result<(usize, Sample, Vec<u8>), String> {
    let (result, sample) = cal.time(|| {
        let _counting = count_allocs.then(crate::alloc::Counting::scope);
        let op = tracer.begin("op", None, op_id);
        let fresh;
        let session = match session {
            Some(s) => s,
            None => {
                fresh = BuildSession::new();
                &fresh
            }
        };
        let result = (|| {
            let frontend = tracer.child(STAGES[0], op, || session.frontend(dex, options))?;
            let codegen =
                tracer.child(STAGES[1], op, || session.codegen(dex, options, frontend))?;
            let size = tracer.child(STAGES[2], op, || session.outline(options, codegen))?;
            let oat = tracer.child(STAGES[3], op, || session.link(options, size))?;
            Ok::<_, calibro::BuildError>(
                tracer.child(STAGES[4], op, || calibro_oat::to_elf_bytes(&oat)),
            )
        })();
        tracer.end(op);
        result.map(|elf| (op, elf))
    });
    let (op, elf) = result.map_err(|e| format!("staged build failed: {e}"))?;
    Ok((op, sample, elf))
}

/// The class-weighted median calibrated time of stage `stage` over the
/// staged builds, in milliseconds.
pub fn stage_cal_ms(tracer: &Tracer, staged: &[StagedOp], weights: &[f64], stage: &str) -> f64 {
    let mut classes: Vec<Class> = weights.iter().map(|&w| Class::new("", w)).collect();
    for op in staged {
        let factor = op.sample.cal_ms / op.sample.raw_ms;
        let raw_ms: f64 = tracer
            .spans
            .iter()
            .filter(|s| s.parent == Some(op.span) && s.name == stage)
            .map(|s| s.duration_us() / 1e3)
            .sum();
        classes[op.class].samples.push(raw_ms * factor);
    }
    weighted_median(&classes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_workloads::{generate, AppSpec};

    #[test]
    fn staged_build_equals_build_and_its_stages_fill_the_op() {
        let app = generate(&AppSpec::small("t", 3));
        let options = BuildOptions::cto_merge_ltbo();
        let whole = BuildSession::new().build(&app.dex, &options).unwrap();
        let (mut cal, mut tracer) = (Calibrator::new(), Tracer::new());
        let (op, sample, elf) =
            staged_build(None, &app.dex, &options, 9, false, &mut cal, &mut tracer).unwrap();
        assert_eq!(elf, calibro_oat::to_elf_bytes(&whole.oat));
        let names: Vec<_> =
            tracer.spans.iter().filter(|s| s.parent == Some(op)).map(|s| s.name).collect();
        assert_eq!(names, STAGES);
        let staged = [StagedOp { class: 0, span: op, sample }];
        let sum: f64 = STAGES.iter().map(|st| stage_cal_ms(&tracer, &staged, &[1.0], st)).sum();
        assert!(sum > 0.0 && sum <= sample.cal_ms * 1.0001, "{sum} vs {}", sample.cal_ms);
    }

    #[test]
    fn counts_read_the_statistics_document() {
        let app = generate(&AppSpec::small("t", 4));
        let session = BuildSession::new();
        let options = BuildOptions::cto_ltbo();
        let mut counts = BuildCounts::default();
        for _ in 0..2 {
            let out = session.build(&app.dex, &options).unwrap();
            counts.add(&out.stats.to_json(), 100).unwrap();
        }
        let m: std::collections::HashMap<_, _> = counts.metrics().into_iter().collect();
        let methods = app.dex.methods().len() as f64;
        // Cold then warm: half of all method lookups hit.
        assert_eq!(m["cache.method_hit_ratio"], 0.5);
        assert_eq!(m["pipeline.methods_compiled_per_op"], methods / 2.0);
        assert_eq!(m["oat.elf_bytes"], 200.0);
        assert!(m["ltbo.words_saved"] > 0.0 && m["hgraph.insns_out"] <= m["hgraph.insns_in"]);
        assert!(counts.add("{}", 0).is_err());
    }
}
