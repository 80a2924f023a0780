//! Experiment implementations: one function per table/figure of the
//! paper's evaluation.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use calibro::{build, BuildOptions, BuildOutput, BuildSession, BuildStats};
use calibro_dex::MethodId;
use calibro_oat::{OatFile, OatMethodRecord};
use calibro_profile::Profile;
use calibro_runtime::Runtime;
use calibro_suffix::{
    census, estimate_reduction, SuffixTree, TaggedSequence, UNIQUE_SEPARATOR_BASE,
};
use calibro_workloads::{generate, mutate_methods, paper_suite, App};

/// Default scale: methods per MB of the paper's baseline OAT size.
/// `2.0` puts the six-app suite at roughly 4,000 methods / 600k
/// instructions total — big enough for stable ratios, small enough to
/// run in seconds.
pub const DEFAULT_SCALE: f64 = 2.0;

/// Steps budget per trace call.
const STEP_BUDGET: u64 = 4_000_000;

/// The build variants evaluated in the paper's Table 4.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// Unmodified AOSP-equivalent.
    Baseline,
    /// §3.1 compilation-time outlining only.
    Cto,
    /// CTO + link-time outlining with a single global suffix tree.
    CtoLtbo,
    /// CTO + LTBO with paralleled suffix trees (§3.4.1).
    CtoLtboPl,
    /// CTO + LTBO + PlOpti + hot-function filtering (§3.4.2).
    CtoLtboPlHf,
}

impl Variant {
    /// All variants in Table 4 order.
    pub const ALL: [Variant; 5] = [
        Variant::Baseline,
        Variant::Cto,
        Variant::CtoLtbo,
        Variant::CtoLtboPl,
        Variant::CtoLtboPlHf,
    ];

    /// The paper's row label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Variant::Baseline => "Baseline",
            Variant::Cto => "CTO",
            Variant::CtoLtbo => "CTO+LTBO",
            Variant::CtoLtboPl => "CTO+LTBO+PlOpti",
            Variant::CtoLtboPlHf => "CTO+LTBO+PlOpti+HfOpti",
        }
    }
}

/// Number of parallel suffix trees (the paper's Table 6 uses 8 trees on
/// 6 threads).
pub const PL_GROUPS: usize = 8;
/// Worker threads for PlOpti.
pub const PL_THREADS: usize = 6;
/// Detection groups for the incremental (warm-rebuild) scenario. Much
/// finer than [`PL_GROUPS`]: with content-stable sharding, a one-method
/// edit dirties O(1) groups, so the replayed fraction — and the warm
/// LTBO speedup — scales with the group count, at the cost of the usual
/// per-group size regression (§4.4's trade-off knob).
pub const INCR_GROUPS: usize = 128;

/// Builds one variant of an app, resolving the HfOpti profile on demand
/// (profiling the baseline build over the app's trace, as in Figure 6).
#[must_use]
pub fn build_variant(app: &App, variant: Variant) -> BuildOutput {
    // The parallel variants also fan the per-method compile phase across
    // the worker pool; the output is bit-identical to a sequential
    // compile, so only the Table 6 timings move.
    let options = match variant {
        Variant::Baseline => BuildOptions::baseline(),
        Variant::Cto => BuildOptions::cto(),
        Variant::CtoLtbo => BuildOptions::cto_ltbo(),
        Variant::CtoLtboPl => {
            BuildOptions::cto_ltbo_parallel(PL_GROUPS, PL_THREADS).with_compile_threads(PL_THREADS)
        }
        Variant::CtoLtboPlHf => {
            let hot = profile_hot_set(app, 0.8);
            BuildOptions::cto_ltbo_parallel(PL_GROUPS, PL_THREADS)
                .with_compile_threads(PL_THREADS)
                .with_hot_filter(hot)
        }
    };
    build(&app.dex, &options).expect("build")
}

/// Runs the Figure 6 profiling pass: executes the trace on the baseline
/// build and selects the top-`fraction` hot set.
#[must_use]
pub fn profile_hot_set(app: &App, fraction: f64) -> HashSet<u32> {
    let baseline = build(&app.dex, &BuildOptions::baseline()).expect("baseline build");
    let mut rt = Runtime::new(&baseline.oat, &app.env);
    run_trace(&mut rt, app, 1);
    Profile::capture(&rt).hot_set(fraction).expect("fraction validated by caller")
}

/// Executes the app's usage trace `iterations` times.
pub fn run_trace(rt: &mut Runtime, app: &App, iterations: usize) {
    for _ in 0..iterations {
        for call in &app.trace {
            rt.call(call.method, &call.args, STEP_BUDGET).expect("trace call");
        }
    }
}

/// Generates the paper's six-app suite at the given scale.
#[must_use]
pub fn suite(scale: f64) -> Vec<App> {
    paper_suite(scale).iter().map(generate).collect()
}

// ---------------------------------------------------------------------
// Table 1: estimated redundancy via suffix-tree analysis (§2.2).
// ---------------------------------------------------------------------

/// One Table 1 row.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// App name.
    pub app: String,
    /// Estimated reduction ratio from the §2.2 analysis.
    pub estimated_ratio: f64,
    /// Instructions analyzed.
    pub instructions: usize,
}

/// Maps a linked baseline OAT into the §2.2 analysis sequence:
/// instruction words as symbols, terminators and method boundaries as
/// unique separators.
#[must_use]
pub fn analysis_sequence(oat: &OatFile) -> Vec<u64> {
    let mut symbols = Vec::with_capacity(oat.words.len());
    let mut unique = UNIQUE_SEPARATOR_BASE;
    for record in &oat.methods {
        symbols.extend(method_symbols(oat, record, &mut unique));
        unique += 1;
        symbols.push(unique);
    }
    symbols
}

/// [`analysis_sequence`] one method at a time, tagged by method index
/// and without the closing separators: the sequences PlOpti partitions
/// (`partition_stable`, `detect_group`).
#[must_use]
pub fn method_sequences(oat: &OatFile) -> Vec<TaggedSequence> {
    let mut unique = UNIQUE_SEPARATOR_BASE;
    let sequences = oat.methods.iter().enumerate().map(|(tag, record)| {
        let symbols = method_symbols(oat, record, &mut unique).collect();
        TaggedSequence { tag, symbols }
    });
    sequences.collect()
}

/// One linked method's symbols: its instruction words, with each word
/// of embedded data and each terminator replaced by the next separator
/// drawn from `unique`.
fn method_symbols<'a>(
    oat: &'a OatFile,
    record: &'a OatMethodRecord,
    unique: &'a mut u64,
) -> impl Iterator<Item = u64> + 'a {
    let start = (record.offset / 4) as usize;
    (0..record.code_words).map(move |w| {
        if record.metadata.in_embedded_data(w as usize) || record.metadata.terminators.contains(&w)
        {
            *unique += 1;
            *unique
        } else {
            u64::from(oat.words[start + w as usize])
        }
    })
}

/// Reproduces Table 1: the estimated code-size reduction per app.
#[must_use]
pub fn table1(apps: &[App]) -> Vec<Table1Row> {
    apps.iter()
        .map(|app| {
            let baseline =
                build(&app.dex, &BuildOptions { force_metadata: true, ..BuildOptions::baseline() })
                    .expect("build");
            let seq = analysis_sequence(&baseline.oat);
            let instructions = seq.len();
            let tree = SuffixTree::build(seq);
            Table1Row {
                app: app.name.clone(),
                estimated_ratio: estimate_reduction(&tree, 2),
                instructions,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 3: sequence length vs number of repeats.
// ---------------------------------------------------------------------

/// One Figure 3 series point.
#[derive(Clone, Copy, Debug)]
pub struct Fig3Point {
    /// Repeated-sequence length.
    pub len: usize,
    /// Number of distinct repeated sequences of this length.
    pub sequences: usize,
    /// Total repeat occurrences summed over those sequences.
    pub total_repeats: usize,
}

/// Reproduces Figure 3 for one app: the repeat census by length.
#[must_use]
pub fn fig3(app: &App, max_len: usize) -> Vec<Fig3Point> {
    let baseline =
        build(&app.dex, &BuildOptions { force_metadata: true, ..BuildOptions::baseline() })
            .expect("build");
    let tree = SuffixTree::build(analysis_sequence(&baseline.oat));
    let rows = census(&tree, 2);
    (2..=max_len)
        .map(|len| {
            let of_len = rows.iter().filter(|r| r.len == len);
            let (mut sequences, mut total) = (0, 0);
            for r in of_len {
                sequences += 1;
                total += r.count;
            }
            Fig3Point { len, sequences, total_repeats: total }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 4: the ART-specific pattern census.
// ---------------------------------------------------------------------

/// Counts of the three ART-specific patterns in a baseline build.
#[derive(Clone, Debug, Default)]
pub struct PatternCensus {
    /// Figure 4a: `ldr x30, [x0, #off]; blr x30`.
    pub java_call: usize,
    /// Figure 4b: `ldr x30, [x19, #off]; blr x30`, summed.
    pub runtime_call: usize,
    /// Figure 4b broken down per entrypoint offset.
    pub runtime_by_offset: Vec<(u16, usize)>,
    /// Figure 4c: `sub x16, sp, #0x2000; ldr wzr, [x16]`.
    pub stack_check: usize,
}

/// Reproduces the Figure 4 observation: occurrence counts of the three
/// patterns in an app's baseline text.
#[must_use]
pub fn fig4(app: &App) -> PatternCensus {
    use calibro_isa::{decode, Insn, Reg};
    let baseline = build(&app.dex, &BuildOptions::baseline()).expect("build");
    let words = &baseline.oat.words;
    let mut census = PatternCensus::default();
    let mut by_offset = std::collections::BTreeMap::new();
    for pair in words.windows(2) {
        let (Ok(a), Ok(b)) = (decode(pair[0]), decode(pair[1])) else { continue };
        match (&a, &b) {
            (Insn::LdrImm { wide: true, rt, rn, offset }, Insn::Blr { rn: r })
                if *rt == Reg::LR && *r == Reg::LR =>
            {
                if *rn == Reg::X0 {
                    census.java_call += 1;
                } else if *rn == Reg::X19 {
                    census.runtime_call += 1;
                    *by_offset.entry(*offset).or_insert(0) += 1;
                }
            }
            (Insn::SubImm { rd, rn, imm12: 2, shift12: true, .. }, Insn::LdrImm { rt, .. })
                if *rd == Reg::X16 && *rn == Reg::SP && rt.is_reg31() =>
            {
                census.stack_check += 1;
            }
            _ => {}
        }
    }
    census.runtime_by_offset = by_offset.into_iter().collect();
    census
}

// ---------------------------------------------------------------------
// Table 4: code size reduction per variant.
// ---------------------------------------------------------------------

/// One Table 4 column (one app).
#[derive(Clone, Debug)]
pub struct Table4Col {
    /// App name.
    pub app: String,
    /// `.text` bytes per variant, in [`Variant::ALL`] order.
    pub bytes: [u64; 5],
}

impl Table4Col {
    /// Reduction ratio of variant `i` relative to the baseline.
    #[must_use]
    pub fn ratio(&self, i: usize) -> f64 {
        1.0 - self.bytes[i] as f64 / self.bytes[0] as f64
    }
}

/// Reproduces Table 4: on-disk `.text` size per app and variant.
#[must_use]
pub fn table4(apps: &[App]) -> Vec<Table4Col> {
    apps.iter()
        .map(|app| {
            let mut bytes = [0u64; 5];
            for (i, v) in Variant::ALL.into_iter().enumerate() {
                let out = build_variant(app, v);
                // Size measured on the serialized ELF text, like `pm
                // compile` + section inspection in the paper.
                bytes[i] = out.oat.text_size_bytes();
            }
            Table4Col { app: app.name.clone(), bytes }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 5: memory usage reduction.
// ---------------------------------------------------------------------

/// One Table 5 column.
#[derive(Clone, Debug)]
pub struct Table5Col {
    /// App name.
    pub app: String,
    /// Resident bytes after the trace: Baseline, CTO, CTO+LTBO.
    pub resident: [u64; 3],
}

impl Table5Col {
    /// Reduction relative to baseline for variant `i`.
    #[must_use]
    pub fn ratio(&self, i: usize) -> f64 {
        1.0 - self.resident[i] as f64 / self.resident[0] as f64
    }
}

/// Reproduces Table 5: memory usage (resident pages) after running the
/// usage trace, for Baseline / CTO / CTO+LTBO.
#[must_use]
pub fn table5(apps: &[App]) -> Vec<Table5Col> {
    apps.iter()
        .map(|app| {
            // The dex/vdex file, .art image and runtime metadata stay
            // resident regardless of variant; the paper's memory numbers
            // include those non-.text portions, which is why its Table 5
            // percentages sit well below the Table 4 code reductions.
            let fixed = (app.dex.total_insns() * 8) as u64;
            let mut resident = [0u64; 3];
            for (i, v) in
                [Variant::Baseline, Variant::Cto, Variant::CtoLtbo].into_iter().enumerate()
            {
                let out = build_variant(app, v);
                let mut rt = Runtime::new(&out.oat, &app.env);
                run_trace(&mut rt, app, 1);
                // The paper measures the OAT file's memory usage: its
                // resident code pages plus the always-mapped oatdata.
                resident[i] = rt.resident_code_bytes() + fixed;
            }
            Table5Col { app: app.name.clone(), resident }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Table 6: build time.
// ---------------------------------------------------------------------

/// One Table 6 column.
#[derive(Clone, Debug)]
pub struct Table6Col {
    /// App name.
    pub app: String,
    /// Build times: Baseline, CTO+LTBO (single tree), CTO+LTBO+PlOpti.
    pub times: [Duration; 3],
    /// Full per-build stats backing `times`, in the same order — the
    /// observability payload serialized into `BENCH_table6.json`.
    pub stats: [BuildStats; 3],
}

impl Table6Col {
    /// Build-time growth of variant `i` relative to the baseline.
    #[must_use]
    pub fn growth(&self, i: usize) -> f64 {
        self.times[i].as_secs_f64() / self.times[0].as_secs_f64() - 1.0
    }
}

/// Reproduces Table 6: wall-clock build time per variant, as
/// [`BuildStats::total_time`]. That total includes dex verification
/// (the same cost in all three variants), which it left out when the
/// committed `BENCH_*.json` / EXPERIMENTS.md tables were generated: a
/// regenerated table reads slightly higher times and slightly lower
/// growth percentages than those.
#[must_use]
pub fn table6(apps: &[App]) -> Vec<Table6Col> {
    apps.iter()
        .map(|app| {
            let mut times = [Duration::ZERO; 3];
            let mut stats: [BuildStats; 3] = Default::default();
            for (i, v) in
                [Variant::Baseline, Variant::CtoLtbo, Variant::CtoLtboPl].into_iter().enumerate()
            {
                let out = build_variant(app, v);
                times[i] = out.stats.total_time();
                stats[i] = out.stats;
            }
            Table6Col { app: app.name.clone(), times, stats }
        })
        .collect()
}

/// Serializes Table 6's per-build stats as one JSON document:
/// `{"app": {"variant": {stats...}, ...}, ...}`.
#[must_use]
pub fn table6_json(cols: &[Table6Col]) -> String {
    let variants = ["baseline", "cto_ltbo", "cto_ltbo_pl"];
    let apps: Vec<String> = cols
        .iter()
        .map(|col| {
            let builds: Vec<String> = variants
                .iter()
                .zip(&col.stats)
                .map(|(name, s)| format!(r#""{name}":{}"#, s.to_json()))
                .collect();
            format!(r#""{}":{{{}}}"#, col.app, builds.join(","))
        })
        .collect();
    format!("{{{}}}", apps.join(","))
}

// ---------------------------------------------------------------------
// Table 7: runtime performance (CPU cycle counts).
// ---------------------------------------------------------------------

/// One Table 7 column.
#[derive(Clone, Debug)]
pub struct Table7Col {
    /// App name.
    pub app: String,
    /// Cycle counts: Baseline, CTO+LTBO+PlOpti, +HfOpti.
    pub cycles: [u64; 3],
}

impl Table7Col {
    /// Degradation of variant `i` relative to the baseline.
    #[must_use]
    pub fn degradation(&self, i: usize) -> f64 {
        self.cycles[i] as f64 / self.cycles[0] as f64 - 1.0
    }
}

/// Reproduces Table 7: CPU cycle counts over the usage trace
/// (`iterations` runs, like the paper's 20 repeated uiautomator runs).
#[must_use]
pub fn table7(apps: &[App], iterations: usize) -> Vec<Table7Col> {
    apps.iter()
        .map(|app| {
            let mut cycles = [0u64; 3];
            for (i, v) in [Variant::Baseline, Variant::CtoLtboPl, Variant::CtoLtboPlHf]
                .into_iter()
                .enumerate()
            {
                let out = build_variant(app, v);
                let mut rt = Runtime::new(&out.oat, &app.env);
                run_trace(&mut rt, app, iterations);
                cycles[i] = rt.total_cycles();
            }
            Table7Col { app: app.name.clone(), cycles }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Ablation: the paralleled-tree count trade-off (§4.4: "the trade-offs
// between building time and the code size reduction can be selected by
// adjusting the number of paralleled suffix trees").
// ---------------------------------------------------------------------

/// One row of the group-count ablation.
#[derive(Clone, Copy, Debug)]
pub struct AblationRow {
    /// Number of per-group suffix trees (1 = the global tree).
    pub groups: usize,
    /// `.text` bytes after CTO+LTBO with this many trees.
    pub bytes: u64,
    /// LTBO wall-clock time.
    pub ltbo_time: Duration,
    /// Outlined functions created.
    pub outlined: usize,
}

/// Sweeps the number of paralleled suffix trees on one app.
#[must_use]
pub fn ablation_groups(app: &App, groups: &[usize]) -> Vec<AblationRow> {
    groups
        .iter()
        .map(|&g| {
            let options = if g <= 1 {
                BuildOptions::cto_ltbo()
            } else {
                BuildOptions::cto_ltbo_parallel(g, PL_THREADS)
            };
            let out = build(&app.dex, &options).expect("build");
            AblationRow {
                groups: g,
                bytes: out.oat.text_size_bytes(),
                ltbo_time: out.stats.ltbo_time,
                outlined: out.stats.ltbo.outlined_functions,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Incremental rebuild: cold vs warm wall time through the staged
// pipeline's content-addressed artifact cache (an app-update scenario
// the paper's dex2oat pays full price for on every store push).
// ---------------------------------------------------------------------

/// Fraction of methods mutated between the cold and warm builds — the
/// "small app update" the incremental scenario models.
pub const WARM_MUTATION_FRACTION: f64 = 0.01;

/// One incremental-rebuild measurement: one app under one variant.
#[derive(Clone, Debug)]
pub struct WarmRebuildRow {
    /// App name.
    pub app: String,
    /// Variant label (`baseline`, `cto_ltbo` or `cto_ltbo_pl`).
    pub variant: &'static str,
    /// Methods in the app.
    pub methods: usize,
    /// Methods mutated between the builds.
    pub mutated: usize,
    /// Wall time of a cold (empty-cache) build of the mutated program.
    pub cold: Duration,
    /// CPU time the cold build spent compiling method bodies — the work
    /// the warm cache elides, and the denominator the keys phase must
    /// stay small against ("keys under 30% of compile CPU" compares the
    /// probe cost with what compilation *would* cost, not with the
    /// near-zero CPU a fully-warm rebuild happens to spend).
    pub cold_compile_cpu: Duration,
    /// Wall time of the warm rebuild through the populated cache.
    pub warm: Duration,
    /// Method-artifact cache hit rate observed during the warm rebuild.
    pub hit_rate: f64,
    /// Group-plan cache hit rate during the warm rebuild (`0` for
    /// variants that never probe the group lane, i.e. `baseline`).
    pub group_hit_rate: f64,
    /// On-disk `.text` bytes of the warm output — lets the report put
    /// the sharded variant's size regression next to its speedup.
    pub text_bytes: u64,
    /// Whether the warm rebuild matched the cold build bit for bit.
    pub digests_match: bool,
    /// Full stats of the warm rebuild.
    pub warm_stats: BuildStats,
}

impl WarmRebuildRow {
    /// Cold-over-warm wall-time ratio.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.cold.as_secs_f64() / self.warm.as_secs_f64()
    }
}

/// Repetitions of the cold/warm race per app × variant; the reported
/// wall times are the per-phase minima. Single-shot wall clocks on a
/// shared (often single-vCPU) runner carry multi-millisecond scheduler
/// noise — comparable to the entire warm rebuild — and the minimum over
/// a few identical runs estimates the uncontended cost. Every
/// repetition primes a fresh session and replays the same deterministic
/// mutation, so each warm measurement sees the identical
/// hits-plus-delta workload.
pub const WARM_REPS: usize = 5;

/// Runs the incremental-rebuild scenario: build each app cold through a
/// [`BuildSession`], mutate [`WARM_MUTATION_FRACTION`] of its methods,
/// then race a fresh cold build of the edited program against the warm
/// cache-replayed rebuild, taking the minimum wall time over
/// [`WARM_REPS`] identically-primed repetitions.
///
/// Three variants per app: `baseline` isolates the per-method compile
/// phase the cache elides, `cto_ltbo` adds whole-program suffix-tree
/// outlining (one global group — any edit re-detects everything), and
/// `cto_ltbo_pl` shards detection into [`INCR_GROUPS`] content-stable
/// groups so the warm rebuild replays the clean groups' cached plans
/// and re-detects only the dirty ones.
#[must_use]
pub fn warm_rebuild(apps: &[App]) -> Vec<WarmRebuildRow> {
    let variants: [(&'static str, BuildOptions); 3] = [
        ("baseline", BuildOptions::baseline()),
        ("cto_ltbo", BuildOptions::cto_ltbo()),
        ("cto_ltbo_pl", BuildOptions::cto_ltbo_parallel(INCR_GROUPS, PL_THREADS)),
    ];
    let mut rows = Vec::new();
    for app in apps {
        for (variant, options) in &variants {
            let mut row: Option<WarmRebuildRow> = None;
            for _ in 0..WARM_REPS {
                let session = BuildSession::new();
                session.build(&app.dex, options).expect("priming build");

                let mut edited = app.dex.clone();
                let mutated = mutate_methods(&mut edited, 13, WARM_MUTATION_FRACTION);

                let t = Instant::now();
                let cold_out = build(&edited, options).expect("cold build");
                let cold = t.elapsed();

                let t = Instant::now();
                let warm_out = session.build(&edited, options).expect("warm build");
                let warm = t.elapsed();

                let digests_match = cold_out.oat.words == warm_out.oat.words
                    && cold_out.oat.text_digest() == warm_out.oat.text_digest();
                match &mut row {
                    Some(row) => {
                        // Phase minima; the non-timing fields are
                        // identical across repetitions (same program,
                        // same deterministic mutation) except
                        // digests_match, which must hold on every run.
                        if cold < row.cold {
                            row.cold = cold;
                            row.cold_compile_cpu = cold_out.stats.compile_cpu_time;
                        }
                        row.digests_match &= digests_match;
                        if warm < row.warm {
                            row.warm = warm;
                            row.warm_stats = warm_out.stats;
                        }
                    }
                    None => {
                        row = Some(WarmRebuildRow {
                            app: app.name.clone(),
                            variant,
                            methods: warm_out.stats.methods,
                            mutated: mutated.len(),
                            cold,
                            cold_compile_cpu: cold_out.stats.compile_cpu_time,
                            warm,
                            hit_rate: warm_out.stats.cache.hit_rate(),
                            group_hit_rate: warm_out.stats.cache.group_hit_rate(),
                            text_bytes: warm_out.oat.text_size_bytes(),
                            digests_match,
                            warm_stats: warm_out.stats,
                        });
                    }
                }
            }
            rows.push(row.expect("WARM_REPS >= 1"));
        }
    }
    rows
}

/// Serializes the incremental scenario as one JSON document:
/// `{"app": {"variant": {measurements..., "warm": {stats...}}, ...}, ...}`.
#[must_use]
pub fn warm_rebuild_json(rows: &[WarmRebuildRow]) -> String {
    let mut apps: Vec<String> = Vec::new();
    let mut i = 0;
    while i < rows.len() {
        let app = &rows[i].app;
        let mut variants = Vec::new();
        while i < rows.len() && rows[i].app == *app {
            let r = &rows[i];
            variants.push(format!(
                r#""{}":{{"methods":{},"mutated":{},"cold_us":{},"cold_compile_cpu_us":{},"warm_us":{},"speedup":{:.3},"hit_rate":{:.6},"group_hit_rate":{:.6},"text_bytes":{},"digests_match":{},"warm":{}}}"#,
                r.variant,
                r.methods,
                r.mutated,
                r.cold.as_micros(),
                r.cold_compile_cpu.as_micros(),
                r.warm.as_micros(),
                r.speedup(),
                r.hit_rate,
                r.group_hit_rate,
                r.text_bytes,
                r.digests_match,
                r.warm_stats.to_json()
            ));
            i += 1;
        }
        apps.push(format!(r#""{app}":{{{}}}"#, variants.join(",")));
    }
    format!("{{{}}}", apps.join(","))
}

// ---------------------------------------------------------------------
// Size/perf frontier: the size stage on and off.
// ---------------------------------------------------------------------

/// A labelled frontier arm: name plus its `BuildOptions` constructor.
pub type FrontierArmSpec = (&'static str, fn() -> BuildOptions);

/// The size stage off and on over a common CTO base: `none` isolates
/// the stage itself (CTO is a codegen-time transform, not a size pass),
/// `outline` runs LTBO.
pub const FRONTIER_ARMS: [FrontierArmSpec; 2] =
    [("none", BuildOptions::cto), ("outline", BuildOptions::cto_ltbo)];

/// One arm's measurements on one app.
#[derive(Clone, Debug)]
pub struct FrontierArm {
    /// Arm name (`none` / `outline`).
    pub arm: &'static str,
    /// `.text` bytes on disk after the arm's size stage.
    pub text_bytes: u64,
    /// Outlined functions created.
    pub outlined_functions: usize,
    /// Total simulator cycles over one pass of the usage trace — the
    /// perf axis of the frontier (each outlined call costs cycles).
    pub cycles: u64,
}

/// One app's row: every arm, in [`FRONTIER_ARMS`] order.
#[derive(Clone, Debug)]
pub struct FrontierRow {
    /// App name.
    pub app: String,
    /// Java + native method count.
    pub methods: usize,
    /// Per-arm measurements.
    pub arms: Vec<FrontierArm>,
}

/// Builds every [`FRONTIER_ARMS`] composition for every app and
/// measures the size/perf frontier.
#[must_use]
pub fn frontier(apps: &[App]) -> Vec<FrontierRow> {
    apps.iter()
        .map(|app| {
            let arms = FRONTIER_ARMS
                .iter()
                .map(|&(arm, options)| {
                    let out = build(&app.dex, &options()).expect("frontier build");
                    let mut rt = Runtime::new(&out.oat, &app.env);
                    run_trace(&mut rt, app, 1);
                    FrontierArm {
                        arm,
                        text_bytes: out.oat.text_size_bytes(),
                        outlined_functions: out.stats.ltbo.outlined_functions,
                        cycles: rt.total_cycles(),
                    }
                })
                .collect();
            FrontierRow { app: app.name.clone(), methods: app.dex.methods().len(), arms }
        })
        .collect()
}

/// Serializes the frontier as one JSON document:
/// `{"apps": {"<app>": {"methods": N, "<arm>": {...}}},
///   "aggregate_text_bytes": {"<arm>": N}}`.
#[must_use]
pub fn frontier_json(rows: &[FrontierRow]) -> String {
    let apps: Vec<String> = rows
        .iter()
        .map(|r| {
            let arms: Vec<String> = r
                .arms
                .iter()
                .map(|a| {
                    format!(
                        r#""{}":{{"text_bytes":{},"outlined_functions":{},"cycles":{}}}"#,
                        a.arm, a.text_bytes, a.outlined_functions, a.cycles
                    )
                })
                .collect();
            format!(r#""{}":{{"methods":{},{}}}"#, r.app, r.methods, arms.join(","))
        })
        .collect();
    let aggregate: Vec<String> = FRONTIER_ARMS
        .iter()
        .enumerate()
        .map(|(i, &(arm, _))| {
            let total: u64 = rows.iter().map(|r| r.arms[i].text_bytes).sum();
            format!(r#""{arm}":{total}"#)
        })
        .collect();
    format!(
        r#"{{"apps":{{{}}},"aggregate_text_bytes":{{{}}}}}"#,
        apps.join(","),
        aggregate.join(",")
    )
}

// ---------------------------------------------------------------------
// Table 2: the outlining + patching example.
// ---------------------------------------------------------------------

/// Reproduces the paper's Table 2 walk-through on a hand-built method:
/// returns the four disassembly listings (original, outlined function,
/// replaced-with-outdated-offset conceptual stage, patched final code).
#[must_use]
pub fn table2() -> Vec<(String, Vec<String>)> {
    use calibro_codegen::{CompiledMethod, MethodMetadata, PcRel};
    use calibro_isa::{decode_all, encode_words, Insn, Reg};

    // The paper's original sequence (Table 2, code 1):
    //   cbz w0, #+0xc ; ldr w2, [x0] ; cmp w2, w1 ; mov x3, x4 ; ldr w3, [x0]
    let body = vec![
        Insn::Cbz { wide: false, rt: Reg::X0, offset: 0xc },
        Insn::LdrImm { wide: false, rt: Reg::X2, rn: Reg::X0, offset: 0 },
        Insn::SubReg {
            wide: false,
            set_flags: true,
            rd: Reg::ZR,
            rn: Reg::X2,
            rm: Reg::X1,
            shift: 0,
        },
        Insn::OrrReg { wide: true, rd: Reg::X3, rn: Reg::ZR, rm: Reg::X4, shift: 0 },
        Insn::LdrImm { wide: false, rt: Reg::X3, rn: Reg::X0, offset: 0 },
        Insn::Ret { rn: Reg::LR },
    ];
    let meta = Arc::new(MethodMetadata {
        pc_rel: vec![PcRel { at: 0, target: 3 }],
        terminators: vec![0, 5],
        ..MethodMetadata::default()
    });
    let make = |id: u32| CompiledMethod {
        method: MethodId(id),
        insns: body.as_slice().into(),
        words: encode_words(&body).expect("the example encodes").into(),
        pool: Arc::default(),
        relocs: Arc::default(),
        metadata: Arc::clone(&meta),
        stack_maps: Arc::default(),
    };
    // The paper illustrates with two occurrences; under the Figure 2
    // model a 2-instruction pair needs four occurrences to profit
    // (2*4 = 8 > 4 + 1 + 2), so we replicate the method four times.
    let mut methods = vec![make(0), make(1), make(2), make(3)];
    let original: Vec<String> = body.iter().map(ToString::to_string).collect();

    let result = calibro::run_ltbo(
        &mut methods,
        &calibro::LtboConfig { min_len: 2, ..calibro::LtboConfig::default() },
    );
    // Outlined bodies and rewritten methods are words: disassemble them.
    let listing = |words: &[u32]| -> Vec<String> {
        decode_all(words).expect("linkable words decode").iter().map(ToString::to_string).collect()
    };
    let outlined = result.outlined.first().map(|f| listing(f)).unwrap_or_default();
    let patched = listing(&methods[0].words);

    vec![
        ("Code 1: original sequence".to_owned(), original),
        ("Code 2: outlined function".to_owned(), outlined),
        ("Code 4: replaced and patched".to_owned(), patched),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_workloads::AppSpec;

    fn tiny_app() -> App {
        generate(&AppSpec::small("tiny", 3))
    }

    #[test]
    fn table4_shapes_hold_on_a_small_app() {
        let apps = vec![tiny_app()];
        let cols = table4(&apps);
        let col = &cols[0];
        // CTO strictly shrinks; LTBO shrinks further; PlOpti and HfOpti
        // give back some of the reduction but never exceed baseline.
        assert!(col.bytes[1] < col.bytes[0], "CTO shrinks");
        assert!(col.bytes[2] < col.bytes[1], "LTBO shrinks more");
        assert!(col.bytes[3] >= col.bytes[2], "PlOpti loses a little");
        assert!(col.bytes[4] >= col.bytes[3], "HfOpti loses a little more");
        assert!(col.bytes[4] < col.bytes[0], "net reduction stays positive");
    }

    #[test]
    fn table1_estimate_exceeds_table4_achieved() {
        let apps = vec![tiny_app()];
        let est = table1(&apps)[0].estimated_ratio;
        let col = &table4(&apps)[0];
        assert!(est > col.ratio(2), "estimate {est} vs achieved {}", col.ratio(2));
        assert!(est > 0.05);
    }

    #[test]
    fn fig4_patterns_present_and_java_calls_dominate() {
        let c = fig4(&tiny_app());
        assert!(c.java_call > 0);
        assert!(c.stack_check > 0);
        assert!(c.runtime_call > 0);
    }

    #[test]
    fn table7_degradation_is_small_and_hfopti_helps() {
        let apps = vec![tiny_app()];
        let col = &table7(&apps, 1)[0];
        let pl = col.degradation(1);
        let hf = col.degradation(2);
        assert!(pl > -0.05, "outlined build should not be much faster: {pl}");
        assert!(hf <= pl + 1e-9, "HfOpti must not worsen degradation: {hf} vs {pl}");
    }

    #[test]
    fn table6_stats_and_json_are_consistent() {
        let apps = vec![tiny_app()];
        let cols = table6(&apps);
        let col = &cols[0];
        // The stats array backs the times array.
        for (time, stats) in col.times.iter().zip(&col.stats) {
            assert_eq!(*time, stats.total_time());
            assert!(stats.methods > 0);
            assert!(stats.passes.insns_in >= stats.passes.insns_out);
        }
        // PlOpti builds compile on the worker pool.
        assert_eq!(col.stats[2].compile_threads, PL_THREADS);
        assert_eq!(
            col.stats[2].per_worker.iter().map(|w| w.items).sum::<usize>(),
            col.stats[2].methods,
        );
        // The JSON document nests app -> variant -> stats and is balanced.
        let json = table6_json(&cols);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains(r#""tiny":{"baseline":{"#));
        assert!(json.contains(r#""cto_ltbo_pl":{"#));
    }

    #[test]
    fn warm_rebuild_replays_everything_but_the_delta() {
        let apps = vec![tiny_app()];
        let rows = warm_rebuild(&apps);
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(row.mutated >= 1);
            assert!(row.digests_match, "{}/{}: warm bytes differ", row.app, row.variant);
            assert!(row.hit_rate > 0.9, "{}/{}: hit rate {}", row.app, row.variant, row.hit_rate);
            assert_eq!(row.warm_stats.methods_from_cache, row.methods - row.mutated);
            assert!(row.text_bytes > 0);
        }
        // The sharded variant replays most cached group plans: an
        // N-method edit dirties at most 2N of the INCR_GROUPS groups.
        let pl = rows.iter().find(|r| r.variant == "cto_ltbo_pl").unwrap();
        assert!(pl.group_hit_rate > 0.8, "group hit rate {}", pl.group_hit_rate);
        assert_eq!(pl.warm_stats.ltbo.detection_groups, INCR_GROUPS);
        // The global variant has one group and it is always dirty.
        let global = rows.iter().find(|r| r.variant == "cto_ltbo").unwrap();
        assert_eq!(global.warm_stats.ltbo.detection_groups, 1);
        assert_eq!(global.warm_stats.cache.group_hits, 0);
        let json = warm_rebuild_json(&rows);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains(r#""tiny":{"baseline":{"#));
        assert!(json.contains(r#""cto_ltbo":{"#));
        assert!(json.contains(r#""cto_ltbo_pl":{"#));
        assert!(json.contains(r#""group_hit_rate""#));
        assert!(json.contains(r#""digests_match":true"#));
    }

    #[test]
    fn table2_reproduces_the_paper_walkthrough() {
        let listings = table2();
        assert_eq!(listings.len(), 3);
        let outlined = &listings[1].1;
        assert_eq!(outlined.len(), 3, "ldr + cmp + br x30");
        assert_eq!(outlined[2], "br x30");
        let patched = &listings[2].1;
        // cbz offset was patched from 0xc to 0x8.
        assert!(patched[0].contains("0x8"), "patched cbz: {}", patched[0]);
        assert!(patched[1].starts_with("bl"), "call to outlined fn: {}", patched[1]);
    }
}
