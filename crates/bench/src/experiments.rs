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

use crate::record::{gate, micros, ratchet, report, Record};

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
    Profile::capture(&run_trace(&baseline.oat, app, 1))
        .hot_set(fraction)
        .expect("fraction validated by caller")
}

/// Runs the app's usage trace `iterations` times on `oat`, returning
/// the runtime for its counters.
#[must_use]
pub fn run_trace(oat: &OatFile, app: &App, iterations: usize) -> Runtime {
    let mut rt = Runtime::new(oat, &app.env);
    for _ in 0..iterations {
        for call in &app.trace {
            rt.call(call.method, &call.args, STEP_BUDGET).expect("trace call");
        }
    }
    rt
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
        if record.tables.in_embedded_data(w as usize) || record.tables.terminators().contains(&w) {
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
            Fig3Point {
                len,
                sequences: of_len.clone().count(),
                total_repeats: of_len.map(|r| r.count).sum(),
            }
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

/// One app's column of Table 4, 5 or 7: one measurement per variant.
#[derive(Clone, Debug)]
pub struct VariantCol {
    /// App name.
    pub app: String,
    /// One value per variant, in the table's variant order.
    pub values: Vec<u64>,
}

impl VariantCol {
    /// The relative change of variant `i` against the first, the
    /// baseline (negative for a reduction).
    #[must_use]
    pub fn change(&self, i: usize) -> f64 {
        self.values[i] as f64 / self.values[0] as f64 - 1.0
    }

    /// The reduction of variant `i` against the baseline.
    #[must_use]
    pub fn reduction(&self, i: usize) -> f64 {
        1.0 - self.values[i] as f64 / self.values[0] as f64
    }
}

/// Builds every app under each of `variants` and measures each build.
fn per_variant(
    apps: &[App],
    variants: &[Variant],
    measure: impl Fn(&App, BuildOutput) -> u64,
) -> Vec<VariantCol> {
    let col = |app: &App| VariantCol {
        app: app.name.clone(),
        values: variants.iter().map(|&v| measure(app, build_variant(app, v))).collect(),
    };
    apps.iter().map(col).collect()
}

/// Reproduces Table 4: on-disk `.text` size per app and variant, in
/// [`Variant::ALL`] order — measured on the serialized ELF text, like
/// `pm compile` + section inspection in the paper.
#[must_use]
pub fn table4(apps: &[App]) -> Vec<VariantCol> {
    per_variant(apps, &Variant::ALL, |_, out| out.oat.text_size_bytes())
}

// ---------------------------------------------------------------------
// Table 5: memory usage reduction.
// ---------------------------------------------------------------------

/// Reproduces Table 5: memory usage (resident pages) after running the
/// usage trace, for Baseline / CTO / CTO+LTBO.
#[must_use]
pub fn table5(apps: &[App]) -> Vec<VariantCol> {
    per_variant(apps, &[Variant::Baseline, Variant::Cto, Variant::CtoLtbo], |app, out| {
        // The dex/vdex file, .art image and runtime metadata stay
        // resident regardless of variant; the paper's memory numbers
        // include those non-.text portions, which is why its Table 5
        // percentages sit well below the Table 4 code reductions.
        let fixed = (app.dex.total_insns() * 8) as u64;
        // The paper measures the OAT file's memory usage: its
        // resident code pages plus the always-mapped oatdata.
        run_trace(&out.oat, app, 1).resident_code_bytes() + fixed
    })
}

// ---------------------------------------------------------------------
// Table 6: build time.
// ---------------------------------------------------------------------

report! {
    /// One Table 6 build: one app under one variant, with its full
    /// stats — the observability payload `BENCH_table6.json` records.
    pub struct Table6Row {
        /// App name.
        pub app: String,
        /// Variant label (`baseline`, `cto_ltbo` or `cto_ltbo_pl`).
        pub variant: &'static str,
        /// The build's stats; its time is [`BuildStats::total_time`].
        pub stats: BuildStats,
    }
}

/// Reproduces Table 6: wall-clock build time per variant, as
/// [`BuildStats::total_time`], one row per app × variant with each
/// app's Baseline, CTO+LTBO (single tree) and CTO+LTBO+PlOpti builds
/// together. That total includes dex verification (the same cost in
/// all three variants), which it left out when the committed
/// `BENCH_*.json` / EXPERIMENTS.md tables were generated: a regenerated
/// table reads slightly higher times and slightly lower growth
/// percentages than those.
#[must_use]
pub fn table6(apps: &[App]) -> Vec<Table6Row> {
    let variants = [
        ("baseline", Variant::Baseline),
        ("cto_ltbo", Variant::CtoLtbo),
        ("cto_ltbo_pl", Variant::CtoLtboPl),
    ];
    let row = |app: &App, &(variant, v): &(&'static str, Variant)| Table6Row {
        app: app.name.clone(),
        variant,
        stats: build_variant(app, v).stats,
    };
    apps.iter().flat_map(|app| variants.iter().map(move |v| row(app, v))).collect()
}

/// Table 6's record: the app count, then one row per app × variant.
#[must_use]
pub fn table6_record(rows: &[Table6Row]) -> Record {
    let apps = rows.iter().filter(|r| r.variant == "baseline").count();
    Record {
        arm: "table6",
        fields: vec![("apps", apps.into())],
        rows: rows.iter().map(Table6Row::fields).collect(),
    }
}

/// Table 6's exact gate: no build's passes grew the code, and each
/// PlOpti build's workers compiled every method between them.
///
/// # Errors
///
/// One line per failed check.
pub fn table6_gate(rows: &[Table6Row]) -> Result<(), Vec<String>> {
    let mut checks = Vec::new();
    for r in rows {
        let (insns_in, insns_out) = (r.stats.passes.insns_in, r.stats.passes.insns_out);
        let name = format!("{}/{}", r.app, r.variant);
        checks.push((
            insns_in >= insns_out,
            format!("{name}: the passes grew {insns_in} insns to {insns_out}"),
        ));
        let items: usize = r.stats.per_worker.iter().map(|w| w.items).sum();
        let methods = r.stats.methods;
        let compiled_all = r.variant != "cto_ltbo_pl" || items == methods;
        checks.push((
            compiled_all,
            format!("{name}: the workers compiled {items} of {methods} methods"),
        ));
    }
    gate(checks)
}

// ---------------------------------------------------------------------
// Table 7: runtime performance (CPU cycle counts).
// ---------------------------------------------------------------------

/// Reproduces Table 7: CPU cycle counts over the usage trace
/// (`iterations` runs, like the paper's 20 repeated uiautomator runs),
/// for Baseline / CTO+LTBO+PlOpti / +HfOpti.
#[must_use]
pub fn table7(apps: &[App], iterations: usize) -> Vec<VariantCol> {
    let variants = [Variant::Baseline, Variant::CtoLtboPl, Variant::CtoLtboPlHf];
    per_variant(apps, &variants, |app, out| run_trace(&out.oat, app, iterations).total_cycles())
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

report! {
    /// One incremental-rebuild measurement: one app under one variant,
    /// walls and CPU in µs.
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
        pub cold_us: u64,
        /// CPU time the cold build spent compiling method bodies — the
        /// work the warm cache elides, and the denominator the keys phase
        /// must stay small against (it compares the probe cost with what
        /// compilation *would* cost, not with the near-zero CPU a
        /// fully-warm rebuild happens to spend).
        pub cold_compile_cpu_us: u64,
        /// Wall time of the warm rebuild through the populated cache.
        pub warm_us: u64,
        /// The warm rebuild's keys phase: fingerprints and store probes.
        pub keys_us: u64,
        /// The warm rebuild's re-detection of the groups whose plan
        /// missed (zero when every plan replays).
        pub detect_us: u64,
        /// Cold-over-warm wall-time ratio.
        pub speedup: f64,
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
        for &(variant, ref options) in &variants {
            let reps: Vec<_> = (0..WARM_REPS).map(|_| race(app, variant, options)).collect();
            // Phase minima; the other fields are identical across
            // repetitions (same program, same deterministic mutation)
            // except digests_match, which must hold on every run.
            let cold = reps.iter().min_by_key(|r| r.cold_us).expect("WARM_REPS >= 1");
            let warm = reps.iter().min_by_key(|r| r.warm_us).expect("WARM_REPS >= 1");
            #[allow(clippy::cast_precision_loss)]
            rows.push(WarmRebuildRow {
                cold_us: cold.cold_us,
                cold_compile_cpu_us: cold.cold_compile_cpu_us,
                speedup: cold.cold_us as f64 / warm.warm_us.max(1) as f64,
                digests_match: reps.iter().all(|r| r.digests_match),
                ..warm.clone()
            });
        }
    }
    rows
}

/// One repetition of [`warm_rebuild`]'s race: prime a fresh session
/// with the app, edit it, then time a cold build of the edit against
/// the session's warm rebuild.
fn race(app: &App, variant: &'static str, options: &BuildOptions) -> WarmRebuildRow {
    let session = BuildSession::new();
    session.build(&app.dex, options).expect("priming build");
    let mut edited = app.dex.clone();
    let mutated = mutate_methods(&mut edited, 13, WARM_MUTATION_FRACTION).len();

    let t = Instant::now();
    let cold = build(&edited, options).expect("cold build");
    let cold_us = micros(t.elapsed());
    let t = Instant::now();
    let warm = session.build(&edited, options).expect("warm build");
    let warm_us = micros(t.elapsed());

    WarmRebuildRow {
        app: app.name.clone(),
        variant,
        methods: warm.stats.methods,
        mutated,
        cold_us,
        cold_compile_cpu_us: micros(cold.stats.compile_cpu_time),
        warm_us,
        keys_us: micros(warm.stats.key_time),
        detect_us: micros(warm.stats.detect_time),
        speedup: 0.0,
        hit_rate: warm.stats.cache.hit_rate(),
        group_hit_rate: warm.stats.cache.group_hit_rate(),
        text_bytes: warm.oat.text_size_bytes(),
        digests_match: cold.oat.words == warm.oat.words
            && cold.oat.text_digest() == warm.oat.text_digest(),
        warm_stats: warm.stats,
    }
}

/// The sum of the sharded (`cto_ltbo_pl`) rows' warm walls in µs: the
/// incremental ratchet's number. One sum over the suite, not one
/// comparison per app: a single app's warm wall (a few ms) swings by
/// more than [`NOISE`](crate::record::NOISE) between runner states; the sum does not.
#[must_use]
pub fn suite_warm_us(rows: &[WarmRebuildRow]) -> u64 {
    rows.iter().filter(|r| r.variant == "cto_ltbo_pl").map(|r| r.warm_us).sum()
}

/// The incremental scenario's record: the suite's sharded warm walls
/// summed ([`suite_warm_us`]), then one row per app × variant.
#[must_use]
pub fn warm_rebuild_record(rows: &[WarmRebuildRow]) -> Record {
    Record {
        arm: "incremental",
        fields: vec![("suite_warm_us", suite_warm_us(rows).into())],
        rows: rows.iter().map(WarmRebuildRow::fields).collect(),
    }
}

/// The incremental gate, on every sharded (`cto_ltbo_pl`) row: the
/// warm keys phase under half the compile CPU the cold build spent
/// (the work the cache elides — keys must stay off the warm critical
/// path), warm bytes equal to cold, and the warm rebuild faster than
/// the cold build. Then [`suite_warm_us`] against the `committed` sum
/// ([`ratchet`]); the gate is on the warm wall, not on cold / warm, so
/// a faster compiler cannot trip it.
///
/// # Errors
///
/// One line per failed check.
pub fn incremental_gate(
    rows: &[WarmRebuildRow],
    committed: Option<f64>,
) -> Result<(), Vec<String>> {
    let mut checks = Vec::new();
    for r in rows.iter().filter(|r| r.variant == "cto_ltbo_pl") {
        let (keys, cpu) = (r.keys_us, r.cold_compile_cpu_us);
        let (warm, cold) = (r.warm_us, r.cold_us);
        checks.extend([
            (
                keys * 2 < cpu,
                format!(
                    "{}: warm keys {keys}us not under half the cold compile CPU {cpu}us",
                    r.app
                ),
            ),
            (r.digests_match, format!("{}: warm output differs from cold build", r.app)),
            (
                warm < cold,
                format!(
                    "{}: warm rebuild {warm}us is no faster than the cold build {cold}us",
                    r.app
                ),
            ),
        ]);
    }
    checks.extend(ratchet("the suite's warm CTO+LTBO rebuilds", suite_warm_us(rows), committed));
    gate(checks)
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

report! {
    /// One arm's measurements on one app.
    pub struct FrontierRow {
        /// App name.
        pub app: String,
        /// Arm name (`none` / `outline`).
        pub arm: &'static str,
        /// Java + native method count.
        pub methods: usize,
        /// `.text` bytes on disk after the arm's size stage.
        pub text_bytes: u64,
        /// Outlined functions created.
        pub outlined_functions: usize,
        /// Total simulator cycles over one pass of the usage trace — the
        /// perf axis of the frontier (each outlined call costs cycles).
        pub cycles: u64,
    }
}

/// Builds every [`FRONTIER_ARMS`] composition for every app and
/// measures the size/perf frontier: one row per app × arm, each app's
/// arms together in [`FRONTIER_ARMS`] order.
#[must_use]
pub fn frontier(apps: &[App]) -> Vec<FrontierRow> {
    let measure = |app: &App, &(arm, options): &FrontierArmSpec| {
        let out = build(&app.dex, &options()).expect("frontier build");
        FrontierRow {
            app: app.name.clone(),
            arm,
            methods: app.dex.methods().len(),
            text_bytes: out.oat.text_size_bytes(),
            outlined_functions: out.stats.ltbo.outlined_functions,
            cycles: run_trace(&out.oat, app, 1).total_cycles(),
        }
    };
    apps.iter().flat_map(|app| FRONTIER_ARMS.iter().map(move |arm| measure(app, arm))).collect()
}

/// How many apps the frontier must cover: the six-app suite.
pub const FRONTIER_APPS: usize = 6;

/// The frontier's exact gate — `.text` sizes carry no timing, so no
/// noise tolerance: [`FRONTIER_APPS`] apps, and on each the `outline`
/// arm's `.text` below the `none` arm's.
///
/// # Errors
///
/// One line per failed check.
pub fn frontier_gate(rows: &[FrontierRow]) -> Result<(), Vec<String>> {
    let apps = rows.chunks(FRONTIER_ARMS.len());
    let mut checks = vec![(
        apps.len() == FRONTIER_APPS,
        format!("frontier covers {} apps, not {FRONTIER_APPS}", apps.len()),
    )];
    for arms in apps {
        let (none, outline) = (arms[0].text_bytes, arms.last().map_or(0, |a| a.text_bytes));
        checks.push((
            outline < none,
            format!("{}: outline .text {outline} is not below none {none}", arms[0].app),
        ));
    }
    gate(checks)
}

/// The frontier's record: each arm's `.text` summed over the apps
/// (`<arm>_text_bytes`), then one row per app × arm.
#[must_use]
pub fn frontier_record(rows: &[FrontierRow]) -> Record {
    let total = |arm| rows.iter().filter(|r| r.arm == arm).map(|r| r.text_bytes).sum::<u64>();
    Record {
        arm: "frontier",
        fields: vec![
            ("none_text_bytes", total("none").into()),
            ("outline_text_bytes", total("outline").into()),
        ],
        rows: rows.iter().map(FrontierRow::fields).collect(),
    }
}

// ---------------------------------------------------------------------
// Table 2: the outlining + patching example.
// ---------------------------------------------------------------------

/// Reproduces the paper's Table 2 walk-through on a hand-built method:
/// returns the four disassembly listings (original, outlined function,
/// replaced-with-outdated-offset conceptual stage, patched final code).
#[must_use]
pub fn table2() -> Vec<(String, Vec<String>)> {
    use calibro_codegen::{CompiledMethod, MethodTables, TableSlices};
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
    let tables = MethodTables::new(TableSlices {
        pc_rel: &[[0, 3]],
        terminators: &[0, 5],
        ..TableSlices::default()
    });
    let make = |id: u32| CompiledMethod {
        method: MethodId(id),
        insns: body.as_slice().into(),
        words: encode_words(&body).expect("the example encodes").into(),
        pool: Arc::default(),
        relocs: Arc::default(),
        tables: tables.clone(),
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
    let outlined = listing(result.outlined.of(0));
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
    use crate::record::{assert_each_break_fails_alone, top_level_number, Break};
    use calibro_workloads::AppSpec;

    fn tiny_app() -> App {
        generate(&AppSpec::small("tiny", 3))
    }

    #[test]
    fn the_frontier_gate_names_each_broken_check() {
        let app = |app: &str, none: u64, outline: u64| {
            let row = |&(arm, _): &FrontierArmSpec, text_bytes| FrontierRow {
                app: app.to_owned(),
                arm,
                text_bytes,
                ..FrontierRow::default()
            };
            [row(&FRONTIER_ARMS[0], none), row(&FRONTIER_ARMS[1], outline)]
        };
        let rows: Vec<FrontierRow> = (0..6).flat_map(|i| app(&format!("a{i}"), 10, 9)).collect();
        assert_eq!(frontier_gate(&rows), Ok(()));
        assert_eq!(frontier_gate(&rows[2..]), Err(vec!["frontier covers 5 apps, not 6".into()]));
        let mut even = rows.clone();
        even.splice(4..6, app("even", 10, 10));
        assert_eq!(
            frontier_gate(&even),
            Err(vec!["even: outline .text 10 is not below none 10".into()])
        );
        let json = frontier_record(&rows).to_json();
        assert_eq!(top_level_number(&json, "outline_text_bytes"), Some(54.0));
        assert_eq!(top_level_number(&json, "none_text_bytes"), Some(60.0));
    }

    #[test]
    fn the_table6_gate_names_each_broken_check() {
        let row = |variant| {
            let mut stats = BuildStats { methods: 2, ..BuildStats::default() };
            stats.passes.insns_in = 5;
            stats.per_worker = vec![calibro::WorkerLoad { items: 2, ..Default::default() }];
            Table6Row { app: "tiny".into(), variant, stats }
        };
        let rows = vec![row("baseline"), row("cto_ltbo"), row("cto_ltbo_pl")];
        let breaks: [Break<Vec<Table6Row>>; 2] = [
            (|r| r[0].stats.passes.insns_out = 6, "tiny/baseline: the passes grew 5 insns to 6"),
            (|r| r[2].stats.methods = 3, "tiny/cto_ltbo_pl: the workers compiled 2 of 3 methods"),
        ];
        assert_each_break_fails_alone(&rows, |rows| table6_gate(rows), &breaks);
        // Only the PlOpti build is held to its workers' count.
        let mut unsharded = rows.clone();
        unsharded[0].stats.methods = 3;
        assert_eq!(table6_gate(&unsharded), Ok(()));
    }

    fn warm_row(variant: &'static str, warm_us: u64) -> WarmRebuildRow {
        WarmRebuildRow {
            app: "tiny".into(),
            variant,
            cold_us: 4 * warm_us,
            cold_compile_cpu_us: 21,
            warm_us,
            keys_us: 10,
            digests_match: true,
            ..WarmRebuildRow::default()
        }
    }

    #[test]
    fn the_incremental_gate_names_each_broken_check_of_the_sharded_rows() {
        let rows = vec![warm_row("baseline", 1), warm_row("cto_ltbo_pl", 100)];
        let breaks: [Break<Vec<WarmRebuildRow>>; 3] = [
            (
                |r| r[1].cold_compile_cpu_us = 20,
                "tiny: warm keys 10us not under half the cold compile CPU 20us",
            ),
            (|r| r[1].digests_match = false, "tiny: warm output differs from cold build"),
            (
                |r| r[1].cold_us = r[1].warm_us,
                "tiny: warm rebuild 100us is no faster than the cold build 100us",
            ),
        ];
        let gate = |rows: &Vec<WarmRebuildRow>| incremental_gate(rows, None);
        assert_each_break_fails_alone(&rows, gate, &breaks);
        // The unsharded rows are not gated.
        let mut unsharded = rows.clone();
        (unsharded[0].digests_match, unsharded[0].cold_us) = (false, 0);
        assert_eq!(gate(&unsharded), Ok(()));
    }

    #[test]
    fn the_incremental_ratchet_reads_the_sum_the_writer_wrote() {
        let committed = [warm_row("cto_ltbo_pl", 21_000), warm_row("cto_ltbo_pl", 755)];
        let json = warm_rebuild_record(&committed).to_json();
        let baseline = top_level_number(&json, "suite_warm_us");
        assert_eq!(baseline, Some(21_755.0));
        // 21 755 / 0.75 = 29 006.7: the sum may reach 29 006, not 29 007.
        let fresh = |second| [warm_row("cto_ltbo_pl", 29_000), warm_row("cto_ltbo_pl", second)];
        assert_eq!(incremental_gate(&fresh(6), baseline), Ok(()));
        assert_eq!(
            incremental_gate(&fresh(7), baseline),
            Err(vec![
                "the suite's warm CTO+LTBO rebuilds: 29007us, over the committed 21755us / 0.75"
                    .to_owned()
            ])
        );
        assert_eq!(incremental_gate(&fresh(7), None), Ok(()), "no committed record, no ratchet");
    }

    #[test]
    fn table4_shapes_hold_on_a_small_app() {
        let apps = vec![tiny_app()];
        let cols = table4(&apps);
        let col = &cols[0];
        // CTO strictly shrinks; LTBO shrinks further; PlOpti and HfOpti
        // give back some of the reduction but never exceed baseline.
        let bytes = &col.values;
        assert!(bytes[1] < bytes[0], "CTO shrinks");
        assert!(bytes[2] < bytes[1], "LTBO shrinks more");
        assert!(bytes[3] >= bytes[2], "PlOpti loses a little");
        assert!(bytes[4] >= bytes[3], "HfOpti loses a little more");
        assert!(bytes[4] < bytes[0], "net reduction stays positive");
    }

    #[test]
    fn table1_estimate_exceeds_table4_achieved() {
        let apps = vec![tiny_app()];
        let est = table1(&apps)[0].estimated_ratio;
        let col = &table4(&apps)[0];
        assert!(est > col.reduction(2), "estimate {est} vs achieved {}", col.reduction(2));
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
        let pl = col.change(1);
        let hf = col.change(2);
        assert!(pl > -0.05, "outlined build should not be much faster: {pl}");
        assert!(hf <= pl + 1e-9, "HfOpti must not worsen degradation: {hf} vs {pl}");
    }

    #[test]
    fn table6_stats_and_json_are_consistent() {
        let apps = vec![tiny_app()];
        let rows = table6(&apps);
        assert_eq!(
            rows.iter().map(|r| r.variant).collect::<Vec<_>>(),
            ["baseline", "cto_ltbo", "cto_ltbo_pl"]
        );
        for r in &rows {
            assert!(r.stats.methods > 0);
            assert!(r.stats.passes.insns_in >= r.stats.passes.insns_out);
        }
        // PlOpti builds compile on the worker pool.
        let pl = &rows[2].stats;
        assert_eq!(pl.compile_threads, PL_THREADS);
        assert_eq!(pl.per_worker.iter().map(|w| w.items).sum::<usize>(), pl.methods);
        assert_eq!(table6_gate(&rows), Ok(()));
        // One row per app x variant, each with its build's stats.
        let json = table6_record(&rows).to_json();
        assert!(json.contains(r#"{"arm":"table6","apps":1,"rows":[{"app":"tiny","variant":"baseline","stats":{"methods":"#));
        assert!(json.contains(r#"{"app":"tiny","variant":"cto_ltbo_pl","stats":{"#));
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
        let json = warm_rebuild_record(&rows).to_json();
        assert_eq!(top_level_number(&json, "suite_warm_us"), Some(pl.warm_us as f64));
        assert!(json.contains(r#"{"app":"tiny","variant":"cto_ltbo","methods":"#));
        assert!(json.contains(r#""digests_match":true,"warm_stats":{"methods":"#));
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
