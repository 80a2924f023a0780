//! Criterion benchmarks for the suffix-tree stage: the mechanism behind
//! the paper's Table 6 (single global tree vs paralleled trees), the
//! scale ladder that says how detection grows with the program, and the
//! groups a warm rebuild re-detects, one of them split into its tree and
//! its selection.

use bench::alloc::peak_heap;
use calibro::{build, build_template, detect_rows, BuildOptions, BuildSession, SymbolTemplate};
use calibro_cache::GroupPlanEntry;
use calibro_codegen::CompiledMethod;
use calibro_dex::DexFile;
use calibro_suffix::{
    detect_group, group_text_len, partition_stable, partition_stable_by, select_outline_rows,
    SuffixTree, TaggedSequence, UNIQUE_SEPARATOR_BASE,
};
use calibro_workloads::{generate, mutate_methods, paper_suite};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

// Live heap bytes and their high-water mark while `peak_heap` runs.
#[global_allocator]
static ALLOCATOR: bench::alloc::Counting = bench::alloc::Counting;

/// Builds method-like sequences with shared motifs.
fn sequences(n_methods: usize, len: usize, seed: u64) -> Vec<TaggedSequence> {
    let mut rng = StdRng::seed_from_u64(seed);
    let motifs: Vec<Vec<u64>> =
        (0..16).map(|_| (0..rng.gen_range(3..8)).map(|_| rng.gen_range(0..64)).collect()).collect();
    (0..n_methods)
        .map(|tag| {
            let mut symbols = Vec::with_capacity(len);
            while symbols.len() < len {
                if rng.gen_bool(0.5) {
                    symbols.extend_from_slice(&motifs[rng.gen_range(0..motifs.len())]);
                } else {
                    symbols.push(rng.gen_range(1_000..2_000));
                }
            }
            TaggedSequence { tag, symbols }
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("suffix_tree_build");
    for n in [10_000usize, 50_000] {
        let text: Vec<u64> = {
            let mut rng = StdRng::seed_from_u64(7);
            (0..n).map(|_| rng.gen_range(0..256)).collect()
        };
        group.bench_with_input(BenchmarkId::new("esa", n), &text, |b, text| {
            b.iter(|| SuffixTree::build(text.clone()));
        });
    }
    group.finish();
}

fn bench_global_vs_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("detection");
    group.sample_size(10);
    let seqs = sequences(200, 300, 11);
    group.bench_function("global_tree", |b| {
        b.iter(|| detect_group(&seqs, 2));
    });
    group.bench_function("eight_groups", |b| {
        b.iter(|| {
            let groups = partition_stable(seqs.clone(), 8);
            groups.iter().map(|g| detect_group(g, 2)).collect::<Vec<_>>()
        });
    });
    group.finish();
}

/// Table 6's "why" as numbers: detection over the six apps of
/// `paper_suite(scale)` at three rungs, one global tree per app and
/// eight content-stable shards per app. An app's text is its CTO
/// build's §3.3.2 sequences (`bench::method_sequences`), the code link-time
/// outlining reads. The criterion line is one detection of the whole
/// suite (the id's parameter is its symbol count); the line after it is
/// the live-heap growth of each `detect_group` alone, summed over the
/// groups, per symbol.
fn bench_ladder(c: &mut Criterion) {
    let mut group = c.benchmark_group("ladder");
    for scale in [0.5, 2.0, 8.0] {
        let apps: Vec<Vec<TaggedSequence>> = paper_suite(scale)
            .iter()
            .map(|spec| {
                let options = BuildOptions { force_metadata: true, ..BuildOptions::cto() };
                let out = build(&generate(spec).dex, &options).expect("cto build");
                bench::method_sequences(&out.oat)
            })
            .collect();
        let symbols: usize =
            apps.iter().map(|app| group_text_len(app.iter().map(|s| s.symbols.len()))).sum();
        for shards in [1, 8] {
            let groups: Vec<Vec<TaggedSequence>> =
                apps.iter().flat_map(|app| partition_stable(app.clone(), shards)).collect();
            let rung = format!("s{scale}_x{shards}");
            group.bench_with_input(BenchmarkId::new(&rung, symbols), &groups, |b, groups| {
                b.iter(|| groups.iter().map(|g| detect_group(g, 2)).collect::<Vec<_>>());
            });
            let peaks: usize = groups.iter().map(|g| peak_heap(|| detect_group(g, 2))).sum();
            let bytes_per_symbol = peaks as f64 / symbols as f64;
            println!("{:40} {bytes_per_symbol:>9.1} B/symbol peak heap", format!("ladder/{rung}"));
        }
    }
    group.finish();
}

/// `dex` compiled as `cto_ltbo_parallel(128, 1)` builds it, each
/// method's symbolization template, and the candidate methods dealt into
/// the pass's 128 content-stable groups by their templates' group hash —
/// what the outline pass detects over.
struct WarmApp {
    methods: Vec<CompiledMethod>,
    templates: Vec<SymbolTemplate>,
    groups: Vec<Vec<usize>>,
}

impl WarmApp {
    fn new(dex: &DexFile) -> WarmApp {
        let options = BuildOptions::cto_ltbo_parallel(128, 1);
        let session = BuildSession::new();
        let frontend = session.frontend(dex, &options).expect("frontend");
        let codegen = session.codegen(dex, &options, frontend).expect("codegen");
        let methods: Vec<CompiledMethod> =
            codegen.outcomes.iter().map(|o| o.compiled.clone()).collect();
        let templates: Vec<SymbolTemplate> =
            methods.iter().map(|m| build_template(m, false)).collect();
        let candidates = (0..methods.len())
            .filter(|&i| !methods[i].tables.has_indirect_jump())
            .filter(|&i| !methods[i].tables.is_native_stub());
        let groups =
            partition_stable_by(candidates.collect(), 128, |_, &i| templates[i].group_hash());
        WarmApp { methods, templates, groups }
    }

    /// Length of `group`'s detection text.
    fn text_len(&self, group: &[usize]) -> usize {
        group_text_len(group.iter().map(|&i| self.templates[i].symbol_count()))
    }

    /// `group` re-detected as the outline pass does it: its members'
    /// texts replayed into one, the tree, the plan and its rows.
    fn detect(&self, group: &[usize]) -> GroupPlanEntry {
        detect_rows(group, &self.methods, |i| &self.templates[i], 2)
    }
}

/// Dirty groups of a `warm_edit` op, and where their time goes: the
/// benchmark's warm app (kuaishou at `paper_suite(2.0)`, 1325 methods)
/// in its 128 groups ([`WarmApp`]), each detected as the outline pass
/// does it (`calibro::detect_rows`: the members' texts replayed
/// into one, `SuffixTree::build`, `select_outline_rows`, word-space
/// rows). `dirty_set` detects every group one seeded 1 % edit dirties (a
/// member's text changed), as the op re-detects them; the id's parameter
/// is their symbol count. Then the group whose text is nearest 1 600
/// symbols: `detect_rows` whole, and its kernel alone,
/// `SuffixTree::build` over the group's text (rank, sort, LCPs,
/// intervals) and `select_outline_rows` over the built tree; the id's
/// parameter is the text's length.
fn bench_warm_group(c: &mut Criterion) {
    let spec = paper_suite(2.0).into_iter().find(|s| s.name == "kuaishou").expect("kuaishou");
    let dex = generate(&spec).dex;
    let mut edited = dex.clone();
    assert!(!mutate_methods(&mut edited, 0x5eed, 0.01).is_empty(), "the edit changed nothing");
    let (app, after) = (WarmApp::new(&dex), WarmApp::new(&edited));
    let shape = |app: &WarmApp, group: &[usize]| {
        group.iter().map(|&i| (i, app.templates[i].group_hash())).collect::<Vec<_>>()
    };
    let dirty: Vec<&[usize]> = (after.groups.iter().zip(&app.groups))
        .filter(|(edited, group)| shape(&after, edited) != shape(&app, group))
        .map(|(edited, _)| &edited[..])
        .collect();
    assert!(!dirty.is_empty() && dirty.len() < app.groups.len());
    let dirty_symbols: usize = dirty.iter().map(|g| after.text_len(g)).sum();
    let group = app.groups.iter().min_by_key(|g| app.text_len(g).abs_diff(1_600)).expect("a group");
    // The group's text as `detect_rows` builds it: each member, then a
    // joint of its own.
    let mut text = Vec::with_capacity(app.text_len(group) + 1);
    let mut unique = UNIQUE_SEPARATOR_BASE;
    for &i in group {
        app.templates[i].replay_into(&app.methods[i].words, &mut unique, &mut text);
        text.push(unique);
        unique += 1;
    }
    let symbols = text.len();
    let tree = SuffixTree::build(text.clone());

    let mut bench = c.benchmark_group("warm_group");
    bench.bench_with_input(BenchmarkId::new("dirty_set", dirty_symbols), &dirty, |b, dirty| {
        b.iter(|| dirty.iter().map(|g| after.detect(g)).collect::<Vec<_>>());
    });
    bench.bench_with_input(BenchmarkId::new("detect_rows", symbols), group, |b, group| {
        b.iter(|| app.detect(group));
    });
    bench.bench_with_input(BenchmarkId::new("tree_build", symbols), &text, |b, text| {
        b.iter(|| SuffixTree::build(text.clone()));
    });
    bench.bench_with_input(BenchmarkId::new("select_outline_rows", symbols), &tree, |b, tree| {
        b.iter(|| select_outline_rows(tree, 2, symbols));
    });
    bench.finish();
}

criterion_group!(benches, bench_build, bench_global_vs_sharded, bench_ladder, bench_warm_group);
criterion_main!(benches);
