//! Criterion benchmarks for the warm build's back half, each stage
//! alone: codegen with every method hitting, the outline pass with
//! every group plan hitting and after a 1 % edit, the link, the link of
//! inputs just linked once (what is left of the link when every table
//! it reads was touched a moment ago), and the ELF writer — and outline
//! plus link on one edited build, the pair that plans the edits and
//! applies them — on a primed session over an
//! app of the benchmark's `warm_edit` shape (kuaishou at
//! `paper_suite(2.0)`, 1325 methods, `cto_ltbo_parallel(128, 1)`).
//!
//! A stage consumes its input artifact, so every iteration gets a fresh
//! one from the untimed set-up (`iter_batched`): the stages before it,
//! run through the same session. The ELF writer's set-up is a whole warm
//! build, whose image it writes.
//!
//! Before the timings it prints the primed store's density: the live
//! heap bytes the session holds after the priming build (every method's
//! entry, every group plan), per code word of the app. After them it
//! prints the allocations one call of `outline_after_1pct_edit`, `link`
//! and `to_elf_bytes` makes, its set-up left out; counted last, so the
//! timed rows start from the primed session alone.

use bench::alloc::{count_allocs, retained};
use calibro::{BuildOptions, BuildSession, CodegenArtifact};
use calibro_dex::DexFile;
use calibro_oat::LinkInput;
use calibro_workloads::{generate, mutate_methods, paper_suite};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

// Live heap bytes while `retained` runs, allocation calls while
// `count_allocs` runs.
#[global_allocator]
static ALLOCATOR: bench::alloc::Counting = bench::alloc::Counting;

fn front_half(session: &BuildSession, dex: &DexFile, options: &BuildOptions) -> CodegenArtifact {
    let frontend = session.frontend(dex, options).expect("frontend");
    session.codegen(dex, options, frontend).expect("codegen")
}

fn bench_back_half(c: &mut Criterion) {
    let spec = paper_suite(2.0).into_iter().find(|s| s.name == "kuaishou").expect("kuaishou");
    let dex = generate(&spec).dex;
    let options = BuildOptions::cto_ltbo_parallel(128, 1);
    // The build's output is dropped inside: what stays live is the store.
    let ((session, words), store_bytes) = retained(|| {
        let session = BuildSession::new();
        let words = session.build(&dex, &options).expect("priming build").stats.words_before_ltbo;
        (session, words)
    });
    println!(
        "{:40} {:>9} B live {:>6.1} B/code word ({words} words)",
        "warm_backhalf/primed_store",
        store_bytes,
        store_bytes as f64 / words as f64,
    );
    let primed = session.build(&dex, &options).expect("warm build");

    let mut group = c.benchmark_group("warm_backhalf");
    // Every method hits: codegen replays 1325 entries, sharing each
    // one's instructions instead of copying them.
    group.bench_function("codegen_all_hit", |b| {
        b.iter_batched(
            || session.frontend(&dex, &options).expect("frontend"),
            |frontend| session.codegen(&dex, &options, frontend).expect("codegen"),
            BatchSize::PerIteration,
        );
    });
    group.bench_function("outline_all_groups_hit", |b| {
        b.iter_batched(
            || front_half(&session, &dex, &options),
            |codegen| session.outline(&options, codegen).expect("outline"),
            BatchSize::PerIteration,
        );
    });
    // A fresh 1 % edit per iteration, like a `warm_edit` op: ~13 methods
    // recompile in the set-up and the groups they land in re-detect here.
    let mut edit_seed = 0;
    group.bench_function("outline_after_1pct_edit", |b| {
        b.iter_batched(
            || {
                edit_seed += 1;
                let mut edited = dex.clone();
                assert!(!mutate_methods(&mut edited, edit_seed, 0.01).is_empty());
                front_half(&session, &edited, &options)
            },
            |codegen| session.outline(&options, codegen).expect("outline"),
            BatchSize::PerIteration,
        );
    });
    // Outlining plans each method's edits and the link applies them as
    // it writes the text segment, so this pair is the warm rewrite cost
    // whichever side of the two stages it falls on.
    group.bench_function("outline_link_after_1pct_edit", |b| {
        b.iter_batched(
            || {
                edit_seed += 1;
                let mut edited = dex.clone();
                assert!(!mutate_methods(&mut edited, edit_seed, 0.01).is_empty());
                front_half(&session, &edited, &options)
            },
            |codegen| {
                let size = session.outline(&options, codegen).expect("outline");
                session.link(&options, size).expect("link")
            },
            BatchSize::PerIteration,
        );
    });
    group.bench_function("link", |b| {
        b.iter_batched(
            || session.outline(&options, front_half(&session, &dex, &options)).expect("outline"),
            |size| session.link(&options, size).expect("link"),
            BatchSize::PerIteration,
        );
    });
    // The same inputs as `link`, linked once in the set-up: the gap to
    // `link` is what first touches of the methods' tables cost it.
    group.bench_function("link_hot", |b| {
        b.iter_batched(
            || {
                let size = session
                    .outline(&options, front_half(&session, &dex, &options))
                    .expect("outline");
                let again = LinkInput {
                    methods: size.methods.clone(),
                    edits: size.edits.clone(),
                    outlined: size.outlined.clone(),
                };
                session.link(&options, size).expect("first link");
                again
            },
            |input| calibro_oat::link(input, options.base_address).expect("link"),
            BatchSize::PerIteration,
        );
    });
    // Each write is of a build just made, as in a warm build: timed in a
    // loop over one image, the writer reuses the block the previous
    // iteration freed and reads an image it read a moment ago.
    group.bench_function("to_elf_bytes", |b| {
        b.iter_batched(
            || session.build(&dex, &options).expect("warm build").oat,
            |oat| calibro_oat::to_elf_bytes(&oat),
            BatchSize::PerIteration,
        );
    });
    group.finish();

    // Seed 0 edits nothing the timed rows edited (their seeds start at 1).
    let mut edited = dex.clone();
    assert!(!mutate_methods(&mut edited, 0, 0.01).is_empty());
    let codegen = front_half(&session, &edited, &options);
    let outline = count_allocs(|| session.outline(&options, codegen).expect("outline"));
    let size = session.outline(&options, front_half(&session, &dex, &options)).expect("outline");
    let link = count_allocs(|| session.link(&options, size).expect("link"));
    let elf = count_allocs(|| calibro_oat::to_elf_bytes(&primed.oat));
    for (row, allocs) in
        [("outline_after_1pct_edit", outline), ("link", link), ("to_elf_bytes", elf)]
    {
        println!("{:40} {allocs:>9} allocations", format!("warm_backhalf/{row}"));
    }
}

criterion_group!(benches, bench_back_half);
criterion_main!(benches);
