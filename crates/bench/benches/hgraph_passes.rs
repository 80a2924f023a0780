//! Criterion benchmarks for the per-method compile front half: the
//! verifier, HGraph construction, each optimization pass alone and the
//! whole pipeline, so a regression names its pass.
//!
//! Passes mutate their graph, so every pass routine starts from a clone
//! of the freshly built graphs; `clone_graphs` is that cost alone, to
//! subtract.

use calibro_dex::verify;
use calibro_hgraph::passes::{constant_folding, copy_prop, dce, simplify};
use calibro_hgraph::{build_hgraph, run_pipeline, HGraph};
use calibro_workloads::{generate, AppSpec};
use criterion::{criterion_group, criterion_main, Criterion};

type Pass = fn(&mut HGraph) -> usize;

fn bench_passes(c: &mut Criterion) {
    let app = generate(&AppSpec::small("bench", 5));
    let methods: Vec<_> = app.dex.methods().iter().filter(|m| !m.is_native).collect();
    let graphs: Vec<HGraph> = methods.iter().map(|m| build_hgraph(m)).collect();

    let mut group = c.benchmark_group("hgraph");
    group.bench_function("verify", |b| b.iter(|| verify(&app.dex)));
    group.bench_function("build_hgraph", |b| {
        b.iter(|| methods.iter().map(|m| build_hgraph(m).blocks.len()).sum::<usize>());
    });
    group.bench_function("clone_graphs", |b| b.iter(|| graphs.clone()));
    let passes: [(&str, Pass); 4] = [
        ("copy_prop", copy_prop::run),
        ("constant_folding", constant_folding::run),
        ("simplify", simplify::run),
        ("dce", dce::run),
    ];
    for (name, pass) in passes {
        group.bench_function(name, |b| {
            b.iter(|| graphs.clone().iter_mut().map(pass).sum::<usize>());
        });
    }
    group.bench_function("run_pipeline", |b| {
        b.iter(|| graphs.clone().iter_mut().map(|g| run_pipeline(g).total()).sum::<usize>());
    });
    group.finish();
}

criterion_group!(benches, bench_passes);
criterion_main!(benches);
