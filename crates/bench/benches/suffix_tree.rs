//! Criterion benchmarks for the suffix-tree stage: the mechanism behind
//! the paper's Table 6 (single global tree vs paralleled trees).

use calibro_suffix::{detect_group, partition_stable, SuffixTree, TaggedSequence};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
        group.bench_with_input(BenchmarkId::new("ukkonen", n), &text, |b, text| {
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

criterion_group!(benches, bench_build, bench_global_vs_sharded);
criterion_main!(benches);
