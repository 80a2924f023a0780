//! Criterion benchmarks for the keys layer — what a build pays to name
//! its inputs before it can probe a cache: `hash_method` over every
//! method of the six-app suite at `paper_suite(0.5)` (the inner loop of
//! the benchmark's `cache.hash_methods_cal_ms` probe), the options
//! fingerprint of the three configurations the benchmark builds under,
//! the whole `method_cache_key` under a compile fingerprint, and the
//! suite's keys through a session's key memo (`session_keys/*`: a fresh
//! session, a second build of the same program, the same program at
//! another load address with a hot set, and a clone with 1 % of its
//! methods edited).

use calibro::{
    compile_fingerprint, method_cache_key, options_fingerprint, BuildOptions, BuildSession,
    StableHasher,
};
use calibro_cache::hash_method;
use calibro_dex::DexFile;
use calibro_workloads::{generate, mutate_methods, paper_suite};
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

fn bench_keys(c: &mut Criterion) {
    let suite: Vec<DexFile> = paper_suite(0.5).iter().map(|spec| generate(spec).dex).collect();
    let methods = || suite.iter().flat_map(DexFile::methods);
    let mut group = c.benchmark_group("keys");

    group.bench_function(format!("hash_method/{}_methods", methods().count()), |b| {
        let mut h = StableHasher::with_capacity(4096);
        b.iter(|| {
            methods().fold(0, |acc, m| {
                hash_method(m, &mut h);
                acc ^ h.finish_reset().lo
            })
        });
    });

    // Every tenth method hot, like a deploy build's profile-derived set.
    let hot = (0..suite[0].methods().len() as u32).step_by(10).collect();
    for (name, options) in [
        ("cto_ltbo", BuildOptions::cto_ltbo()),
        (
            "cto_ltbo_parallel_8_2_hot",
            BuildOptions::cto_ltbo_parallel(8, 2).with_compile_threads(2).with_hot_filter(hot),
        ),
        ("cto_ltbo_parallel_128_1", BuildOptions::cto_ltbo_parallel(128, 1)),
    ] {
        group.bench_function(format!("options_fingerprint/{name}"), |b| {
            b.iter(|| options_fingerprint(&options));
        });
    }

    let fp = compile_fingerprint(&BuildOptions::cto_ltbo_parallel(128, 1).compile_config());
    group.bench_function("method_cache_key", |b| {
        b.iter(|| methods().fold(0, |acc, m| acc ^ method_cache_key(m, fp).lo));
    });

    // The frontend of each suite app through a session, store probes and
    // verification included: a fresh session keys every method and
    // misses the store; a primed one answers every key from its memo and
    // hits, at its own load address or at another with a hot set (one
    // compile config); an edited clone hashes only its edited 1 %, whose
    // graphs it then builds.
    let options = BuildOptions::cto_ltbo_parallel(128, 1);
    let frontends = |session: &BuildSession, options: &BuildOptions, apps: &[DexFile]| {
        apps.iter()
            .map(|dex| session.frontend(dex, options).expect("frontend").keys.len())
            .sum::<usize>()
    };
    let primed = BuildSession::new();
    for dex in &suite {
        primed.build(dex, &options).expect("prime");
    }
    group.bench_function("session_keys/fresh", |b| {
        b.iter_batched(
            BuildSession::new,
            |s| frontends(&s, &options, &suite),
            BatchSize::SmallInput,
        );
    });
    group.bench_function("session_keys/held", |b| b.iter(|| frontends(&primed, &options, &suite)));
    let rebased = BuildOptions { base_address: 0x7000_0000, ..options.clone() }
        .with_hot_filter((0..suite[0].methods().len() as u32).step_by(10).collect());
    for dex in &suite {
        let keyed = primed.frontend(dex, &rebased).expect("frontend").methods_keyed;
        assert_eq!(keyed, 0, "a load address and a hot set key no method");
    }
    group.bench_function("session_keys/rebased", |b| {
        b.iter(|| frontends(&primed, &rebased, &suite));
    });
    let mut nonce = 0;
    group.bench_function("session_keys/edit_1pct", |b| {
        b.iter_batched(
            || {
                nonce += 1;
                let edit = |dex: &DexFile| {
                    let mut edited = dex.clone();
                    mutate_methods(&mut edited, nonce, 0.01);
                    edited
                };
                suite.iter().map(edit).collect::<Vec<_>>()
            },
            |edited| frontends(&primed, &options, &edited),
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_keys);
criterion_main!(benches);
