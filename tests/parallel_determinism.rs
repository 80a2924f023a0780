//! Differential test for the parallel compile phase: for every Table 4
//! configuration, the serialized OAT bytes must be bit-identical whether
//! the per-method compile phase runs on one thread or eight. This is the
//! contract that lets the bench harness (and any user) turn on
//! `compile_threads` without re-validating outputs.

use std::collections::HashSet;

use calibro::{build, BuildOptions};
use calibro_workloads::{generate, paper_suite, App};

/// The five Table 4 configurations. HfOpti uses a synthetic deterministic
/// hot set (even method ids) instead of a profiling run: the test is
/// about build determinism, not profile quality, and a fixed set keeps
/// the two builds' inputs identical by construction.
fn table4_configs(app: &App) -> Vec<(&'static str, BuildOptions)> {
    let hot: HashSet<u32> =
        app.dex.methods().iter().map(|m| m.id.0).filter(|id| id % 2 == 0).collect();
    vec![
        ("baseline", BuildOptions::baseline()),
        ("cto", BuildOptions::cto()),
        ("cto_ltbo", BuildOptions::cto_ltbo()),
        ("cto_ltbo_pl", BuildOptions::cto_ltbo_parallel(8, 6)),
        ("cto_ltbo_pl_hf", BuildOptions::cto_ltbo_parallel(8, 6).with_hot_filter(hot)),
    ]
}

#[test]
fn parallel_compile_is_bit_identical_across_the_suite() {
    for app in paper_suite(0.1).iter().map(generate) {
        for (name, options) in table4_configs(&app) {
            let sequential = build(&app.dex, &options.clone().with_compile_threads(1))
                .unwrap_or_else(|e| panic!("{}/{name}: sequential build failed: {e}", app.name));
            let parallel = build(&app.dex, &options.with_compile_threads(8))
                .unwrap_or_else(|e| panic!("{}/{name}: parallel build failed: {e}", app.name));

            let seq_bytes = calibro_oat::to_elf_bytes(&sequential.oat);
            let par_bytes = calibro_oat::to_elf_bytes(&parallel.oat);
            assert!(
                seq_bytes == par_bytes,
                "{}/{name}: serialized OAT differs between 1 and 8 compile threads \
                 ({} vs {} bytes)",
                app.name,
                seq_bytes.len(),
                par_bytes.len(),
            );

            // The observability layer must agree on everything that is
            // schedule-independent.
            assert_eq!(sequential.stats.passes, parallel.stats.passes, "{}/{name}", app.name);
            assert_eq!(sequential.stats.methods, parallel.stats.methods);
            assert_eq!(sequential.stats.words_before_ltbo, parallel.stats.words_before_ltbo);
            assert_eq!(sequential.stats.ltbo, parallel.stats.ltbo);
            // ...while the worker accounting reflects each schedule.
            assert_eq!(sequential.stats.compile_threads, 1);
            assert_eq!(parallel.stats.compile_threads, 8);
            assert_eq!(
                parallel.stats.per_worker.iter().map(|w| w.items).sum::<usize>(),
                parallel.stats.methods,
            );
        }
    }
}

#[test]
fn stats_json_round_trips_phase_invariants() {
    let app = generate(&paper_suite(0.1)[0]);
    let out = build(&app.dex, &BuildOptions::cto_ltbo().with_compile_threads(4)).unwrap();
    let json = out.stats.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert!(json.contains(r#""compile_threads":4"#));
    assert!(json.contains(r#""times_us":{"verify":"#));
    // Sub-phase wall clocks are bounded by the whole compile phase.
    assert!(out.stats.graph_time <= out.stats.compile_time);
    assert!(out.stats.codegen_time <= out.stats.compile_time);
    assert!(out.stats.total_time() >= out.stats.compile_time);
}
