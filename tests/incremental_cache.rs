//! Incremental-recompilation contract tests for the staged pipeline's
//! content-addressed artifact cache:
//!
//! 1. **Invalidation matrix** — flipping any [`BuildOptions`] field or
//!    pass toggle changes the options fingerprint, and flipping one that
//!    codegen reads (its [`CompileConfig`](calibro::CompileConfig))
//!    changes every method's cache key; editing a method changes exactly
//!    that method's key.
//! 2. **Warm == cold, bit for bit** — after an N-method delta, a warm
//!    rebuild recompiles only the N changed methods and serializes to
//!    the same ELF bytes as a cold build, under 1 and 8 compile threads
//!    and across outlining configurations.
//! 3. **Poisoned persistence** — a corrupt on-disk entry surfaces as
//!    [`BuildError::Cache`], never as a panic or wrong code.

use std::collections::HashSet;
use std::sync::Arc;

use calibro::{
    build, compile_fingerprint, method_cache_key, options_fingerprint, reference_env,
    ArtifactStore, BuildError, BuildOptions, BuildSession, CacheConfig, CacheEntry, CacheKey,
    LtboMode, PipelineConfig, StableHasher,
};
use calibro_dex::DexFile;
use calibro_workloads::{generate, mutate_methods, AppSpec};

/// Every single-field variation of the default options. The exhaustive
/// destructure (no `..`) makes adding a `BuildOptions` or
/// `PipelineConfig` field a compile error here, forcing the new knob
/// into this matrix alongside the fingerprint itself.
fn single_field_variants() -> Vec<(&'static str, BuildOptions)> {
    let BuildOptions {
        cto: _,
        ltbo: _,
        min_seq_len: _,
        hot_methods: _,
        base_address: _,
        force_metadata: _,
        compile_threads: _,
        passes: PipelineConfig { copy_prop: _, constant_folding: _, simplify: _, dce: _ },
    } = BuildOptions::default();

    let base = BuildOptions::default;
    let hot: HashSet<u32> = [1, 2, 3].into_iter().collect();
    let mut variants = vec![
        ("cto", BuildOptions { cto: true, ..base() }),
        ("ltbo_global", BuildOptions { ltbo: Some(LtboMode::Global), ..base() }),
        (
            "ltbo_parallel",
            BuildOptions { ltbo: Some(LtboMode::Parallel { groups: 4, threads: 2 }), ..base() },
        ),
        ("min_seq_len", BuildOptions { min_seq_len: 3, ..base() }),
        ("hot_methods", BuildOptions { hot_methods: Some(hot), ..base() }),
        ("base_address", BuildOptions { base_address: 0x5000_0000, ..base() }),
        ("force_metadata", BuildOptions { force_metadata: true, ..base() }),
        ("compile_threads", BuildOptions { compile_threads: 8, ..base() }),
    ];
    type PassFlip = fn(&mut PipelineConfig);
    let flips: [(&'static str, PassFlip); 4] = [
        ("pass_copy_prop", |p| p.copy_prop = !p.copy_prop),
        ("pass_constant_folding", |p| p.constant_folding = !p.constant_folding),
        ("pass_simplify", |p| p.simplify = !p.simplify),
        ("pass_dce", |p| p.dce = !p.dce),
    ];
    for (name, flip) in flips {
        let mut options = base();
        flip(&mut options.passes);
        variants.push((name, options));
    }
    variants
}

#[test]
fn every_options_field_flip_changes_the_fingerprint() {
    let base_fp = options_fingerprint(&BuildOptions::default());
    let variants = single_field_variants();
    let mut fps = vec![("default", base_fp)];
    for (name, options) in &variants {
        let fp = options_fingerprint(options);
        assert_ne!(fp, base_fp, "{name}: flipping the field must change the fingerprint");
        fps.push((name, fp));
    }
    // All variants are pairwise distinct — no two knobs collapse onto
    // the same fingerprint lane.
    for (i, (a_name, a)) in fps.iter().enumerate() {
        for (b_name, b) in fps.iter().skip(i + 1) {
            assert_ne!(a, b, "{a_name} and {b_name} collide");
        }
    }

    // A method key covers what codegen reads: CTO, the pass switches and
    // whether metadata is collected (under LTBO or `force_metadata`).
    // The LTBO mode, `min_seq_len`, the hot set, the load address and the
    // thread count are read after codegen or only schedule it.
    let dex = generate(&AppSpec::small("fp", 5)).dex;
    let m = &dex.methods()[0];
    let key = |options: &BuildOptions| {
        method_cache_key(m, compile_fingerprint(&options.compile_config()))
    };
    let base_key = key(&BuildOptions::default());
    let read_by_codegen = [
        "cto",
        "ltbo_global",
        "ltbo_parallel",
        "force_metadata",
        "pass_copy_prop",
        "pass_constant_folding",
        "pass_simplify",
        "pass_dce",
    ];
    let mut moved = Vec::new();
    for (name, options) in &variants {
        let read = read_by_codegen.contains(name);
        assert_eq!(key(options) != base_key, read, "{name}: method key moved: {}", !read);
        if read {
            moved.push((name, key(options)));
        }
    }
    // Either LTBO mode compiles with metadata, as `force_metadata` does:
    // one key for the three; every other compile-config flip its own.
    let of = |wanted: &str| moved.iter().find(|(name, _)| **name == wanted).expect("moved").1;
    assert_eq!(of("ltbo_global"), of("ltbo_parallel"));
    assert_eq!(of("ltbo_global"), of("force_metadata"));
    moved.retain(|(name, _)| !["ltbo_parallel", "force_metadata"].contains(name));
    for (i, (a_name, a)) in moved.iter().enumerate() {
        for (b_name, b) in moved.iter().skip(i + 1) {
            assert_ne!(a, b, "{a_name} and {b_name} collide on the method key");
        }
    }
}

#[test]
fn editing_a_method_invalidates_exactly_that_method() {
    let spec = AppSpec::small("delta", 17);
    let original = generate(&spec).dex;
    let mut edited = original.clone();
    let mutated = mutate_methods(&mut edited, 3, 0.05);
    assert!(!mutated.is_empty());

    let fp = compile_fingerprint(&BuildOptions::default().compile_config());
    for (old, new) in original.methods().iter().zip(edited.methods()) {
        let old_key = method_cache_key(old, fp);
        let new_key = method_cache_key(new, fp);
        if mutated.contains(&old.id) {
            assert_ne!(old_key, new_key, "mutated method {} kept its key", old.id);
        } else {
            assert_eq!(old_key, new_key, "untouched method {} lost its key", old.id);
        }
    }
}

fn warm_configs() -> Vec<(&'static str, BuildOptions)> {
    let hot: HashSet<u32> = (0..200).filter(|id| id % 2 == 0).collect();
    vec![
        ("baseline", BuildOptions::baseline()),
        ("cto_ltbo", BuildOptions::cto_ltbo()),
        ("cto_ltbo_pl", BuildOptions::cto_ltbo_parallel(8, 4)),
        ("cto_ltbo_hf", BuildOptions::cto_ltbo().with_hot_filter(hot)),
    ]
}

#[test]
fn warm_rebuild_is_bit_identical_and_recompiles_only_the_delta() {
    let spec = AppSpec::small("warm", 23);
    for threads in [1usize, 8] {
        for (name, options) in warm_configs() {
            let options = options.with_compile_threads(threads);
            let session = BuildSession::new();
            let dex = generate(&spec).dex;
            let cold = session
                .build(&dex, &options)
                .unwrap_or_else(|e| panic!("{name}/{threads}: cold build failed: {e}"));
            assert_eq!(cold.stats.methods_from_cache, 0, "{name}/{threads}: cold hit something");

            let mut edited = dex.clone();
            let mutated = mutate_methods(&mut edited, 7, 0.05);
            let warm = session
                .build(&edited, &options)
                .unwrap_or_else(|e| panic!("{name}/{threads}: warm build failed: {e}"));
            let fresh = build(&edited, &options)
                .unwrap_or_else(|e| panic!("{name}/{threads}: fresh build failed: {e}"));

            assert_eq!(
                calibro_oat::to_elf_bytes(&warm.oat),
                calibro_oat::to_elf_bytes(&fresh.oat),
                "{name}/{threads}: warm rebuild bytes differ from cold"
            );
            // Only the delta recompiles; everything else replays.
            assert_eq!(
                warm.stats.methods_from_cache,
                warm.stats.methods - mutated.len(),
                "{name}/{threads}: wrong replay count"
            );
            assert_eq!(warm.stats.cache.misses as usize, mutated.len());
            assert_eq!(warm.stats.cache.hits as usize, warm.stats.methods_from_cache);
            // Observability parity: warm pass counters equal cold ones.
            assert_eq!(warm.stats.passes, fresh.stats.passes, "{name}/{threads}: pass drift");
            assert_eq!(warm.stats.ltbo, fresh.stats.ltbo, "{name}/{threads}: LTBO drift");
            // Group-plan lane: every detection group is probed exactly
            // once, and an N-method delta dirties at most 2N groups
            // (the mutated method leaves one group and may land in
            // another); baseline never touches the lane.
            let g = &warm.stats.cache;
            if options.ltbo.is_some() {
                assert_eq!(
                    (g.group_hits + g.group_misses) as usize,
                    warm.stats.ltbo.detection_groups,
                    "{name}/{threads}: group probes != groups"
                );
                assert!(
                    g.group_misses as usize <= 2 * mutated.len(),
                    "{name}/{threads}: {} group misses for a {}-method delta",
                    g.group_misses,
                    mutated.len()
                );
            } else {
                assert_eq!(g.group_hits + g.group_misses, 0, "{name}/{threads}: baseline probed");
            }
        }
    }
}

/// What one build reports that must not depend on which route ran it:
/// the ELF bytes plus the count statistics.
#[derive(Debug, PartialEq)]
struct BuildFacts {
    elf: Vec<u8>,
    methods: usize,
    methods_from_cache: usize,
    words_before_ltbo: usize,
    passes: calibro::PassStats,
    ltbo: calibro::LtboStats,
}

fn facts_of_build(session: &BuildSession, dex: &DexFile, options: &BuildOptions) -> BuildFacts {
    let out = session.build(dex, options).expect("build()");
    BuildFacts {
        elf: calibro_oat::to_elf_bytes(&out.oat),
        methods: out.stats.methods,
        methods_from_cache: out.stats.methods_from_cache,
        words_before_ltbo: out.stats.words_before_ltbo,
        passes: out.stats.passes,
        ltbo: out.stats.ltbo,
    }
}

/// The same build through the four public stages.
fn facts_of_stages(session: &BuildSession, dex: &DexFile, options: &BuildOptions) -> BuildFacts {
    let frontend = session.frontend(dex, options).expect("frontend");
    let codegen = session.codegen(dex, options, frontend).expect("codegen");
    let methods = codegen.outcomes.len();
    let methods_from_cache = codegen.outcomes.iter().filter(|o| o.cache_hit).count();
    let passes = codegen.passes;
    let size = session.outline(options, codegen).expect("outline");
    let (words_before_ltbo, ltbo) = (size.words_before, size.ltbo);
    let oat = session.link(options, size).expect("link");
    let elf = calibro_oat::to_elf_bytes(&oat);
    BuildFacts { elf, methods, methods_from_cache, words_before_ltbo, passes, ltbo }
}

#[test]
fn staged_stages_equal_build() {
    for threads in [1usize, 8] {
        for (name, options) in warm_configs() {
            let options = options.with_compile_threads(threads);
            let spec = AppSpec::small("staged", 23);
            let dex = generate(&spec).dex;
            let mut edited = dex.clone();
            assert!(!mutate_methods(&mut edited, 7, 0.05).is_empty());

            let (staged, whole) = (BuildSession::new(), BuildSession::new());
            for (warmth, dex) in [("cold", &dex), ("warm", &edited)] {
                let by_stages = facts_of_stages(&staged, dex, &options);
                let by_build = facts_of_build(&whole, dex, &options);
                assert_eq!(by_stages, by_build, "{name}/{threads}/{warmth}: stages != build()");
                if warmth == "warm" {
                    assert!(by_build.methods_from_cache > 0, "{name}/{threads}: nothing replayed");
                }
            }
        }
    }
}

#[test]
fn codegen_shares_words_with_the_store_and_only_a_miss_keeps_instructions() {
    // A cold build (every method a miss), then a 5 % edit (hits and
    // misses): either way the outcome's words and tables *are* the
    // entry's, not copies — replaying a hit and storing a miss bump
    // reference counts. The entry holds no instructions; a miss's
    // outcome holds the ones codegen just emitted, a hit's holds none.
    let dex = generate(&AppSpec::small("shared", 13)).dex;
    let mut edited = dex.clone();
    assert!(!mutate_methods(&mut edited, 5, 0.05).is_empty());
    let options = BuildOptions::cto_ltbo();
    let session = BuildSession::new();
    for (warmth, dex) in [("cold", &dex), ("warm", &edited)] {
        let frontend = session.frontend(dex, &options).expect("frontend");
        let codegen = session.codegen(dex, &options, frontend).expect("codegen");
        let hits = codegen.outcomes.iter().filter(|o| o.cache_hit).count();
        match warmth {
            "cold" => assert_eq!(hits, 0),
            _ => assert!(hits > 0 && hits < codegen.outcomes.len(), "{hits} hits"),
        }
        for (i, o) in codegen.outcomes.iter().enumerate() {
            let (m, entry) = (&o.compiled, &o.entry.compiled);
            let shared = [
                ("words", Arc::ptr_eq(&m.words, &entry.words)),
                ("pool", Arc::ptr_eq(&m.pool, &entry.pool)),
                ("relocs", Arc::ptr_eq(&m.relocs, &entry.relocs)),
                ("tables", calibro_codegen::MethodTables::ptr_eq(&m.tables, &entry.tables)),
            ];
            for (table, shared) in shared {
                assert!(shared, "{warmth}: method {i} (hit: {}) copied its {table}", o.cache_hit);
            }
            assert!(entry.insns.is_empty(), "{warmth}: method {i}'s entry holds instructions");
            match o.cache_hit {
                true => assert!(m.insns.is_empty(), "{warmth}: hit {i} holds instructions"),
                false => assert_eq!(
                    calibro_isa::encode_words(&m.insns).as_deref(),
                    Ok(&m.words[..]),
                    "{warmth}: miss {i} lost the instructions it was compiled to"
                ),
            }
            // The template an unrewritten hit replays is its entry's.
            assert!(o.entry.template.is_some(), "{warmth}: method {i} has no template");
        }
    }
}

/// The entry of every method of `dex` in `session`'s store, by the key
/// `options` give it.
fn store_entries(
    session: &BuildSession,
    dex: &DexFile,
    options: &BuildOptions,
) -> Vec<Arc<CacheEntry>> {
    let fp = compile_fingerprint(&options.compile_config());
    let entries = dex.methods().iter().map(|m| {
        let key = method_cache_key(m, fp);
        session.store().get(key).expect("a readable store").expect("every method is stored")
    });
    entries.collect()
}

#[test]
fn no_store_entry_carries_instructions_after_a_build() {
    let spec = AppSpec { clone_families: 6, ..AppSpec::small("dense", 19) };
    let dex = generate(&spec).dex;
    for options in [BuildOptions::cto_ltbo(), BuildOptions::cto_ltbo_parallel(8, 2)] {
        let session = BuildSession::new();
        session.build(&dex, &options).expect("build");
        for entry in store_entries(&session, &dex, &options) {
            let m = &entry.compiled;
            assert!(m.insns.is_empty(), "{:?} is stored with its instructions", m.method);
            assert!(!m.words.is_empty(), "{:?} is stored without code", m.method);
        }
    }
}

#[test]
fn warm_rebuilds_that_need_instructions_decode_them_from_the_words() {
    // Every method hits, so every method reaches the size stage as
    // words only: a hot method's template must decode instructions from
    // the words — reading `insns` would find nothing. Without CTO a slow
    // path calls the runtime through `x30`, so a hot template that
    // missed those hazards would outline them.
    let spec = AppSpec { clone_families: 6, ..AppSpec::small("decode", 29) };
    let dex = generate(&spec).dex;
    let hot: HashSet<u32> = (0..dex.methods().len() as u32).filter(|id| id % 3 != 0).collect();
    let sharded_hot = BuildOptions::cto_ltbo_parallel(8, 2).with_hot_filter(hot);
    let configs = [
        ("cto_ltbo_pl_hf", sharded_hot.clone()),
        ("ltbo_pl_hf", BuildOptions { cto: false, ..sharded_hot }),
    ];
    for (name, options) in configs {
        let session = BuildSession::new();
        let cold = session.build(&dex, &options).expect("cold build");
        let warm = session.build(&dex, &options).expect("warm build");
        assert_eq!(warm.stats.methods_from_cache, warm.stats.methods, "{name}: a miss");
        assert_eq!(
            calibro_oat::to_elf_bytes(&warm.oat),
            calibro_oat::to_elf_bytes(&cold.oat),
            "{name}: a warm rebuild over words-only methods moved the image"
        );
        assert_eq!(warm.stats.ltbo, cold.stats.ltbo, "{name}");
        assert!(cold.stats.ltbo.hot_restricted_methods > 0, "{name}: nothing hot");
    }
}

#[test]
fn identical_rebuild_hits_for_every_method() {
    let dex = generate(&AppSpec::small("idem", 31)).dex;
    let options = BuildOptions::cto_ltbo();
    let session = BuildSession::new();
    let cold = session.build(&dex, &options).unwrap();
    let warm = session.build(&dex, &options).unwrap();
    assert_eq!(cold.oat.words, warm.oat.words);
    assert_eq!(cold.oat.text_digest(), warm.oat.text_digest());
    assert_eq!(warm.stats.methods_from_cache, warm.stats.methods);
    assert_eq!(warm.stats.cache.misses, 0);
    assert!((warm.stats.cache.hit_rate() - 1.0).abs() < 1e-12);
    // The unchanged program replays its detection plan too: the group
    // key is content-stable, so an identical rebuild never re-detects.
    assert_eq!(warm.stats.cache.group_misses, 0);
    assert_eq!(warm.stats.cache.group_hits as usize, warm.stats.ltbo.detection_groups);
    assert!((warm.stats.cache.group_hit_rate() - 1.0).abs() < 1e-12);
}

#[test]
fn a_bounded_store_keeps_the_re_read_methods_through_many_edits() {
    // A store with room for the program and three rounds of 1 % edits,
    // filled by the fourth round; over the 24 rounds the method lane's
    // queue comes round about seven times and its stale slack is
    // evicted several times over. Each build re-reads every method of
    // the current program, so second-chance eviction keeps that working
    // set and drops the versions edits replaced; plain FIFO evicts the
    // oldest entries, the methods nobody edited, and fails on round 5.
    let spec = AppSpec { methods: 200, ..AppSpec::small("bounded", 29) };
    let mut dex = generate(&spec).dex;
    let options = BuildOptions::cto_ltbo_parallel(8, 2);
    let methods = dex.methods().len();
    let per_round = methods.div_ceil(100);
    let max_entries = methods + 3 * per_round;
    let session = BuildSession::with_config(CacheConfig { max_entries, ..CacheConfig::default() });
    session.build(&dex, &options).expect("cold build");

    const ROUNDS: u64 = 24;
    let mut filled_on = None;
    let mut evictions = 0;
    for round in 1..=ROUNDS {
        let edited = mutate_methods(&mut dex, round, 0.01);
        assert!(!edited.is_empty() && edited.len() <= per_round);
        let warm = session.build(&dex, &options).expect("warm build");
        let fresh = build(&dex, &options).expect("fresh build");
        assert_eq!(
            calibro_oat::to_elf_bytes(&warm.oat),
            calibro_oat::to_elf_bytes(&fresh.oat),
            "round {round}: the warm build's bytes differ from a cold build's"
        );
        evictions += warm.stats.cache.evictions;
        if evictions > 0 {
            filled_on.get_or_insert(round);
        }
        assert!(
            warm.stats.methods_from_cache >= methods - edited.len(),
            "round {round}: {} of {methods} methods hit, {} edited",
            warm.stats.methods_from_cache,
            edited.len()
        );
    }
    let filled_on = filled_on.expect("the store never filled");
    assert!(filled_on <= 4, "the store filled on round {filled_on}");
    let slack = (max_entries - methods) as u64;
    assert!(evictions >= 4 * slack, "{evictions} evictions recycle the slack too few times");
}

#[test]
fn environment_change_re_verifies_cache_hits() {
    // Warm hits skip `verify_references` only while the entry's
    // recorded reference-environment fingerprint matches the build's.
    // Flip one callee native: every unchanged caller still *hits* the
    // cache (its own bytes and key are untouched), yet its `Invoke` now
    // targets a native method — an error only the environment-mismatch
    // re-verify path can surface.
    let dex = generate(&AppSpec::small("refenv", 23)).dex;
    let callee = dex
        .methods()
        .iter()
        .find_map(|m| {
            m.insns.iter().find_map(|i| match i {
                calibro_dex::DexInsn::Invoke { method, .. } => Some(*method),
                _ => None,
            })
        })
        .expect("generated app contains a java call");

    let options = BuildOptions::baseline();
    let session = BuildSession::new();
    session.build(&dex, &options).expect("cold build");

    let mut edited = dex.clone();
    let m = edited.method_mut(callee);
    m.is_native = true;
    m.insns.clear();
    assert_ne!(reference_env(&dex), reference_env(&edited), "nativeness must move the env");

    let err = session.build(&edited, &options).expect_err("stale reference must be caught");
    assert!(
        matches!(&err, BuildError::Verify(calibro_dex::VerifyError::WrongInvokeKind { .. })),
        "expected WrongInvokeKind, got {err:?}"
    );

    // Same program, same environment: the skip path itself stays green
    // and every method still hits.
    let warm = session.build(&dex, &options).expect("unchanged rebuild");
    assert_eq!(warm.stats.methods_from_cache, warm.stats.methods);
}

#[test]
fn sharded_detection_is_thread_and_warmth_stable() {
    let spec = AppSpec::small("stable", 53);
    let dex = generate(&spec).dex;
    let mut edited = dex.clone();
    let mutated = mutate_methods(&mut edited, 11, 0.01);
    assert!(!mutated.is_empty());

    // The reference ELF bytes for the edited program, fixed by the
    // 1-thread arm; every other (threads, warmth) combination must
    // reproduce them exactly.
    let mut reference: Option<Vec<u8>> = None;
    for threads in [1usize, 8] {
        let options = BuildOptions::cto_ltbo_parallel(16, threads).with_compile_threads(threads);
        let session = BuildSession::new();
        let cold = session.build(&dex, &options).unwrap();
        assert_eq!(cold.stats.ltbo.detection_groups, 16);

        let warm = session.build(&edited, &options).unwrap();
        let fresh = build(&edited, &options).unwrap();
        let warm_bytes = calibro_oat::to_elf_bytes(&warm.oat);
        assert_eq!(
            warm_bytes,
            calibro_oat::to_elf_bytes(&fresh.oat),
            "t={threads}: warm bytes differ from cold"
        );

        // The warm build re-detects only the dirty groups and replays
        // the rest from cached plans.
        let g = &warm.stats.cache;
        assert_eq!((g.group_hits + g.group_misses) as usize, 16);
        assert!(g.group_misses as usize <= 2 * mutated.len());
        assert!(g.group_hits > 0, "t={threads}: nothing replayed");

        match &reference {
            None => reference = Some(warm_bytes),
            Some(r) => assert_eq!(r, &warm_bytes, "output depends on thread count"),
        }
    }
}

/// The key and byte range of each frame of a lane's log, in log order.
fn frames(log: &[u8]) -> Vec<(CacheKey, std::ops::Range<usize>)> {
    let mut frames = Vec::new();
    let mut at = 0;
    while at < log.len() {
        let word = |i: usize| u64::from_le_bytes(log[at + i..at + i + 8].try_into().expect("8"));
        let end = at + 40 + word(24) as usize;
        frames.push((CacheKey { hi: word(8), lo: word(16) }, at..end));
        at = end;
    }
    frames
}

#[test]
fn disk_cache_carries_artifacts_across_sessions() {
    let dir = std::env::temp_dir().join(format!("calibro-disk-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dex = generate(&AppSpec::small("disk", 41)).dex;
    let options = BuildOptions::cto_ltbo();
    let config = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };

    let first = BuildSession::with_config(config.clone());
    let cold = first.build(&dex, &options).unwrap();
    assert_eq!(cold.stats.cache.disk_stores as usize, cold.stats.methods);
    drop(first);

    // A fresh session (fresh in-memory map) replays everything from disk.
    let second = BuildSession::with_config(config);
    let warm = second.build(&dex, &options).unwrap();
    assert_eq!(warm.oat.words, cold.oat.words);
    assert_eq!(warm.stats.methods_from_cache, warm.stats.methods);
    assert_eq!(warm.stats.cache.disk_hits as usize, warm.stats.methods);

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn schema_bump_turns_old_disk_entries_into_clean_typed_misses() {
    let dir = std::env::temp_dir().join(format!("calibro-schema-bump-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dex = generate(&AppSpec::small("schema", 29)).dex;
    let options = BuildOptions::cto_ltbo();
    let fp = compile_fingerprint(&options.compile_config());
    let config = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };

    // Populate the directory the way a release with any other schema
    // would have: one entry per method, under the key that release
    // mints — the same walk over the same inputs, another schema salt
    // in the compile fingerprint every method key embeds.
    let compile_fp_under = |schema: &str| {
        let mut h = StableHasher::new();
        h.write_str(schema);
        h.write_tag(0x43); // 'C', `compile_fingerprint`'s domain tag
        h.write_wire(&options.compile_config());
        h.finish()
    };
    assert_eq!(compile_fp_under(calibro_cache::SCHEMA_VERSION), fp);
    let other_schema = "0.1.0+s0";
    assert_ne!(calibro_cache::SCHEMA_VERSION, other_schema);
    let other_fp = compile_fp_under(other_schema);
    let old_store = ArtifactStore::new(config.clone());
    let mut other_keys = Vec::new();
    for m in dex.methods() {
        let key = method_cache_key(m, other_fp);
        old_store.insert(
            key,
            CacheEntry {
                compiled: calibro_codegen::CompiledMethod {
                    method: m.id,
                    insns: [calibro_isa::Insn::Nop].into(),
                    words: [calibro_isa::Insn::Nop.encode().expect("a nop encodes")].into(),
                    pool: Arc::default(),
                    relocs: Arc::default(),
                    tables: calibro_codegen::MethodTables::default(),
                },
                pass_stats: calibro_hgraph::PassStats::default(),
                template: None,
                ref_env: 0,
            },
        );
        other_keys.push(key);
    }
    assert_eq!(old_store.stats().disk_stores as usize, dex.methods().len());
    drop(old_store);

    // New-schema probes over the stale directory: every lookup is a
    // clean typed miss — `Ok(None)`, never an error, never a stale hit.
    let store = ArtifactStore::new(config.clone());
    for m in dex.methods() {
        let key = method_cache_key(m, fp);
        assert!(!other_keys.contains(&key), "schema bump left method {} addressable", m.id);
        let probe = store.get(key);
        assert!(
            matches!(probe, Ok(None)),
            "old-generation entry must be a clean miss for method {}",
            m.id
        );
    }
    let s = store.stats();
    assert_eq!(s.misses as usize, dex.methods().len());
    assert_eq!((s.hits, s.disk_hits), (0, 0));
    drop(store);

    // A full build over the stale directory recompiles everything and
    // matches a pristine build bit for bit; the old frames are never
    // clobbered (the log is only appended to, and the generations'
    // keys are disjoint).
    let session = BuildSession::with_config(config);
    let rebuilt = session.build(&dex, &options).unwrap();
    assert_eq!(rebuilt.stats.methods_from_cache, 0);
    let fresh = build(&dex, &options).unwrap();
    assert_eq!(calibro_oat::to_elf_bytes(&rebuilt.oat), calibro_oat::to_elf_bytes(&fresh.oat));
    let log = std::fs::read(dir.join("calc.log")).unwrap();
    let logged: HashSet<CacheKey> = frames(&log).into_iter().map(|(key, _)| key).collect();
    assert!(other_keys.iter().all(|key| logged.contains(key)), "other-schema frames clobbered");

    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn poisoned_disk_entry_surfaces_as_typed_cache_error() {
    let dir = std::env::temp_dir().join(format!("calibro-poison-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dex = generate(&AppSpec::small("poison", 47)).dex;
    let options = BuildOptions::cto_ltbo();
    let config = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    BuildSession::with_config(config.clone()).build(&dex, &options).unwrap();

    // Flip the last payload byte of every frame in the method log:
    // checksums break.
    let path = dir.join("calc.log");
    let mut log = std::fs::read(&path).unwrap();
    let frames = frames(&log);
    assert!(!frames.is_empty(), "no persisted entries to poison");
    for (_, frame) in frames {
        log[frame.end - 1] ^= 0xff;
    }
    std::fs::write(&path, log).unwrap();

    let err = BuildSession::with_config(config)
        .build(&dex, &options)
        .expect_err("poisoned cache must fail the build");
    assert!(matches!(err, BuildError::Cache(_)), "unexpected error: {err}");

    std::fs::remove_dir_all(&dir).unwrap();
}
