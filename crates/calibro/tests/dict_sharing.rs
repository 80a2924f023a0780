//! Cross-tenant shared-dictionary behaviour: a cold tenant publishes
//! its outlined bodies, a sealed epoch serves them to later tenants at
//! call overhead only, and dictionary-routed builds stay conformant
//! and byte-deterministic at any thread count.

use std::collections::HashMap;
use std::sync::Arc;

use calibro::{BuildOptions, BuildOutput, BuildSession, DictRegistry, MIN_ISLAND_WORDS};
use calibro_cache::{ArtifactStore, CacheConfig};
use calibro_dex::{BinOp, DexFile, DexInsn, MethodBuilder, MethodId, VReg};
use calibro_oat::DictImage;
use calibro_runtime::{Runtime, RuntimeEnv};
use calibro_workloads::{generate, paper_suite};

fn env_for(dex: &DexFile) -> RuntimeEnv {
    RuntimeEnv {
        class_sizes: dex.classes().iter().map(calibro_dex::Class::instance_size).collect(),
        natives: HashMap::new(),
        statics: vec![0; dex.num_statics() as usize],
        icache: false,
    }
}

/// A dex file with heavy cross-method redundancy, the same motif shape
/// the LTBO correctness suite uses: `n` methods sharing a straight-line
/// body that outlines into multi-word candidates.
fn redundant_dex(n: usize) -> DexFile {
    let mut dex = DexFile::new();
    let class = dex.add_class("Main", 2);
    dex.reserve_statics(2);
    for i in 0..n {
        let mut b = MethodBuilder::new(format!("m{i}"), 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: i as i32 });
        for _ in 0..3 {
            b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(1), a: VReg(4), b: VReg(5) });
            b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(2), a: VReg(1), b: VReg(4) });
            b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(3), a: VReg(2), lit: 3 });
            b.push(DexInsn::Bin { op: BinOp::Sub, dst: VReg(1), a: VReg(3), b: VReg(2) });
        }
        b.push(DexInsn::Bin { op: BinOp::Add, dst: VReg(0), a: VReg(0), b: VReg(1) });
        b.push(DexInsn::Return { src: VReg(0) });
        dex.add_method(b.build(class));
    }
    dex
}

fn dict_session(registry: &Arc<DictRegistry>) -> BuildSession {
    BuildSession::with_config(CacheConfig::default()).with_dict_registry(Arc::clone(registry))
}

fn island_for(registry: &DictRegistry, oat: &calibro_oat::OatFile) -> Option<DictImage> {
    oat.dict.map(|d| DictImage {
        base_address: d.base_address,
        epoch: d.epoch,
        words: registry.layout(d.epoch).expect("linked epoch is fenced").words().to_vec(),
    })
}

#[test]
fn cold_tenant_publishes_and_sealed_epoch_serves_later_tenants() {
    let dex = redundant_dex(8);
    let registry = Arc::new(DictRegistry::default());
    let options = BuildOptions::cto_ltbo().with_dict();

    // Tenant 1, epoch 0 (empty island): every candidate misses, gets
    // published, and is outlined privately — the emitted image equals a
    // plain LTBO build's.
    let tenant1 = dict_session(&registry).build(&dex, &options).expect("tenant 1");
    assert_eq!(tenant1.stats.dict.hits, 0, "the empty island cannot hit");
    assert!(tenant1.stats.dict.publishes > 0, "cold candidates must publish");
    assert_eq!(tenant1.stats.dict_epoch, 0);
    assert!(tenant1.oat.dict.is_none(), "no reloc can use an empty island");
    let plain = calibro::build(&dex, &BuildOptions::cto_ltbo()).expect("plain ltbo");
    assert_eq!(
        calibro_oat::to_elf_bytes(&tenant1.oat),
        calibro_oat::to_elf_bytes(&plain.oat),
        "an all-miss dict build must emit exactly the private-outline image"
    );

    // Seal: the staged bodies become epoch 1's island.
    assert_eq!(registry.seal_epoch(), 1);

    // Tenant 2: byte-identical candidates now hit the island, so its
    // private outlined bodies disappear from its own text.
    let tenant2 = dict_session(&registry).build(&dex, &options).expect("tenant 2");
    assert!(tenant2.stats.dict.hits > 0, "sealed bodies must hit");
    assert_eq!(tenant2.stats.dict.publishes, 0, "nothing new to publish");
    assert_eq!(tenant2.stats.dict_epoch, 1);
    let link = tenant2.oat.dict.expect("dict-routed build must record its island");
    assert_eq!(link.epoch, 1);
    assert_eq!(link.size_words as usize, tenant2.stats.dict_island_words);
    assert!(
        tenant2.oat.text_size_bytes() < tenant1.oat.text_size_bytes(),
        "island-routed text {} must shrink below private-outline text {}",
        tenant2.oat.text_size_bytes(),
        tenant1.oat.text_size_bytes()
    );
    calibro_oat::validate_structure(&tenant2.oat).expect("island calls are structurally valid");
    calibro_oat::validate_stack_maps(&tenant2.oat).expect("stack maps survive dict routing");

    // Aggregate win: with the island emitted once per daemon, every
    // tenant past the second rides free. (At exactly two tenants shared
    // and private tie — the island is the first tenant's bodies plus
    // one `ret` each, the same words a private outline carries.)
    let tenant3 = dict_session(&registry).build(&dex, &options).expect("tenant 3");
    assert!(tenant3.stats.dict.hits > 0);
    let island_bytes = registry.layout(1).unwrap().size_bytes();
    let shared_total = tenant1.oat.text_size_bytes()
        + tenant2.oat.text_size_bytes()
        + tenant3.oat.text_size_bytes()
        + island_bytes;
    let private_total = 3 * plain.oat.text_size_bytes();
    assert!(
        shared_total < private_total,
        "shared {shared_total} must beat private {private_total}"
    );
}

/// The six-app suite at its smallest (every app at the generator's
/// 30-method floor), published, sealed and rebuilt routed: the island
/// saves exactly the exact-body ceiling, Σ (k − 1) · |body + ret| over
/// the bodies that k private outlined copies share. Its apps outline
/// register variants of shared bodies, and each variant must route.
#[test]
fn a_routed_suite_saves_exactly_the_exact_body_ceiling() {
    let apps: Vec<_> = paper_suite(0.01).iter().map(generate).collect();
    let registry = Arc::new(DictRegistry::default());
    let session = dict_session(&registry);
    let options = BuildOptions::cto_ltbo().with_dict();
    let build_all = || -> Vec<BuildOutput> {
        apps.iter().map(|app| session.build(&app.dex, &options).expect("suite build")).collect()
    };
    let private = build_all();
    assert_eq!(registry.seal_epoch(), 1);
    let routed = build_all();

    let mut copies: HashMap<&[u32], u64> = HashMap::new();
    for oat in private.iter().map(|out| &out.oat) {
        for f in &oat.outlined {
            let body = &oat.words[(f.offset / 4) as usize..][..f.size_words as usize - 1];
            if body.len() >= MIN_ISLAND_WORDS {
                *copies.entry(body).or_default() += 1;
            }
        }
    }
    assert!(copies.values().any(|&k| k >= 3), "the suite must share bodies across apps");
    let ceiling: u64 = copies.iter().map(|(body, k)| (k - 1) * 4 * (body.len() as u64 + 1)).sum();
    let text = |outs: &[BuildOutput]| outs.iter().map(|out| out.oat.text_size_bytes()).sum::<u64>();
    let island = registry.layout(1).expect("the sealed island").size_bytes();
    assert_eq!(text(&routed) + island, text(&private) - ceiling);
}

#[test]
fn dict_routed_build_behaves_identically() {
    let dex = redundant_dex(8);
    let env = env_for(&dex);
    let registry = Arc::new(DictRegistry::default());
    let options = BuildOptions::cto_ltbo().with_dict();

    // Warm the dictionary, then build the tenant that actually routes.
    dict_session(&registry).build(&dex, &options).expect("publisher");
    registry.seal_epoch();
    let routed = dict_session(&registry).build(&dex, &options).expect("routed");
    assert!(routed.stats.dict.hits > 0);

    let baseline = calibro::build(&dex, &BuildOptions::baseline()).expect("baseline");
    let island = island_for(&registry, &routed.oat);
    let mut rt_a = Runtime::new(&baseline.oat, &env);
    let mut rt_b = Runtime::new_with_dict(&routed.oat, &env, island.as_ref());
    for m in 0..8u32 {
        for args in [[3, 4], [0, 0], [-5, 17]] {
            let a = rt_a.call(MethodId(m), &args, 100_000).unwrap();
            let b = rt_b.call(MethodId(m), &args, 100_000).unwrap();
            assert_eq!(a.outcome, b.outcome, "m{m} args {args:?}");
        }
    }
    assert_eq!(rt_a.snapshot(), rt_b.snapshot(), "observable state must match");
}

#[test]
fn dict_builds_are_byte_identical_at_any_thread_count_warm_or_cold() {
    let dex = redundant_dex(8);
    let registry = Arc::new(DictRegistry::default());
    let seed = BuildOptions::cto_ltbo().with_dict();
    dict_session(&registry).build(&dex, &seed).expect("publisher");
    registry.seal_epoch();

    // The worker-thread count must never reach the bytes: 1-thread and
    // 8-thread builds, each cold then warm, all four images identical.
    // (Detection groups stay fixed at 4 — only the schedule varies.)
    let mut images = Vec::new();
    for threads in [1, 8] {
        let options = BuildOptions::cto_ltbo_parallel(4, threads).with_compile_threads(threads);
        // `threads` is fingerprinted, so cold really recompiles here.
        let mut options = options;
        options.dict = true;
        let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
        let session =
            BuildSession::with_store(Arc::clone(&store)).with_dict_registry(Arc::clone(&registry));
        let cold = session.build(&dex, &options).expect("cold");
        let warm = session.build(&dex, &options).expect("warm");
        assert!(cold.stats.dict.hits > 0, "threads={threads} must still hit the island");
        assert_eq!(warm.stats.dict.hits, cold.stats.dict.hits, "warm arbitration must replay");
        images.push(calibro_oat::to_elf_bytes(&cold.oat));
        images.push(calibro_oat::to_elf_bytes(&warm.oat));
    }
    for image in &images[1..] {
        assert_eq!(
            image, &images[0],
            "dict-routed images must be byte-identical at any thread count, warm or cold"
        );
    }
    // And repeated global-mode builds replay their own bytes too.
    let a = dict_session(&registry).build(&dex, &seed).expect("global a");
    let b = dict_session(&registry).build(&dex, &seed).expect("global b");
    assert_eq!(calibro_oat::to_elf_bytes(&a.oat), calibro_oat::to_elf_bytes(&b.oat));
}
