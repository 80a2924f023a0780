//! Generation-aware cache behaviour: a method's cache key covers what
//! its compilation reads, and the hot set is not among that — HfOpti is
//! a link-time decision — so a new profile generation replays every
//! method of the last one and re-runs only the outline pass, whose
//! group plans see the hot methods' restricted templates. Returning to
//! an earlier generation's hot set replays that generation's bytes
//! exactly.

use std::collections::HashSet;
use std::sync::Arc;

use calibro::{BuildOptions, BuildSession};
use calibro_cache::{ArtifactStore, CacheConfig};
use calibro_workloads::{generate, AppSpec};

/// Builds with hot sets A, B, A, B through one shared store. The
/// hot-set change compiles no method, yet changes the linked image; the
/// third and fourth builds replay the first and second byte-identically
/// from cache.
#[test]
fn hot_set_generations_share_method_artifacts_and_replay_exactly() {
    let app = generate(&AppSpec::small("gen-cache", 11));
    let methods = app.dex.methods().len();
    let hot: HashSet<u32> = (0..methods as u32).filter(|m| m % 2 == 0).collect();
    let unrestricted = BuildOptions::cto_ltbo();
    let restricted = BuildOptions::cto_ltbo().with_hot_filter(hot);

    let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
    let session = BuildSession::with_store(Arc::clone(&store));

    let gen1 = session.build(&app.dex, &unrestricted).expect("generation 1");
    let elf1 = calibro_oat::to_elf_bytes(&gen1.oat);
    assert_eq!(store.stats().hits, 0, "cold store must not hit");

    // Generation 2: same program, hot-restricted outlining. Every method
    // key is generation 1's, so no method is keyed or compiled again.
    let gen2 = session.build(&app.dex, &restricted).expect("generation 2");
    let elf2 = calibro_oat::to_elf_bytes(&gen2.oat);
    assert_eq!(gen2.stats.methods_keyed, 0, "a hot-set change keys no method");
    assert_eq!(gen2.stats.methods_from_cache, methods, "a hot-set change compiles no method");
    assert_eq!(gen2.stats.cache.misses, 0, "no method probe misses");
    assert_ne!(elf1, elf2, "hot-restricted outlining must change the linked image");
    let fresh = BuildSession::new().build(&app.dex, &restricted).expect("fresh generation 2");
    assert_eq!(elf2, calibro_oat::to_elf_bytes(&fresh.oat), "generation 2 is a fresh build's");

    // Back to generation 1's options: a full warm replay, byte-exact.
    let before_replay = store.stats();
    let replay = session.build(&app.dex, &unrestricted).expect("generation 1 replay");
    let replay_delta = store.stats().since(&before_replay);
    assert_eq!(calibro_oat::to_elf_bytes(&replay.oat), elf1, "replay must be byte-identical");
    assert_eq!(replay_delta.hits, methods as u64, "every method must replay from the shared store");
    assert_eq!(replay_delta.misses, 0, "no method may recompile on replay");
    assert_eq!(replay_delta.group_misses, 0, "every group plan replays");

    // And generation 2 replays its own bytes — the store serves both
    // generations' plans side by side without cross-talk.
    let replay2 = session.build(&app.dex, &restricted).expect("generation 2 replay");
    assert_eq!(calibro_oat::to_elf_bytes(&replay2.oat), elf2);
    assert_eq!(replay2.stats.cache.group_misses, 0, "every group plan replays");
}
