//! Generation-aware cache behaviour: the per-method cache keys carry
//! the full options fingerprint — hot set included — so artifacts from
//! different profile generations can never be confused through a shared
//! [`ArtifactStore`], and returning to an earlier generation's hot set
//! replays that generation's bytes exactly.

use std::collections::HashSet;
use std::sync::Arc;

use calibro::{BuildOptions, BuildSession};
use calibro_cache::{ArtifactStore, CacheConfig};
use calibro_workloads::{generate, AppSpec};

/// Builds with hot sets A, B, A through one shared store. The hot-set
/// change must miss the cache completely (disjoint keys — a "cold"
/// generation must never replay a "hot" generation's artifacts), and
/// the third build must replay the first byte-identically from cache.
#[test]
fn hot_set_generations_have_disjoint_keys_and_replay_exactly() {
    let app = generate(&AppSpec::small("gen-cache", 11));
    let hot: HashSet<u32> = (0..app.dex.methods().len() as u32).filter(|m| m % 2 == 0).collect();
    let unrestricted = BuildOptions::cto_ltbo();
    let restricted = BuildOptions::cto_ltbo().with_hot_filter(hot);

    let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
    let session = BuildSession::with_store(Arc::clone(&store));

    let gen1 = session.build(&app.dex, &unrestricted).expect("generation 1");
    let elf1 = calibro_oat::to_elf_bytes(&gen1.oat);
    let after_gen1 = store.stats();
    assert_eq!(after_gen1.hits, 0, "cold store must not hit");

    // Generation 2: same program, hot-restricted outlining. Every
    // method key differs, so nothing from generation 1 may be reused.
    let gen2 = session.build(&app.dex, &restricted).expect("generation 2");
    let elf2 = calibro_oat::to_elf_bytes(&gen2.oat);
    let gen2_delta = store.stats().since(&after_gen1);
    assert_eq!(
        gen2_delta.hits, 0,
        "a hot-set change must not replay the previous generation's method artifacts"
    );
    assert_ne!(elf1, elf2, "hot-restricted outlining must change the linked image");

    // Back to generation 1's options: a full warm replay, byte-exact.
    let before_replay = store.stats();
    let replay = session.build(&app.dex, &unrestricted).expect("generation 1 replay");
    let replay_delta = store.stats().since(&before_replay);
    assert_eq!(calibro_oat::to_elf_bytes(&replay.oat), elf1, "replay must be byte-identical");
    assert_eq!(
        replay_delta.hits,
        app.dex.methods().len() as u64,
        "every method must replay from the shared store"
    );
    assert_eq!(replay_delta.misses, 0, "no method may recompile on replay");

    // And generation 2 replays its own bytes — the store serves both
    // generations side by side without cross-talk.
    let replay2 = session.build(&app.dex, &restricted).expect("generation 2 replay");
    assert_eq!(calibro_oat::to_elf_bytes(&replay2.oat), elf2);
}
