//! What the warm build's back half (outline → link) relies on once
//! words are a cached fact and plans replay without their text:
//!
//! * handing the linker a method's pre-encoded words changes nothing it
//!   emits — byte for byte and record for record — on every outlining
//!   route, and words that drifted from their instructions are caught by
//!   the debug-profile run of this very suite;
//! * a cached group plan is replayed only on the text it was detected
//!   on: a foreign plan under a live group's key is a miss, not a replay.

use std::collections::HashSet;
use std::sync::Arc;

use calibro::{BuildOptions, BuildSession, DictRegistry, MethodWords, SizeArtifact};
use calibro_cache::{from_frame, to_frame, CacheConfig, CacheKey, GroupPlanEntry};
use calibro_dex::DexFile;
use calibro_isa::decode_all;
use calibro_oat::{link_with_dict, to_elf_bytes, LinkInput, OatFile};
use calibro_workloads::{generate, paper_suite, AppSpec};

/// The size artifact of `dex` under `options`, through the public stages.
fn size_artifact(session: &BuildSession, dex: &DexFile, options: &BuildOptions) -> SizeArtifact {
    let frontend = session.frontend(dex, options).expect("frontend");
    let codegen = session.codegen(dex, options, frontend).expect("codegen");
    session.outline(options, codegen).expect("outline")
}

/// Links `size` with the words it carries (`with_words`) or with none,
/// so that the linker encodes every method itself — a method the outline
/// pass rewrote, whose words are its only code, from those words decoded.
fn link(size: &SizeArtifact, options: &BuildOptions, with_words: bool) -> OatFile {
    let mut methods = size.methods.clone();
    let words = match with_words {
        true => size.words.iter().map(MethodWords::as_slice).collect(),
        false => {
            for (m, slot) in methods.iter_mut().zip(&size.words) {
                if let MethodWords::Outlined(words) = slot {
                    m.insns = decode_all(words).expect("outlined words decode").into();
                }
            }
            Vec::new()
        }
    };
    let input =
        LinkInput { methods, outlined: size.outlined.clone(), merged: size.merged.clone(), words };
    link_with_dict(input, options.base_address, size.dict_island.as_ref()).expect("link")
}

#[test]
fn linking_with_words_equals_linking_without() {
    for app in paper_suite(0.25).iter().map(generate) {
        let dex = &app.dex;
        let hot: HashSet<u32> =
            dex.methods().iter().map(|m| m.id.0).filter(|id| id % 2 == 0).collect();
        // A dictionary tenant behind a sealed epoch, so its calls go to
        // the island.
        let registry = Arc::new(DictRegistry::default());
        let tenant = || BuildSession::new().with_dict_registry(Arc::clone(&registry));
        let dict = BuildOptions::cto_ltbo().with_dict();
        tenant().build(dex, &dict).expect("publishing tenant");
        registry.seal_epoch();

        let arms = [
            ("cto_ltbo", BuildSession::new(), BuildOptions::cto_ltbo()),
            (
                "cto_ltbo_pl_hf",
                BuildSession::new(),
                BuildOptions::cto_ltbo_parallel(8, 2).with_hot_filter(hot),
            ),
            ("cto_merge_ltbo", BuildSession::new(), BuildOptions::cto_merge_ltbo()),
            ("dict", tenant(), dict),
        ];
        for (name, session, options) in arms {
            let size = size_artifact(&session, dex, &options);
            let (copied, encoded) = (link(&size, &options, true), link(&size, &options, false));
            assert_eq!(copied.words, encoded.words, "{}/{name}: text differs", app.name);
            assert_eq!(
                format!("{:?}", (&copied.methods, &copied.thunks, &copied.outlined)),
                format!("{:?}", (&encoded.methods, &encoded.thunks, &encoded.outlined)),
                "{}/{name}: records differ",
                app.name
            );
            assert_eq!(to_elf_bytes(&copied), to_elf_bytes(&encoded), "{}/{name}", app.name);

            // Both sides of the choice were taken: rewritten methods
            // brought the outline pass's words, untouched ones their
            // entry's, and merge thunks none.
            let count =
                |pick: fn(&MethodWords) -> bool| size.words.iter().filter(|w| pick(w)).count();
            assert!(count(|w| matches!(w, MethodWords::Outlined(_))) > 0, "{}/{name}", app.name);
            assert!(count(|w| matches!(w, MethodWords::Entry(_))) > 0, "{}/{name}", app.name);
            let thunks = count(|w| matches!(w, MethodWords::None));
            assert_eq!(thunks, size.merge.merged_methods, "{}/{name}: wordless methods", app.name);
            assert_eq!(thunks > 0, options.merge.is_some(), "{}/{name}", app.name);
        }
    }
}

/// Only the debug profile carries the linker's word-equality assertion,
/// which is why tier-1 runs this suite unoptimized.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "a pre-encoded word differs from its instruction")]
fn a_word_that_drifted_from_its_instruction_trips_the_debug_assertion() {
    let dex = generate(&AppSpec::small("drift", 3)).dex;
    let options = BuildOptions::cto_ltbo();
    let mut size = size_artifact(&BuildSession::new(), &dex, &options);
    // An entry's words ride with the instructions they were encoded from.
    let slot = size.words.iter_mut().find(|w| match w {
        MethodWords::Entry(entry) => !entry.words().is_empty(),
        _ => false,
    });
    let slot = slot.expect("some method carries its entry's words");
    let mut words = slot.as_slice().expect("just checked").to_vec();
    words[0] ^= 1 << 5; // another register, still an instruction
    *slot = MethodWords::Outlined(words);
    let _ = link(&size, &options, true);
}

/// The `(key, entry)` of every `.calg` frame under `dir`.
fn persisted_plans(dir: &std::path::Path) -> Vec<(CacheKey, GroupPlanEntry)> {
    let mut plans = Vec::new();
    for file in std::fs::read_dir(dir).expect("cache dir").flatten() {
        if file.path().extension().is_some_and(|ext| ext == "calg") {
            let bytes = std::fs::read(file.path()).expect("frame");
            let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8"));
            let key = CacheKey { hi: word(8), lo: word(16) };
            plans.push((key, from_frame(key, &bytes).expect("a frame this suite wrote")));
        }
    }
    plans.sort_by_key(|(key, _)| (key.hi, key.lo));
    plans
}

#[test]
fn a_foreign_plan_under_a_live_key_is_a_miss_not_a_replay() {
    let dir = std::env::temp_dir().join(format!("calibro-foreign-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() };
    let dex = generate(&AppSpec::small("foreign", 17)).dex;
    let options = BuildOptions::cto_ltbo_parallel(4, 1);

    let cold = BuildSession::with_config(config.clone()).build(&dex, &options).expect("cold");
    let cold_elf = to_elf_bytes(&cold.oat);

    // Put one group's plan under another group's key: a well-formed,
    // checksummed, structurally valid frame — everything the disk and
    // peer gauntlets can check — that was detected on some other text.
    let plans = persisted_plans(&dir);
    let (victim_key, victim) = plans
        .iter()
        .find(|(_, plan)| !plan.candidates.is_empty())
        .expect("some group outlined something");
    let (_, foreign) = plans
        .iter()
        .find(|(_, plan)| plan.text_len != victim.text_len && !plan.candidates.is_empty())
        .expect("a plan over a text of another length");
    let path = dir.join(format!("{}.calg", victim_key.to_hex()));
    std::fs::write(&path, to_frame(*victim_key, foreign).expect("frame")).expect("plant");

    // A new session over that directory: every method and every other
    // group replays from disk; the planted plan is refused, its group
    // re-detects, and the image is the cold one.
    let warm = BuildSession::with_config(config).build(&dex, &options).expect("warm");
    assert_eq!(to_elf_bytes(&warm.oat), cold_elf, "a foreign plan leaked into the image");
    assert_eq!(warm.stats.ltbo, cold.stats.ltbo);
    assert_eq!(warm.stats.methods_from_cache, warm.stats.methods);
    assert_eq!(warm.stats.cache.group_misses, 1, "exactly the planted group re-detects");
    // ...and overwrote the impostor with its own plan.
    let healed = std::fs::read(&path).expect("frame");
    assert_eq!(&from_frame::<GroupPlanEntry>(*victim_key, &healed).expect("healed frame"), victim);

    std::fs::remove_dir_all(&dir).expect("cleanup");
}
