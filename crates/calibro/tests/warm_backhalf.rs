//! What the warm build's back half (outline → link) relies on once
//! every body is its words and plans replay without their text:
//!
//! * every body reaches the linker as words: a method's are its
//!   instructions encoded until a size pass rewrites them (and drops the
//!   instructions), and islands and outlined bodies are instruction
//!   words — words that drifted from their instructions are caught by
//!   the debug-profile run of this very suite;
//! * a cached group plan is replayed only on the text it was detected
//!   on: a foreign plan under a live group's key is a miss, not a replay.

use calibro::{BuildOptions, BuildSession, SizeArtifact};
use calibro_cache::{from_frame, to_frame, CacheConfig, CacheKey, GroupPlanEntry};
use calibro_codegen::CallTarget;
use calibro_dex::DexFile;
use calibro_isa::{decode_all, encode_words, Insn};
use calibro_oat::to_elf_bytes;
use calibro_workloads::{generate, paper_suite, AppSpec};

/// The size artifact of `dex` under `options`, through the public stages.
fn size_artifact(session: &BuildSession, dex: &DexFile, options: &BuildOptions) -> SizeArtifact {
    let frontend = session.frontend(dex, options).expect("frontend");
    let codegen = session.codegen(dex, options, frontend).expect("codegen");
    session.outline(options, codegen).expect("outline")
}

/// `words` is exactly `insns` encoded.
fn encodes_to(insns: &[Insn], words: &[u32]) -> bool {
    encode_words(insns).as_deref() == Ok(words)
}

/// `words` are instruction words, each the one its instruction encodes to.
fn instruction_words(words: &[u32]) -> bool {
    decode_all(words).is_ok_and(|insns| encodes_to(&insns, words))
}

#[test]
fn every_codegen_output_is_its_instructions_encoded() {
    let options = BuildOptions::cto_merge_ltbo();
    let (mut stubs, mut thunks, mut rewritten) = (0, 0, 0);
    for app in paper_suite(0.25).iter().map(generate) {
        let session = BuildSession::new();
        let frontend = session.frontend(&app.dex, &options).expect("frontend");
        let codegen = session.codegen(&app.dex, &options, frontend).expect("codegen");
        for o in &codegen.outcomes {
            let m = &o.compiled;
            assert!(encodes_to(&m.insns, &m.words), "{}: {:?}", app.name, m.method);
            stubs += usize::from(m.metadata.is_native_stub);
        }

        // Merge thunks carry both forms; a method the outline pass
        // rewrote, its words alone.
        let size = session.outline(&options, codegen).expect("outline");
        for m in &size.methods {
            if m.relocs.iter().any(|r| matches!(r.target, CallTarget::Merged(_))) {
                thunks += 1;
            }
            match m.insns.is_empty() {
                true => rewritten += 1,
                false => assert!(encodes_to(&m.insns, &m.words), "{}: {:?}", app.name, m.method),
            }
            assert!(instruction_words(&m.words), "{}: {:?}", app.name, m.method);
        }
        for (i, island) in size.merged.iter().enumerate() {
            assert!(instruction_words(&island.words), "{}: island {i}", app.name);
        }
        for (i, body) in size.outlined.iter().enumerate() {
            assert!(instruction_words(body), "{}: outlined body {i}", app.name);
        }
        assert!(!size.merged.is_empty() && !size.outlined.is_empty(), "{}", app.name);
    }
    assert!(stubs > 0 && thunks > 0 && rewritten > 0, "{stubs} stubs, {thunks} thunks");
}

/// Only the debug profile carries the linker's word-equality assertion,
/// which is why tier-1 runs this suite unoptimized.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "its words are not its instructions encoded")]
fn a_word_that_drifted_from_its_instruction_trips_the_debug_assertion() {
    let dex = generate(&AppSpec::small("drift", 3)).dex;
    let options = BuildOptions::cto_ltbo();
    let session = BuildSession::new();
    let mut size = size_artifact(&session, &dex, &options);
    // A method nothing rewrote carries its instructions beside its words.
    let m = size.methods.iter_mut().find(|m| !m.insns.is_empty());
    let m = m.expect("some method keeps its instructions");
    let mut words = m.words.to_vec();
    words[0] ^= 1 << 5; // another register, still an instruction
    m.words = words.into();
    let _ = session.link(&options, size);
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
        .find(|(_, plan)| !plan.lens.is_empty())
        .expect("some group outlined something");
    let (_, foreign) = plans
        .iter()
        .find(|(_, plan)| plan.text_len != victim.text_len && !plan.lens.is_empty())
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
