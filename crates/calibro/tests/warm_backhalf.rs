//! What the warm build's back half (outline → link) relies on once
//! every body is its words and plans replay without their text:
//!
//! * every body reaches the linker as words, a method's its instructions
//!   encoded (words that drifted from their instructions are caught by
//!   the debug-profile run of this very suite), and the linker writes
//!   instruction words: every method with its outline edits applied,
//!   and every outlined body;
//! * every method codegen emits passes the cache's trust boundary, whose
//!   PC-relative check lets outlining copy a site whose distance it does
//!   not change;
//! * a cached group plan is replayed only on the code it was detected
//!   on: a foreign plan under a live group's key is a miss, not a replay.

use calibro::{BuildOptions, BuildSession, SizeArtifact};
use calibro_cache::{from_frame, to_frame, CacheConfig, CacheEntry, CacheKey, GroupPlanEntry};
use calibro_dex::DexFile;
use calibro_isa::{decode_all, encode_words, Insn};
use calibro_oat::{to_elf_bytes, OatFile};
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

/// Every word of `oat`'s methods outside their embedded data (the
/// literal pools), and every word of its outlined bodies, is an
/// instruction word. Returns how many words were checked.
fn linked_words_are_instructions(name: &str, oat: &OatFile) -> usize {
    let mut checked = 0;
    for record in &oat.methods {
        let start = (record.offset / 4) as usize;
        for w in (0..record.code_words as usize).filter(|&w| !record.metadata.in_embedded_data(w)) {
            assert!(w < record.insn_words as usize, "{name}: {:?}: pool word {w}", record.method);
            let word = &oat.words[start + w..start + w + 1];
            assert!(instruction_words(word), "{name}: {:?}: word {w}", record.method);
            checked += 1;
        }
    }
    for (i, body) in oat.outlined.iter().enumerate() {
        let start = (body.offset / 4) as usize;
        let words = &oat.words[start..start + body.size_words as usize];
        assert!(instruction_words(words), "{name}: outlined body {i}");
        checked += words.len();
    }
    checked
}

#[test]
fn every_codegen_output_is_its_instructions_encoded() {
    let options = BuildOptions::cto_ltbo();
    let (mut stubs, mut edited) = (0, 0);
    for app in paper_suite(0.25).iter().map(generate) {
        let session = BuildSession::new();
        let frontend = session.frontend(&app.dex, &options).expect("frontend");
        let codegen = session.codegen(&app.dex, &options, frontend).expect("codegen");
        for o in &codegen.outcomes {
            let m = &o.compiled;
            assert!(encodes_to(&m.insns, &m.words), "{}: {:?}", app.name, m.method);
            stubs += usize::from(m.metadata.is_native_stub);
        }

        // Outlining rewrites no method, it plans the edits the linker
        // applies.
        let size = session.outline(&options, codegen).expect("outline");
        for (idx, m) in size.methods.iter().enumerate() {
            assert!(encodes_to(&m.instructions(), &m.words), "{}: {:?}", app.name, m.method);
            edited += usize::from(!size.edits.of(idx).is_empty());
        }
        assert!(!size.outlined.is_empty(), "{}", app.name);

        // What the linker wrote — rewritten methods and outlined bodies —
        // is instruction words.
        let oat = session.link(&options, size).expect("link");
        assert!(linked_words_are_instructions(&app.name, &oat) > 0, "{}", app.name);
    }
    assert!(stubs > 0 && edited > 0, "{stubs} stubs, {edited} edited");
}

#[test]
fn every_method_codegen_emits_passes_the_trust_boundary() {
    // Among them every PC-relative site: each must already encode the
    // distance to its record's target.
    let options = BuildOptions::cto_ltbo();
    let key = CacheKey { hi: 1, lo: 2 };
    let mut sites = 0;
    for app in paper_suite(0.25).iter().map(generate) {
        let session = BuildSession::new();
        let frontend = session.frontend(&app.dex, &options).expect("frontend");
        let codegen = session.codegen(&app.dex, &options, frontend).expect("codegen");
        for o in &codegen.outcomes {
            let frame = to_frame(key, &*o.entry);
            if let Err(refusal) = from_frame::<CacheEntry>(key, &frame) {
                panic!("{}: {:?}: {refusal}", app.name, o.compiled.method);
            }
            sites += o.compiled.metadata.pc_rel.len();
        }
    }
    assert!(sites > 0, "no PC-relative site was checked");
}

/// Only the debug profile carries the linker's word-equality assertion,
/// which is why tier-1 runs this suite unoptimized. The linker checks a
/// method's words before it applies the method's edits, so the drifted
/// method is one it rewrites.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "its words are not its instructions encoded")]
fn a_word_that_drifted_from_its_instruction_trips_the_debug_assertion() {
    let dex = generate(&AppSpec::small("drift", 3)).dex;
    let options = BuildOptions::cto_ltbo();
    let session = BuildSession::new();
    let mut size = size_artifact(&session, &dex, &options);
    // A cold build's methods carry their instructions beside their words.
    let edits = &size.edits;
    let m = size
        .methods
        .iter_mut()
        .enumerate()
        .find(|(idx, m)| !m.insns.is_empty() && !edits.of(*idx).is_empty());
    let (_, m) = m.expect("some edited method keeps its instructions");
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
        .find(|(_, plan)| plan.code_len != victim.code_len && !plan.lens.is_empty())
        .expect("a plan over code of another length");
    let path = dir.join(format!("{}.calg", victim_key.to_hex()));
    std::fs::write(&path, to_frame(*victim_key, foreign)).expect("plant");

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
