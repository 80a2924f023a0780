//! One rewrite routine, two sinks. A build's linker applies the outline
//! pass's edits as it writes each method into the text segment;
//! `run_ltbo` applies the same edits in place, through the same routine,
//! into a buffer per method. Linking `run_ltbo`'s methods without edits
//! must give the build's very bytes, and count the same moved records,
//! under every outlining arm: the global tree, the sharded one, and a
//! hot filter.

use std::collections::HashSet;

use calibro::{run_ltbo, BuildOptions, BuildSession, LtboMode};
use calibro_codegen::CompiledMethod;
use calibro_dex::DexFile;
use calibro_oat::{link, to_elf_bytes, LinkInput};
use calibro_workloads::{generate, paper_suite, AppSpec};
use proptest::prelude::*;

/// The arms, for a program of `methods` methods.
fn arms(methods: u32) -> [(&'static str, BuildOptions); 3] {
    let hot: HashSet<u32> = (0..methods).step_by(3).collect();
    [
        ("global", BuildOptions::cto_ltbo()),
        (
            "parallel",
            BuildOptions {
                ltbo: Some(LtboMode::Parallel { groups: 4, threads: 2 }),
                ..BuildOptions::cto_ltbo()
            },
        ),
        ("hot", BuildOptions::cto_ltbo().with_hot_filter(hot)),
    ]
}

/// The methods outlining starts from, as a fresh session's codegen
/// emits them.
fn outline_input(dex: &DexFile, options: &BuildOptions) -> Vec<CompiledMethod> {
    let session = BuildSession::new();
    let frontend = session.frontend(dex, options).expect("frontend");
    let codegen = session.codegen(dex, options, frontend).expect("codegen");
    codegen.outcomes.into_iter().map(|o| o.compiled).collect()
}

/// Builds `dex` both ways under every arm and compares the images and
/// the outlining stats.
fn check(name: &str, dex: &DexFile) {
    for (arm, options) in arms(dex.methods().len() as u32) {
        let built = BuildSession::new().build(dex, &options).expect("build");
        let mut methods = outline_input(dex, &options);
        let config = options.ltbo_config().expect("every arm outlines");
        let run = run_ltbo(&mut methods, &config);
        assert_eq!(run.stats, built.stats.ltbo, "{name}/{arm}: stats");
        assert_eq!(run.rewrite, built.stats.rewrite, "{name}/{arm}: rewrite stats");
        assert!(run.stats.occurrences_replaced > 0, "{name}/{arm}: nothing was outlined");
        let input = LinkInput { methods, outlined: run.outlined, ..LinkInput::default() };
        let linked = link(input, options.base_address).expect("link");
        assert!(
            to_elf_bytes(&linked) == to_elf_bytes(&built.oat),
            "{name}/{arm}: run_ltbo + link differs from build()"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_ltbo_then_link_equals_build(seed in any::<u64>()) {
        check(&format!("small/{seed}"), &generate(&AppSpec::small("equivalence", seed)).dex);
    }
}

/// The six-app suite, every arm (CI runs this file in release too,
/// where overflow checks and debug assertions are off).
#[test]
fn run_ltbo_then_link_equals_build_across_the_suite() {
    for app in paper_suite(0.25).iter().map(generate) {
        check(&app.name, &app.dex);
    }
}
