//! The injectivity proof under every cache key.
//!
//! A key is the hash of a value's wire form (DESIGN.md §7), so "two
//! inputs, one key" needs two values with one encoding — which a codec
//! with `decode(encode(x)) == x` cannot have. These properties are that
//! round trip over generated programs and configurations, plus its
//! consequence at the key level (equal keys exactly when equal values)
//! for the configuration types, whose small domains make draws collide.

use std::collections::HashSet;

use calibro::{
    options_fingerprint, program_salt, BuildOptions, LtboConfig, LtboMode, PipelineConfig,
};
use calibro_dex::wire::{decode, encode};
use calibro_dex::DexFile;
use calibro_workloads::{generate, mutate_methods, AppSpec};
use proptest::prelude::*;

/// Builds options from raw draws. The literals carry no `..`, so a new
/// `BuildOptions` or `PipelineConfig` field has to be generated here
/// before this file compiles again. Every field is folded into a small
/// domain so that two draws are sometimes equal.
fn options_from(raw: &[u64], hot: Option<&[u32]>) -> BuildOptions {
    let bit = |i: usize| raw[i] & 1 == 1;
    let small = |i: usize| (raw[i] % 3) as usize;
    BuildOptions {
        cto: bit(0),
        ltbo: match raw[1] % 3 {
            0 => None,
            1 => Some(LtboMode::Global),
            _ => Some(LtboMode::Parallel { groups: 1 + small(2), threads: 1 + small(3) }),
        },
        min_seq_len: 2 + small(5),
        hot_methods: hot.map(|ids| ids.iter().copied().collect()),
        base_address: 0x1000 * (raw[6] % 3),
        force_metadata: bit(7),
        compile_threads: 1 + small(8),
        passes: PipelineConfig {
            copy_prop: bit(9),
            constant_folding: bit(10),
            simplify: bit(11),
            dce: bit(12),
        },
    }
}

/// A strategy for [`options_from`]'s inputs: the raw field draws and an
/// optional hot set over a handful of method ids.
fn option_draws() -> impl Strategy<Value = (Vec<u64>, Vec<u32>, bool)> {
    (prop::collection::vec(any::<u64>(), 13), prop::collection::vec(0u32..6, 0..4), any::<bool>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `decode(encode(dex)) == dex` over generated and then edited
    /// programs — and with it, one program key per program.
    #[test]
    fn programs_round_trip(seed in any::<u64>(), edit in any::<u64>(), methods in 4usize..48) {
        let mut dex = generate(&AppSpec { methods, ..AppSpec::small("key-wire", seed) }).dex;
        mutate_methods(&mut dex, edit, 0.2);
        let back: DexFile = decode(&encode(&dex)).expect("an encoded program decodes");
        prop_assert_eq!(&back, &dex);
        prop_assert_eq!(program_salt(&back), program_salt(&dex));
    }

    /// `decode(encode(x)) == x` for `BuildOptions` and for the
    /// `LtboConfig` inside it, which is keyed on its own too (group-plan
    /// keys).
    #[test]
    fn configurations_round_trip((raw, hot, with_hot) in option_draws()) {
        let options = options_from(&raw, with_hot.then_some(&hot[..]));
        let back: BuildOptions = decode(&encode(&options)).expect("encoded options decode");
        prop_assert_eq!(&back, &options);
        if let Some(config) = options.ltbo_config() {
            let back: LtboConfig = decode(&encode(&config)).expect("an LTBO config decodes");
            prop_assert_eq!(back, config);
        }
    }

    /// Equal fingerprints exactly when equal options; and a hot set is
    /// a set — the order its ids were inserted in reaches neither the
    /// bytes nor the key.
    #[test]
    fn fingerprints_agree_exactly_when_options_do(
        (raw_a, hot_a, with_a) in option_draws(),
        (raw_b, hot_b, with_b) in option_draws(),
        differ in any::<bool>(),
    ) {
        let a = options_from(&raw_a, with_a.then_some(&hot_a[..]));
        // Half the pairs are independent draws (nearly always unequal),
        // half share every field draw and differ at most in the hot set.
        let b = options_from(if differ { &raw_b } else { &raw_a }, with_b.then_some(&hot_b[..]));
        prop_assert_eq!(options_fingerprint(&a) == options_fingerprint(&b), a == b);

        let reversed: HashSet<u32> = hot_a.iter().rev().copied().collect();
        let c = BuildOptions { hot_methods: with_a.then_some(reversed), ..a.clone() };
        prop_assert_eq!(encode(&c), encode(&a));
        prop_assert_eq!(options_fingerprint(&c), options_fingerprint(&a));
    }
}
