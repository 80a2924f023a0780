//! Fault injection: flip one bit of one encoded instruction after
//! linking, then demand the oracle notices. A conformance harness whose
//! detectors are silently broken reports "zero divergences" forever;
//! `--mutate` turns that blind spot into a failing CI check.

use calibro::build;
use calibro_dex::{DexInsn, MethodId};
use calibro_oat::OatFile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Variant;
use crate::oracle::{check_oat, BaselineRun, Divergence};
use crate::program::Program;

/// One injected miscompile: flip `bit` of the `word`-th instruction word
/// of `method` (method-relative, so the same mutation stays attached to
/// the same code while the shrinker cuts everything around it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Mutation {
    /// The mutated method.
    pub method: MethodId,
    /// Word index within the method's instruction words (literal pools
    /// excluded).
    pub word: usize,
    /// Bit to flip, `0..32`.
    pub bit: u8,
}

impl Mutation {
    /// Applies the flip to a linked OAT. Returns `false` (leaving the
    /// OAT untouched) when the mutation no longer applies — the method
    /// is gone or its code has fewer instruction words.
    pub fn apply(&self, oat: &mut OatFile) -> bool {
        let Some(record) = oat.methods.iter().find(|m| m.method == self.method) else {
            return false;
        };
        if self.word >= record.insn_words as usize {
            return false;
        }
        let index = (record.offset / 4) as usize + self.word;
        oat.words[index] ^= 1u32 << self.bit;
        true
    }
}

/// Searches for a bit flip the oracle detects under `variant`.
///
/// Builds the variant once, then tries seeded random `(method, word,
/// bit)` candidates, applying each to a fresh copy of the linked OAT and
/// running the full oracle. Returns the first detected mutation with its
/// divergence, or `None` if `attempts` candidates all went undetected —
/// which the driver treats as an oracle failure.
#[must_use]
pub fn find_detected_mutation(
    program: &Program,
    baseline: &BaselineRun,
    variant: &Variant,
    seed: u64,
    attempts: usize,
) -> Option<(Mutation, Divergence)> {
    let output = build(&program.dex, &variant.options).ok()?;
    let oat = output.oat;
    let candidates: Vec<MethodId> =
        oat.methods.iter().filter(|m| m.insn_words > 0).map(|m| m.method).collect();
    if candidates.is_empty() {
        return None;
    }
    // Prefer leaf methods: a mutation pins its method's body (and thus
    // every callee) through shrinking, so a leaf target minimizes to a
    // one-method reproducer where a caller drags its call tree along.
    let leaves: Vec<MethodId> = candidates
        .iter()
        .copied()
        .filter(|&id| {
            let m = program.dex.method(id);
            !m.is_native
                && !m
                    .insns
                    .iter()
                    .any(|i| matches!(i, DexInsn::Invoke { .. } | DexInsn::InvokeNative { .. }))
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6d75_7461); // "muta"
    for attempt in 0..attempts {
        let pool = if !leaves.is_empty() && attempt * 2 < attempts { &leaves } else { &candidates };
        let method = pool[rng.gen_range(0..pool.len())];
        let record = oat.methods.iter().find(|m| m.method == method).unwrap();
        let mutation = Mutation {
            method,
            word: rng.gen_range(0..record.insn_words as usize),
            bit: rng.gen_range(0..32),
        };
        let mut mutated = oat.clone();
        assert!(mutation.apply(&mut mutated), "candidate drawn from live range");
        if let Err(divergence) = check_oat(program, baseline, &variant.label, &mutated) {
            return Some((mutation, divergence));
        }
        // Undetected: the flip hit dead code or a don't-care bit (e.g. a
        // literal-pool-adjacent immediate the trace never observes). Try
        // another candidate.
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::find_variant;
    use crate::oracle::run_baseline;

    #[test]
    fn inapplicable_mutation_leaves_oat_untouched() {
        let program = Program::from_seed("art-call", 0).unwrap();
        let output = build(&program.dex, &find_variant("cto/all/t1").unwrap().options).unwrap();
        let mut oat = output.oat;
        let words = oat.words.clone();
        assert!(!Mutation { method: MethodId(9999), word: 0, bit: 0 }.apply(&mut oat));
        assert!(!Mutation { method: MethodId(0), word: usize::MAX, bit: 0 }.apply(&mut oat));
        assert_eq!(oat.words, words);
    }

    #[test]
    fn oracle_detects_an_injected_miscompile() {
        let program = Program::from_seed("art-call", 2).unwrap();
        let baseline = run_baseline(&program).unwrap();
        let variant = find_variant("ltbo-global/all/t1").unwrap();
        let found = find_detected_mutation(&program, &baseline, &variant, 2, 200);
        assert!(found.is_some(), "no detectable mutation in 200 attempts: oracle is blind");
    }
}
