//! Detection plans are pinned across changes to the suffix-tree kernel:
//! every `detect_group` plan of the warm app's 128 content-stable groups
//! and of the six `paper_suite(0.5)` apps' global texts, digested and
//! compared with digests recorded before the kernel was reworked. A
//! plan here is the group's layout and every candidate's length,
//! positions and symbols, so any change to which repeats are found,
//! which occurrences survive overlap resolution or how candidates are
//! ordered moves a digest.

use calibro::{build_template, BuildOptions, BuildSession};
use calibro_suffix::{detect_group, partition_stable, TaggedSequence, UNIQUE_SEPARATOR_BASE};
use calibro_workloads::{generate, paper_suite, AppSpec};

/// The outline pass's §3.3.2 text of every candidate method of `spec`'s
/// app under `options`, as `(method index, symbols)`.
fn sequences(spec: &AppSpec, options: &BuildOptions) -> Vec<TaggedSequence> {
    let dex = generate(spec).dex;
    let session = BuildSession::new();
    let frontend = session.frontend(&dex, options).expect("frontend");
    let codegen = session.codegen(&dex, options, frontend).expect("codegen");
    let mut unique = UNIQUE_SEPARATOR_BASE;
    let candidates = codegen.outcomes.iter().map(|o| &o.compiled).enumerate();
    candidates
        .filter(|(_, m)| !m.tables.has_indirect_jump() && !m.tables.is_native_stub())
        .map(|(tag, m)| {
            let symbols = build_template(m, false).replay_symbols(&m.words, &mut unique);
            TaggedSequence { tag, symbols }
        })
        .collect()
}

/// FNV-1a over the group's layout and its plan at `min_len` 2.
fn plan_digest(group: &[TaggedSequence]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let mut mix = |v: u64| hash = (hash ^ v).wrapping_mul(0x0000_0100_0000_01b3);
    let (plan, candidates) = detect_group(group, 2);
    for ((&tag, &offset), &len) in plan.tags.iter().zip(&plan.offsets).zip(&plan.lens) {
        [tag, offset, len].into_iter().for_each(|v| mix(v as u64));
    }
    for candidate in &candidates {
        mix(candidate.len as u64);
        candidate.positions.iter().for_each(|&p| mix(p as u64));
        candidate.symbols.iter().for_each(|&s| mix(s));
        mix(u64::MAX);
    }
    mix(candidates.len() as u64);
    hash
}

/// FNV-1a over a list of digests.
fn fold(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &d| (h ^ d).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn the_warm_app_s_group_plans_match_the_recorded_digest() {
    let spec = paper_suite(2.0).into_iter().find(|s| s.name == "kuaishou").expect("kuaishou");
    let groups = partition_stable(sequences(&spec, &BuildOptions::cto_ltbo_parallel(128, 1)), 128);
    let digests: Vec<u64> = groups.iter().map(|g| plan_digest(g)).collect();
    assert_eq!(groups.iter().filter(|g| !g.is_empty()).count(), 128);
    assert_eq!(fold(&digests), 0xc544_6c41_b201_9343, "per-group digests: {digests:#018x?}");
}

#[test]
fn the_suite_s_global_plans_match_the_recorded_digests() {
    let digests: Vec<(String, u64)> = paper_suite(0.5)
        .iter()
        .map(|spec| (spec.name.clone(), plan_digest(&sequences(spec, &BuildOptions::cto_ltbo()))))
        .collect();
    let recorded: [(&str, u64); 6] = [
        ("toutiao", 0x1023_96ed_d397_4133),
        ("taobao", 0x906a_9fc2_d960_4930),
        ("fanqie", 0xeff5_849c_d256_1dbc),
        ("meituan", 0x8009_3a74_e962_9470),
        ("kuaishou", 0xbfeb_a097_bb10_6bfd),
        ("wechat", 0xe370_9495_c5eb_19a3),
    ];
    let got: Vec<(&str, u64)> = digests.iter().map(|(name, d)| (name.as_str(), *d)).collect();
    assert_eq!(got, recorded, "paste: {got:#x?}");
}
