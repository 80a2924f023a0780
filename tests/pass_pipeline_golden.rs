//! Golden pin for the HGraph pass pipeline: for every method of the
//! six-app suite, under the conform matrix's four pass subsets and each
//! of the seven passes alone, the optimised graph and the summed
//! [`PassStats`] must be exactly what they were when the table below was
//! recorded. The passes are allowed to get faster, never to pick a
//! different instruction, operand, block order or counter value — every
//! artifact byte downstream depends on it.

use calibro_hgraph::{build_hgraph, run_pipeline_with, PassStats, PipelineConfig};
use calibro_workloads::{generate, paper_suite};

/// `(PipelineConfig::label(), FNV-1a of every optimised graph's Debug
/// rendering in suite order, FNV-1a of the summed PassStats' Debug
/// rendering)`, recorded at the commit before the passes moved to dense
/// tables. `rm` and `unr` alone equal `none`: freshly built graphs have
/// no duplicate return blocks and no unreachable ones — those two passes
/// only fire inside `all`, downstream of folding. Re-record only with a
/// reason: a digest change means the compiler's output changed.
const GOLDEN: [(&str, u64, u64); 10] = [
    ("all", 0x5ae72d3df261308a, 0xf7ce57cf98f84925),
    ("none", 0x9becd9d4339e5c71, 0xfa81a359d3922ba8),
    ("cp+fold+simp+cse+rm", 0xfcbe556b9855658a, 0x7f4285acc3985d17),
    ("fold", 0xd54c2e66cfb87ccf, 0xb13cce427a619b6b),
    ("cp", 0x2d1762d8329a3ed2, 0xed5a6a161c4275b3),
    ("simp", 0xf0f491eccccfef1c, 0xda0010b44d3b9d00),
    ("cse", 0xc9f56063951db359, 0x4ec7776927b53e45),
    ("dce", 0xaff841362f72e33d, 0xf1a1cbc32c011905),
    ("rm", 0x9becd9d4339e5c71, 0xfa81a359d3922ba8),
    ("unr", 0x9becd9d4339e5c71, 0xfa81a359d3922ba8),
];

fn configs() -> Vec<PipelineConfig> {
    let none = PipelineConfig::none();
    vec![
        // The conform matrix's pass subsets (calibro-conform/src/matrix.rs).
        PipelineConfig::all(),
        none,
        PipelineConfig { dce: false, remove_unreachable: false, ..PipelineConfig::all() },
        PipelineConfig { constant_folding: true, ..none },
        // Every remaining pass alone (constant folding alone is the row above).
        PipelineConfig { copy_prop: true, ..none },
        PipelineConfig { simplify: true, ..none },
        PipelineConfig { cse: true, ..none },
        PipelineConfig { dce: true, ..none },
        PipelineConfig { return_merge: true, ..none },
        PipelineConfig { remove_unreachable: true, ..none },
    ]
}

fn fnv1a(digest: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *digest ^= u64::from(byte);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn optimised_graphs_and_pass_stats_match_the_recorded_golden() {
    let apps: Vec<_> = paper_suite(0.25).iter().map(generate).collect();
    let actual: Vec<(String, u64, u64)> = configs()
        .iter()
        .map(|config| {
            let mut graphs = 0xcbf2_9ce4_8422_2325u64;
            let mut total = PassStats::default();
            for method in apps.iter().flat_map(|app| app.dex.methods()) {
                if method.is_native {
                    continue;
                }
                let mut graph = build_hgraph(method);
                total += run_pipeline_with(&mut graph, config);
                fnv1a(&mut graphs, format!("{graph:?}").as_bytes());
            }
            let mut stats = 0xcbf2_9ce4_8422_2325u64;
            fnv1a(&mut stats, format!("{total:?}").as_bytes());
            (config.label(), graphs, stats)
        })
        .collect();
    let golden: Vec<(String, u64, u64)> =
        GOLDEN.iter().map(|&(label, g, s)| (label.to_owned(), g, s)).collect();
    assert_eq!(actual, golden, "pass pipeline output drifted from the recorded golden");
}
