//! Golden pin for the HGraph pass pipeline: for every method of the
//! six-app suite, under the conform matrix's four pass subsets and each
//! of the four passes alone, the optimised graph and the summed
//! [`PassStats`] must be exactly what they were when the table below was
//! recorded. The passes are allowed to get faster, never to pick a
//! different instruction, operand, block order or counter value — every
//! artifact byte downstream depends on it.

use calibro_hgraph::{build_hgraph, run_pipeline_with, PassStats, PipelineConfig};
use calibro_workloads::{generate, paper_suite};

/// `(PipelineConfig::label(), FNV-1a of every optimised graph's Debug
/// rendering in suite order, FNV-1a of the summed PassStats' Debug
/// rendering)`. Graph digests of `none` and each pass alone are as
/// first recorded, before the passes moved to dense tables; `all` and
/// `cp+fold+simp` moved when CSE, return merging and unreachable-block
/// removal were deleted (one method of the suite changes), and every
/// stats digest moved with the three counters that left `PassStats`.
/// Re-record only with a reason: a digest change means the compiler's
/// output changed.
const GOLDEN: [(&str, u64, u64); 7] = [
    ("all", 0x3a8be10ea351ad12, 0xb4df447cee92bef1),
    ("none", 0x9becd9d4339e5c71, 0x2c21418d631656cb),
    ("cp+fold+simp", 0x82f1db164a7b61d2, 0x41f54073732bac99),
    ("fold", 0xd54c2e66cfb87ccf, 0xf56a58812dde6884),
    ("cp", 0x2d1762d8329a3ed2, 0xe4a37ec0fd2bdedc),
    ("simp", 0xf0f491eccccfef1c, 0x21596a3451b47023),
    ("dce", 0xaff841362f72e33d, 0x805c732c4b5b7b84),
];

fn configs() -> Vec<PipelineConfig> {
    let none = PipelineConfig::none();
    vec![
        // The conform matrix's pass subsets (calibro-conform/src/matrix.rs).
        PipelineConfig::all(),
        none,
        PipelineConfig { dce: false, ..PipelineConfig::all() },
        PipelineConfig { constant_folding: true, ..none },
        // Every remaining pass alone (constant folding alone is the row above).
        PipelineConfig { copy_prop: true, ..none },
        PipelineConfig { simplify: true, ..none },
        PipelineConfig { dce: true, ..none },
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
    assert_eq!(
        actual, golden,
        "pass pipeline output drifted from the recorded golden: {actual:#x?}"
    );
}
