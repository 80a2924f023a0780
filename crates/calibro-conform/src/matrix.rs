//! The build-configuration matrix: every `LtboMode`, pass-pipeline
//! subsets toggled on and off, and both compile-thread counts — the
//! paper's Table 4 rows crossed with the knobs that must never change
//! observable behaviour.

use calibro::{BuildOptions, PipelineConfig};

/// One matrix row: build options plus the stable label recorded in
/// corpus seed lines and divergence reports.
#[derive(Clone, Debug)]
pub struct Variant {
    /// Stable label, `<outlining>/<passes>/t<threads>`.
    pub label: String,
    /// The options handed to [`calibro::build`].
    pub options: BuildOptions,
}

/// The reference configuration every variant is compared against: all
/// passes, no CTO, no LTBO, one compile thread.
#[must_use]
pub fn baseline_options() -> BuildOptions {
    BuildOptions::baseline()
}

/// The outlining arms of the matrix: no outlining, CTO only, CTO +
/// global LTBO, CTO + parallel LTBO (PlOpti).
fn outlining_arms() -> Vec<(&'static str, BuildOptions)> {
    vec![
        ("plain", BuildOptions::baseline()),
        ("cto", BuildOptions::cto()),
        ("ltbo-global", BuildOptions::cto_ltbo()),
        ("ltbo-par", BuildOptions::cto_ltbo_parallel(4, 2)),
    ]
}

/// The pass-pipeline subsets exercised per outlining arm.
fn pass_subsets() -> Vec<PipelineConfig> {
    vec![
        PipelineConfig::all(),
        PipelineConfig::none(),
        PipelineConfig { dce: false, ..PipelineConfig::all() },
        PipelineConfig { constant_folding: true, ..PipelineConfig::none() },
    ]
}

/// The full matrix: outlining arms × pass subsets × thread counts.
/// Includes the row identical to the baseline (`plain/all/t1`) as a
/// self-check that the oracle accepts a byte-identical build.
#[must_use]
pub fn full_matrix() -> Vec<Variant> {
    let mut rows = Vec::new();
    for (arm, options) in outlining_arms() {
        for passes in pass_subsets() {
            for threads in [1usize, 8] {
                let options = options.clone().with_passes(passes).with_compile_threads(threads);
                rows.push(Variant {
                    label: format!("{arm}/{}/t{threads}", passes.label()),
                    options,
                });
            }
        }
    }
    rows
}

/// Looks a matrix row up by label (corpus replay).
#[must_use]
pub fn find_variant(label: &str) -> Option<Variant> {
    full_matrix().into_iter().find(|v| v.label == label)
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro::LtboMode;

    #[test]
    fn matrix_covers_every_ltbo_mode_and_thread_count() {
        let rows = full_matrix();
        assert_eq!(rows.len(), 4 * 4 * 2);
        assert!(rows.iter().any(|v| v.options.ltbo == Some(LtboMode::Global)));
        assert!(rows
            .iter()
            .any(|v| matches!(v.options.ltbo, Some(LtboMode::Parallel { groups: 4, threads: 2 }))));
        assert!(rows.iter().any(|v| v.options.compile_threads == 8));
        assert!(rows.iter().any(|v| v.options.passes == PipelineConfig::none()));
    }

    #[test]
    fn labels_are_unique_and_resolvable() {
        let rows = full_matrix();
        for (i, v) in rows.iter().enumerate() {
            assert!(
                rows.iter().skip(i + 1).all(|w| w.label != v.label),
                "duplicate label {}",
                v.label
            );
            let found = find_variant(&v.label).expect("label resolves");
            assert_eq!(found.options.compile_threads, v.options.compile_threads);
        }
        assert!(find_variant("no/such/row").is_none());
    }
}
