//! The regression test for the miscompile that retired function merging
//! (DESIGN.md §12): the benchmark's size-first build of one app returned
//! a wrong value from a traced call. It must now run every trace call
//! exactly as the baseline build does.

use calibro::{build, BuildOptions};
use calibro_workloads::{generate, paper_suite, App, TraceCall};

/// `splitmix64`, the mixer the benchmark derives every app's seed from
/// its master seed with.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Each trace call's outcome (or trap) on `options`' build of `app`.
fn trace_outcomes(app: &App, options: &BuildOptions) -> Vec<String> {
    let out = build(&app.dex, options).expect("build");
    let mut rt = calibro_runtime::Runtime::new(&out.oat, &app.env);
    let mut outcome = |c: &TraceCall| {
        format!("{:?}", rt.call(c.method, &c.args, 4_000_000).map(|inv| inv.outcome))
    };
    app.trace.iter().map(&mut outcome).collect()
}

/// Kuaishou as the benchmark's `cold_sizefirst` workload generates it
/// under master seed 8203 (`paper_suite(0.5)`, the app's seed mixed with
/// the master's), built with the options that workload builds with.
/// While those options merged functions, trace call 40 returned a wrong
/// value: a merged body called the StackCheck thunk, whose scratch use
/// of `x16` overwrote the parameter the member's thunk had put there,
/// before the body read it.
#[test]
fn the_size_first_build_of_seed_8203_kuaishou_runs_its_trace_like_the_baseline() {
    let mut spec = paper_suite(0.5)
        .into_iter()
        .find(|s| s.name == "kuaishou")
        .expect("the paper suite has kuaishou");
    spec.seed = splitmix64(splitmix64(8203) ^ spec.seed);
    let app = generate(&spec);
    let reference = trace_outcomes(&app, &BuildOptions::baseline());
    let size_first = trace_outcomes(&app, &BuildOptions::cto_merge_ltbo());
    assert_eq!(size_first.len(), reference.len());
    if let Some(i) = (0..reference.len()).find(|&i| size_first[i] != reference[i]) {
        panic!("trace call {i} gave {}, the baseline build {}", size_first[i], reference[i]);
    }
}
