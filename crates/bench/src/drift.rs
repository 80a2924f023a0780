//! `experiments drift` — the profile-feedback re-optimization arm.
//!
//! A tenant's workload shifts mid-stream: phase A exercises one half of
//! the app's methods, phase B the other. The tenant's first build is
//! hot-set-restricted to phase A's profile (the paper's PlOpti
//! protection, §3.4.2), so once the workload moves to phase B the
//! protected set is stale and phase B runs on aggressively outlined
//! cold code. The arm then streams phase-B profile uploads at calibrod
//! until drift crosses the daemon threshold, and measures the three
//! guarantees the service makes:
//!
//! 1. **No serving gap** — every fetch issued while the background
//!    refresh compiles is answered from a sealed generation.
//! 2. **Byte determinism within a generation** — every fetch tagged
//!    with generation *g* returns the same bytes as the first.
//! 3. **Perf recovery** — after the flip, phase B's cycle count on the
//!    new generation is no worse than on the stale one.
//!
//! The record is `BENCH_drift.json`; [`drift_gate`] checks the three.

use std::time::{Duration, Instant};

use calibro::{build, BuildOptions};
use calibro_profile::Profile;
use calibro_runtime::Runtime;
use calibro_server::server::HOT_FRACTION;
use calibro_server::{Endpoint, ServerConfig};
use calibro_workloads::{generate, App, AppSpec, TraceCall};

use crate::daemon_or;
use crate::record::{gate, report};

/// Trace-call steps budget, matching the experiments substrate.
const STEP_BUDGET: u64 = 4_000_000;

/// Upload cap: the decayed accumulator converges to the phase-B
/// distribution geometrically, so needing more than this many uploads
/// means the feedback loop is broken, not slow.
const MAX_UPLOADS: usize = 50;

/// Configuration of the drift arm.
#[derive(Clone, Debug)]
pub struct DriftConfig {
    /// External daemon to target; `None` starts one in-process.
    pub endpoint: Option<Endpoint>,
    /// Worker threads for the in-process daemon.
    pub workers: usize,
}

impl Default for DriftConfig {
    fn default() -> DriftConfig {
        DriftConfig { endpoint: None, workers: 2 }
    }
}

report! {
    /// What the drift arm measured.
    pub struct DriftReport {
        /// Generation id of the initial (phase-A-restricted) build.
        pub gen1: u64,
        /// Generation id after the drift-triggered refresh.
        pub gen2: u64,
        /// Phase-B uploads needed before a refresh was scheduled.
        pub uploads_to_refresh: usize,
        /// Drift (ppm) reported on the scheduling upload.
        pub drift_ppm_at_refresh: u64,
        /// Drift (ppm) after the flip (steady state).
        pub drift_ppm_after: u64,
        /// Fetches issued while the refresh was compiling.
        pub fetches_during_refresh: usize,
        /// Fetches that failed — the serving-gap count, which must be 0.
        pub serving_gap_errors: usize,
        /// Whether every generation-1 fetch was byte-identical.
        pub gen1_byte_stable: bool,
        /// Whether every generation-2 fetch was byte-identical.
        pub gen2_byte_stable: bool,
        /// Phase-B cycles on the stale generation's artifact.
        pub phase_b_cycles_stale: u64,
        /// Phase-B cycles on the refreshed generation's artifact.
        pub phase_b_cycles_fresh: u64,
        /// `phase_b_cycles_fresh <= phase_b_cycles_stale`.
        pub perf_recovered: bool,
        /// Size of the refreshed generation's hot set.
        pub hot_set_size: u64,
        /// ELF sizes of the two generations.
        pub elf_len_gen1: u64,
        /// Refreshed generation's ELF size.
        pub elf_len_gen2: u64,
    }
}

/// The drift arm's exact gate: no fetch failed during the refresh, the
/// serving generation flipped, each generation's bytes held across its
/// fetches, phase B ran no slower on the refreshed generation, and the
/// refreshed generation has a hot set.
///
/// # Errors
///
/// One line per failed check.
pub fn drift_gate(report: &DriftReport) -> Result<(), Vec<String>> {
    gate([
        (
            report.serving_gap_errors == 0,
            format!("{} fetches failed during the refresh", report.serving_gap_errors),
        ),
        (
            report.gen2 > report.gen1,
            format!("no generation flip (gen {} -> {})", report.gen1, report.gen2),
        ),
        (report.gen1_byte_stable, "generation 1 bytes unstable across fetches".to_owned()),
        (report.gen2_byte_stable, "generation 2 bytes unstable across fetches".to_owned()),
        (
            report.perf_recovered,
            format!(
                "phase-B cycles did not recover: stale {} vs fresh {}",
                report.phase_b_cycles_stale, report.phase_b_cycles_fresh
            ),
        ),
        (report.hot_set_size > 0, "the re-optimized generation has no hot set".to_owned()),
    ])
}

/// The drifting tenant's app: big enough that the hot-set restriction
/// has visible perf consequences, split-able into two disjoint phases.
/// `call_fraction: 0.0` keeps each trace call's cycles in its entry
/// method — with transitive calls, both phases would funnel into the
/// same shared callees and the hot set would barely move.
fn drift_spec() -> AppSpec {
    AppSpec { methods: 600, classes: 12, call_fraction: 0.0, ..AppSpec::small("drift-tenant", 17) }
}

/// Splits the app's trace into two phases with disjoint method sets
/// (by method-id parity), so the phase-B hot set genuinely differs
/// from phase A's and drift is large. Falls back to an index split if
/// parity leaves a phase empty.
fn split_phases(app: &App) -> (Vec<TraceCall>, Vec<TraceCall>) {
    let (a, b): (Vec<TraceCall>, Vec<TraceCall>) =
        app.trace.iter().copied().partition(|call| call.method.0 % 2 == 0);
    if a.is_empty() || b.is_empty() {
        let mid = app.trace.len() / 2;
        return (app.trace[..mid].to_vec(), app.trace[mid..].to_vec());
    }
    (a, b)
}

/// Runs `calls` once on a fresh runtime over `elf`, returning the
/// profile and total cycles.
fn run_phase(elf: &[u8], app: &App, calls: &[TraceCall]) -> (Profile, u64) {
    let oat = calibro_oat::from_elf_bytes(elf).expect("reply ELF loads");
    let mut rt = Runtime::new(&oat, &app.env);
    for call in calls {
        rt.call(call.method, &call.args, STEP_BUDGET).expect("trace call");
    }
    (Profile::capture(&rt), rt.total_cycles())
}

/// Runs the drift scenario end to end. Panics on setup failures;
/// serving-gap errors are counted in the report, not fatal.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn drift_feedback(config: &DriftConfig) -> DriftReport {
    let daemon = ServerConfig { workers: config.workers, ..ServerConfig::default() };
    let (local, endpoint) = daemon_or(config.endpoint.as_ref(), "drift", daemon);

    let app = generate(&drift_spec());
    let (phase_a, phase_b) = split_phases(&app);
    let tenant = format!("drift-{}", std::process::id());

    // Phase A's hot set, captured the way a device-side profiler
    // would: run the trace on an unrestricted build.
    let baseline = build(&app.dex, &BuildOptions::baseline()).expect("baseline build");
    let baseline_elf = calibro_oat::to_elf_bytes(&baseline.oat);
    let (profile_a, _) = run_phase(&baseline_elf, &app, &phase_a);
    let (profile_b, _) = run_phase(&baseline_elf, &app, &phase_b);
    let hot_a = profile_a.hot_set(HOT_FRACTION).expect("phase-A hot set");

    // Generation 1: hot-set-restricted to the phase-A profile.
    let options = BuildOptions::cto_ltbo().with_hot_filter(hot_a);
    let mut client = endpoint.client().expect("connect to the daemon");
    let gen1 =
        client.build_for_tenant(&tenant, &app.dex, &options, None).expect("generation-1 build");

    // The stale perf envelope: phase B on the phase-A-restricted
    // artifact runs its hot methods through aggressive cold outlining.
    let (_, cycles_stale) = run_phase(&gen1.elf, &app, &phase_b);

    // Warm-up uploads with the phase-A profile: the decayed hot set
    // matches the serving one, so these must not trigger a refresh.
    let text_a = profile_a.to_text();
    for _ in 0..2 {
        let reply = client.upload_profile(&tenant, &text_a).expect("phase-A upload");
        assert!(
            !reply.refresh_scheduled,
            "a matching profile must not schedule a refresh ({reply:?})"
        );
    }

    // The workload shifts: stream phase-B profiles until the decayed
    // accumulator drifts past the threshold and a refresh is scheduled.
    let text_b = profile_b.to_text();
    let mut r = DriftReport {
        gen1: gen1.generation,
        gen1_byte_stable: true,
        gen2_byte_stable: true,
        phase_b_cycles_stale: cycles_stale,
        elf_len_gen1: gen1.elf.len() as u64,
        ..DriftReport::default()
    };
    for n in 1..=MAX_UPLOADS {
        let reply = client.upload_profile(&tenant, &text_b).expect("phase-B upload");
        eprintln!("  upload {n}: drift {} ppm", reply.drift_ppm);
        if reply.refresh_scheduled {
            (r.uploads_to_refresh, r.drift_ppm_at_refresh) = (n, reply.drift_ppm);
            break;
        }
    }
    assert!(r.uploads_to_refresh > 0, "phase-B drift never crossed the refresh threshold");

    // While the refresh compiles: hammer fetches. Every one must be
    // answered from a sealed generation, byte-identical within it.
    let mut gen2_reply = None;
    let deadline = Instant::now() + Duration::from_secs(120);
    while gen2_reply.is_none() {
        assert!(Instant::now() < deadline, "refresh never flipped the serving generation");
        match client.build_for_tenant(&tenant, &app.dex, &options, None) {
            Ok(reply) if reply.generation == gen1.generation => {
                r.fetches_during_refresh += 1;
                r.gen1_byte_stable &= reply.elf == gen1.elf;
            }
            Ok(reply) => {
                r.fetches_during_refresh += 1;
                gen2_reply = Some(reply);
            }
            Err(_) => r.serving_gap_errors += 1,
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let gen2 = gen2_reply.expect("loop exits with a post-flip reply");
    for _ in 0..3 {
        let reply =
            client.build_for_tenant(&tenant, &app.dex, &options, None).expect("post-flip fetch");
        r.gen2_byte_stable &= reply.generation == gen2.generation && reply.elf == gen2.elf;
    }

    // The recovered perf envelope: phase B on the refreshed artifact,
    // whose hot set came from the phase-B uploads.
    let (_, cycles_fresh) = run_phase(&gen2.elf, &app, &phase_b);

    let stats = client.generation_stats(&tenant).expect("generation stats");
    let report = DriftReport {
        gen2: gen2.generation,
        drift_ppm_after: stats.drift_ppm,
        phase_b_cycles_fresh: cycles_fresh,
        perf_recovered: cycles_fresh <= cycles_stale,
        hot_set_size: stats.hot_set_size,
        elf_len_gen2: gen2.elf.len() as u64,
        ..r
    };

    if let Some(daemon) = local {
        daemon.shutdown();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{assert_each_break_fails_alone, Break};

    #[test]
    fn the_drift_gate_names_each_broken_check() {
        let passing = DriftReport {
            gen1: 1,
            gen2: 2,
            gen1_byte_stable: true,
            gen2_byte_stable: true,
            perf_recovered: true,
            hot_set_size: 1,
            ..DriftReport::default()
        };
        let breaks: [Break<DriftReport>; 6] = [
            (|r| r.serving_gap_errors = 1, "1 fetches failed during the refresh"),
            (|r| r.gen2 = 1, "no generation flip (gen 1 -> 1)"),
            (|r| r.gen1_byte_stable = false, "generation 1 bytes unstable"),
            (|r| r.gen2_byte_stable = false, "generation 2 bytes unstable"),
            (|r| r.perf_recovered = false, "phase-B cycles did not recover"),
            (|r| r.hot_set_size = 0, "no hot set"),
        ];
        assert_each_break_fails_alone(&passing, drift_gate, &breaks);
    }
}
