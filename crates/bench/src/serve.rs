//! The `calibrod` load generator: N client threads firing a mixed
//! cold/warm request stream at a daemon (an in-process one by default,
//! or an externally spawned `calibrod` via `--socket`/`--addr`),
//! measuring throughput, client-observed latency quantiles, cache hit
//! rates on the warm half, one edit of the warm app per connection (sent
//! by edit, checked against a whole send), and the daemon's admission
//! behavior under a deliberate overload burst. The record is
//! `BENCH_serve.json`: one row per run, one run per daemon.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use calibro::BuildOptions;
use calibro_dex::DexFile;
use calibro_server::{ClientError, Endpoint, ServeError, ServerConfig, ServerStats};
use calibro_workloads::{generate, mutate_methods, AppSpec};

use crate::daemon_or;
use crate::record::{gate, micros, quantile, ratchet, report, Record};

/// Loadgen configuration (all defaults overridable from the CLI).
#[derive(Clone, Debug)]
pub struct ServeLoadConfig {
    /// Concurrent client threads.
    pub clients: usize,
    /// Total build requests across all clients (split evenly).
    pub requests: usize,
    /// Worker threads for the in-process daemon (ignored with an
    /// external endpoint).
    pub workers: usize,
    /// Admission-queue depth for the in-process daemon.
    pub queue_depth: usize,
    /// External daemon to target; `None` starts one in-process.
    pub endpoint: Option<Endpoint>,
    /// Whether to run the overload burst probe after the mixed stream.
    pub probe_overload: bool,
}

impl Default for ServeLoadConfig {
    fn default() -> ServeLoadConfig {
        ServeLoadConfig {
            clients: 4,
            requests: 40,
            // The daemon CI's serve-smoke starts: a queue this shallow
            // is sure to overflow under the probe, which the gate needs.
            workers: 2,
            queue_depth: 4,
            endpoint: None,
            probe_overload: true,
        }
    }
}

report! {
    /// What the load generator measured.
    pub struct ServeReport {
        /// Client threads used.
        pub clients: usize,
        /// Mixed-stream requests sent: the configured count split evenly
        /// over the clients, at least one each.
        pub requests: usize,
        /// Mixed-stream requests that completed successfully.
        pub completed: usize,
        /// Mixed-stream requests that failed (transport or typed error).
        pub errors: usize,
        /// Requests in the warm half of the stream.
        pub warm_requests: usize,
        /// Fraction of warm-half methods served from the shared cache.
        pub warm_hit_rate: f64,
        /// Wall time of the mixed stream (µs).
        pub wall_us: u64,
        /// Completed requests per second over the mixed stream.
        pub throughput_rps: f64,
        /// Client-observed latency quantiles over the mixed stream (µs).
        pub p50_us: u64,
        /// 95th percentile (µs).
        pub p95_us: u64,
        /// 99th percentile (µs).
        pub p99_us: u64,
        /// Cold wall time of the dedicated cold/warm pairs, median over the
        /// pairs (µs).
        pub cold_us: u64,
        /// Warm wall time of the same request from a second client, median
        /// over the pairs (µs).
        pub warm_us: u64,
        /// `cold_us / warm_us`.
        pub warm_speedup: f64,
        /// Whether every pair's cold and warm replies were byte-identical.
        pub identical: bool,
        /// One-method edits of the warm app sent, one per connection that
        /// named the warm app by reference (outside the mixed stream's
        /// counts).
        pub edits: usize,
        /// Whether every edit was answered, byte-identical to a whole send
        /// of the same edited program from a fresh connection.
        pub edit_identical: bool,
        /// Overload-probe requests sent (0 when the probe is disabled).
        pub probe_sent: usize,
        /// Overload-probe requests rejected with `Overloaded`.
        pub probe_rejected: usize,
        /// The daemon's own stats snapshot after the run.
        pub server: ServerStats,
    }
}

/// The serve arm's record: the run count and the median warm reply,
/// then one row per run.
#[must_use]
pub fn serve_record(runs: &[ServeReport]) -> Record {
    Record {
        arm: "serve",
        fields: vec![
            ("runs", runs.len().into()),
            ("warm_us", quantile(&runs.iter().map(|r| r.warm_us).collect::<Vec<_>>(), 0.5).into()),
        ],
        rows: runs.iter().map(ServeReport::fields).collect(),
    }
}

/// The serve arm's gate. Every run: no request failed and every one
/// completed, more than half the warm half's methods came from the
/// cache, the warm reply was byte-identical to the cold one and faster,
/// a build went by reference, one was replayed and one went by edit
/// with the bytes of a whole send, the overload probe (unless
/// `--no-probe`) drew an `Overloaded`, and the daemon counted no build
/// error. Then the
/// median warm reply against the `committed` one ([`ratchet`]): one
/// run's warm reply moves by ±11 % between back-to-back runs, the median
/// of three much less.
///
/// # Errors
///
/// One line per failed check, each run's prefixed with its number.
pub fn serve_gate(runs: &[ServeReport], committed: Option<f64>) -> Result<(), Vec<String>> {
    let mut checks = Vec::new();
    for (i, r) in runs.iter().enumerate() {
        let (run, s) = (format!("run {}", i + 1), &r.server);
        let (warm, cold) = (r.warm_us, r.cold_us);
        checks.extend([
            (r.errors == 0, format!("{run}: loadgen saw {} errors", r.errors)),
            (r.completed >= r.requests, format!("{run}: only {} requests completed", r.completed)),
            (r.warm_hit_rate > 0.5, format!("{run}: warm-half hit rate {}", r.warm_hit_rate)),
            (r.identical, format!("{run}: warm reply not byte-identical to cold")),
            // Each client sends the warm app three times on its
            // connection: the third names it by reference.
            (s.programs_by_reference > 0, format!("{run}: no build went by reference")),
            // The warm app is held, and its slot filled, from the
            // cold/warm pairs: its sends in the stream are replayed.
            (s.builds_replayed > 0, format!("{run}: no build was replayed")),
            // Then each client sends one one-method edit of it.
            (s.programs_by_edit > 0, format!("{run}: no build went by edit")),
            (r.edit_identical, format!("{run}: an edit reply differs from its whole send")),
            (warm < cold, format!("{run}: warm reply {warm}us no faster than cold {cold}us")),
            (
                r.probe_sent == 0 || r.probe_rejected >= 1,
                format!("{run}: queue saturation produced no Overloaded"),
            ),
            (
                s.build_errors == 0,
                format!("{run}: the daemon counted {} build errors", s.build_errors),
            ),
        ]);
    }
    checks.extend(ratchet(
        "median warm reply",
        quantile(&runs.iter().map(|r| r.warm_us).collect::<Vec<_>>(), 0.5),
        committed,
    ));
    gate(checks)
}

// Big enough that compilation dominates the fixed per-request costs
// (dex transport, linking, ELF encode): the warm replay then shows the
// shared cache's real effect instead of being drowned by overhead.
fn warm_spec(seed: u64) -> AppSpec {
    AppSpec { methods: 600, classes: 12, ..AppSpec::small("serve-warm", seed) }
}

/// The cold/warm pairs timed, one per seed of [`warm_spec`]: one reply
/// read 10.5–18 ms over back-to-back runs, so the report takes medians.
const WARM_PAIRS: u64 = 5;

fn cold_spec(ordinal: usize) -> AppSpec {
    AppSpec {
        methods: 24,
        ..AppSpec::small(&format!("serve-cold-{ordinal}"), 5000 + ordinal as u64)
    }
}

/// One client thread's share of the mixed stream.
#[derive(Default)]
struct Stream {
    latencies: Vec<u64>,
    errors: usize,
    /// Warm requests answered, with their methods and cached methods.
    warm_sent: usize,
    warm_methods: u64,
    warm_cached: u64,
    /// Its edit of the warm app, with the reply's ELF.
    edit: Option<(DexFile, Result<Vec<u8>, ClientError>)>,
}

/// Runs the load scenario: dedicated cold/warm pairs (the headline
/// shared-cache speedup), then the mixed stream, then the overload
/// probe. Panics on setup failures; per-request failures are counted,
/// not fatal.
#[must_use]
pub fn serve_load(config: &ServeLoadConfig) -> ServeReport {
    let (local, endpoint) = daemon_or(
        config.endpoint.as_ref(),
        "loadgen",
        ServerConfig {
            workers: config.workers,
            queue_depth: config.queue_depth,
            ..ServerConfig::default()
        },
    );

    let options = BuildOptions::cto_ltbo();
    // Headline pairs, one per seed of the warm app: client A pays the
    // cold build, client B sends the identical request and must be
    // served warm and byte-identical. The report takes each side's
    // median. The mixed stream below sends the last pair's app, so it is
    // the program the daemon held most recently.
    let pair_apps: Vec<_> = (1..=WARM_PAIRS).rev().map(|seed| generate(&warm_spec(seed))).collect();
    let warm_app = pair_apps.last().expect("at least one pair");
    let mut client_a = endpoint.client().expect("connect to the daemon");
    let mut client_b = endpoint.client().expect("connect to the daemon");
    let (mut colds, mut warms, mut identical) = (Vec::new(), Vec::new(), true);
    for app in &pair_apps {
        let t = Instant::now();
        let cold_reply = client_a.build(&app.dex, &options, None).expect("cold build");
        colds.push(micros(t.elapsed()));
        let t = Instant::now();
        let warm_reply = client_b.build(&app.dex, &options, None).expect("warm build");
        warms.push(micros(t.elapsed()));
        identical &= cold_reply.elf == warm_reply.elf;
    }
    let (cold_us, warm_us) = (quantile(&colds, 0.5), quantile(&warms, 0.5));
    #[allow(clippy::cast_precision_loss)]
    let warm_speedup = cold_us as f64 / (warm_us.max(1)) as f64;

    // Mixed stream: each client alternates the shared warm app (now
    // cached) with a unique cold app, so roughly half the stream
    // exercises the shared store and half the compile path. Once its
    // third warm build has named the warm app by reference, a client
    // sends one edit of it — one method changed — which goes by edit.
    let per_client = (config.requests / config.clients.max(1)).max(1);
    let cold_ordinal = AtomicUsize::new(0);
    let stream_start = Instant::now();
    let streams: Vec<Stream> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|c| {
                let endpoint = endpoint.clone();
                let options = &options;
                let warm_dex = &warm_app.dex;
                let cold_ordinal = &cold_ordinal;
                scope.spawn(move || {
                    let mut client = endpoint.client().expect("connect to the daemon");
                    let mut s = Stream::default();
                    for i in 0..per_client {
                        let cold;
                        let (dex, is_warm) = if i % 2 == 0 {
                            (warm_dex, true)
                        } else {
                            let n = cold_ordinal.fetch_add(1, Ordering::Relaxed);
                            cold = generate(&cold_spec(n));
                            (&cold.dex, false)
                        };
                        let t = Instant::now();
                        match client.build(dex, options, None) {
                            Ok(reply) => {
                                s.latencies.push(micros(t.elapsed()));
                                if is_warm {
                                    s.warm_sent += 1;
                                    s.warm_methods += reply.methods;
                                    s.warm_cached += reply.methods_from_cache;
                                }
                            }
                            Err(_) => s.errors += 1,
                        }
                        if is_warm && s.warm_sent == 3 && s.edit.is_none() {
                            let mut edited = warm_dex.clone();
                            mutate_methods(&mut edited, c as u64, 0.0);
                            let reply = client.build(&edited, options, None);
                            s.edit = Some((edited, reply.map(|reply| reply.elf)));
                        }
                    }
                    s
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = stream_start.elapsed();

    let latencies: Vec<u64> = streams.iter().flat_map(|s| s.latencies.iter().copied()).collect();
    let warm_methods: u64 = streams.iter().map(|s| s.warm_methods).sum();
    let warm_cached: u64 = streams.iter().map(|s| s.warm_cached).sum();
    let edits: Vec<_> = streams.iter().filter_map(|s| s.edit.as_ref()).collect();
    // Each edit against a whole send of the same edited program: the
    // first send of it on a fresh connection.
    let edit_identical = edits.iter().all(|(edited, reply)| {
        let mut fresh = endpoint.client().expect("connect to the daemon");
        let whole = fresh.build(edited, &options, None).map(|reply| reply.elf);
        matches!((reply, whole), (Ok(edit), Ok(whole)) if *edit == whole)
    });
    let completed = latencies.len();
    #[allow(clippy::cast_precision_loss)]
    let throughput_rps = completed as f64 / wall.as_secs_f64().max(1e-9);
    #[allow(clippy::cast_precision_loss)]
    let warm_hit_rate =
        if warm_methods == 0 { 0.0 } else { warm_cached as f64 / warm_methods as f64 };

    // Overload probe: one pipelining connection sends enough
    // fresh-cold requests to pin every worker and overfill the queue;
    // the overflow must come back as typed `Overloaded` rejections.
    let (mut probe_sent, mut probe_rejected) = (0usize, 0usize);
    if config.probe_overload {
        let mut probe = endpoint.client().expect("connect to the daemon");
        let snapshot = probe.server_stats().expect("server stats");
        let app = |name: String, seed: usize, methods| {
            generate(&AppSpec { methods, ..AppSpec::small(&name, seed as u64) })
        };
        let slow =
            (0..snapshot.workers as usize).map(|i| app(format!("probe-slow-{i}"), 9000 + i, 400));
        let fill = (0..snapshot.queue_capacity as usize + 4)
            .map(|i| app(format!("probe-fill-{i}"), 9500 + i, 4));
        let apps: Vec<_> = slow.chain(fill).collect();
        let results = probe
            .build_pipelined(&mut apps.iter().map(|app| (&app.dex, &options)))
            .expect("probe exchange");
        probe_sent = results.len();
        probe_rejected =
            results.iter().filter(|r| matches!(r, Err(ServeError::Overloaded { .. }))).count();
    }

    let server_stats =
        endpoint.client().expect("connect to the daemon").server_stats().expect("server stats");
    let report = ServeReport {
        clients: config.clients.max(1),
        requests: per_client * config.clients.max(1),
        completed,
        errors: streams.iter().map(|s| s.errors).sum(),
        warm_requests: streams.iter().map(|s| s.warm_sent).sum(),
        warm_hit_rate,
        wall_us: micros(wall),
        throughput_rps,
        p50_us: quantile(&latencies, 0.50),
        p95_us: quantile(&latencies, 0.95),
        p99_us: quantile(&latencies, 0.99),
        cold_us,
        warm_us,
        warm_speedup,
        identical,
        edits: edits.len(),
        edit_identical,
        probe_sent,
        probe_rejected,
        server: server_stats,
    };

    if let Some(daemon) = local {
        daemon.shutdown();
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{assert_each_break_fails_alone, top_level_number, Break};

    fn passing(warm_us: u64) -> ServeReport {
        ServeReport {
            requests: 20,
            completed: 20,
            warm_hit_rate: 1.0,
            identical: true,
            edit_identical: true,
            cold_us: 4 * warm_us,
            warm_us,
            probe_sent: 1,
            probe_rejected: 1,
            server: ServerStats {
                programs_by_reference: 1,
                builds_replayed: 1,
                programs_by_edit: 1,
                ..ServerStats::default()
            },
            ..ServeReport::default()
        }
    }

    #[test]
    fn the_serve_gate_names_each_broken_check_of_each_run() {
        let runs = vec![passing(10); 3];
        let breaks: [Break<Vec<ServeReport>>; 11] = [
            (|r| r[1].errors = 1, "run 2: loadgen saw 1 errors"),
            (|r| r[1].completed = 19, "run 2: only 19 requests completed"),
            (|r| r[1].warm_hit_rate = 0.5, "run 2: warm-half hit rate 0.5"),
            (|r| r[1].identical = false, "run 2: warm reply not byte-identical"),
            (|r| r[1].server.programs_by_reference = 0, "run 2: no build went by reference"),
            (|r| r[1].server.builds_replayed = 0, "run 2: no build was replayed"),
            (|r| r[1].server.programs_by_edit = 0, "run 2: no build went by edit"),
            (|r| r[1].edit_identical = false, "run 2: an edit reply differs from its whole send"),
            (|r| r[1].cold_us = r[1].warm_us, "run 2: warm reply 10us no faster than cold 10us"),
            (|r| r[1].probe_rejected = 0, "run 2: queue saturation produced no Overloaded"),
            (|r| r[1].server.build_errors = 1, "run 2: the daemon counted 1 build errors"),
        ];
        assert_each_break_fails_alone(&runs, |runs| serve_gate(runs, None), &breaks);
        // A run without the probe (`--no-probe`) owes no `Overloaded`.
        let mut no_probe = runs.clone();
        (no_probe[1].probe_sent, no_probe[1].probe_rejected) = (0, 0);
        assert_eq!(serve_gate(&no_probe, None), Ok(()));
    }

    #[test]
    fn the_serve_ratchet_reads_the_median_the_writer_wrote() {
        let committed = [passing(13_478), passing(9_000), passing(20_000)];
        let json = serve_record(&committed).to_json();
        let baseline = top_level_number(&json, "warm_us");
        assert_eq!(baseline, Some(13_478.0));
        assert_eq!(top_level_number(&json, "runs"), Some(3.0));
        // 13 478 / 0.75 = 17 970.7: the median may reach 17 970, not 17 971.
        let fresh = |median| [passing(1), passing(median), passing(u64::MAX / 8)];
        assert_eq!(serve_gate(&fresh(17_970), baseline), Ok(()));
        assert_eq!(
            serve_gate(&fresh(17_971), baseline),
            Err(vec!["median warm reply: 17971us, over the committed 13478us / 0.75".to_owned()])
        );
        assert_eq!(serve_gate(&fresh(17_971), None), Ok(()), "no committed record, no ratchet");
    }
}
