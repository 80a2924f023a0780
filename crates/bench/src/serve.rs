//! The `calibrod` load generator: N client threads firing a mixed
//! cold/warm request stream at a daemon (an in-process one by default,
//! or an externally spawned `calibrod` via `--socket`/`--addr`),
//! measuring throughput, client-observed latency quantiles, cache hit
//! rates on the warm half, one edit of the warm app per connection (sent
//! by edit, checked against a whole send), and the daemon's admission
//! behavior under a deliberate overload burst. Results land in
//! `BENCH_serve.json`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use calibro::BuildOptions;
use calibro_dex::DexFile;
use calibro_server::{ClientError, Daemon, Endpoint, ServeError, ServerConfig};
use calibro_workloads::{generate, mutate_methods, AppSpec};

use crate::local_listener;

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
            workers: 4,
            queue_depth: 64,
            endpoint: None,
            probe_overload: true,
        }
    }
}

/// What the load generator measured.
#[derive(Clone, Debug)]
pub struct ServeReport {
    /// Client threads used.
    pub clients: usize,
    /// Mixed-stream requests that completed successfully.
    pub completed: usize,
    /// Mixed-stream requests that failed (transport or typed error).
    pub errors: usize,
    /// Requests in the warm half of the stream.
    pub warm_requests: usize,
    /// Fraction of warm-half methods served from the shared cache.
    pub warm_hit_rate: f64,
    /// Wall time of the mixed stream.
    pub wall: Duration,
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
    /// The daemon's own stats snapshot after the run, as JSON.
    pub server_json: String,
}

impl ServeReport {
    /// Serializes the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"clients":{},"completed":{},"errors":{},"warm_requests":{},"#,
                r#""warm_hit_rate":{:.6},"wall_us":{},"throughput_rps":{:.3},"#,
                r#""p50_us":{},"p95_us":{},"p99_us":{},"#,
                r#""cold_us":{},"warm_us":{},"warm_speedup":{:.3},"identical":{},"#,
                r#""edits":{},"edit_identical":{},"#,
                r#""probe_sent":{},"probe_rejected":{},"server":{}}}"#
            ),
            self.clients,
            self.completed,
            self.errors,
            self.warm_requests,
            self.warm_hit_rate,
            self.wall.as_micros(),
            self.throughput_rps,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.cold_us,
            self.warm_us,
            self.warm_speedup,
            self.identical,
            self.edits,
            self.edit_identical,
            self.probe_sent,
            self.probe_rejected,
            self.server_json
        )
    }
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

/// One client thread's share of the mixed stream: its latencies, its
/// errors, its warm requests with their methods and cached methods, and
/// its edit of the warm app with the reply's ELF.
type StreamOutcome =
    (Vec<u64>, usize, usize, u64, u64, Option<(DexFile, Result<Vec<u8>, ClientError>)>);

fn sorted_quantile(latencies: &[u64], p: f64) -> u64 {
    if latencies.is_empty() {
        return 0;
    }
    #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((latencies.len() as f64) * p).ceil().max(1.0) as usize;
    latencies[rank.min(latencies.len()) - 1]
}

/// Runs the load scenario: dedicated cold/warm pairs (the headline
/// shared-cache speedup), then the mixed stream, then the overload
/// probe. Panics on setup failures; per-request failures are counted,
/// not fatal.
#[must_use]
pub fn serve_load(config: &ServeLoadConfig) -> ServeReport {
    // An in-process daemon unless an external endpoint was given.
    let mut local = None;
    let endpoint = match &config.endpoint {
        Some(e) => e.clone(),
        None => {
            let (listener, endpoint) = local_listener("loadgen");
            let daemon = Daemon::start(
                listener,
                ServerConfig {
                    workers: config.workers,
                    queue_depth: config.queue_depth,
                    ..ServerConfig::default()
                },
            )
            .expect("start in-process daemon");
            local = Some(daemon);
            endpoint
        }
    };

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
        colds.push(t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        let t = Instant::now();
        let warm_reply = client_b.build(&app.dex, &options, None).expect("warm build");
        warms.push(t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64);
        identical &= cold_reply.elf == warm_reply.elf;
    }
    colds.sort_unstable();
    warms.sort_unstable();
    let (cold_us, warm_us) = (sorted_quantile(&colds, 0.5), sorted_quantile(&warms, 0.5));
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
    let outcomes: Vec<StreamOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|c| {
                let endpoint = endpoint.clone();
                let options = &options;
                let warm_dex = &warm_app.dex;
                let cold_ordinal = &cold_ordinal;
                scope.spawn(move || {
                    let mut client = endpoint.client().expect("connect to the daemon");
                    let mut latencies = Vec::with_capacity(per_client);
                    let (mut errors, mut warm_sent) = (0usize, 0usize);
                    let (mut warm_methods, mut warm_cached) = (0u64, 0u64);
                    let mut edit = None;
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
                                let us = t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
                                latencies.push(us);
                                if is_warm {
                                    warm_sent += 1;
                                    warm_methods += reply.methods;
                                    warm_cached += reply.methods_from_cache;
                                }
                            }
                            Err(_) => errors += 1,
                        }
                        if is_warm && warm_sent == 3 && edit.is_none() {
                            let mut edited = warm_dex.clone();
                            mutate_methods(&mut edited, c as u64, 0.0);
                            let reply = client.build(&edited, options, None);
                            edit = Some((edited, reply.map(|reply| reply.elf)));
                        }
                    }
                    (latencies, errors, warm_sent, warm_methods, warm_cached, edit)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = stream_start.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let (mut errors, mut warm_requests) = (0usize, 0usize);
    let (mut warm_methods, mut warm_cached) = (0u64, 0u64);
    let mut edits = Vec::new();
    for (lat, err, warm_sent, methods, cached, edit) in outcomes {
        latencies.extend(lat);
        errors += err;
        warm_requests += warm_sent;
        warm_methods += methods;
        warm_cached += cached;
        edits.extend(edit);
    }
    // Each edit against a whole send of the same edited program: the
    // first send of it on a fresh connection.
    let edit_identical = edits.iter().all(|(edited, reply)| {
        let mut fresh = endpoint.client().expect("connect to the daemon");
        let whole = fresh.build(edited, &options, None).map(|reply| reply.elf);
        matches!((reply, whole), (Ok(edit), Ok(whole)) if *edit == whole)
    });
    latencies.sort_unstable();
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
        let slow: Vec<_> = (0..snapshot.workers as usize)
            .map(|i| {
                generate(&AppSpec {
                    methods: 400,
                    ..AppSpec::small(&format!("probe-slow-{i}"), 9000 + i as u64)
                })
            })
            .collect();
        let fill: Vec<_> = (0..snapshot.queue_capacity as usize + 4)
            .map(|i| {
                generate(&AppSpec {
                    methods: 4,
                    ..AppSpec::small(&format!("probe-fill-{i}"), 9500 + i as u64)
                })
            })
            .collect();
        let results = probe
            .build_pipelined(&mut slow.iter().chain(fill.iter()).map(|app| (&app.dex, &options)))
            .expect("probe exchange");
        probe_sent = results.len();
        probe_rejected =
            results.iter().filter(|r| matches!(r, Err(ServeError::Overloaded { .. }))).count();
    }

    let server_stats =
        endpoint.client().expect("connect to the daemon").server_stats().expect("server stats");
    let report = ServeReport {
        clients: config.clients.max(1),
        completed,
        errors,
        warm_requests,
        warm_hit_rate,
        wall,
        throughput_rps,
        p50_us: sorted_quantile(&latencies, 0.50),
        p95_us: sorted_quantile(&latencies, 0.95),
        p99_us: sorted_quantile(&latencies, 0.99),
        cold_us,
        warm_us,
        warm_speedup,
        identical,
        edits: edits.len(),
        edit_identical,
        probe_sent,
        probe_rejected,
        server_json: server_stats.to_json(),
    };

    if let Some(daemon) = local {
        daemon.shutdown();
    }
    report
}

/// Sends one deliberately slow build and returns once its reply
/// arrives — the in-flight half of the CI graceful-drain check (the
/// harness SIGTERMs the daemon while this request is running; drain
/// semantics require the reply to still be delivered).
pub fn serve_one_slow(endpoint: &Endpoint) {
    let app = generate(&AppSpec { methods: 1600, classes: 24, ..AppSpec::small("drain-slow", 77) });
    let mut client = endpoint.client().expect("connect to the daemon");
    let reply = client.build(&app.dex, &BuildOptions::cto_ltbo(), None).expect("in-flight build");
    assert!(!reply.elf.is_empty());
}
