//! The fleet topology arm of the load generator: two (or more)
//! `calibrod` shards wired as peers, measuring what the fleet layer is
//! for — a cold shard serving a sibling's program from the sibling's
//! warm lane instead of recompiling it. Results land in
//! `BENCH_fleet.json`.
//!
//! Three phases, repeated over `MEASURE_ROUNDS` distinct program
//! pairs with the headline times taken as medians (one sample of each
//! arm is too noisy to gate a CI ratio on):
//!
//! 1. **Warm A** — build program P on shard A (the true cold cost).
//! 2. **True cold on B** — build a distinct program Q, same shape as P,
//!    on shard B: what B pays when no sibling can help.
//! 3. **Peer-served on B** — build P on shard B: every method misses
//!    B's local tiers and is fetched from A over `PeerGet`. The
//!    headline ratio is the median of the per-round
//!    `true_cold / peer` ratios — the two phases of a round run back
//!    to back, so a machine-load swing hits both and cancels, where a
//!    ratio of cross-round medians would compare a slow round's cold
//!    against a fast round's peer wall. CI gates the peer wall itself
//!    (under true cold, and against the committed record) rather than
//!    the ratio, whose numerator is a compile, with byte-identity
//!    against A's artifact in every round.

use std::time::{Duration, Instant};

use calibro::BuildOptions;
use calibro_server::{
    Client, Daemon, FleetRouter, Listener, ServerConfig, ShardEndpoint, ShardSpec,
};
use calibro_workloads::{generate, AppSpec};

/// Fleet loadgen configuration.
#[derive(Clone, Debug)]
pub struct FleetLoadConfig {
    /// Worker threads per in-process shard.
    pub workers: usize,
    /// External shards to target (`--shard ID=unix:PATH|tcp:ADDR`);
    /// empty starts a two-shard in-process fleet.
    pub shards: Vec<ShardSpec>,
    /// Methods in the benchmark programs (P and Q are the same shape).
    pub methods: usize,
    /// Extra routed programs built through [`FleetRouter`] after the
    /// headline phases, exercising client-side key routing.
    pub routed_programs: usize,
}

impl Default for FleetLoadConfig {
    fn default() -> FleetLoadConfig {
        // 900 methods: the peer-served wall has a fixed floor (link,
        // OAT emit, reply transfer) that the fetch cannot elide, so the
        // peer wall needs enough compile work per program to sit clearly
        // under true-cold on noisy runners.
        FleetLoadConfig { workers: 4, shards: Vec::new(), methods: 900, routed_programs: 6 }
    }
}

/// What the fleet loadgen measured.
#[derive(Clone, Debug)]
pub struct FleetReport {
    /// Shards in the fleet.
    pub shards: usize,
    /// Requests that failed anywhere in the run.
    pub errors: usize,
    /// Median wall time of P's cold build on shard A (µs).
    pub warm_a_us: u64,
    /// Median wall time of Q's true-cold build on shard B (µs).
    pub true_cold_us: u64,
    /// Median wall time of P's peer-served build on shard B (µs).
    pub peer_us: u64,
    /// Median of the per-round `true_cold / peer` wall ratios — the
    /// headline fleet win, robust against cross-round machine drift.
    pub peer_speedup: f64,
    /// Whether B's peer-served artifact matched A's byte for byte in
    /// every measurement round.
    pub identical: bool,
    /// Fraction of B's peer-tier consultations during the peer-served
    /// build that came back hits (method + group lanes).
    pub peer_hit_rate: f64,
    /// Peer fetches B answered with a hit during the peer-served build.
    pub peer_hits: u64,
    /// Peer fetches that came back not-found.
    pub peer_misses: u64,
    /// Peer fetches that failed with a typed error.
    pub peer_errors: u64,
    /// `PeerGet` requests shard A served.
    pub peer_gets_served: u64,
    /// Programs routed through [`FleetRouter`] (0 with external shards
    /// when routing is skipped).
    pub routed_programs: usize,
    /// Routed repeat builds that landed fully warm on their home shard.
    pub routed_warm: usize,
    /// Shard A's final stats snapshot, as JSON.
    pub shard_a_json: String,
    /// Shard B's final stats snapshot, as JSON.
    pub shard_b_json: String,
}

impl FleetReport {
    /// Serializes the report as one JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                r#"{{"shards":{},"errors":{},"warm_a_us":{},"true_cold_us":{},"#,
                r#""peer_us":{},"peer_speedup":{:.3},"identical":{},"#,
                r#""peer_hit_rate":{:.6},"peer_hits":{},"peer_misses":{},"peer_errors":{},"#,
                r#""peer_gets_served":{},"routed_programs":{},"routed_warm":{},"#,
                r#""shard_a":{},"shard_b":{}}}"#
            ),
            self.shards,
            self.errors,
            self.warm_a_us,
            self.true_cold_us,
            self.peer_us,
            self.peer_speedup,
            self.identical,
            self.peer_hit_rate,
            self.peer_hits,
            self.peer_misses,
            self.peer_errors,
            self.peer_gets_served,
            self.routed_programs,
            self.routed_warm,
            self.shard_a_json,
            self.shard_b_json,
        )
    }
}

/// Distinct program pairs measured; headline times are medians and the
/// speedup is the median of per-round ratios.
const MEASURE_ROUNDS: usize = 5;

fn elapsed_us(t: Instant) -> u64 {
    t.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

fn median_us(samples: &mut [u64]) -> u64 {
    samples.sort_unstable();
    if samples.is_empty() {
        0
    } else {
        samples[samples.len() / 2]
    }
}

fn connect(spec: &ShardSpec) -> Result<Client, calibro_server::ClientError> {
    spec.endpoint.client()
}

/// Runs the fleet scenario. With no external `--shard`s, starts a
/// two-shard in-process fleet peered at each other. Panics on setup
/// failures; per-request failures are counted.
///
/// # Panics
///
/// On setup failures (bind, daemon start, first connect).
#[must_use]
pub fn fleet_load(config: &FleetLoadConfig) -> FleetReport {
    let mut local: Vec<Daemon> = Vec::new();
    let shards: Vec<ShardSpec> = if config.shards.is_empty() {
        #[cfg(unix)]
        let endpoints: Vec<ShardEndpoint> = (0..2)
            .map(|i| {
                let socket = std::env::temp_dir()
                    .join(format!("calibrod-fleetgen-{}-{i}.sock", std::process::id()));
                let _ = std::fs::remove_file(&socket);
                ShardEndpoint::Unix(socket)
            })
            .collect();
        #[cfg(not(unix))]
        let endpoints: Vec<ShardEndpoint> = Vec::new();
        let specs: Vec<ShardSpec> = endpoints
            .iter()
            .enumerate()
            .map(|(i, e)| ShardSpec { id: i as u32, endpoint: e.clone() })
            .collect();
        for spec in &specs {
            let listener = match &spec.endpoint {
                #[cfg(unix)]
                ShardEndpoint::Unix(path) => Listener::unix(path).expect("bind shard socket"),
                ShardEndpoint::Tcp(addr) => Listener::tcp(addr).expect("bind shard tcp"),
            };
            let daemon = Daemon::start(
                listener,
                ServerConfig {
                    workers: config.workers,
                    shard_id: spec.id,
                    peers: specs.clone(),
                    ..ServerConfig::default()
                },
            )
            .expect("start shard");
            local.push(daemon);
        }
        specs
    } else {
        config.shards.clone()
    };
    assert!(shards.len() >= 2, "a fleet needs at least two shards");
    let shard_a = &shards[0];
    let shard_b = &shards[1];

    let options = BuildOptions::cto_ltbo();
    let mut errors = 0usize;
    let mut client_a = connect(shard_a).expect("connect shard A");
    let mut client_b = connect(shard_b).expect("connect shard B");

    let mut warm_a_samples = Vec::with_capacity(MEASURE_ROUNDS);
    let mut true_cold_samples = Vec::with_capacity(MEASURE_ROUNDS);
    let mut peer_samples = Vec::with_capacity(MEASURE_ROUNDS);
    let mut peer_hits = 0u64;
    let mut peer_misses = 0u64;
    let mut peer_errors = 0u64;
    let mut identical = true;
    for round in 0..MEASURE_ROUNDS {
        let program_p = generate(&AppSpec {
            methods: config.methods,
            classes: 12,
            ..AppSpec::small(&format!("fleet-p-{round}"), 1 + round as u64 * 2)
        });
        let program_q = generate(&AppSpec {
            methods: config.methods,
            classes: 12,
            ..AppSpec::small(&format!("fleet-q-{round}"), 2 + round as u64 * 2)
        });

        // Phase 1: warm shard A with P.
        let t = Instant::now();
        let reply_a = client_a.build(&program_p.dex, &options, None);
        warm_a_samples.push(elapsed_us(t));
        if reply_a.is_err() {
            errors += 1;
        }

        // Phase 2: true cold on shard B — a program no shard has seen.
        let t = Instant::now();
        let reply_q = client_b.build(&program_q.dex, &options, None);
        true_cold_samples.push(elapsed_us(t));
        if reply_q.is_err() {
            errors += 1;
        }

        // Phase 3: P on shard B, stats-delta window around the build
        // so the peer hit rate reflects exactly these requests.
        let before = client_b.server_stats().expect("stats before peer-served build");
        let t = Instant::now();
        let reply_b = client_b.build(&program_p.dex, &options, None);
        peer_samples.push(elapsed_us(t));
        if reply_b.is_err() {
            errors += 1;
        }
        let after = client_b.server_stats().expect("stats after peer-served build");

        peer_hits += (after.cache.peer_hits + after.cache.group_peer_hits)
            - (before.cache.peer_hits + before.cache.group_peer_hits);
        peer_misses += (after.cache.peer_misses + after.cache.group_peer_misses)
            - (before.cache.peer_misses + before.cache.group_peer_misses);
        peer_errors += (after.cache.peer_errors + after.cache.group_peer_errors)
            - (before.cache.peer_errors + before.cache.group_peer_errors);
        identical &= match (&reply_a, &reply_b) {
            (Ok(a), Ok(b)) => a.elf == b.elf,
            _ => false,
        };
    }

    let warm_a_us = median_us(&mut warm_a_samples.clone());
    let true_cold_us = median_us(&mut true_cold_samples.clone());
    let peer_us = median_us(&mut peer_samples.clone());
    let consulted = peer_hits + peer_misses + peer_errors;
    #[allow(clippy::cast_precision_loss)]
    let peer_hit_rate = if consulted == 0 { 0.0 } else { peer_hits as f64 / consulted as f64 };
    // Each round's cold and peer-served phases run back to back, so a
    // per-round ratio is immune to machine-load drift across rounds;
    // the median of those ratios is the gated number.
    #[allow(clippy::cast_precision_loss)]
    let mut ratios: Vec<f64> = true_cold_samples
        .iter()
        .zip(&peer_samples)
        .map(|(&cold, &peer)| cold as f64 / peer.max(1) as f64)
        .collect();
    ratios.sort_unstable_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    #[allow(clippy::cast_precision_loss)]
    let peer_speedup = if ratios.is_empty() { 0.0 } else { ratios[ratios.len() / 2] };

    // Routed phase: distinct programs through the client-side router —
    // first build lands on the owner, the repeat must be fully warm
    // there (proving routing is stable and cache-aligned).
    let router = FleetRouter::new(shards.clone());
    let mut routed_warm = 0usize;
    let routed_programs = config.routed_programs;
    for i in 0..routed_programs {
        let app = generate(&AppSpec {
            methods: 24,
            ..AppSpec::small(&format!("fleet-routed-{i}"), 7000 + i as u64)
        });
        match router.build(&app.dex, &options, None) {
            Ok((first_shard, _)) => {
                match router.build(&app.dex, &options, Some(Duration::from_secs(120))) {
                    Ok((second_shard, reply)) => {
                        if second_shard == first_shard && reply.methods_from_cache == reply.methods
                        {
                            routed_warm += 1;
                        }
                    }
                    Err(_) => errors += 1,
                }
            }
            Err(_) => errors += 1,
        }
    }

    let stats_a =
        connect(shard_a).expect("connect shard A for stats").server_stats().expect("shard A stats");
    let stats_b =
        connect(shard_b).expect("connect shard B for stats").server_stats().expect("shard B stats");

    let report = FleetReport {
        shards: shards.len(),
        errors,
        warm_a_us,
        true_cold_us,
        peer_us,
        peer_speedup,
        identical,
        peer_hit_rate,
        peer_hits,
        peer_misses,
        peer_errors,
        peer_gets_served: stats_a.peer_gets_served,
        routed_programs,
        routed_warm,
        shard_a_json: stats_a.to_json(),
        shard_b_json: stats_b.to_json(),
    };

    for daemon in local {
        daemon.shutdown();
    }
    report
}
