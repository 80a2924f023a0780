//! Fleet-grade tests: two-daemon shared correctness over `PeerGet`,
//! and fault injection against every way a peer can die mid-fetch.
//!
//! The invariant under test: a peer failure costs time, never
//! correctness. Every fault mode must degrade to a local compile with
//! a typed, counted error — no panic, no wrong-bytes artifact.

#![cfg(unix)]

use std::io::Write;
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use calibro::{BuildOptions, CacheKey};
use calibro_cache::{ArtifactStore, CacheConfig, FORMAT_VERSION};
use calibro_server::proto::{
    read_frame, write_frame, ErrorReply, FrameEvent, PeerGet, RESP_ERROR, RESP_PEER_ARTIFACT,
};
use calibro_server::{
    Client, Daemon, FleetPeerSource, Listener, ServeError, ServerConfig, ShardEndpoint, ShardSpec,
};
use calibro_workloads::{generate, AppSpec};

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn temp_socket(tag: &str) -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("calibrod-fleet-{tag}-{}-{n}.sock", std::process::id()))
}

// ---------------------------------------------------------------------------
// Fault injection: a fake peer that dies in every known way
// ---------------------------------------------------------------------------

/// Every way a sibling shard can fail a `PeerGet` exchange.
#[derive(Clone, Copy, Debug)]
enum Fault {
    /// Accepts, reads the request, closes without replying.
    Hangup,
    /// Replies with a well-framed message of an unknown kind.
    UnknownKind,
    /// Replies `RESP_PEER_ARTIFACT` whose body does not decode.
    GarbageBody,
    /// Promises a large frame, delivers a fragment, disconnects.
    Truncated,
    /// Delivers a structurally valid artifact whose checksum is wrong.
    BadChecksum,
    /// Replies with a typed server error.
    RemoteError,
}

/// One-shot fake peer: accepts a single connection, serves one
/// request according to `fault`, and exits.
fn spawn_fake_peer(fault: Fault) -> (PathBuf, std::thread::JoinHandle<()>) {
    let socket = temp_socket("fault");
    let listener = UnixListener::bind(&socket).expect("bind fake peer");
    let handle = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        let request = match read_frame(&mut stream, 64 << 20).expect("read request") {
            FrameEvent::Frame { body, .. } => PeerGet::decode(&body).expect("decode PeerGet"),
            other => panic!("fake peer expected a request frame, got {other:?}"),
        };
        match fault {
            Fault::Hangup => {} // drop the stream: EOF before any reply
            Fault::UnknownKind => {
                write_frame(&mut stream, 0x77, b"never heard of it").expect("write");
            }
            Fault::GarbageBody => {
                write_frame(&mut stream, RESP_PEER_ARTIFACT, &[0xde, 0xad]).expect("write");
            }
            Fault::Truncated => {
                // A frame header promising 512 bytes, then a fragment.
                stream.write_all(&512u32.to_le_bytes()).expect("len");
                stream.write_all(&[RESP_PEER_ARTIFACT, 1, 2, 3]).expect("fragment");
                // Dropping the stream mid-frame → MidFrameDisconnect.
            }
            Fault::BadChecksum => {
                // A structurally valid disk frame for the requested key
                // — right magic, version, key, length — whose checksum
                // does not match the payload. The requester must reject
                // it at validation, not deserialize garbage.
                let payload = b"not a real cache entry";
                let mut framed = Vec::new();
                framed.extend_from_slice(b"CALC");
                framed.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
                framed.extend_from_slice(&request.key.hi.to_le_bytes());
                framed.extend_from_slice(&request.key.lo.to_le_bytes());
                framed.extend_from_slice(&(payload.len() as u64).to_le_bytes());
                framed.extend_from_slice(&0xbad0_bad0_bad0_bad0u64.to_le_bytes());
                framed.extend_from_slice(payload);
                let reply = calibro_server::proto::PeerArtifact {
                    request_id: request.request_id,
                    lane: request.lane,
                    key: request.key,
                    artifact: Some(framed),
                };
                write_frame(&mut stream, RESP_PEER_ARTIFACT, &reply.encode()).expect("write");
            }
            Fault::RemoteError => {
                let reply = ErrorReply {
                    request_id: request.request_id,
                    error: ServeError::Build { detail: "synthetic remote failure".to_owned() },
                };
                write_frame(&mut stream, RESP_ERROR, &reply.encode()).expect("write");
            }
        }
    });
    (socket, handle)
}

/// A store whose only peer is the fake. Returns the store and the
/// fake's join handle.
fn store_with_fake_peer(fault: Fault) -> (Arc<ArtifactStore>, std::thread::JoinHandle<()>) {
    let (socket, handle) = spawn_fake_peer(fault);
    let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
    let source =
        FleetPeerSource::new(vec![ShardSpec { id: 1, endpoint: ShardEndpoint::Unix(socket) }], 0);
    store.set_peer_source(Arc::new(source));
    (store, handle)
}

fn assert_degrades_to_counted_miss(fault: Fault) {
    let (store, handle) = store_with_fake_peer(fault);
    let key = CacheKey { hi: 0x5ca1_ab1e, lo: 0x7e1e_0e7e };
    let got = store.get(key).expect("peer faults must not surface as cache errors");
    assert!(got.is_none(), "{fault:?}: a failed peer fetch must read as a miss");
    let stats = store.stats();
    assert_eq!(stats.peer_errors, 1, "{fault:?}: the failure must be counted");
    assert_eq!(stats.peer_hits, 0, "{fault:?}: no phantom hit");
    assert_eq!(stats.misses, 1, "{fault:?}: the lookup still counts as a miss");
    handle.join().expect("fake peer thread");
}

#[test]
fn peer_hangup_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::Hangup);
}

#[test]
fn peer_unknown_kind_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::UnknownKind);
}

#[test]
fn peer_garbage_body_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::GarbageBody);
}

#[test]
fn peer_truncated_frame_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::Truncated);
}

#[test]
fn peer_checksum_mismatch_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::BadChecksum);
}

#[test]
fn peer_remote_error_degrades_to_counted_miss() {
    assert_degrades_to_counted_miss(Fault::RemoteError);
}

#[test]
fn unreachable_peer_degrades_to_counted_miss() {
    // No listener at all: connect is refused.
    let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
    let source = FleetPeerSource::new(
        vec![ShardSpec { id: 1, endpoint: ShardEndpoint::Unix(temp_socket("absent")) }],
        0,
    );
    store.set_peer_source(Arc::new(source));
    assert!(store.get(CacheKey { hi: 1, lo: 2 }).expect("no cache error").is_none());
    assert_eq!(store.stats().peer_errors, 1);
}

/// The end-to-end guarantee behind every fault mode: a build whose
/// every peer fetch fails still completes locally and produces the
/// byte-identical artifact — the fleet can rot entirely and the shard
/// still compiles correctly.
#[test]
fn build_with_dead_fleet_falls_back_to_local_compile() {
    let app = generate(&AppSpec::small("deadfleet", 23));
    let options = BuildOptions::cto_ltbo();
    let direct = calibro::build(&app.dex, &options).expect("direct build");

    let store = Arc::new(ArtifactStore::new(CacheConfig::default()));
    let source = FleetPeerSource::new(
        vec![ShardSpec { id: 1, endpoint: ShardEndpoint::Unix(temp_socket("dead")) }],
        0,
    );
    store.set_peer_source(Arc::new(source));
    let output = calibro::BuildSession::with_store(Arc::clone(&store))
        .build(&app.dex, &options)
        .expect("build must survive a dead fleet");
    assert_eq!(
        calibro_oat::to_elf_bytes(&output.oat),
        calibro_oat::to_elf_bytes(&direct.oat),
        "fallback compile must be byte-identical to the direct build"
    );
    let stats = store.stats();
    assert!(stats.peer_errors > 0, "the dead peer must be counted, got {stats:?}");
    assert_eq!(stats.peer_hits, 0);
}

// ---------------------------------------------------------------------------
// Two-daemon shared correctness
// ---------------------------------------------------------------------------

/// Build on shard A, then build the same program on cold shard B whose
/// only warmth is A over `PeerGet`: B's artifact must be byte-identical
/// to both A's and a direct in-process `build()`, B must have served
/// real peer hits, and A must have counted the serves.
fn cold_shard_serves_sibling_program(workers: usize) {
    let app = generate(&AppSpec::small("fleetpair", 31));
    let options = BuildOptions::cto_ltbo();
    let direct = calibro::build(&app.dex, &options).expect("direct build");
    let expected = calibro_oat::to_elf_bytes(&direct.oat);

    let socket_a = temp_socket("shard-a");
    let socket_b = temp_socket("shard-b");
    let daemon_a = Daemon::start(
        Listener::unix(&socket_a).expect("bind A"),
        ServerConfig { workers, shard_id: 0, ..ServerConfig::default() },
    )
    .expect("start A");
    let daemon_b = Daemon::start(
        Listener::unix(&socket_b).expect("bind B"),
        ServerConfig {
            workers,
            shard_id: 1,
            peers: vec![ShardSpec { id: 0, endpoint: ShardEndpoint::Unix(socket_a.clone()) }],
            ..ServerConfig::default()
        },
    )
    .expect("start B");

    let mut client_a = Client::connect_unix(&socket_a).expect("connect A");
    let reply_a = client_a.build(&app.dex, &options, None).expect("build on A");
    assert_eq!(reply_a.elf, expected, "shard A must match the direct build");

    let mut client_b = Client::connect_unix(&socket_b).expect("connect B");
    let reply_b = client_b.build(&app.dex, &options, None).expect("build on B");
    assert_eq!(
        reply_b.elf, expected,
        "peer-served shard B must be byte-identical to the direct build"
    );

    let stats_b = daemon_b.stats();
    assert!(
        stats_b.cache.peer_hits > 0,
        "shard B must have been served from A's warm lane, got {:?}",
        stats_b.cache
    );
    assert_eq!(stats_b.cache.peer_errors, 0, "no peer failures in a healthy fleet");
    assert_eq!(
        stats_b.cache.misses, stats_b.cache.peer_misses,
        "every unresolved miss must have consulted the peer tier"
    );
    let stats_a = daemon_a.stats();
    assert!(stats_a.peer_gets_served > 0, "shard A must have counted the artifacts it served to B");
    assert_eq!(stats_a.shard_id, 0);
    assert_eq!(stats_b.shard_id, 1);

    let final_b = daemon_b.shutdown();
    let final_a = daemon_a.shutdown();
    assert_eq!(final_a.build_errors, 0);
    assert_eq!(final_b.build_errors, 0);
}

#[test]
fn cold_shard_serves_sibling_program_one_worker() {
    cold_shard_serves_sibling_program(1);
}

#[test]
fn cold_shard_serves_sibling_program_eight_workers() {
    cold_shard_serves_sibling_program(8);
}

/// A shard never recurses into its own peers while serving a sibling:
/// two daemons configured as each other's peers must not ricochet a
/// missing key back and forth — B's fetch terminates at A's local
/// tiers and comes back a miss.
#[test]
fn mutual_peering_terminates_after_one_hop() {
    let socket_a = temp_socket("loop-a");
    let socket_b = temp_socket("loop-b");
    let daemon_a = Daemon::start(
        Listener::unix(&socket_a).expect("bind A"),
        ServerConfig {
            workers: 1,
            shard_id: 0,
            peers: vec![ShardSpec { id: 1, endpoint: ShardEndpoint::Unix(socket_b.clone()) }],
            ..ServerConfig::default()
        },
    )
    .expect("start A");
    let daemon_b = Daemon::start(
        Listener::unix(&socket_b).expect("bind B"),
        ServerConfig {
            workers: 1,
            shard_id: 1,
            peers: vec![ShardSpec { id: 0, endpoint: ShardEndpoint::Unix(socket_a.clone()) }],
            ..ServerConfig::default()
        },
    )
    .expect("start B");

    // A program neither shard has seen: every method key misses B,
    // peer-misses A (which must NOT ask B back), then compiles locally.
    let app = generate(&AppSpec::small("loopless", 5));
    let options = BuildOptions::cto();
    let mut client_b = Client::connect_unix(&socket_b).expect("connect B");
    let reply = client_b.build(&app.dex, &options, None).expect("build terminates");
    let direct = calibro::build(&app.dex, &options).expect("direct build");
    assert_eq!(reply.elf, calibro_oat::to_elf_bytes(&direct.oat));

    let stats_b = daemon_b.stats();
    assert_eq!(stats_b.cache.peer_hits, 0, "nothing to hit in an empty fleet");
    assert!(stats_b.cache.peer_misses > 0, "B must have consulted A, got {:?}", stats_b.cache);
    let stats_a = daemon_a.stats();
    assert_eq!(
        stats_a.cache.peer_misses + stats_a.cache.peer_hits + stats_a.cache.peer_errors,
        0,
        "A served B from local tiers only — its own peer tier must stay untouched"
    );

    daemon_b.shutdown();
    daemon_a.shutdown();
}
