//! End-to-end tests against an in-process daemon on a real Unix
//! socket: shared-cache correctness, admission control, deadlines,
//! and protocol robustness against misbehaving clients.

#![cfg(unix)]

use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use calibro::BuildOptions;
use calibro_profile::{DecayedProfile, Profile};
use calibro_server::proto::{
    read_frame, write_frame, ErrorReply, FrameEvent, REQ_BUILD, REQ_BUILD_EDIT,
    REQ_GENERATION_STATS, REQ_PING, REQ_PROFILE, REQ_STATS, RESP_BUILT, RESP_ERROR, RESP_PONG,
    RESP_STATS,
};
use calibro_server::server::HOT_FRACTION;
use calibro_server::{Client, Daemon, Listener, ServeError, ServerConfig, ServerStats};
use calibro_workloads::{generate, AppSpec};

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn temp_socket() -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("calibrod-test-{}-{n}.sock", std::process::id()))
}

fn start(config: ServerConfig) -> (Daemon, PathBuf) {
    let socket = temp_socket();
    let daemon =
        Daemon::start(Listener::unix(&socket).expect("bind"), config).expect("start daemon");
    (daemon, socket)
}

/// Two concurrent clients compiling the same program must both get the
/// byte-identical OAT that a direct in-process `build()` produces —
/// the shared store must never mix artifacts across requests.
fn shared_cache_matches_direct_build(workers: usize) {
    let app = generate(&AppSpec::small("served", 11));
    let options = BuildOptions::cto_ltbo();
    let direct = calibro::build(&app.dex, &options).expect("direct build");
    let expected = calibro_oat::to_elf_bytes(&direct.oat);

    let (daemon, socket) =
        start(ServerConfig { workers, queue_depth: 16, ..ServerConfig::default() });

    let replies: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let socket = socket.clone();
                let dex = &app.dex;
                let options = &options;
                scope.spawn(move || {
                    let mut client = Client::connect_unix(&socket).expect("connect");
                    client.build(dex, options, None).expect("served build")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });

    for reply in &replies {
        assert_eq!(
            reply.elf, expected,
            "served OAT must be byte-identical to the direct in-process build"
        );
        assert_eq!(reply.methods as usize, direct.stats.methods);
        // The transported bytes must load back into a valid OAT.
        calibro_oat::from_elf_bytes(&reply.elf).expect("reply ELF loads");
    }

    // The two concurrent duplicates may both run cold (keep-first
    // insert resolves them to identical bytes either way), but a
    // *subsequent* identical request is deterministically fully warm.
    let mut third = Client::connect_unix(&socket).expect("connect");
    let warm = third.build(&app.dex, &options, None).expect("warm build");
    assert_eq!(warm.elf, expected);
    assert_eq!(
        warm.methods_from_cache, warm.methods,
        "the request after two completed duplicates must be fully warm (got {warm:?})"
    );

    // By now the daemon holds the program decoded (every request so
    // far carried the same bytes): a build from the table's entry — plain
    // and named by its bytes, then under a tenant and, as this
    // connection's third send of it, by reference — is the same artifact.
    let before = third.server_stats().expect("stats");
    let reused = third.build(&app.dex, &options, None).expect("build of a held program");
    assert_eq!(reused.elf, expected);
    let sealed = third.build_for_tenant("t", &app.dex, &options, None).expect("tenant build");
    assert_eq!(sealed.elf, expected);
    let after = third.server_stats().expect("stats");
    assert_eq!(after.programs_reused, before.programs_reused + 1);
    assert_eq!(after.programs_by_reference, before.programs_by_reference + 1);
    assert_eq!(after.programs_decoded, before.programs_decoded);

    let stats = daemon.shutdown();
    assert_eq!(stats.requests_completed, 5);
    assert_eq!(stats.programs_decoded + stats.programs_reused + stats.programs_by_reference, 5);
    assert_eq!(stats.build_errors, 0);
    assert!(!socket.exists(), "socket file should be removed at shutdown");
}

#[test]
fn shared_cache_matches_direct_build_one_worker() {
    shared_cache_matches_direct_build(1);
}

#[test]
fn shared_cache_matches_direct_build_eight_workers() {
    shared_cache_matches_direct_build(8);
}

/// A repeat request from a second client is served warm: every method
/// comes from the shared cache and the reply is still byte-identical.
#[test]
fn second_client_is_served_fully_warm() {
    let app = generate(&AppSpec::small("warmth", 23));
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig::default());

    let mut first = Client::connect_unix(&socket).expect("connect");
    let cold = first.build(&app.dex, &options, None).expect("cold build");

    let mut second = Client::connect_unix(&socket).expect("connect");
    let warm = second.build(&app.dex, &options, None).expect("warm build");

    assert_eq!(warm.elf, cold.elf);
    assert_eq!(
        warm.methods_from_cache, warm.methods,
        "every method of the repeat request should replay from the shared store"
    );
    assert!(warm.cache_hits > 0);

    let stats = daemon.shutdown();
    assert_eq!(stats.requests_completed, 2);
    assert!(stats.cache.hits > 0);
}

/// With one worker pinned on a slow build and a queue of depth 1, the
/// overflow requests get the typed `Overloaded` rejection — and the
/// daemon stays healthy for later requests.
#[test]
fn saturated_queue_rejects_with_overloaded() {
    let slow = generate(&AppSpec { methods: 600, ..AppSpec::small("slow", 7) });
    let tiny = generate(&AppSpec { methods: 4, ..AppSpec::small("tiny", 9) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });

    // One pipelining connection: the slow request occupies the worker,
    // the first tiny one fills the queue, the rest must be rejected.
    // Errors are written by the connection thread, builds by the
    // worker, so replies are matched by request id, not order.
    let mut client = Client::connect_unix(&socket).expect("connect");
    let pipelined = 4usize;
    let results = client
        .build_pipelined(
            &mut std::iter::once((&slow.dex, &options))
                .chain(std::iter::repeat_n((&tiny.dex, &options), pipelined)),
        )
        .expect("pipelined exchange");

    assert_eq!(results.len(), pipelined + 1);
    let rejected =
        results.iter().filter(|r| matches!(r, Err(ServeError::Overloaded { capacity: 1 }))).count();
    let built = results.iter().filter(|r| r.is_ok()).count();
    assert!(
        rejected >= 1,
        "at least one overflow request must be rejected with Overloaded, got {results:?}"
    );
    assert_eq!(rejected + built, pipelined + 1, "every request gets exactly one typed outcome");

    // The daemon still serves new work after saturation.
    let mut after = Client::connect_unix(&socket).expect("connect");
    after.build(&tiny.dex, &options, None).expect("post-saturation build");

    let stats = daemon.shutdown();
    assert_eq!(stats.rejected_overloaded, rejected as u64);
    assert_eq!(stats.build_errors, 0);
}

/// A zero deadline deterministically times out (expired at dequeue)
/// with the typed error; the artifacts of a *completed-late* build
/// stay cached, so the retry without a deadline is warm.
#[test]
fn zero_deadline_times_out_with_typed_error() {
    let app = generate(&AppSpec::small("deadline", 31));
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig::default());

    let mut client = Client::connect_unix(&socket).expect("connect");
    let err = client
        .build(&app.dex, &options, Some(Duration::ZERO))
        .expect_err("zero deadline must time out");
    assert_eq!(
        err.as_server(),
        Some(&ServeError::DeadlineExceeded { deadline_ms: 0 }),
        "expected the typed deadline error, got {err}"
    );

    // The same connection keeps working.
    let ok = client.build(&app.dex, &options, None).expect("retry without deadline");
    assert!(ok.methods > 0);

    let stats = daemon.shutdown();
    assert_eq!(stats.deadline_timeouts, 1);
    assert_eq!(stats.requests_completed, 1);
}

/// The client-side fingerprint must match what the daemon recomputes
/// from the decoded payload; `stats` reflects malformed/oversized
/// traffic without the daemon breaking stride.
#[test]
fn misbehaving_clients_get_typed_errors_and_leave_daemon_serving() {
    let app = generate(&AppSpec::small("robust", 41));
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig { max_frame: 1 << 20, ..ServerConfig::default() });

    // 1. An intact frame whose body is garbage, for every request kind
    //    the daemon decodes: typed Malformed reply echoing the request
    //    id when the id's eight bytes arrived (0 otherwise), exactly one
    //    `malformed_frames` tick, and the *same connection* keeps
    //    serving (stats and ping work after).
    let decoded_kinds = [REQ_BUILD, REQ_BUILD_EDIT, REQ_PROFILE, REQ_GENERATION_STATS];
    {
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        let mut exchange = |kind: u8, body: &[u8], reply_kind: u8| -> Vec<u8> {
            write_frame(&mut raw, kind, body).expect("send");
            match read_frame(&mut raw, 1 << 20).expect("read reply") {
                FrameEvent::Frame { kind, body } if kind == reply_kind => body,
                other => panic!("expected a {reply_kind:#04x} frame, got {other:?}"),
            }
        };
        let mut malformed = 0;
        for kind in decoded_kinds {
            let id = 0xC0DE_0000 + u64::from(kind);
            let mut with_id = id.to_le_bytes().to_vec();
            with_id.extend_from_slice(b"\x99garbage-that-is-not-a-request");
            for (body, echoed_id) in [(with_id, id), (vec![1, 2, 3], 0)] {
                let reply = exchange(kind, &body, RESP_ERROR);
                let reply = ErrorReply::decode(&reply).expect("error reply decodes");
                assert_eq!(reply.request_id, echoed_id, "kind {kind:#04x}");
                assert!(
                    matches!(reply.error, ServeError::Malformed { .. }),
                    "kind {kind:#04x}: expected Malformed, got {}",
                    reply.error
                );
                malformed += 1;
                let stats = ServerStats::decode(&exchange(REQ_STATS, &[], RESP_STATS));
                assert_eq!(stats.expect("stats decode").malformed_frames, malformed);
                assert_eq!(exchange(REQ_PING, b"still-there", RESP_PONG), b"still-there");
            }
        }
        // The first kind past the defined ones, and the retired
        // `build-by-id`, `dict-stats` and `peer-get` kinds, are unknown:
        // typed, counted, and the connection serves on.
        assert_eq!(REQ_BUILD_EDIT + 1, 0x0B);
        for unknown in [0x0B, 0x09, 0x08, 0x05] {
            let reply = ErrorReply::decode(&exchange(unknown, b"?", RESP_ERROR)).expect("decodes");
            let detail = format!("unknown request kind {unknown:#04x}");
            assert_eq!((reply.request_id, reply.error), (0, ServeError::Malformed { detail }));
            malformed += 1;
            let stats = ServerStats::decode(&exchange(REQ_STATS, &[], RESP_STATS));
            assert_eq!(stats.expect("stats decode").malformed_frames, malformed);
            assert_eq!(exchange(REQ_PING, b"still-there", RESP_PONG), b"still-there");
        }
    }

    // 2. An oversized length prefix: typed FrameTooLarge reply, then
    //    the daemon closes that connection (it cannot resync).
    {
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        raw.write_all(&u32::MAX.to_le_bytes()).expect("send bogus prefix");
        match read_frame(&mut raw, 1 << 20).expect("read reply") {
            FrameEvent::Frame { kind, body } => {
                assert_eq!(kind, RESP_ERROR);
                let err = ErrorReply::decode(&body).expect("decode").error;
                assert!(
                    matches!(
                        err,
                        ServeError::FrameTooLarge { claimed, limit: 1048576 }
                            if claimed == u64::from(u32::MAX)
                    ),
                    "expected FrameTooLarge, got {err}"
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        match read_frame(&mut raw, 1 << 20).expect("read after oversized") {
            FrameEvent::Eof | FrameEvent::MidFrameDisconnect => {}
            other => panic!("daemon should close the connection, got {other:?}"),
        }
    }

    // 3. A mid-frame disconnect: prefix promises 100 bytes, client
    //    sends 3 and hangs up. Nothing to reply to — the daemon just
    //    counts it and moves on.
    {
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        raw.write_all(&100u32.to_le_bytes()).expect("send prefix");
        raw.write_all(&[1, 2, 3]).expect("send partial body");
        drop(raw);
    }

    // 4. A fingerprint that does not match the payload: typed
    //    FingerprintMismatch (codec drift must fail loudly).
    {
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        let mut request = calibro_server::BuildRequest {
            request_id: 77,
            deadline: None,
            options_fp: calibro::options_fingerprint(&options),
            ltbo_fp: calibro_server::ltbo_fingerprint(&options),
            options: options.clone(),
            dex: app.dex.clone(),
            tenant: None,
        };
        request.options_fp = calibro::CacheKey { hi: 0xABAB, lo: 0xCDCD };
        write_frame(&mut raw, REQ_BUILD, &request.encode()).expect("send");
        match read_frame(&mut raw, 1 << 20).expect("read reply") {
            FrameEvent::Frame { kind, body } => {
                assert_eq!(kind, RESP_ERROR);
                let reply = ErrorReply::decode(&body).expect("decode");
                assert_eq!(reply.request_id, 77);
                assert_eq!(reply.error, ServeError::FingerprintMismatch);
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
    }

    // Throughout all of that, a well-behaved client still gets served.
    let mut client = Client::connect_unix(&socket).expect("connect");
    let reply = client.build(&app.dex, &options, None).expect("healthy build");
    assert!(reply.methods > 0);

    // The mid-frame disconnect is asynchronous; poll stats until the
    // daemon has noticed the hangup.
    let deadline = Instant::now() + Duration::from_secs(5);
    let stats = loop {
        let stats = client.server_stats().expect("stats");
        if stats.mid_frame_disconnects >= 1 || Instant::now() > deadline {
            break stats;
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    // Two garbage bodies per decoded kind, and the four unknown kinds.
    assert_eq!(stats.malformed_frames, 2 * decoded_kinds.len() as u64 + 4);
    assert_eq!(stats.oversized_frames, 1);
    assert_eq!(stats.mid_frame_disconnects, 1);
    assert_eq!(stats.requests_completed, 1);
    assert!(calibro_server::quantile_us(&stats.latency_buckets, 0.5) > 0);

    daemon.shutdown();
}

/// A client-initiated `shutdown` request flips the daemon's
/// shutdown-requested flag (the embedding process performs the drain).
#[test]
fn client_shutdown_request_is_acknowledged() {
    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");
    assert!(!daemon.shutdown_requested());
    client.shutdown_server().expect("shutdown ack");
    assert!(daemon.shutdown_requested());
    daemon.shutdown();
}

/// The full profile-feedback loop against a live daemon: a tenant
/// build seals generation 1, profile uploads shift the decayed hot set
/// until drift crosses the threshold, the background worker recompiles
/// and flips to generation 2 — and every fetch issued while the
/// refresh was compiling is answered (from generation 1 or 2, each
/// byte-identical to that generation's first sighting).
#[test]
fn profile_feedback_refreshes_serving_generation() {
    let app = generate(&AppSpec::small("drifting", 23));
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Generation 1: first tenant build registers the program.
    let gen1 = client.build_for_tenant("app-a", &app.dex, &options, None).expect("first build");
    assert_eq!(gen1.generation, 1);
    let refetch = client.build_for_tenant("app-a", &app.dex, &options, None).expect("refetch");
    assert_eq!(refetch.generation, 1);
    assert_eq!(refetch.elf, gen1.elf, "a generation's bytes are immutable");

    let gs = client.generation_stats("app-a").expect("generation stats");
    assert!(gs.registered);
    assert_eq!(gs.serving_generation, 1);
    assert!(!gs.hot_restricted, "generation 1 carried no hot set");
    assert_eq!(gs.elf_len as usize, gen1.elf.len());

    // A garbage profile is rejected with the offending line number and
    // does not disturb the tenant.
    match client.upload_profile("app-a", "0 100\nnot numbers\n") {
        Err(calibro_server::ClientError::Server(ServeError::Malformed { detail })) => {
            assert!(detail.contains("line 2"), "want the 1-based line in {detail:?}");
        }
        other => panic!("garbage profile must be a Malformed rejection, got {other:?}"),
    }

    // Concentrate the cycle weight on a few methods: drift against the
    // unrestricted serving generation is ~the hot fraction, which is
    // over the default threshold, so this upload schedules a refresh.
    let profile_text = "0 4000000\n1 3000000\n2 2000000\n3 500000\n4 1\n";
    let reply = client.upload_profile("app-a", profile_text).expect("upload");
    assert_eq!(reply.serving_generation, 1);
    assert!(reply.uploads >= 1);
    assert!(
        reply.refresh_scheduled,
        "high drift against an unrestricted generation must schedule a refresh (got {reply:?})"
    );

    // While the refresh compiles, every fetch must be answered from a
    // sealed generation, byte-identical within each generation.
    let mut seen_gen2 = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let fetched =
            client.build_for_tenant("app-a", &app.dex, &options, None).expect("no serving gap");
        match fetched.generation {
            1 => assert_eq!(fetched.elf, gen1.elf, "generation 1 must stay byte-stable"),
            2 => {
                if seen_gen2.is_empty() {
                    seen_gen2 = fetched.elf.clone();
                }
                assert_eq!(fetched.elf, seen_gen2, "generation 2 must be byte-stable");
                break;
            }
            g => panic!("unexpected generation {g}"),
        }
        assert!(Instant::now() < deadline, "refresh never flipped to generation 2");
        std::thread::sleep(Duration::from_millis(20));
    }

    let gs = client.generation_stats("app-a").expect("generation stats");
    assert_eq!(gs.serving_generation, 2);
    assert!(gs.hot_restricted, "the refreshed generation is hot-set-restricted");
    assert!(gs.hot_set_size > 0);
    assert_eq!(gs.generations_sealed, 2);
    assert_eq!(gs.refreshes_triggered, 1);

    // Re-uploading the same distribution: the serving hot set now
    // matches the decayed one, so drift is ~zero and nothing refreshes.
    let reply = client.upload_profile("app-a", profile_text).expect("steady upload");
    assert!(!reply.refresh_scheduled, "steady-state upload must not refresh (got {reply:?})");
    assert_eq!(reply.serving_generation, 2);
    assert!(reply.drift_ppm < 250_000, "steady-state drift should be low: {reply:?}");

    let stats = daemon.shutdown();
    assert_eq!(stats.tenants, 1);
    assert!(stats.profile_uploads >= 2);
    assert_eq!(stats.generations_sealed, 2);
    assert_eq!(stats.refreshes_triggered, 1);
}

/// A held program keeps the method keys of the compile config it was
/// last built under: every answer for it — under options A, then B,
/// then A again, then as a tenant, then the tenant's refresh under a hot
/// set — is the artifact a fresh direct `build()` gives. Keys memoized
/// under the wrong fingerprint would replay one configuration's code for
/// another. The hot set is read after codegen, so the refresh compiles
/// no method: the generation-2 reply reports every method from the cache.
#[test]
fn a_held_program_answers_each_options_fingerprint_as_a_direct_build() {
    let app = generate(&AppSpec::small("keyed", 81));
    let direct = |options: &BuildOptions| {
        calibro_oat::to_elf_bytes(&calibro::build(&app.dex, options).expect("direct build").oat)
    };
    let (a, b) = (BuildOptions::cto_ltbo(), BuildOptions::baseline());
    let (expected_a, expected_b) = (direct(&a), direct(&b));
    assert_ne!(expected_a, expected_b);
    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Held from its second sighting; every build after that is reused.
    for options in [&a, &a, &b, &a] {
        let expected = if options == &a { &expected_a } else { &expected_b };
        assert_eq!(client.build(&app.dex, options, None).expect("build").elf, *expected);
    }
    let gen1 = client.build_for_tenant("keyed", &app.dex, &a, None).expect("register");
    assert_eq!((gen1.generation, &gen1.elf), (1, &expected_a));

    let profile_text = "0 4000000\n1 3000000\n2 2000000\n3 500000\n4 1\n";
    let reply = client.upload_profile("keyed", profile_text).expect("upload");
    assert!(reply.refresh_scheduled, "the upload must schedule a refresh (got {reply:?})");
    let (num, den) = DecayedProfile::DEFAULT_DECAY;
    let mut decayed = DecayedProfile::new(num, den).expect("default decay");
    decayed.record(&Profile::from_text(profile_text).expect("profile"));
    let hot = decayed.hot_set(HOT_FRACTION).expect("hot set");
    let expected_refresh = direct(&a.clone().with_hot_filter(hot));
    assert_ne!(expected_refresh, expected_a);
    let deadline = Instant::now() + Duration::from_secs(60);
    let refreshed = loop {
        let fetched = client.build_for_tenant("keyed", &app.dex, &a, None).expect("fetch");
        if fetched.generation == 2 {
            break fetched;
        }
        assert!(Instant::now() < deadline, "refresh never flipped to generation 2");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(refreshed.elf, expected_refresh);
    assert_eq!(refreshed.methods as usize, app.dex.methods().len());
    assert_eq!(refreshed.methods_from_cache, refreshed.methods, "the refresh compiled a method");

    let stats = daemon.shutdown();
    assert_eq!(stats.programs_decoded, 2, "decoded at its first two sightings only");
    assert_eq!(stats.build_errors, 0);
}

/// A held program's repeat plain build is answered from its replay slot:
/// the program's third send (its first by reference) has the direct
/// build's bytes and the sealing build's stats, reports every method
/// from the cache and no build, and is never admitted to the queue.
/// Another base address or other options are built, and that build
/// takes the slot.
#[test]
fn a_held_programs_third_send_is_replayed_and_other_options_are_built() {
    let app = generate(&AppSpec::small("replayed", 31));
    let direct = |options: &BuildOptions| {
        calibro_oat::to_elf_bytes(&calibro::build(&app.dex, options).expect("direct build").oat)
    };
    let options = BuildOptions::cto_ltbo();
    let expected = direct(&options);
    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");
    let mut counts = |expected: (u64, u64, u64)| {
        let stats = client.server_stats().expect("stats");
        let counted = (stats.requests_admitted, stats.builds_replayed, stats.requests_completed);
        assert_eq!(counted, expected, "(admitted, replayed, completed)");
    };
    // One connection for the program's sends, so the third goes by
    // reference.
    let mut sends = Client::connect_unix(&socket).expect("connect");
    let mut send = |options: &BuildOptions| sends.build(&app.dex, options, None).expect("build");
    send(&options);
    let sealing = send(&options);
    assert_eq!(sealing.elf, expected);
    counts((2, 0, 2));

    let replayed = send(&options);
    assert_eq!(replayed.elf, expected);
    assert_eq!(replayed.methods as usize, app.dex.methods().len());
    let reported = |r: &calibro_server::BuildReply| {
        (r.methods_from_cache, r.cache_hits, r.cache_misses, r.build_us, r.generation)
    };
    assert_eq!(reported(&replayed), (replayed.methods, 0, 0, 0, 0));
    assert_eq!(replayed.stats_json, sealing.stats_json);
    counts((2, 1, 3));
    // Another connection sending it whole is answered from the slot too.
    let mut other = Client::connect_unix(&socket).expect("connect");
    assert_eq!(other.build(&app.dex, &options, None).expect("whole send").elf, expected);
    counts((2, 2, 4));

    // Another base address is built, and takes the slot.
    let moved = BuildOptions { base_address: options.base_address + 0x10_0000, ..options.clone() };
    let rebased = send(&moved);
    assert_eq!(rebased.elf, direct(&moved));
    assert_ne!(rebased.elf, expected);
    counts((3, 2, 5));
    assert_eq!(send(&moved).elf, rebased.elf);
    counts((3, 3, 6));
    // The first options lost the slot: built again, and they take it back.
    assert_eq!(send(&options).elf, expected);
    counts((4, 3, 7));
    // So are other options altogether.
    let unoutlined = BuildOptions::cto();
    let expected_unoutlined = direct(&unoutlined);
    assert_eq!(send(&unoutlined).elf, expected_unoutlined);
    counts((5, 3, 8));
    assert_eq!(send(&unoutlined).elf, expected_unoutlined);
    counts((5, 4, 9));

    let stats = daemon.shutdown();
    assert_eq!((stats.programs_decoded, stats.build_errors), (2, 0));
}

/// Runs `exchange` on its own thread and fails the test if it has not
/// finished in `limit` — a hang must be a failure, not a stuck suite.
fn within<T: Send + 'static>(limit: Duration, exchange: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || done.send(exchange()));
    finished.recv_timeout(limit).expect("the exchange hung (or its thread panicked)")
}

/// Pipelined builds whose requests and replies both exceed the socket
/// buffer: workers block writing replies the client is not reading yet
/// (it is still writing requests), so the connection thread must keep
/// draining requests — it may not wait on the writer lock a blocked
/// worker holds. Before each connection got its own writer thread, a
/// batch of eight deadlocked every time. In the batch of 64 each
/// program's third and later requests name it by reference.
#[test]
fn pipelined_large_builds_complete() {
    let programs: std::sync::Arc<Vec<_>> = std::sync::Arc::new(
        (0..8)
            .map(|k| generate(&AppSpec { methods: 200, ..AppSpec::small("large", 900 + k) }).dex)
            .collect(),
    );
    let options = BuildOptions::cto_ltbo();
    // Deep enough that admission is not what this tests.
    let (daemon, socket) =
        start(ServerConfig { workers: 2, queue_depth: 128, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    let expected: Vec<Vec<u8>> = programs
        .iter()
        .map(|dex| client.build(dex, &options, None).expect("warming build").elf)
        .collect();

    for batch in [8, 64] {
        let (programs, options, socket) = (programs.clone(), options.clone(), socket.clone());
        let replies = within(Duration::from_secs(60), move || {
            let mut client = Client::connect_unix(&socket).expect("connect");
            let mut requests = (0..batch).map(|i| (&programs[i % programs.len()], &options));
            client.build_pipelined(&mut requests).expect("pipelined exchange")
        });
        assert_eq!(replies.len(), batch);
        for (i, reply) in replies.iter().enumerate() {
            let reply = reply.as_ref().unwrap_or_else(|e| panic!("request {i} of {batch}: {e}"));
            assert_eq!(reply.elf, expected[i % expected.len()], "request {i} of {batch}");
        }
    }
    let bytes: usize = expected.iter().map(Vec::len).sum();
    assert!(bytes > 512 << 10, "eight replies of {bytes} bytes fit a socket buffer");

    let stats = daemon.shutdown();
    assert_eq!(stats.requests_completed, 8 + 8 + 64);
    assert_eq!(stats.programs_by_reference, 8 * 6);
    assert_eq!(stats.rejected_overloaded, 0);
}

/// The body of a build request for `dex` under `options` (a tenant
/// fetch when `tenant` is set), with request id 0: the id is the first
/// eight bytes, which [`pipeline`] overwrites.
fn build_body(tenant: Option<&str>, dex: &calibro_dex::DexFile, options: &BuildOptions) -> Vec<u8> {
    calibro_server::BuildRequest {
        request_id: 0,
        deadline: None,
        options_fp: calibro::options_fingerprint(options),
        ltbo_fp: calibro_server::ltbo_fingerprint(options),
        tenant: tenant.map(str::to_owned),
        options: options.clone(),
        dex: dex.clone(),
    }
    .encode()
}

/// One outcome per request id, as a client that pipelines sees them.
type Outcomes = HashMap<u64, Result<calibro_server::BuildReply, ServeError>>;

/// Writes every request as a build frame on one raw connection — each
/// body with its id written over the first eight bytes — and reads
/// nothing until the last one is written; then reads until every id
/// has its outcome, failing on a second outcome for any id.
fn pipeline(stream: &mut UnixStream, requests: &[(u64, Arc<Vec<u8>>)]) -> Outcomes {
    for (id, body) in requests {
        let mut body = body.to_vec();
        body[..8].copy_from_slice(&id.to_le_bytes());
        write_frame(stream, REQ_BUILD, &body).expect("send");
    }
    let mut outcomes = HashMap::new();
    while outcomes.len() < requests.len() {
        let (id, outcome) = match read_frame(stream, 64 << 20).expect("read reply") {
            FrameEvent::Frame { kind: RESP_BUILT, body } => {
                let reply = calibro_server::BuildReply::decode(&body).expect("reply decodes");
                (reply.request_id, Ok(reply))
            }
            FrameEvent::Frame { kind: RESP_ERROR, body } => {
                let reply = ErrorReply::decode(&body).expect("error decodes");
                (reply.request_id, Err(reply.error))
            }
            other => panic!("expected a build outcome, got {other:?}"),
        };
        assert!(outcomes.insert(id, outcome).is_none(), "request {id} answered twice");
    }
    outcomes
}

/// A client that writes 64 tenant fetches of a 200-method app and then
/// a burst that overflows the admission queue, before it reads
/// anything: request and reply bodies are each bigger than the socket
/// buffer, so the daemon must keep reading while replies to this very
/// client pile up unread. Every request gets its one typed outcome.
#[test]
fn pipelined_tenant_fetches_and_an_overflowing_burst_are_all_answered() {
    let app = generate(&AppSpec { methods: 200, ..AppSpec::small("fetched", 71) });
    let slow = generate(&AppSpec { methods: 600, ..AppSpec::small("slow", 7) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    let sealed = client.build_for_tenant("app", &app.dex, &options, None).expect("register").elf;

    let fetch = Arc::new(build_body(Some("app"), &app.dex, &options));
    let build = Arc::new(build_body(None, &slow.dex, &options));
    let (fetches, burst) = (64, 16);
    let requests: Vec<_> = (0..fetches)
        .map(|id| (id, Arc::clone(&fetch)))
        .chain((fetches..fetches + burst).map(|id| (id, Arc::clone(&build))))
        .collect();
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    let outcomes = within(Duration::from_secs(60), move || pipeline(&mut raw, &requests));

    assert_eq!(outcomes.len() as u64, fetches + burst);
    for id in 0..fetches {
        let reply = outcomes[&id].as_ref().unwrap_or_else(|e| panic!("fetch {id}: {e}"));
        assert_eq!((reply.generation, &reply.elf), (1, &sealed), "fetch {id}");
    }
    let mut rejected = 0;
    for id in fetches..fetches + burst {
        match &outcomes[&id] {
            Ok(reply) => assert_eq!(reply.generation, 0),
            Err(ServeError::Overloaded { capacity: 1 }) => rejected += 1,
            Err(e) => panic!("build {id}: {e}"),
        }
    }
    assert!(rejected >= 1, "the burst must overflow the admission queue");
    let stats = daemon.shutdown();
    assert_eq!(stats.rejected_overloaded, rejected);
    assert_eq!(stats.build_errors, 0);
}

/// A client that pipelines far more fetches than it reads: once more
/// than a frame ceiling of replies is unread on its connection, each
/// further request is rejected with `Overloaded`, whose capacity is
/// that ceiling — the daemon never stops reading.
#[test]
fn unread_replies_past_the_frame_ceiling_reject_with_overloaded() {
    let app = generate(&AppSpec { methods: 200, ..AppSpec::small("backlogged", 73) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig { max_frame: 1 << 20, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    let sealed = client.build_for_tenant("app", &app.dex, &options, None).expect("register").elf;

    let fetch = Arc::new(build_body(Some("app"), &app.dex, &options));
    let requests: Vec<_> = (0..256).map(|id| (id, Arc::clone(&fetch))).collect();
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    let outcomes = within(Duration::from_secs(60), move || pipeline(&mut raw, &requests));

    assert_eq!(outcomes.len(), 256);
    let mut rejected = 0;
    for (id, outcome) in &outcomes {
        match outcome {
            Ok(reply) => assert_eq!(reply.elf, sealed, "fetch {id}"),
            Err(ServeError::Overloaded { capacity: 1_048_576 }) => rejected += 1,
            Err(e) => panic!("fetch {id}: {e}"),
        }
    }
    assert!(rejected >= 1, "a backlog past the frame ceiling must reject");
    let stats = daemon.shutdown();
    assert_eq!(stats.rejected_overloaded, rejected);
}

/// A client that streams empty pings and never reads: the replies, then
/// the rejections, pile up until twice the frame ceiling is unread, and
/// then the daemon cuts the connection — its memory for one client is
/// bounded however long the client keeps writing.
#[test]
fn a_client_that_never_reads_its_rejections_is_cut() {
    let ceiling = 1 << 16;
    let (daemon, socket) = start(ServerConfig { max_frame: ceiling, ..ServerConfig::default() });
    let mut pings = Vec::new();
    for _ in 0..4096 {
        write_frame(&mut pings, REQ_PING, &[]).expect("encode ping");
    }
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    // Writes until the daemon has shut the connection down.
    within(Duration::from_secs(60), move || while raw.write_all(&pings).is_ok() {});

    let mut client = Client::connect_unix(&socket).expect("connect");
    client.ping().expect("the daemon keeps serving other clients");
    let peak = daemon.peak_reply_backlog();
    let stats = daemon.shutdown();
    assert!(stats.rejected_overloaded >= 1);
    // Every queued frame holds its bytes and its queue slot (charged 64
    // bytes over its length), and rejections are only queued while the
    // backlog is between one ceiling and two: what the daemon holds for
    // this client is two ceilings and the one rejection that crossed the
    // second. (How many rejections it *sends* is not bounded by that:
    // each one the writer hands to the kernel's socket buffer leaves the
    // backlog, and how many it hands over before the buffer fills depends
    // on how the reader and the writer are scheduled.)
    let overloaded = ServeError::Overloaded { capacity: ceiling as usize };
    let rejection = ErrorReply { request_id: 0, error: overloaded }.encode().len() as u64;
    let frame_cost = 4 + 1 + rejection + 64;
    assert!(peak > ceiling, "the backlog never passed one ceiling: {peak}");
    assert!(peak <= 2 * ceiling + frame_cost, "{peak} queued past two ceilings of {ceiling}");
}

/// Drain stays bounded when a client has pipelined fetches and never
/// reads a reply: the daemon delivers what it can, then cuts the
/// connection instead of waiting on the client for ever.
#[test]
fn shutdown_is_bounded_when_a_client_never_reads() {
    let app = generate(&AppSpec { methods: 200, ..AppSpec::small("unread", 75) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");
    client.build_for_tenant("app", &app.dex, &options, None).expect("register");

    let fetch = build_body(Some("app"), &app.dex, &options);
    let raw = UnixStream::connect(&socket).expect("connect raw");
    let mut sender = raw.try_clone().expect("clone raw");
    // Written from a thread of its own: the writes may block, and fail
    // once the drain cuts the connection.
    std::thread::spawn(move || {
        for _ in 0..8 {
            if write_frame(&mut sender, REQ_BUILD, &fetch).is_err() {
                break;
            }
        }
    });
    let deadline = Instant::now() + Duration::from_secs(30);
    while client.server_stats().expect("stats").requests_completed < 3 {
        assert!(Instant::now() < deadline, "the daemon never answered a fetch");
        std::thread::sleep(Duration::from_millis(5));
    }
    let stats = within(Duration::from_secs(30), move || daemon.shutdown());
    assert!(stats.requests_completed >= 3);
    drop(raw);
}

/// A build request as raw bytes: `request`'s header, then `program` in
/// place of its program.
fn body_with_program(request: &calibro_server::BuildRequest, program: &[u8]) -> Vec<u8> {
    let body = request.encode();
    let header_len = body.len() - calibro_dex::wire::encode(&request.dex).len();
    [&body[..header_len], program].concat()
}

/// The program table, through the daemon's own counters: a program is
/// decoded until its second sighting and reused from then on (the
/// client names it by reference from its third send); a program that
/// does not decode is rejected every time it is sent and never held;
/// programs of one length and different content are different programs.
#[test]
fn programs_are_decoded_until_their_second_sighting_and_rejected_ones_never_held() {
    let app = generate(&AppSpec::small("table", 51));
    let mut twin = app.dex.clone();
    assert!(!calibro_workloads::mutate_methods(&mut twin, 5, 0.1).is_empty());
    let once = generate(&AppSpec::small("once", 52));
    let options = BuildOptions::cto_ltbo();
    let direct =
        |dex| calibro_oat::to_elf_bytes(&calibro::build(dex, &options).expect("direct build").oat);
    let (expected, expected_twin) = (direct(&app.dex), direct(&twin));
    assert_ne!(expected, expected_twin);
    let same_length = |a, b| {
        calibro_dex::wire::encode::<calibro_dex::DexFile>(a).len()
            == calibro_dex::wire::encode::<calibro_dex::DexFile>(b).len()
    };
    assert!(same_length(&app.dex, &twin), "a flipped literal keeps the wire length");

    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");
    let counters = |client: &mut Client| {
        let stats = client.server_stats().expect("stats");
        let by_reference = stats.programs_by_reference;
        (stats.programs_decoded, stats.programs_reused, by_reference, stats.malformed_frames)
    };

    client.build(&once.dex, &options, None).expect("a program sent once");
    assert_eq!(counters(&mut client), (1, 0, 0, 0), "decoded once");

    // Interleaved, so that the twins' ids sit in the ring together.
    // Sent three times each: decoded twice, then named by reference.
    for after_round in [(3, 0, 0, 0), (5, 0, 0, 0), (5, 0, 2, 0)] {
        assert_eq!(client.build(&app.dex, &options, None).expect("build").elf, expected);
        assert_eq!(client.build(&twin, &options, None).expect("twin build").elf, expected_twin);
        assert_eq!(counters(&mut client), after_round);
    }

    // A valid header followed by bytes that are no program: Malformed,
    // counted, the id echoed, the connection keeps serving — and the
    // same bytes a second (and third) time are rejected again.
    let request = calibro_server::BuildRequest {
        request_id: 0xBAD,
        deadline: None,
        options_fp: calibro::options_fingerprint(&options),
        ltbo_fp: calibro_server::ltbo_fingerprint(&options),
        tenant: None,
        options: options.clone(),
        dex: app.dex.clone(),
    };
    let garbage = body_with_program(&request, b"\x07\x00\x00\x00\xff\xff\xff\xffnot-a-program");
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    for sent in 1..=3 {
        write_frame(&mut raw, REQ_BUILD, &garbage).expect("send");
        match read_frame(&mut raw, 1 << 20).expect("read reply") {
            FrameEvent::Frame { kind: RESP_ERROR, body } => {
                let reply = ErrorReply::decode(&body).expect("error reply decodes");
                assert_eq!(reply.request_id, 0xBAD);
                assert_eq!(
                    reply.error,
                    ServeError::from(calibro_server::WireError::OversizedCollection {
                        what: "classes",
                        len: u64::from(u32::MAX),
                    })
                );
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        assert_eq!(counters(&mut client), (5, 0, 2, sent));
        write_frame(&mut raw, REQ_PING, b"still-there").expect("send ping");
        match read_frame(&mut raw, 1 << 20).expect("read pong") {
            FrameEvent::Frame { kind: RESP_PONG, body } => assert_eq!(body, b"still-there"),
            other => panic!("expected a pong, got {other:?}"),
        }
    }
    // The same raw path with the real program behind the same header is
    // served (and reused: the table holds it).
    write_frame(&mut raw, REQ_BUILD, &request.encode()).expect("send");
    match read_frame(&mut raw, 1 << 22).expect("read reply") {
        FrameEvent::Frame { kind, body } => {
            assert_eq!(kind, calibro_server::proto::RESP_BUILT);
            let reply = calibro_server::BuildReply::decode(&body).expect("reply decodes");
            assert_eq!((reply.request_id, &reply.elf), (0xBAD, &expected));
        }
        other => panic!("expected a built frame, got {other:?}"),
    }
    assert_eq!(counters(&mut client), (5, 1, 2, 3));

    let stats = daemon.shutdown();
    assert_eq!(stats.build_errors, 0);
}

/// A tenant that registers a different program under its name starts
/// over: the decayed profile attributed cycles to the old program's
/// method ids. (Both programs come from the program table by then.)
#[test]
fn re_registering_a_different_program_resets_the_tenant_profile() {
    let first = generate(&AppSpec::small("tenant-a", 61));
    let second = generate(&AppSpec::small("tenant-b", 62));
    let options = BuildOptions::cto_ltbo();
    // Drift is at most 1.0: no upload ever schedules a refresh here.
    let (daemon, socket) = start(ServerConfig { drift_threshold: 2.0, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    for app in [&first, &second] {
        for _ in 0..2 {
            client.build(&app.dex, &options, None).expect("plain build");
        }
    }

    let gen1 = client.build_for_tenant("app", &first.dex, &options, None).expect("register");
    assert_eq!(gen1.generation, 1);
    client.upload_profile("app", "0 4000\n1 3000\n2 5\n").expect("upload");
    let stats = client.generation_stats("app").expect("generation stats");
    assert_eq!((stats.uploads, stats.tracked_methods), (1, 3));

    let gen2 = client.build_for_tenant("app", &second.dex, &options, None).expect("re-register");
    assert_eq!(gen2.generation, 2, "generation ids stay monotonic across the change");
    assert_ne!(gen2.elf, gen1.elf);
    let stats = client.generation_stats("app").expect("generation stats");
    assert_eq!((stats.uploads, stats.tracked_methods), (0, 0), "the profile started over");
    assert_eq!(stats.serving_generation, 2);
    // The old program under the same name is a third registration, not
    // a fetch of generation 1.
    let gen3 = client.build_for_tenant("app", &first.dex, &options, None).expect("back again");
    assert_eq!((gen3.generation, &gen3.elf), (3, &gen1.elf));

    // Each program's third and later sends go by reference.
    let stats = daemon.shutdown();
    assert_eq!(stats.programs_decoded, 4);
    assert_eq!((stats.programs_reused, stats.programs_by_reference), (0, 3));
}

/// Cycle weight concentrated on a few methods: against a generation
/// built with no hot set the drift is about the hot fraction, over the
/// default threshold, so uploading it schedules a refresh.
const SKEWED_PROFILE: &str = "0 4000000\n1 3000000\n2 2000000\n3 500000\n4 1\n";

/// A refresh is a queued job that a worker pops before it reads the
/// drain flag: one scheduled just before `shutdown`, queued behind a
/// client build the only worker is compiling, has flipped the serving
/// generation by the time `shutdown` returns.
#[test]
fn a_refresh_scheduled_just_before_shutdown_has_flipped_when_it_returns() {
    let app = generate(&AppSpec::small("last-refresh", 29));
    let slow = generate(&AppSpec { methods: 600, ..AppSpec::small("slow", 7) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) = start(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    client.build_for_tenant("app", &app.dex, &options, None).expect("register");
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    write_frame(&mut raw, REQ_BUILD, &build_body(None, &slow.dex, &options)).expect("send");
    let slow_reply = std::thread::spawn(move || read_frame(&mut raw, 64 << 20).expect("reply"));
    while client.server_stats().expect("stats").in_flight < 1 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = client.upload_profile("app", SKEWED_PROFILE).expect("upload");
    assert!(reply.refresh_scheduled, "{reply:?}");

    let stats = within(Duration::from_secs(60), move || daemon.shutdown());
    assert_eq!(stats.requests_completed, 2, "the registration and the slow build");
    let slow_reply = slow_reply.join().expect("slow build reply");
    assert!(matches!(slow_reply, FrameEvent::Frame { kind: RESP_BUILT, .. }), "{slow_reply:?}");
    assert_eq!(stats.refreshes_triggered, 1);
    assert_eq!(stats.generations_sealed, 2, "the scheduled refresh flipped before the exit");
    assert_eq!((stats.queue_depth, stats.in_flight, stats.build_errors), (0, 0, 0));
}

/// One worker, and a queue of depth 1 kept full by a pipelined burst of
/// client builds: a drift-crossing upload's refresh takes a queue slot
/// all the same. It is not rejected, it is not lost (the generation
/// flips and `refresh_in_flight` clears), and `rejected_overloaded`
/// counts only the client builds the full queue turned away.
#[test]
fn a_refresh_behind_a_saturated_queue_is_neither_rejected_nor_lost() {
    let app = generate(&AppSpec::small("crowded", 31));
    let slow = generate(&AppSpec { methods: 600, ..AppSpec::small("slow", 7) });
    let options = BuildOptions::cto_ltbo();
    let (daemon, socket) =
        start(ServerConfig { workers: 1, queue_depth: 1, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");
    let gen1 = client.build_for_tenant("app", &app.dex, &options, None).expect("register");

    let build = Arc::new(build_body(None, &slow.dex, &options));
    let burst = 16;
    let requests: Vec<_> = (0..burst).map(|id| (id, Arc::clone(&build))).collect();
    let mut raw = UnixStream::connect(&socket).expect("connect raw");
    let burst_outcomes = std::thread::spawn(move || pipeline(&mut raw, &requests));
    // One build compiling and one waiting: the queue is full.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = client.server_stats().expect("stats");
        if stats.in_flight == 1 && stats.queue_depth == 1 {
            break;
        }
        assert!(Instant::now() < deadline, "the burst never filled the queue: {stats:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    let reply = client.upload_profile("app", SKEWED_PROFILE).expect("upload");
    assert!(reply.refresh_scheduled, "a full queue must not refuse a refresh: {reply:?}");

    let outcomes = within(Duration::from_secs(60), move || burst_outcomes.join().expect("burst"));
    let mut rejected = 0;
    for (id, outcome) in &outcomes {
        match outcome {
            Ok(reply) => assert_eq!(reply.generation, 0, "build {id}"),
            Err(ServeError::Overloaded { capacity: 1 }) => rejected += 1,
            Err(e) => panic!("build {id}: {e}"),
        }
    }
    assert!(rejected >= 1, "the burst must overflow the admission queue");

    let deadline = Instant::now() + Duration::from_secs(60);
    let stats = loop {
        let stats = client.generation_stats("app").expect("generation stats");
        if stats.serving_generation == 2 && !stats.refresh_in_flight {
            break stats;
        }
        assert!(Instant::now() < deadline, "the refresh was lost: {stats:?}");
        std::thread::sleep(Duration::from_millis(10));
    };
    assert!(stats.hot_restricted && stats.hot_set_size > 0, "{stats:?}");
    assert_ne!(stats.elf_fnv, 0);
    let fetched = client.build_for_tenant("app", &app.dex, &options, None).expect("fetch");
    assert_eq!(fetched.generation, 2);
    assert_ne!(fetched.elf, gen1.elf, "the refresh rebuilt under its hot set");

    let stats = daemon.shutdown();
    assert_eq!(stats.rejected_overloaded, rejected, "only client builds were refused");
    assert_eq!((stats.refreshes_triggered, stats.generations_sealed), (1, 2));
    assert_eq!(stats.build_errors, 0);
}

/// Start, pipeline builds, shut down, many times over, each drain under
/// a watchdog. The drain flag is set and read for admission under the
/// queue lock: set outside it, a worker could miss its wake-up (and the
/// drain hang on its join), and a build admitted after the last worker
/// left would never run (its connection held for the whole grace).
#[test]
fn shutdown_racing_pipelined_builds_runs_every_admitted_build() {
    let app = generate(&AppSpec::small("drained", 13));
    let options = BuildOptions::cto_ltbo();
    let body = build_body(None, &app.dex, &options);
    for round in 0..12 {
        let (daemon, socket) = start(ServerConfig { workers: 2, ..ServerConfig::default() });
        let mut raw = UnixStream::connect(&socket).expect("connect raw");
        let body = body.clone();
        // Writes until the drain stops reading, then reads until the
        // daemon closes the connection.
        let exchange = std::thread::spawn(move || {
            for id in 0..8u64 {
                let mut body = body.clone();
                body[..8].copy_from_slice(&id.to_le_bytes());
                if write_frame(&mut raw, REQ_BUILD, &body).is_err() {
                    break;
                }
            }
            let mut outcomes = Vec::new();
            while let Ok(FrameEvent::Frame { kind, body }) = read_frame(&mut raw, 64 << 20) {
                outcomes.push(match kind {
                    RESP_BUILT => Ok(()),
                    _ => Err(ErrorReply::decode(&body).expect("error decodes").error),
                });
            }
            outcomes
        });
        let mut client = Client::connect_unix(&socket).expect("connect");
        while client.server_stats().expect("stats").requests_admitted < 1 {
            std::thread::sleep(Duration::from_millis(1));
        }
        let stats = within(Duration::from_secs(30), move || daemon.shutdown());
        // A repeat of the held program may be answered from its replay
        // slot before the drain: completed, never admitted.
        let admitted_or_replayed = stats.requests_admitted + stats.builds_replayed;
        assert_eq!(stats.requests_completed, admitted_or_replayed, "round {round}");
        let outcomes = within(Duration::from_secs(30), move || exchange.join().expect("client"));
        for outcome in outcomes {
            assert!(matches!(outcome, Ok(()) | Err(ServeError::Draining)), "round {round}");
        }
    }
}
