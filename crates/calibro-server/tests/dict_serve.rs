//! The shared outline dictionary through a live daemon: a cold client
//! publishes, the seal makes the bodies servable, the next client's
//! build routes to the island (smaller ELF, recorded dict link), and
//! sealed tenant generations fence their epoch against retirement.

#![cfg(unix)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use calibro::BuildOptions;
use calibro_server::{Client, Daemon, Listener, ServerConfig};
use calibro_workloads::{generate, AppSpec};

static NEXT_SOCKET: AtomicU64 = AtomicU64::new(0);

fn temp_socket() -> PathBuf {
    let n = NEXT_SOCKET.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("calibrod-dict-test-{}-{n}.sock", std::process::id()))
}

fn start(config: ServerConfig) -> (Daemon, PathBuf) {
    let socket = temp_socket();
    let daemon =
        Daemon::start(Listener::unix(&socket).expect("bind"), config).expect("start daemon");
    (daemon, socket)
}

#[test]
fn shared_dictionary_serves_second_client_from_the_island() {
    let app = generate(&AppSpec::small("dictd", 17));
    let options = BuildOptions::cto_ltbo().with_dict();
    let (daemon, socket) = start(ServerConfig { dict: true, ..ServerConfig::default() });

    // Client 1 runs against the empty epoch-0 island: every outlined
    // body misses, publishes, and the daemon seals epoch 1 before the
    // reply frame goes out — so the very next request can hit.
    let mut first = Client::connect_unix(&socket).expect("connect");
    let cold = first.build(&app.dex, &options, None).expect("cold build");
    let ds = first.dict_stats().expect("dict stats");
    assert!(ds.enabled);
    assert!(ds.publishes > 0, "the cold build must publish outlined bodies: {ds:?}");
    assert_eq!(ds.hits, 0, "nothing to hit at epoch 0");
    assert_eq!(ds.epoch, 1, "a completed dict build seals its publishes");
    assert!(ds.island_words > 0);
    assert!(ds.island_entries > 0);
    assert_eq!(ds.published, ds.publishes, "every publish lands in the dictionary");
    assert_eq!(ds.staged, 0, "the seal drained the staging set");

    // Client 2: byte-identical outlined bodies route to the shared
    // island, so its private copies vanish from the reply ELF.
    let mut second = Client::connect_unix(&socket).expect("connect");
    let warm = second.build(&app.dex, &options, None).expect("warm build");
    let ds = second.dict_stats().expect("dict stats");
    assert!(ds.hits > 0, "the sealed island must serve the second client: {ds:?}");
    assert!(
        warm.elf.len() < cold.elf.len(),
        "island-routed ELF ({} bytes) must shrink below the private-outline ELF ({} bytes)",
        warm.elf.len(),
        cold.elf.len()
    );
    assert!(
        warm.stats_json.contains("\"dict\":{\"epoch\":1"),
        "reply stats must carry the dict arbitration block: {}",
        warm.stats_json
    );

    // The transported ELF records which island it links into, and the
    // daemon can hand that island's words to an external harness.
    let oat = calibro_oat::from_elf_bytes(&warm.elf).expect("reply ELF loads");
    let link = oat.dict.expect("a dict-routed reply records its island link");
    assert_eq!(link.epoch, 1);
    let registry = daemon.dict_registry().expect("dict daemon exposes its registry");
    let layout = registry.layout(link.epoch).expect("the linked epoch is alive");
    assert_eq!(
        layout.words().len(),
        link.size_words as usize,
        "link and island must agree on size"
    );

    let stats = daemon.shutdown();
    assert_eq!(stats.build_errors, 0);
}

#[test]
fn sealed_tenant_generation_pins_its_dict_epoch() {
    let app = generate(&AppSpec::small("dict-tenant", 29));
    let options = BuildOptions::cto_ltbo().with_dict();
    let (daemon, socket) = start(ServerConfig { dict: true, ..ServerConfig::default() });
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Generation 1 compiled at epoch 0; the flip pins epoch 0 before
    // the post-build seal advances the registry to epoch 1, so the
    // generation's island can never be retired under it.
    let gen1 = client.build_for_tenant("app-a", &app.dex, &options, None).expect("tenant build");
    assert_eq!(gen1.generation, 1);
    let ds = client.dict_stats().expect("dict stats");
    assert!(ds.enabled);
    assert_eq!(ds.pinned_epochs, 1, "the serving generation must fence its epoch: {ds:?}");

    // A tenant re-fetch answers from the sealed bytes — the dictionary
    // counters must not move (no rebuild, no re-arbitration).
    let refetch = client.build_for_tenant("app-a", &app.dex, &options, None).expect("refetch");
    assert_eq!(refetch.generation, 1);
    assert_eq!(refetch.elf, gen1.elf);
    let after = client.dict_stats().expect("dict stats");
    assert_eq!((after.hits, after.publishes), (ds.hits, ds.publishes));

    daemon.shutdown();
}

#[test]
fn daemon_without_dictionary_answers_disabled_and_builds_privately() {
    let app = generate(&AppSpec::small("no-dict", 7));
    let options = BuildOptions::cto_ltbo().with_dict();
    let (daemon, socket) = start(ServerConfig::default());
    let mut client = Client::connect_unix(&socket).expect("connect");

    // Asking is never an error; the reply is all-zeros with the flag off.
    let ds = client.dict_stats().expect("dict stats");
    assert!(!ds.enabled);
    assert_eq!((ds.epoch, ds.published, ds.hits, ds.island_words), (0, 0, 0, 0));

    // A dict-flagged request still compiles — as a plain private-outline
    // build, byte-identical to the direct in-process one.
    let reply = client.build(&app.dex, &options, None).expect("dict-flagged build");
    let direct = calibro::build(&app.dex, &options).expect("direct build");
    assert_eq!(reply.elf, calibro_oat::to_elf_bytes(&direct.oat));
    let oat = calibro_oat::from_elf_bytes(&reply.elf).expect("reply ELF loads");
    assert!(oat.dict.is_none(), "no registry, no island link");

    daemon.shutdown();
}
