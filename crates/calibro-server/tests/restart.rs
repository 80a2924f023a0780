//! A daemon restarted over its predecessor's `cache.disk_dir` starts
//! warm: every method and group plan the first daemon compiled is a
//! disk hit for the second, nothing is compiled or stored again, and
//! the reply is byte-identical to the first daemon's.

#![cfg(unix)]

use calibro::{BuildOptions, CacheConfig};
use calibro_server::{BuildReply, Client, Daemon, Listener, ServerConfig, ServerStats};
use calibro_workloads::{generate, AppSpec};

/// Starts a daemon over `config` on a fresh socket, builds `app` under
/// `options` on one connection, and drains the daemon: the reply, the
/// stats right after the build and the stats the drain returned.
fn build_once(
    tag: &str,
    config: &ServerConfig,
    app: &calibro_workloads::App,
    options: &BuildOptions,
) -> (BuildReply, ServerStats, ServerStats) {
    let socket = std::env::temp_dir().join(format!("calibrod-{tag}-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), config.clone())
        .expect("start the daemon");
    let mut client = Client::connect_unix(&socket).expect("connect");
    let reply = client.build(&app.dex, options, None).expect("build");
    let after_build = daemon.stats();
    drop(client);
    (reply, after_build, daemon.shutdown())
}

fn restarted_daemon_serves_from_its_predecessors_disk(workers: usize) {
    let app = generate(&AppSpec::small("restart", 31));
    let options = BuildOptions::cto_ltbo();
    let direct = calibro::build(&app.dex, &options).expect("direct build");
    let dir =
        std::env::temp_dir().join(format!("calibrod-restart-{workers}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServerConfig {
        workers,
        cache: CacheConfig { disk_dir: Some(dir.clone()), ..CacheConfig::default() },
        ..ServerConfig::default()
    };

    let (first, built, drained) =
        build_once(&format!("restart-a-{workers}"), &config, &app, &options);
    assert_eq!(first.elf, calibro_oat::to_elf_bytes(&direct.oat), "the first daemon's build");
    let c = built.cache;
    assert!(c.stores > 0 && c.group_stores > 0, "the first daemon compiled: {c:?}");
    assert_eq!(
        (c.disk_stores, c.group_disk_stores),
        (c.stores, c.group_stores),
        "every store persisted"
    );
    let flushed = (drained.cache.disk_stores, drained.cache.group_disk_stores);
    assert_eq!(flushed, (c.disk_stores, c.group_disk_stores), "the drain flush had nothing left");

    let (second, built, _) = build_once(&format!("restart-b-{workers}"), &config, &app, &options);
    assert_eq!(second.elf, first.elf, "the restarted daemon's reply must be byte-identical");
    assert_eq!(second.methods_from_cache, second.methods);
    let c = built.cache;
    assert!(c.disk_hits > 0 && c.group_disk_hits > 0, "the restart read its disk: {c:?}");
    assert_eq!((c.promotions, c.group_promotions), (c.disk_hits, c.group_disk_hits));
    assert_eq!((c.misses, c.group_misses), (0, 0), "nothing missed after the restart: {c:?}");
    assert_eq!((c.stores, c.group_stores), (0, 0), "nothing stored after the restart: {c:?}");
    assert_eq!(built.build_errors, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restarted_daemon_serves_from_its_predecessors_disk_one_worker() {
    restarted_daemon_serves_from_its_predecessors_disk(1);
}

#[test]
fn restarted_daemon_serves_from_its_predecessors_disk_eight_workers() {
    restarted_daemon_serves_from_its_predecessors_disk(8);
}
