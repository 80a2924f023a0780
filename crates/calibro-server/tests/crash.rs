//! Crash consistency against the real `calibrod` binary: a daemon
//! SIGKILLed in the middle of a cold build over `--cache-dir` leaves
//! logs whose whole frames a restarted daemon serves and whose torn
//! tail, if the kill landed inside a write, it cuts. The restarted
//! daemon's reply is byte-identical to a direct build.

#![cfg(unix)]

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use calibro::BuildOptions;
use calibro_server::Client;
use calibro_workloads::{generate, AppSpec};

/// Starts `calibrod` over `dir` on `socket`.
fn start(socket: &Path, dir: &Path) -> Child {
    Command::new(env!("CARGO_BIN_EXE_calibrod"))
        .arg("--socket")
        .arg(socket)
        .arg("--cache-dir")
        .arg(dir)
        .args(["--workers", "2"])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn calibrod")
}

/// A client of the daemon on `socket`, once it answers.
fn connect(socket: &Path) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if let Ok(mut client) = Client::connect_unix(socket) {
            if client.ping().is_ok() {
                return client;
            }
        }
        assert!(Instant::now() < deadline, "calibrod did not come up in time");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn a_daemon_killed_mid_build_restarts_over_its_logs_to_the_same_bytes() {
    let tag = std::process::id();
    let socket = std::env::temp_dir().join(format!("calibrod-crash-{tag}.sock"));
    let dir = std::env::temp_dir().join(format!("calibrod-crash-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let app = generate(&AppSpec { methods: 600, ..AppSpec::small("crash", 9) });
    let options = BuildOptions::cto_ltbo();

    // A cold build from a thread of its own; the daemon is killed once
    // the method log holds some frames, with the build still running.
    let mut daemon = start(&socket, &dir);
    connect(&socket);
    let cold = std::thread::spawn({
        let (socket, dex, options) = (socket.clone(), app.dex.clone(), options.clone());
        move || Client::connect_unix(&socket).expect("connect").build(&dex, &options, None)
    });
    let log = dir.join("calc.log");
    let deadline = Instant::now() + Duration::from_secs(60);
    while std::fs::metadata(&log).map_or(0, |m| m.len()) < 16 * 1024 {
        assert!(Instant::now() < deadline, "the cold build wrote no frames");
        std::thread::sleep(Duration::from_millis(1));
    }
    daemon.kill().expect("SIGKILL calibrod");
    daemon.wait().expect("reap calibrod");
    assert!(cold.join().expect("the client thread").is_err(), "the build beat the kill");

    // The killed daemon's locks went with it: a daemon restarted over
    // the directory reads what was written before the kill.
    let mut restarted = start(&socket, &dir);
    let mut client = connect(&socket);
    let reply = client.build(&app.dex, &options, None).expect("a build after the restart");
    let direct = calibro::build(&app.dex, &options).expect("a direct build");
    assert_eq!(reply.elf, calibro_oat::to_elf_bytes(&direct.oat), "the restart's reply differs");
    assert!(reply.methods_from_cache > 0, "the restart read no frame written before the kill");
    drop(client);
    restarted.kill().expect("stop calibrod");
    restarted.wait().expect("reap calibrod");
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_dir_all(&dir);
}
