//! Graceful-drain test against the real `calibrod` binary: SIGTERM
//! with a request in flight must complete that request (the client
//! receives its reply) and exit 0.

#![cfg(unix)]

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use calibro::BuildOptions;
use calibro_server::Client;
use calibro_workloads::{generate, AppSpec};

#[test]
fn sigterm_completes_in_flight_request_and_exits_zero() {
    let socket = std::env::temp_dir().join(format!("calibrod-drain-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_calibrod"))
        .arg("--socket")
        .arg(&socket)
        .args(["--workers", "1", "--queue-depth", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn calibrod");

    // Wait for the daemon to bind and answer.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = loop {
        if let Ok(mut c) = Client::connect_unix(&socket) {
            if c.ping().is_ok() {
                break c;
            }
        }
        assert!(Instant::now() < deadline, "calibrod did not come up in time");
        std::thread::sleep(Duration::from_millis(20));
    };

    // A slow request from a second thread, so this thread can deliver
    // SIGTERM while it is in flight.
    let app = generate(&AppSpec { methods: 600, ..AppSpec::small("drain", 3) });
    let options = BuildOptions::cto_ltbo();
    let in_flight = std::thread::spawn({
        let socket = socket.clone();
        let dex = app.dex.clone();
        let options = options.clone();
        move || {
            let mut c = Client::connect_unix(&socket).expect("connect");
            c.build(&dex, &options, None).expect("in-flight request must complete")
        }
    });

    // Ask for termination only once the daemon has admitted the request:
    // a SIGTERM that wins the race to the queue is a typed rejection, not
    // a drain. An admitted job is popped before the drain flag is read.
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.server_stats().expect("stats").requests_admitted < 1 {
        assert!(Instant::now() < deadline, "the in-flight request was never admitted");
        std::thread::sleep(Duration::from_millis(5));
    }
    let kill = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());

    // Drain semantics: the in-flight request still completes and its
    // reply is delivered before the daemon tears the connection down.
    let reply = in_flight.join().expect("client thread");
    assert!(reply.methods > 0);
    assert!(!reply.elf.is_empty());

    let status = daemon.wait().expect("wait for calibrod");
    assert!(status.success(), "calibrod must exit 0 after a graceful drain, got {status}");
    assert!(!socket.exists(), "socket file must be unlinked at shutdown");

    // After the drain the endpoint is gone.
    assert!(Client::connect_unix(&socket).is_err());
    drop(client.ping());
}
