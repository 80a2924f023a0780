//! # bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4) on the simulated substrate, plus shared
//! helpers for the Criterion benchmarks. See `src/bin/experiments.rs`
//! for the runnable harness and `EXPERIMENTS.md` for recorded outputs.

#![warn(missing_docs)]

pub mod alloc;
pub mod drift;
pub mod experiments;
pub mod record;
pub mod restart;
pub mod serve;

pub use drift::{drift_feedback, drift_gate, DriftConfig, DriftReport};
pub use experiments::*;
pub use restart::{restart_gate, restart_load, RestartReport};
pub use serve::{serve_gate, serve_load, serve_record, ServeLoadConfig, ServeReport};

use calibro_server::{Daemon, Endpoint, Listener, ServerConfig};

/// The daemon an arm drives: `endpoint` when one is given, else one
/// started in-process under `config` and returned for the arm to shut
/// down — on a Unix socket named by `tag` where available, TCP loopback
/// otherwise.
pub(crate) fn daemon_or(
    endpoint: Option<&Endpoint>,
    tag: &str,
    config: ServerConfig,
) -> (Option<Daemon>, Endpoint) {
    if let Some(endpoint) = endpoint {
        return (None, endpoint.clone());
    }
    #[cfg(unix)]
    let (listener, endpoint) = {
        let socket =
            std::env::temp_dir().join(format!("calibrod-{tag}-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        (Listener::unix(&socket).expect("bind the daemon socket"), Endpoint::Unix(socket))
    };
    #[cfg(not(unix))]
    let (listener, endpoint) = {
        let _ = tag;
        let listener = Listener::tcp("127.0.0.1:0").expect("bind the daemon tcp port");
        let addr = listener.tcp_addr().expect("tcp addr").to_string();
        (listener, Endpoint::Tcp(addr))
    };
    (Some(Daemon::start(listener, config).expect("start the in-process daemon")), endpoint)
}
