//! `calibrod` — the Calibro compile-service daemon.
//!
//! ```text
//! calibrod --socket /run/calibrod.sock [--workers N] [--queue-depth N]
//!          [--cache-dir DIR] [--max-frame BYTES] [--max-entries N]
//!          [--drift-threshold F]
//! calibrod --listen 127.0.0.1:7461 ...
//! ```
//!
//! A deadline is the request's own; a tenant's hot set covers
//! [`HOT_FRACTION`](calibro_server::server::HOT_FRACTION) of its decayed
//! cycle weight.
//!
//! With `--cache-dir` the store appends every artifact it compiles to
//! one log per lane, which it holds locked while it runs: a daemon
//! restarted over the same directory, after a drain or a crash, serves
//! them as disk hits.
//!
//! Runs until SIGTERM/SIGINT or a client `shutdown` request, then
//! drains gracefully: stops accepting, finishes in-flight requests
//! (their responses are delivered), and exits 0.

use std::process::ExitCode;
use std::time::Duration;

use calibro_server::{Daemon, Listener, ServerConfig};

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    /// Installs the SIGTERM/SIGINT handler via the C `signal(2)` entry
    /// point (std exposes no signal API and the build is libc-free).
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn termed() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod sig {
    pub fn install() {}
    pub fn termed() -> bool {
        false
    }
}

struct Args {
    socket: Option<String>,
    listen: Option<String>,
    config: ServerConfig,
}

fn usage() -> ! {
    eprintln!(
        "usage: calibrod (--socket PATH | --listen ADDR) [--workers N] \
         [--queue-depth N] [--cache-dir DIR] [--max-frame BYTES] \
         [--max-entries N] [--drift-threshold F]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        socket: None,
        listen: None,
        config: ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get),
            ..ServerConfig::default()
        },
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("calibrod: {name} requires a value");
                usage();
            })
        };
        match flag.as_str() {
            "--socket" => args.socket = Some(value("--socket")),
            "--listen" => args.listen = Some(value("--listen")),
            "--workers" => args.config.workers = parse_num(&value("--workers"), "--workers"),
            "--queue-depth" => {
                args.config.queue_depth = parse_num(&value("--queue-depth"), "--queue-depth");
            }
            "--cache-dir" => {
                args.config.cache.disk_dir = Some(std::path::PathBuf::from(value("--cache-dir")));
            }
            "--max-frame" => {
                args.config.max_frame = parse_num(&value("--max-frame"), "--max-frame");
            }
            "--max-entries" => {
                args.config.cache.max_entries = parse_num(&value("--max-entries"), "--max-entries");
            }
            "--drift-threshold" => {
                args.config.drift_threshold =
                    parse_fraction(&value("--drift-threshold"), "--drift-threshold");
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("calibrod: unknown flag {other}");
                usage();
            }
        }
    }
    if args.socket.is_some() == args.listen.is_some() {
        eprintln!("calibrod: exactly one of --socket or --listen is required");
        usage();
    }
    args
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> T {
    raw.parse().unwrap_or_else(|_| {
        eprintln!("calibrod: invalid value {raw:?} for {flag}");
        usage();
    })
}

/// A fraction in `[0, 1]` (the drift threshold).
fn parse_fraction(raw: &str, flag: &str) -> f64 {
    let f: f64 = parse_num(raw, flag);
    if !(0.0..=1.0).contains(&f) {
        eprintln!("calibrod: {flag} must be within [0, 1], got {raw}");
        usage();
    }
    f
}

fn main() -> ExitCode {
    let args = parse_args();
    sig::install();

    let listener = if let Some(path) = &args.socket {
        #[cfg(unix)]
        {
            match Listener::unix(path) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("calibrod: cannot bind {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        #[cfg(not(unix))]
        {
            eprintln!("calibrod: --socket requires a Unix platform; use --listen ({path})");
            return ExitCode::FAILURE;
        }
    } else {
        let addr = args.listen.as_deref().unwrap_or_default();
        match Listener::tcp(addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("calibrod: cannot bind {addr}: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let tcp_addr = listener.tcp_addr();
    let daemon = match Daemon::start(listener, args.config.clone()) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("calibrod: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };

    let endpoint =
        args.socket.clone().or_else(|| tcp_addr.map(|a| a.to_string())).unwrap_or_default();
    println!(
        "calibrod listening on {endpoint} ({} workers, queue depth {})",
        args.config.workers.max(1),
        args.config.queue_depth,
    );

    while !sig::termed() && !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }

    println!("calibrod: draining ({} in flight)...", daemon.stats().in_flight);
    let stats = daemon.shutdown();
    println!(
        "calibrod: drained. {} completed, {} rejected overloaded, {} timeouts, \
         cache {} hits / {} misses",
        stats.requests_completed,
        stats.rejected_overloaded,
        stats.deadline_timeouts,
        stats.cache.hits,
        stats.cache.misses,
    );
    ExitCode::SUCCESS
}
