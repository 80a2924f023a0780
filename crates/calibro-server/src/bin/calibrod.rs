//! `calibrod` — the Calibro compile-service daemon.
//!
//! ```text
//! calibrod --socket /run/calibrod.sock [--workers N] [--queue-depth N]
//!          [--deadline-ms N] [--cache-dir DIR] [--max-frame BYTES]
//! calibrod --listen 127.0.0.1:7461 ...
//! calibrod --socket /run/calibrod-a.sock --shard-id 0 \
//!          --peer 1=unix:/run/calibrod-b.sock --peer 2=tcp:10.0.0.3:7461
//! ```
//!
//! With `--shard-id`/`--peer` the daemon joins a fleet: a cache miss is
//! served from a sibling's warm lane over `PeerGet` before falling back
//! to a local compile.
//!
//! Runs until SIGTERM/SIGINT or a client `shutdown` request, then
//! drains gracefully: stops accepting, finishes in-flight requests
//! (their responses are delivered), and exits 0.

use std::process::ExitCode;
use std::time::Duration;

use calibro_server::{Daemon, Listener, ServerConfig, ShardEndpoint, ShardSpec};

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
         [--queue-depth N] [--deadline-ms N] [--cache-dir DIR] \
         [--max-frame BYTES] [--max-entries N] [--method-budget-bytes N] \
         [--group-budget-bytes N] [--shard-id N] \
         [--peer ID=unix:PATH | --peer ID=tcp:ADDR]... \
         [--hot-fraction F] [--drift-threshold F]"
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
            "--deadline-ms" => {
                let ms: u64 = parse_num(&value("--deadline-ms"), "--deadline-ms");
                args.config.default_deadline = (ms > 0).then(|| Duration::from_millis(ms));
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
            "--method-budget-bytes" => {
                args.config.cache.method_budget_bytes =
                    parse_num(&value("--method-budget-bytes"), "--method-budget-bytes");
            }
            "--group-budget-bytes" => {
                args.config.cache.group_budget_bytes =
                    parse_num(&value("--group-budget-bytes"), "--group-budget-bytes");
            }
            "--shard-id" => {
                args.config.shard_id = parse_num(&value("--shard-id"), "--shard-id");
            }
            "--peer" => args.config.peers.push(parse_peer(&value("--peer"))),
            "--hot-fraction" => {
                args.config.hot_fraction =
                    parse_fraction(&value("--hot-fraction"), "--hot-fraction");
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

/// A fraction in `[0, 1]` (hot-set coverage, drift threshold).
fn parse_fraction(raw: &str, flag: &str) -> f64 {
    let f: f64 = parse_num(raw, flag);
    if !(0.0..=1.0).contains(&f) {
        eprintln!("calibrod: {flag} must be within [0, 1], got {raw}");
        usage();
    }
    f
}

/// `ID=unix:PATH` or `ID=tcp:ADDR` — one sibling shard.
fn parse_peer(raw: &str) -> ShardSpec {
    let Some((id, endpoint)) = raw.split_once('=') else {
        eprintln!("calibrod: --peer {raw:?} must be ID=unix:PATH or ID=tcp:ADDR");
        usage();
    };
    let id: u32 = parse_num(id, "--peer");
    match ShardEndpoint::parse(endpoint) {
        Ok(endpoint) => ShardSpec { id, endpoint },
        Err(e) => {
            eprintln!("calibrod: --peer {raw:?}: {e}");
            usage();
        }
    }
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
    if args.config.peers.is_empty() {
        println!(
            "calibrod listening on {endpoint} ({} workers, queue depth {})",
            args.config.workers.max(1),
            args.config.queue_depth,
        );
    } else {
        println!(
            "calibrod shard {} listening on {endpoint} ({} workers, queue depth {}, {} peers)",
            args.config.shard_id,
            args.config.workers.max(1),
            args.config.queue_depth,
            args.config.peers.iter().filter(|p| p.id != args.config.shard_id).count()
        );
    }

    while !sig::termed() && !daemon.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(25));
    }

    println!("calibrod: draining ({} in flight)...", daemon.stats().in_flight);
    let stats = daemon.shutdown();
    println!(
        "calibrod: drained. {} completed, {} rejected overloaded, {} timeouts, \
         cache {} hits / {} misses, {} peer hits, {} peer gets served",
        stats.requests_completed,
        stats.rejected_overloaded,
        stats.deadline_timeouts,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.peer_hits + stats.cache.group_peer_hits,
        stats.peer_gets_served
    );
    ExitCode::SUCCESS
}
