//! # calibro-server
//!
//! `calibrod`: a multi-tenant compile-service daemon around the
//! Calibro pipeline, plus its client library.
//!
//! Many Android build jobs compile overlapping inputs — incremental
//! rebuilds of the same app, CI shards of one repository, a fleet of
//! developer machines behind one cache host. Running each `build()` in
//! its own process wastes the warm [`calibro_cache::ArtifactStore`]:
//! every process re-compiles methods a sibling just finished. The
//! daemon inverts that: one long-lived process owns one shared store
//! (method and group-plan lanes), and every request from every client
//! replays whatever any earlier request already paid for.
//!
//! The moving parts:
//!
//! * [`proto`] — a length-prefixed framed protocol (`[u32 len][u8
//!   kind][body]`) and the one table of message bodies it carries.
//!   Requests carry the full [`calibro::BuildOptions`] plus the
//!   client-computed option/LTBO fingerprints; replies carry the
//!   compiled OAT as ELF bytes plus build statistics.
//!   The codec under the table is [`calibro_dex::wire`], where the
//!   `Wire` trait (one wire form per field type) lives so the cache's
//!   disk and peer frames and the OAT's `.oatdata` are rows of the
//!   same table.
//! * `transport` — the one socket type (Unix domain socket, with a TCP
//!   fallback) the daemon, the client and the fleet's peer connections
//!   all read and write.
//! * [`server`] — the daemon: bounded admission queue (typed
//!   [`ServeError::Overloaded`] on overflow), worker pool over
//!   [`calibro::BuildSession::with_store`], per-request deadlines,
//!   graceful drain on shutdown. Tenant-named builds are sealed as
//!   generation-tagged artifacts; `profile` uploads feed a per-tenant
//!   exponentially-decayed hot set, and an upload whose hot-set drift
//!   crosses the threshold queues a refresh job that re-runs the build
//!   (shelving cold methods to size-first outlining) on the worker pool,
//!   flipping the serving generation atomically so there is never a
//!   serving gap.
//! * [`client`] — the synchronous client used by tests, the loadgen
//!   and external tools. It sends a program whole until the daemon
//!   holds it, then names it by its [`proto::ProgramId`].
//! * [`histogram`] — the lock-free log-scale latency histogram behind
//!   the `stats` request's p50/p95/p99.
//!
//! # Examples
//!
//! ```
//! use calibro_server::{Client, Daemon, Listener, ServerConfig};
//!
//! let dir = std::env::temp_dir().join(format!("calibrod-doc-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).unwrap();
//! let socket = dir.join("calibrod.sock");
//! let daemon = Daemon::start(Listener::unix(&socket)?, ServerConfig::default())?;
//!
//! let mut client = Client::connect_unix(&socket).unwrap();
//! client.ping().unwrap();
//! let stats = client.server_stats().unwrap();
//! assert_eq!(stats.requests_completed, 0);
//!
//! daemon.shutdown();
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod fleet;
pub mod histogram;
mod programs;
pub mod proto;
pub mod server;
mod transport;

pub use calibro_dex::wire::WireError;
pub use client::Client;
pub use error::{ClientError, ServeError};
pub use fleet::{
    rendezvous_order, route, routing_key, shard_score, FleetPeerSource, FleetRouter, ShardEndpoint,
    ShardSpec,
};
pub use histogram::{quantile_us, LatencyHistogram};
pub use proto::{
    BuildReply, BuildRequest, GenerationStats, GenerationStatsRequest, ProfileReply,
    ProfileRequest, ServerStats, DEFAULT_MAX_FRAME,
};
pub use server::{ltbo_fingerprint, Daemon, Listener, ServerConfig};
