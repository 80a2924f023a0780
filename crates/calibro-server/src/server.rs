//! The daemon: a long-lived compile service holding one shared
//! [`ArtifactStore`] across every request, so client B's warm build
//! replays client A's artifacts.
//!
//! # Architecture
//!
//! ```text
//!  accept thread ──► connection threads (1 per client)
//!                        │  decode the header, name the program by the
//!                        │  hash of its bytes (program table: decoded
//!                        │  once, then reused) or by the id it was sent
//!                        │  under, admission-check; a profile upload
//!                        │  past the drift threshold admits a refresh;
//!                        │  a held program's repeat plain build is
//!                        │  answered from its replay slot, never queued
//!                        ▼
//!                 bounded admission queue  ──full──► Overloaded reply
//!                        │
//!                        ▼
//!                 worker pool (N threads)
//!                  the daemon's one BuildSession (shared store, key
//!                  memo); a tenant build or refresh seals and flips
//!                  its generation; a held program's client build
//!                  fills its replay slot
//!                        │
//!                        ▼  (a refresh owes no reply)
//!                 the connection's reply queue ◄── rejections, fetches,
//!                        │                         replays, every other
//!                        │                         reply
//!                        ▼
//!                 its writer thread: the one writer of its socket
//! ```
//!
//! Backpressure is explicit: the queue has a configured depth and a
//! full queue rejects a client build with a typed
//! [`ServeError::Overloaded`] instead of buffering unboundedly; so does
//! a connection whose client leaves more than a frame ceiling of
//! replies unread, because the reader never waits on the client; past
//! twice that, the connection is cut.
//! Deadlines are enforced at dequeue (an expired request is never
//! compiled) and re-checked after the build (a late result is reported
//! as a typed timeout, but its artifacts stay in the shared cache, so
//! the retry is warm). Shutdown drains: stop accepting, finish queued
//! and in-flight work, stop reading, let the writers deliver what is
//! queued, then close.

use std::collections::{HashMap, HashSet};
use std::io;
use std::io::Write as _;
use std::net::{Shutdown, SocketAddr, TcpListener};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, LockResult, Mutex, PoisonError};
use std::time::{Duration, Instant};

use calibro::{
    options_fingerprint, panic_message, BuildOptions, BuildSession, CacheConfig, CacheKey,
    StableHasher,
};
use calibro_cache::ArtifactStore;
use calibro_dex::wire::{self, WireError};
// FNV-1a: the digest `generation-stats` reports for a sealed ELF, so
// external harnesses can assert byte determinism without re-fetching.
pub(crate) use calibro_cache::fnv64 as fnv1a64;
use calibro_dex::DexFile;
use calibro_profile::{DecayedProfile, Profile};

use crate::error::ServeError;
use crate::histogram::LatencyHistogram;
use crate::programs::{apply_edit, ProgramId, ProgramTable, SentPrograms};
use crate::proto::{
    self, BuildEditRequest, BuildHeader, ErrorReply, FrameEvent, GenerationStats,
    GenerationStatsRequest, ProfileReply, ProfileRequest, Request, SealedReply, ServerCounters,
    ServerStats, REQ_BUILD, REQ_BUILD_EDIT, REQ_GENERATION_STATS, REQ_PING, REQ_PROFILE,
    REQ_SHUTDOWN, REQ_STATS, RESP_ERROR, RESP_GENERATION_STATS, RESP_PONG, RESP_PROFILE,
    RESP_SHUTDOWN_ACK, RESP_STATS,
};
use crate::transport::Stream;

/// Fraction of decayed cycle weight a tenant's hot set must cover (the
/// paper's PlOpti hot-set fraction).
pub const HOT_FRACTION: f64 = 0.8;

/// Configuration of one daemon.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads compiling requests.
    pub workers: usize,
    /// Admission-queue depth; a full queue rejects with
    /// [`ServeError::Overloaded`].
    pub queue_depth: usize,
    /// Ceiling on one protocol frame (kind byte + body).
    pub max_frame: u64,
    /// Configuration of the shared artifact store (set
    /// [`CacheConfig::disk_dir`] for persistence across restarts).
    pub cache: CacheConfig,
    /// Drift (symmetric-difference weight between the serving hot set
    /// and the freshly recomputed one, in `[0, 1]`) at or above which a
    /// profile upload schedules a background re-optimization.
    pub drift_threshold: f64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_depth: 64,
            max_frame: proto::DEFAULT_MAX_FRAME,
            cache: CacheConfig::default(),
            drift_threshold: 0.25,
        }
    }
}

/// The transport the daemon listens on.
pub enum Listener {
    /// A Unix domain socket (the default transport).
    #[cfg(unix)]
    Unix {
        /// The bound listener.
        listener: UnixListener,
        /// The socket path, unlinked on shutdown.
        path: PathBuf,
    },
    /// A TCP socket (`--listen` fallback for hosts without UDS).
    Tcp(TcpListener),
}

impl Listener {
    /// Binds a Unix domain socket at `path`, replacing a stale socket
    /// file from a previous run.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    #[cfg(unix)]
    pub fn unix(path: impl AsRef<Path>) -> io::Result<Listener> {
        let path = path.as_ref().to_path_buf();
        let _ = std::fs::remove_file(&path);
        Ok(Listener::Unix { listener: UnixListener::bind(&path)?, path })
    }

    /// Binds a TCP listener (use port 0 to let the OS pick).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn tcp(addr: &str) -> io::Result<Listener> {
        Ok(Listener::Tcp(TcpListener::bind(addr)?))
    }

    /// The TCP address actually bound, when this is a TCP listener.
    #[must_use]
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        match self {
            Listener::Tcp(l) => l.local_addr().ok(),
            #[cfg(unix)]
            Listener::Unix { .. } => None,
        }
    }
}

/// One admitted compile job: a client's build request, or a tenant's
/// drift-triggered refresh.
struct Job {
    /// The request's id (0 for a refresh).
    request_id: u64,
    /// The program table's entry (or a program it does not hold).
    dex: Arc<DexFile>,
    /// The id of `dex`, whose replay slot a client build fills; `None`
    /// for an edit that changes its base (whose program the table never
    /// holds) and a refresh.
    program: Option<ProgramId>,
    options: BuildOptions,
    /// The fingerprints of `options`, as admission cross-checked them —
    /// echoed in the reply.
    options_fp: CacheKey,
    ltbo_fp: Option<CacheKey>,
    /// The request's deadline budget (none for a refresh).
    budget: Option<Duration>,
    enqueued: Instant,
    /// The requesting connection's replies; `None` for a refresh.
    replies: Option<Replies>,
    /// The tenant (always named by a refresh) and its program identity:
    /// the finished build is sealed as the tenant's generation.
    tenant: Option<TenantJob>,
}

impl Job {
    /// Answers the request with `error`; a refresh has no one to tell.
    fn error(&self, error: ServeError) {
        if let Some(replies) = &self.replies {
            replies.error(self.request_id, error);
        }
    }
}

/// The tenant attribution of an admitted build.
struct TenantJob {
    name: String,
    identity: CacheKey,
}

/// One sealed, immutable artifact generation for a tenant. Every
/// request answered between two flips sees exactly these bytes, which
/// is the byte-determinism-within-a-generation guarantee: the flip
/// replaces the whole `Arc` under the tenant lock, so no reader ever
/// observes a half-updated artifact.
struct SealedGeneration {
    id: u64,
    /// The hot set this generation was compiled under (`None` means
    /// unrestricted outlining), the baseline drift is measured against.
    hot_set: Option<HashSet<u32>>,
    elf_fnv: u64,
    /// The reply that answers a fetch; its ELF may be the one its
    /// program's replay slot holds.
    reply: SealedReply,
}

/// The program a tenant registered via its first build: what a refresh
/// recompiles when drift crosses the threshold.
struct TenantProgram {
    identity: CacheKey,
    dex: Arc<DexFile>,
    options: BuildOptions,
}

/// Per-tenant state: the decayed profile accumulator, the registered
/// program, and the serving generation.
struct TenantState {
    profile: DecayedProfile,
    program: Option<TenantProgram>,
    serving: Option<Arc<SealedGeneration>>,
    refresh_in_flight: bool,
    refreshes_triggered: u64,
    /// Generation ids are minted from this count, so they start at 1
    /// and stay monotonic across program changes.
    generations_sealed: u64,
}

impl TenantState {
    fn new() -> TenantState {
        let (num, den) = DecayedProfile::DEFAULT_DECAY;
        TenantState {
            profile: DecayedProfile::new(num, den).expect("default decay is valid"),
            program: None,
            serving: None,
            refresh_in_flight: false,
            refreshes_triggered: 0,
            generations_sealed: 0,
        }
    }
}

/// The program identity a tenant's builds are grouped under: the dex
/// salt (`salt`, which the request path has in hand as the program's
/// table key) plus the fingerprint of the options *with the hot set
/// stripped*. Hot-set changes are generation-level (the daemon rewrites
/// them on refresh), not program-level, so a client re-fetching with a
/// newer local hot filter still lands on the same tenant program.
fn tenant_identity(salt: CacheKey, options: &mut BuildOptions) -> CacheKey {
    let hot = options.hot_methods.take();
    let base_fp = options_fingerprint(options);
    options.hot_methods = hot;
    let mut h = StableHasher::new();
    h.write_tag(b'T');
    h.write_wire(&salt);
    h.write_wire(&base_fp);
    h.finish()
}

/// Converts a drift fraction to parts-per-million for the wire.
fn to_ppm(drift: f64) -> u64 {
    (drift.clamp(0.0, 1.0) * 1_000_000.0).round() as u64
}

/// A server lock or condvar wait, recovered from poison (DESIGN.md §7
/// "Lock policy"): no critical section below leaves state a later
/// holder would misread, so one panicking holder costs one request.
fn recover<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

/// A connection's reply queue: whole frames, queued by its connection
/// thread and by the workers finishing its jobs (each job holds a
/// clone), written by its one writer thread ([`write_replies`]).
/// `backlog` counts what the frames queued and not yet written cost;
/// `peak` is the daemon's record of the largest backlog any connection
/// reached.
#[derive(Clone)]
struct Replies {
    frames: mpsc::Sender<Vec<u8>>,
    backlog: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

/// What a queued frame costs the backlog: its bytes, its allocation and
/// its queue slot — what a flood of tiny replies really holds.
fn cost(frame: &[u8]) -> u64 {
    frame.len() as u64 + 64
}

impl Replies {
    fn send(&self, kind: u8, body: &[u8]) {
        self.send_frame(proto::frame(kind, body));
    }

    fn send_frame(&self, frame: Vec<u8>) {
        let cost = cost(&frame);
        let backlog = self.backlog.fetch_add(cost, Ordering::Relaxed) + cost;
        self.peak.fetch_max(backlog, Ordering::Relaxed);
        // The writer outlives every sender, so this cannot fail.
        let _ = self.frames.send(frame);
    }

    fn error(&self, request_id: u64, error: ServeError) {
        self.send(RESP_ERROR, &ErrorReply { request_id, error }.encode());
    }
}

/// The one function that writes to a connection's socket. Writes every
/// queued frame and flushes only when the queue is empty, so the
/// replies to a pipelined batch coalesce into few socket writes
/// (DESIGN.md §11 rule 2). A vanished client is not a daemon error:
/// once a write fails the rest of the queue is discarded, and the
/// reader observes the hangup. Returns when every sender is gone.
fn write_replies(stream: Stream, frames: mpsc::Receiver<Vec<u8>>, backlog: &AtomicU64) {
    let mut out = io::BufWriter::with_capacity(64 * 1024, stream);
    let mut alive = true;
    while let Ok(first) = frames.recv() {
        for frame in std::iter::once(first).chain(frames.try_iter()) {
            alive = alive && out.write_all(&frame).is_ok();
            backlog.fetch_sub(cost(&frame), Ordering::Relaxed);
        }
        alive = alive && out.flush().is_ok();
    }
}

/// State shared by the accept loop, connection threads and workers.
struct Shared {
    config: ServerConfig,
    /// The one session every job builds through: the shared store and
    /// the key memo that lets a resent or edited program hash only its
    /// new methods.
    session: BuildSession,
    /// Decoded programs by the hash of their wire bytes.
    programs: ProgramTable,
    /// Client builds and refreshes, popped by the worker pool.
    queue: Mutex<std::collections::VecDeque<Job>>,
    queue_cv: Condvar,
    /// Set under `queue`'s lock, which [`Shared::admit`] reads it under.
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
    started: Instant,
    /// The counted rows of the stats table.
    counters: ServerCounters,
    /// Per-tenant profile accumulators and serving generations. Never
    /// held across a build (a worker compiles unlocked, then re-locks
    /// for the atomic flip), nor while `queue` is taken.
    tenants: Mutex<HashMap<String, TenantState>>,
    histogram: LatencyHistogram,
    /// The largest reply backlog any connection reached (see [`Replies`]).
    peak_backlog: Arc<AtomicU64>,
    /// A handle to every open connection, for the drain to shut down;
    /// a connection leaves once its writer has finished.
    conns: Mutex<HashMap<u64, Stream>>,
    next_conn_id: AtomicU64,
    /// Makes the next job's [`build_and_seal`] panic after its build,
    /// where no containment of the build's own reaches.
    #[cfg(test)]
    panic_after_build: AtomicBool,
}

impl Shared {
    fn stats(&self) -> ServerStats {
        // One lock at a time: a snapshot never holds the queue while it
        // waits on the tenant table or the store's lanes.
        let queue_depth = recover(self.queue.lock()).len() as u64;
        let tenants = recover(self.tenants.lock()).len() as u64;
        let cache = self.session.store().stats();
        ServerStats {
            uptime_us: self.started.elapsed().as_micros().min(u128::from(u64::MAX)) as u64,
            workers: self.config.workers.max(1) as u64,
            queue_capacity: self.config.queue_depth as u64,
            queue_depth,
            tenants,
            latency_buckets: self.histogram.snapshot(),
            cache,
            ..self.counters.snapshot()
        }
    }

    /// Admits `job` unless the daemon is draining — checked under the
    /// lock the flag is set under, so every admitted job runs. A full
    /// queue refuses a client build; a refresh takes a slot but is never
    /// refused for depth (`refresh_in_flight` allows one per tenant). A
    /// client build is counted before a worker can take it, so no reply
    /// precedes its count.
    fn admit(&self, job: Job) -> Result<(), ServeError> {
        let mut queue = recover(self.queue.lock());
        if self.draining.load(Ordering::SeqCst) {
            return Err(ServeError::Draining);
        }
        if job.replies.is_some() {
            if queue.len() >= self.config.queue_depth.max(1) {
                return Err(self.overloaded(self.config.queue_depth));
            }
            self.counters.requests_admitted.fetch_add(1, Ordering::Relaxed);
        }
        queue.push_back(job);
        drop(queue);
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Counts one rejection for the bound `capacity` that was hit.
    fn overloaded(&self, capacity: usize) -> ServeError {
        self.counters.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
        ServeError::Overloaded { capacity }
    }
}

/// The LTBO-config fingerprint derived from `options` (`None` when LTBO
/// is off) — the second fingerprint a build request carries.
#[must_use]
pub fn ltbo_fingerprint(options: &BuildOptions) -> Option<CacheKey> {
    options.ltbo_config().map(|config| {
        let mut h = StableHasher::new();
        calibro::fingerprint_ltbo_config(&config, &mut h);
        h.finish()
    })
}

/// How long a drain lets the connections' writers deliver the replies
/// already queued before it cuts the connections that remain.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// A running daemon. Dropping the handle without calling
/// [`shutdown`](Daemon::shutdown) leaves the background threads
/// running for the life of the process.
pub struct Daemon {
    shared: Arc<Shared>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    socket_path: Option<PathBuf>,
}

impl Daemon {
    /// Starts the daemon: spawns the worker pool and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates listener configuration failures.
    pub fn start(listener: Listener, config: ServerConfig) -> io::Result<Daemon> {
        let store = Arc::new(ArtifactStore::new(config.cache.clone()));
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            session: BuildSession::with_store(store),
            programs: ProgramTable::default(),
            queue: Mutex::new(std::collections::VecDeque::new()),
            queue_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            started: Instant::now(),
            counters: ServerCounters::default(),
            tenants: Mutex::new(HashMap::new()),
            histogram: LatencyHistogram::new(),
            peak_backlog: Arc::default(),
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            #[cfg(test)]
            panic_after_build: AtomicBool::new(false),
        });

        let worker_handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("calibrod-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let socket_path = match &listener {
            #[cfg(unix)]
            Listener::Unix { path, .. } => Some(path.clone()),
            Listener::Tcp(_) => None,
        };
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("calibrod-accept".to_owned())
            .spawn(move || accept_loop(listener, &accept_shared))?;

        Ok(Daemon { shared, accept_handle: Some(accept_handle), worker_handles, socket_path })
    }

    /// A point-in-time stats snapshot (same data the `stats` request
    /// returns).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// The most reply bytes one connection has had queued and not yet
    /// written to its socket since the daemon started, each frame
    /// charged 64 bytes over its length. Replies are queued while a
    /// connection's backlog is at most the frame ceiling and rejections
    /// while it is at most two, so this stays within two ceilings and
    /// the one frame that crossed the second — whatever a client that
    /// does not read leaves to the kernel's socket buffer.
    #[must_use]
    pub fn peak_reply_backlog(&self) -> u64 {
        self.shared.peak_backlog.load(Ordering::Relaxed)
    }

    /// `true` once a client sent the `shutdown` request; the embedding
    /// process should then call [`shutdown`](Daemon::shutdown).
    #[must_use]
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Drains gracefully: stops accepting, lets the workers finish
    /// every queued and in-flight request, stops reading, and gives the
    /// connections' writers up to five seconds to deliver every queued
    /// reply before cutting the connections of clients that do not
    /// read them. Returns the final stats snapshot.
    pub fn shutdown(mut self) -> ServerStats {
        // Set under the queue lock: a worker that read the flag clear is
        // waiting on the condvar by the time the lock is free, so the
        // notify reaches it.
        let queue = recover(self.shared.queue.lock());
        self.shared.draining.store(true, Ordering::SeqCst);
        drop(queue);
        self.shared.queue_cv.notify_all();
        // Workers pop before they read the flag, so every admitted job
        // runs first — a scheduled refresh flips before the daemon
        // exits, and a restart never resurrects a stale hot set that a
        // client was told had been superseded.
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // Workers are done: every admitted request has its reply
        // queued. Shutting the read halves ends each connection loop;
        // its writer delivers the queue, the connection leaves the
        // registry and its thread lets go of the shared state, so the
        // store, and the lock on each of its logs, goes with the daemon.
        // A client that does not read is cut after the grace.
        let shutdown_all = |how| {
            recover(self.shared.conns.lock()).values().for_each(|stream| stream.shutdown(how));
        };
        shutdown_all(Shutdown::Read);
        let grace = Instant::now() + DRAIN_GRACE;
        while Arc::strong_count(&self.shared) > 1 && Instant::now() < grace {
            std::thread::sleep(Duration::from_millis(5));
        }
        shutdown_all(Shutdown::Both);
        if let Some(path) = &self.socket_path {
            let _ = std::fs::remove_file(path);
        }
        // Persist what the best-effort insert-time writes missed, so a
        // daemon restarted over the same directory finds every artifact
        // this one paid for as a disk hit.
        self.shared.session.store().flush_to_disk();
        self.shared.stats()
    }
}

fn accept_loop(listener: Listener, shared: &Arc<Shared>) {
    let set_nonblocking = |on: bool| match &listener {
        #[cfg(unix)]
        Listener::Unix { listener, .. } => listener.set_nonblocking(on),
        Listener::Tcp(l) => l.set_nonblocking(on),
    };
    if set_nonblocking(true).is_err() {
        return;
    }
    while !shared.draining.load(Ordering::SeqCst) {
        let accepted: io::Result<Stream> = match &listener {
            #[cfg(unix)]
            Listener::Unix { listener, .. } => listener.accept().map(|(s, _)| Stream::Unix(s)),
            Listener::Tcp(l) => l.accept().map(|(s, _)| Stream::Tcp(s)),
        };
        match accepted {
            Ok(stream) => {
                shared.counters.accepted_connections.fetch_add(1, Ordering::Relaxed);
                shared.counters.open_connections.fetch_add(1, Ordering::Relaxed);
                let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
                if let Ok(registry_clone) = stream.try_clone() {
                    recover(shared.conns.lock()).insert(conn_id, registry_clone);
                }
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new().name(format!("calibrod-conn-{conn_id}")).spawn(
                    move || {
                        connection_loop(stream, conn_id, &shared);
                        recover(shared.conns.lock()).remove(&conn_id);
                        shared.counters.open_connections.fetch_sub(1, Ordering::Relaxed);
                    },
                );
            }
            // Nothing to accept yet (or a transient failure): poll again.
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// The connection's reader: it spawns the connection's writer, then
/// reads and handles frames until the client hangs up. It never writes
/// and never waits on the client, so a client that writes a long
/// pipeline before reading anything cannot wedge it.
fn connection_loop(stream: Stream, conn_id: u64, shared: &Arc<Shared>) {
    let Ok(write_half) = stream.try_clone() else { return };
    let (frames, queued) = mpsc::channel();
    let replies =
        Replies { frames, backlog: Arc::default(), peak: Arc::clone(&shared.peak_backlog) };
    let backlog = Arc::clone(&replies.backlog);
    let Ok(writer) = std::thread::Builder::new()
        .name(format!("calibrod-reply-{conn_id}"))
        .spawn(move || write_replies(write_half, queued, &backlog))
    else {
        return;
    };
    // Buffered: a pipelined batch of small requests would otherwise
    // cost two read syscalls per frame.
    let mut reader = io::BufReader::with_capacity(64 * 1024, stream);
    let mut sent = SentPrograms::default();
    let ceiling = shared.config.max_frame;
    loop {
        match proto::read_frame(&mut reader, ceiling) {
            // The reader does not wait for the client to read: past a
            // frame ceiling of unread replies each request is rejected,
            // and past two its rejections are not being read either, so
            // the connection is cut (the request counted, unanswered).
            Ok(FrameEvent::Frame { kind, body }) => match replies.backlog.load(Ordering::Relaxed) {
                backlog if backlog <= ceiling => {
                    handle_frame(kind, &body, &mut sent, &replies, shared);
                }
                backlog if backlog <= ceiling.saturating_mul(2) => {
                    let id = proto::request_id_of(&body);
                    replies.error(id, shared.overloaded(ceiling as usize));
                }
                _ => {
                    shared.overloaded(ceiling as usize);
                    reader.get_ref().shutdown(Shutdown::Both);
                    break;
                }
            },
            Ok(FrameEvent::Eof) => break,
            Ok(FrameEvent::MidFrameDisconnect) => {
                shared.counters.mid_frame_disconnects.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Ok(FrameEvent::TooLarge { claimed }) => {
                shared.counters.oversized_frames.fetch_add(1, Ordering::Relaxed);
                replies.error(0, ServeError::FrameTooLarge { claimed, limit: ceiling });
                // The stream cannot be resynchronized after a bogus
                // length prefix: close this connection (others live on).
                break;
            }
            Err(_) => break,
        }
    }
    // The writer delivers what is queued, and what the jobs still in
    // flight will queue (each holds a sender), then returns.
    drop(replies);
    let _ = writer.join();
}

/// Handles one intact frame. Whatever the body holds, the frame
/// boundary is intact, so the connection keeps serving afterwards.
/// `sent` is the connection's record of the programs it sent whole.
fn handle_frame(
    kind: u8,
    body: &[u8],
    sent: &mut SentPrograms,
    replies: &Replies,
    shared: &Arc<Shared>,
) {
    match kind {
        REQ_BUILD => handle_build(body, sent, replies, shared),
        REQ_BUILD_EDIT => match BuildEditRequest::decode(body) {
            Ok(request) => handle_build_edit(request, sent, replies, shared),
            Err(e) => reject_malformed(body, e, replies, shared),
        },
        REQ_PROFILE => decode_or_reject(body, replies, shared, handle_profile),
        REQ_GENERATION_STATS => decode_or_reject(body, replies, shared, handle_generation_stats),
        REQ_STATS => replies.send(RESP_STATS, &shared.stats().encode()),
        REQ_PING => replies.send(RESP_PONG, body),
        REQ_SHUTDOWN => {
            shared.shutdown_requested.store(true, Ordering::SeqCst);
            replies.send(RESP_SHUTDOWN_ACK, &[]);
        }
        other => {
            shared.counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
            let detail = format!("unknown request kind {other:#04x}");
            replies.error(0, ServeError::Malformed { detail });
        }
    }
}

/// The one request path: decodes the body and runs the kind's handler
/// on it, or rejects it.
fn decode_or_reject<R: Request>(
    body: &[u8],
    replies: &Replies,
    shared: &Arc<Shared>,
    handler: fn(R, &Replies, &Arc<Shared>),
) {
    match wire::decode(body) {
        Ok(request) => handler(request, replies, shared),
        Err(e) => reject_malformed(body, e, replies, shared),
    }
}

/// A body that does not decode is counted and answered with a typed
/// [`ServeError::Malformed`], echoing the id on a best-effort basis: it
/// usually survives even when the rest of the body is garbage.
fn reject_malformed(body: &[u8], error: WireError, replies: &Replies, shared: &Arc<Shared>) {
    malformed(proto::request_id_of(body), ServeError::from(error), replies, shared);
}

/// Counts a malformed request and answers it with `error`.
fn malformed(request_id: u64, error: ServeError, replies: &Replies, shared: &Shared) {
    shared.counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
    replies.error(request_id, error);
}

/// One build request with its program whole: the header decoded, the
/// program named by the hash of its bytes and taken from the program
/// table — decoded here only when the table does not hold it — and
/// recorded as sent on this connection. A header or a program that
/// does not decode is rejected exactly as a whole-body decode would.
fn handle_build(body: &[u8], sent: &mut SentPrograms, replies: &Replies, shared: &Arc<Shared>) {
    let (request, program) = match BuildHeader::split(body) {
        Ok(split) => split,
        Err(e) => return reject_malformed(body, e, replies, shared),
    };
    let program_id = ProgramId::of(program);
    let dex = match shared.programs.get(program_id) {
        Some(dex) => {
            shared.counters.programs_reused.fetch_add(1, Ordering::Relaxed);
            dex
        }
        None => match wire::decode::<DexFile>(program) {
            Ok(dex) => {
                shared.counters.programs_decoded.fetch_add(1, Ordering::Relaxed);
                shared.programs.offer(program_id, dex)
            }
            Err(e) => return reject_malformed(body, e, replies, shared),
        },
    };
    sent.touch(program_id);
    build_with(request, Some(program_id), dex, replies, shared);
}

/// One build request that names its program: a held base its
/// connection sent whole (else the typed `UnknownProgram` asks the
/// client to send it whole), and the rows that change it. With no rows
/// and the base's own count it is a build by reference: the held
/// program itself, which may name a tenant and fills and reads its
/// replay slot. Otherwise the rows are applied to a clone of the base,
/// which is neither offered to the table nor recorded as sent; a
/// tenant's builds are grouped by the whole program's id, which such an
/// edit does not carry, so naming one is malformed. The base's use is
/// recorded either way.
fn handle_build_edit(
    request: BuildEditRequest,
    sent: &mut SentPrograms,
    replies: &Replies,
    shared: &Arc<Shared>,
) {
    let BuildEditRequest { header, base, count, rows } = request;
    let held = sent.contains(base).then(|| shared.programs.get(base)).flatten();
    let Some(base_dex) = held else {
        return replies.error(header.request_id, ServeError::UnknownProgram);
    };
    let (program, dex, counter) = if rows.is_empty() && count as usize == base_dex.methods().len() {
        (Some(base), base_dex, &shared.counters.programs_by_reference)
    } else if header.tenant.is_some() {
        let detail = "an edit that changes its base names no tenant".to_owned();
        return malformed(header.request_id, ServeError::Malformed { detail }, replies, shared);
    } else {
        match apply_edit(&base_dex, count, rows) {
            Ok(dex) => (None, Arc::new(dex), &shared.counters.programs_by_edit),
            Err(detail) => {
                let error = ServeError::Malformed { detail };
                return malformed(header.request_id, error, replies, shared);
            }
        }
    };
    counter.fetch_add(1, Ordering::Relaxed);
    sent.touch(base);
    build_with(header, program, dex, replies, shared);
}

/// Everything after the program is found, for every build kind: the
/// drain and fingerprint checks, a tenant fetch answered from its
/// sealed generation, a plain build answered from its program's replay
/// slot, or admission to the queue. `program` is the id of `dex`, which
/// a tenant's builds are grouped under; an edit that changes its base,
/// which names no tenant and builds a program the table does not hold,
/// passes `None`.
fn build_with(
    mut request: BuildHeader,
    program: Option<ProgramId>,
    dex: Arc<DexFile>,
    replies: &Replies,
    shared: &Arc<Shared>,
) {
    if shared.draining.load(Ordering::SeqCst) {
        return replies.error(request.request_id, ServeError::Draining);
    }
    // Cross-check the client's fingerprints against our own view of
    // the decoded payload: a mismatch means codec or schema drift and
    // must fail loudly, not poison the shared cache.
    if options_fingerprint(&request.options) != request.options_fp
        || ltbo_fingerprint(&request.options) != request.ltbo_fp
    {
        return replies.error(request.request_id, ServeError::FingerprintMismatch);
    }
    // A tenant request is answered from the sealed serving generation
    // when one exists for this program: this path never waits on the
    // build queue, which is what "no serving gap" means — the old
    // artifact keeps serving while a refresh compiles in background.
    let mut tenant_job = None;
    if let (Some(name), Some(id)) = (&request.tenant, program) {
        let identity = tenant_identity(id.key, &mut request.options);
        let serving = {
            let tenants = recover(shared.tenants.lock());
            tenants.get(name).and_then(|state| {
                let program = state.program.as_ref()?;
                (program.identity == identity).then(|| state.serving.clone()).flatten()
            })
        };
        if let Some(sealed) = serving {
            shared.counters.requests_completed.fetch_add(1, Ordering::Relaxed);
            shared.histogram.record(Duration::ZERO);
            return replies.send_frame(sealed.reply.frame(request.request_id));
        }
        tenant_job = Some(TenantJob { name: name.clone(), identity });
    } else if let Some(sealed) =
        program.and_then(|id| shared.programs.replay(id, request.options_fp, request.ltbo_fp))
    {
        // A plain build of a held program under its last client build's
        // options: the same bytes, answered without queueing.
        shared.counters.builds_replayed.fetch_add(1, Ordering::Relaxed);
        shared.counters.requests_completed.fetch_add(1, Ordering::Relaxed);
        shared.histogram.record(Duration::ZERO);
        return replies.send_frame(sealed.frame(request.request_id));
    }
    let job = Job {
        request_id: request.request_id,
        dex,
        program,
        options: request.options,
        options_fp: request.options_fp,
        ltbo_fp: request.ltbo_fp,
        budget: request.deadline,
        enqueued: Instant::now(),
        replies: Some(replies.clone()),
        tenant: tenant_job,
    };
    if let Err(error) = shared.admit(job) {
        replies.error(request.request_id, error);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = recover(shared.queue.lock());
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                queue = recover(shared.queue_cv.wait(queue));
            }
        };
        let Some(job) = job else { return };
        shared.counters.in_flight.fetch_add(1, Ordering::Relaxed);
        run_job(&job, shared);
        shared.counters.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

fn expired(job: &Job) -> bool {
    job.budget.is_some_and(|budget| job.enqueued.elapsed() >= budget)
}

fn run_job(job: &Job, shared: &Arc<Shared>) {
    // Deadline check 1 — at dequeue: an already-expired request is
    // never compiled (it only would have blocked fresher work).
    if expired(job) {
        return timed_out(job, shared);
    }
    // A build contains a panic in one method's compile or one group's
    // detection itself; one that escapes it (the link, the ELF writer,
    // the seal) is this job's build error here, not its worker's death.
    let built = panic::catch_unwind(AssertUnwindSafe(|| build_and_seal(job, shared)))
        .unwrap_or_else(|payload| Err(format!("build panicked: {}", panic_message(payload))));
    match built {
        Ok(Some(frame)) => {
            let Some(replies) = &job.replies else { return };
            // Count *before* sending: a client that has the reply in
            // hand must observe this request in a stats snapshot.
            shared.counters.requests_completed.fetch_add(1, Ordering::Relaxed);
            shared.histogram.record(job.enqueued.elapsed());
            replies.send_frame(frame);
        }
        Ok(None) => {}
        Err(detail) => {
            shared.counters.build_errors.fetch_add(1, Ordering::Relaxed);
            job.error(ServeError::Build { detail });
            if let (None, Some(tenant)) = (&job.replies, &job.tenant) {
                // A failed refresh leaves the old generation serving;
                // the next upload past the threshold schedules another.
                if let Some(state) = recover(shared.tenants.lock()).get_mut(&tenant.name) {
                    state.refresh_in_flight = false;
                }
            }
        }
    }
}

/// Answers `job` with a typed deadline timeout.
fn timed_out(job: &Job, shared: &Shared) {
    shared.counters.deadline_timeouts.fetch_add(1, Ordering::Relaxed);
    let budget_ms = job.budget.map_or(0, |d| d.as_millis().min(u128::from(u32::MAX)));
    job.error(ServeError::DeadlineExceeded { deadline_ms: budget_ms as u32 });
}

/// Builds `job` through the daemon's session and seals it: the frame
/// to answer with (`None` when there is no one to answer, or the
/// deadline passed and the timeout was answered), or the build error.
fn build_and_seal(job: &Job, shared: &Arc<Shared>) -> Result<Option<Vec<u8>>, String> {
    let build_start = Instant::now();
    let mut output = shared.session.build(&job.dex, &job.options).map_err(|e| e.to_string())?;
    let build_us = build_start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
    #[cfg(test)]
    if shared.panic_after_build.swap(false, Ordering::SeqCst) {
        panic!("injected panic after the build");
    }
    // Deadline check 2 — after the build: the client asked for a bound,
    // so a late result is reported as a typed timeout. The compiled
    // artifacts are already in the shared store, so an immediate retry
    // replays them warm.
    if expired(job) {
        timed_out(job, shared);
        return Ok(None);
    }
    // Serialised before the tenant lock is taken.
    let elf = Arc::new(calibro_oat::to_elf_bytes(&output.oat));
    // Generation 0: a tenant build's generation is stamped in the seal.
    let built = sealed_reply(job, &output, Arc::clone(&elf), build_us);
    let frame = match &job.tenant {
        // Seal the build as this tenant's next generation and answer
        // from the sealed bytes: if a concurrent build of the same
        // program won the race, the reply carries the winner's
        // generation so every client sees one artifact.
        Some(tenant) => seal_generation(shared, tenant, job, &mut output, elf, build_us)
            .filter(|_| job.replies.is_some())
            .map(|sealed| sealed.reply.frame(job.request_id)),
        None => Some(built.frame(job.request_id)),
    };
    // A client build of a held program is what a repeat of it is
    // answered with, reporting what a repeat costs: nothing compiled,
    // nothing probed, no build time. Filled before the reply is sent,
    // so the client's next request finds it.
    if let Some(id) = job.program.filter(|_| job.replies.is_some()) {
        let replayed = SealedReply {
            methods_from_cache: built.methods,
            cache_hits: 0,
            cache_misses: 0,
            build_us: 0,
            ..built
        };
        shared.programs.seal(id, Arc::new(replayed));
    }
    Ok(frame)
}

/// The reply to `job`'s finished build, whose ELF is `elf`; its
/// generation is the one the build was stamped with (0 for a plain
/// build).
fn sealed_reply(
    job: &Job,
    output: &calibro::BuildOutput,
    elf: Arc<Vec<u8>>,
    build_us: u64,
) -> SealedReply {
    SealedReply {
        options_fp: job.options_fp,
        ltbo_fp: job.ltbo_fp,
        elf,
        methods: output.stats.methods as u64,
        methods_from_cache: output.stats.methods_from_cache as u64,
        cache_hits: output.stats.cache.hits,
        cache_misses: output.stats.cache.misses,
        build_us,
        generation: output.stats.generation,
        stats_json: output.stats.to_json(),
    }
}

/// The atomic flip of a finished tenant build — a client's or a
/// refresh's: mints the next generation id, stamps it into the build
/// stats, seals the artifact as its reply frame, then serves it. A
/// client build registers its program, and is answered with the
/// existing generation when a racing build of the same program and
/// options sealed first. A refresh flips only while the program it
/// compiled is still registered (`None` otherwise).
fn seal_generation(
    shared: &Shared,
    tenant: &TenantJob,
    job: &Job,
    output: &mut calibro::BuildOutput,
    elf: Arc<Vec<u8>>,
    build_us: u64,
) -> Option<Arc<SealedGeneration>> {
    let mut tenants = recover(shared.tenants.lock());
    let state = tenants.entry(tenant.name.clone()).or_insert_with(TenantState::new);
    let registered = state.program.as_ref().map(|p| p.identity == tenant.identity);
    let refresh = job.replies.is_none();
    if refresh {
        state.refresh_in_flight = false;
        if registered != Some(true) {
            return None;
        }
    } else if let (Some(true), Some(serving)) = (registered, &state.serving) {
        if serving.reply.options_fp == job.options_fp {
            return Some(Arc::clone(serving));
        }
    }
    let id = state.generations_sealed + 1;
    output.stats.generation = id;
    let sealed = Arc::new(SealedGeneration {
        id,
        hot_set: job.options.hot_methods.clone(),
        elf_fnv: fnv1a64(&elf),
        reply: sealed_reply(job, output, elf, build_us),
    });
    state.serving = Some(Arc::clone(&sealed));
    state.generations_sealed = id;
    shared.counters.generations_sealed.fetch_add(1, Ordering::Relaxed);
    if !refresh {
        if registered == Some(false) {
            // A different program under the same tenant name: the
            // decayed profile attributes cycles to the old method-id
            // space, so it must start over. Generation ids stay
            // monotonic across the change so observers never see them
            // run backwards.
            state.profile = TenantState::new().profile;
        }
        let (dex, options) = (Arc::clone(&job.dex), job.options.clone());
        state.program = Some(TenantProgram { identity: tenant.identity, dex, options });
    }
    Some(sealed)
}

/// One profile upload: parse, fold into the tenant's decayed
/// accumulator, measure drift against the serving hot set, and admit a
/// refresh job when it crosses the threshold.
fn handle_profile(request: ProfileRequest, replies: &Replies, shared: &Arc<Shared>) {
    if shared.draining.load(Ordering::SeqCst) {
        return replies.error(request.request_id, ServeError::Draining);
    }
    let profile = match Profile::from_text(&request.profile_text) {
        Ok(profile) => profile,
        Err(e) => {
            // The typed parse error carries the 1-based line number and
            // the offending text; forward it verbatim so the client can
            // pinpoint the bad line.
            shared.counters.malformed_frames.fetch_add(1, Ordering::Relaxed);
            let detail = format!("profile: {e}");
            return replies.error(request.request_id, ServeError::Malformed { detail });
        }
    };
    let (mut reply, refresh) = {
        let mut tenants = recover(shared.tenants.lock());
        let state = tenants.entry(request.tenant.clone()).or_insert_with(TenantState::new);
        state.profile.record(&profile);
        let serving_set =
            state.serving.as_ref().and_then(|s| s.hot_set.clone()).unwrap_or_default();
        let drift = state.profile.drift(&serving_set, HOT_FRACTION).unwrap_or(0.0);
        // The refresh is snapshotted under the lock this upload holds:
        // the registered program, under the hot set just computed.
        let refresh = match (&state.program, &state.serving) {
            (Some(program), Some(_))
                if drift >= shared.config.drift_threshold && !state.refresh_in_flight =>
            {
                state.profile.hot_set(HOT_FRACTION).ok().map(|hot| {
                    let options = program.options.clone().with_hot_filter(hot);
                    let tenant =
                        TenantJob { name: request.tenant.clone(), identity: program.identity };
                    Job {
                        request_id: 0,
                        dex: Arc::clone(&program.dex),
                        program: None,
                        options_fp: options_fingerprint(&options),
                        ltbo_fp: ltbo_fingerprint(&options),
                        options,
                        budget: None,
                        enqueued: Instant::now(),
                        replies: None,
                        tenant: Some(tenant),
                    }
                })
            }
            _ => None,
        };
        if refresh.is_some() {
            state.refresh_in_flight = true;
            state.refreshes_triggered += 1;
        }
        (
            ProfileReply {
                request_id: request.request_id,
                uploads: state.profile.uploads(),
                tracked_methods: state.profile.tracked_methods() as u64,
                drift_ppm: to_ppm(drift),
                refresh_scheduled: false,
                serving_generation: state.serving.as_ref().map_or(0, |s| s.id),
            },
            refresh,
        )
    };
    shared.counters.profile_uploads.fetch_add(1, Ordering::Relaxed);
    if let Some(job) = refresh {
        reply.refresh_scheduled = shared.admit(job).is_ok();
        if reply.refresh_scheduled {
            shared.counters.refreshes_triggered.fetch_add(1, Ordering::Relaxed);
        } else if let Some(state) = recover(shared.tenants.lock()).get_mut(&request.tenant) {
            // The drain began after the check above: no worker would
            // run the refresh, so it was never scheduled.
            state.refresh_in_flight = false;
            state.refreshes_triggered -= 1;
        }
    }
    replies.send(RESP_PROFILE, &reply.encode());
}

/// A point-in-time snapshot of one tenant's generation state; an
/// unregistered tenant gets an all-zeros reply with `registered:
/// false` rather than an error, so pollers need no special casing.
fn handle_generation_stats(
    request: GenerationStatsRequest,
    replies: &Replies,
    shared: &Arc<Shared>,
) {
    let tenants = recover(shared.tenants.lock());
    let reply = match tenants.get(&request.tenant) {
        Some(state) => {
            let serving = state.serving.as_deref();
            let hot_set = serving.and_then(|s| s.hot_set.as_ref());
            let serving_set = hot_set.cloned().unwrap_or_default();
            let drift = state.profile.drift(&serving_set, HOT_FRACTION).unwrap_or(0.0);
            GenerationStats {
                request_id: request.request_id,
                tenant: request.tenant.clone(),
                registered: state.program.is_some(),
                serving_generation: serving.map_or(0, |s| s.id),
                generations_sealed: state.generations_sealed,
                refreshes_triggered: state.refreshes_triggered,
                refresh_in_flight: state.refresh_in_flight,
                uploads: state.profile.uploads(),
                tracked_methods: state.profile.tracked_methods() as u64,
                drift_ppm: to_ppm(drift),
                hot_restricted: hot_set.is_some(),
                hot_set_size: hot_set.map_or(0, |h| h.len() as u64),
                elf_len: serving.map_or(0, |s| s.reply.elf.len() as u64),
                elf_fnv: serving.map_or(0, |s| s.elf_fnv),
            }
        }
        None => GenerationStats {
            request_id: request.request_id,
            tenant: request.tenant.clone(),
            ..GenerationStats::default()
        },
    };
    drop(tenants);
    replies.send(RESP_GENERATION_STATS, &reply.encode());
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::programs::HELD_WIRE_BYTES;
    use crate::Client;
    use calibro_workloads::{generate, AppSpec};

    /// A thread that panics while it holds the tenant table poisons the
    /// lock; every tenant request after that is still answered.
    #[test]
    fn a_poisoned_tenant_table_keeps_serving() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-poison-{}.sock", std::process::id()));
        // Drift never reaches 2.0: no upload schedules a refresh.
        let config = ServerConfig { drift_threshold: 2.0, ..ServerConfig::default() };
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), config).expect("start");
        let app = generate(&AppSpec::small("poisoned", 5));
        let options = BuildOptions::cto_ltbo();
        let mut client = Client::connect_unix(&socket).expect("connect");
        let sealed = client.build_for_tenant("app", &app.dex, &options, None).expect("register");

        let shared = Arc::clone(&daemon.shared);
        let holder = std::thread::spawn(move || {
            let _tenants = shared.tenants.lock();
            panic!("a holder of the tenant table dies");
        });
        assert!(holder.join().is_err());
        assert!(daemon.shared.tenants.is_poisoned());

        let fetched = client.build_for_tenant("app", &app.dex, &options, None).expect("fetch");
        assert_eq!((fetched.generation, &fetched.elf), (1, &sealed.elf));
        let uploaded = client.upload_profile("app", "0 10\n1 5\n").expect("profile upload");
        assert_eq!((uploaded.uploads, uploaded.serving_generation), (1, 1));
        let stats = client.generation_stats("app").expect("generation-stats");
        assert!(stats.registered);
        assert_eq!((stats.serving_generation, stats.uploads), (1, 1));
        assert_eq!(daemon.shutdown().tenants, 1);
    }

    /// A program evicted from the table after its client named it: the
    /// next reference is `UnknownProgram`, which the client answers with
    /// a whole send — the build succeeds with the same bytes — and the
    /// client names it again from its third send after that.
    #[test]
    fn an_unknown_reference_after_eviction_falls_back_to_a_whole_send() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-evict-{}.sock", std::process::id()));
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), ServerConfig::default())
            .expect("start");
        let app = generate(&AppSpec::small("evicted", 8));
        let options = BuildOptions::cto_ltbo();
        let mut client = Client::connect_unix(&socket).expect("connect");
        let expected = client.build(&app.dex, &options, None).expect("first build").elf;
        let counts = |daemon: &Daemon| {
            let stats = daemon.stats();
            (stats.programs_decoded, stats.programs_reused, stats.programs_by_reference)
        };
        for _ in 0..2 {
            assert_eq!(client.build(&app.dex, &options, None).expect("build").elf, expected);
        }
        assert_eq!(counts(&daemon), (2, 0, 1));

        // A program that claims the whole budget evicts every other.
        let budget = ProgramId { key: CacheKey { hi: 1, lo: 2 }, len: HELD_WIRE_BYTES };
        for _ in 0..2 {
            daemon.shared.programs.offer(budget, DexFile::new());
        }
        for expected_counts in [(3, 0, 1), (4, 0, 1), (4, 0, 2)] {
            assert_eq!(client.build(&app.dex, &options, None).expect("build").elf, expected);
            assert_eq!(counts(&daemon), expected_counts);
        }
        assert_eq!(daemon.shutdown().requests_completed, 6);
    }

    /// An edit of a program evicted after its client named it: the edit
    /// is `UnknownProgram`, and the client sends the edited program
    /// whole — the build succeeds with the direct build's bytes.
    #[test]
    fn an_edit_of_an_evicted_base_falls_back_to_a_whole_send() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-evict-edit-{}.sock", std::process::id()));
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), ServerConfig::default())
            .expect("start");
        let app = generate(&AppSpec::small("evicted-edit", 9));
        let options = BuildOptions::cto_ltbo();
        let mut client = Client::connect_unix(&socket).expect("connect");
        for _ in 0..2 {
            client.build(&app.dex, &options, None).expect("whole build");
        }
        let budget = ProgramId { key: CacheKey { hi: 3, lo: 4 }, len: HELD_WIRE_BYTES };
        for _ in 0..2 {
            daemon.shared.programs.offer(budget, DexFile::new());
        }
        let mut edited = app.dex.clone();
        assert!(!calibro_workloads::mutate_methods(&mut edited, 1, 0.05).is_empty());
        let direct = calibro::build(&edited, &options).expect("direct build");
        let reply = client.build(&edited, &options, None).expect("whole again");
        assert_eq!(reply.elf, calibro_oat::to_elf_bytes(&direct.oat));
        let stats = daemon.shutdown();
        assert_eq!((stats.programs_decoded, stats.programs_by_edit), (3, 0));
        assert_eq!((stats.requests_completed, stats.malformed_frames), (3, 0));
    }

    /// A tenant build of a held program fills the program's replay slot,
    /// and the generation it seals shares the slot's ELF: the bytes are
    /// held once. A plain build under the same options is then answered
    /// from the slot, as generation 0, and never queued.
    #[test]
    fn a_tenant_generation_shares_the_elf_of_its_programs_replay_slot() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-slot-{}.sock", std::process::id()));
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), ServerConfig::default())
            .expect("start");
        let app = generate(&AppSpec::small("slot", 12));
        let options = BuildOptions::cto_ltbo();
        let mut client = Client::connect_unix(&socket).expect("connect");
        client.build(&app.dex, &options, None).expect("first sighting");
        let sealed = client.build_for_tenant("t", &app.dex, &options, None).expect("tenant build");
        assert_eq!(sealed.generation, 1);

        let id = ProgramId::of(&wire::encode(&app.dex));
        let (fp, ltbo) = (options_fingerprint(&options), ltbo_fingerprint(&options));
        let slot = daemon.shared.programs.replay(id, fp, ltbo).expect("the tenant build filled it");
        let tenants = recover(daemon.shared.tenants.lock());
        let serving = tenants["t"].serving.as_ref().expect("a serving generation");
        assert!(Arc::ptr_eq(&slot.elf, &serving.reply.elf), "the ELF is held twice");
        drop(tenants);

        let replayed = client.build(&app.dex, &options, None).expect("a repeat plain build");
        assert_eq!((replayed.generation, &replayed.elf), (0, &sealed.elf));
        assert!(replayed.stats_json.contains(r#""generation":0,"#), "{}", replayed.stats_json);
        assert!(sealed.stats_json.contains(r#""generation":1,"#), "{}", sealed.stats_json);
        let stats = daemon.shutdown();
        assert_eq!((stats.builds_replayed, stats.requests_admitted), (1, 2));
        assert_eq!(stats.requests_completed, 3);
    }

    /// A `stats()` snapshot takes one lock at a time: while it waits on
    /// a tenant table another thread holds, admission can take the queue.
    #[test]
    fn a_stats_snapshot_waiting_on_the_tenant_table_does_not_hold_the_queue() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-stats-{}.sock", std::process::id()));
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), ServerConfig::default())
            .expect("start");
        let shared = Arc::clone(&daemon.shared);
        let tenants = recover(shared.tenants.lock());
        let snapshot = std::thread::spawn({
            let shared = Arc::clone(&shared);
            move || shared.stats()
        });
        let until = Instant::now() + Duration::from_millis(200);
        while Instant::now() < until {
            let queue = shared.queue.try_lock();
            assert!(
                !matches!(queue, Err(std::sync::TryLockError::WouldBlock)),
                "a stats snapshot held the queue while it waited on the tenant table"
            );
            drop(queue);
            std::thread::sleep(Duration::from_millis(1));
        }
        assert!(!snapshot.is_finished(), "the snapshot cannot finish while the table is held");
        drop(tenants);
        assert_eq!(snapshot.join().expect("snapshot").tenants, 0);
        drop(shared);
        daemon.shutdown();
    }

    /// A panic that escapes a build's own containment (here, one
    /// injected after the build, where the ELF is written and sealed) is
    /// a build error: the client is answered with a typed error, the
    /// count moves, a refresh clears its tenant's flag, and the worker
    /// that ran the job lives on to serve the next one.
    #[test]
    fn a_build_that_panics_is_a_build_error_and_its_worker_lives() {
        let socket =
            std::env::temp_dir().join(format!("calibrod-panic-{}.sock", std::process::id()));
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let daemon = Daemon::start(Listener::unix(&socket).expect("bind"), config).expect("start");
        let shared = Arc::clone(&daemon.shared);
        let app = generate(&AppSpec::small("panics", 6));
        let options = BuildOptions::cto_ltbo();
        // Both builds on a thread of their own: had the panic killed the
        // daemon's one worker, neither reply would ever come.
        shared.panic_after_build.store(true, Ordering::SeqCst);
        let (done, replies) = mpsc::channel();
        let (dex, opts) = (app.dex.clone(), options.clone());
        let client = std::thread::spawn(move || {
            let mut client = Client::connect_unix(&socket).expect("connect");
            let _ = done.send((client.build(&dex, &opts, None), client.build(&dex, &opts, None)));
        });
        let (panicked, built) =
            replies.recv_timeout(Duration::from_secs(60)).expect("both builds are answered");
        client.join().expect("the client thread");
        match panicked {
            Err(crate::ClientError::Server(ServeError::Build { detail })) => {
                assert!(detail.contains("injected panic after the build"), "{detail}");
            }
            other => panic!("expected a typed build error, got {other:?}"),
        }
        assert_eq!(shared.counters.build_errors.load(Ordering::Relaxed), 1);
        let built = built.expect("the one worker still serves");
        assert_eq!(built.methods as usize, app.dex.methods().len());

        // A refresh, driven through `run_job` directly: no one to answer,
        // and the tenant may be refreshed again.
        let tenant = TenantJob { name: "t".to_owned(), identity: CacheKey { hi: 1, lo: 1 } };
        let mut state = TenantState::new();
        state.refresh_in_flight = true;
        recover(shared.tenants.lock()).insert(tenant.name.clone(), state);
        let refresh = Job {
            request_id: 0,
            dex: Arc::new(app.dex.clone()),
            program: None,
            options_fp: options_fingerprint(&options),
            ltbo_fp: ltbo_fingerprint(&options),
            options: options.clone(),
            budget: None,
            enqueued: Instant::now(),
            replies: None,
            tenant: Some(tenant),
        };
        shared.panic_after_build.store(true, Ordering::SeqCst);
        run_job(&refresh, &shared);
        assert!(!recover(shared.tenants.lock())["t"].refresh_in_flight);
        assert_eq!(shared.counters.build_errors.load(Ordering::Relaxed), 2);
        drop(shared);
        assert_eq!(daemon.shutdown().build_errors, 2);
    }
}
