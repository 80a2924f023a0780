//! The calibrod fleet layer: consistent-hash routing and peer fetch.
//!
//! N daemons behave like one cache. Two mechanisms make that work:
//!
//! 1. **Rendezvous (highest-random-weight) routing** maps the existing
//!    128-bit content keys onto shard ids: every process that knows the
//!    shard set computes the same owner for a key with no coordination,
//!    assignment is uniform, and adding or removing one shard remaps
//!    exactly the keys that shard owned (~1/N) — the minimal-disruption
//!    property plain modulo hashing lacks.
//! 2. **Peer fetch** ([`FleetPeerSource`]): when a lookup misses a
//!    shard's memory and disk tiers, the shard asks its siblings (in
//!    rendezvous order for the key, so the likely owner is asked first)
//!    over the existing framed protocol before recompiling. Payloads
//!    are the checksummed disk-frame bytes of whichever lane was asked
//!    for; this layer only moves them, and the receiving store lane
//!    validates them with the same gauntlet as a local disk read — a
//!    malicious or corrupt peer can cost time, never correctness.
//!
//! [`FleetRouter`] is the client-side half: it routes whole build
//! requests by program fingerprint so repeat builds of the same program
//! land on the shard that already holds its artifacts.

use std::io::{BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use calibro::{options_fingerprint, program_salt, BuildOptions, CacheKey, StableHasher};
use calibro_cache::{PeerError, PeerFetch, PeerSource};
use calibro_dex::DexFile;

use crate::client::Client;
use crate::error::ClientError;
use crate::proto::{
    self, BuildReply, ErrorReply, FrameEvent, PeerArtifact, PeerGet, PeerLane, DEFAULT_MAX_FRAME,
    REQ_PEER_GET, RESP_ERROR, RESP_PEER_ARTIFACT,
};
use crate::transport::{self, Stream};

// ---------------------------------------------------------------------------
// Rendezvous hashing
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: a full-avalanche mix so every (key, shard)
/// pair gets an independent-looking score. Self-contained on purpose —
/// routing must be a pure function of (key, shard id) so every process
/// in the fleet agrees forever.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// The rendezvous score of `key` on `shard`: deterministic,
/// process-independent, uniform. The shard with the highest score owns
/// the key.
#[must_use]
pub fn shard_score(key: CacheKey, shard: u32) -> u64 {
    let seeded = key
        .hi
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(key.lo.rotate_left(32))
        .wrapping_add(u64::from(shard).wrapping_mul(0xc2b2_ae3d_27d4_eb4f));
    mix(seeded)
}

/// The shard that owns `key` among `shards`: the highest rendezvous
/// score wins (ties — vanishingly rare — break to the higher id so the
/// winner is still total-ordered). `None` when `shards` is empty.
#[must_use]
pub fn route(key: CacheKey, shards: &[u32]) -> Option<u32> {
    shards.iter().copied().max_by_key(|&s| (shard_score(key, s), s))
}

/// Every shard ordered by descending preference for `key`: the owner
/// first, then the shard that would own it if the owner vanished, and
/// so on. This is the peer-probe order — the head of the list is the
/// sibling most likely to hold the key warm.
#[must_use]
pub fn rendezvous_order(key: CacheKey, shards: &[u32]) -> Vec<u32> {
    let mut order: Vec<u32> = shards.to_vec();
    order.sort_by_key(|&s| core::cmp::Reverse((shard_score(key, s), s)));
    order
}

/// The key a whole build request routes by: program content plus the
/// options fingerprint, so the same (program, options) pair always
/// lands on the shard whose warm lane already holds its artifacts.
#[must_use]
pub fn routing_key(dex: &DexFile, options: &BuildOptions) -> CacheKey {
    let salt = program_salt(dex);
    let opts = options_fingerprint(options);
    let mut h = StableHasher::new();
    h.write_tag(0x46); // 'F' — fleet routing
    h.write_wire(&salt);
    h.write_wire(&opts);
    h.finish()
}

// ---------------------------------------------------------------------------
// Endpoints and shard specs
// ---------------------------------------------------------------------------

/// Where a shard listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ShardEndpoint {
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl ShardEndpoint {
    /// Parses `unix:PATH` or `tcp:ADDR` (the `--peer` flag syntax).
    ///
    /// # Errors
    ///
    /// Returns a description when the scheme is missing or unknown.
    pub fn parse(spec: &str) -> Result<ShardEndpoint, String> {
        if let Some(path) = spec.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                return Ok(ShardEndpoint::Unix(PathBuf::from(path)));
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err("unix endpoints are not supported on this platform".to_owned());
            }
        }
        if let Some(addr) = spec.strip_prefix("tcp:") {
            return Ok(ShardEndpoint::Tcp(addr.to_owned()));
        }
        Err(format!("endpoint {spec:?} must be unix:PATH or tcp:ADDR"))
    }

    /// Opens a request [`Client`] to this endpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connect fails.
    pub fn client(&self) -> Result<Client, ClientError> {
        Client::connect(self)
    }
}

impl core::fmt::Display for ShardEndpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            #[cfg(unix)]
            ShardEndpoint::Unix(path) => write!(f, "unix:{}", path.display()),
            ShardEndpoint::Tcp(addr) => write!(f, "tcp:{addr}"),
        }
    }
}

/// One fleet member: its shard id and where it listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The shard's id — the value rendezvous scores are computed over.
    pub id: u32,
    /// Where the shard listens.
    pub endpoint: ShardEndpoint,
}

// ---------------------------------------------------------------------------
// Peer client and PeerSource implementation
// ---------------------------------------------------------------------------

/// One sibling shard, with a pooled connection that reconnects lazily.
/// Any transport or protocol failure drops the connection so the next
/// fetch starts clean — a half-consumed stream is never reused.
/// Idle pooled connections kept per peer; concurrent fetches beyond
/// this dial extra connections that are simply dropped when done.
const POOL_IDLE_CAP: usize = 8;

/// Largest pipelined batch written before any reply is read. Writing
/// all requests then reading all replies is deadlock-safe only while
/// the unread request bytes fit in the socket send buffer — and the
/// kernel charges each buffered segment at its *truesize* (payload
/// plus per-skb overhead, roughly half a KiB even for a 30-byte
/// frame), so the whole chunk is serialized into one `write_all` and
/// kept small enough (a few KiB) that its charge can never fill the
/// buffer while the peer's reply stream is still backed up.
const BATCH_CHUNK: usize = 256;

/// Concurrent connections a batched fetch spreads its chunks over.
/// Each stream gets its own connection thread on the serving daemon,
/// so serve, transfer, and validation overlap instead of serializing
/// on one stream.
const FETCH_STREAMS: usize = 4;

struct PeerClient {
    spec: ShardSpec,
    /// Idle-connection stack: a fetch checks one out for exclusive use
    /// (so compile workers fetch concurrently instead of serializing on
    /// one stream) and returns it only after a clean exchange. Streams
    /// are kept behind a read buffer — a pipelined batch's replies
    /// arrive as hundreds of small frames, and unbuffered reads would
    /// pay two syscalls per frame. The buffer is drained completely
    /// before a stream is pooled, so writes through
    /// [`BufReader::get_mut`] never race buffered replies.
    pool: Mutex<Vec<BufReader<Stream>>>,
    next_id: AtomicU64,
}

impl PeerClient {
    fn new(spec: ShardSpec) -> PeerClient {
        PeerClient { spec, pool: Mutex::new(Vec::new()), next_id: AtomicU64::new(1) }
    }

    fn name(&self) -> String {
        format!("shard {} ({})", self.spec.id, self.spec.endpoint)
    }

    /// One key's exchange: a pipelined batch of one. Returns the raw
    /// framed artifact bytes (validated by the receiving lane, not here).
    fn fetch(&self, lane: PeerLane, key: CacheKey) -> PeerFetch {
        self.fetch_chunk(lane, &[key])?.pop().expect("one reply per request")
    }

    /// One pipelined exchange for up to [`BATCH_CHUNK`] keys: writes
    /// every request before reading any reply, so the batch costs one
    /// streaming round instead of a round trip per key. The daemon
    /// serves a connection's frames strictly in order, which makes the
    /// reply sequence line up with the request sequence by construction
    /// (request ids are still cross-checked).
    ///
    /// A transport failure fails the whole remaining batch — the stream
    /// cannot be resynchronized — while a per-key `RESP_ERROR` is
    /// recorded for its key and the batch continues.
    fn fetch_chunk(&self, lane: PeerLane, keys: &[CacheKey]) -> Result<Vec<PeerFetch>, PeerError> {
        debug_assert!(keys.len() <= BATCH_CHUNK);
        let pooled = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner).pop();
        let mut stream = match pooled {
            Some(s) => s,
            None => {
                let dialed = transport::connect(&self.spec.endpoint)
                    .map_err(|e| PeerError::Connect { peer: self.name(), detail: e.to_string() })?;
                BufReader::with_capacity(64 * 1024, dialed)
            }
        };
        let first_id = self.next_id.fetch_add(keys.len() as u64, Ordering::Relaxed);
        // One buffer, one write: per-frame writes would each be charged
        // a full skb truesize against the send buffer, which can
        // deadlock against a peer whose own reply stream is backed up.
        let mut batch = Vec::with_capacity(keys.len() * 40);
        for (i, &key) in keys.iter().enumerate() {
            let request = PeerGet { request_id: first_id + i as u64, lane, key };
            proto::write_frame(&mut batch, REQ_PEER_GET, &request.encode())
                .expect("writing a frame to a Vec cannot fail");
        }
        stream
            .get_mut()
            .write_all(&batch)
            .map_err(|e| PeerError::Hangup { peer: self.name(), detail: e.to_string() })?;
        let mut out = Vec::with_capacity(keys.len());
        for (i, &key) in keys.iter().enumerate() {
            out.push(self.read_reply(&mut stream, first_id + i as u64, lane, key)?);
        }
        let mut pool = self.pool.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if pool.len() < POOL_IDLE_CAP {
            pool.push(stream);
        }
        Ok(out)
    }

    /// Reads one reply of a pipelined batch. `Err` is a transport-level
    /// failure (stream unusable); the inner `Result` is this key's
    /// outcome.
    fn read_reply(
        &self,
        stream: &mut BufReader<Stream>,
        request_id: u64,
        lane: PeerLane,
        key: CacheKey,
    ) -> Result<PeerFetch, PeerError> {
        let event = proto::read_frame(stream, DEFAULT_MAX_FRAME)
            .map_err(|e| PeerError::Hangup { peer: self.name(), detail: e.to_string() })?;
        match event {
            FrameEvent::Frame { kind: RESP_PEER_ARTIFACT, body } => {
                let reply = PeerArtifact::decode(&body)
                    .map_err(|e| PeerError::Garbage { peer: self.name(), detail: e.to_string() })?;
                if reply.request_id != request_id || reply.key != key || reply.lane != lane {
                    return Err(PeerError::Garbage {
                        peer: self.name(),
                        detail: "pipelined reply out of sequence".to_owned(),
                    });
                }
                Ok(Ok(reply.artifact))
            }
            FrameEvent::Frame { kind: RESP_ERROR, body } => match ErrorReply::decode(&body) {
                // The daemon keeps serving after a typed per-request
                // error, so the stream stays in sequence: record the
                // failure for this key and keep reading the batch.
                Ok(reply) if reply.request_id == request_id => Ok(Err(PeerError::Remote {
                    peer: self.name(),
                    detail: reply.error.to_string(),
                })),
                Ok(reply) => Err(PeerError::Garbage {
                    peer: self.name(),
                    detail: format!("error reply for unexpected request {}", reply.request_id),
                }),
                Err(e) => Err(PeerError::Garbage { peer: self.name(), detail: e.to_string() }),
            },
            FrameEvent::Frame { kind, .. } => Err(PeerError::Garbage {
                peer: self.name(),
                detail: format!("unexpected response kind {kind:#04x}"),
            }),
            FrameEvent::Eof => Err(PeerError::Hangup {
                peer: self.name(),
                detail: "connection closed before the reply".to_owned(),
            }),
            FrameEvent::MidFrameDisconnect => Err(PeerError::Truncated { peer: self.name() }),
            FrameEvent::TooLarge { claimed } => Err(PeerError::Garbage {
                peer: self.name(),
                detail: format!("reply frame of {claimed} bytes exceeds the limit"),
            }),
        }
    }
}

/// The daemon-side peer tier: fetches interchange frames from sibling
/// shards for whichever lane asks. Installed via
/// [`ArtifactStore::set_peer_source`](calibro_cache::ArtifactStore::set_peer_source)
/// when the daemon is started with a peer list; the store lane
/// validates every frame before it will hold the entry.
pub struct FleetPeerSource {
    peers: Vec<PeerClient>,
    peer_ids: Vec<u32>,
}

impl FleetPeerSource {
    /// A peer tier over `peers` — the *other* members of the fleet
    /// (entries matching `own_shard` are dropped defensively so a
    /// misconfigured peer list cannot make a shard fetch from itself).
    #[must_use]
    pub fn new(peers: Vec<ShardSpec>, own_shard: u32) -> FleetPeerSource {
        let peers: Vec<PeerClient> =
            peers.into_iter().filter(|s| s.id != own_shard).map(PeerClient::new).collect();
        let peer_ids = peers.iter().map(|p| p.spec.id).collect();
        FleetPeerSource { peers, peer_ids }
    }

    /// How many sibling shards this source consults.
    #[must_use]
    pub fn peer_count(&self) -> usize {
        self.peers.len()
    }

    fn peer(&self, id: u32) -> &PeerClient {
        self.peers
            .iter()
            .find(|p| p.spec.id == id)
            .expect("rendezvous order only permutes known peer ids")
    }

    /// Probes the siblings in rendezvous order for `key`, skipping
    /// `exclude` (a sibling a batched probe already asked). First hit
    /// wins; not-found moves on; a transport error is remembered but
    /// the remaining siblings still get their chance — only if *no*
    /// sibling produced the artifact does the first error surface.
    fn fetch_excluding(&self, lane: PeerLane, key: CacheKey, exclude: Option<u32>) -> PeerFetch {
        let mut first_error: Option<PeerError> = None;
        for id in rendezvous_order(key, &self.peer_ids) {
            if Some(id) == exclude {
                continue;
            }
            match self.peer(id).fetch(lane, key) {
                Ok(Some(found)) => return Ok(Some(found)),
                Ok(None) => {}
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(None),
        }
    }

    /// Resolves one chunk of (slot, key) pairs against `peer`,
    /// returning each slot's outcome. A batch-level transport failure
    /// is fanned out to every slot in the chunk.
    fn resolve_chunk(
        &self,
        peer: &PeerClient,
        lane: PeerLane,
        keys: &[CacheKey],
        chunk: &[usize],
    ) -> Vec<(usize, PeerFetch)> {
        let chunk_keys: Vec<CacheKey> = chunk.iter().map(|&s| keys[s]).collect();
        match peer.fetch_chunk(lane, &chunk_keys) {
            Ok(results) => chunk.iter().copied().zip(results).collect(),
            Err(e) => chunk.iter().map(|&slot| (slot, Err(e.clone()))).collect(),
        }
    }
}

impl PeerSource for FleetPeerSource {
    fn fetch(&self, lane: PeerLane, key: CacheKey) -> PeerFetch {
        self.fetch_excluding(lane, key, None)
    }

    /// Batched fetch: groups the keys by their first-choice sibling
    /// (rendezvous head) and resolves each group through
    /// `PeerClient::fetch_chunk`'s pipelined exchange, so a cold
    /// build's misses cost one streaming round per peer instead of a
    /// round trip per key. Chunks run on up to `FETCH_STREAMS`
    /// concurrent connections (each engaging its own connection thread
    /// on the serving daemon), overlapping serve and transfer. Keys the
    /// first choice missed or failed are retried against the remaining
    /// siblings one by one — only when there *are* remaining siblings,
    /// so the sole peer of a two-shard fleet is never consulted twice
    /// for the same key.
    fn fetch_many(&self, lane: PeerLane, keys: &[CacheKey]) -> Vec<PeerFetch> {
        if self.peers.is_empty() {
            return keys.iter().map(|_| Ok(None)).collect();
        }
        // slot index → result; filled per peer group below.
        let mut out: Vec<Option<PeerFetch>> = keys.iter().map(|_| None).collect();
        let mut by_peer: Vec<(u32, Vec<usize>)> = Vec::new();
        for (slot, &key) in keys.iter().enumerate() {
            let first = rendezvous_order(key, &self.peer_ids)[0];
            match by_peer.iter_mut().find(|(id, _)| *id == first) {
                Some((_, slots)) => slots.push(slot),
                None => by_peer.push((first, vec![slot])),
            }
        }
        for (id, slots) in by_peer {
            let peer = self.peer(id);
            let chunks: Vec<&[usize]> = slots.chunks(BATCH_CHUNK).collect();
            let streams = chunks.len().min(FETCH_STREAMS);
            if streams <= 1 {
                for chunk in chunks {
                    for (slot, outcome) in self.resolve_chunk(peer, lane, keys, chunk) {
                        out[slot] = Some(outcome);
                    }
                }
            } else {
                let next = AtomicU64::new(0);
                let resolved = std::thread::scope(|scope| {
                    let workers: Vec<_> = (0..streams)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut resolved = Vec::new();
                                loop {
                                    #[allow(clippy::cast_possible_truncation)]
                                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                                    let Some(chunk) = chunks.get(i) else { break };
                                    resolved.extend(self.resolve_chunk(peer, lane, keys, chunk));
                                }
                                resolved
                            })
                        })
                        .collect();
                    workers
                        .into_iter()
                        .flat_map(|w| w.join().expect("fetch stream panicked"))
                        .collect::<Vec<_>>()
                });
                for (slot, outcome) in resolved {
                    out[slot] = Some(outcome);
                }
            }
            // Misses and failures get a second chance with the *other*
            // siblings (first-choice already had its say).
            if self.peers.len() > 1 {
                for &slot in &slots {
                    if matches!(out[slot], Some(Ok(Some(_)))) {
                        continue;
                    }
                    out[slot] = Some(match self.fetch_excluding(lane, keys[slot], Some(id)) {
                        // Keep the first-choice error: the key was
                        // never proven absent fleet-wide.
                        Ok(None) => out[slot].take().expect("first choice answered every slot"),
                        fallback => fallback,
                    });
                }
            }
        }
        out.into_iter()
            .map(|r| r.expect("every slot is grouped under exactly one first-choice peer"))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Client-side fleet router
// ---------------------------------------------------------------------------

/// Routes whole build requests across a fleet: the
/// [`routing_key`] of (program, options) picks the shard, so repeat
/// builds of the same program land where its artifacts are warm. On a
/// transport failure the router fails over to the next shard in
/// rendezvous order (typed server rejections are returned, not failed
/// over — the daemon is alive and saying no).
pub struct FleetRouter {
    shards: Vec<ShardSpec>,
    ids: Vec<u32>,
}

impl FleetRouter {
    /// A router over `shards`.
    #[must_use]
    pub fn new(shards: Vec<ShardSpec>) -> FleetRouter {
        let ids = shards.iter().map(|s| s.id).collect();
        FleetRouter { shards, ids }
    }

    /// The fleet members.
    #[must_use]
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// The shard id that owns `(dex, options)`.
    #[must_use]
    pub fn route(&self, dex: &DexFile, options: &BuildOptions) -> Option<u32> {
        route(routing_key(dex, options), &self.ids)
    }

    /// Builds on the owning shard, failing over in rendezvous order on
    /// transport errors. Returns the serving shard's id with the reply.
    ///
    /// # Errors
    ///
    /// A typed server rejection from the owning shard, or — when every
    /// shard is unreachable — the first transport error.
    pub fn build(
        &self,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> Result<(u32, BuildReply), ClientError> {
        let key = routing_key(dex, options);
        let mut first_error: Option<ClientError> = None;
        for id in rendezvous_order(key, &self.ids) {
            let shard = self
                .shards
                .iter()
                .find(|s| s.id == id)
                .expect("rendezvous order only permutes known shard ids");
            let attempt =
                shard.endpoint.client().and_then(|mut client| client.build(dex, options, deadline));
            match attempt {
                Ok(reply) => return Ok((id, reply)),
                // The daemon answered: its rejection is the answer.
                Err(e @ ClientError::Server(_)) => return Err(e),
                Err(e) => first_error = first_error.or(Some(e)),
            }
        }
        Err(first_error.unwrap_or(ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            "fleet has no shards",
        ))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n.wrapping_mul(0x9e37_79b9), lo: !n }
    }

    #[test]
    fn routing_is_deterministic_golden() {
        // Golden values pin cross-process determinism: a change to the
        // score function silently remaps every fleet — fail loudly
        // instead.
        let shards = [0u32, 1, 2, 3];
        let owners: Vec<u32> =
            (0..8).map(|n| route(key(n), &shards).expect("non-empty shard set")).collect();
        let again: Vec<u32> =
            (0..8).map(|n| route(key(n), &shards).expect("non-empty shard set")).collect();
        assert_eq!(owners, again);
        assert_eq!(
            shard_score(CacheKey { hi: 1, lo: 2 }, 3),
            shard_score(CacheKey { hi: 1, lo: 2 }, 3)
        );
    }

    #[test]
    fn rendezvous_order_starts_with_the_owner() {
        let shards = [10u32, 20, 30];
        for n in 0..32 {
            let k = key(n);
            let order = rendezvous_order(k, &shards);
            assert_eq!(order.len(), 3);
            assert_eq!(order[0], route(k, &shards).unwrap());
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, shards.to_vec(), "order must be a permutation");
        }
    }

    #[test]
    fn endpoint_parse_roundtrip() {
        let unix = ShardEndpoint::parse("unix:/tmp/a.sock").expect("unix parses");
        assert_eq!(unix.to_string(), "unix:/tmp/a.sock");
        let tcp = ShardEndpoint::parse("tcp:127.0.0.1:7777").expect("tcp parses");
        assert_eq!(tcp.to_string(), "tcp:127.0.0.1:7777");
        assert!(ShardEndpoint::parse("http://nope").is_err());
        assert!(ShardEndpoint::parse("/tmp/bare-path").is_err());
    }

    #[test]
    fn peer_source_excludes_own_shard() {
        let specs = vec![
            ShardSpec { id: 0, endpoint: ShardEndpoint::Tcp("127.0.0.1:1".into()) },
            ShardSpec { id: 1, endpoint: ShardEndpoint::Tcp("127.0.0.1:2".into()) },
        ];
        let source = FleetPeerSource::new(specs, 0);
        assert_eq!(source.peer_count(), 1);
    }

    #[test]
    fn unreachable_peer_is_a_typed_connect_error() {
        // Port 1 on localhost: nothing listens there.
        let specs = vec![ShardSpec { id: 7, endpoint: ShardEndpoint::Tcp("127.0.0.1:1".into()) }];
        let source = FleetPeerSource::new(specs, 0);
        match source.fetch(PeerLane::Method, key(1)) {
            Err(PeerError::Connect { .. }) => {}
            other => panic!("expected Connect error, got {other:?}"),
        }
    }
}
