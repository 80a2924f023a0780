//! The framed request/response protocol `calibrod` speaks.
//!
//! Every message is one frame:
//!
//! ```text
//! +--------------+-----------+------------------+
//! | len: u32 LE  | kind: u8  | body (len-1 B)   |
//! +--------------+-----------+------------------+
//! ```
//!
//! `len` counts the kind byte plus the body and is validated against
//! the configured ceiling *before* anything is allocated, so an
//! adversarial length prefix costs the daemon four bytes of reading,
//! not gigabytes of memory. Request kinds occupy `0x01..=0x7f`,
//! response kinds `0x81..=0xff`; unknown kinds inside an intact frame
//! get a typed error response and the connection keeps serving.

use std::io::{Read, Write};
use std::time::Duration;

use calibro::{BuildOptions, CacheKey, CacheStats};
use calibro_dex::DexFile;

use crate::error::ServeError;
use crate::wire::{self, Reader, WireError, Writer};

/// Request kind: compile a program.
pub const REQ_BUILD: u8 = 0x01;
/// Request kind: report daemon statistics.
pub const REQ_STATS: u8 = 0x02;
/// Request kind: drain gracefully and exit.
pub const REQ_SHUTDOWN: u8 = 0x03;
/// Request kind: liveness probe.
pub const REQ_PING: u8 = 0x04;
/// Request kind: fetch a cache artifact for a sibling shard (fleet
/// peer-to-peer; see [`PeerGet`]).
pub const REQ_PEER_GET: u8 = 0x05;
/// Request kind: upload a per-tenant execution profile (see
/// [`ProfileRequest`]).
pub const REQ_PROFILE: u8 = 0x06;
/// Request kind: report one tenant's generation table (see
/// [`GenerationStatsRequest`]).
pub const REQ_GENERATION_STATS: u8 = 0x07;
/// Request kind: report the shared-dictionary state (see
/// [`DictStatsRequest`]).
pub const REQ_DICT_STATS: u8 = 0x08;
/// Response kind: a successful build.
pub const RESP_BUILT: u8 = 0x81;
/// Response kind: a typed error.
pub const RESP_ERROR: u8 = 0x82;
/// Response kind: daemon statistics.
pub const RESP_STATS: u8 = 0x83;
/// Response kind: shutdown acknowledged (sent before the daemon exits).
pub const RESP_SHUTDOWN_ACK: u8 = 0x84;
/// Response kind: liveness reply.
pub const RESP_PONG: u8 = 0x85;
/// Response kind: a peer-fetch answer (found or not; see
/// [`PeerArtifact`]).
pub const RESP_PEER_ARTIFACT: u8 = 0x86;
/// Response kind: a profile upload was absorbed (see [`ProfileReply`]).
pub const RESP_PROFILE: u8 = 0x87;
/// Response kind: one tenant's generation table (see
/// [`GenerationStats`]).
pub const RESP_GENERATION_STATS: u8 = 0x88;
/// Response kind: the shared-dictionary state (see [`DictStatsReply`]).
pub const RESP_DICT_STATS: u8 = 0x89;

/// Default ceiling on one frame (kind + body): 64 MiB.
pub const DEFAULT_MAX_FRAME: u64 = 64 << 20;

/// What [`read_frame`] produced.
#[derive(Debug)]
pub enum FrameEvent {
    /// A complete frame: its kind byte and body.
    Frame {
        /// The kind byte.
        kind: u8,
        /// The body (everything after the kind byte).
        body: Vec<u8>,
    },
    /// The peer closed the stream cleanly between frames.
    Eof,
    /// The peer vanished mid-frame (after the length prefix or inside
    /// the payload) — distinguished from a clean EOF so the daemon can
    /// count it as a protocol violation rather than a normal hangup.
    MidFrameDisconnect,
    /// The length prefix exceeded `max_frame`. The stream cannot be
    /// resynchronized; the caller must close it.
    TooLarge {
        /// The claimed length.
        claimed: u64,
    },
}

/// Reads one frame. IO errors other than EOF propagate as `Err`.
///
/// # Errors
///
/// Returns the underlying IO error for anything except a clean or
/// mid-frame EOF (those are in-band [`FrameEvent`] variants).
pub fn read_frame(stream: &mut impl Read, max_frame: u64) -> std::io::Result<FrameEvent> {
    let mut len_buf = [0u8; 4];
    match read_exact_or_eof(stream, &mut len_buf)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof => return Ok(FrameEvent::Eof),
        ReadOutcome::PartialEof => return Ok(FrameEvent::MidFrameDisconnect),
    }
    let len = u64::from(u32::from_le_bytes(len_buf));
    if len == 0 || len > max_frame {
        return Ok(FrameEvent::TooLarge { claimed: len });
    }
    #[allow(clippy::cast_possible_truncation)]
    let mut payload = vec![0u8; len as usize];
    match read_exact_or_eof(stream, &mut payload)? {
        ReadOutcome::Full => {}
        ReadOutcome::CleanEof | ReadOutcome::PartialEof => {
            return Ok(FrameEvent::MidFrameDisconnect)
        }
    }
    let kind = payload[0];
    payload.remove(0);
    Ok(FrameEvent::Frame { kind, body: payload })
}

enum ReadOutcome {
    Full,
    CleanEof,
    PartialEof,
}

fn read_exact_or_eof(stream: &mut impl Read, buf: &mut [u8]) -> std::io::Result<ReadOutcome> {
    let mut filled = 0;
    while filled < buf.len() {
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 {
                    ReadOutcome::CleanEof
                } else {
                    ReadOutcome::PartialEof
                })
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// Writes one frame (length prefix, kind, body). Does not flush: a
/// buffered sink (the daemon's reply writer) decides when its frames
/// hit the wire; unbuffered sinks need no flush at all.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn write_frame(stream: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<()> {
    // One assembled buffer, one write: separate prefix/kind/body writes
    // would cost three syscalls (and three skb charges) per frame,
    // which dominates pipelined small-frame exchanges like peer gets.
    let len = (body.len() + 1) as u32;
    let mut frame = Vec::with_capacity(body.len() + 5);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.push(kind);
    frame.extend_from_slice(body);
    stream.write_all(&frame)
}

fn write_key(w: &mut Writer, key: CacheKey) {
    w.u64(key.hi);
    w.u64(key.lo);
}

fn read_key(r: &mut Reader<'_>) -> Result<CacheKey, WireError> {
    Ok(CacheKey { hi: r.u64("key.hi")?, lo: r.u64("key.lo")? })
}

fn write_opt_key(w: &mut Writer, key: Option<CacheKey>) {
    match key {
        None => w.u8(0),
        Some(k) => {
            w.u8(1);
            write_key(w, k);
        }
    }
}

fn read_opt_key(r: &mut Reader<'_>) -> Result<Option<CacheKey>, WireError> {
    match r.u8("Option<CacheKey> tag")? {
        0 => Ok(None),
        1 => Ok(Some(read_key(r)?)),
        tag => Err(WireError::InvalidTag { what: "Option<CacheKey>", tag }),
    }
}

/// A compile request: the program, the full build configuration, an
/// optional deadline, and the client-computed fingerprints the daemon
/// cross-checks against its own.
pub struct BuildRequest {
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
    /// Per-request deadline; `None` uses the daemon's default.
    pub deadline: Option<Duration>,
    /// Client-side [`calibro::options_fingerprint`] of `options`.
    pub options_fp: CacheKey,
    /// Client-side LTBO-config fingerprint (`None` when LTBO is off).
    pub ltbo_fp: Option<CacheKey>,
    /// The build configuration.
    pub options: BuildOptions,
    /// The program to compile.
    pub dex: DexFile,
    /// Tenant this program belongs to. `None` is a plain one-shot
    /// build; `Some` routes the request through the daemon's
    /// generation table: the first build registers the program and
    /// seals generation 1, later identical requests are answered from
    /// the currently serving sealed generation (which a background
    /// profile-driven refresh may advance).
    pub tenant: Option<String>,
}

impl BuildRequest {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.request_id);
        match self.deadline {
            None => w.u8(0),
            Some(d) => {
                w.u8(1);
                w.u32(d.as_millis().min(u128::from(u32::MAX)) as u32);
            }
        }
        write_key(&mut w, self.options_fp);
        write_opt_key(&mut w, self.ltbo_fp);
        match &self.tenant {
            None => w.u8(0),
            Some(tenant) => {
                w.u8(1);
                w.str(tenant);
            }
        }
        wire::write_options(&mut w, &self.options);
        wire::write_dex(&mut w, &self.dex);
        w.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<BuildRequest, WireError> {
        let mut r = Reader::new(body);
        let request_id = r.u64("request_id")?;
        let deadline = match r.u8("deadline tag")? {
            0 => None,
            1 => Some(Duration::from_millis(u64::from(r.u32("deadline_ms")?))),
            tag => return Err(WireError::InvalidTag { what: "deadline", tag }),
        };
        let options_fp = read_key(&mut r)?;
        let ltbo_fp = read_opt_key(&mut r)?;
        let tenant = match r.u8("tenant tag")? {
            0 => None,
            1 => Some(r.str("tenant")?),
            tag => return Err(WireError::InvalidTag { what: "tenant", tag }),
        };
        let options = wire::read_options(&mut r)?;
        let dex = wire::read_dex(&mut r)?;
        r.finish()?;
        Ok(BuildRequest { request_id, deadline, options_fp, ltbo_fp, options, dex, tenant })
    }
}

/// A successful build response: the fingerprints (echoed), the linked
/// OAT as ELF bytes, and the build's statistics.
pub struct BuildReply {
    /// Echo of the request id.
    pub request_id: u64,
    /// The daemon-side options fingerprint (equals the request's).
    pub options_fp: CacheKey,
    /// The daemon-side LTBO fingerprint.
    pub ltbo_fp: Option<CacheKey>,
    /// The linked OAT file, serialized as ELF64.
    pub elf: Vec<u8>,
    /// Methods in the program.
    pub methods: u64,
    /// Methods replayed from the shared warm cache.
    pub methods_from_cache: u64,
    /// Cache activity attributed to this build (approximate under
    /// concurrency — the store is shared).
    pub cache_hits: u64,
    /// Cache misses attributed to this build.
    pub cache_misses: u64,
    /// Wall time the daemon spent building, in microseconds.
    pub build_us: u64,
    /// Profile-feedback generation the artifact belongs to: 0 for a
    /// plain (non-tenant) build, `>= 1` for a tenant build answered
    /// from — or sealing — the generation table. The same generation
    /// id always carries the same bytes.
    pub generation: u64,
    /// The full [`calibro::BuildStats`] JSON payload.
    pub stats_json: String,
}

// Manual impl: the ELF payload is megabytes — render its length, not
// its bytes, so assertion failures stay readable.
impl core::fmt::Debug for BuildReply {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BuildReply")
            .field("request_id", &self.request_id)
            .field("options_fp", &self.options_fp)
            .field("ltbo_fp", &self.ltbo_fp)
            .field("elf_len", &self.elf.len())
            .field("methods", &self.methods)
            .field("methods_from_cache", &self.methods_from_cache)
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("build_us", &self.build_us)
            .field("generation", &self.generation)
            .finish_non_exhaustive()
    }
}

impl BuildReply {
    /// Encodes the reply body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.request_id);
        write_key(&mut w, self.options_fp);
        write_opt_key(&mut w, self.ltbo_fp);
        w.bytes(&self.elf);
        w.u64(self.methods);
        w.u64(self.methods_from_cache);
        w.u64(self.cache_hits);
        w.u64(self.cache_misses);
        w.u64(self.build_us);
        w.u64(self.generation);
        w.str(&self.stats_json);
        w.into_bytes()
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<BuildReply, WireError> {
        let mut r = Reader::new(body);
        let reply = BuildReply {
            request_id: r.u64("request_id")?,
            options_fp: read_key(&mut r)?,
            ltbo_fp: read_opt_key(&mut r)?,
            elf: r.bytes("elf")?,
            methods: r.u64("methods")?,
            methods_from_cache: r.u64("methods_from_cache")?,
            cache_hits: r.u64("cache_hits")?,
            cache_misses: r.u64("cache_misses")?,
            build_us: r.u64("build_us")?,
            generation: r.u64("generation")?,
            stats_json: r.str("stats_json")?,
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Encodes an error response body.
#[must_use]
pub fn encode_error(request_id: u64, error: &ServeError) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(request_id);
    w.u8(error.code());
    match error {
        ServeError::Overloaded { capacity } => w.usize(*capacity),
        ServeError::DeadlineExceeded { deadline_ms } => w.u32(*deadline_ms),
        ServeError::Malformed { detail } | ServeError::Build { detail } => w.str(detail),
        ServeError::FrameTooLarge { claimed, limit } => {
            w.u64(*claimed);
            w.u64(*limit);
        }
        ServeError::Draining | ServeError::FingerprintMismatch => {}
    }
    w.into_bytes()
}

/// Decodes an error response body into `(request_id, error)`.
///
/// # Errors
///
/// Returns [`WireError`] on any malformed field.
pub fn decode_error(body: &[u8]) -> Result<(u64, ServeError), WireError> {
    let mut r = Reader::new(body);
    let request_id = r.u64("request_id")?;
    let code = r.u8("error code")?;
    let error = match code {
        1 => ServeError::Overloaded { capacity: r.usize("capacity")? },
        2 => ServeError::DeadlineExceeded { deadline_ms: r.u32("deadline_ms")? },
        3 => ServeError::Malformed { detail: r.str("detail")? },
        4 => ServeError::FrameTooLarge { claimed: r.u64("claimed")?, limit: r.u64("limit")? },
        5 => ServeError::Build { detail: r.str("detail")? },
        6 => ServeError::Draining,
        7 => ServeError::FingerprintMismatch,
        tag => return Err(WireError::InvalidTag { what: "ServeError code", tag }),
    };
    r.finish()?;
    Ok((request_id, error))
}

/// Which store lane a peer fetch targets (the lanes with a peer tier).
pub use calibro_cache::PeerLane;

fn lane_code(lane: PeerLane) -> u8 {
    match lane {
        PeerLane::Method => 0,
        PeerLane::Group => 1,
        PeerLane::Dict => 2,
    }
}

fn lane_from_code(code: u8) -> Result<PeerLane, WireError> {
    match code {
        0 => Ok(PeerLane::Method),
        1 => Ok(PeerLane::Group),
        2 => Ok(PeerLane::Dict),
        tag => Err(WireError::InvalidTag { what: "PeerLane", tag }),
    }
}

/// A fleet-internal fetch: "do you hold this key?" One shard sends this
/// to a sibling when a lookup misses its own memory and disk tiers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PeerGet {
    /// Requester-chosen id echoed in the response.
    pub request_id: u64,
    /// Which lane to probe.
    pub lane: PeerLane,
    /// The 128-bit content key.
    pub key: CacheKey,
}

impl PeerGet {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.request_id);
        w.u8(lane_code(self.lane));
        write_key(&mut w, self.key);
        w.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<PeerGet, WireError> {
        let mut r = Reader::new(body);
        let request_id = r.u64("request_id")?;
        let lane = lane_from_code(r.u8("lane")?)?;
        let key = read_key(&mut r)?;
        r.finish()?;
        Ok(PeerGet { request_id, lane, key })
    }
}

/// The answer to a [`PeerGet`]: the artifact as a checksummed
/// interchange frame (the exact bytes the disk layer persists, magic +
/// version + key + checksum included) plus the recompute cost the
/// serving shard recorded, or not-found. Reusing the disk frame as the
/// wire payload means the requester validates remote bytes with the
/// same gauntlet it applies to its own disk.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PeerArtifact {
    /// Echo of the request id.
    pub request_id: u64,
    /// Echo of the requested lane.
    pub lane: PeerLane,
    /// Echo of the requested key.
    pub key: CacheKey,
    /// The framed artifact bytes and the origin's recompute cost (µs);
    /// `None` when the serving shard does not hold the key.
    pub artifact: Option<(Vec<u8>, u64)>,
}

impl PeerArtifact {
    /// Encodes the reply body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.request_id);
        w.u8(lane_code(self.lane));
        write_key(&mut w, self.key);
        match &self.artifact {
            None => w.u8(0),
            Some((frame, cost_us)) => {
                w.u8(1);
                w.u64(*cost_us);
                w.bytes(frame);
            }
        }
        w.into_bytes()
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<PeerArtifact, WireError> {
        let mut r = Reader::new(body);
        let request_id = r.u64("request_id")?;
        let lane = lane_from_code(r.u8("lane")?)?;
        let key = read_key(&mut r)?;
        let artifact = match r.u8("artifact tag")? {
            0 => None,
            1 => {
                let cost_us = r.u64("cost_us")?;
                let frame = r.bytes("artifact frame")?;
                Some((frame, cost_us))
            }
            tag => return Err(WireError::InvalidTag { what: "PeerArtifact", tag }),
        };
        r.finish()?;
        Ok(PeerArtifact { request_id, lane, key, artifact })
    }
}

/// A profile upload: per-method cycle attributions for one tenant, in
/// the calibro-profile text format (the daemon parses and merges them
/// into the tenant's decayed accumulator; a malformed profile is
/// rejected with a line-numbered [`ServeError::Malformed`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProfileRequest {
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
    /// The tenant the profile attributes to.
    pub tenant: String,
    /// The profile, in `calibro_profile::Profile::to_text` format.
    pub profile_text: String,
}

impl ProfileRequest {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let ProfileRequest { request_id, tenant, profile_text } = self;
        let mut w = Writer::new();
        w.u64(*request_id);
        w.str(tenant);
        w.str(profile_text);
        w.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<ProfileRequest, WireError> {
        let mut r = Reader::new(body);
        let request = ProfileRequest {
            request_id: r.u64("request_id")?,
            tenant: r.str("tenant")?,
            profile_text: r.str("profile_text")?,
        };
        r.finish()?;
        Ok(request)
    }
}

/// The daemon's answer to a profile upload: the accumulator state after
/// absorbing it, the measured drift, and whether a re-optimization was
/// scheduled.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ProfileReply {
    /// Echo of the request id.
    pub request_id: u64,
    /// Uploads absorbed for this tenant so far (including this one).
    pub uploads: u64,
    /// Methods currently carrying non-zero decayed weight.
    pub tracked_methods: u64,
    /// Drift of the serving hot set from a fresh selection, in parts
    /// per million of total decayed weight.
    pub drift_ppm: u64,
    /// Whether this upload pushed drift over the threshold and queued a
    /// background re-optimization.
    pub refresh_scheduled: bool,
    /// The generation currently being served (0 = none sealed yet).
    pub serving_generation: u64,
}

impl ProfileReply {
    /// Encodes the reply body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let ProfileReply {
            request_id,
            uploads,
            tracked_methods,
            drift_ppm,
            refresh_scheduled,
            serving_generation,
        } = self;
        let mut w = Writer::new();
        w.u64(*request_id);
        w.u64(*uploads);
        w.u64(*tracked_methods);
        w.u64(*drift_ppm);
        w.bool(*refresh_scheduled);
        w.u64(*serving_generation);
        w.into_bytes()
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<ProfileReply, WireError> {
        let mut r = Reader::new(body);
        let reply = ProfileReply {
            request_id: r.u64("request_id")?,
            uploads: r.u64("uploads")?,
            tracked_methods: r.u64("tracked_methods")?,
            drift_ppm: r.u64("drift_ppm")?,
            refresh_scheduled: r.bool("refresh_scheduled")?,
            serving_generation: r.u64("serving_generation")?,
        };
        r.finish()?;
        Ok(reply)
    }
}

/// Asks for one tenant's generation-table snapshot.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GenerationStatsRequest {
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
    /// The tenant to report on.
    pub tenant: String,
}

impl GenerationStatsRequest {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let GenerationStatsRequest { request_id, tenant } = self;
        let mut w = Writer::new();
        w.u64(*request_id);
        w.str(tenant);
        w.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<GenerationStatsRequest, WireError> {
        let mut r = Reader::new(body);
        let request =
            GenerationStatsRequest { request_id: r.u64("request_id")?, tenant: r.str("tenant")? };
        r.finish()?;
        Ok(request)
    }
}

/// One tenant's generation-table snapshot. An unknown tenant answers
/// with `registered == false` and every other field zeroed — asking is
/// never an error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GenerationStats {
    /// Echo of the request id.
    pub request_id: u64,
    /// Echo of the tenant name.
    pub tenant: String,
    /// Whether the tenant has a registered program (a tenant that has
    /// only uploaded profiles is *not* registered yet).
    pub registered: bool,
    /// The generation currently being served (0 = none sealed yet).
    pub serving_generation: u64,
    /// Generations sealed for this tenant over its lifetime.
    pub generations_sealed: u64,
    /// Background re-optimizations triggered by drift.
    pub refreshes_triggered: u64,
    /// Whether a re-optimization is rebuilding right now (the old
    /// generation keeps serving until it seals).
    pub refresh_in_flight: bool,
    /// Profile uploads absorbed.
    pub uploads: u64,
    /// Methods with non-zero decayed weight.
    pub tracked_methods: u64,
    /// Drift of the serving hot set from a fresh selection, ppm.
    pub drift_ppm: u64,
    /// Whether the serving generation restricts outlining by a hot set.
    pub hot_restricted: bool,
    /// Size of the serving generation's hot set (0 when unrestricted).
    pub hot_set_size: u64,
    /// Byte length of the serving generation's artifact.
    pub elf_len: u64,
    /// FNV-1a digest of the serving artifact, for byte-determinism
    /// checks without re-fetching megabytes.
    pub elf_fnv: u64,
}

impl GenerationStats {
    /// Encodes the reply body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // Exhaustive destructuring: adding a field fails compilation
        // here instead of silently not being transported.
        let GenerationStats {
            request_id,
            tenant,
            registered,
            serving_generation,
            generations_sealed,
            refreshes_triggered,
            refresh_in_flight,
            uploads,
            tracked_methods,
            drift_ppm,
            hot_restricted,
            hot_set_size,
            elf_len,
            elf_fnv,
        } = self;
        let mut w = Writer::new();
        w.u64(*request_id);
        w.str(tenant);
        w.bool(*registered);
        w.u64(*serving_generation);
        w.u64(*generations_sealed);
        w.u64(*refreshes_triggered);
        w.bool(*refresh_in_flight);
        w.u64(*uploads);
        w.u64(*tracked_methods);
        w.u64(*drift_ppm);
        w.bool(*hot_restricted);
        w.u64(*hot_set_size);
        w.u64(*elf_len);
        w.u64(*elf_fnv);
        w.into_bytes()
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<GenerationStats, WireError> {
        let mut r = Reader::new(body);
        let stats = GenerationStats {
            request_id: r.u64("request_id")?,
            tenant: r.str("tenant")?,
            registered: r.bool("registered")?,
            serving_generation: r.u64("serving_generation")?,
            generations_sealed: r.u64("generations_sealed")?,
            refreshes_triggered: r.u64("refreshes_triggered")?,
            refresh_in_flight: r.bool("refresh_in_flight")?,
            uploads: r.u64("uploads")?,
            tracked_methods: r.u64("tracked_methods")?,
            drift_ppm: r.u64("drift_ppm")?,
            hot_restricted: r.bool("hot_restricted")?,
            hot_set_size: r.u64("hot_set_size")?,
            elf_len: r.u64("elf_len")?,
            elf_fnv: r.u64("elf_fnv")?,
        };
        r.finish()?;
        Ok(stats)
    }
}

/// Asks for the daemon's shared-dictionary snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DictStatsRequest {
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
}

impl DictStatsRequest {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.request_id);
        w.into_bytes()
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<DictStatsRequest, WireError> {
        let mut r = Reader::new(body);
        let request = DictStatsRequest { request_id: r.u64("request_id")? };
        r.finish()?;
        Ok(request)
    }
}

/// A point-in-time view of the daemon's shared outline dictionary. A
/// daemon running without a dictionary answers with `enabled == false`
/// and every other field zeroed — asking is never an error.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DictStatsReply {
    /// Echo of the request id.
    pub request_id: u64,
    /// Whether the daemon runs a shared dictionary at all.
    pub enabled: bool,
    /// The current sealed epoch (0 = nothing sealed yet).
    pub epoch: u64,
    /// Bodies published over the daemon's lifetime.
    pub published: u64,
    /// Bodies published since the last seal (they join the next epoch).
    pub staged: u64,
    /// Size of the current epoch's island, in words.
    pub island_words: u64,
    /// Entries in the current epoch's island.
    pub island_entries: u64,
    /// Epochs currently pinned by sealed generations (the epoch fence:
    /// none of these can be retired).
    pub pinned_epochs: u64,
    /// Candidates routed to an existing island entry.
    pub hits: u64,
    /// Bodies this daemon published (first writer per canonical key).
    pub publishes: u64,
    /// Candidates whose canonical twin was in the island but with a
    /// different register assignment, so private outlining won.
    pub private_preferred: u64,
}

impl DictStatsReply {
    /// Encodes the reply body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        // Exhaustive destructuring: adding a field fails compilation
        // here instead of silently not being transported.
        let DictStatsReply {
            request_id,
            enabled,
            epoch,
            published,
            staged,
            island_words,
            island_entries,
            pinned_epochs,
            hits,
            publishes,
            private_preferred,
        } = self;
        let mut w = Writer::new();
        w.u64(*request_id);
        w.bool(*enabled);
        w.u64(*epoch);
        w.u64(*published);
        w.u64(*staged);
        w.u64(*island_words);
        w.u64(*island_entries);
        w.u64(*pinned_epochs);
        w.u64(*hits);
        w.u64(*publishes);
        w.u64(*private_preferred);
        w.into_bytes()
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<DictStatsReply, WireError> {
        let mut r = Reader::new(body);
        let reply = DictStatsReply {
            request_id: r.u64("request_id")?,
            enabled: r.bool("enabled")?,
            epoch: r.u64("epoch")?,
            published: r.u64("published")?,
            staged: r.u64("staged")?,
            island_words: r.u64("island_words")?,
            island_entries: r.u64("island_entries")?,
            pinned_epochs: r.u64("pinned_epochs")?,
            hits: r.u64("hits")?,
            publishes: r.u64("publishes")?,
            private_preferred: r.u64("private_preferred")?,
        };
        r.finish()?;
        Ok(reply)
    }
}

// Every `CacheStats` field is a row of calibro-cache's counter table, which
// the stats body transports by iteration: a field declared outside the table
// fails compilation here instead of silently not being transported.
const _: () = assert!(core::mem::size_of::<CacheStats>() == 8 * CacheStats::LEN);

/// A point-in-time view of the daemon, returned by the `stats` request.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Microseconds since the daemon started.
    pub uptime_us: u64,
    /// Worker threads in the pool.
    pub workers: u64,
    /// Admission-queue capacity.
    pub queue_capacity: u64,
    /// Requests waiting in the admission queue right now.
    pub queue_depth: u64,
    /// Requests being compiled right now.
    pub in_flight: u64,
    /// Connections accepted since start.
    pub accepted_connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// Build requests admitted to the queue.
    pub requests_admitted: u64,
    /// Build requests completed successfully.
    pub requests_completed: u64,
    /// Build requests rejected with [`ServeError::Overloaded`].
    pub rejected_overloaded: u64,
    /// Build requests that exceeded their deadline.
    pub deadline_timeouts: u64,
    /// Frames that decoded to garbage (typed error returned, connection
    /// kept).
    pub malformed_frames: u64,
    /// Frames whose length prefix exceeded the ceiling (typed error
    /// returned, connection closed).
    pub oversized_frames: u64,
    /// Connections that vanished mid-frame.
    pub mid_frame_disconnects: u64,
    /// Builds that failed with a typed build error.
    pub build_errors: u64,
    /// This daemon's shard id within the fleet (0 when standalone).
    pub shard_id: u64,
    /// `PeerGet` requests this daemon answered for sibling shards
    /// (found or not).
    pub peer_gets_served: u64,
    /// Tenants in the generation table (registered or profile-only).
    pub tenants: u64,
    /// Profile uploads absorbed across all tenants.
    pub profile_uploads: u64,
    /// Generations sealed across all tenants (initial seals + flips).
    pub generations_sealed: u64,
    /// Drift-triggered background re-optimizations scheduled.
    pub refreshes_triggered: u64,
    /// Request-latency histogram bucket counts (see
    /// [`crate::histogram`]).
    pub latency_buckets: Vec<u64>,
    /// Cumulative shared-store counters (all four lanes + contention).
    pub cache: CacheStats,
}

impl ServerStats {
    /// The p-quantile of request latency, µs (upper bucket bound).
    #[must_use]
    pub fn latency_quantile_us(&self, p: f64) -> u64 {
        crate::histogram::quantile_us(&self.latency_buckets, p)
    }

    /// Encodes the stats body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.uptime_us);
        w.u64(self.workers);
        w.u64(self.queue_capacity);
        w.u64(self.queue_depth);
        w.u64(self.in_flight);
        w.u64(self.accepted_connections);
        w.u64(self.open_connections);
        w.u64(self.requests_admitted);
        w.u64(self.requests_completed);
        w.u64(self.rejected_overloaded);
        w.u64(self.deadline_timeouts);
        w.u64(self.malformed_frames);
        w.u64(self.oversized_frames);
        w.u64(self.mid_frame_disconnects);
        w.u64(self.build_errors);
        w.u64(self.shard_id);
        w.u64(self.peer_gets_served);
        w.u64(self.tenants);
        w.u64(self.profile_uploads);
        w.u64(self.generations_sealed);
        w.u64(self.refreshes_triggered);
        w.u32(self.latency_buckets.len() as u32);
        for &b in &self.latency_buckets {
            w.u64(b);
        }
        for v in self.cache.to_array() {
            w.u64(v);
        }
        w.into_bytes()
    }

    /// Decodes a stats body.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed field or trailing bytes.
    pub fn decode(body: &[u8]) -> Result<ServerStats, WireError> {
        let mut r = Reader::new(body);
        let uptime_us = r.u64("uptime_us")?;
        let workers = r.u64("workers")?;
        let queue_capacity = r.u64("queue_capacity")?;
        let queue_depth = r.u64("queue_depth")?;
        let in_flight = r.u64("in_flight")?;
        let accepted_connections = r.u64("accepted_connections")?;
        let open_connections = r.u64("open_connections")?;
        let requests_admitted = r.u64("requests_admitted")?;
        let requests_completed = r.u64("requests_completed")?;
        let rejected_overloaded = r.u64("rejected_overloaded")?;
        let deadline_timeouts = r.u64("deadline_timeouts")?;
        let malformed_frames = r.u64("malformed_frames")?;
        let oversized_frames = r.u64("oversized_frames")?;
        let mid_frame_disconnects = r.u64("mid_frame_disconnects")?;
        let build_errors = r.u64("build_errors")?;
        let shard_id = r.u64("shard_id")?;
        let peer_gets_served = r.u64("peer_gets_served")?;
        let tenants = r.u64("tenants")?;
        let profile_uploads = r.u64("profile_uploads")?;
        let generations_sealed = r.u64("generations_sealed")?;
        let refreshes_triggered = r.u64("refreshes_triggered")?;
        let n = r.u32("bucket count")? as usize;
        if n > 4096 {
            return Err(WireError::OversizedCollection { what: "latency buckets", len: n as u64 });
        }
        let latency_buckets =
            (0..n).map(|_| r.u64("bucket")).collect::<Result<Vec<u64>, WireError>>()?;
        let mut cache = [0u64; CacheStats::LEN];
        for (slot, name) in cache.iter_mut().zip(CacheStats::NAMES) {
            *slot = r.u64(name)?;
        }
        let cache = CacheStats::from_array(cache);
        r.finish()?;
        Ok(ServerStats {
            uptime_us,
            workers,
            queue_capacity,
            queue_depth,
            in_flight,
            accepted_connections,
            open_connections,
            requests_admitted,
            requests_completed,
            rejected_overloaded,
            deadline_timeouts,
            malformed_frames,
            oversized_frames,
            mid_frame_disconnects,
            build_errors,
            shard_id,
            peer_gets_served,
            tenants,
            profile_uploads,
            generations_sealed,
            refreshes_triggered,
            latency_buckets,
            cache,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, REQ_PING, b"abc").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Frame { kind, body } => {
                assert_eq!(kind, REQ_PING);
                assert_eq!(body, b"abc");
            }
            _ => panic!("expected a frame"),
        }
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::Eof => {}
            _ => panic!("expected clean EOF"),
        }
    }

    #[test]
    fn oversized_prefix_and_midframe_eof_are_in_band() {
        // Length prefix claims 4 GiB-ish without sending it.
        let huge = (u32::MAX).to_le_bytes();
        let mut cursor = std::io::Cursor::new(huge.to_vec());
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::TooLarge { claimed } => assert_eq!(claimed, u64::from(u32::MAX)),
            _ => panic!("expected TooLarge"),
        }
        // A frame that promises 10 bytes and delivers 3.
        let mut partial = 10u32.to_le_bytes().to_vec();
        partial.extend_from_slice(&[REQ_PING, 1, 2]);
        let mut cursor = std::io::Cursor::new(partial);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::MidFrameDisconnect => {}
            _ => panic!("expected MidFrameDisconnect"),
        }
        // EOF inside the length prefix itself is also mid-frame.
        let mut cursor = std::io::Cursor::new(vec![5u8, 0]);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME).unwrap() {
            FrameEvent::MidFrameDisconnect => {}
            _ => panic!("expected MidFrameDisconnect"),
        }
    }

    #[test]
    fn error_roundtrip_covers_every_variant() {
        let variants = [
            ServeError::Overloaded { capacity: 32 },
            ServeError::DeadlineExceeded { deadline_ms: 250 },
            ServeError::Malformed { detail: "bad tag".into() },
            ServeError::FrameTooLarge { claimed: 1 << 40, limit: 64 << 20 },
            ServeError::Build { detail: "verify failed".into() },
            ServeError::Draining,
            ServeError::FingerprintMismatch,
        ];
        for (i, e) in variants.into_iter().enumerate() {
            let body = encode_error(i as u64, &e);
            let (id, back) = decode_error(&body).expect("error decodes");
            assert_eq!(id, i as u64);
            assert_eq!(back, e);
        }
    }

    #[test]
    fn stats_roundtrip() {
        let stats = ServerStats {
            uptime_us: 123,
            workers: 8,
            queue_capacity: 64,
            queue_depth: 3,
            in_flight: 8,
            accepted_connections: 40,
            open_connections: 12,
            requests_admitted: 1000,
            requests_completed: 980,
            rejected_overloaded: 17,
            deadline_timeouts: 3,
            malformed_frames: 2,
            oversized_frames: 1,
            mid_frame_disconnects: 4,
            build_errors: 5,
            shard_id: 3,
            peer_gets_served: 42,
            tenants: 2,
            profile_uploads: 31,
            generations_sealed: 4,
            refreshes_triggered: 2,
            latency_buckets: vec![0, 5, 10, 0, 2],
            cache: CacheStats::from_array(std::array::from_fn(|i| 3 * i as u64 + 1)),
        };
        let back = ServerStats::decode(&stats.encode()).expect("stats decode");
        assert_eq!(back, stats);
        assert!(back.latency_quantile_us(0.5) > 0);
    }

    #[test]
    fn stats_body_is_byte_identical_to_the_hand_listed_codec() {
        // Length and FNV-1a-64 digest recorded from the codec that
        // spelled the 45 cache counters out by hand (PR 15), over this
        // same value: cache counters 1..=45 in table order (whose names
        // calibro-cache pins separately).
        let ramp: [u64; CacheStats::LEN] = std::array::from_fn(|i| i as u64 + 1);
        let stats = ServerStats {
            uptime_us: 100,
            workers: 2,
            latency_buckets: vec![7, 8],
            cache: CacheStats::from_array(ramp),
            ..ServerStats::default()
        };
        let body = stats.encode();
        let digest = crate::server::fnv1a64(&body);
        assert_eq!((body.len(), digest), (548, 0x9c25_c479_dd85_e91f));
        assert_eq!(ServerStats::decode(&body).expect("stats decode"), stats);
    }

    #[test]
    fn peer_messages_roundtrip() {
        let key = CacheKey { hi: 0xdead_beef, lo: 0x1234_5678 };
        for lane in [PeerLane::Method, PeerLane::Group, PeerLane::Dict] {
            let get = PeerGet { request_id: 77, lane, key };
            assert_eq!(PeerGet::decode(&get.encode()).expect("get decodes"), get);
        }
        let found = PeerArtifact {
            request_id: 77,
            lane: PeerLane::Method,
            key,
            artifact: Some((vec![1, 2, 3, 4], 9000)),
        };
        assert_eq!(PeerArtifact::decode(&found.encode()).expect("found decodes"), found);
        let missing = PeerArtifact { request_id: 78, lane: PeerLane::Group, key, artifact: None };
        assert_eq!(PeerArtifact::decode(&missing.encode()).expect("missing decodes"), missing);
        // A wrong lane tag is a typed wire error, not a panic.
        let mut body = found.encode();
        body[8] = 9;
        assert!(PeerArtifact::decode(&body).is_err());
    }

    #[test]
    fn profile_messages_roundtrip() {
        let request = ProfileRequest {
            request_id: 11,
            tenant: "app.example".into(),
            profile_text: "# calibro profile v1\n1 100\n2 50\n".into(),
        };
        assert_eq!(ProfileRequest::decode(&request.encode()).expect("request decodes"), request);

        let reply = ProfileReply {
            request_id: 11,
            uploads: 9,
            tracked_methods: 37,
            drift_ppm: 312_500,
            refresh_scheduled: true,
            serving_generation: 2,
        };
        assert_eq!(ProfileReply::decode(&reply.encode()).expect("reply decodes"), reply);

        // Trailing bytes are rejected, same as every other codec.
        let mut body = reply.encode();
        body.push(0);
        assert!(ProfileReply::decode(&body).is_err());
    }

    #[test]
    fn dict_stats_roundtrip() {
        let request = DictStatsRequest { request_id: 9 };
        assert_eq!(DictStatsRequest::decode(&request.encode()).expect("request decodes"), request);

        let reply = DictStatsReply {
            request_id: 9,
            enabled: true,
            epoch: 4,
            published: 23,
            staged: 2,
            island_words: 96,
            island_entries: 21,
            pinned_epochs: 3,
            hits: 64,
            publishes: 23,
            private_preferred: 5,
        };
        assert_eq!(DictStatsReply::decode(&reply.encode()).expect("reply decodes"), reply);

        // The disabled answer is all-zero but still well-formed.
        let off = DictStatsReply { request_id: 10, ..DictStatsReply::default() };
        assert_eq!(DictStatsReply::decode(&off.encode()).expect("off decodes"), off);

        // Trailing bytes are rejected, same as every other codec.
        let mut body = reply.encode();
        body.push(0);
        assert!(DictStatsReply::decode(&body).is_err());
    }

    #[test]
    fn generation_stats_roundtrip() {
        let request = GenerationStatsRequest { request_id: 5, tenant: "app.example".into() };
        assert_eq!(
            GenerationStatsRequest::decode(&request.encode()).expect("request decodes"),
            request
        );

        let stats = GenerationStats {
            request_id: 5,
            tenant: "app.example".into(),
            registered: true,
            serving_generation: 3,
            generations_sealed: 3,
            refreshes_triggered: 2,
            refresh_in_flight: true,
            uploads: 40,
            tracked_methods: 120,
            drift_ppm: 250_000,
            hot_restricted: true,
            hot_set_size: 17,
            elf_len: 1 << 20,
            elf_fnv: 0xdead_beef_cafe_f00d,
        };
        assert_eq!(GenerationStats::decode(&stats.encode()).expect("stats decode"), stats);

        let unknown = GenerationStats {
            request_id: 6,
            tenant: "never.seen".into(),
            registered: false,
            serving_generation: 0,
            generations_sealed: 0,
            refreshes_triggered: 0,
            refresh_in_flight: false,
            uploads: 0,
            tracked_methods: 0,
            drift_ppm: 0,
            hot_restricted: false,
            hot_set_size: 0,
            elf_len: 0,
            elf_fnv: 0,
        };
        assert_eq!(GenerationStats::decode(&unknown.encode()).expect("unknown decodes"), unknown);
    }
}
