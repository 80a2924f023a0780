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
//!
//! # One message table
//!
//! Every body is a struct declared once, in wire order, by `message!`:
//! the declaration *is* the codec (each field encodes through its
//! [`Wire`] impl and decodes under its own name), so there is no
//! per-message `encode`/`decode` to keep in step with the fields. A
//! [`Request`] row ties a request body to its kind byte, its reply kind
//! and its reply body; the client's one call path and the daemon's one
//! decode-or-reject path are generic over that row. Adding a kind is
//! one `message!` block, one `requests!` row and one handler body.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use calibro::{BuildOptions, CacheKey, CacheStats};
use calibro_dex::wire::{
    self, get_method_body, put_method_body, wire_fields, wire_seq, Reader, Wire, WireError, Writer,
};
use calibro_dex::{DexFile, Method};

use crate::error::ServeError;
pub use crate::programs::ProgramId;

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
/// Request kind: compile a program this connection sent whole before,
/// named by its [`ProgramId`] (see [`BuildByIdRequest`]).
pub const REQ_BUILD_BY_ID: u8 = 0x09;
/// Request kind: compile an edit of a program this connection sent
/// whole before, sent as the rows of its changed methods (see
/// [`BuildEditRequest`]).
pub const REQ_BUILD_EDIT: u8 = 0x0A;
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
    // The kind byte is read on its own, so the body lands in its own
    // vector and is never shifted down to peel the kind off.
    let mut kind = [0u8; 1];
    if !matches!(read_exact_or_eof(stream, &mut kind)?, ReadOutcome::Full) {
        return Ok(FrameEvent::MidFrameDisconnect);
    }
    // `take` + `read_to_end` appends into the reserved capacity as the
    // bytes arrive: nothing is zero-filled first.
    #[allow(clippy::cast_possible_truncation)]
    let mut body = Vec::with_capacity(len as usize - 1);
    stream.by_ref().take(len - 1).read_to_end(&mut body)?;
    if (body.len() as u64) < len - 1 {
        return Ok(FrameEvent::MidFrameDisconnect);
    }
    Ok(FrameEvent::Frame { kind: kind[0], body })
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
            Ok(0) if filled == 0 => return Ok(ReadOutcome::CleanEof),
            Ok(0) => return Ok(ReadOutcome::PartialEof),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(ReadOutcome::Full)
}

/// One whole frame (length prefix, kind, body) in one buffer, so it
/// goes out in one write: separate prefix/kind/body writes would cost
/// three syscalls (and three skb charges) per frame, which dominates
/// pipelined small-frame exchanges like peer gets.
pub(crate) fn frame(kind: u8, body: &[u8]) -> Vec<u8> {
    let len = (body.len() + 1) as u32;
    [&len.to_le_bytes()[..], &[kind], body].concat()
}

/// The request id of a body: every request's and reply's first field,
/// eight little-endian bytes (0 when not even eight arrived).
pub(crate) fn request_id_of(body: &[u8]) -> u64 {
    body.get(..8).and_then(|b| b.try_into().ok()).map_or(0, u64::from_le_bytes)
}

/// Writes one frame in one write. Does not flush: a buffered sink
/// decides when its frames hit the wire; unbuffered sinks need no
/// flush at all.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn write_frame(stream: &mut impl Write, kind: u8, body: &[u8]) -> std::io::Result<()> {
    stream.write_all(&frame(kind, body))
}

/// Declares a message body: the struct, once, with its fields in wire
/// order. [`Wire`] comes from `wire_fields!` over exactly those fields;
/// `encode`/`decode` frame it as a whole body (trailing bytes rejected).
macro_rules! message {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: $ty,)*
        }

        wire_fields!($name { $($field),* });

        body_codec!($name);
    };
}

/// `encode`/`decode` of a [`Wire`] type as a whole message body.
macro_rules! body_codec {
    ($name:ident) => {
        impl $name {
            /// Encodes the message body.
            #[must_use]
            pub fn encode(&self) -> Vec<u8> {
                wire::encode(self)
            }

            /// Decodes a message body.
            ///
            /// # Errors
            ///
            /// Returns [`WireError`] on any malformed field or trailing
            /// bytes.
            pub fn decode(body: &[u8]) -> Result<$name, WireError> {
                wire::decode(body)
            }
        }
    };
}

/// A request body, tied to its kind byte and to the kind and body of
/// the reply a daemon answers it with (when it does not answer
/// [`RESP_ERROR`] + [`ErrorReply`]). Every request leads with its
/// `request_id: u64`, which is what lets the daemon echo an id even
/// when the rest of the body is garbage.
pub trait Request: Wire {
    /// The request frame's kind byte.
    const KIND: u8;
    /// The success reply frame's kind byte.
    const REPLY_KIND: u8;
    /// The success reply body.
    type Reply: Wire;
}

macro_rules! requests {
    ($($request:ident = $kind:ident => $reply:ident = $reply_kind:ident,)*) => {$(
        impl Request for $request {
            const KIND: u8 = $kind;
            const REPLY_KIND: u8 = $reply_kind;
            type Reply = $reply;
        }
    )*};
}

requests! {
    BuildRequest = REQ_BUILD => BuildReply = RESP_BUILT,
    BuildByIdRequest = REQ_BUILD_BY_ID => BuildReply = RESP_BUILT,
    BuildEditRequest = REQ_BUILD_EDIT => BuildReply = RESP_BUILT,
    PeerGet = REQ_PEER_GET => PeerArtifact = RESP_PEER_ARTIFACT,
    ProfileRequest = REQ_PROFILE => ProfileReply = RESP_PROFILE,
    GenerationStatsRequest = REQ_GENERATION_STATS => GenerationStats = RESP_GENERATION_STATS,
}

/// A compile request: the program, the full build configuration, an
/// optional deadline, and the client-computed fingerprints the daemon
/// cross-checks against its own. The program is the *last* field, so a
/// reader that has the header has the program's bytes as the rest of
/// the body ([`BuildHeader::split`]).
pub struct BuildRequest {
    /// Client-chosen id echoed in the response.
    pub request_id: u64,
    /// Per-request deadline; `None` uses the daemon's default.
    pub deadline: Option<Duration>,
    /// Client-side [`calibro::options_fingerprint`] of `options`.
    pub options_fp: CacheKey,
    /// Client-side LTBO-config fingerprint (`None` when LTBO is off).
    pub ltbo_fp: Option<CacheKey>,
    /// Tenant this program belongs to. `None` is a plain one-shot
    /// build; `Some` routes the request through the daemon's
    /// generation table: the first build registers the program and
    /// seals generation 1, later identical requests are answered from
    /// the currently serving sealed generation (which a background
    /// profile-driven refresh may advance).
    pub tenant: Option<String>,
    /// The build configuration.
    pub options: BuildOptions,
    /// The program to compile.
    pub dex: DexFile,
}

/// A [`BuildRequest`] that borrows what it sends: the client encodes
/// from the caller's program and options without copying either. Its
/// `put` is the one written-down field order of a build request — the
/// owned request encodes through it, and [`BuildHeader::split`] below
/// reads the same fields back — and it encodes the request by reference
/// ([`encode_by_id`](Self::encode_by_id)) and by edit
/// ([`encode_edit`](Self::encode_edit)) too.
pub struct BuildRequestRef<'a> {
    /// See [`BuildRequest::request_id`].
    pub request_id: u64,
    /// See [`BuildRequest::deadline`].
    pub deadline: Option<Duration>,
    /// See [`BuildRequest::options_fp`].
    pub options_fp: CacheKey,
    /// See [`BuildRequest::ltbo_fp`].
    pub ltbo_fp: Option<CacheKey>,
    /// See [`BuildRequest::tenant`].
    pub tenant: Option<&'a str>,
    /// See [`BuildRequest::options`].
    pub options: &'a BuildOptions,
    /// See [`BuildRequest::dex`].
    pub dex: &'a DexFile,
}

impl BuildRequestRef<'_> {
    /// Encodes the request body.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        self.encode_split().0
    }

    /// Encodes the request body, and where in it the program's bytes
    /// start: `body[start..]` is the program's `DexFile` row, which a
    /// [`ProgramId`] is the hash of.
    #[must_use]
    pub fn encode_split(&self) -> (Vec<u8>, usize) {
        let mut w = Writer::new();
        self.put_header(&mut w);
        let start = w.buf_mut().len();
        self.dex.put(&mut w);
        (w.into_bytes(), start)
    }

    /// Encodes the [`BuildByIdRequest`] that names `program` in place
    /// of this request's program.
    #[must_use]
    pub fn encode_by_id(&self, program: ProgramId) -> Vec<u8> {
        let mut w = Writer::new();
        self.put_header(&mut w);
        program.put(&mut w);
        w.into_bytes()
    }

    /// Encodes the [`BuildEditRequest`] that sends this request's
    /// program as an edit of `base`: the rows of the methods at
    /// `changed` (in increasing order), written from the borrowed
    /// methods.
    #[must_use]
    pub fn encode_edit(&self, base: ProgramId, changed: &[u32]) -> Vec<u8> {
        let mut w = Writer::new();
        self.put_header(&mut w);
        base.put(&mut w);
        w.u32(self.dex.methods().len() as u32);
        // `Vec<EditRow>`'s form.
        w.u32(changed.len() as u32);
        for &index in changed {
            w.u32(index);
            put_method_body(&self.dex.methods()[index as usize], &mut w);
        }
        w.into_bytes()
    }

    fn put(&self, w: &mut Writer) {
        self.put_header(w);
        self.dex.put(w);
    }

    fn put_header(&self, w: &mut Writer) {
        let BuildRequestRef { request_id, deadline, options_fp, ltbo_fp, tenant, options, .. } =
            *self;
        put_header(w, request_id, deadline, options_fp, ltbo_fp, tenant, options);
    }
}

/// The fields of a build request ahead of the program, in the order
/// [`BuildHeader`] reads them: the one written-down header order of
/// both build kinds, whole and by reference.
fn put_header(
    w: &mut Writer,
    request_id: u64,
    deadline: Option<Duration>,
    options_fp: CacheKey,
    ltbo_fp: Option<CacheKey>,
    tenant: Option<&str>,
    options: &BuildOptions,
) {
    request_id.put(w);
    deadline.put(w);
    options_fp.put(w);
    ltbo_fp.put(w);
    // `Option<String>`'s form, from the borrowed text.
    match tenant {
        None => w.u8(0),
        Some(tenant) => {
            w.u8(1);
            w.str(tenant);
        }
    }
    options.put(w);
}

/// The fields of a [`BuildRequest`] ahead of the program: everything
/// the daemon reads to reject, cross-check or answer a request before
/// it needs the program decoded.
pub struct BuildHeader {
    /// See [`BuildRequest::request_id`].
    pub request_id: u64,
    /// See [`BuildRequest::deadline`].
    pub deadline: Option<Duration>,
    /// See [`BuildRequest::options_fp`].
    pub options_fp: CacheKey,
    /// See [`BuildRequest::ltbo_fp`].
    pub ltbo_fp: Option<CacheKey>,
    /// See [`BuildRequest::tenant`].
    pub tenant: Option<String>,
    /// See [`BuildRequest::options`].
    pub options: BuildOptions,
}

impl Wire for BuildHeader {
    fn put(&self, w: &mut Writer) {
        let BuildHeader { request_id, deadline, options_fp, ltbo_fp, tenant, options } = self;
        put_header(w, *request_id, *deadline, *options_fp, *ltbo_fp, tenant.as_deref(), options);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<BuildHeader, WireError> {
        Ok(BuildHeader {
            request_id: Wire::get(r, "request_id")?,
            deadline: Wire::get(r, "deadline")?,
            options_fp: Wire::get(r, "options_fp")?,
            ltbo_fp: Wire::get(r, "ltbo_fp")?,
            tenant: Wire::get(r, "tenant")?,
            options: Wire::get(r, "options")?,
        })
    }
}

impl BuildHeader {
    /// Splits a build request body into its decoded header and the
    /// program's bytes where they lie — `wire::decode::<DexFile>` of
    /// the latter completes the request exactly as
    /// [`BuildRequest::decode`] of the whole body would, error for
    /// error.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] on any malformed header field.
    pub fn split(body: &[u8]) -> Result<(BuildHeader, &[u8]), WireError> {
        let mut r = Reader::new(body);
        let header = BuildHeader::get(&mut r, "header")?;
        Ok((header, r.rest()))
    }
}

impl Wire for BuildRequest {
    fn put(&self, w: &mut Writer) {
        let BuildRequest { request_id, deadline, options_fp, ltbo_fp, tenant, options, dex } = self;
        BuildRequestRef {
            request_id: *request_id,
            deadline: *deadline,
            options_fp: *options_fp,
            ltbo_fp: *ltbo_fp,
            tenant: tenant.as_deref(),
            options,
            dex,
        }
        .put(w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<BuildRequest, WireError> {
        let BuildHeader { request_id, deadline, options_fp, ltbo_fp, tenant, options } =
            BuildHeader::get(r, "header")?;
        let dex = Wire::get(r, "dex")?;
        Ok(BuildRequest { request_id, deadline, options_fp, ltbo_fp, tenant, options, dex })
    }
}

body_codec!(BuildRequest);

message! {
    /// A compile request by reference: a build request's header, then
    /// the [`ProgramId`] of a program this connection sent whole before,
    /// where the program's bytes would be. The daemon answers it as the
    /// whole request for that program, or with
    /// [`ServeError::UnknownProgram`] when the id is not one this
    /// connection sent or the daemon no longer holds the program.
    pub struct BuildByIdRequest {
        /// Every field of the request ahead of the program.
        pub header: BuildHeader,
        /// The program, by name.
        pub program: ProgramId,
    }
}

/// One method of a [`BuildEditRequest`]: the position it takes in the
/// edited program, then its row as a whole program carries it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EditRow {
    /// The method's position (its id) in the edited program.
    pub index: u32,
    /// The method; its `id` is `index` once the edit is applied.
    pub method: Method,
}

impl Wire for EditRow {
    fn put(&self, w: &mut Writer) {
        self.index.put(w);
        put_method_body(&self.method, w);
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<EditRow, WireError> {
        let index = r.u32("row index")?;
        // The base's classes bound the class id when the edit is applied.
        let mut method = get_method_body(r, usize::MAX)?;
        method.id = calibro_dex::MethodId(index);
        Ok(EditRow { index, method })
    }
}

// The index, then the smallest method row: class, empty name, two
// register counts, the native flag and an empty instruction count.
wire_seq!(EditRow: 4 + 4 + 4 + 2 + 2 + 1 + 4);

message! {
    /// A compile request that sends a program as an edit of one this
    /// connection sent whole before: a build request's header, the
    /// [`ProgramId`] of that base program, the edited program's method
    /// count, and one row for each method that differs from the base's,
    /// in increasing index order. The edited program has the base's
    /// classes and statics, and the base's methods cut or extended to
    /// `count` with each row dropped in at its index. The daemon answers
    /// it as the whole request for the edited program;
    /// [`ServeError::UnknownProgram`] when it cannot name the base (the
    /// rule of a [`BuildByIdRequest`]); [`ServeError::Malformed`] when
    /// the rows do not make a program of the base (an index at or past
    /// the count, out of order or repeated, a method past the base's
    /// length without a row, a class the base does not have), or when
    /// the request names a tenant — a tenant's builds are grouped by the
    /// whole program's id, which an edit does not carry.
    pub struct BuildEditRequest {
        /// Every field of the request ahead of the program.
        pub header: BuildHeader,
        /// The program edited, by name.
        pub base: ProgramId,
        /// Methods in the edited program.
        pub count: u32,
        /// The methods that differ from the base's, by position.
        pub rows: Vec<EditRow>,
    }
}

message! {
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

/// A [`BuildReply`] kept to answer with again: every field but the
/// request id, and the ELF shared. A held program's replay slot and a
/// tenant's serving generation each keep one, and the two may share one
/// ELF; [`frame`](Self::frame) renders the reply to one request.
pub(crate) struct SealedReply {
    pub(crate) options_fp: CacheKey,
    pub(crate) ltbo_fp: Option<CacheKey>,
    /// The ELF writer's buffer itself, moved in without a copy.
    pub(crate) elf: Arc<Vec<u8>>,
    pub(crate) methods: u64,
    pub(crate) methods_from_cache: u64,
    pub(crate) cache_hits: u64,
    pub(crate) cache_misses: u64,
    pub(crate) build_us: u64,
    pub(crate) generation: u64,
    pub(crate) stats_json: String,
}

impl SealedReply {
    /// The whole [`RESP_BUILT`] frame answering `request_id`:
    /// [`BuildReply`]'s row, written into a buffer of its exact size, so
    /// the ELF is copied once, straight from where it is shared.
    pub(crate) fn frame(&self, request_id: u64) -> Vec<u8> {
        let SealedReply { options_fp, ltbo_fp, elf, stats_json, .. } = self;
        let counts = [
            self.methods,
            self.methods_from_cache,
            self.cache_hits,
            self.cache_misses,
            self.build_us,
            self.generation,
        ];
        let len = 8
            + options_fp.encoded_len()
            + ltbo_fp.encoded_len()
            + 8
            + elf.len()
            + 8 * counts.len()
            + stats_json.encoded_len();
        let mut w = Writer::with_capacity(5 + len);
        w.u32((len + 1) as u32);
        w.u8(RESP_BUILT);
        request_id.put(&mut w);
        options_fp.put(&mut w);
        ltbo_fp.put(&mut w);
        w.bytes(elf);
        counts.iter().for_each(|count| count.put(&mut w));
        w.str(stats_json);
        w.into_bytes()
    }
}

message! {
    /// An error response ([`RESP_ERROR`]): the typed failure any request
    /// kind can be answered with.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct ErrorReply {
        /// Echo of the request id (0 when the request's own id was
        /// unreadable).
        pub request_id: u64,
        /// What went wrong.
        pub error: ServeError,
    }
}

/// Which store lane a peer fetch targets (the lanes with a peer tier),
/// and a found artifact's frame and recompute cost.
pub use calibro_cache::{PeerFrame, PeerLane};

message! {
    /// A fleet-internal fetch: "do you hold this key?" One shard sends
    /// this to a sibling when a lookup misses its own memory and disk
    /// tiers.
    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    pub struct PeerGet {
        /// Requester-chosen id echoed in the response.
        pub request_id: u64,
        /// Which lane to probe.
        pub lane: PeerLane,
        /// The 128-bit content key.
        pub key: CacheKey,
    }
}

message! {
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
        pub artifact: Option<PeerFrame>,
    }
}

message! {
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
}

message! {
    /// The daemon's answer to a profile upload: the accumulator state
    /// after absorbing it, the measured drift, and whether a
    /// re-optimization was scheduled.
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
        /// Whether this upload pushed drift over the threshold and queued
        /// a background re-optimization.
        pub refresh_scheduled: bool,
        /// The generation currently being served (0 = none sealed yet).
        pub serving_generation: u64,
    }
}

message! {
    /// Asks for one tenant's generation-table snapshot.
    #[derive(Clone, PartialEq, Eq, Debug)]
    pub struct GenerationStatsRequest {
        /// Client-chosen id echoed in the response.
        pub request_id: u64,
        /// The tenant to report on.
        pub tenant: String,
    }
}

message! {
    /// One tenant's generation-table snapshot. An unknown tenant answers
    /// with `registered == false` and every other field zeroed — asking
    /// is never an error.
    #[derive(Clone, PartialEq, Eq, Debug, Default)]
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
}

/// The daemon's scalar stats, one row per value: `name,` for a value
/// computed when the snapshot is taken, `name: AtomicU64,` for a counter
/// the daemon bumps as it serves. [`ServerStats`] (fields, wire body,
/// `NAMES`, array form, JSON) and the daemon's [`ServerCounters`] block
/// are all generated from the rows. Row order is wire order and JSON key
/// order — append, never reorder.
macro_rules! server_stats {
    ($($(#[$doc:meta])* $field:ident $(: $atomic:ty)?,)*) => {
        message! {
            /// A point-in-time view of the daemon, returned by the `stats`
            /// request.
            #[derive(Clone, Debug, Default, PartialEq, Eq)]
            pub struct ServerStats {
                $($(#[$doc])* pub $field: u64,)*
                /// Request-latency histogram bucket counts (see
                /// [`crate::histogram`]).
                pub latency_buckets: Vec<u64>,
                /// Cumulative shared-store counters (all three lanes +
                /// contention).
                pub cache: CacheStats,
            }
        }

        impl ServerStats {
            /// The scalar field names, in table (wire and JSON key) order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($field),)*];
            /// Number of scalar fields.
            pub const LEN: usize = [$(stringify!($field),)*].len();

            /// The scalar values, in table order.
            #[must_use]
            pub fn to_array(&self) -> [u64; Self::LEN] {
                [$(self.$field,)*]
            }
        }

        /// The rows the daemon counts as it serves, as atomics.
        #[derive(Default)]
        pub(crate) struct ServerCounters {
            $($(pub(crate) $field: $atomic,)?)*
        }

        impl ServerCounters {
            /// The counted rows of a snapshot; every other field is left
            /// at its default for the caller to fill.
            pub(crate) fn snapshot(&self) -> ServerStats {
                ServerStats {
                    $($($field: <$atomic>::load(&self.$field, Ordering::Relaxed),)?)*
                    ..ServerStats::default()
                }
            }
        }
    };
}

server_stats! {
    /// Microseconds since the daemon started.
    uptime_us,
    /// Worker threads in the pool.
    workers,
    /// Admission-queue capacity.
    queue_capacity,
    /// Jobs waiting in the admission queue right now: client builds
    /// and drift-triggered refreshes.
    queue_depth,
    /// Jobs being compiled right now, refreshes included.
    in_flight: AtomicU64,
    /// Connections accepted since start.
    accepted_connections: AtomicU64,
    /// Connections currently open.
    open_connections: AtomicU64,
    /// Build requests admitted to the queue.
    requests_admitted: AtomicU64,
    /// Build requests completed successfully.
    requests_completed: AtomicU64,
    /// Requests rejected with [`ServeError::Overloaded`]: a full
    /// admission queue, or a connection's unread replies past the
    /// frame ceiling.
    rejected_overloaded: AtomicU64,
    /// Build requests that exceeded their deadline.
    deadline_timeouts: AtomicU64,
    /// Frames that decoded to garbage (typed error returned, connection
    /// kept).
    malformed_frames: AtomicU64,
    /// Frames whose length prefix exceeded the ceiling (typed error
    /// returned, connection closed).
    oversized_frames: AtomicU64,
    /// Connections that vanished mid-frame.
    mid_frame_disconnects: AtomicU64,
    /// Builds that failed with a typed build error.
    build_errors: AtomicU64,
    /// This daemon's shard id within the fleet (0 when standalone).
    shard_id,
    /// `PeerGet` requests this daemon answered for sibling shards
    /// (found or not).
    peer_gets_served: AtomicU64,
    /// Tenants in the generation table (registered or profile-only).
    tenants,
    /// Profile uploads absorbed across all tenants.
    profile_uploads: AtomicU64,
    /// Generations sealed across all tenants (initial seals + flips).
    generations_sealed: AtomicU64,
    /// Drift-triggered background re-optimizations scheduled.
    refreshes_triggered: AtomicU64,
    /// Build requests whose program was decoded from its wire bytes (a
    /// program the table does not hold: new, seen once, or evicted).
    programs_decoded: AtomicU64,
    /// Build requests whose program the table already held decoded —
    /// named by the hash of the bytes that arrived, nothing decoded.
    programs_reused: AtomicU64,
    /// Build requests by reference that the table answered: the program
    /// named by its id, which its connection had sent whole before.
    programs_by_reference: AtomicU64,
    /// Build requests by edit that the table answered: the program made
    /// from a held base its connection had sent whole before, and the
    /// rows of the methods that changed.
    programs_by_edit: AtomicU64,
    /// Plain build requests answered from their held program's replay
    /// slot: the sealed reply of its last client build under the same
    /// options, never queued (also counted in `requests_completed`).
    builds_replayed: AtomicU64,
}

impl ServerStats {
    /// The p-quantile of request latency, µs (upper bucket bound).
    #[must_use]
    pub fn latency_quantile_us(&self, p: f64) -> u64 {
        crate::histogram::quantile_us(&self.latency_buckets, p)
    }

    /// The snapshot as one JSON object: the scalar rows by name, the
    /// latency quantiles, then the store counters under `"cache"` (hand
    /// rolled — every value is numeric, so no escaping is needed).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let quantiles = [("p50_us", 0.50), ("p95_us", 0.95), ("p99_us", 0.99)]
            .map(|(name, p)| (name, self.latency_quantile_us(p)));
        let mut json = String::from("{");
        for (name, value) in Self::NAMES.into_iter().zip(self.to_array()).chain(quantiles) {
            write!(json, r#""{name}":{value},"#).expect("writing to a String cannot fail");
        }
        json.push_str(r#""cache":"#);
        json.push_str(&self.cache.to_json());
        json.push('}');
        json
    }
}

/// The sample program and option matrix the message fixtures carry, and
/// the goldens of the two things every cache key folds in from them.
#[cfg(test)]
mod samples {
    use calibro::BuildOptions;
    use calibro_dex::{
        BinOp, Cmp, DexFile, DexInsn, FieldId, InvokeKind, Method, MethodBuilder, MethodId, VReg,
    };
    use calibro_hgraph::PipelineConfig;

    pub(super) fn sample_dex() -> DexFile {
        let mut dex = DexFile::new();
        let class = dex.add_class("Main", 3);
        let other = dex.add_class("Util", 0);
        dex.reserve_statics(2);
        let mut b = MethodBuilder::new("f", 6, 2);
        b.push(DexInsn::Const { dst: VReg(0), value: -7 });
        b.push(DexInsn::Bin { op: BinOp::Xor, dst: VReg(1), a: VReg(0), b: VReg(4) });
        b.push(DexInsn::BinLit { op: BinOp::Shl, dst: VReg(2), a: VReg(1), lit: 3 });
        b.push(DexInsn::IGet { dst: VReg(3), obj: VReg(4), field: FieldId(1) });
        b.push(DexInsn::Switch { src: VReg(2), first_key: -1, targets: vec![6, 7] });
        b.push(DexInsn::Goto { target: 7 });
        b.push(DexInsn::Throw { src: VReg(3) });
        b.push(DexInsn::If { cmp: Cmp::Ge, a: VReg(0), b: VReg(1), target: 9 });
        b.push(DexInsn::IfZ { cmp: Cmp::Le, a: VReg(2), target: 0 });
        b.push(DexInsn::Return { src: VReg(1) });
        dex.add_method(b.build(class));
        let mut c = MethodBuilder::new("g", 4, 1);
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Static,
            method: MethodId(0),
            args: vec![VReg(3), VReg(3)],
            dst: Some(VReg(0)),
        });
        c.push(DexInsn::Invoke {
            kind: InvokeKind::Virtual,
            method: MethodId(1),
            args: vec![VReg(2)],
            dst: None,
        });
        c.push(DexInsn::InvokeNative { method: MethodId(2), args: vec![], dst: None });
        c.push(DexInsn::ReturnVoid);
        dex.add_method(c.build(other));
        dex.add_method(Method {
            id: MethodId(0),
            class,
            name: "nat".into(),
            num_regs: 1,
            num_args: 1,
            insns: vec![],
            is_native: true,
        });
        dex
    }

    pub(super) fn option_variants() -> [BuildOptions; 6] {
        [
            BuildOptions::baseline(),
            BuildOptions::cto(),
            BuildOptions::cto_ltbo().with_compile_threads(8),
            BuildOptions::cto_ltbo(),
            BuildOptions::cto_ltbo_parallel(16, 4).with_hot_filter([4, 1, 9].into_iter().collect()),
            BuildOptions {
                force_metadata: true,
                min_seq_len: 5,
                passes: PipelineConfig { simplify: false, dce: false, ..PipelineConfig::all() },
                ..BuildOptions::default()
            },
        ]
    }

    // Both goldens below were re-recorded once, with the `+s5` → `+s6`
    // schema bump: a key became the hash of the wire form (tag + the
    // type's `Wire` row) where it had been a second, hand-packed walk,
    // so every addressing key moved together and old entries miss. The
    // options fingerprints were re-recorded again with the `+s7` bump,
    // when `BuildOptions` lost its `merge` field (the LTBO fingerprints,
    // which take no schema salt, did not move), with `+s8`, when it
    // lost `inlining` and `PipelineConfig` three pass switches, and with
    // `+s9`, when it lost `dict` (variant 3, once `cto_ltbo` with the
    // dictionary, is plain `cto_ltbo` since).

    #[test]
    fn method_hash_of_the_sample_program_is_unchanged() {
        // A method's key is the hash of its wire bytes, operand codes
        // included: renumbering them in calibro-dex, or any change to a
        // `DexInsn` row, moves this golden and needs a schema bump.
        let mut h = calibro_cache::StableHasher::new();
        for m in sample_dex().methods() {
            calibro_cache::hash_method(m, &mut h);
        }
        let key = h.finish();
        assert_eq!((key.hi, key.lo), (0x88bf_75fe_8676_b0f4, 0xcb5b_9d28_a0d2_784a));
    }

    #[test]
    fn option_and_ltbo_fingerprints_of_the_variants_are_unchanged() {
        // Every per-method cache key embeds `options_fingerprint`, every
        // group-plan key the LTBO fingerprint, and both travel in each
        // build request: a value moving here orphans every persisted
        // cache entry and needs a `SCHEMA_VERSION` bump.
        type Key = (u64, u64);
        const GLOBAL_MIN2: Option<Key> = Some((0x7e06_320b_bf02_7fb4, 0xfa1a_a072_dd3d_1c44));
        const SHARDED_HOT: Option<Key> = Some((0xe47b_1e11_4316_2eb4, 0xce3a_0b15_3046_02ae));
        let golden: [(Key, Option<Key>); 6] = [
            ((0x6875_9537_2a59_69ce, 0x4897_e41d_53ea_e973), None),
            ((0x665f_25ef_0ef5_9063, 0xd598_bc6b_4a5a_809e), None),
            ((0x3e7e_8968_e3b9_1a9a, 0xdf8c_289a_caa7_9192), GLOBAL_MIN2),
            ((0x8218_5f8c_df15_9e30, 0xc502_273c_aa44_3111), GLOBAL_MIN2),
            ((0xa27b_f0df_27e9_a6e7, 0xb439_cd1b_dd71_4ef5), SHARDED_HOT),
            ((0x8070_2511_c31c_e4fc, 0xd1fb_2d42_fb86_632b), None),
        ];
        for (i, (options, (want_fp, want_ltbo))) in option_variants().iter().zip(golden).enumerate()
        {
            let fp = calibro::options_fingerprint(options);
            assert_eq!((fp.hi, fp.lo), want_fp, "variant {i}: options fingerprint moved");
            let ltbo = crate::ltbo_fingerprint(options).map(|k| (k.hi, k.lo));
            assert_eq!(ltbo, want_ltbo, "variant {i}: LTBO fingerprint moved");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::samples::{option_variants, sample_dex};
    use super::*;
    use calibro_dex::wire::FieldEnds;
    use calibro_workloads::AppSpec;
    use proptest::prelude::*;

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

    // One fully-populated sample of every message body. The bytes under
    // `tests/fixtures/wire/` are the protocol as deployed, recorded once
    // from these same values: a codec change that moves a byte of any
    // body fails against them.

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: 0x0123_4567_89ab_cdef ^ n, lo: 0xfedc_ba98_7654_3210u64.wrapping_add(n) }
    }

    fn build_requests() -> Vec<BuildRequest> {
        option_variants()
            .into_iter()
            .enumerate()
            .map(|(i, options)| {
                let n = i as u64;
                BuildRequest {
                    request_id: 0x1000 + n,
                    deadline: (i % 2 == 0).then(|| Duration::from_millis(250 + n)),
                    options_fp: key(n),
                    ltbo_fp: options.ltbo.map(|_| key(100 + n)),
                    tenant: (i % 3 != 0).then(|| format!("tenant-{i}")),
                    options,
                    dex: sample_dex(),
                }
            })
            .collect()
    }

    fn build_by_id_request() -> BuildByIdRequest {
        let BuildRequest { request_id, deadline, options_fp, ltbo_fp, tenant, options, dex } =
            build_requests().swap_remove(4);
        let program = ProgramId::of(&wire::encode(&dex));
        BuildByIdRequest {
            header: BuildHeader { request_id, deadline, options_fp, ltbo_fp, tenant, options },
            program,
        }
    }

    /// An edit of the sample program: its second method changed, and a
    /// fourth added.
    fn build_edit_request() -> BuildEditRequest {
        let BuildRequest { request_id, deadline, options_fp, ltbo_fp, tenant, options, dex } =
            build_requests().swap_remove(3);
        let mut changed = (*dex.methods()[1]).clone();
        changed.num_regs += 1;
        let mut added = (*dex.methods()[0]).clone();
        added.id = calibro_dex::MethodId(3);
        added.name = "f2".into();
        BuildEditRequest {
            header: BuildHeader { request_id, deadline, options_fp, ltbo_fp, tenant, options },
            base: ProgramId::of(&wire::encode(&dex)),
            count: 4,
            rows: vec![EditRow { index: 1, method: changed }, EditRow { index: 3, method: added }],
        }
    }

    fn build_reply() -> BuildReply {
        BuildReply {
            request_id: 0x2000,
            options_fp: key(1),
            ltbo_fp: Some(key(2)),
            elf: (0..=255u8).collect(),
            methods: 3,
            methods_from_cache: 2,
            cache_hits: 7,
            cache_misses: 1,
            build_us: 12_345,
            generation: 4,
            stats_json: r#"{"methods":3}"#.into(),
        }
    }

    fn error_replies() -> Vec<ErrorReply> {
        [
            ServeError::Overloaded { capacity: 32 },
            ServeError::DeadlineExceeded { deadline_ms: 250 },
            ServeError::Malformed { detail: "bad tag".into() },
            ServeError::FrameTooLarge { claimed: 1 << 40, limit: 64 << 20 },
            ServeError::Build { detail: "verify failed".into() },
            ServeError::Draining,
            ServeError::FingerprintMismatch,
            ServeError::UnknownProgram,
        ]
        .into_iter()
        .enumerate()
        .map(|(i, error)| ErrorReply { request_id: 0x3000 + i as u64, error })
        .collect()
    }

    fn peer_get() -> PeerGet {
        PeerGet { request_id: 77, lane: PeerLane::Group, key: key(3) }
    }

    fn peer_artifact_found() -> PeerArtifact {
        PeerArtifact {
            request_id: 77,
            lane: PeerLane::Group,
            key: key(3),
            artifact: Some(PeerFrame { frame: vec![1, 2, 3, 4], cost_us: 9000 }),
        }
    }

    fn peer_artifact_missing() -> PeerArtifact {
        PeerArtifact { request_id: 78, lane: PeerLane::Method, key: key(4), artifact: None }
    }

    fn profile_request() -> ProfileRequest {
        ProfileRequest {
            request_id: 11,
            tenant: "app.example".into(),
            profile_text: "# calibro profile v1\n1 100\n2 50\n".into(),
        }
    }

    fn profile_reply() -> ProfileReply {
        ProfileReply {
            request_id: 11,
            uploads: 9,
            tracked_methods: 37,
            drift_ppm: 312_500,
            refresh_scheduled: true,
            serving_generation: 2,
        }
    }

    fn generation_stats_request() -> GenerationStatsRequest {
        GenerationStatsRequest { request_id: 5, tenant: "app.example".into() }
    }

    fn generation_stats() -> GenerationStats {
        GenerationStats {
            request_id: 5,
            tenant: "app.example".into(),
            registered: true,
            serving_generation: 3,
            generations_sealed: 4,
            refreshes_triggered: 2,
            refresh_in_flight: true,
            uploads: 40,
            tracked_methods: 120,
            drift_ppm: 250_000,
            hot_restricted: true,
            hot_set_size: 17,
            elf_len: 1 << 20,
            elf_fnv: 0xdead_beef_cafe_f00d,
        }
    }

    fn server_stats() -> ServerStats {
        ServerStats {
            uptime_us: 123,
            workers: 8,
            queue_capacity: 64,
            queue_depth: 3,
            in_flight: 7,
            accepted_connections: 40,
            open_connections: 12,
            requests_admitted: 1000,
            requests_completed: 980,
            rejected_overloaded: 17,
            deadline_timeouts: 6,
            malformed_frames: 2,
            oversized_frames: 1,
            mid_frame_disconnects: 4,
            build_errors: 5,
            shard_id: 9,
            peer_gets_served: 42,
            tenants: 10,
            profile_uploads: 31,
            generations_sealed: 11,
            refreshes_triggered: 13,
            programs_decoded: 21,
            programs_reused: 959,
            programs_by_reference: 977,
            programs_by_edit: 18,
            builds_replayed: 14,
            latency_buckets: vec![0, 5, 10, 0, 2],
            cache: CacheStats::from_array(std::array::from_fn(|i| 3 * i as u64 + 1)),
        }
    }

    /// `BuildRequest`'s row is written by hand (its `put` is the
    /// borrowed encoder's), so its field ends are too.
    impl FieldEnds for BuildRequest {
        fn field_ends(&self) -> Vec<(&'static str, usize)> {
            let BuildRequest { request_id, deadline, options_fp, ltbo_fp, tenant, options, dex } =
                self;
            let mut end = 0;
            [
                ("request_id", wire::encode(request_id)),
                ("deadline", wire::encode(deadline)),
                ("options_fp", wire::encode(options_fp)),
                ("ltbo_fp", wire::encode(ltbo_fp)),
                ("tenant", wire::encode(tenant)),
                ("options", wire::encode(options)),
                ("dex", wire::encode(dex)),
            ]
            .into_iter()
            .map(|(name, bytes)| {
                end += bytes.len();
                (name, end)
            })
            .collect()
        }
    }

    fn label(error: &WireError) -> Option<&'static str> {
        match error {
            WireError::Truncated { what }
            | WireError::InvalidTag { what, .. }
            | WireError::OversizedCollection { what, .. } => Some(what),
            WireError::BadUtf8 | WireError::TrailingBytes { .. } => None,
        }
    }

    /// What every message body owes its peers, whatever its fields:
    /// it round-trips; every strict prefix is a typed error labelled
    /// with the field the bytes ran out in, never a panic and never a
    /// value; a byte past the end is `TrailingBytes`. `fixture` pins
    /// the bytes themselves. `nested` lists the fields whose own codec
    /// labels its inner fields (a struct or enum inside the message).
    fn message_contract<M: Wire + FieldEnds>(sample: &M, fixture: &str, nested: &[&str]) {
        let path = format!("{}/tests/fixtures/wire/{fixture}.bin", env!("CARGO_MANIFEST_DIR"));
        let recorded = std::fs::read(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        let bytes = wire::encode(sample);
        assert_eq!(bytes, recorded, "{fixture}: encode drifted from the recorded bytes");
        let back: M = wire::decode(&recorded).unwrap_or_else(|e| panic!("{fixture}: {e}"));
        assert_eq!(wire::encode(&back), recorded, "{fixture}: decode lost something");

        let ends = sample.field_ends();
        assert_eq!(ends.last().map(|&(_, end)| end), Some(bytes.len()));
        for cut in 0..bytes.len() {
            let (field, _) = ends.iter().find(|&&(_, end)| end > cut).expect("cut is in a field");
            let error = wire::decode::<M>(&bytes[..cut])
                .err()
                .unwrap_or_else(|| panic!("{fixture}: the {cut}-byte prefix decoded to a value"));
            let what = label(&error)
                .unwrap_or_else(|| panic!("{fixture}: prefix {cut} gave unlabelled {error:?}"));
            assert!(
                what == *field || nested.contains(field),
                "{fixture}: prefix {cut} ends inside `{field}` but the error names `{what}`"
            );
        }

        let mut longer = bytes;
        longer.push(0);
        assert_eq!(wire::decode::<M>(&longer).err(), Some(WireError::TrailingBytes { extra: 1 }));
    }

    /// A program's content key is the hash of the bytes a request
    /// already carries: the domain tag, then the body's trailing `dex`
    /// field (the last one) as it sits on the wire. Neither end of a
    /// socket has to decode the program to name it.
    #[test]
    fn program_key_is_the_hash_of_the_trailing_dex_bytes_of_a_request() {
        for request in &build_requests() {
            let body = request.encode();
            let ends = request.field_ends();
            assert_eq!(ends.last().map(|&(name, _)| name), Some("dex"));
            let dex_start = ends[ends.len() - 2].1;
            let mut h = calibro_cache::StableHasher::new();
            h.write_tag(0x50); // 'P', `hash_program`'s domain tag
            h.write_wire_bytes(&body[dex_start..]);
            let decoded = BuildRequest::decode(&body).expect("the sample decodes");
            assert_eq!(h.finish(), calibro::program_salt(&decoded.dex));
        }
    }

    /// Every field of two requests but the program (neither type
    /// derives `PartialEq`: a program is megabytes).
    fn same_header(a: &BuildHeader, b: &BuildRequest) -> bool {
        a.request_id == b.request_id
            && a.deadline == b.deadline
            && a.options_fp == b.options_fp
            && a.ltbo_fp == b.ltbo_fp
            && a.tenant == b.tenant
            && a.options == b.options
    }

    /// The error of decoding a request body the daemon's way: the
    /// header, then the program from the bytes after it.
    fn decode_apart(body: &[u8]) -> Option<WireError> {
        BuildHeader::split(body).and_then(|(_, program)| wire::decode::<DexFile>(program)).err()
    }

    #[test]
    fn every_cut_of_a_sample_request_is_the_same_typed_error_decoded_apart() {
        for request in &build_requests() {
            let body = request.encode();
            for cut in 0..body.len() {
                let whole = BuildRequest::decode(&body[..cut]).err();
                assert!(whole.is_some(), "the {cut}-byte prefix decoded to a value");
                assert_eq!(decode_apart(&body[..cut]), whole, "cut {cut}");
            }
            assert_eq!(decode_apart(&body), None);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The two halves of the daemon's and the client's request path
        /// against the owned request: the borrowed encoder writes
        /// `BuildRequest::encode`'s bytes, and header + program decoded
        /// apart give `BuildRequest::decode`'s value — or, for every
        /// cut of the body, its typed error.
        #[test]
        fn borrowed_encode_and_split_decode_agree_with_the_owned_request(
            (seed, edit, methods) in (any::<u64>(), any::<u64>(), 2usize..24),
            (request_id, variant) in (any::<u64>(), 0usize..6),
            (deadline_ms, with_deadline) in (0u32..100_000, any::<bool>()),
            (tenant_len, with_tenant) in (0usize..12, any::<bool>()),
            cut_seed in any::<u64>(),
        ) {
            let mut dex =
                calibro_workloads::generate(&AppSpec { methods, ..AppSpec::small("req", seed) }).dex;
            calibro_workloads::mutate_methods(&mut dex, edit, 0.2);
            let options = option_variants()[variant].clone();
            let owned = BuildRequest {
                request_id,
                deadline: with_deadline.then(|| Duration::from_millis(u64::from(deadline_ms))),
                options_fp: calibro::options_fingerprint(&options),
                ltbo_fp: crate::ltbo_fingerprint(&options),
                tenant: with_tenant.then(|| "tenant.name/x"[..tenant_len].to_owned()),
                options,
                dex,
            };
            let body = owned.encode();
            let borrowed = BuildRequestRef {
                request_id,
                deadline: owned.deadline,
                options_fp: owned.options_fp,
                ltbo_fp: owned.ltbo_fp,
                tenant: owned.tenant.as_deref(),
                options: &owned.options,
                dex: &owned.dex,
            };
            prop_assert_eq!(&borrowed.encode(), &body);
            // By reference: the same header, then the program's id.
            let (split, start) = borrowed.encode_split();
            prop_assert_eq!(&split, &body);
            let id = ProgramId::of(&body[start..]);
            prop_assert_eq!(id.key, calibro::program_salt(&owned.dex));
            let by_id = borrowed.encode_by_id(id);
            prop_assert_eq!(&by_id[..start], &body[..start]);
            let decoded = BuildByIdRequest::decode(&by_id).expect("the by-id body decodes");
            prop_assert!(same_header(&decoded.header, &owned) && decoded.program == id);
            prop_assert_eq!(&decoded.encode(), &by_id);
            // By edit: the same header, the base's id, then the rows of
            // the methods named, written from the borrowed program as the
            // owned rows encode.
            let changed: Vec<u32> =
                (0..methods as u32).filter(|m| (cut_seed >> (m % 64)) & 1 == 1).collect();
            let by_edit = borrowed.encode_edit(id, &changed);
            prop_assert_eq!(&by_edit[..start], &body[..start]);
            let decoded = BuildEditRequest::decode(&by_edit).expect("the by-edit body decodes");
            prop_assert!(same_header(&decoded.header, &owned) && decoded.base == id);
            prop_assert_eq!(decoded.count as usize, owned.dex.methods().len());
            let rows: Vec<EditRow> = changed
                .iter()
                .map(|&m| EditRow { index: m, method: (*owned.dex.methods()[m as usize]).clone() })
                .collect();
            prop_assert_eq!(&decoded.rows, &rows);
            prop_assert_eq!(&decoded.encode(), &by_edit);

            let (header, program) = BuildHeader::split(&body).expect("the header decodes");
            prop_assert!(same_header(&header, &owned));
            prop_assert_eq!(&wire::decode::<DexFile>(program).expect("the program decodes"), &owned.dex);
            let whole = BuildRequest::decode(&body).expect("the body decodes");
            prop_assert!(same_header(&header, &whole) && whole.dex == owned.dex);

            // A spread of cuts (every cut of the sample bodies is the
            // test below).
            let step = 1 + body.len() / 128;
            for cut in (cut_seed as usize % step..body.len()).step_by(step) {
                prop_assert_eq!(decode_apart(&body[..cut]), BuildRequest::decode(&body[..cut]).err());
            }
            let mut longer = body;
            longer.push(0);
            prop_assert_eq!(decode_apart(&longer), Some(WireError::TrailingBytes { extra: 1 }));
            prop_assert_eq!(decode_apart(&longer), BuildRequest::decode(&longer).err());
        }
    }

    #[test]
    fn every_message_body_honours_the_contract() {
        // The build, by-id and edit requests were last re-recorded when
        // the options row lost its `dict` byte: each is the previous
        // file less that one byte.
        for (i, request) in build_requests().iter().enumerate() {
            message_contract(request, &format!("build_request_{i}"), &["options", "dex"]);
        }
        message_contract(&build_by_id_request(), "build_by_id_request", &["header", "program"]);
        message_contract(&build_edit_request(), "build_edit_request", &["header", "base", "rows"]);
        message_contract(&build_reply(), "build_reply", &[]);
        for reply in &error_replies() {
            message_contract(reply, &format!("error_{}", reply.error.code()), &["error"]);
        }
        message_contract(&peer_get(), "peer_get", &[]);
        // Re-recorded when the dictionary lane went: its sample lane
        // byte was that lane's 2.
        message_contract(&peer_artifact_found(), "peer_artifact_found", &[]);
        message_contract(&peer_artifact_missing(), "peer_artifact_missing", &[]);
        message_contract(&profile_request(), "profile_request", &[]);
        message_contract(&profile_reply(), "profile_reply", &[]);
        message_contract(&generation_stats_request(), "generation_stats_request", &[]);
        message_contract(&generation_stats(), "generation_stats", &[]);
        // Re-recorded three times: the stats table gained its
        // `programs_decoded` / `programs_reused` rows (two `u64`s after
        // `refreshes_triggered`), and the cache block lost the twelve
        // counters of the dictionary lane, then the nine of the
        // merge-plan lane; the last re-recording also took in the
        // `programs_by_reference` row appended after `programs_reused`.
        // Re-recorded a fourth time for one row, `programs_by_edit`,
        // appended after `programs_by_reference`, and a fifth for one
        // row, `builds_replayed`, appended after `programs_by_edit`.
        message_contract(&server_stats(), "server_stats", &["cache"]);
    }

    #[test]
    fn undefined_tags_are_typed_errors_naming_the_field() {
        let with = |mut body: Vec<u8>, at: usize, byte: u8| {
            body[at] = byte;
            body
        };
        for lane in [2, 9] {
            assert_eq!(
                PeerGet::decode(&with(peer_get().encode(), 8, lane)),
                Err(WireError::InvalidTag { what: "lane", tag: lane })
            );
            assert_eq!(
                PeerArtifact::decode(&with(peer_artifact_found().encode(), 8, lane)),
                Err(WireError::InvalidTag { what: "lane", tag: lane })
            );
        }
        assert_eq!(
            ProfileReply::decode(&with(profile_reply().encode(), 32, 2)),
            Err(WireError::InvalidTag { what: "refresh_scheduled", tag: 2 })
        );
        assert_eq!(
            BuildReply::decode(&with(build_reply().encode(), 24, 7)).err(),
            Some(WireError::InvalidTag { what: "ltbo_fp", tag: 7 })
        );
        for code in [0, 9] {
            assert_eq!(
                ErrorReply::decode(&with(error_replies()[5].encode(), 8, code)),
                Err(WireError::InvalidTag { what: "error", tag: code })
            );
        }
        // Call-target tags 5 (`Merged`) and 6 (`Dict`) are retired.
        for tag in [5, 6] {
            assert_eq!(
                calibro_dex::wire::decode::<calibro_codegen::CallTarget>(&[tag, 0, 0, 0, 0]),
                Err(WireError::InvalidTag { what: "message body", tag })
            );
        }
    }

    #[test]
    fn stats_body_is_byte_identical_to_the_hand_listed_codec() {
        // Length and FNV-1a-64 digest recorded from the codec that
        // spelled the 45 cache counters out by hand, over this same
        // value: cache counters 1..=45 in table order (whose names
        // calibro-cache pins separately). The twelve counters of the
        // dictionary lane (31..=41 and 45) and the nine of the merge-plan
        // lane (23..=30 and 44) were removed since, and the others keep
        // their values.
        let kept: Vec<u64> = (1..=22).chain(42..=43).collect();
        let stats = ServerStats {
            uptime_us: 100,
            workers: 2,
            latency_buckets: vec![7, 8],
            cache: CacheStats::from_array(kept.try_into().expect("one value per counter")),
            ..ServerStats::default()
        };
        let body = stats.encode();
        assert_eq!(ServerStats::decode(&body).expect("stats decode"), stats);
        // Five scalar rows were appended since (`programs_decoded`,
        // `programs_reused`, `programs_by_reference`, `programs_by_edit`,
        // `builds_replayed`, zero here): they sit after the 21 rows of
        // that codec and ahead of the histogram, and every other byte is
        // where it was.
        const RECORDED_ROWS: usize = 21;
        assert_eq!(ServerStats::LEN, RECORDED_ROWS + 5);
        let mut recorded = body;
        assert!(recorded.drain(8 * RECORDED_ROWS..8 * ServerStats::LEN).all(|byte| byte == 0));
        // The cache block ends the body: put back the recorded one.
        recorded.truncate(recorded.len() - 8 * CacheStats::LEN);
        recorded.extend((1..=45u64).flat_map(u64::to_le_bytes));
        let digest = crate::server::fnv1a64(&recorded);
        assert_eq!((recorded.len(), digest), (548, 0x9c25_c479_dd85_e91f));
    }

    /// A sealed reply's frame is the frame of the [`BuildReply`] it
    /// seals, encoded by the message's own codec, with or without an
    /// LTBO fingerprint.
    #[test]
    fn a_sealed_reply_frames_as_the_build_reply_it_seals() {
        for ltbo_fp in [Some(key(2)), None] {
            let reply = BuildReply { ltbo_fp, ..build_reply() };
            let sealed = SealedReply {
                options_fp: reply.options_fp,
                ltbo_fp: reply.ltbo_fp,
                elf: Arc::new(reply.elf.clone()),
                methods: reply.methods,
                methods_from_cache: reply.methods_from_cache,
                cache_hits: reply.cache_hits,
                cache_misses: reply.cache_misses,
                build_us: reply.build_us,
                generation: reply.generation,
                stats_json: reply.stats_json.clone(),
            };
            let framed = sealed.frame(reply.request_id);
            assert_eq!(framed, frame(RESP_BUILT, &reply.encode()));
            assert_eq!(framed.capacity(), framed.len(), "written at its exact size");
        }
    }

    #[test]
    fn an_edit_row_declares_its_smallest_encoding() {
        let method = Method {
            id: calibro_dex::MethodId(0),
            class: calibro_dex::ClassId(0),
            name: String::new(),
            num_regs: 0,
            num_args: 0,
            insns: vec![],
            is_native: false,
        };
        let row = EditRow { index: 0, method };
        assert_eq!(wire::encode(&row).len(), <EditRow as wire::SeqElem>::MIN_BYTES);
    }

    #[test]
    fn stats_json_names_every_scalar_row_the_quantiles_and_the_cache_object() {
        let json = server_stats().to_json();
        assert!(json.starts_with(r#"{"uptime_us":123,"workers":8,"#), "{json}");
        for (name, value) in ServerStats::NAMES.iter().zip(server_stats().to_array()) {
            assert!(json.contains(&format!(r#""{name}":{value},"#)), "{name} missing from {json}");
        }
        let p50 = server_stats().latency_quantile_us(0.5);
        assert!(p50 > 0);
        assert!(json.contains(&format!(
            r#""programs_by_edit":18,"builds_replayed":14,"p50_us":{p50},"p95_us":"#
        )));
        let cache = server_stats().cache.to_json();
        assert!(json.ends_with(&format!(r#","cache":{cache}}}"#)), "{json}");
    }
}
