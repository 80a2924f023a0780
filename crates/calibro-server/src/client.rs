//! The synchronous client: connect, frame a request, read the framed
//! reply. One `Client` holds one connection; clone-free and
//! thread-per-client by design (the daemon multiplexes via its own
//! worker pool, not via client-side pipelining).

use std::io;
use std::path::Path;
use std::time::Duration;

use calibro::{options_fingerprint, BuildOptions};
use calibro_dex::wire;
use calibro_dex::DexFile;

use crate::error::{ClientError, ServeError};
use crate::fleet::ShardEndpoint;
use crate::proto::{
    self, BuildReply, BuildRequest, BuildRequestRef, DictStatsReply, DictStatsRequest, ErrorReply,
    FrameEvent, GenerationStats, GenerationStatsRequest, ProfileReply, ProfileRequest, Request,
    ServerStats, REQ_BUILD, REQ_PING, REQ_SHUTDOWN, REQ_STATS, RESP_BUILT, RESP_ERROR, RESP_PONG,
    RESP_SHUTDOWN_ACK, RESP_STATS,
};
use crate::server::ltbo_fingerprint;
use crate::transport::{self, Stream};

/// One connection to a running `calibrod`.
pub struct Client {
    stream: Stream,
    max_frame: u64,
    next_request_id: u64,
}

impl Client {
    /// Connects to the daemon listening at `endpoint`.
    pub(crate) fn connect(endpoint: &ShardEndpoint) -> Result<Client, ClientError> {
        Ok(Client {
            stream: transport::connect(endpoint)?,
            max_frame: proto::DEFAULT_MAX_FRAME,
            next_request_id: 1,
        })
    }

    /// Connects over a Unix domain socket.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connect fails.
    #[cfg(unix)]
    pub fn connect_unix(path: impl AsRef<Path>) -> Result<Client, ClientError> {
        Client::connect(&ShardEndpoint::Unix(path.as_ref().to_path_buf()))
    }

    /// Connects over TCP (the `--listen` transport).
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connect fails.
    pub fn connect_tcp(addr: &str) -> Result<Client, ClientError> {
        Client::connect(&ShardEndpoint::Tcp(addr.to_owned()))
    }

    fn next_id(&mut self) -> u64 {
        let id = self.next_request_id;
        self.next_request_id += 1;
        id
    }

    /// The body of the next build request for `dex` under `options`,
    /// with its id: a fresh id and the two client-side fingerprints the
    /// daemon cross-checks, encoded straight from the borrows — neither
    /// the program nor the options are copied.
    fn encode_build(
        &mut self,
        tenant: Option<&str>,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> (u64, Vec<u8>) {
        let request = BuildRequestRef {
            request_id: self.next_id(),
            deadline,
            options_fp: options_fingerprint(options),
            ltbo_fp: ltbo_fingerprint(options),
            tenant,
            options,
            dex,
        };
        (request.request_id, request.encode())
    }

    /// One build round trip; `tenant` as in `BuildRequest::tenant`.
    fn call_build(
        &mut self,
        tenant: Option<&str>,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> Result<BuildReply, ClientError> {
        let (_, body) = self.encode_build(tenant, dex, options, deadline);
        Ok(BuildReply::decode(&self.exchange(
            BuildRequest::KIND,
            &body,
            BuildRequest::REPLY_KIND,
        )?)?)
    }

    /// Compiles `dex` with `options` on the daemon. `deadline` caps the
    /// daemon-side queue+compile time; `None` defers to the daemon's
    /// default.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the daemon's typed rejection
    /// (overloaded, deadline, malformed, build failure, draining);
    /// [`ClientError::Io`]/[`ClientError::Wire`] are transport-level.
    pub fn build(
        &mut self,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> Result<BuildReply, ClientError> {
        self.call_build(None, dex, options, deadline)
    }

    /// Compiles (or fetches) under a tenant name: the daemon registers
    /// the program on the first build and afterwards answers from the
    /// sealed serving generation — including while a profile-triggered
    /// re-optimization is compiling in the background. The reply's
    /// `generation` tags which sealed artifact answered.
    ///
    /// # Errors
    ///
    /// Same surface as [`build`](Client::build).
    pub fn build_for_tenant(
        &mut self,
        tenant: &str,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> Result<BuildReply, ClientError> {
        self.call_build(Some(tenant), dex, options, deadline)
    }

    /// Uploads one profile (calibro-profile text format) for `tenant`.
    /// The reply reports the decayed accumulator's state, the measured
    /// drift against the serving hot set, and whether this upload
    /// scheduled a background re-optimization.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] with [`ServeError::Malformed`] when the
    /// profile text does not parse (the detail names the offending
    /// line); transport-level errors otherwise.
    pub fn upload_profile(
        &mut self,
        tenant: &str,
        profile_text: &str,
    ) -> Result<ProfileReply, ClientError> {
        let request = ProfileRequest {
            request_id: self.next_id(),
            tenant: tenant.to_owned(),
            profile_text: profile_text.to_owned(),
        };
        self.call(&request)
    }

    /// Fetches the generation snapshot for `tenant` (serving
    /// generation id, drift, refresh state, sealed-artifact digest).
    /// An unknown tenant is not an error: the reply has `registered:
    /// false`.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn generation_stats(&mut self, tenant: &str) -> Result<GenerationStats, ClientError> {
        let request =
            GenerationStatsRequest { request_id: self.next_id(), tenant: tenant.to_owned() };
        self.call(&request)
    }

    /// Pipelines several build requests on this one connection: writes
    /// every frame before reading any reply, then collects one typed
    /// outcome per request, **in request order** (the daemon may reply
    /// out of order — a rejection is queued as soon as its request is
    /// read, a build's reply only when a worker finishes it — so
    /// replies are matched by request id). The daemon keeps reading
    /// while the replies wait, so a long pipeline cannot wedge the
    /// connection; past a frame ceiling of unread replies, further
    /// requests come back `Overloaded`.
    ///
    /// This is how a load generator saturates the daemon's admission
    /// queue from a single connection.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s. Per-request daemon rejections
    /// are *not* errors of the exchange: they come back as the `Err`
    /// arm of the per-request [`Result`].
    #[allow(clippy::type_complexity)]
    pub fn build_pipelined<'a>(
        &mut self,
        requests: &mut dyn Iterator<Item = (&'a DexFile, &'a BuildOptions)>,
    ) -> Result<Vec<Result<BuildReply, ServeError>>, ClientError> {
        let mut ids = Vec::new();
        for (dex, options) in requests {
            let (id, body) = self.encode_build(None, dex, options, None);
            proto::write_frame(&mut self.stream, REQ_BUILD, &body)?;
            ids.push(id);
        }
        let mut by_id = std::collections::HashMap::new();
        while by_id.len() < ids.len() {
            match self.read_response()? {
                (RESP_BUILT, body) => {
                    let reply = BuildReply::decode(&body)?;
                    by_id.insert(reply.request_id, Ok(reply));
                }
                (RESP_ERROR, body) => {
                    let ErrorReply { request_id, error } = ErrorReply::decode(&body)?;
                    by_id.insert(request_id, Err(error));
                }
                (kind, _) => return Err(ClientError::UnexpectedResponse { kind }),
            }
        }
        Ok(ids
            .into_iter()
            .map(|id| by_id.remove(&id).expect("one reply per pipelined request id"))
            .collect())
    }

    /// Fetches the daemon's shared-dictionary snapshot. A daemon
    /// running without a dictionary answers `enabled: false` with
    /// every counter zeroed — asking is never an error.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn dict_stats(&mut self) -> Result<DictStatsReply, ClientError> {
        let request = DictStatsRequest { request_id: self.next_id() };
        self.call(&request)
    }

    /// Fetches the daemon's stats snapshot.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn server_stats(&mut self) -> Result<ServerStats, ClientError> {
        Ok(ServerStats::decode(&self.exchange(REQ_STATS, &[], RESP_STATS)?)?)
    }

    /// Round-trips a ping (connectivity / readiness check).
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        self.exchange(REQ_PING, b"ping", RESP_PONG).map(drop)
    }

    /// Asks the daemon to drain and shut down; returns once the daemon
    /// acknowledged the request (the drain itself continues after).
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        self.exchange(REQ_SHUTDOWN, &[], RESP_SHUTDOWN_ACK).map(drop)
    }

    /// One typed round trip: the request's row of the message table
    /// names the frame kinds and the reply body.
    fn call<R: Request>(&mut self, request: &R) -> Result<R::Reply, ClientError> {
        let body = self.exchange(R::KIND, &wire::encode(request), R::REPLY_KIND)?;
        Ok(wire::decode(&body)?)
    }

    /// The one request path: frame the request, read one frame back,
    /// and sort it into the expected reply body, the daemon's typed
    /// error, or a protocol violation.
    fn exchange(&mut self, kind: u8, body: &[u8], reply_kind: u8) -> Result<Vec<u8>, ClientError> {
        proto::write_frame(&mut self.stream, kind, body)?;
        match self.read_response()? {
            (kind, body) if kind == reply_kind => Ok(body),
            (RESP_ERROR, body) => Err(ClientError::Server(ErrorReply::decode(&body)?.error)),
            (kind, _) => Err(ClientError::UnexpectedResponse { kind }),
        }
    }

    fn read_response(&mut self) -> Result<(u8, Vec<u8>), ClientError> {
        match proto::read_frame(&mut self.stream, self.max_frame)? {
            FrameEvent::Frame { kind, body } => Ok((kind, body)),
            FrameEvent::Eof | FrameEvent::MidFrameDisconnect => Err(ClientError::Io(
                io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection"),
            )),
            FrameEvent::TooLarge { claimed } => Err(ClientError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("daemon response frame of {claimed} bytes exceeds client limit"),
            ))),
        }
    }
}
