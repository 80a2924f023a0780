//! The synchronous client: connect, frame a request, read the framed
//! reply. One `Client` holds one connection; clone-free and
//! thread-per-client by design (the daemon multiplexes via its own
//! worker pool, not via client-side pipelining).
//!
//! A build sends its program whole until the daemon can be trusted to
//! hold it, and by reference after that. The client remembers the
//! programs it sent whole on this connection (`SentProgram`); the
//! second whole send of one is when the daemon admits it to its program
//! table, so the client hashes the program's id then, and names it by
//! that id from the third build on.
//!
//! A program that is not one of those but an edit of a named one — the
//! same classes and statics, and at least half of its methods the named
//! program's allocations at the same positions, as a clone edited
//! through [`DexFile::method_mut`] or [`DexFile::add_method`] is — goes
//! by edit: the base's id, the method count, and the rows of the
//! methods whose allocation differs. It is not recorded as sent whole,
//! so its next build goes by edit again. Tenant builds never go by
//! edit: a tenant's program is named by the whole program's id.
//!
//! A daemon that no longer holds the named program answers
//! [`ServeError::UnknownProgram`] to a reference or an edit, and the
//! client sends the program whole again — the caller never sees the
//! difference.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::path::Path;
use std::sync::{Arc, Weak};
use std::time::Duration;

use calibro::{options_fingerprint, BuildOptions};
use calibro_dex::wire;
use calibro_dex::{Class, DexFile, Method};

use crate::error::{ClientError, ServeError};
use crate::fleet::ShardEndpoint;
use crate::programs::{ProgramId, SENT_RING};
use crate::proto::{
    self, BuildReply, BuildRequestRef, ErrorReply, FrameEvent, GenerationStats,
    GenerationStatsRequest, ProfileReply, ProfileRequest, Request, ServerStats, REQ_BUILD,
    REQ_BUILD_BY_ID, REQ_BUILD_EDIT, REQ_PING, REQ_SHUTDOWN, REQ_STATS, RESP_BUILT, RESP_ERROR,
    RESP_PONG, RESP_SHUTDOWN_ACK, RESP_STATS,
};
use crate::server::ltbo_fingerprint;
use crate::transport::{self, Stream};

/// One connection to a running `calibrod`.
pub struct Client {
    stream: Stream,
    max_frame: u64,
    next_request_id: u64,
    /// The programs sent whole on this connection, most recently used
    /// last; at most [`SENT_RING`].
    sent: VecDeque<SentProgram>,
}

/// A program this connection sent whole. Another program is the same
/// one when it holds the same method allocations in the same order, and
/// equal classes and statics: that is the same wire form. The methods
/// are held as [`Weak`]s, which keep each address from reuse, and an
/// edit through [`DexFile::method_mut`] moves the edited method to a
/// new allocation, so an edited program never matches.
struct SentProgram {
    methods: Vec<Weak<Method>>,
    classes: Vec<Class>,
    num_statics: u32,
    /// Hashed at the second whole send; the program goes by this id
    /// from then on.
    id: Option<ProgramId>,
}

impl SentProgram {
    fn of(dex: &DexFile) -> SentProgram {
        SentProgram {
            methods: dex.methods().iter().map(Arc::downgrade).collect(),
            classes: dex.classes().to_vec(),
            num_statics: dex.num_statics(),
            id: None,
        }
    }

    fn is(&self, dex: &DexFile) -> bool {
        self.num_statics == dex.num_statics()
            && self.methods.len() == dex.methods().len()
            && self
                .methods
                .iter()
                .zip(dex.methods())
                .all(|(sent, m)| sent.as_ptr() == Arc::as_ptr(m))
            && self.classes == dex.classes()
    }

    /// Whether `dex` can be sent as an edit of this program: the same
    /// statics, and classes of the same wire form (their method lists
    /// follow the methods).
    fn can_edit_into(&self, dex: &DexFile) -> bool {
        self.num_statics == dex.num_statics()
            && self.classes.len() == dex.classes().len()
            && self
                .classes
                .iter()
                .zip(dex.classes())
                .all(|(sent, class)| sent.name == class.name && sent.num_fields == class.num_fields)
    }

    /// Whether `dex`'s method at `at` is this program's allocation.
    fn shares(&self, dex: &DexFile, at: usize) -> bool {
        self.methods.get(at).is_some_and(|sent| sent.as_ptr() == Arc::as_ptr(&dex.methods()[at]))
    }
}

/// One build a caller asked for.
#[derive(Clone, Copy)]
struct BuildCall<'a> {
    tenant: Option<&'a str>,
    dex: &'a DexFile,
    options: &'a BuildOptions,
    deadline: Option<Duration>,
}

/// How one build request went out.
struct Sent {
    request_id: u64,
    /// The program named, by reference or as an edit's base.
    named: Option<ProgramId>,
}

impl Client {
    /// Connects to the daemon listening at `endpoint`.
    pub(crate) fn connect(endpoint: &ShardEndpoint) -> Result<Client, ClientError> {
        Ok(Client {
            stream: transport::connect(endpoint)?,
            max_frame: proto::DEFAULT_MAX_FRAME,
            next_request_id: 1,
            sent: VecDeque::new(),
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

    /// Writes the next build request for `dex` under `options`: by id
    /// when this connection sent the program whole twice already, by
    /// edit when it is an edit of such a program (unless `whole`, or a
    /// tenant build), whole otherwise — and then `dex` is recorded, or
    /// hashed at its second send. The request is encoded straight from
    /// the borrows: neither the program nor the options are copied.
    fn send_build(&mut self, call: &BuildCall<'_>, whole: bool) -> io::Result<Sent> {
        let BuildCall { tenant, dex, options, deadline } = *call;
        let request = BuildRequestRef {
            request_id: self.next_id(),
            deadline,
            options_fp: options_fingerprint(options),
            ltbo_fp: ltbo_fingerprint(options),
            tenant,
            options,
            dex,
        };
        let found = self.sent.iter().rposition(|sent| sent.is(dex));
        let may_edit = found.is_none() && tenant.is_none() && !whole;
        if let Some((at, changed)) = may_edit.then(|| self.edit_base(dex)).flatten() {
            let base = self.sent.remove(at).expect("the position was just found");
            let id = base.id.expect("only a named program is a base");
            self.sent.push_back(base);
            proto::write_frame(
                &mut self.stream,
                REQ_BUILD_EDIT,
                &request.encode_edit(id, &changed),
            )?;
            return Ok(Sent { request_id: request.request_id, named: Some(id) });
        }
        // Most recently used last; the least recently used goes first.
        let mut entry = match found {
            Some(at) => self.sent.remove(at).expect("the position was just found"),
            None => {
                if self.sent.len() == SENT_RING {
                    self.sent.pop_front();
                }
                SentProgram::of(dex)
            }
        };
        let (kind, body, named) = match entry.id {
            Some(id) => (REQ_BUILD_BY_ID, request.encode_by_id(id), Some(id)),
            None => {
                let (body, start) = request.encode_split();
                if found.is_some() {
                    entry.id = Some(ProgramId::of(&body[start..]));
                }
                (REQ_BUILD, body, None)
            }
        };
        self.sent.push_back(entry);
        proto::write_frame(&mut self.stream, kind, &body)?;
        Ok(Sent { request_id: request.request_id, named })
    }

    /// The named program `dex` goes out as an edit of — of those it can
    /// be an edit of, the one sharing the most methods by position, and
    /// at least half of `dex`'s — with the positions of the methods that
    /// are not that program's allocations.
    fn edit_base(&self, dex: &DexFile) -> Option<(usize, Vec<u32>)> {
        let methods = dex.methods().len();
        let (at, shared) = self
            .sent
            .iter()
            .enumerate()
            .filter(|(_, sent)| sent.id.is_some() && sent.can_edit_into(dex))
            .map(|(at, sent)| (at, (0..methods).filter(|&m| sent.shares(dex, m)).count()))
            .max_by_key(|&(_, shared)| shared)?;
        if 2 * shared < methods {
            return None;
        }
        let base = &self.sent[at];
        Some((at, (0..methods).filter(|&m| !base.shares(dex, m)).map(|m| m as u32).collect()))
    }

    /// Forgets the program named `id` after the daemon did not know it:
    /// the next two sends of it go whole, as for a program new to the
    /// daemon, and no edit names it.
    fn forget(&mut self, id: ProgramId) {
        self.sent.retain(|sent| sent.id != Some(id));
    }

    /// One build round trip; `tenant` as in `BuildRequest::tenant`.
    fn call_build(
        &mut self,
        tenant: Option<&str>,
        dex: &DexFile,
        options: &BuildOptions,
        deadline: Option<Duration>,
    ) -> Result<BuildReply, ClientError> {
        let mut outcomes = self.builds(&[BuildCall { tenant, dex, options, deadline }])?;
        outcomes.pop().expect("one outcome per request").map_err(ClientError::Server)
    }

    /// Every build path: writes one request per call before reading any
    /// reply, collects the outcomes by request id, and sends whole again,
    /// pipelined, each call whose reference or edit base the daemon did
    /// not know — its answer stands for the original request. Outcomes
    /// come back in call order.
    fn builds(
        &mut self,
        calls: &[BuildCall<'_>],
    ) -> Result<Vec<Result<BuildReply, ServeError>>, ClientError> {
        let mut sent = Vec::with_capacity(calls.len());
        for call in calls {
            sent.push(self.send_build(call, false)?);
        }
        let ids: Vec<u64> = sent.iter().map(|sent| sent.request_id).collect();
        let mut outcomes = self.read_build_outcomes(&ids)?;
        let mut retried = Vec::new();
        for (call, sent) in calls.iter().zip(&sent) {
            let unknown = matches!(outcomes[&sent.request_id], Err(ServeError::UnknownProgram));
            if let Some(id) = sent.named.filter(|_| unknown) {
                self.forget(id);
                retried.push((sent.request_id, self.send_build(call, true)?.request_id));
            }
        }
        let again: Vec<u64> = retried.iter().map(|&(_, again)| again).collect();
        let mut answers = self.read_build_outcomes(&again)?;
        for (original, again) in retried {
            outcomes.insert(original, answers.remove(&again).expect("one outcome per request id"));
        }
        Ok(ids.iter().map(|id| outcomes.remove(id).expect("one outcome per request id")).collect())
    }

    /// Reads one build outcome for each of `request_ids`, by id. A reply
    /// to an id that is not outstanding is a [`ClientError::StrayReply`];
    /// an error that names no request (id 0: the daemon could not read
    /// one) fails the whole exchange with it.
    fn read_build_outcomes(
        &mut self,
        request_ids: &[u64],
    ) -> Result<HashMap<u64, Result<BuildReply, ServeError>>, ClientError> {
        let mut outcomes = HashMap::with_capacity(request_ids.len());
        let mut outstanding: HashSet<u64> = request_ids.iter().copied().collect();
        while !outstanding.is_empty() {
            let (request_id, outcome) = match self.read_response()? {
                (RESP_BUILT, body) => {
                    let reply = BuildReply::decode(&body)?;
                    (reply.request_id, Ok(reply))
                }
                (RESP_ERROR, body) => match ErrorReply::decode(&body)? {
                    ErrorReply { request_id: 0, error } => return Err(ClientError::Server(error)),
                    ErrorReply { request_id, error } => (request_id, Err(error)),
                },
                (kind, _) => return Err(ClientError::UnexpectedResponse { kind }),
            };
            if !outstanding.remove(&request_id) {
                return Err(ClientError::StrayReply { request_id });
            }
            outcomes.insert(request_id, outcome);
        }
        Ok(outcomes)
    }

    /// Compiles `dex` with `options` on the daemon. `deadline` caps the
    /// daemon-side queue+compile time; `None` defers to the daemon's
    /// default. From the third build of the same program on this
    /// connection, the request names the program instead of carrying it
    /// (see the module docs); the reply is the same.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] carries the daemon's typed rejection
    /// (overloaded, deadline, malformed, build failure, draining);
    /// [`ClientError::Io`]/[`ClientError::Wire`] are transport-level, and
    /// [`ClientError::StrayReply`] a reply to a request not outstanding.
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
    /// requests come back `Overloaded`. Programs go by reference as in
    /// [`build`](Client::build), and a reference the daemon does not
    /// know is sent again whole before this returns.
    ///
    /// This is how a load generator saturates the daemon's admission
    /// queue from a single connection.
    ///
    /// # Errors
    ///
    /// Transport-level [`ClientError`]s, and [`ClientError::StrayReply`]
    /// for a reply to a request that is not outstanding. Per-request
    /// daemon rejections are *not* errors of the exchange: they come back
    /// as the `Err` arm of the per-request [`Result`].
    #[allow(clippy::type_complexity)]
    pub fn build_pipelined<'a>(
        &mut self,
        requests: &mut dyn Iterator<Item = (&'a DexFile, &'a BuildOptions)>,
    ) -> Result<Vec<Result<BuildReply, ServeError>>, ClientError> {
        let calls: Vec<BuildCall<'_>> = requests
            .map(|(dex, options)| BuildCall { tenant: None, dex, options, deadline: None })
            .collect();
        self.builds(&calls)
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
