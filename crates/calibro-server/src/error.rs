//! The typed service error every failure path of the daemon funnels
//! into — what goes over the wire in an error response, and what the
//! client surfaces.

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

/// A request-level failure. The numeric discriminants are the wire
/// encoding and therefore part of the protocol: never reorder them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full, or the connection had more than
    /// a frame ceiling of replies unread — the daemon applies
    /// backpressure instead of buffering unboundedly. Retry later.
    Overloaded {
        /// The bound that was hit: the admission queue's depth (in
        /// requests) when the queue was full, or the frame ceiling (in
        /// bytes) when the connection's unread replies passed it.
        capacity: usize,
    },
    /// The request's deadline passed before a result could be returned.
    /// If compilation had already started, its artifacts are still
    /// cached, so an immediate retry is warm.
    DeadlineExceeded {
        /// The deadline the request carried, in milliseconds.
        deadline_ms: u32,
    },
    /// The request frame decoded to garbage (bad tag, truncated field,
    /// trailing bytes). The connection survives: frame boundaries are
    /// intact, so the next frame parses independently.
    Malformed {
        /// Human-readable decode failure.
        detail: String,
    },
    /// The length prefix exceeded the configured frame ceiling. The
    /// connection is closed (the stream cannot be resynchronized), but
    /// the daemon keeps serving every other connection.
    FrameTooLarge {
        /// The claimed frame length.
        claimed: u64,
        /// The configured ceiling.
        limit: u64,
    },
    /// The compilation itself failed (verification, linking, a worker
    /// panic...). Carries the build error rendered as text.
    Build {
        /// Human-readable build failure.
        detail: String,
    },
    /// The daemon is draining for shutdown and no longer admits work.
    Draining,
    /// The fingerprint the client sent does not match the one the
    /// daemon computed from the decoded request — codec or schema
    /// drift between client and server builds.
    FingerprintMismatch,
    /// A build by reference named a program this connection has not
    /// sent whole, or one the daemon no longer holds (evicted, or the
    /// daemon restarted). The client sends the program whole instead.
    UnknownProgram,
}

impl ServeError {
    /// The wire discriminant.
    #[must_use]
    pub fn code(&self) -> u8 {
        match self {
            ServeError::Overloaded { .. } => 1,
            ServeError::DeadlineExceeded { .. } => 2,
            ServeError::Malformed { .. } => 3,
            ServeError::FrameTooLarge { .. } => 4,
            ServeError::Build { .. } => 5,
            ServeError::Draining => 6,
            ServeError::FingerprintMismatch => 7,
            ServeError::UnknownProgram => 8,
        }
    }
}

/// The variant's code byte ([`ServeError::code`]), then its fields — the
/// other half of the numbering, kept next to it.
impl Wire for ServeError {
    fn put(&self, w: &mut Writer) {
        w.u8(self.code());
        match self {
            ServeError::Overloaded { capacity } => capacity.put(w),
            ServeError::DeadlineExceeded { deadline_ms } => deadline_ms.put(w),
            ServeError::Malformed { detail } | ServeError::Build { detail } => detail.put(w),
            ServeError::FrameTooLarge { claimed, limit } => {
                claimed.put(w);
                limit.put(w);
            }
            ServeError::Draining | ServeError::FingerprintMismatch | ServeError::UnknownProgram => {
            }
        }
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<ServeError, WireError> {
        Ok(match r.u8(what)? {
            1 => ServeError::Overloaded { capacity: Wire::get(r, "capacity")? },
            2 => ServeError::DeadlineExceeded { deadline_ms: Wire::get(r, "deadline_ms")? },
            3 => ServeError::Malformed { detail: Wire::get(r, "detail")? },
            4 => ServeError::FrameTooLarge {
                claimed: Wire::get(r, "claimed")?,
                limit: Wire::get(r, "limit")?,
            },
            5 => ServeError::Build { detail: Wire::get(r, "detail")? },
            6 => ServeError::Draining,
            7 => ServeError::FingerprintMismatch,
            8 => ServeError::UnknownProgram,
            tag => return Err(WireError::InvalidTag { what, tag }),
        })
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> ServeError {
        ServeError::Malformed { detail: e.to_string() }
    }
}

impl core::fmt::Display for ServeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => write!(f, "overloaded (capacity {capacity})"),
            ServeError::DeadlineExceeded { deadline_ms } => {
                write!(f, "deadline of {deadline_ms}ms exceeded")
            }
            ServeError::Malformed { detail } => write!(f, "malformed request: {detail}"),
            ServeError::FrameTooLarge { claimed, limit } => {
                write!(f, "frame length {claimed} exceeds limit {limit}")
            }
            ServeError::Build { detail } => write!(f, "build failed: {detail}"),
            ServeError::Draining => write!(f, "daemon is draining for shutdown"),
            ServeError::FingerprintMismatch => {
                write!(f, "request fingerprint does not match decoded payload")
            }
            ServeError::UnknownProgram => {
                write!(f, "the program named by reference is not held for this connection")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A client-side failure: either transport trouble or a typed error the
/// daemon returned.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed (connect, read, write, unexpected EOF).
    Io(std::io::Error),
    /// The daemon's response did not decode.
    Wire(WireError),
    /// The daemon returned a typed error response.
    Server(ServeError),
    /// The daemon replied with a response kind the client did not
    /// expect for this request.
    UnexpectedResponse {
        /// The frame kind received.
        kind: u8,
    },
    /// The daemon answered a request id this connection has no request
    /// outstanding under: one it never sent, or one already answered.
    StrayReply {
        /// The request id the reply carried.
        request_id: u64,
    },
}

impl ClientError {
    /// The typed server error, when that is what this is.
    #[must_use]
    pub fn as_server(&self) -> Option<&ServeError> {
        match self {
            ClientError::Server(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "socket error: {e}"),
            ClientError::Wire(e) => write!(f, "response decode error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse { kind } => {
                write!(f, "unexpected response kind {kind:#04x}")
            }
            ClientError::StrayReply { request_id } => {
                write!(f, "reply to request {request_id}, which is not outstanding")
            }
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Wire(e) => Some(e),
            ClientError::Server(e) => Some(e),
            ClientError::UnexpectedResponse { .. } | ClientError::StrayReply { .. } => None,
        }
    }
}
