//! The one socket type both sides of the protocol read and write: the
//! daemon's accepted connections and the client's dialed one are a
//! [`Stream`], over a Unix domain socket or TCP, dialed at an
//! [`Endpoint`].

use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
#[cfg(unix)]
use std::path::PathBuf;

use crate::client::Client;
use crate::error::ClientError;

/// Where a daemon listens.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// A Unix domain socket path.
    #[cfg(unix)]
    Unix(PathBuf),
    /// A TCP address (`host:port`).
    Tcp(String),
}

impl Endpoint {
    /// Opens a request [`Client`] to this endpoint.
    ///
    /// # Errors
    ///
    /// [`ClientError::Io`] when the connect fails.
    pub fn client(&self) -> Result<Client, ClientError> {
        Client::connect(self)
    }
}

/// One bidirectional connection, over either transport.
pub(crate) enum Stream {
    #[cfg(unix)]
    Unix(UnixStream),
    Tcp(TcpStream),
}

/// Dials `endpoint`.
pub(crate) fn connect(endpoint: &Endpoint) -> io::Result<Stream> {
    Ok(match endpoint {
        #[cfg(unix)]
        Endpoint::Unix(path) => Stream::Unix(UnixStream::connect(path)?),
        Endpoint::Tcp(addr) => Stream::Tcp(TcpStream::connect(addr)?),
    })
}

impl Stream {
    /// A second handle to the same socket (a daemon connection's writer
    /// thread owns one, the drain's registry another).
    pub(crate) fn try_clone(&self) -> io::Result<Stream> {
        Ok(match self {
            #[cfg(unix)]
            Stream::Unix(s) => Stream::Unix(s.try_clone()?),
            Stream::Tcp(s) => Stream::Tcp(s.try_clone()?),
        })
    }

    /// Shuts `Read` (a blocked reader sees end of stream; writes still go
    /// out) or `Both` (a write blocked on a peer that does not read fails
    /// too). Best effort: the peer may already be gone.
    pub(crate) fn shutdown(&self, how: Shutdown) {
        let _ = match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.shutdown(how),
            Stream::Tcp(s) => s.shutdown(how),
        };
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}
