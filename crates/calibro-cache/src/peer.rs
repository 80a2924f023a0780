//! The peer tier of the store's read path.
//!
//! A fleet of daemons shares one logical cache: when a key misses both
//! memory and disk, the lane asks an injected [`PeerSource`] before
//! reporting a miss, so a sibling shard's warm lane is consulted before
//! anything is recompiled. The trait lives here (not in the server
//! crate) because the dependency points the other way: `calibro-server`
//! implements it over the framed wire protocol and injects it via
//! [`ArtifactStore::set_peer_source`](crate::ArtifactStore::set_peer_source).
//!
//! A source moves *frames*, not entries: the payload is the checksummed
//! interchange frame the disk layer writes, and the receiving lane runs
//! it through [`from_frame`](crate::from_frame) — the very gauntlet a
//! local disk read passes — before it will hold the entry. Wrong bytes
//! therefore count as a peer error and degrade to a local miss; they can
//! never become an entry.

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

use crate::hash::CacheKey;

/// The lanes that have a peer tier, in wire-code order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PeerLane {
    /// Per-method compile artifacts (`.calc` frames).
    Method,
    /// LTBO group plans (`.calg` frames).
    Group,
}

/// Why a peer fetch failed. Every transport failure mode in the fleet
/// fault matrix maps to one variant (a frame that arrives but fails
/// validation is caught by the receiving lane instead); all of them
/// count under `peer_errors` and degrade to a local compile — a peer
/// problem can slow a build down but never fail or corrupt it.
#[derive(Clone, Debug, PartialEq, Eq)]
#[allow(missing_docs)] // variant fields are uniformly (peer endpoint, detail)
pub enum PeerError {
    /// The peer could not be reached at all.
    Connect { peer: String, detail: String },
    /// The peer hung up (clean EOF or I/O error) during the exchange.
    Hangup { peer: String, detail: String },
    /// The peer's reply frame was cut off mid-payload: the length
    /// prefix promised more bytes than arrived.
    Truncated { peer: String },
    /// The peer spoke the protocol wrong: an oversized frame, an
    /// unexpected message kind, or an undecodable reply body.
    Garbage { peer: String, detail: String },
    /// The peer answered with a typed server-side error.
    Remote { peer: String, detail: String },
}

impl core::fmt::Display for PeerError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PeerError::Connect { peer, detail } => {
                write!(f, "peer {peer}: connect failed: {detail}")
            }
            PeerError::Hangup { peer, detail } => {
                write!(f, "peer {peer}: hung up mid-exchange: {detail}")
            }
            PeerError::Truncated { peer } => {
                write!(f, "peer {peer}: reply frame truncated mid-payload")
            }
            PeerError::Garbage { peer, detail } => {
                write!(f, "peer {peer}: protocol garbage: {detail}")
            }
            PeerError::Remote { peer, detail } => {
                write!(f, "peer {peer}: remote error: {detail}")
            }
        }
    }
}

impl std::error::Error for PeerError {}

/// One key's outcome of a peer fetch: the interchange frame a peer
/// holds, as the origin's disk layer writes it and not yet validated,
/// or `None` when every reachable peer answered not-found.
pub type PeerFetch = Result<Option<Vec<u8>>, PeerError>;

/// One lane code byte.
impl Wire for PeerLane {
    fn put(&self, w: &mut Writer) {
        w.u8(match self {
            PeerLane::Method => 0,
            PeerLane::Group => 1,
        });
    }

    fn get(r: &mut Reader<'_>, what: &'static str) -> Result<PeerLane, WireError> {
        match r.u8(what)? {
            0 => Ok(PeerLane::Method),
            1 => Ok(PeerLane::Group),
            tag => Err(WireError::InvalidTag { what, tag }),
        }
    }
}

/// A source of interchange frames one network hop away.
pub trait PeerSource: Send + Sync {
    /// Fetches the frame stored under `key` in `lane` from the fleet.
    ///
    /// # Errors
    ///
    /// Returns a [`PeerError`] classifying the transport failure.
    fn fetch(&self, lane: PeerLane, key: CacheKey) -> PeerFetch;

    /// Fetches many frames at once, one result per input key in order.
    /// The default loops [`fetch`](Self::fetch); wire implementations
    /// override it to pipeline the whole batch on one connection, so a
    /// cold build's thousand misses cost one network round of streaming
    /// instead of a thousand round trips.
    fn fetch_many(&self, lane: PeerLane, keys: &[CacheKey]) -> Vec<PeerFetch> {
        keys.iter().map(|&key| self.fetch(lane, key)).collect()
    }
}
