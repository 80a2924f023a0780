//! One store lane: an in-memory map from [`CacheKey`] to `Arc<V>` with
//! cost-aware 2Q eviction and its own counter block, over the tiered
//! read path memory → checksummed disk (promoting on a hit) → fleet
//! peer. Written once, generically over [`LaneEntry`], and
//! monomorphised per entry type — the three lanes of an
//! [`ArtifactStore`](crate::ArtifactStore) share every line of logic
//! here and none of their state, so per-build stats stay attributable
//! and pressure in one lane never evicts another.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError, TryLockError};

use crate::disk::{self, LaneEntry};
use crate::error::CacheError;
use crate::hash::CacheKey;
use crate::peer::{PeerFetch, PeerFrame, PeerLane, PeerSource};
use crate::policy::{Lane2Q, Victim};

/// The events one lane counts. [`CacheStats`](crate::CacheStats) maps
/// each of its flat fields to one `(lane, Counter)` pair.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Counter {
    Hits,
    Misses,
    Stores,
    Evictions,
    DiskHits,
    DiskStores,
    Promotions,
    PeerHits,
    PeerMisses,
    PeerErrors,
    EvictCostUs,
    LockContention,
}

const COUNTERS: usize = Counter::LockContention as usize + 1;

struct Inner<V> {
    map: HashMap<CacheKey, Arc<V>>,
    policy: Lane2Q,
}

/// One lane of the store: an in-memory map with cost-aware 2Q eviction
/// and its own counters over the tiered read path memory → disk → fleet
/// peer, generic over what it stores ([`LaneEntry`]). Shared across
/// compile workers: every method takes `&self` and synchronizes
/// internally.
pub struct Lane<V> {
    inner: Mutex<Inner<V>>,
    disk_dir: Option<PathBuf>,
    peer: OnceLock<Arc<dyn PeerSource>>,
    counters: [AtomicU64; COUNTERS],
}

impl<V: LaneEntry> Lane<V> {
    pub(crate) fn new(max_entries: usize, budget_bytes: usize, disk_dir: Option<PathBuf>) -> Self {
        Lane {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                policy: Lane2Q::new(max_entries, budget_bytes),
            }),
            disk_dir,
            peer: OnceLock::new(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    /// Installs the peer tier; the first source wins.
    pub(crate) fn set_peer_source(&self, source: Arc<dyn PeerSource>) {
        let _ = self.peer.set(source);
    }

    fn add(&self, counter: Counter, n: u64) {
        self.counters[counter as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The cumulative value of one counter.
    pub(crate) fn count(&self, counter: Counter) -> u64 {
        self.counters[counter as usize].load(Ordering::Relaxed)
    }

    /// Acquires the lane lock, counting the acquisition as contended
    /// when another thread holds it. The uncontended path is a single
    /// `try_lock`; the counter never changes what is returned.
    ///
    /// A poisoned lock is recovered, never propagated: a panic under the
    /// lock must not take the lane, and every later build of the session,
    /// down with it. The worst a holder can leave behind is a key the map
    /// and the policy disagree about, which every reader here tolerates
    /// (`cost_of` → 0, `on_hit` → no-op, `evict` checks the removal).
    fn lock(&self) -> MutexGuard<'_, Inner<V>> {
        match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => {
                self.add(Counter::LockContention, 1);
                self.inner.lock().unwrap_or_else(PoisonError::into_inner)
            }
        }
    }

    /// Number of in-memory entries.
    pub(crate) fn len(&self) -> usize {
        self.lock().map.len()
    }

    /// Memory-then-disk lookup shared by every read. Returns the entry
    /// with its recorded recompute cost; counts nothing when `count` is
    /// false (the peer-serving path must not pollute this shard's own
    /// hit/miss attribution) and never counts a miss (the callers own
    /// that decision).
    fn local_lookup(
        &self,
        key: CacheKey,
        count: bool,
    ) -> Result<Option<(Arc<V>, u64)>, CacheError> {
        {
            let mut inner = self.lock();
            if let Some(entry) = inner.map.get(&key) {
                let arc = Arc::clone(entry);
                let cost = inner.policy.cost_of(key).unwrap_or(0);
                inner.policy.on_hit(key);
                if count {
                    self.add(Counter::Hits, 1);
                }
                return Ok(Some((arc, cost)));
            }
        }
        if let Some(dir) = &self.disk_dir {
            if let Some(entry) = disk::load::<V>(dir, key)? {
                if count {
                    self.add(Counter::DiskHits, 1);
                    self.add(Counter::Hits, 1);
                }
                // Promote into memory. NOT a store: the entry was
                // produced and persisted by an earlier build, so it is
                // counted under `promotions` (and a concurrent race is
                // keep-first, like `insert`). Promotion cost is zero —
                // re-materializing it is a disk read, not a recompute —
                // so under pressure disk-backed entries go first.
                let (arc, promoted) = self.insert_memory(key, entry, 0);
                if count && promoted {
                    self.add(Counter::Promotions, 1);
                }
                return Ok(Some((arc, 0)));
            }
        }
        Ok(None)
    }

    /// The installed peer source and this lane's wire code; `None` for
    /// a local-only lane or a store without a fleet.
    fn peer(&self) -> Option<(&dyn PeerSource, PeerLane)> {
        Some((self.peer.get()?.as_ref(), V::PEER_LANE?))
    }

    /// Folds one peer outcome for a local miss into the lane. A frame
    /// that passes the [`from_frame`](crate::from_frame) gauntlet is
    /// adopted at the origin's recorded recompute cost (locally it was
    /// never computed, but evicting it costs the fleet the same network
    /// fetch again) — not a store, it is not new output. Not-found, a
    /// transport failure and a frame that fails validation all degrade
    /// to a counted miss: the caller recomputes locally and never sees
    /// the peer problem as an error.
    fn adopt(&self, key: CacheKey, fetched: PeerFetch) -> Option<Arc<V>> {
        let degraded = match fetched {
            Ok(Some(PeerFrame { frame, cost_us })) => match disk::from_frame::<V>(key, &frame) {
                Ok(entry) => {
                    self.add(Counter::PeerHits, 1);
                    self.add(Counter::Hits, 1);
                    return Some(self.insert_memory(key, entry, cost_us).0);
                }
                Err(_) => Counter::PeerErrors,
            },
            Ok(None) => Counter::PeerMisses,
            Err(_) => Counter::PeerErrors,
        };
        self.add(degraded, 1);
        self.add(Counter::Misses, 1);
        None
    }

    /// Looks `key` up through every tier: memory first, then the disk
    /// layer (validating and promoting into memory on a disk hit), then
    /// — for a lane with a [`PEER_LANE`](LaneEntry::PEER_LANE) in a
    /// store with a [`PeerSource`] — a sibling shard's warm lane.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when a *local* disk entry exists but is
    /// corrupt or unreadable — the caller must surface this, not mask
    /// it as a miss, so poisoned caches are diagnosed instead of
    /// silently recomputed around.
    pub fn get(&self, key: CacheKey) -> Result<Option<Arc<V>>, CacheError> {
        if let Some((arc, _)) = self.local_lookup(key, true)? {
            return Ok(Some(arc));
        }
        Ok(match self.peer() {
            Some((peer, lane)) => self.adopt(key, peer.fetch(lane, key)),
            None => {
                self.add(Counter::Misses, 1);
                None
            }
        })
    }

    /// Batched [`get`](Self::get): probes every key locally, then
    /// resolves all local misses through the peer tier in one
    /// [`PeerSource::fetch_many`] call — with a wire peer source that
    /// is one pipelined exchange instead of a round trip per key.
    /// Counter semantics are identical to calling `get` per key.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on a corrupt local disk entry, like
    /// [`get`](Self::get).
    pub fn get_many(&self, keys: &[CacheKey]) -> Result<Vec<Option<Arc<V>>>, CacheError> {
        let mut out: Vec<Option<Arc<V>>> = Vec::with_capacity(keys.len());
        let mut missing: Vec<usize> = Vec::new();
        for (i, &key) in keys.iter().enumerate() {
            let found = self.local_lookup(key, true)?.map(|(arc, _)| arc);
            if found.is_none() {
                missing.push(i);
            }
            out.push(found);
        }
        if missing.is_empty() {
            return Ok(out);
        }
        match self.peer() {
            Some((peer, lane)) => {
                let miss_keys: Vec<CacheKey> = missing.iter().map(|&i| keys[i]).collect();
                for (&slot, fetched) in missing.iter().zip(peer.fetch_many(lane, &miss_keys)) {
                    out[slot] = self.adopt(keys[slot], fetched);
                }
            }
            None => self.add(Counter::Misses, missing.len() as u64),
        }
        Ok(out)
    }

    /// The lookup a daemon runs to answer a sibling's `PeerGet`: the
    /// entry's interchange frame and recorded recompute cost, from
    /// memory and local disk only — never the peer tier, so a
    /// fleet-wide miss terminates instead of ricocheting between shards
    /// — and without touching the hit/miss counters, so serving the
    /// fleet does not distort this shard's own cache attribution. The
    /// eviction policy *does* see the access: fleet-hot entries deserve
    /// residence.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the local disk entry is corrupt or
    /// unreadable; the requester counts a peer error and recomputes
    /// locally.
    pub fn serve_peer(&self, key: CacheKey) -> Result<Option<PeerFrame>, CacheError> {
        let found = self.local_lookup(key, false)?;
        Ok(found.map(|(entry, cost_us)| PeerFrame { frame: disk::to_frame(key, &*entry), cost_us }))
    }

    /// Inserts an entry computed for `key` with the CPU cost (µs) it
    /// took to produce, returning the shared handle (an existing entry
    /// for the same key is kept — content addressing makes both
    /// byte-equivalent). Persists to disk when configured — only for
    /// genuinely new keys, so two workers inserting the same key
    /// concurrently produce exactly one disk write and one
    /// `disk_stores` increment.
    ///
    /// The cost feeds the 2Q eviction policy: under budget pressure the
    /// lane sacrifices cheap-to-recompute entries first.
    pub fn insert_with_cost(&self, key: CacheKey, entry: V, cost_us: u64) -> Arc<V> {
        let (arc, inserted) = self.insert_memory(key, entry, cost_us);
        if inserted {
            self.add(Counter::Stores, 1);
            if let Some(dir) = &self.disk_dir {
                if disk::store(dir, key, &*arc).is_ok() {
                    self.add(Counter::DiskStores, 1);
                }
            }
        }
        arc
    }

    /// Overwrites whatever the lane holds under `key`, in memory and on
    /// disk: the caller looked the resident entry up, found that it does
    /// not describe the content `key` addresses (a key collision, a
    /// well-formed frame from a confused peer), and recomputed. The
    /// lookup counted a hit; this counts the miss it turned out to be,
    /// and the store.
    pub fn replace_with_cost(&self, key: CacheKey, entry: V, cost_us: u64) -> Arc<V> {
        let arc = Arc::new(entry);
        {
            let mut inner = self.lock();
            let bytes = arc.approx_bytes();
            let victims = match inner.map.insert(key, Arc::clone(&arc)) {
                Some(_) => inner.policy.on_replace(key, bytes, cost_us),
                None => inner.policy.on_insert(key, bytes, cost_us),
            };
            self.evict(&mut inner, victims);
        }
        self.add(Counter::Misses, 1);
        self.add(Counter::Stores, 1);
        if let Some(dir) = &self.disk_dir {
            if disk::store(dir, key, &*arc).is_ok() {
                self.add(Counter::DiskStores, 1);
            }
        }
        arc
    }

    /// [`insert_with_cost`](Self::insert_with_cost) with an unrecorded
    /// (zero) recompute cost.
    pub fn insert(&self, key: CacheKey, entry: V) -> Arc<V> {
        self.insert_with_cost(key, entry, 0)
    }

    /// Inserts `entry` under `key` if absent, returning the canonical
    /// handle and whether this call inserted it. Applies the eviction
    /// policy (counting evictions and their forfeited cost);
    /// `stores`/`promotions` attribution is the caller's job. The map
    /// is checked *first*, so a losing racer neither writes disk nor
    /// touches the counters.
    fn insert_memory(&self, key: CacheKey, entry: V, cost_us: u64) -> (Arc<V>, bool) {
        let mut inner = self.lock();
        if let Some(existing) = inner.map.get(&key) {
            return (Arc::clone(existing), false);
        }
        let bytes = entry.approx_bytes();
        let arc = Arc::new(entry);
        inner.map.insert(key, Arc::clone(&arc));
        let victims = inner.policy.on_insert(key, bytes, cost_us);
        self.evict(&mut inner, victims);
        (arc, true)
    }

    /// Drops the policy's victims from the map, counting each eviction
    /// and the recompute cost it forfeits.
    fn evict(&self, inner: &mut Inner<V>, victims: Vec<Victim>) {
        for victim in victims {
            if inner.map.remove(&victim.key).is_some() {
                self.add(Counter::Evictions, 1);
                self.add(Counter::EvictCostUs, victim.cost_us);
            }
        }
    }

    /// Persists every in-memory entry the disk layer does not already
    /// hold, returning how many files were written (see
    /// [`ArtifactStore::flush_to_disk`](crate::ArtifactStore::flush_to_disk)).
    pub(crate) fn flush_to_disk(&self) -> usize {
        let Some(dir) = &self.disk_dir else { return 0 };
        let resident: Vec<(CacheKey, Arc<V>)> =
            self.lock().map.iter().map(|(k, v)| (*k, Arc::clone(v))).collect();
        let mut written = 0;
        for (key, entry) in resident {
            if !disk::has::<V>(dir, key) && disk::store(dir, key, &*entry).is_ok() {
                self.add(Counter::DiskStores, 1);
                written += 1;
            }
        }
        written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::sample_group;
    use crate::entry::GroupPlanEntry;

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    #[test]
    fn a_holder_that_panics_leaves_the_lane_working() {
        let lane: Lane<GroupPlanEntry> = Lane::new(8, usize::MAX, None);
        lane.insert(key(1), sample_group());
        let (locked, is_locked) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = lane.lock();
                locked.send(()).expect("the waiter is listening");
                // Die only once the waiter is past `try_lock`, so it
                // meets the poison on the blocking arm.
                while lane.count(Counter::LockContention) == 0 {
                    std::thread::yield_now();
                }
                panic!("holder dies with the lane locked");
            });
            is_locked.recv().expect("the holder took the lock");
            assert!(lane.get(key(1)).expect("no disk tier").is_some());
            assert!(holder.join().is_err());
        });
        assert!(lane.inner.is_poisoned());

        // Every later acquisition meets the poison on `try_lock`.
        assert!(lane.get(key(2)).expect("no disk tier").is_none());
        lane.insert(key(2), sample_group());
        assert!(lane.get(key(2)).expect("no disk tier").is_some());
        assert_eq!(lane.len(), 2);
        let counted = [Counter::Hits, Counter::Misses, Counter::Stores, Counter::LockContention];
        assert_eq!(counted.map(|c| lane.count(c)), [2, 1, 2, 1]);
    }
}
