//! One store lane: an in-memory map from [`CacheKey`] to `Arc<V>` with
//! second-chance eviction and its own counter block, over the tiered
//! read path memory → the lane's checksummed log (promoting on a hit).
//! Written once, generically over [`LaneEntry`], and
//! monomorphised per entry type — the two lanes of an
//! [`ArtifactStore`](crate::ArtifactStore) share every line of logic
//! here and none of their state, so per-build stats stay attributable
//! and pressure in one lane never evicts another.
//!
//! Eviction is second chance (CLOCK) over insertion order: a memory hit
//! sets the entry's referenced bit, and an insert into a full lane pops
//! keys from the front of the queue — a referenced one goes to the back
//! with its bit cleared, the first unreferenced one is evicted. What
//! goes is a function of the sequence of lookups and inserts alone.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use crate::disk::{LaneEntry, Log};
use crate::error::CacheError;
use crate::hash::CacheKey;

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
    LockContention,
}

const COUNTERS: usize = Counter::LockContention as usize + 1;

/// A resident entry and its referenced bit.
struct Slot<V> {
    entry: Arc<V>,
    referenced: bool,
}

struct Inner<V> {
    map: HashMap<CacheKey, Slot<V>>,
    /// Every resident key once, in insertion order (a second chance
    /// moves a key to the back).
    queue: VecDeque<CacheKey>,
}

/// One lane of the store: an in-memory map with second-chance eviction
/// and its own counters over the tiered read path memory → disk,
/// generic over what it stores ([`LaneEntry`]). Shared across
/// compile workers: every method takes `&self` and synchronizes
/// internally.
pub struct Lane<V> {
    inner: Mutex<Inner<V>>,
    max_entries: usize,
    /// The disk tier, when the store has a directory and holds its log.
    log: Option<Log>,
    counters: [AtomicU64; COUNTERS],
}

impl<V: LaneEntry> Lane<V> {
    pub(crate) fn new(max_entries: usize, disk_dir: Option<&Path>) -> Self {
        Lane {
            inner: Mutex::new(Inner { map: HashMap::new(), queue: VecDeque::new() }),
            max_entries: max_entries.max(1),
            log: disk_dir.and_then(Log::open::<V>),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
        }
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
    /// and the queue disagree about: a queued key missing from the map is
    /// skipped when it surfaces, and a mapped key missing from the queue
    /// is never evicted: it holds its one slot for good.
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

    /// Looks `key` up in memory, then in the log (validating the frame
    /// and promoting the entry into memory on a disk hit). A memory hit
    /// sets the entry's referenced bit.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] when the log indexes a frame for `key` that
    /// is corrupt or unreadable — the caller must surface this, not mask
    /// it as a miss, so poisoned caches are diagnosed instead of
    /// silently recomputed around.
    pub fn get(&self, key: CacheKey) -> Result<Option<Arc<V>>, CacheError> {
        if let Some(slot) = self.lock().map.get_mut(&key) {
            slot.referenced = true;
            self.add(Counter::Hits, 1);
            return Ok(Some(Arc::clone(&slot.entry)));
        }
        let loaded = self.log.as_ref().map(|log| log.read::<V>(key)).transpose()?;
        if let Some(entry) = loaded.flatten() {
            self.add(Counter::DiskHits, 1);
            self.add(Counter::Hits, 1);
            // Promote into memory. NOT a store: the entry was produced
            // and persisted by an earlier build, so it is counted under
            // `promotions` (and a concurrent race is keep-first, like
            // `insert`).
            let (arc, promoted) = self.insert_memory(key, entry);
            if promoted {
                self.add(Counter::Promotions, 1);
            }
            return Ok(Some(arc));
        }
        self.add(Counter::Misses, 1);
        Ok(None)
    }

    /// Inserts an entry computed for `key`, returning the shared handle
    /// (an existing entry for the same key is kept — content addressing
    /// makes both byte-equivalent). Appends it to the log when there is
    /// one — only for genuinely new keys, so two workers inserting the
    /// same key concurrently produce exactly one frame and one
    /// `disk_stores` increment.
    pub fn insert(&self, key: CacheKey, entry: V) -> Arc<V> {
        let (arc, inserted) = self.insert_memory(key, entry);
        if inserted {
            self.add(Counter::Stores, 1);
            self.store_to_disk(key, &arc);
        }
        arc
    }

    /// Overwrites whatever the lane holds under `key`, in memory and in
    /// the log (a later frame for the key): the caller looked the
    /// resident entry up, found that it does not describe the content
    /// `key` addresses (a key collision, or a well-formed frame written
    /// for other content), and recomputed. The lookup counted a hit;
    /// this counts the miss it turned out to be, and the store. A
    /// resident key keeps its place in the queue, with its referenced
    /// bit cleared like any insert's.
    pub fn replace(&self, key: CacheKey, entry: V) -> Arc<V> {
        let arc = Arc::new(entry);
        {
            let mut inner = self.lock();
            match inner.map.get_mut(&key) {
                Some(slot) => *slot = Slot { entry: Arc::clone(&arc), referenced: false },
                None => self.admit(&mut inner, key, Arc::clone(&arc)),
            }
        }
        self.add(Counter::Misses, 1);
        self.add(Counter::Stores, 1);
        self.store_to_disk(key, &arc);
        arc
    }

    /// Best-effort append of an entry to the log, if any: whether it
    /// was appended (and counted).
    fn store_to_disk(&self, key: CacheKey, entry: &V) -> bool {
        let stored = self.log.as_ref().is_some_and(|log| log.append(key, entry));
        self.add(Counter::DiskStores, u64::from(stored));
        stored
    }

    /// Inserts `entry` under `key` if absent, returning the canonical
    /// handle and whether this call inserted it; `stores`/`promotions`
    /// attribution is the caller's job. The map is checked *first*, so
    /// a losing racer neither writes disk nor touches the counters.
    fn insert_memory(&self, key: CacheKey, entry: V) -> (Arc<V>, bool) {
        let mut inner = self.lock();
        if let Some(slot) = inner.map.get(&key) {
            return (Arc::clone(&slot.entry), false);
        }
        let arc = Arc::new(entry);
        self.admit(&mut inner, key, Arc::clone(&arc));
        (arc, true)
    }

    /// Maps and queues a key the map does not hold, its referenced bit
    /// clear, after making room: while the lane is full, the front key
    /// either goes to the back with its bit cleared (it was hit since
    /// it last came round) or is evicted. The newcomer is never its own
    /// victim, and a queued key the map no longer holds is dropped.
    fn admit(&self, inner: &mut Inner<V>, key: CacheKey, entry: Arc<V>) {
        while inner.map.len() >= self.max_entries {
            let Some(front) = inner.queue.pop_front() else { break };
            match inner.map.get_mut(&front) {
                Some(slot) if slot.referenced => {
                    slot.referenced = false;
                    inner.queue.push_back(front);
                }
                Some(_) => {
                    inner.map.remove(&front);
                    self.add(Counter::Evictions, 1);
                }
                None => {}
            }
        }
        inner.map.insert(key, Slot { entry, referenced: false });
        inner.queue.push_back(key);
    }

    /// Appends every in-memory entry the log's index does not hold,
    /// returning how many frames were written (see
    /// [`ArtifactStore::flush_to_disk`](crate::ArtifactStore::flush_to_disk)).
    pub(crate) fn flush_to_disk(&self) -> usize {
        let Some(log) = &self.log else { return 0 };
        let resident: Vec<(CacheKey, Arc<V>)> =
            self.lock().map.iter().map(|(k, slot)| (*k, Arc::clone(&slot.entry))).collect();
        resident
            .iter()
            .filter(|(key, entry)| !log.holds(*key) && self.store_to_disk(*key, entry))
            .count()
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

    /// The resident keys' `hi` words, sorted.
    fn resident(lane: &Lane<GroupPlanEntry>) -> Vec<u64> {
        let mut keys: Vec<u64> = lane.lock().map.keys().map(|k| k.hi).collect();
        keys.sort_unstable();
        keys
    }

    #[test]
    fn a_hit_entry_outlives_one_pass_and_an_unhit_older_one_goes_first() {
        let lane: Lane<GroupPlanEntry> = Lane::new(3, None);
        for k in 0..3 {
            lane.insert(key(k), sample_group());
        }
        assert!(lane.get(key(0)).expect("no disk tier").is_some());
        // Key 0 is the oldest but was hit: it goes to the back, and the
        // unhit key 1 behind it is evicted.
        lane.insert(key(3), sample_group());
        assert_eq!(resident(&lane), [0, 2, 3]);
        // Its second chance spent, key 0 goes in its new turn, after
        // key 2 — unless it is hit again.
        lane.insert(key(4), sample_group());
        assert_eq!(resident(&lane), [0, 3, 4]);
        lane.insert(key(5), sample_group());
        assert_eq!(resident(&lane), [3, 4, 5]);
        // A hit on key 3 gives it a second chance in its turn.
        assert!(lane.get(key(3)).expect("no disk tier").is_some());
        lane.insert(key(6), sample_group());
        assert_eq!(resident(&lane), [3, 5, 6]);
        // An insert starts unreferenced, whatever its origin: a replace
        // clears the bit a hit set, and keeps the key's turn.
        assert!(lane.get(key(5)).expect("no disk tier").is_some());
        lane.replace(key(5), sample_group());
        lane.insert(key(7), sample_group());
        assert_eq!(resident(&lane), [3, 6, 7]);
        assert_eq!(lane.count(Counter::Evictions), 5);
    }

    #[test]
    fn the_same_operations_evict_the_same_keys_in_the_same_order() {
        // A fixed script of inserts and lookups over a key space four
        // times the lane's size, the lookups skewed to low keys.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let script: Vec<(bool, u64)> =
            (0..4_000).map(|_| (next() % 3 == 0, next() % 64 % (1 + next() % 64))).collect();
        let run = || {
            let lane: Lane<GroupPlanEntry> = Lane::new(16, None);
            let mut evicted = Vec::new();
            for &(insert, k) in &script {
                if insert {
                    let before = resident(&lane);
                    lane.insert(key(k), sample_group());
                    let after = resident(&lane);
                    evicted.extend(before.into_iter().filter(|k| !after.contains(k)));
                } else {
                    lane.get(key(k)).expect("no disk tier");
                }
            }
            (evicted, resident(&lane))
        };
        let (first, kept) = run();
        assert!(first.len() > 100, "the script must evict: {}", first.len());
        assert_eq!(run(), (first, kept));
    }

    #[test]
    fn the_queue_stays_bounded_under_repeated_hits() {
        const MAX: usize = 8;
        let lane: Lane<GroupPlanEntry> = Lane::new(MAX, None);
        for round in 0..10_000u64 {
            for k in round.saturating_sub(MAX as u64)..round {
                lane.get(key(k)).expect("no disk tier");
            }
            lane.insert(key(round), sample_group());
            let inner = lane.lock();
            assert!(inner.map.len() <= MAX, "round {round}: {} resident", inner.map.len());
            assert!(inner.queue.len() <= MAX + 1, "round {round}: {} queued", inner.queue.len());
        }
        assert_eq!(lane.count(Counter::Evictions), 10_000 - MAX as u64);
    }

    #[test]
    fn a_holder_that_panics_leaves_the_lane_working() {
        let lane: Lane<GroupPlanEntry> = Lane::new(8, None);
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

    #[test]
    fn the_drain_flush_appends_what_a_failed_append_left_out() {
        // A read-only stand-in for the log's file fails the insert-time
        // append; once the log is writable again, the flush persists
        // the entry, and a second flush finds nothing left to write.
        let dir = std::env::temp_dir().join(format!("calibro-flush-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let lane: Lane<GroupPlanEntry> = Lane::new(8, Some(&dir));
        let log = lane.log.as_ref().expect("the log opens");
        let writable = log.swap_file(std::fs::File::open(dir.join("calg.log")).unwrap());
        lane.insert(key(3), sample_group());
        assert_eq!([Counter::Stores, Counter::DiskStores].map(|c| lane.count(c)), [1, 0]);
        log.swap_file(writable);
        assert_eq!(lane.flush_to_disk(), 1);
        assert_eq!(lane.flush_to_disk(), 0, "the second flush finds everything persisted");
        assert_eq!(lane.count(Counter::DiskStores), 1);
        drop(lane);
        let revived: Lane<GroupPlanEntry> = Lane::new(8, Some(&dir));
        assert!(revived.get(key(3)).unwrap().is_some());
        assert_eq!(revived.count(Counter::DiskHits), 1);
        drop(revived);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
