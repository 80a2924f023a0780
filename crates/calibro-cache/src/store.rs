//! The content-addressed artifact store: two [`Lane`]s — method
//! artifacts and LTBO group plans — over one configuration and one
//! optional disk directory, plus the flat [`CacheStats`] snapshot of
//! their counters. What a lane does is [`Lane`]'s story; this module
//! only wires the two together.

use std::path::PathBuf;
use std::sync::Arc;

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

use crate::entry::{CacheEntry, GroupPlanEntry};
use crate::error::CacheError;
use crate::hash::CacheKey;
use crate::lane::{Counter, Lane};

/// Configuration of one [`ArtifactStore`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum in-memory entries per lane (at least one). An insert into
    /// a full lane evicts by second chance (see [`Lane`]).
    pub max_entries: usize,
    /// Directory for the persistent layer, one log per lane; `None`
    /// keeps the cache purely in-memory. Entries are appended
    /// best-effort (an unwritable directory never fails a build) but
    /// *read* strictly: a corrupt frame surfaces as a [`CacheError`],
    /// never as wrong code.
    pub disk_dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig { max_entries: 1 << 20, disk_dir: None }
    }
}

/// Which lane a [`CacheStats`] field reads.
#[derive(Clone, Copy)]
enum LaneId {
    Method,
    Group,
}

/// The counter table: the one place a [`CacheStats`] field is named.
/// Each row is `field = lane.counter`; the struct, its name list, the
/// array conversions and [`ArtifactStore::stats`] are all generated
/// from the rows, and every serialization of the stats (`since`, the
/// build-stats JSON `cache` object, the `ServerStats` wire body)
/// iterates them. Row order is JSON key order and wire order — append,
/// never reorder.
///
/// Three fields sit outside the table: `merge_hits`, `merge_misses` and
/// `merge_evictions`, the counters of the retired merge-plan lane. They
/// are always 0 and travel in no wire body; the JSON object ends with
/// them because the benchmark harness still reads them by name.
macro_rules! cache_stats {
    ($($(#[$doc:meta])* $field:ident = $lane:ident . $counter:ident,)*) => {
        /// A monotonic snapshot of store activity. Per-build numbers
        /// are the difference of two snapshots (see
        /// [`CacheStats::since`]).
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct CacheStats {
            $($(#[$doc])* pub $field: u64,)*
            /// Always 0: the merge-plan lane is gone.
            pub merge_hits: u64,
            /// Always 0: the merge-plan lane is gone.
            pub merge_misses: u64,
            /// Always 0: the merge-plan lane is gone.
            pub merge_evictions: u64,
        }

        impl CacheStats {
            /// The field names, in table (JSON key and wire) order.
            pub const NAMES: [&'static str; Self::LEN] = [$(stringify!($field),)*];
            /// Number of counters.
            pub const LEN: usize = [$(Counter::$counter,)*].len();
            /// Where each field is counted, in table order.
            const SOURCES: [(LaneId, Counter); Self::LEN] =
                [$((LaneId::$lane, Counter::$counter),)*];

            /// The counter values, in table order.
            #[must_use]
            pub fn to_array(&self) -> [u64; Self::LEN] {
                [$(self.$field,)*]
            }

            /// Rebuilds a snapshot from values in table order.
            #[must_use]
            pub fn from_array(values: [u64; Self::LEN]) -> CacheStats {
                let [$($field,)*] = values;
                CacheStats { $($field,)* merge_hits: 0, merge_misses: 0, merge_evictions: 0 }
            }
        }
    };
}

cache_stats! {
    /// Lookups that found an entry (in memory or on disk).
    hits = Method.Hits,
    /// Lookups that found nothing in either tier.
    misses = Method.Misses,
    /// Entries inserted.
    stores = Method.Stores,
    /// Entries evicted from a full lane.
    evictions = Method.Evictions,
    /// Lookups satisfied from the disk layer.
    disk_hits = Method.DiskHits,
    /// Entries persisted to the disk layer.
    disk_stores = Method.DiskStores,
    /// Disk hits promoted into the in-memory map. Distinct from
    /// [`stores`](Self::stores): a promotion re-materializes an entry
    /// this (or an earlier) process already paid to compile and
    /// persist, so it must not read as new compilation output.
    promotions = Method.Promotions,
    /// Group-plan lookups that found a plan (LTBO detection skipped).
    group_hits = Group.Hits,
    /// Group-plan lookups that found nothing (group re-detected).
    group_misses = Group.Misses,
    /// Group plans inserted.
    group_stores = Group.Stores,
    /// Group plans evicted from a full lane.
    group_evictions = Group.Evictions,
    /// Group-plan lookups satisfied from the disk layer.
    group_disk_hits = Group.DiskHits,
    /// Group plans persisted to the disk layer.
    group_disk_stores = Group.DiskStores,
    /// Group-plan disk hits promoted into the in-memory map (see
    /// [`promotions`](Self::promotions)).
    group_promotions = Group.Promotions,
    /// Method-lane lock acquisitions that found the lock held by
    /// another thread (a contended shared-store access). Zero in
    /// single-build use; under a multi-tenant daemon this measures how
    /// hard concurrent requests fight over the store.
    lock_contention = Method.LockContention,
    /// Group-plan-lane lock acquisitions that found the lock held.
    group_lock_contention = Group.LockContention,
}

// Every `CacheStats` field but the three retired ones is a row of the
// counter table, which the stats body transports by iteration: a field
// declared outside the table fails compilation here instead of silently
// not being transported.
const _: () = assert!(core::mem::size_of::<CacheStats>() == 8 * (CacheStats::LEN + 3));

/// The counters in table order, each decoded under its own name.
impl Wire for CacheStats {
    fn put(&self, w: &mut Writer) {
        for v in self.to_array() {
            w.u64(v);
        }
    }

    fn get(r: &mut Reader<'_>, _what: &'static str) -> Result<CacheStats, WireError> {
        let mut values = [0u64; CacheStats::LEN];
        for (slot, name) in values.iter_mut().zip(CacheStats::NAMES) {
            *slot = r.u64(name)?;
        }
        Ok(CacheStats::from_array(values))
    }
}

/// `hits / (hits + misses)` in `[0, 1]`; `0` when no lookups happened.
fn hit_fraction(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_precision_loss)]
    {
        hits as f64 / total as f64
    }
}

impl CacheStats {
    /// The activity between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        let mut delta = self.to_array();
        for (now, then) in delta.iter_mut().zip(earlier.to_array()) {
            *now -= then;
        }
        CacheStats::from_array(delta)
    }

    /// The counters as a JSON object, keys in table order and then the
    /// three retired merge-lane fields (hand rolled — every value is
    /// numeric, so no escaping is needed).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut json = String::with_capacity(32 * (Self::LEN + 3));
        let retired = [
            ("merge_hits", self.merge_hits),
            ("merge_misses", self.merge_misses),
            ("merge_evictions", self.merge_evictions),
        ];
        let fields = Self::NAMES.into_iter().zip(self.to_array()).chain(retired);
        for (i, (name, value)) in fields.enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            write!(json, r#"{open}"{name}":{value}"#).expect("writing to a String cannot fail");
        }
        json.push('}');
        json
    }

    /// Method-lane hit fraction in `[0, 1]` (counting disk hits as
    /// hits); `0` when no lookups happened.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        hit_fraction(self.hits, self.misses)
    }

    /// Group-plan hit fraction in `[0, 1]`; `0` when no group lookups
    /// happened.
    #[must_use]
    pub fn group_hit_rate(&self) -> f64 {
        hit_fraction(self.group_hits, self.group_misses)
    }
}

/// The content-addressed store. Cheap to share: wrap in `Arc` or hold
/// per `BuildSession`; all methods take `&self`.
///
/// Two independent [`Lane`]s share the store — per-method compile
/// artifacts ([`methods`](Self::methods)) and per-group LTBO plans
/// ([`groups`](Self::groups)) — each with its own lock, counters,
/// `max_entries` ceiling, so per-build stats stay
/// attributable and pressure in one lane never evicts the other.
pub struct ArtifactStore {
    methods: Lane<CacheEntry>,
    groups: Lane<GroupPlanEntry>,
    config: CacheConfig,
}

impl Default for ArtifactStore {
    fn default() -> ArtifactStore {
        ArtifactStore::new(CacheConfig::default())
    }
}

impl core::fmt::Debug for ArtifactStore {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ArtifactStore")
            .field("entries", &self.methods.len())
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactStore {
    /// An empty store under `config`. A disk-backed store opens and
    /// locks each lane's log for its lifetime, cutting a frame a killed
    /// writer left half-written; a log another live store holds leaves
    /// its lane memory-only.
    #[must_use]
    pub fn new(config: CacheConfig) -> ArtifactStore {
        let (max, dir) = (config.max_entries, config.disk_dir.as_deref());
        ArtifactStore { methods: Lane::new(max, dir), groups: Lane::new(max, dir), config }
    }

    /// The per-method compile-artifact lane.
    #[must_use]
    pub fn methods(&self) -> &Lane<CacheEntry> {
        &self.methods
    }

    /// The per-group LTBO plan lane.
    #[must_use]
    pub fn groups(&self) -> &Lane<GroupPlanEntry> {
        &self.groups
    }

    /// [`Lane::get`] on the method lane.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on a corrupt local disk entry.
    pub fn get(&self, key: CacheKey) -> Result<Option<Arc<CacheEntry>>, CacheError> {
        self.methods.get(key)
    }

    /// [`Lane::get`] on the method lane for each key in turn, stopping
    /// at the first error.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on a corrupt local disk entry.
    pub fn get_many(&self, keys: &[CacheKey]) -> Result<Vec<Option<Arc<CacheEntry>>>, CacheError> {
        keys.iter().map(|&key| self.methods.get(key)).collect()
    }

    /// [`Lane::insert`] on the method lane.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> Arc<CacheEntry> {
        self.methods.insert(key, entry)
    }

    /// Persists every in-memory entry (all lanes) that the logs do not
    /// already hold, returning how many frames were appended. A
    /// draining daemon calls this so an entry whose best-effort
    /// insert-time append failed (a full disk, say) survives the restart
    /// as a disk hit instead of a recompile. A promoted entry was read
    /// from its log and is skipped.
    ///
    /// Best-effort like all disk writes: an unwritable log flushes
    /// nothing and fails nothing. No-op for a lane without a log.
    pub fn flush_to_disk(&self) -> usize {
        self.methods.flush_to_disk() + self.groups.flush_to_disk()
    }

    /// A snapshot of the cumulative counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats::from_array(CacheStats::SOURCES.map(|(lane, counter)| match lane {
            LaneId::Method => self.methods.count(counter),
            LaneId::Group => self.groups.count(counter),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::{sample_entry, sample_group, FIXTURE_KEY, STALE_FIXTURES};
    use crate::disk::{from_frame, to_frame, LaneEntry, FORMAT_VERSION};

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    /// What the generic suites need to know per lane beyond
    /// [`LaneEntry`]: distinguishable same-size entries, the lane's
    /// accessor and its `CacheStats` field prefix.
    trait Sample: LaneEntry {
        const PREFIX: &'static str;
        fn make(n: u32) -> Self;
        fn lane(store: &ArtifactStore) -> &Lane<Self>;
    }

    impl Sample for CacheEntry {
        const PREFIX: &'static str = "";
        fn make(n: u32) -> Self {
            let mut entry = sample_entry();
            entry.compiled.method = calibro_dex::MethodId(n);
            entry
        }
        fn lane(store: &ArtifactStore) -> &Lane<Self> {
            store.methods()
        }
    }

    impl Sample for GroupPlanEntry {
        const PREFIX: &'static str = "group_";
        fn make(n: u32) -> Self {
            GroupPlanEntry { code_len: 20 + n as usize, ..sample_group() }
        }
        fn lane(store: &ArtifactStore) -> &Lane<Self> {
            store.groups()
        }
    }

    /// The lane's counters by unprefixed name (`"hits"` reads
    /// `group_hits` for the group lane), in the order asked.
    fn stats<V: Sample, const N: usize>(store: &ArtifactStore, names: [&str; N]) -> [u64; N] {
        let values = store.stats().to_array();
        names.map(|name| {
            let field = format!("{}{name}", V::PREFIX);
            let i = CacheStats::NAMES.iter().position(|n| *n == field);
            values[i.unwrap_or_else(|| panic!("no counter named {field}"))]
        })
    }

    /// Sum of every counter of every lane.
    fn activity(store: &ArtifactStore) -> u64 {
        store.stats().to_array().iter().sum()
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("calibro-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn disk_store(dir: &std::path::Path) -> ArtifactStore {
        ArtifactStore::new(CacheConfig {
            disk_dir: Some(dir.to_path_buf()),
            ..CacheConfig::default()
        })
    }

    fn flip_last_byte(bytes: &mut [u8]) {
        *bytes.last_mut().expect("non-empty") ^= 0xFF;
    }

    fn log_path<V: LaneEntry>(dir: &std::path::Path) -> PathBuf {
        dir.join(format!("{}.log", V::EXT))
    }

    /// The key and byte range of each frame of a log, in log order.
    fn frames(log: &[u8]) -> Vec<(CacheKey, std::ops::Range<usize>)> {
        let mut frames = Vec::new();
        let mut at = 0;
        while at < log.len() {
            let word = |i: usize| u64::from_le_bytes(log[at + i..at + i + 8].try_into().unwrap());
            let end = at + 40 + word(24) as usize;
            frames.push((CacheKey { hi: word(8), lo: word(16) }, at..end));
            at = end;
        }
        frames
    }

    /// The contract every lane keeps, whatever it stores.
    fn lane_contract<V: Sample>() {
        let ext = V::EXT;

        // Hit/miss/store counters move in this lane and no other, and
        // a duplicate insert keeps the first entry.
        let store = ArtifactStore::default();
        let lane = V::lane(&store);
        assert!(lane.get(key(1)).unwrap().is_none());
        lane.insert(key(1), V::make(1));
        let hit = lane.get(key(1)).unwrap().expect("inserted entry is found");
        assert_eq!(to_frame(key(1), &*hit), to_frame(key(1), &V::make(1)));
        assert!(Arc::ptr_eq(&lane.insert(key(1), V::make(2)), &hit), "{ext}: keep-first");
        assert_eq!(stats::<V, 3>(&store, ["hits", "misses", "stores"]), [1, 1, 1]);
        assert_eq!(activity(&store), 3, "{ext}: a sibling lane's counters moved");

        // A full lane evicts from itself and no other.
        let tight = ArtifactStore::new(CacheConfig { max_entries: 2, ..CacheConfig::default() });
        tight.methods().insert(key(0), Sample::make(0));
        tight.groups().insert(key(0), Sample::make(0));
        for n in 1..4 {
            V::lane(&tight).insert(key(n), V::make(n as u32));
        }
        assert_eq!(V::lane(&tight).len(), 2, "{ext}: a full lane must evict");
        assert_eq!(stats::<V, 1>(&tight, ["evictions"]), [2]);
        let s = tight.stats();
        let evicted = s.evictions + s.group_evictions;
        assert_eq!(evicted, 2, "{ext}: pressure leaked into a sibling lane");
        assert_eq!(tight.methods().len() + tight.groups().len(), 3);

        // Entries persist across store instances, and a disk hit is a
        // promotion — never a store (the PR 6 / PR 10 bug class).
        let dir = fresh_dir(&format!("contract-{ext}"));
        let log = log_path::<V>(&dir);
        let first = disk_store(&dir);
        V::lane(&first).insert(key(7), V::make(7));
        assert_eq!(stats::<V, 2>(&first, ["stores", "disk_stores"]), [1, 1]);
        drop(first);
        let second = disk_store(&dir);
        let back = V::lane(&second).get(key(7)).unwrap().expect("reloaded from disk");
        assert_eq!(to_frame(key(7), &*back), to_frame(key(7), &V::make(7)));
        assert!(V::lane(&second).get(key(7)).unwrap().is_some(), "{ext}: memory hit");
        let names = ["hits", "disk_hits", "promotions", "stores", "disk_stores"];
        assert_eq!(stats::<V, 5>(&second, names), [2, 1, 1, 0, 0], "{ext}: promotion misread");
        // The same key in the sibling lanes is a different log.
        let found = [
            second.methods().get(key(7)).unwrap().is_some(),
            second.groups().get(key(7)).unwrap().is_some(),
        ];
        assert_eq!(found.iter().filter(|&&f| f).count(), 1, "{ext}: lanes alias on disk");
        drop(second);

        // An overwrite replaces the resident entry in memory, appends a
        // later frame for the key, which a reopened store reads, and
        // counts the miss the lookup before it turned out to be.
        let store = disk_store(&dir);
        let lane = V::lane(&store);
        assert!(lane.get(key(7)).unwrap().is_some());
        let replaced = lane.replace(key(7), V::make(9));
        assert!(Arc::ptr_eq(&lane.get(key(7)).unwrap().expect("replaced entry"), &replaced));
        assert_eq!(lane.len(), 1);
        let names = ["hits", "misses", "stores", "disk_stores"];
        assert_eq!(stats::<V, 4>(&store, names), [2, 1, 1, 1], "{ext}: overwrite miscounted");
        drop(store);
        let reopened = disk_store(&dir);
        let back = V::lane(&reopened).get(key(7)).unwrap().expect("the overwrite persisted");
        assert_eq!(to_frame(key(7), &*back), to_frame(key(7), &V::make(9)));
        V::lane(&reopened).replace(key(7), V::make(7));
        drop(reopened);
        assert_eq!(frames(&std::fs::read(&log).unwrap()).len(), 3, "{ext}: a frame was rewritten");

        // A corrupt payload is a typed error naming the log, never a miss.
        let mut bytes = std::fs::read(&log).unwrap();
        flip_last_byte(&mut bytes);
        std::fs::write(&log, &bytes).unwrap();
        let third = disk_store(&dir);
        match V::lane(&third).get(key(7)) {
            Err(CacheError::Corrupt { path, detail }) => {
                assert_eq!(path, log);
                assert!(detail.contains("checksum"), "{detail}");
            }
            other => panic!("{ext}: expected Corrupt, got {:?}", other.map(|o| o.is_some())),
        }
        assert_eq!(activity(&third), 0, "{ext}: a poisoned entry counted as hit or miss");
        drop(third);
        let _ = std::fs::remove_dir_all(&dir);

        // The interchange frame rejects a wrong key, tampering,
        // truncation and another lane's magic.
        let good = to_frame(key(7), &V::make(7));
        assert!(from_frame::<V>(key(7), &good).is_ok());
        assert!(from_frame::<V>(key(8), &good).is_err(), "{ext}: wrong key accepted");
        let mut tampered = good.clone();
        flip_last_byte(&mut tampered);
        assert!(from_frame::<V>(key(7), &tampered).is_err(), "{ext}: tampered frame accepted");
        assert!(from_frame::<V>(key(7), &good[..good.len() - 1]).is_err());
        let mut foreign = good.clone();
        foreign[3] = if ext == "calc" { b'G' } else { b'C' };
        assert!(from_frame::<V>(key(7), &foreign).is_err(), "{ext}: foreign magic accepted");

        // Two threads racing to insert the same 16 keys: only the
        // winner of each key may persist it, and the directory holds
        // the two logs and nothing else — no tmp file, no file per key.
        let dir = fresh_dir(&format!("dup-{ext}"));
        let dup = disk_store(&dir);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    start.wait();
                    for k in 0..16 {
                        V::lane(&dup).insert(key(k), V::make(k as u32));
                    }
                });
            }
        });
        assert_eq!(stats::<V, 3>(&dup, ["stores", "disk_stores", "evictions"]), [16, 16, 0]);
        assert_eq!(V::lane(&dup).len(), 16);
        let logged = frames(&std::fs::read(log_path::<V>(&dir)).unwrap());
        assert_eq!(logged.len(), 16, "{ext}: one frame per key");
        let mut files: Vec<_> =
            std::fs::read_dir(&dir).unwrap().flatten().map(|f| f.file_name()).collect();
        files.sort();
        assert_eq!(files, ["calc.log", "calg.log"], "{ext}");
        drop(dup);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Instantiates a generic suite once per lane, one `#[test]` each.
    macro_rules! per_lane {
        ($($test:ident = $suite:ident::<$entry:ty>;)*) => {
            $(#[test]
            fn $test() {
                $suite::<$entry>();
            })*
        };
    }

    per_lane! {
        method_lane_keeps_the_lane_contract = lane_contract::<CacheEntry>;
        group_lane_keeps_the_lane_contract = lane_contract::<GroupPlanEntry>;
    }

    /// A cache directory written at any other format version (here the
    /// committed stale-version frame, between two current ones) costs
    /// one miss per entry — never a `CacheError` — the frames after it
    /// still hit, and the recompute's insert appends a current frame.
    fn stale_version_contract<V: Sample>() {
        let ext = V::EXT;
        let dir = fresh_dir(&format!("stale-{ext}"));
        std::fs::create_dir_all(&dir).unwrap();
        let (_, stale) = STALE_FIXTURES.iter().find(|(e, _)| *e == ext).expect("lane fixture");
        assert_ne!(stale[4..8], FORMAT_VERSION.to_le_bytes(), "{ext}: the kept frame is current");
        let log =
            [&to_frame(key(1), &V::make(1))[..], stale, &to_frame(key(2), &V::make(2))].concat();
        std::fs::write(log_path::<V>(&dir), &log).unwrap();

        let store = disk_store(&dir);
        assert!(V::lane(&store).get(FIXTURE_KEY).expect("no CacheError").is_none());
        assert_eq!(stats::<V, 3>(&store, ["hits", "misses", "disk_hits"]), [0, 1, 0]);
        assert_eq!(activity(&store), 1, "{ext}: a stale frame is one miss and nothing else");
        for k in [1, 2] {
            assert!(V::lane(&store).get(key(k)).unwrap().is_some(), "{ext}: key {k} lost");
        }

        V::lane(&store).insert(FIXTURE_KEY, V::make(0));
        assert_eq!(store.flush_to_disk(), 0, "{ext}: the appended frame is indexed");
        drop(store);
        let appended = std::fs::read(log_path::<V>(&dir)).unwrap();
        assert_eq!(appended, [&log[..], &to_frame(FIXTURE_KEY, &V::make(0))].concat());
        let fresh = disk_store(&dir);
        assert!(V::lane(&fresh).get(FIXTURE_KEY).unwrap().is_some(), "{ext}: reloads");
        assert_eq!(stats::<V, 1>(&fresh, ["disk_hits"]), [1]);
        drop(fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    per_lane! {
        method_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<CacheEntry>;
        group_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<GroupPlanEntry>;
    }

    #[test]
    fn counter_table_keeps_the_wire_and_json_order() {
        // Recorded from the 45-argument `format!` / wire destructuring
        // the table replaced, less the twelve rows of the dictionary lane,
        // the nine of the merge-plan lane, the two evicted-cost rows and
        // the six peer-tier rows removed since. Append to both; never
        // reorder.
        #[rustfmt::skip]
        let order = [
            "hits", "misses", "stores", "evictions", "disk_hits", "disk_stores", "promotions",
            "group_hits", "group_misses", "group_stores", "group_evictions", "group_disk_hits",
            "group_disk_stores", "group_promotions",
            "lock_contention", "group_lock_contention",
        ];
        assert_eq!(CacheStats::NAMES, order);
        let ramp: [u64; CacheStats::LEN] = std::array::from_fn(|i| i as u64 + 1);
        let s = CacheStats::from_array(ramp);
        assert_eq!(s.to_array(), ramp);
        assert_eq!((s.hits, s.group_hits, s.group_promotions), (1, 8, 14));
        assert_eq!((s.lock_contention, s.group_lock_contention), (15, 16));
        assert_eq!((s.merge_hits, s.merge_misses, s.merge_evictions), (0, 0, 0));
        // The JSON object `BuildStats::to_json` embeds, key for key, and
        // then the retired fields.
        let json = s.to_json();
        assert!(json.starts_with(r#"{"hits":1,"misses":2,"stores":3,"evictions":4,"disk_hits":5,"#));
        assert!(json.ends_with(
            r#","group_lock_contention":16,"merge_hits":0,"merge_misses":0,"merge_evictions":0}"#
        ));
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(keys[..order.len()], order);
        assert_eq!(keys[order.len()..], ["merge_hits", "merge_misses", "merge_evictions"]);
        let doubled = CacheStats::from_array(ramp.map(|v| 2 * v));
        assert_eq!(doubled.since(&s), s);
        assert!((CacheStats { hits: 1, misses: 1, ..s }.hit_rate() - 0.5).abs() < 1e-9);
        assert!(
            (CacheStats { group_hits: 3, group_misses: 1, ..s }.group_hit_rate() - 0.75) < 1e-9
        );
        assert!(CacheStats::default().hit_rate().abs() < 1e-9);
    }

    #[test]
    fn a_file_of_a_retired_lane_is_ignored() {
        // Per-key files may outlive their layout in a cache directory:
        // the dictionary lane's (magic `CALD`, `<key>.cald`), the
        // merge-plan lane's (`CALM`, `<key>.calm`) and the two live
        // lanes' from before their logs (`<key>.calc`, `<key>.calg`). No
        // lane reads one — a directory of them is a cold start — and
        // neither opening a store nor the drain flush touches it.
        let dir = fresh_dir("retired");
        std::fs::create_dir_all(&dir).unwrap();
        let retired = |magic: &[u8; 4]| {
            let mut frame = to_frame(FIXTURE_KEY, &sample_group());
            frame[..4].copy_from_slice(magic);
            frame
        };
        let files = [
            ("cald", retired(b"CALD")),
            ("calm", retired(b"CALM")),
            ("calc", to_frame(FIXTURE_KEY, &sample_entry())),
            ("calg", to_frame(FIXTURE_KEY, &sample_group())),
        ];
        let path = |ext: &str| dir.join(format!("{FIXTURE_KEY}.{ext}"));
        for (ext, frame) in &files {
            std::fs::write(path(ext), frame).unwrap();
        }

        let store = disk_store(&dir);
        assert!(store.methods().get(FIXTURE_KEY).unwrap().is_none());
        assert!(store.groups().get(FIXTURE_KEY).unwrap().is_none());
        let s = store.stats();
        assert_eq!((s.misses, s.group_misses), (1, 1));
        assert_eq!(activity(&store), 2, "a leftover file counted as more than misses");
        assert_eq!(store.flush_to_disk(), 0);
        drop(store);
        for (ext, frame) in &files {
            assert_eq!(
                &std::fs::read(path(ext)).unwrap(),
                frame,
                "{ext}: the leftover was touched"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let store = ArtifactStore::new(CacheConfig { max_entries: 2, ..CacheConfig::default() });
        for i in 0..4 {
            store.insert(key(i), Sample::make(i as u32));
        }
        assert_eq!(store.methods().len(), 2);
        assert_eq!(store.stats().evictions, 2);
        // Nothing was read, so no entry earned a second chance: the
        // oldest are gone and the newest are kept.
        assert!(store.get(key(0)).unwrap().is_none());
        assert!(store.get(key(3)).unwrap().is_some());
    }

    #[test]
    fn evictions_reconcile_with_inserted_minus_resident() {
        let store = ArtifactStore::new(CacheConfig { max_entries: 16, ..CacheConfig::default() });
        const KEYS: u64 = 64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..KEYS {
                        store.methods().insert(key(k), Sample::make(k as u32));
                        store.get(key(k / 2)).unwrap();
                    }
                });
            }
        });
        // Under pressure a racing thread may legitimately re-insert an
        // evicted key, so `stores` can exceed the unique-key count —
        // but every store is matched by residence or an eviction.
        let stats = store.stats();
        assert!(stats.stores >= KEYS);
        assert_eq!(
            stats.stores - stats.evictions,
            store.methods().len() as u64,
            "inserted minus evicted must equal resident"
        );
        assert!(store.methods().len() <= 16);
    }

    /// What a lane's log owes its readers after a killed writer: a log
    /// cut inside a frame, or followed by bytes that are no frame of
    /// this lane, is cut back to its last whole frame when a store opens
    /// it — every earlier frame still a hit, the torn key a clean miss
    /// that the next append persists again. A second store over a log
    /// another holds runs memory-only and leaves its bytes alone.
    fn log_contract<V: Sample>() {
        let ext = V::EXT;
        let dir = fresh_dir(&format!("log-{ext}"));
        let log = log_path::<V>(&dir);
        let store = disk_store(&dir);
        for k in 0..3 {
            V::lane(&store).insert(key(k), V::make(k as u32));
        }
        drop(store);
        let whole = std::fs::read(&log).unwrap();
        let ends: Vec<usize> = frames(&whole).into_iter().map(|(_, range)| range.end).collect();

        let cases = [
            (whole[..ends[2] - 5].to_vec(), 2u64, "a payload cut short"),
            (whole[..ends[1] + 20].to_vec(), 2, "a header cut short"),
            ([&whole[..], b"bytes with no magic"].concat(), 3, "a tail of no frame"),
        ];
        for (bytes, kept, what) in cases {
            std::fs::write(&log, &bytes).unwrap();
            let store = disk_store(&dir);
            assert_eq!(
                std::fs::metadata(&log).unwrap().len(),
                ends[kept as usize - 1] as u64,
                "{what}"
            );
            for k in 0..3 {
                let hit = V::lane(&store).get(key(k)).expect("a cut log reads clean").is_some();
                assert_eq!(hit, k < kept, "{ext}, {what}: key {k}");
            }
            for k in kept..3 {
                V::lane(&store).insert(key(k), V::make(k as u32));
            }
            drop(store);
            // The torn key's frame went where the cut left off.
            assert_eq!(std::fs::read(&log).unwrap(), whole, "{ext}, {what}");
            let reopened = disk_store(&dir);
            for k in 0..3 {
                assert!(V::lane(&reopened).get(key(k)).unwrap().is_some(), "{ext}, {what}: {k}");
            }
        }

        // A store over a log another store holds runs memory-only: it
        // neither reads nor cuts nor appends to it, and its flush is
        // a no-op.
        let holder = disk_store(&dir);
        let torn = [&whole[..], &whole[..50]].concat();
        std::fs::write(&log, &torn).unwrap();
        let second = disk_store(&dir);
        assert!(V::lane(&second).get(key(0)).unwrap().is_none(), "{ext}: read a held log");
        V::lane(&second).insert(key(5), V::make(5));
        assert_eq!(second.flush_to_disk(), 0);
        assert_eq!(
            stats::<V, 4>(&second, ["misses", "disk_hits", "stores", "disk_stores"]),
            [1, 0, 1, 0]
        );
        drop(second);
        assert_eq!(std::fs::read(&log).unwrap(), torn, "{ext}: a held log was written");
        drop(holder);
        let _ = std::fs::remove_dir_all(&dir);
    }

    per_lane! {
        method_lane_cuts_a_torn_log = log_contract::<CacheEntry>;
        group_lane_cuts_a_torn_log = log_contract::<GroupPlanEntry>;
    }
}
