//! The content-addressed artifact store: two [`Lane`]s — method
//! artifacts and LTBO group plans — over one configuration and one
//! optional disk directory, plus the flat [`CacheStats`] snapshot of
//! their counters. What a lane does is [`Lane`]'s story; this module
//! only wires the two together.

use std::path::PathBuf;
use std::sync::Arc;

use calibro_dex::wire::{Reader, Wire, WireError, Writer};

use crate::disk;
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
    /// Directory for the persistent layer; `None` keeps the cache
    /// purely in-memory. Entries are written best-effort (an unwritable
    /// directory never fails a build) but *read* strictly: a corrupt
    /// entry surfaces as a [`CacheError`], never as wrong code.
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
    /// An empty store under `config`. Opening a disk-backed store
    /// sweeps stale tmp files left by crashed writers (satisfying the
    /// atomic-write contract: half-written files are never visible and
    /// never accumulate).
    #[must_use]
    pub fn new(config: CacheConfig) -> ArtifactStore {
        if let Some(dir) = &config.disk_dir {
            disk::sweep_stale_tmp(dir);
        }
        let (max, dir) = (config.max_entries, &config.disk_dir);
        ArtifactStore {
            methods: Lane::new(max, dir.clone()),
            groups: Lane::new(max, dir.clone()),
            config,
        }
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

    /// Persists every in-memory entry (all lanes) that the disk layer
    /// does not already hold, returning how many files were written. A
    /// draining daemon calls this so an entry whose best-effort
    /// insert-time write failed (a full disk, a directory that was not
    /// there yet) survives the restart as a disk hit instead of a
    /// recompile. A promoted entry was read from disk and is skipped.
    ///
    /// Best-effort like all disk writes: an unwritable directory
    /// flushes nothing and fails nothing. No-op without a `disk_dir`.
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
        // The same key in the sibling lanes is a different file.
        let found = [
            second.methods().get(key(7)).unwrap().is_some(),
            second.groups().get(key(7)).unwrap().is_some(),
        ];
        assert_eq!(found.iter().filter(|&&f| f).count(), 1, "{ext}: lanes alias on disk");
        drop(second);

        // An overwrite replaces the resident entry in memory and on
        // disk, and counts the miss the lookup before it turned out to
        // be.
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

        // A corrupt payload is a typed error, never a miss.
        let path = dir.join(format!("{}.{ext}", key(7).to_hex()));
        let mut bytes = std::fs::read(&path).unwrap();
        flip_last_byte(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let third = disk_store(&dir);
        match V::lane(&third).get(key(7)) {
            Err(CacheError::Corrupt { detail, .. }) => assert!(detail.contains("checksum")),
            other => panic!("{ext}: expected Corrupt, got {:?}", other.map(|o| o.is_some())),
        }
        assert_eq!(activity(&third), 0, "{ext}: a poisoned entry counted as hit or miss");
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
        // winner of each key may persist it.
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
        let files = std::fs::read_dir(&dir).unwrap().flatten();
        assert_eq!(files.filter(|f| f.path().extension().is_some_and(|x| x == ext)).count(), 16);
        let _ = std::fs::remove_dir_all(&dir);

        // The drain flush persists what the insert-time write skipped —
        // here because a file squats on the directory path.
        let dir = fresh_dir(&format!("flush-{ext}"));
        std::fs::write(&dir, b"not a directory").unwrap();
        let store = disk_store(&dir);
        V::lane(&store).insert(key(3), V::make(3));
        assert_eq!(stats::<V, 2>(&store, ["stores", "disk_stores"]), [1, 0], "{ext}: best-effort");
        std::fs::remove_file(&dir).unwrap();
        assert_eq!(store.flush_to_disk(), 1);
        assert_eq!(store.flush_to_disk(), 0, "{ext}: second flush finds everything persisted");
        assert_eq!(stats::<V, 1>(&store, ["disk_stores"]), [1]);
        drop(store);
        let revived = disk_store(&dir);
        assert!(V::lane(&revived).get(key(3)).unwrap().is_some());
        assert_eq!(stats::<V, 1>(&revived, ["disk_hits"]), [1]);
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
    /// committed stale-version files) costs one miss per entry — never a
    /// `CacheError` — and the recompute's insert replaces the file.
    fn stale_version_contract<V: Sample>() {
        let ext = V::EXT;
        let dir = fresh_dir(&format!("stale-{ext}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}.{ext}", FIXTURE_KEY.to_hex()));
        let (_, stale) = STALE_FIXTURES.iter().find(|(e, _)| *e == ext).expect("lane fixture");
        assert_ne!(stale[4..8], FORMAT_VERSION.to_le_bytes(), "{ext}: the kept frame is current");
        std::fs::write(&path, stale).unwrap();

        let store = disk_store(&dir);
        assert!(V::lane(&store).get(FIXTURE_KEY).expect("no CacheError").is_none());
        assert_eq!(stats::<V, 3>(&store, ["hits", "misses", "disk_hits"]), [0, 1, 0]);
        assert_eq!(activity(&store), 1, "{ext}: a stale frame is one miss and nothing else");
        assert!(!crate::disk::has::<V>(&dir, FIXTURE_KEY), "{ext}: the drain flush would skip it");

        V::lane(&store).insert(FIXTURE_KEY, V::make(0));
        assert!(crate::disk::has::<V>(&dir, FIXTURE_KEY));
        let rewritten = std::fs::read(&path).unwrap();
        assert_eq!(rewritten[4..8], FORMAT_VERSION.to_le_bytes(), "{ext}: file not replaced");
        assert_eq!(rewritten, to_frame(FIXTURE_KEY, &V::make(0)));
        drop(store);
        let fresh = disk_store(&dir);
        assert!(V::lane(&fresh).get(FIXTURE_KEY).unwrap().is_some(), "{ext}: reloads");
        assert_eq!(stats::<V, 1>(&fresh, ["disk_hits"]), [1]);
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
        // The dictionary lane's frames (magic `CALD`, extension `cald`)
        // and the merge-plan lane's (`CALM`, `calm`) may outlive them in
        // a cache directory: no lane reads one, and neither the tmp
        // sweep nor the drain flush touches it.
        for (ext, magic) in [("cald", b"CALD"), ("calm", b"CALM")] {
            let dir = fresh_dir(&format!("retired-{ext}"));
            std::fs::create_dir_all(&dir).unwrap();
            let path = dir.join(FIXTURE_KEY.to_hex()).with_extension(ext);
            let mut frame = to_frame(FIXTURE_KEY, &sample_group());
            frame[..4].copy_from_slice(magic);
            std::fs::write(&path, &frame).unwrap();

            let store = disk_store(&dir);
            assert!(store.methods().get(FIXTURE_KEY).unwrap().is_none());
            assert!(store.groups().get(FIXTURE_KEY).unwrap().is_none());
            let s = store.stats();
            assert_eq!((s.misses, s.group_misses), (1, 1), "{ext}");
            assert_eq!(activity(&store), 2, "{ext}: a leftover frame counted as more than misses");
            assert_eq!(store.flush_to_disk(), 0);
            drop(store);
            assert_eq!(
                std::fs::read(&path).unwrap(),
                frame,
                "{ext}: the leftover file was touched"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
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

    #[test]
    fn opening_a_store_sweeps_stale_tmp_files() {
        let dir = fresh_dir("store-sweep");
        std::fs::create_dir_all(&dir).unwrap();
        // A stale tmp from a killed writer, shaped like a valid entry
        // for key(2) so "never served" is meaningful.
        let stale = dir.join(format!("{}.tmp{}", key(2).to_hex(), 424242));
        std::fs::write(&stale, b"half-written garbage").unwrap();
        let store = disk_store(&dir);
        assert!(!stale.exists(), "stale tmp survived store open");
        // The tmp is never served: the key simply misses.
        assert!(store.get(key(2)).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
