//! The content-addressed artifact store: four [`Lane`]s — method
//! artifacts, LTBO group plans, merge plans, shared-dictionary bodies —
//! over one configuration, one optional disk directory and one optional
//! peer tier, plus the flat [`CacheStats`] snapshot of their counters.
//! What a lane does, and how a peer failure degrades to a counted miss,
//! is [`Lane`]'s story; this module only wires four of them together.

use std::path::PathBuf;
use std::sync::Arc;

use crate::disk;
use crate::entry::{CacheEntry, DictEntry, GroupPlanEntry, MergePlanEntry};
use crate::error::CacheError;
use crate::hash::CacheKey;
use crate::lane::{Counter, Lane};
use crate::peer::{PeerLane, PeerSource};

/// Configuration of one [`ArtifactStore`].
#[derive(Clone, Debug)]
pub struct CacheConfig {
    /// Maximum in-memory entries per lane before eviction kicks in.
    pub max_entries: usize,
    /// Directory for the persistent layer; `None` keeps the cache
    /// purely in-memory. Entries are written best-effort (an unwritable
    /// directory never fails a build) but *read* strictly: a corrupt
    /// entry surfaces as a [`CacheError`], never as wrong code.
    pub disk_dir: Option<PathBuf>,
    /// In-memory byte budget of the method-artifact lane (approximate
    /// entry sizes, see [`CacheEntry::approx_bytes`]); `usize::MAX`
    /// leaves the lane bounded by `max_entries` alone.
    pub method_budget_bytes: usize,
    /// In-memory byte budget of the group-plan lane, enforced
    /// independently of the method lane.
    pub group_budget_bytes: usize,
    /// In-memory byte budget of the merge-plan lane, enforced
    /// independently of the other lanes.
    pub merge_budget_bytes: usize,
    /// In-memory byte budget of the shared-dictionary lane, enforced
    /// independently of the other lanes.
    pub dict_budget_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> CacheConfig {
        CacheConfig {
            max_entries: 1 << 20,
            disk_dir: None,
            method_budget_bytes: usize::MAX,
            group_budget_bytes: usize::MAX,
            merge_budget_bytes: usize::MAX,
            dict_budget_bytes: usize::MAX,
        }
    }
}

/// Which lane a [`CacheStats`] field reads.
#[derive(Clone, Copy)]
enum LaneId {
    Method,
    Group,
    Merge,
    Dict,
}

/// The counter table: the one place a [`CacheStats`] field is named.
/// Each row is `field = lane.counter`; the struct, its name list, the
/// array conversions and [`ArtifactStore::stats`] are all generated
/// from the rows, and every serialization of the stats (`since`, the
/// build-stats JSON `cache` object, the `ServerStats` wire body)
/// iterates them. Row order is JSON key order and wire order — append,
/// never reorder.
macro_rules! cache_stats {
    ($($(#[$doc:meta])* $field:ident = $lane:ident . $counter:ident,)*) => {
        /// A monotonic snapshot of store activity. Per-build numbers
        /// are the difference of two snapshots (see
        /// [`CacheStats::since`]).
        #[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
        pub struct CacheStats {
            $($(#[$doc])* pub $field: u64,)*
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
                CacheStats { $($field,)* }
            }
        }
    };
}

cache_stats! {
    /// Lookups that found an entry (in memory, on disk, or on a peer).
    hits = Method.Hits,
    /// Lookups that found nothing on any tier.
    misses = Method.Misses,
    /// Entries inserted.
    stores = Method.Stores,
    /// Entries evicted by the capacity or byte budgets.
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
    /// Lookups satisfied by a fleet peer's warm lane.
    peer_hits = Method.PeerHits,
    /// Peer consultations where every reachable peer answered
    /// not-found.
    peer_misses = Method.PeerMisses,
    /// Peer consultations that failed (connect, hangup, garbage,
    /// truncation, checksum, remote error) — each degraded to a local
    /// compile.
    peer_errors = Method.PeerErrors,
    /// Cumulative recompute cost (µs) of evicted entries: what the
    /// eviction policy gave up. A policy that keeps the right entries
    /// grows this slowly relative to `evictions`.
    evict_cost_us = Method.EvictCostUs,
    /// Group-plan lookups that found a plan (LTBO detection skipped).
    group_hits = Group.Hits,
    /// Group-plan lookups that found nothing (group re-detected).
    group_misses = Group.Misses,
    /// Group plans inserted.
    group_stores = Group.Stores,
    /// Group plans evicted by the capacity or byte budgets.
    group_evictions = Group.Evictions,
    /// Group-plan lookups satisfied from the disk layer.
    group_disk_hits = Group.DiskHits,
    /// Group plans persisted to the disk layer.
    group_disk_stores = Group.DiskStores,
    /// Group-plan disk hits promoted into the in-memory map (see
    /// [`promotions`](Self::promotions)).
    group_promotions = Group.Promotions,
    /// Group-plan lookups satisfied by a fleet peer.
    group_peer_hits = Group.PeerHits,
    /// Group-plan peer consultations that answered not-found.
    group_peer_misses = Group.PeerMisses,
    /// Group-plan peer consultations that failed.
    group_peer_errors = Group.PeerErrors,
    /// Cumulative detection cost (µs) of evicted group plans.
    group_evict_cost_us = Group.EvictCostUs,
    /// Merge-plan lookups that found a plan (merge analysis skipped).
    merge_hits = Merge.Hits,
    /// Merge-plan lookups that found nothing (bucket re-analyzed).
    merge_misses = Merge.Misses,
    /// Merge plans inserted.
    merge_stores = Merge.Stores,
    /// Merge plans evicted by the capacity or byte budgets.
    merge_evictions = Merge.Evictions,
    /// Merge-plan lookups satisfied from the disk layer.
    merge_disk_hits = Merge.DiskHits,
    /// Merge plans persisted to the disk layer.
    merge_disk_stores = Merge.DiskStores,
    /// Merge-plan disk hits promoted into the in-memory map (see
    /// [`promotions`](Self::promotions)).
    merge_promotions = Merge.Promotions,
    /// Cumulative analysis cost (µs) of evicted merge plans.
    merge_evict_cost_us = Merge.EvictCostUs,
    /// Dictionary lookups that found a shared body (candidate costed
    /// with call overhead only).
    dict_hits = Dict.Hits,
    /// Dictionary lookups that found nothing on any tier.
    dict_misses = Dict.Misses,
    /// Dictionary bodies published (inserted).
    dict_stores = Dict.Stores,
    /// Dictionary bodies evicted by the capacity or byte budgets.
    dict_evictions = Dict.Evictions,
    /// Dictionary lookups satisfied from the disk layer.
    dict_disk_hits = Dict.DiskHits,
    /// Dictionary bodies persisted to the disk layer.
    dict_disk_stores = Dict.DiskStores,
    /// Dictionary disk hits promoted into the in-memory map (see
    /// [`promotions`](Self::promotions)).
    dict_promotions = Dict.Promotions,
    /// Dictionary lookups satisfied by a fleet peer.
    dict_peer_hits = Dict.PeerHits,
    /// Dictionary peer consultations that answered not-found.
    dict_peer_misses = Dict.PeerMisses,
    /// Dictionary peer consultations that failed.
    dict_peer_errors = Dict.PeerErrors,
    /// Cumulative publish cost (µs) of evicted dictionary bodies.
    dict_evict_cost_us = Dict.EvictCostUs,
    /// Method-lane lock acquisitions that found the lock held by
    /// another thread (a contended shared-store access). Zero in
    /// single-build use; under a multi-tenant daemon this measures how
    /// hard concurrent requests fight over the store.
    lock_contention = Method.LockContention,
    /// Group-plan-lane lock acquisitions that found the lock held.
    group_lock_contention = Group.LockContention,
    /// Merge-plan-lane lock acquisitions that found the lock held.
    merge_lock_contention = Merge.LockContention,
    /// Dictionary-lane lock acquisitions that found the lock held.
    dict_lock_contention = Dict.LockContention,
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

    /// The counters as a JSON object, keys in table order (hand
    /// rolled — every value is numeric, so no escaping is needed).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write;
        let mut json = String::with_capacity(32 * Self::LEN);
        for (i, (name, value)) in Self::NAMES.iter().zip(self.to_array()).enumerate() {
            let open = if i == 0 { '{' } else { ',' };
            write!(json, r#"{open}"{name}":{value}"#).expect("writing to a String cannot fail");
        }
        json.push('}');
        json
    }

    /// Method-lane hit fraction in `[0, 1]` (counting disk and peer
    /// hits as hits); `0` when no lookups happened.
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
/// Four independent [`Lane`]s share the store — per-method compile
/// artifacts ([`methods`](Self::methods)), per-group LTBO plans
/// ([`groups`](Self::groups)), per-bucket merge plans
/// ([`merges`](Self::merges)) and shared-dictionary bodies
/// ([`dicts`](Self::dicts)) — each with its own lock, counters, eviction
/// policy and byte budget, so per-build stats stay attributable and
/// pressure in one lane never evicts another. The method, group and
/// dictionary lanes have a peer tier; the merge lane is local-only (see
/// [`PeerLane`]).
pub struct ArtifactStore {
    methods: Lane<CacheEntry>,
    groups: Lane<GroupPlanEntry>,
    merges: Lane<MergePlanEntry>,
    dicts: Lane<DictEntry>,
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
            methods: Lane::new(max, config.method_budget_bytes, dir.clone()),
            groups: Lane::new(max, config.group_budget_bytes, dir.clone()),
            merges: Lane::new(max, config.merge_budget_bytes, dir.clone()),
            dicts: Lane::new(max, config.dict_budget_bytes, dir.clone()),
            config,
        }
    }

    /// Installs the peer tier (consulted by every lane that has a wire
    /// code). One-shot: the first source wins (a daemon wires this once
    /// at startup, before serving), and lookups read it lock-free
    /// afterwards.
    pub fn set_peer_source(&self, source: Arc<dyn PeerSource>) {
        self.methods.set_peer_source(Arc::clone(&source));
        self.groups.set_peer_source(Arc::clone(&source));
        self.merges.set_peer_source(Arc::clone(&source));
        self.dicts.set_peer_source(source);
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

    /// The per-bucket merge-plan lane (local-only: no peer tier).
    #[must_use]
    pub fn merges(&self) -> &Lane<MergePlanEntry> {
        &self.merges
    }

    /// The shared-dictionary lane.
    #[must_use]
    pub fn dicts(&self) -> &Lane<DictEntry> {
        &self.dicts
    }

    /// [`Lane::get`] on the method lane.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on a corrupt local disk entry.
    pub fn get(&self, key: CacheKey) -> Result<Option<Arc<CacheEntry>>, CacheError> {
        self.methods.get(key)
    }

    /// [`Lane::get_many`] on the method lane.
    ///
    /// # Errors
    ///
    /// Returns [`CacheError`] on a corrupt local disk entry.
    pub fn get_many(&self, keys: &[CacheKey]) -> Result<Vec<Option<Arc<CacheEntry>>>, CacheError> {
        self.methods.get_many(keys)
    }

    /// [`Lane::insert`] on the method lane.
    pub fn insert(&self, key: CacheKey, entry: CacheEntry) -> Arc<CacheEntry> {
        self.methods.insert(key, entry)
    }

    /// [`Lane::serve_peer`] on the lane a sibling's `PeerGet` names.
    ///
    /// # Errors
    ///
    /// Returns a description when the local entry is corrupt or does
    /// not encode.
    pub fn serve_peer(
        &self,
        lane: PeerLane,
        key: CacheKey,
    ) -> Result<Option<(Vec<u8>, u64)>, String> {
        match lane {
            PeerLane::Method => self.methods.serve_peer(key),
            PeerLane::Group => self.groups.serve_peer(key),
            PeerLane::Dict => self.dicts.serve_peer(key),
        }
    }

    /// Persists every in-memory entry (all lanes) that the disk layer
    /// does not already hold, returning how many files were written. A
    /// draining daemon calls this so peer-fetched and promoted entries
    /// — which skip the insert-time disk write — survive the restart as
    /// local disk hits instead of going back over the network.
    ///
    /// Best-effort like all disk writes: an unwritable directory
    /// flushes nothing and fails nothing. No-op without a `disk_dir`.
    pub fn flush_to_disk(&self) -> usize {
        self.methods.flush_to_disk()
            + self.groups.flush_to_disk()
            + self.merges.flush_to_disk()
            + self.dicts.flush_to_disk()
    }

    /// A snapshot of the cumulative counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats::from_array(CacheStats::SOURCES.map(|(lane, counter)| match lane {
            LaneId::Method => self.methods.count(counter),
            LaneId::Group => self.groups.count(counter),
            LaneId::Merge => self.merges.count(counter),
            LaneId::Dict => self.dicts.count(counter),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::tests::{
        sample_dict, sample_entry, sample_group, sample_merge, FIXTURE_KEY, STALE_FIXTURES,
    };
    use crate::disk::{from_frame, to_frame, LaneEntry, FORMAT_VERSION};
    use crate::peer::{PeerError, PeerFetch};

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    /// What the generic suites need to know per lane beyond
    /// [`LaneEntry`]: distinguishable same-size entries, the lane's
    /// accessor, its `CacheStats` field prefix and its budget knob.
    trait Sample: LaneEntry {
        const PREFIX: &'static str;
        fn make(n: u32) -> Self;
        fn lane(store: &ArtifactStore) -> &Lane<Self>;
        fn budget(config: &mut CacheConfig) -> &mut usize;
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
        fn budget(config: &mut CacheConfig) -> &mut usize {
            &mut config.method_budget_bytes
        }
    }

    impl Sample for GroupPlanEntry {
        const PREFIX: &'static str = "group_";
        fn make(n: u32) -> Self {
            GroupPlanEntry { text_len: 20 + n as usize, ..sample_group() }
        }
        fn lane(store: &ArtifactStore) -> &Lane<Self> {
            store.groups()
        }
        fn budget(config: &mut CacheConfig) -> &mut usize {
            &mut config.group_budget_bytes
        }
    }

    impl Sample for MergePlanEntry {
        const PREFIX: &'static str = "merge_";
        fn make(n: u32) -> Self {
            MergePlanEntry { member_count: 5 + n, ..sample_merge() }
        }
        fn lane(store: &ArtifactStore) -> &Lane<Self> {
            store.merges()
        }
        fn budget(config: &mut CacheConfig) -> &mut usize {
            &mut config.merge_budget_bytes
        }
    }

    impl Sample for DictEntry {
        const PREFIX: &'static str = "dict_";
        fn make(n: u32) -> Self {
            DictEntry { regs: vec![0, 1, 2, 3 + (n % 29) as u8], ..sample_dict() }
        }
        fn lane(store: &ArtifactStore) -> &Lane<Self> {
            store.dicts()
        }
        fn budget(config: &mut CacheConfig) -> &mut usize {
            &mut config.dict_budget_bytes
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

    fn frame<V: Sample>(key: CacheKey, entry: &V) -> Vec<u8> {
        to_frame(key, entry).expect("samples encode")
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
        assert_eq!(frame(key(1), &*hit), frame(key(1), &V::make(1)));
        assert!(Arc::ptr_eq(&lane.insert(key(1), V::make(2)), &hit), "{ext}: keep-first");
        assert_eq!(stats::<V, 3>(&store, ["hits", "misses", "stores"]), [1, 1, 1]);
        assert_eq!(activity(&store), 3, "{ext}: a sibling lane's counters moved");

        // The byte budget bounds this lane and no other.
        let mut config = CacheConfig::default();
        let one = V::make(0).approx_bytes();
        *V::budget(&mut config) = one + one / 2;
        let tight = ArtifactStore::new(config);
        for n in 0..4 {
            tight.methods().insert(key(n), Sample::make(n as u32));
            tight.groups().insert(key(n), Sample::make(n as u32));
            tight.merges().insert(key(n), Sample::make(n as u32));
            tight.dicts().insert(key(n), Sample::make(n as u32));
        }
        assert_eq!(V::lane(&tight).len(), 1, "{ext}: byte budget must evict");
        assert_eq!(stats::<V, 1>(&tight, ["evictions"]), [3]);
        let s = tight.stats();
        let evicted = s.evictions + s.group_evictions + s.merge_evictions + s.dict_evictions;
        assert_eq!(evicted, 3, "{ext}: pressure leaked into a sibling lane");

        // Entries persist across store instances, and a disk hit is a
        // promotion — never a store (the PR 6 / PR 10 bug class).
        let dir = fresh_dir(&format!("contract-{ext}"));
        let first = disk_store(&dir);
        V::lane(&first).insert(key(7), V::make(7));
        assert_eq!(stats::<V, 2>(&first, ["stores", "disk_stores"]), [1, 1]);
        drop(first);
        let second = disk_store(&dir);
        let back = V::lane(&second).get(key(7)).unwrap().expect("reloaded from disk");
        assert_eq!(frame(key(7), &*back), frame(key(7), &V::make(7)));
        assert!(V::lane(&second).get(key(7)).unwrap().is_some(), "{ext}: memory hit");
        let names = ["hits", "disk_hits", "promotions", "stores", "disk_stores"];
        assert_eq!(stats::<V, 5>(&second, names), [2, 1, 1, 0, 0], "{ext}: promotion misread");
        // The same key in the sibling lanes is a different file.
        let found = [
            second.methods().get(key(7)).unwrap().is_some(),
            second.groups().get(key(7)).unwrap().is_some(),
            second.merges().get(key(7)).unwrap().is_some(),
            second.dicts().get(key(7)).unwrap().is_some(),
        ];
        assert_eq!(found.iter().filter(|&&f| f).count(), 1, "{ext}: lanes alias on disk");
        drop(second);

        // An overwrite replaces the resident entry in memory and on
        // disk, and counts the miss the lookup before it turned out to
        // be.
        let store = disk_store(&dir);
        let lane = V::lane(&store);
        assert!(lane.get(key(7)).unwrap().is_some());
        let replaced = lane.replace_with_cost(key(7), V::make(9), 3);
        assert!(Arc::ptr_eq(&lane.get(key(7)).unwrap().expect("replaced entry"), &replaced));
        assert_eq!(lane.len(), 1);
        let names = ["hits", "misses", "stores", "disk_stores"];
        assert_eq!(stats::<V, 4>(&store, names), [2, 1, 1, 1], "{ext}: overwrite miscounted");
        drop(store);
        let reopened = disk_store(&dir);
        let back = V::lane(&reopened).get(key(7)).unwrap().expect("the overwrite persisted");
        assert_eq!(frame(key(7), &*back), frame(key(7), &V::make(9)));
        V::lane(&reopened).replace_with_cost(key(7), V::make(7), 0);
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
        let good = frame(key(7), &V::make(7));
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

    /// A scripted peer tier.
    struct FnPeer<F>(F);

    impl<F: Fn(PeerLane, CacheKey) -> PeerFetch + Send + Sync> PeerSource for FnPeer<F> {
        fn fetch(&self, lane: PeerLane, key: CacheKey) -> PeerFetch {
            (self.0)(lane, key)
        }
    }

    fn peered(
        store: ArtifactStore,
        peer: impl Fn(PeerLane, CacheKey) -> PeerFetch + Send + Sync + 'static,
    ) -> ArtifactStore {
        store.set_peer_source(Arc::new(FnPeer(peer)));
        store
    }

    /// The contract of the peer tier, for every lane that has one.
    fn peer_contract<V: Sample>() {
        let ext = V::EXT;
        let wire = V::PEER_LANE.expect("a peer-capable lane");

        // A peer hit fills memory and counts once; it is not a store
        // and skips the insert-time disk write.
        let dir = fresh_dir(&format!("peer-{ext}"));
        let store = peered(disk_store(&dir), move |lane, key| {
            assert_eq!(lane, wire, "asked under another lane's wire code");
            Ok(Some((frame(key, &V::make(3)), 777)))
        });
        let lane = V::lane(&store);
        let got = lane.get(key(3)).unwrap().expect("peer tier serves the miss");
        assert_eq!(frame(key(3), &*got), frame(key(3), &V::make(3)));
        let names = ["peer_hits", "peer_misses", "hits", "misses", "stores", "disk_stores"];
        assert_eq!(stats::<V, 6>(&store, names), [1, 0, 1, 0, 0, 0]);
        assert!(lane.get(key(3)).unwrap().is_some(), "{ext}: now a plain memory hit");
        assert_eq!(stats::<V, 2>(&store, ["peer_hits", "hits"]), [1, 2]);
        // A batch resolves its local misses through the peer in one go.
        assert!(lane.get_many(&[key(3), key(4)]).unwrap().iter().all(Option::is_some));
        assert_eq!(stats::<V, 2>(&store, ["peer_hits", "hits"]), [2, 4]);

        // Serving a sibling counts nothing, hands out the frame at its
        // adopted cost, and never asks this shard's own peers.
        let before = store.stats();
        let (served, cost_us) = lane.serve_peer(key(3)).unwrap().expect("resident entry served");
        assert_eq!((served.as_slice(), cost_us), (frame(key(3), &V::make(3)).as_slice(), 777));
        assert_eq!(store.serve_peer(wire, key(3)).unwrap(), Some((served, 777)));
        assert!(lane.serve_peer(key(99)).unwrap().is_none(), "{ext}: serving ricocheted");
        assert_eq!(before, store.stats(), "{ext}: serving distorted local attribution");

        // The drain flush persists exactly the two peer fills.
        assert_eq!(store.flush_to_disk(), 2);
        let _ = std::fs::remove_dir_all(&dir);

        // Not-found, a transport failure and a frame that fails the
        // gauntlet (tampered, or framed for another key) all degrade to
        // a counted local miss — never an error, never an entry.
        let hangup = PeerError::Hangup { peer: "test".into(), detail: "scripted".into() };
        let mut tampered = frame(key(1), &V::make(1));
        flip_last_byte(&mut tampered);
        let misfiled = frame(key(2), &V::make(1));
        for (fetched, counted) in [
            (Ok(None), "peer_misses"),
            (Err(hangup), "peer_errors"),
            (Ok(Some((tampered, 5))), "peer_errors"),
            (Ok(Some((misfiled, 5))), "peer_errors"),
        ] {
            let store = peered(ArtifactStore::default(), move |_, _| fetched.clone());
            assert!(V::lane(&store).get(key(1)).unwrap().is_none(), "{ext}: {counted}");
            assert_eq!(stats::<V, 3>(&store, [counted, "misses", "hits"]), [1, 1, 0]);
            assert_eq!(activity(&store), 2, "{ext}: {counted} counted elsewhere too");
        }
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
        merge_lane_keeps_the_lane_contract = lane_contract::<MergePlanEntry>;
        dict_lane_keeps_the_lane_contract = lane_contract::<DictEntry>;
        method_lane_keeps_the_peer_contract = peer_contract::<CacheEntry>;
        group_lane_keeps_the_peer_contract = peer_contract::<GroupPlanEntry>;
        dict_lane_keeps_the_peer_contract = peer_contract::<DictEntry>;
    }

    #[test]
    fn merge_lane_never_consults_the_peer_source() {
        const { assert!(MergePlanEntry::PEER_LANE.is_none()) };
        let store = peered(ArtifactStore::default(), |lane, _| {
            panic!("the merge lane asked the peer tier (as {lane:?})")
        });
        assert!(store.merges().get(key(1)).unwrap().is_none());
        assert!(store.merges().get_many(&[key(1), key(2)]).unwrap().iter().all(Option::is_none));
        assert_eq!(store.stats().merge_misses, 3);
        assert_eq!(activity(&store), 3);
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
        assert_eq!(rewritten, frame(FIXTURE_KEY, &V::make(0)));
        drop(store);
        let fresh = disk_store(&dir);
        assert!(V::lane(&fresh).get(FIXTURE_KEY).unwrap().is_some(), "{ext}: reloads");
        assert_eq!(stats::<V, 1>(&fresh, ["disk_hits"]), [1]);
        let _ = std::fs::remove_dir_all(&dir);

        // The same bytes from a peer are a counted peer error.
        if V::PEER_LANE.is_some() {
            let store = peered(ArtifactStore::default(), move |_, _| Ok(Some((stale.to_vec(), 5))));
            assert!(V::lane(&store).get(FIXTURE_KEY).unwrap().is_none());
            assert_eq!(stats::<V, 2>(&store, ["peer_errors", "misses"]), [1, 1]);
        }
    }

    per_lane! {
        method_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<CacheEntry>;
        group_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<GroupPlanEntry>;
        merge_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<MergePlanEntry>;
        dict_lane_reads_a_stale_version_as_a_miss = stale_version_contract::<DictEntry>;
    }

    #[test]
    fn an_entry_that_cannot_be_framed_is_served_from_memory_only() {
        // A branch offset must be a multiple of four: the body is
        // refused by the disk layer with a typed error, and the lane —
        // whose disk write is best-effort — keeps it resident.
        let mut body = sample_dict();
        body.insns.push(calibro_isa::Insn::B { offset: 2 });
        let dir = fresh_dir("unencodable");
        match crate::disk::store(&dir, key(1), &body) {
            Err(CacheError::Corrupt { detail, .. }) => {
                assert!(detail.starts_with("unencodable instruction: "), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let store = disk_store(&dir);
        let inserted = store.dicts().insert(key(1), body);
        assert_eq!(stats::<DictEntry, 2>(&store, ["stores", "disk_stores"]), [1, 0]);
        let hit = store.dicts().get(key(1)).unwrap().expect("served from memory");
        assert!(Arc::ptr_eq(&hit, &inserted));
        assert!(store.serve_peer(PeerLane::Dict, key(1)).is_err(), "peers get the refusal");
        assert_eq!(store.flush_to_disk(), 0);
        assert!(!dir.exists() || std::fs::read_dir(&dir).unwrap().next().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn counter_table_keeps_the_wire_and_json_order() {
        // Recorded from the 45-argument `format!` / wire destructuring
        // the table replaced. Append to both; never reorder.
        #[rustfmt::skip]
        let order = [
            "hits", "misses", "stores", "evictions", "disk_hits", "disk_stores", "promotions",
            "peer_hits", "peer_misses", "peer_errors", "evict_cost_us",
            "group_hits", "group_misses", "group_stores", "group_evictions", "group_disk_hits",
            "group_disk_stores", "group_promotions", "group_peer_hits", "group_peer_misses",
            "group_peer_errors", "group_evict_cost_us",
            "merge_hits", "merge_misses", "merge_stores", "merge_evictions", "merge_disk_hits",
            "merge_disk_stores", "merge_promotions", "merge_evict_cost_us",
            "dict_hits", "dict_misses", "dict_stores", "dict_evictions", "dict_disk_hits",
            "dict_disk_stores", "dict_promotions", "dict_peer_hits", "dict_peer_misses",
            "dict_peer_errors", "dict_evict_cost_us",
            "lock_contention", "group_lock_contention", "merge_lock_contention",
            "dict_lock_contention",
        ];
        assert_eq!(CacheStats::NAMES, order);
        let ramp: [u64; CacheStats::LEN] = std::array::from_fn(|i| i as u64 + 1);
        let s = CacheStats::from_array(ramp);
        assert_eq!(s.to_array(), ramp);
        assert_eq!((s.hits, s.group_hits, s.merge_hits, s.dict_hits), (1, 12, 23, 31));
        assert_eq!(
            (s.merge_evict_cost_us, s.lock_contention, s.dict_lock_contention),
            (30, 42, 45)
        );
        // The JSON object `BuildStats::to_json` embeds, key for key.
        let json = s.to_json();
        assert!(json.starts_with(r#"{"hits":1,"misses":2,"stores":3,"evictions":4,"disk_hits":5,"#));
        assert!(json.ends_with(r#","merge_lock_contention":44,"dict_lock_contention":45}"#));
        let keys: Vec<&str> = json.split('"').skip(1).step_by(2).collect();
        assert_eq!(keys, order);
        let doubled = CacheStats::from_array(ramp.map(|v| 2 * v));
        assert_eq!(doubled.since(&s), s);
        assert!((CacheStats { hits: 1, misses: 1, ..s }.hit_rate() - 0.5).abs() < 1e-9);
        assert!(
            (CacheStats { group_hits: 3, group_misses: 1, ..s }.group_hit_rate() - 0.75) < 1e-9
        );
        assert!(CacheStats::default().hit_rate().abs() < 1e-9);
    }

    #[test]
    fn fifo_eviction_respects_capacity() {
        let store = ArtifactStore::new(CacheConfig { max_entries: 2, ..CacheConfig::default() });
        for i in 0..4 {
            store.insert(key(i), Sample::make(i as u32));
        }
        assert_eq!(store.methods().len(), 2);
        assert_eq!(store.stats().evictions, 2);
        // Oldest entries gone, newest retained: with equal (zero)
        // costs the 2Q policy degenerates to exactly the seed's FIFO.
        assert!(store.get(key(0)).unwrap().is_none());
        assert!(store.get(key(3)).unwrap().is_some());
    }

    #[test]
    fn costly_entry_outlives_cheap_same_size_neighbors() {
        let store = ArtifactStore::new(CacheConfig { max_entries: 2, ..CacheConfig::default() });
        store.methods().insert_with_cost(key(0), Sample::make(0), 50_000);
        for n in 1..4 {
            store.methods().insert_with_cost(key(n), Sample::make(n as u32), 10);
        }
        // Same entry shape (same size) throughout: the cheap entries
        // are sacrificed, the expensive one keeps its seat.
        assert!(store.get(key(0)).unwrap().is_some(), "high-cost entry evicted");
        let s = store.stats();
        assert_eq!(s.evictions, 2);
        assert_eq!(s.evict_cost_us, 20, "forfeited cost must sum the cheap victims");
    }

    #[test]
    fn evictions_reconcile_with_inserted_minus_resident() {
        let store = ArtifactStore::new(CacheConfig { max_entries: 16, ..CacheConfig::default() });
        const KEYS: u64 = 64;
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for k in 0..KEYS {
                        store.methods().insert_with_cost(key(k), Sample::make(k as u32), k);
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
