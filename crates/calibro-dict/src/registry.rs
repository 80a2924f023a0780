//! The daemon-wide dictionary: published bodies, sealed epochs, and the
//! per-build routing session.
//!
//! ## Epoch model
//!
//! The shared `.text` island must be immutable from a tenant's point of
//! view: a sealed generation that links `bl` relocations into the
//! island at byte offsets must find those bytes forever. So the
//! dictionary never mutates an island; it *seals epochs*. Publishes
//! accumulate in a staging set; [`DictRegistry::seal_epoch`] folds the
//! staged bodies into a new, larger island layout (key-sorted, so the
//! layout is a pure function of the published set — independent of
//! publish order and thread count) and bumps the epoch number. Builds
//! snapshot exactly one epoch's layout for their whole duration, and
//! sealed generations pin the epoch they linked against
//! ([`DictRegistry::pin_epoch`]); an epoch's island can only be retired
//! ([`DictRegistry::retire_unpinned`]) once no generation pins it, so
//! no sealed generation ever dangles — that is the epoch fence. A layout
//! owns a copy of its island words, and the registry holds its own
//! reference to every published body, so cache-lane eviction (a
//! memory-budget concern) can never tear a word out of an island.
//!
//! ## Arbitration
//!
//! [`DictSession::route`] decides, per outlined candidate, between the
//! shared island and a private outline. A candidate routes to the
//! island only when the pinned layout holds a body *byte-identical* to
//! the candidate's: canonical-key equality alone is not enough, because
//! the island stores one concrete register assignment and a tenant
//! whose registers differ cannot branch into it. A body the dictionary
//! lane returns (from memory, disk or a peer) is adopted only when it
//! is its key's preimage; any other is overwritten with the candidate's
//! own, so a confused or differently-canonicalizing source cannot bind
//! a key to a foreign body. The three outcomes
//! feed [`DictStats`]: `hits` (island used, body cost zero), `publishes`
//! (body staged for future epochs, private outline this build),
//! `private_preferred` (canonical twin exists but concrete registers
//! differ — private outlining wins the arbitration). Inlining is
//! arbitrated upstream: a candidate only reaches `route` after LTBO's
//! benefit model decided outlining beats keeping the copies inline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use calibro_cache::{ArtifactStore, CacheKey, DictEntry};

use crate::canon::canonical_key;

/// `ret` (through `x30`), the word every island body is followed by.
const RET: u32 = 0xd65f_03c0;

/// Minimum body length (words) eligible for the shared island; shorter
/// bodies stay private — the cross-tenant call overhead cannot pay for
/// itself.
const MIN_ISLAND_WORDS: usize = 2;

/// Per-build dictionary arbitration outcomes (see the module docs).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DictStats {
    /// Candidates routed to the shared island (body cost zero).
    pub hits: u64,
    /// Bodies newly staged into the dictionary for future epochs.
    pub publishes: u64,
    /// Candidates whose canonical twin exists but whose concrete
    /// registers differ — private outlining preferred.
    pub private_preferred: u64,
}

impl DictStats {
    /// The activity between `earlier` and `self`.
    #[must_use]
    pub fn since(&self, earlier: &DictStats) -> DictStats {
        DictStats {
            hits: self.hits - earlier.hits,
            publishes: self.publishes - earlier.publishes,
            private_preferred: self.private_preferred - earlier.private_preferred,
        }
    }
}

/// One sealed epoch's immutable island layout: every published body at
/// seal time, in canonical-key order, each followed by a `ret`.
#[derive(Debug)]
pub struct EpochLayout {
    epoch: u64,
    /// Each key's body as its island word offset and length.
    bodies: HashMap<CacheKey, (u32, u32)>,
    /// The island image.
    words: Vec<u32>,
}

impl EpochLayout {
    fn empty() -> EpochLayout {
        EpochLayout { epoch: 0, bodies: HashMap::new(), words: Vec::new() }
    }

    fn build(epoch: u64, mut bodies: Vec<(CacheKey, Arc<DictEntry>)>) -> EpochLayout {
        bodies.sort_by_key(|&(key, _)| key);
        let mut layout =
            EpochLayout { epoch, bodies: HashMap::with_capacity(bodies.len()), words: Vec::new() };
        for (key, body) in bodies {
            let at = u32::try_from(layout.words.len()).expect("island exceeds u32 words");
            layout.bodies.insert(key, (at, body.words.len() as u32));
            layout.words.extend_from_slice(&body.words);
            layout.words.push(RET);
        }
        layout
    }

    /// The epoch this layout belongs to.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of bodies in the island.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// `true` when the island holds no bodies.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }

    /// The island word offset and words of the body published under
    /// `key`, if any.
    #[must_use]
    pub fn lookup(&self, key: CacheKey) -> Option<(u32, &[u32])> {
        let &(at, len) = self.bodies.get(&key)?;
        Some((at, &self.words[at as usize..][..len as usize]))
    }

    /// The island image (each body followed by `ret`).
    #[must_use]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Island size in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 4
    }
}

/// One epoch's lifecycle state inside the registry.
struct EpochState {
    /// `None` once retired.
    layout: Option<Arc<EpochLayout>>,
    /// Sealed generations currently linking against this epoch.
    pins: u64,
}

struct RegistryInner {
    /// Every published body, keyed canonically. Keep-first: a canonical
    /// key is bound to its first published concrete body forever.
    published: HashMap<CacheKey, Arc<DictEntry>>,
    /// Keys published since the last seal.
    staged: Vec<CacheKey>,
    /// One state per sealed epoch; index == epoch number. Epoch 0 is
    /// the empty island.
    epochs: Vec<EpochState>,
}

/// The daemon-wide shared-outline dictionary (see the module docs).
/// Cheap to share: wrap in `Arc`; all methods take `&self`.
pub struct DictRegistry {
    inner: Mutex<RegistryInner>,
    hits: AtomicU64,
    publishes: AtomicU64,
    private_preferred: AtomicU64,
}

impl Default for DictRegistry {
    fn default() -> DictRegistry {
        DictRegistry::new()
    }
}

impl core::fmt::Debug for DictRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DictRegistry")
            .field("epoch", &self.current_epoch())
            .field("stats", &self.cumulative_stats())
            .finish()
    }
}

impl DictRegistry {
    /// An empty dictionary at epoch 0 (an empty island).
    #[must_use]
    pub fn new() -> DictRegistry {
        DictRegistry {
            inner: Mutex::new(RegistryInner {
                published: HashMap::new(),
                staged: Vec::new(),
                epochs: vec![EpochState { layout: Some(Arc::new(EpochLayout::empty())), pins: 0 }],
            }),
            hits: AtomicU64::new(0),
            publishes: AtomicU64::new(0),
            private_preferred: AtomicU64::new(0),
        }
    }

    /// Acquires the registry lock, recovering it when a holder panicked:
    /// one tenant's failed build must not end publishing, sealing and
    /// pinning for the daemon. Every update under the lock leaves the
    /// registry valid — the worst a panic mid-seal leaves behind is
    /// staged keys that wait for the seal after the next publish.
    fn lock(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The latest sealed epoch — what a new build session snapshots.
    #[must_use]
    pub fn current_epoch(&self) -> u64 {
        self.lock().epochs.len() as u64 - 1
    }

    /// Total bodies ever published.
    #[must_use]
    pub fn published_count(&self) -> usize {
        self.lock().published.len()
    }

    /// Bodies staged since the last seal.
    #[must_use]
    pub fn staged_count(&self) -> usize {
        self.lock().staged.len()
    }

    /// Cumulative arbitration outcomes across every session.
    #[must_use]
    pub fn cumulative_stats(&self) -> DictStats {
        DictStats {
            hits: self.hits.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
            private_preferred: self.private_preferred.load(Ordering::Relaxed),
        }
    }

    /// Opens a routing session pinned to the current epoch's layout for
    /// its whole lifetime — every `route` call in one build sees one
    /// island, so a build is internally consistent even while other
    /// tenants publish.
    #[must_use]
    pub fn session(self: &Arc<Self>) -> DictSession {
        DictSession {
            registry: Arc::clone(self),
            layout: self.layout(self.current_epoch()).expect("current epoch always has a layout"),
            stats: DictStats::default(),
        }
    }

    /// Publishes `body` under `key`, staging it for the next seal.
    /// Keep-first: returns `false` (and changes nothing) when the key
    /// is already published — the dictionary binds a canonical key to
    /// its first concrete body forever, which is what keeps island
    /// content stable across epochs.
    pub fn publish(&self, key: CacheKey, body: Arc<DictEntry>) -> bool {
        let mut inner = self.lock();
        if inner.published.contains_key(&key) {
            return false;
        }
        inner.published.insert(key, body);
        inner.staged.push(key);
        true
    }

    /// Seals the staged publishes into a new epoch and returns its
    /// number. A no-op returning the current epoch when nothing is
    /// staged — sealing is idempotent between publishes, so callers can
    /// seal at every generation boundary without churning epochs.
    pub fn seal_epoch(&self) -> u64 {
        let mut inner = self.lock();
        if inner.staged.is_empty() {
            return inner.epochs.len() as u64 - 1;
        }
        inner.staged.clear();
        let epoch = inner.epochs.len() as u64;
        let bodies: Vec<(CacheKey, Arc<DictEntry>)> =
            inner.published.iter().map(|(k, v)| (*k, Arc::clone(v))).collect();
        let layout = Arc::new(EpochLayout::build(epoch, bodies));
        inner.epochs.push(EpochState { layout: Some(layout), pins: 0 });
        epoch
    }

    /// The layout of `epoch`, unless unknown or retired.
    #[must_use]
    pub fn layout(&self, epoch: u64) -> Option<Arc<EpochLayout>> {
        let inner = self.lock();
        inner.epochs.get(usize::try_from(epoch).ok()?)?.layout.as_ref().map(Arc::clone)
    }

    /// Records that a sealed generation links against `epoch`,
    /// fencing it from retirement. Returns `false` when the epoch is
    /// unknown or already retired (the caller must rebuild against the
    /// current epoch instead of serving a dangling island).
    pub fn pin_epoch(&self, epoch: u64) -> bool {
        let mut inner = self.lock();
        let Some(state) = usize::try_from(epoch).ok().and_then(|e| inner.epochs.get_mut(e)) else {
            return false;
        };
        if state.layout.is_none() {
            return false;
        }
        state.pins += 1;
        true
    }

    /// Releases one [`pin_epoch`](Self::pin_epoch) — called when a
    /// sealed generation is dropped.
    pub fn unpin_epoch(&self, epoch: u64) {
        let mut inner = self.lock();
        if let Some(state) = usize::try_from(epoch).ok().and_then(|e| inner.epochs.get_mut(e)) {
            state.pins = state.pins.saturating_sub(1);
        }
    }

    /// Epochs currently fenced by at least one sealed generation.
    #[must_use]
    pub fn pinned_epochs(&self) -> usize {
        self.lock().epochs.iter().filter(|state| state.pins > 0).count()
    }

    /// Retires every non-current epoch with no pins, dropping its
    /// island image, and returns how many were retired. This is the
    /// only way dictionary memory is ever reclaimed: eviction is
    /// epoch-fenced, never per-entry, so a pinned generation's island
    /// stays whole.
    pub fn retire_unpinned(&self) -> usize {
        let mut inner = self.lock();
        let current = inner.epochs.len() - 1;
        let mut retired = 0;
        for state in &mut inner.epochs[..current] {
            if state.pins == 0 && state.layout.take().is_some() {
                retired += 1;
            }
        }
        retired
    }
}

/// One build's dictionary view: a pinned epoch layout plus per-build
/// [`DictStats`]. Created via [`DictRegistry::session`].
pub struct DictSession {
    registry: Arc<DictRegistry>,
    layout: Arc<EpochLayout>,
    stats: DictStats,
}

impl DictSession {
    /// The epoch this session routes against — what the resulting
    /// build's generation records and pins.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.layout.epoch()
    }

    /// The pinned island layout.
    #[must_use]
    pub fn layout(&self) -> &Arc<EpochLayout> {
        &self.layout
    }

    /// This session's arbitration outcomes so far.
    #[must_use]
    pub fn stats(&self) -> DictStats {
        self.stats
    }

    /// Arbitrates one outlined candidate body, its code words (without
    /// the trailing return). Returns the island word offset to `bl` to
    /// when the pinned island holds a byte-identical body; `None` routes
    /// the candidate to a private outline. Misses publish through
    /// `store`'s dictionary lane (consulting disk and the fleet first, so
    /// a body a sibling shard published is adopted instead of
    /// re-published, when it is the key's preimage) — the publish lands
    /// in future epochs, never this build's island.
    pub fn route(&mut self, body: &[u32], store: &ArtifactStore) -> Option<u32> {
        if body.len() < MIN_ISLAND_WORDS {
            return None;
        }
        let key = canonical_key(body);
        if let Some((at, island)) = self.layout.lookup(key) {
            if island == body {
                self.stats.hits += 1;
                self.registry.hits.fetch_add(1, Ordering::Relaxed);
                return Some(at);
            }
            self.stats.private_preferred += 1;
            self.registry.private_preferred.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        // Not in our island: adopt the fleet's body for this key when
        // one exists (disk or peer) and the key is its own, otherwise
        // publish ours — over a foreign body, as the outline pass
        // replaces a foreign group plan. Either way the key is only
        // *staged* — this build outlines privately and byte-identical
        // reruns stay byte-identical until a seal.
        let ours = || DictEntry { words: body.to_vec() };
        let adopted = match store.dicts().get(key) {
            Ok(Some(existing)) if canonical_key(&existing.words) == key => existing,
            Ok(Some(_)) => store.dicts().replace_with_cost(key, ours(), 0),
            Ok(None) | Err(_) => store.dicts().insert(key, ours()),
        };
        if self.registry.publish(key, adopted) {
            self.stats.publishes += 1;
            self.registry.publishes.fetch_add(1, Ordering::Relaxed);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_isa::{encode_words, Insn, Reg};

    fn body(imm: u16, rd: u8) -> Vec<u32> {
        let rd = Reg::new(rd);
        encode_words(&[
            Insn::Movz { wide: false, rd, imm16: imm, hw: 0 },
            Insn::AddReg { wide: true, set_flags: false, rd, rn: rd, rm: rd, shift: 0 },
        ])
        .expect("test bodies encode")
    }

    fn registry() -> Arc<DictRegistry> {
        Arc::new(DictRegistry::default())
    }

    #[test]
    fn publish_seal_then_hit() {
        let reg = registry();
        let store = ArtifactStore::default();
        let mut first = reg.session();
        assert_eq!(first.epoch(), 0);
        assert_eq!(first.route(&body(7, 2), &store), None, "cold route publishes, goes private");
        assert_eq!(first.stats(), DictStats { hits: 0, publishes: 1, private_preferred: 0 });
        // Same build, same body again: already staged, still private,
        // not a second publish.
        assert_eq!(first.route(&body(7, 2), &store), None);
        assert_eq!(first.stats().publishes, 1);

        assert_eq!(reg.seal_epoch(), 1);
        assert_eq!(reg.seal_epoch(), 1, "seal with nothing staged is a no-op");

        let mut second = reg.session();
        assert_eq!(second.epoch(), 1);
        let at = second.route(&body(7, 2), &store).expect("sealed body must hit");
        assert_eq!(second.stats(), DictStats { hits: 1, publishes: 0, private_preferred: 0 });
        // The island serves the body at that offset, ret-terminated.
        let layout = second.layout();
        let words = layout.words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[at as usize..], [&body(7, 2)[..], &[RET]].concat());
        assert_eq!(Insn::Ret { rn: Reg::LR }.encode(), Ok(RET));
        // The dictionary lane saw the publish.
        assert_eq!(store.stats().dict_stores, 1);
    }

    #[test]
    fn register_twin_prefers_private() {
        let reg = registry();
        let store = ArtifactStore::default();
        let mut s = reg.session();
        s.route(&body(7, 2), &store);
        reg.seal_epoch();
        let mut t = reg.session();
        // Same canonical shape, different concrete register: the
        // island body cannot serve it.
        assert_eq!(t.route(&body(7, 4), &store), None);
        assert_eq!(t.stats(), DictStats { hits: 0, publishes: 0, private_preferred: 1 });
    }

    #[test]
    fn island_layout_is_publish_order_invariant() {
        let store = ArtifactStore::default();
        let bodies: Vec<Vec<u32>> = (0..6).map(|i| body(100 + i, 3)).collect();
        let forward = registry();
        let mut s = forward.session();
        for b in &bodies {
            s.route(b, &store);
        }
        forward.seal_epoch();
        let backward = registry();
        let mut t = backward.session();
        for b in bodies.iter().rev() {
            t.route(b, &store);
        }
        backward.seal_epoch();
        assert_eq!(
            forward.layout(1).unwrap().words(),
            backward.layout(1).unwrap().words(),
            "island image must be a pure function of the published set"
        );
    }

    #[test]
    fn short_bodies_are_ineligible() {
        let reg = registry();
        let store = ArtifactStore::default();
        let mut s = reg.session();
        assert_eq!(s.route(&body(7, 2)[..1], &store), None);
        assert_eq!(s.stats(), DictStats::default(), "ineligible body must not publish");
        assert_eq!(reg.published_count(), 0);
    }

    #[test]
    fn epoch_fence_blocks_retirement_while_pinned() {
        let reg = registry();
        let store = ArtifactStore::default();
        let mut s = reg.session();
        s.route(&body(1, 2), &store);
        reg.seal_epoch();
        let mut t = reg.session();
        t.route(&body(2, 2), &store);
        reg.seal_epoch();
        assert_eq!(reg.current_epoch(), 2);

        // A sealed generation pins epoch 1; retirement must skip it
        // (epoch 0, unpinned, goes).
        assert!(reg.pin_epoch(1));
        assert_eq!(reg.retire_unpinned(), 1);
        assert!(reg.layout(0).is_none(), "unpinned epoch 0 retired");
        assert!(reg.layout(1).is_some(), "pinned epoch survives retirement");
        assert!(reg.layout(2).is_some(), "current epoch never retires");

        // Once the generation drops its pin the fence opens.
        reg.unpin_epoch(1);
        assert_eq!(reg.retire_unpinned(), 1);
        assert!(reg.layout(1).is_none());
        assert!(!reg.pin_epoch(1), "pinning a retired epoch must fail");
        assert!(!reg.pin_epoch(99), "pinning an unknown epoch must fail");
    }

    #[test]
    fn adopted_fleet_body_is_staged_not_republished() {
        // A sibling shard already published this canonical key with
        // registers we do not use: the session must adopt that body
        // (so the fleet-wide island stays consistent), stage it, and
        // still outline privately.
        let reg = registry();
        let store = ArtifactStore::default();
        let fleet_body = body(7, 2);
        let key = canonical_key(&fleet_body);
        store.dicts().insert(key, DictEntry { words: fleet_body.clone() });
        let mut s = reg.session();
        assert_eq!(s.route(&body(7, 4), &store), None);
        assert_eq!(s.stats().publishes, 1, "adoption counts as this build's publish");
        reg.seal_epoch();
        // The island carries the fleet's body, not ours.
        let layout = reg.layout(1).unwrap();
        assert_eq!(layout.lookup(key), Some((0, &fleet_body[..])));
        assert_eq!(store.stats().dict_stores, 1, "no second store for an adopted body");
    }

    #[test]
    fn a_body_that_is_not_its_keys_preimage_is_replaced_not_adopted() {
        // The lane returns a foreign body under our key — from memory
        // here, as it could from a `.cald` file or a peer on other
        // canonicalization rules. Adopting it would bind the key to a
        // body our own copies can never match.
        let reg = registry();
        let store = ArtifactStore::default();
        let ours = body(7, 2);
        let key = canonical_key(&ours);
        assert_ne!(canonical_key(&body(9, 3)), key);
        store.dicts().insert(key, DictEntry { words: body(9, 3) });
        let mut s = reg.session();
        assert_eq!(s.route(&ours, &store), None);
        assert_eq!(s.stats().publishes, 1);
        let lane = store.stats();
        assert_eq!((lane.dict_hits, lane.dict_misses, lane.dict_stores), (1, 1, 2), "{lane:?}");
        let resident = store.dicts().get(key).unwrap().expect("ours replaced the foreign body");
        assert_eq!(resident.words, ours);
        reg.seal_epoch();
        let layout = reg.layout(1).unwrap();
        assert_eq!(layout.lookup(key), Some((0, &ours[..])));
        // Later builds share the key instead of preferring private.
        let mut t = reg.session();
        assert_eq!(t.route(&ours, &store), Some(0));
        assert_eq!(t.stats(), DictStats { hits: 1, publishes: 0, private_preferred: 0 });
    }

    #[test]
    fn a_holder_that_panics_leaves_the_registry_working() {
        let reg = registry();
        let entry = |imm| {
            let words = body(imm, 2);
            (canonical_key(&words), Arc::new(DictEntry { words }))
        };
        let (first, first_body) = entry(1);
        assert!(reg.publish(first, first_body));
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = reg.lock();
                panic!("holder dies with the registry locked");
            })
            .join()
        });
        assert!(died.is_err() && reg.inner.is_poisoned());

        // What was published before the panic is still there, and
        // publish, seal, pin and the counters all keep working.
        assert_eq!((reg.published_count(), reg.staged_count()), (1, 1));
        let (second, second_body) = entry(2);
        assert!(reg.publish(second, second_body));
        assert_eq!(reg.seal_epoch(), 1);
        assert_eq!(reg.layout(1).expect("sealed epoch has a layout").len(), 2);
        assert!(reg.pin_epoch(1));
        assert_eq!(reg.pinned_epochs(), 1);
        assert_eq!(reg.cumulative_stats(), DictStats::default());
    }
}
