//! The daemon-wide dictionary: published bodies, sealed epochs, and the
//! per-build routing session.
//!
//! ## Keys
//!
//! A body's key is the [`StableHasher`] digest of its words ([`body_key`]):
//! nothing is decoded, a body is its key's preimage by construction, and
//! two keys are equal only when the words are. The key also *places*: a
//! sealed epoch lays its island out in key order, so unlike the cache's
//! addressing keys it does not follow
//! [`SCHEMA_VERSION`](calibro_cache::SCHEMA_VERSION) — a schema bump must
//! not reorder served images (DESIGN.md §7).
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
//! owns a copy of its island words, and the registry owns every
//! published body, so nothing outside the registry can tear a word out
//! of an island.
//!
//! ## Routing
//!
//! [`DictSession::route`] decides, per outlined candidate, between the
//! shared island and a private outline. A candidate whose key the pinned
//! layout holds routes to the island — its words are the island body's.
//! Any other eligible candidate is published for future epochs and
//! outlined privately this build. The two outcomes feed [`DictStats`]:
//! `hits` (island used, body cost zero) and `publishes` (body staged for
//! future epochs). Inlining is arbitrated upstream: a candidate only
//! reaches `route` after LTBO's benefit model decided outlining beats
//! keeping the copies inline.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use calibro_cache::{CacheKey, StableHasher};

/// `ret` (through `x30`), the word every island body is followed by.
const RET: u32 = 0xd65f_03c0;

/// Minimum body length (words) eligible for the shared island; shorter
/// bodies stay private — the cross-tenant call overhead cannot pay for
/// itself.
pub const MIN_ISLAND_WORDS: usize = 2;

/// Hash-domain tag for dictionary keys, distinct from every other
/// key-construction tag in the pipeline.
const DICT_KEY_TAG: u8 = 0x45;

/// The key's salt: the schema string in force when the first epoch
/// layouts were recorded, frozen so island order never moves with it.
const DICT_KEY_SALT: &str = "0.1.0+s5";

/// The 128-bit dictionary key of the body `words` (see the module docs).
fn body_key(words: &[u32]) -> CacheKey {
    let mut h = StableHasher::with_capacity(words.len() * 4 + 32);
    h.write_tag(DICT_KEY_TAG);
    h.write_str(DICT_KEY_SALT);
    h.write_usize(words.len());
    for &word in words {
        h.write_u32(word);
    }
    h.finish()
}

/// Per-build dictionary routing outcomes (see the module docs).
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct DictStats {
    /// Candidates routed to the shared island (body cost zero).
    pub hits: u64,
    /// Bodies newly staged into the dictionary for future epochs.
    pub publishes: u64,
}

/// One sealed epoch's immutable island layout: every published body at
/// seal time, in key order, each followed by a `ret`.
#[derive(Debug)]
pub struct EpochLayout {
    epoch: u64,
    /// Each key's island word offset.
    bodies: HashMap<CacheKey, u32>,
    /// The island image.
    words: Vec<u32>,
}

impl EpochLayout {
    fn empty() -> EpochLayout {
        EpochLayout { epoch: 0, bodies: HashMap::new(), words: Vec::new() }
    }

    fn build(epoch: u64, mut bodies: Vec<(CacheKey, &[u32])>) -> EpochLayout {
        bodies.sort_by_key(|&(key, _)| key);
        let mut layout =
            EpochLayout { epoch, bodies: HashMap::with_capacity(bodies.len()), words: Vec::new() };
        for (key, body) in bodies {
            let at = u32::try_from(layout.words.len()).expect("island exceeds u32 words");
            layout.bodies.insert(key, at);
            layout.words.extend_from_slice(body);
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

    /// The island word offset of the body published under `key`, if
    /// any.
    #[must_use]
    pub fn offset(&self, key: CacheKey) -> Option<u32> {
        self.bodies.get(&key).copied()
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
    /// Every published body, by key.
    published: HashMap<CacheKey, Vec<u32>>,
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

    /// Cumulative routing outcomes across every session.
    #[must_use]
    pub fn cumulative_stats(&self) -> DictStats {
        DictStats {
            hits: self.hits.load(Ordering::Relaxed),
            publishes: self.publishes.load(Ordering::Relaxed),
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

    /// Publishes `body` under its `key`, staging it for the next seal.
    /// Returns `false` (and changes nothing) when the key is already
    /// published.
    fn publish(&self, key: CacheKey, body: &[u32]) -> bool {
        let mut inner = self.lock();
        if inner.published.contains_key(&key) {
            return false;
        }
        inner.published.insert(key, body.to_vec());
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
        let bodies = inner.published.iter().map(|(&key, body)| (key, body.as_slice())).collect();
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

    /// This session's routing outcomes so far.
    #[must_use]
    pub fn stats(&self) -> DictStats {
        self.stats
    }

    /// Routes one outlined candidate body, its code words (without the
    /// trailing return). Returns the island word offset to `bl` to when
    /// the pinned island holds the body; `None` routes the candidate to
    /// a private outline. A miss publishes the body — the publish lands
    /// in future epochs, never this build's island, so this build
    /// outlines privately and byte-identical reruns stay byte-identical
    /// until a seal.
    pub fn route(&mut self, body: &[u32]) -> Option<u32> {
        if body.len() < MIN_ISLAND_WORDS {
            return None;
        }
        let key = body_key(body);
        if let Some(at) = self.layout.offset(key) {
            self.stats.hits += 1;
            self.registry.hits.fetch_add(1, Ordering::Relaxed);
            return Some(at);
        }
        if self.registry.publish(key, body) {
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
        let mut first = reg.session();
        assert_eq!(first.epoch(), 0);
        assert_eq!(first.route(&body(7, 2)), None, "cold route publishes, goes private");
        assert_eq!(first.stats(), DictStats { hits: 0, publishes: 1 });
        // Same build, same body again: already staged, still private,
        // not a second publish.
        assert_eq!(first.route(&body(7, 2)), None);
        assert_eq!(first.stats().publishes, 1);

        assert_eq!(reg.seal_epoch(), 1);
        assert_eq!(reg.seal_epoch(), 1, "seal with nothing staged is a no-op");

        let mut second = reg.session();
        assert_eq!(second.epoch(), 1);
        let at = second.route(&body(7, 2)).expect("sealed body must hit");
        assert_eq!(second.stats(), DictStats { hits: 1, publishes: 0 });
        // The island serves the body at that offset, ret-terminated.
        let layout = second.layout();
        let words = layout.words();
        assert_eq!(words.len(), 3);
        assert_eq!(words[at as usize..], [&body(7, 2)[..], &[RET]].concat());
        assert_eq!(Insn::Ret { rn: Reg::LR }.encode(), Ok(RET));
        assert_eq!(reg.cumulative_stats(), DictStats { hits: 1, publishes: 1 });
    }

    #[test]
    fn register_variants_both_publish_and_both_hit() {
        // The same computation under two register assignments: two
        // bodies, two keys, two island entries — each tenant calls its
        // own.
        let (x2, x4) = (body(7, 2), body(7, 4));
        assert_ne!(body_key(&x2), body_key(&x4));
        let reg = registry();
        let mut s = reg.session();
        assert_eq!((s.route(&x2), s.route(&x4)), (None, None));
        assert_eq!(s.stats(), DictStats { hits: 0, publishes: 2 });
        reg.seal_epoch();
        let mut t = reg.session();
        let (a, b) = (t.route(&x2).expect("x2 hits"), t.route(&x4).expect("x4 hits"));
        assert_eq!(t.stats(), DictStats { hits: 2, publishes: 0 });
        let island = t.layout().words();
        assert_eq!(island[a as usize..][..2], x2[..]);
        assert_eq!(island[b as usize..][..2], x4[..]);
    }

    /// A key places its body in every sealed island, so it must never
    /// move: recorded from this function's first version.
    #[test]
    fn keys_equal_the_recorded_keys() {
        let golden = [
            (body(7, 2), "8b1553a96715775be5246f40b831e1ee"),
            (body(7, 4), "14b7cb49012815bd2958a88bdd408c0a"),
            (vec![RET, RET, RET], "1374ee478f55439e5211381f7fbe2667"),
        ];
        for (words, hex) in golden {
            assert_eq!(body_key(&words).to_hex(), hex, "{words:08x?}");
        }
    }

    #[test]
    fn island_layout_is_publish_order_invariant() {
        let bodies: Vec<Vec<u32>> = (0..6).map(|i| body(100 + i, 3)).collect();
        let forward = registry();
        let mut s = forward.session();
        for b in &bodies {
            s.route(b);
        }
        forward.seal_epoch();
        let backward = registry();
        let mut t = backward.session();
        for b in bodies.iter().rev() {
            t.route(b);
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
        let mut s = reg.session();
        assert_eq!(s.route(&body(7, 2)[..MIN_ISLAND_WORDS - 1]), None);
        assert_eq!(s.stats(), DictStats::default(), "ineligible body must not publish");
        assert_eq!(reg.published_count(), 0);
    }

    #[test]
    fn epoch_fence_blocks_retirement_while_pinned() {
        let reg = registry();
        let mut s = reg.session();
        s.route(&body(1, 2));
        reg.seal_epoch();
        let mut t = reg.session();
        t.route(&body(2, 2));
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
    fn a_holder_that_panics_leaves_the_registry_working() {
        let reg = registry();
        let first = body(1, 2);
        assert!(reg.publish(body_key(&first), &first));
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
        let second = body(2, 2);
        assert!(reg.publish(body_key(&second), &second));
        assert_eq!(reg.seal_epoch(), 1);
        assert_eq!(reg.layout(1).expect("sealed epoch has a layout").len(), 2);
        assert!(reg.pin_epoch(1));
        assert_eq!(reg.pinned_epochs(), 1);
        assert_eq!(reg.cumulative_stats(), DictStats::default());
    }
}
