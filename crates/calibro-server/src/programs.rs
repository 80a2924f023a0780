//! The daemon's program table: decoded programs, named by the hash of
//! the bytes they arrived as.
//!
//! A build request carries its program as the body's trailing bytes,
//! and a program's content key *is* the hash of those bytes
//! (`H('P', DexFile row)`, DESIGN.md §7), so the daemon can name an
//! arriving program without decoding it. Most traffic resends a program
//! byte for byte — every warm rebuild, every tenant fetch — so the
//! table keeps the decoded form of programs that have proved they come
//! back, and a request for one of them neither decodes nor drops
//! ~20 000 instructions. The table trusts a key as a cache lane does:
//! 128 bits plus the byte length, computed by the daemon itself from
//! bytes it then decoded and kept.
//!
//! An entry is the decoded program itself. Its methods stay the same
//! allocations for as long as it is held, so the daemon's build session
//! remembers their keys and a held program's builds under one set of
//! options hash its methods once rather than once per request.
//!
//! **Admission is on the second sighting.** A program decoded for the
//! first time only leaves its id in a fixed ring of recently seen ids;
//! one whose id is still in the ring when it is decoded again is held.
//! The other kind of traffic is a program that is never seen again (an
//! edited build), and holding each of those would cost about six times
//! its wire size in resident set for nothing. Held programs are evicted
//! least recently used first once the wire bytes they stand for, and
//! the ELFs of their replay slots, exceed a fixed budget. Both bounds
//! are constants, not configuration.
//!
//! **A held program can be named instead of sent.** A build by edit
//! carries a base [`ProgramId`] where the program's bytes would be, the
//! method count of the program to build, and the rows of its methods
//! that differ from the base's. Each connection keeps the ids of the
//! programs it sent whole in a [`SentPrograms`] ring, and the daemon
//! resolves a base only to a program that is both in that ring and held
//! in the table: a name never reaches more than the bytes its own
//! client already sent. No rows and the base's own count name the held
//! program itself (a build by reference). Any other edit builds a clone
//! of the held base ([`apply_edit`]), so every method it did not change
//! is the base's allocation, neither sent, nor decoded, nor keyed
//! again. It is a program of one build: the table is not offered it,
//! and the connection's ring does not record it as sent.
//!
//! **A held program's repeat build is answered, not built.** A build's
//! output is a pure function of the program and the options, so each
//! held program keeps one replay slot: the options and LTBO fingerprints
//! and the [`SealedReply`] of its last client build (a plain build, or a
//! tenant build, whose generation shares the slot's ELF). A plain build
//! of the program under the same fingerprints is answered from the slot
//! and never queued; it reports every method as from the cache, no
//! cache traffic, no build time and generation 0. An edit that changes
//! its base names the base, not the program it builds, and neither
//! fills nor reads a slot. The slot's ELF counts against the same budget as the wire
//! bytes and goes with its program.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use calibro::{CacheKey, StableHasher};
use calibro_dex::wire::wire_fields;
use calibro_dex::DexFile;

use crate::proto::{EditRow, SealedReply};

/// Ids of decoded-once programs remembered for a second sighting.
const SEEN_RING: usize = 64;
/// Wire bytes the held programs may stand for in total (a decoded
/// program is roughly six times its wire form), their replay slots'
/// ELF bytes included.
pub(crate) const HELD_WIRE_BYTES: usize = 4 << 20;
/// Programs one connection remembers having sent whole — on the daemon
/// ([`SentPrograms`]) and in the client alike.
pub(crate) const SENT_RING: usize = 64;

/// What names a program: its content key and the length of the bytes
/// that were hashed. On the wire (a build by edit's base) the key, then
/// the length as a `u64`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProgramId {
    /// `calibro::program_salt` of the program, computed from its bytes.
    pub key: CacheKey,
    /// The length of the program's `DexFile` row.
    pub len: usize,
}

wire_fields!(ProgramId { key, len });

impl ProgramId {
    /// Names the program whose `DexFile` row `encoded` is: the domain
    /// tag, then the bytes where they lie — what `hash_program` feeds
    /// the hasher from the decoded form.
    #[must_use]
    pub fn of(encoded: &[u8]) -> ProgramId {
        // 'P', `hash_program`'s domain tag.
        ProgramId { key: StableHasher::tagged_wire_bytes_key(0x50, encoded), len: encoded.len() }
    }
}

/// The ids one connection has sent whole, most recently used last: the
/// programs a build by edit on it may name.
#[derive(Default)]
pub(crate) struct SentPrograms {
    ids: VecDeque<ProgramId>,
}

impl SentPrograms {
    /// Records a use of `id`, forgetting the least recently used id
    /// past [`SENT_RING`].
    pub(crate) fn touch(&mut self, id: ProgramId) {
        if let Some(at) = self.ids.iter().rposition(|sent| *sent == id) {
            self.ids.remove(at);
        } else if self.ids.len() == SENT_RING {
            self.ids.pop_front();
        }
        self.ids.push_back(id);
    }

    pub(crate) fn contains(&self, id: ProgramId) -> bool {
        self.ids.contains(&id)
    }
}

/// The program a build by edit sends: `base` with its method table cut
/// or extended to `count` and each row dropped in at its index. Every
/// method without a row stays the base's allocation. `Err` says why the
/// rows make no program of the base; it is checked before anything is
/// allocated for `count`.
pub(crate) fn apply_edit(
    base: &DexFile,
    count: u32,
    rows: Vec<EditRow>,
) -> Result<DexFile, String> {
    let count = count as usize;
    let kept = base.methods().len().min(count);
    let classes = base.classes().len();
    let mut previous = None;
    for row in &rows {
        let index = row.index as usize;
        if index >= count {
            return Err(format!("edit row {index} is past the method count {count}"));
        }
        if previous.is_some_and(|previous| index <= previous) {
            return Err(format!("edit row {index} is out of order or repeated"));
        }
        previous = Some(index);
        let class = row.method.class.index();
        if class >= classes {
            return Err(format!("edit row {index} names class {class} of {classes}"));
        }
    }
    // Distinct, ascending and below `count`: the rows past the base's
    // methods cover them exactly when there are as many as are missing.
    let appended = rows.iter().filter(|row| row.index as usize >= kept).count();
    if appended != count - kept {
        return Err(format!(
            "edit to {count} methods sends {appended} rows past the base's {kept}, not {}",
            count - kept
        ));
    }
    let mut methods = base.methods()[..kept].to_vec();
    methods.reserve(count - kept);
    for EditRow { index, method } in rows {
        let method = Arc::new(method);
        match methods.get_mut(index as usize) {
            Some(slot) => *slot = method,
            None => methods.push(method),
        }
    }
    let mut dex = base.clone();
    dex.set_methods(methods);
    Ok(dex)
}

struct Held {
    program: Arc<DexFile>,
    last_used: u64,
    /// The reply of the program's last client build, when it may be
    /// answered with again.
    replay: Option<Arc<SealedReply>>,
}

impl Held {
    /// What holding the program `id` names costs the budget.
    fn bytes(&self, id: ProgramId) -> usize {
        id.len + self.replay.as_ref().map_or(0, |replay| replay.elf.len())
    }
}

#[derive(Default)]
struct Inner {
    seen: VecDeque<ProgramId>,
    held: HashMap<ProgramId, Held>,
    held_bytes: usize,
    clock: u64,
}

impl Inner {
    /// Evicts the least recently used programs until the held bytes fit
    /// the budget.
    fn evict_over_budget(&mut self) {
        while self.held_bytes > HELD_WIRE_BYTES {
            let (&coldest, held) = self
                .held
                .iter()
                .min_by_key(|(_, held)| held.last_used)
                .expect("bytes are held, so an entry is");
            self.held_bytes -= held.bytes(coldest);
            self.held.remove(&coldest);
        }
    }
}

/// See the module docs.
#[derive(Default)]
pub(crate) struct ProgramTable {
    inner: Mutex<Inner>,
}

impl ProgramTable {
    /// A poisoned lock is recovered (DESIGN.md §7 "Lock policy"): the
    /// critical sections below only update the ring and the map, and
    /// the worst a dead holder leaves is a byte count that is off by
    /// one entry.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The held program of this id, if any.
    pub(crate) fn get(&self, id: ProgramId) -> Option<Arc<DexFile>> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        inner.held.get_mut(&id).map(|held| {
            held.last_used = now;
            Arc::clone(&held.program)
        })
    }

    /// The sealed reply in the replay slot of the held program `id`, if
    /// its last client build had these options and LTBO fingerprints.
    pub(crate) fn replay(
        &self,
        id: ProgramId,
        options_fp: CacheKey,
        ltbo_fp: Option<CacheKey>,
    ) -> Option<Arc<SealedReply>> {
        let inner = self.lock();
        let replay = inner.held.get(&id)?.replay.as_ref()?;
        (replay.options_fp == options_fp && replay.ltbo_fp == ltbo_fp).then(|| Arc::clone(replay))
    }

    /// Puts `reply`, a client build's of the program `id`, in the
    /// program's replay slot in place of what was there, when the table
    /// holds the program and the two fit the budget together. Evicts as
    /// [`offer`](Self::offer) does.
    pub(crate) fn seal(&self, id: ProgramId, reply: Arc<SealedReply>) {
        let mut inner = self.lock();
        let inner = &mut *inner;
        let Some(held) = inner.held.get_mut(&id) else { return };
        if id.len + reply.elf.len() > HELD_WIRE_BYTES {
            return;
        }
        inner.held_bytes -= held.bytes(id);
        held.replay = Some(reply);
        inner.held_bytes += held.bytes(id);
        inner.evict_over_budget();
    }

    /// Hands the table a program just decoded from the bytes `id`
    /// names. It is held if this is its second sighting (and it fits
    /// the budget at all), remembered for one otherwise.
    pub(crate) fn offer(&self, id: ProgramId, dex: DexFile) -> Arc<DexFile> {
        let mut inner = self.lock();
        inner.clock += 1;
        let now = inner.clock;
        if let Some(held) = inner.held.get_mut(&id) {
            // A concurrent connection decoded and admitted it first.
            held.last_used = now;
            return Arc::clone(&held.program);
        }
        let program = Arc::new(dex);
        match inner.seen.iter().position(|seen| *seen == id) {
            Some(at) if id.len <= HELD_WIRE_BYTES => {
                inner.seen.remove(at);
                let held = Held { program: Arc::clone(&program), last_used: now, replay: None };
                inner.held.insert(id, held);
                inner.held_bytes += id.len;
                inner.evict_over_budget();
            }
            Some(_) => {}
            None => {
                if inner.seen.len() == SEEN_RING {
                    inner.seen.pop_front();
                }
                inner.seen.push_back(id);
            }
        }
        program
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibro_dex::wire;
    use calibro_workloads::{generate, AppSpec};

    fn program(statics: u32) -> (ProgramId, DexFile) {
        let mut dex = DexFile::new();
        dex.reserve_statics(statics);
        (ProgramId::of(&wire::encode(&dex)), dex)
    }

    #[test]
    fn the_id_of_the_bytes_is_the_salt_of_the_program() {
        let (id, dex) = program(7);
        assert_eq!(id.key, calibro::program_salt(&dex));
        // A pool-sized program: hashed where it lies, the key is the
        // buffered hash of tag + bytes, and the salt of the decoded form.
        let dex = generate(&AppSpec { methods: 200, ..AppSpec::small("pool", 700) }).dex;
        let bytes = wire::encode(&dex);
        let id = ProgramId::of(&bytes);
        let mut h = StableHasher::new();
        h.write_tag(0x50);
        h.write_wire_bytes(&bytes);
        assert_eq!((id.key, id.len), (h.finish(), bytes.len()));
        let decoded: DexFile = wire::decode(&bytes).expect("the program decodes");
        assert_eq!(id.key, calibro::program_salt(&decoded));
    }

    #[test]
    fn a_connection_remembers_the_most_recently_sent_ids() {
        let mut sent = SentPrograms::default();
        let id = |n: u64| ProgramId { key: CacheKey { hi: n, lo: n }, len: 1 };
        for n in 0..SENT_RING as u64 {
            sent.touch(id(n));
        }
        // Used again, 0 is the most recent: the next new id pushes 1 out.
        sent.touch(id(0));
        sent.touch(id(SENT_RING as u64));
        assert!(sent.contains(id(0)) && sent.contains(id(SENT_RING as u64)));
        assert!(!sent.contains(id(1)));
        assert_eq!(sent.ids.len(), SENT_RING);
    }

    #[test]
    fn a_program_is_held_from_its_second_sighting() {
        let table = ProgramTable::default();
        let (id, dex) = program(1);
        assert!(table.get(id).is_none());
        table.offer(id, dex.clone());
        assert!(table.get(id).is_none(), "one sighting only remembers the id");
        let second = table.offer(id, dex.clone());
        let held = table.get(id).expect("held from the second sighting");
        assert!(Arc::ptr_eq(&second, &held));
        // A racing third decode gets the entry, not a second copy.
        assert!(Arc::ptr_eq(&table.offer(id, dex), &held));
    }

    #[test]
    fn equal_length_programs_of_different_content_have_different_entries() {
        let table = ProgramTable::default();
        let ((a, dex_a), (b, dex_b)) = (program(1), program(2));
        assert_eq!(a.len, b.len);
        assert_ne!(a, b);
        for _ in 0..2 {
            table.offer(a, dex_a.clone());
            table.offer(b, dex_b.clone());
        }
        assert_eq!(*table.get(a).expect("a held"), dex_a);
        assert_eq!(*table.get(b).expect("b held"), dex_b);
    }

    #[test]
    fn the_ring_forgets_and_the_budget_evicts_the_least_recently_used() {
        let table = ProgramTable::default();
        let (first, dex) = program(0);
        table.offer(first, dex.clone());
        for n in 1..=SEEN_RING as u32 {
            let (id, dex) = program(n);
            table.offer(id, dex);
        }
        table.offer(first, dex);
        assert!(table.get(first).is_none(), "pushed out of the ring before it came back");

        // Ids that claim a third of the budget each: the fourth
        // admission evicts whichever of the first three was used least
        // recently.
        let big = |n: u64| ProgramId { key: CacheKey { hi: n, lo: n }, len: HELD_WIRE_BYTES / 3 };
        for n in 0..3 {
            table.offer(big(n), DexFile::new());
            table.offer(big(n), DexFile::new());
        }
        assert!(table.get(big(0)).is_some());
        table.offer(big(3), DexFile::new());
        table.offer(big(3), DexFile::new());
        assert!(table.get(big(1)).is_none(), "the least recently used entry went");
        assert!(table.get(big(0)).is_some() && table.get(big(2)).is_some());
        assert!(table.get(big(3)).is_some());

        let over = ProgramId { key: CacheKey { hi: 9, lo: 9 }, len: HELD_WIRE_BYTES + 1 };
        table.offer(over, DexFile::new());
        table.offer(over, DexFile::new());
        assert!(table.get(over).is_none(), "a program over the whole budget is never held");
    }

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    fn reply(options_fp: CacheKey, ltbo_fp: Option<CacheKey>, elf: usize) -> Arc<SealedReply> {
        Arc::new(SealedReply {
            options_fp,
            ltbo_fp,
            elf: Arc::new(vec![0; elf]),
            methods: 1,
            methods_from_cache: 1,
            cache_hits: 0,
            cache_misses: 0,
            build_us: 0,
            generation: 0,
            stats_json: String::new(),
        })
    }

    #[test]
    fn a_replay_slot_answers_only_the_fingerprints_it_was_sealed_under() {
        let table = ProgramTable::default();
        let (id, dex) = program(3);
        let (a, b) = (key(1), key(2));
        table.seal(id, reply(a, Some(b), 10));
        assert!(table.replay(id, a, Some(b)).is_none(), "a program not held has no slot");
        table.offer(id, dex.clone());
        table.offer(id, dex);
        assert!(table.replay(id, a, Some(b)).is_none(), "no client build filled it yet");
        table.seal(id, reply(a, Some(b), 10));
        assert!(table.replay(id, a, Some(b)).is_some());
        assert!(table.replay(id, b, Some(b)).is_none(), "other options are built");
        assert!(table.replay(id, a, Some(a)).is_none(), "another LTBO configuration is built");
        assert!(table.replay(id, a, None).is_none(), "no LTBO is built");
        // The build under other options takes the slot.
        table.seal(id, reply(b, None, 10));
        assert!(table.replay(id, a, Some(b)).is_none());
        assert!(table.replay(id, b, None).is_some());
    }

    #[test]
    fn a_replay_slots_elf_counts_against_the_budget_and_leaves_with_its_program() {
        let table = ProgramTable::default();
        let held_bytes = |table: &ProgramTable| table.lock().held_bytes;
        let quarter = HELD_WIRE_BYTES / 4;
        let held = |n: u64| ProgramId { key: key(n), len: quarter };
        for n in 0..2 {
            table.offer(held(n), DexFile::new());
            table.offer(held(n), DexFile::new());
        }
        assert_eq!(held_bytes(&table), 2 * quarter);
        table.seal(held(0), reply(key(1), None, quarter));
        assert_eq!(held_bytes(&table), 3 * quarter);
        table.seal(held(0), reply(key(1), None, quarter / 2));
        assert_eq!(held_bytes(&table), 2 * quarter + quarter / 2, "a replaced slot's bytes leave");
        table.seal(held(1), reply(key(1), None, HELD_WIRE_BYTES));
        assert!(table.replay(held(1), key(1), None).is_none(), "it and its program never fit");
        assert_eq!(held_bytes(&table), 2 * quarter + quarter / 2);

        // Filling `held(1)`'s slot overflows the budget: the least
        // recently used program, `held(0)`, goes, and its slot with it.
        table.seal(held(1), reply(key(1), None, 2 * quarter));
        assert!(table.get(held(0)).is_none());
        assert_eq!(held_bytes(&table), 3 * quarter);
        // An admission that overflows it evicts `held(1)` and its slot.
        let big = ProgramId { key: key(9), len: 2 * quarter };
        table.offer(big, DexFile::new());
        table.offer(big, DexFile::new());
        assert!(table.get(held(1)).is_none());
        assert_eq!(held_bytes(&table), 2 * quarter);
    }
}
