//! Cost-aware 2Q eviction for one store lane.
//!
//! The policy replaces the seed store's plain FIFO with a two-queue
//! (2Q) structure: new entries land in a *probation* FIFO, a hit
//! promotes into a *protected* LRU, and the protected queue is only
//! raided once probation is empty. On top of the 2Q skeleton the victim
//! choice is **cost-aware**: within a small window of the oldest live
//! candidates the entry with the lowest recompute cost is evicted
//! first, so under pressure the lane keeps the artifacts that are
//! expensive to rebuild (the whole point of a fleet-shared warm lane).
//! With all costs equal the tie-break is strict queue order, which
//! degenerates to exactly the seed's FIFO behavior — existing eviction
//! tests and their counters are unchanged.
//!
//! Queues are lazy: a promotion or LRU touch re-pushes the key with a
//! bumped epoch instead of splicing the old record out; stale records
//! are skipped (and dropped) when they surface at the front. A
//! compaction pass bounds the garbage so long-lived daemons do not leak
//! queue records.

use std::collections::{HashMap, VecDeque};

use crate::hash::CacheKey;

/// How many live front-of-queue candidates the victim choice compares.
/// Small on purpose: a wide window would turn eviction into
/// cost-priority order and starve recency entirely; four is enough to
/// skip past a cheap entry sitting in front of an expensive one.
const VICTIM_WINDOW: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Segment {
    Probation,
    Protected,
}

#[derive(Clone, Copy, Debug)]
struct Meta {
    bytes: usize,
    cost_us: u64,
    seg: Segment,
    epoch: u64,
}

/// An evicted key together with the recompute cost it carried, so the
/// store can account `evict_cost_us` without a second map lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Victim {
    pub key: CacheKey,
    pub cost_us: u64,
}

/// Per-lane cost-aware 2Q bookkeeping. Holds keys and metadata only —
/// the owning store keeps the actual entries and removes victims from
/// its map.
pub(crate) struct Lane2Q {
    max_entries: usize,
    max_bytes: usize,
    probation: VecDeque<(CacheKey, u64)>,
    protected: VecDeque<(CacheKey, u64)>,
    meta: HashMap<CacheKey, Meta>,
    bytes: usize,
    protected_count: usize,
    protected_bytes: usize,
}

impl Lane2Q {
    pub fn new(max_entries: usize, max_bytes: usize) -> Lane2Q {
        Lane2Q {
            max_entries,
            max_bytes,
            probation: VecDeque::new(),
            protected: VecDeque::new(),
            meta: HashMap::new(),
            bytes: 0,
            protected_count: 0,
            protected_bytes: 0,
        }
    }

    /// Resident bytes currently accounted to the lane.
    #[cfg(test)]
    pub fn resident_bytes(&self) -> usize {
        self.bytes
    }

    /// The recompute cost recorded for a resident key.
    pub fn cost_of(&self, key: CacheKey) -> Option<u64> {
        self.meta.get(&key).map(|m| m.cost_us)
    }

    /// Registers a freshly inserted key (probation segment) and returns
    /// the victims the budgets force out. The just-inserted key itself
    /// is a legal victim: when everything already resident costs more,
    /// rejecting the newcomer *is* the cost-aware decision (admission
    /// control), and the caller drops it from the map like any other
    /// victim.
    pub fn on_insert(&mut self, key: CacheKey, bytes: usize, cost_us: u64) -> Vec<Victim> {
        self.meta.insert(key, Meta { bytes, cost_us, seg: Segment::Probation, epoch: 0 });
        self.probation.push_back((key, 0));
        self.bytes = self.bytes.saturating_add(bytes);
        self.evict_to_budget()
    }

    /// Re-sizes a resident key whose entry was overwritten in place: the
    /// key keeps its segment and queue position, its bytes and cost are
    /// the new entry's, and the budgets are re-checked.
    pub fn on_replace(&mut self, key: CacheKey, bytes: usize, cost_us: u64) -> Vec<Victim> {
        let Some(meta) = self.meta.get_mut(&key) else {
            return self.on_insert(key, bytes, cost_us);
        };
        self.bytes = self.bytes.saturating_sub(meta.bytes).saturating_add(bytes);
        if meta.seg == Segment::Protected {
            self.protected_bytes =
                self.protected_bytes.saturating_sub(meta.bytes).saturating_add(bytes);
        }
        meta.bytes = bytes;
        meta.cost_us = cost_us;
        self.evict_to_budget()
    }

    /// Records a memory hit: probation promotes into protected, a
    /// protected hit refreshes LRU position. Both are a lazy re-push
    /// under a new epoch.
    pub fn on_hit(&mut self, key: CacheKey) {
        let Some(meta) = self.meta.get_mut(&key) else {
            return;
        };
        meta.epoch += 1;
        if meta.seg == Segment::Probation {
            meta.seg = Segment::Protected;
            self.protected_count += 1;
            self.protected_bytes = self.protected_bytes.saturating_add(meta.bytes);
        }
        self.protected.push_back((key, meta.epoch));
        self.maybe_compact();
    }

    fn over_budget(&self) -> bool {
        self.meta.len() > self.max_entries.max(1) || self.bytes > self.max_bytes
    }

    /// Protected may take at most ~3/4 of either budget. Without this
    /// bound, every entry ever hit would gain permanent residence
    /// (probation is raided first) and the lane would stop admitting
    /// new work once it filled with protected entries.
    fn protected_over_target(&self) -> bool {
        self.protected_count > (self.max_entries.max(1) * 3 / 4).max(1)
            || (self.max_bytes != usize::MAX && self.protected_bytes > self.max_bytes / 4 * 3)
    }

    fn evict_to_budget(&mut self) -> Vec<Victim> {
        let mut victims = Vec::new();
        while self.over_budget() {
            match self.pick_victim() {
                Some(v) => victims.push(v),
                None => break,
            }
        }
        victims
    }

    /// Probation is raided first; protected entries go when probation
    /// has nothing left to sacrifice, or when the protected segment has
    /// outgrown its target share of the lane.
    fn pick_victim(&mut self) -> Option<Victim> {
        if self.protected_over_target() {
            self.pick_from(Segment::Protected).or_else(|| self.pick_from(Segment::Probation))
        } else {
            self.pick_from(Segment::Probation).or_else(|| self.pick_from(Segment::Protected))
        }
    }

    fn pick_from(&mut self, seg: Segment) -> Option<Victim> {
        // Pop from the front until VICTIM_WINDOW *live* records are in
        // hand; stale records (superseded epoch or migrated segment)
        // are discarded on the way — this is where lazy re-pushes get
        // collected.
        let mut window: Vec<(CacheKey, u64)> = Vec::with_capacity(VICTIM_WINDOW);
        loop {
            let popped = match seg {
                Segment::Probation => self.probation.pop_front(),
                Segment::Protected => self.protected.pop_front(),
            };
            let Some((key, epoch)) = popped else { break };
            let live = self.meta.get(&key).is_some_and(|m| m.seg == seg && m.epoch == epoch);
            if live {
                window.push((key, epoch));
                if window.len() >= VICTIM_WINDOW {
                    break;
                }
            }
        }
        if window.is_empty() {
            return None;
        }
        // Lowest recompute cost loses; equal costs fall back to queue
        // (insertion/LRU) order, i.e. plain FIFO.
        let victim_at = window
            .iter()
            .enumerate()
            .min_by_key(|(i, (key, _))| (self.meta[key].cost_us, *i))
            .map(|(i, _)| i)
            .expect("window is non-empty");
        let (victim_key, _) = window.remove(victim_at);
        // Survivors return to the front in their original order.
        let queue = match seg {
            Segment::Probation => &mut self.probation,
            Segment::Protected => &mut self.protected,
        };
        for record in window.into_iter().rev() {
            queue.push_front(record);
        }
        let meta = self.meta.remove(&victim_key).expect("victim has metadata");
        self.bytes = self.bytes.saturating_sub(meta.bytes);
        if meta.seg == Segment::Protected {
            self.protected_count -= 1;
            self.protected_bytes = self.protected_bytes.saturating_sub(meta.bytes);
        }
        Some(Victim { key: victim_key, cost_us: meta.cost_us })
    }

    /// Bounds lazy-queue garbage: when either queue carries several
    /// stale records per live entry, rebuild it keeping only current
    /// (segment, epoch) records. Amortized O(1) per hit.
    fn maybe_compact(&mut self) {
        let live = self.meta.len();
        let limit = live.saturating_mul(4) + 64;
        if self.probation.len() + self.protected.len() <= limit {
            return;
        }
        let meta = &self.meta;
        let mut probation = std::mem::take(&mut self.probation);
        probation.retain(|(key, epoch)| {
            meta.get(key).is_some_and(|m| m.seg == Segment::Probation && m.epoch == *epoch)
        });
        self.probation = probation;
        let meta = &self.meta;
        let mut protected = std::mem::take(&mut self.protected);
        protected.retain(|(key, epoch)| {
            meta.get(key).is_some_and(|m| m.seg == Segment::Protected && m.epoch == *epoch)
        });
        self.protected = protected;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u64) -> CacheKey {
        CacheKey { hi: n, lo: !n }
    }

    fn drain(lane: &mut Lane2Q, keys: &[(u64, usize, u64)]) -> Vec<u64> {
        let mut evicted = Vec::new();
        for &(k, bytes, cost) in keys {
            for v in lane.on_insert(key(k), bytes, cost) {
                evicted.push(v.key.hi);
            }
        }
        evicted
    }

    #[test]
    fn equal_costs_reduce_to_fifo() {
        let mut lane = Lane2Q::new(2, usize::MAX);
        let evicted = drain(&mut lane, &[(0, 8, 5), (1, 8, 5), (2, 8, 5), (3, 8, 5)]);
        assert_eq!(evicted, vec![0, 1], "equal-cost eviction must match seed FIFO order");
    }

    #[test]
    fn expensive_entry_survives_cheaper_same_size_neighbor() {
        let mut lane = Lane2Q::new(2, usize::MAX);
        // key 0 is 100x costlier to recompute than key 1; same size.
        // Pressure from keys 2 and 3 must sacrifice the cheap entries
        // and keep key 0 resident.
        let evicted = drain(&mut lane, &[(0, 8, 1000), (1, 8, 10), (2, 8, 10), (3, 8, 10)]);
        assert_eq!(evicted, vec![1, 2]);
        assert!(lane.meta.contains_key(&key(0)), "high-cost entry was evicted");
    }

    #[test]
    fn byte_budget_evicts_independent_of_entry_count() {
        let mut lane = Lane2Q::new(1 << 20, 100);
        let evicted = drain(&mut lane, &[(0, 60, 5), (1, 60, 5)]);
        assert_eq!(evicted, vec![0], "120 bytes over a 100-byte budget must evict");
        assert_eq!(lane.resident_bytes(), 60);
    }

    #[test]
    fn hit_promotes_out_of_probation() {
        let mut lane = Lane2Q::new(2, usize::MAX);
        assert!(lane.on_insert(key(0), 8, 5).is_empty());
        assert!(lane.on_insert(key(1), 8, 5).is_empty());
        lane.on_hit(key(0));
        // Probation now holds only key 1; it is sacrificed before the
        // protected key 0 even though key 0 is older.
        let victims = lane.on_insert(key(2), 8, 5);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].key, key(1));
        assert!(lane.meta.contains_key(&key(0)));
    }

    #[test]
    fn oversized_protected_segment_is_raided_in_lru_order() {
        let mut lane = Lane2Q::new(2, usize::MAX);
        lane.on_insert(key(0), 8, 5);
        lane.on_insert(key(1), 8, 5);
        lane.on_hit(key(0));
        lane.on_hit(key(1));
        lane.on_hit(key(0)); // key 1 is now least-recently-used
                             // Both residents are protected, which exceeds the 3/4 target
                             // for a 2-entry lane — the insert must raid protected (LRU
                             // first) instead of bouncing the newcomer forever.
        let victims = lane.on_insert(key(2), 8, 5);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].key, key(1), "LRU protected entry evicted");
        assert!(lane.meta.contains_key(&key(0)));
        assert!(lane.meta.contains_key(&key(2)), "newcomer admitted");
    }

    #[test]
    fn admission_control_rejects_cheap_newcomer() {
        let mut lane = Lane2Q::new(2, usize::MAX);
        lane.on_insert(key(0), 8, 1000);
        lane.on_insert(key(1), 8, 1000);
        let victims = lane.on_insert(key(2), 8, 1);
        assert_eq!(victims.len(), 1);
        assert_eq!(victims[0].key, key(2), "cheap newcomer must not displace costly residents");
        assert_eq!(victims[0].cost_us, 1);
    }

    #[test]
    fn lazy_queues_stay_bounded_under_repeated_hits() {
        let mut lane = Lane2Q::new(64, usize::MAX);
        for k in 0..8 {
            lane.on_insert(key(k), 8, 5);
        }
        for _ in 0..10_000 {
            for k in 0..8 {
                lane.on_hit(key(k));
            }
        }
        assert!(
            lane.probation.len() + lane.protected.len() <= 8 * 4 + 64 + 8,
            "stale queue records leaked: {} + {}",
            lane.probation.len(),
            lane.protected.len()
        );
    }

    #[test]
    fn byte_accounting_reconciles_after_evictions() {
        let mut lane = Lane2Q::new(4, 1000);
        let mut inserted = 0usize;
        let mut evicted = 0usize;
        for k in 0..32 {
            inserted += 100;
            for v in lane.on_insert(key(k), 100, k) {
                let _ = v;
                evicted += 100;
            }
        }
        assert_eq!(lane.resident_bytes(), inserted - evicted);
        assert!(lane.resident_bytes() <= 1000);
    }

    #[test]
    fn a_replaced_entry_is_resized_where_it_sits() {
        let mut lane = Lane2Q::new(8, 300);
        assert!(drain(&mut lane, &[(1, 100, 5), (2, 100, 5)]).is_empty());
        lane.on_hit(key(1)); // protected, so both byte counts are in play
        assert!(lane.on_replace(key(1), 40, 9).is_empty());
        assert_eq!(lane.resident_bytes(), 140);
        assert_eq!(lane.cost_of(key(1)), Some(9));
        // Growing past the budget evicts like an insert would: the
        // probation entry goes before the protected one that grew.
        let victims = lane.on_replace(key(1), 210, 9);
        assert_eq!(victims, vec![Victim { key: key(2), cost_us: 5 }]);
        assert_eq!(lane.resident_bytes(), 210);
        // A key the policy does not know is an insert.
        assert!(lane.on_replace(key(3), 10, 1).is_empty());
        assert_eq!(lane.resident_bytes(), 220);
    }
}
