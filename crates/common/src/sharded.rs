//! A sharded concurrent memo map for deterministic, idempotent values.
//!
//! The cross-query comparison-decision memo of the ER crate has this
//! access pattern: many readers and writers hit a `u64`-keyed map (a
//! packed record pair) from parallel sweeps, every value is a pure
//! function of its key (plus index state), and a racing recomputation
//! is wasted work but never wrong. [`ShardedMap`] serves that pattern
//! with `N` parking_lot-mutexed [`FxHashMap`] shards: the batch paths
//! ([`ShardedMap::get_batch`], [`ShardedMap::insert_batch`]) lock each
//! shard once per call, and callers compute the missing values between
//! the two with no lock held, so a slow computation never serializes
//! unrelated keys.
//!
//! # Bounded mode
//!
//! [`ShardedMap::bounded`] caps the map at an entry budget, split
//! evenly across shards, with per-shard CLOCK (clock-hand) eviction:
//! each shard keeps its keys on an insertion ring with one *referenced*
//! bit per entry; a hit sets the bit, and an insert into a full shard
//! advances the hand, clearing bits until it finds an unreferenced
//! victim to replace. CLOCK approximates LRU without any
//! reorder-on-access bookkeeping, so the hit path stays one hash probe
//! plus a bit store. Because every value is a pure function of its key,
//! eviction can never produce a wrong answer — only a recomputation —
//! which is what makes a *lossy* memo safe here.

use crate::fxhash::FxHashMap;
use parking_lot::Mutex;

/// Default shard count — enough to keep 8–16 worker threads from
/// serializing on one mutex while staying cache-friendly.
const DEFAULT_SHARDS: usize = 16;

/// One shard: the key→value map (each value carrying its CLOCK
/// *referenced* bit) plus the insertion ring and hand driving eviction.
/// `ring`/`hand` stay empty/0 in unbounded maps.
#[derive(Debug)]
struct Shard<V> {
    map: FxHashMap<u64, (V, bool)>,
    /// Keys in slot order; `ring.len() == map.len()` once the shard has
    /// filled to its cap, and each slot mirrors exactly one map key.
    ring: Vec<u64>,
    /// Next eviction candidate slot in `ring`.
    hand: usize,
}

impl<V> Default for Shard<V> {
    fn default() -> Self {
        Self {
            map: FxHashMap::default(),
            ring: Vec::new(),
            hand: 0,
        }
    }
}

/// A concurrent `u64 → V` memo map split across mutexed shards,
/// optionally bounded with CLOCK eviction (see the module docs).
///
/// Values must be cheap to clone (`f64`, `bool`, `Arc<…>`): accessors
/// return clones so no shard lock outlives a call. Intended for
/// *deterministic* values — when two threads race on the same absent
/// key, both may compute, and the first insertion wins; callers must
/// guarantee both computations would produce the same value.
#[derive(Debug)]
pub struct ShardedMap<V> {
    shards: Box<[Mutex<Shard<V>>]>,
    /// `shards.len() - 1`; the length is a power of two.
    mask: u64,
    /// Per-shard entry cap; `usize::MAX` = unbounded.
    shard_cap: usize,
}

/// First-write-wins insert into one locked shard, evicting via the
/// CLOCK hand when the shard is at `cap`. Returns the stored value (the
/// existing one on conflict). Free function so the batch paths can call
/// it while holding the shard guard.
fn insert_into<V: Clone>(shard: &mut Shard<V>, cap: usize, key: u64, value: V) -> V {
    if let Some(e) = shard.map.get_mut(&key) {
        if cap != usize::MAX {
            e.1 = true;
        }
        return e.0.clone();
    }
    if cap != usize::MAX && shard.map.len() >= cap {
        // CLOCK sweep: give every referenced entry a second chance,
        // evict the first unreferenced one. Terminates within two laps
        // (the first lap clears every bit it passes).
        loop {
            let victim = shard.ring[shard.hand];
            let e = shard
                .map
                .get_mut(&victim)
                .expect("ring slots mirror map keys");
            if e.1 {
                e.1 = false;
                shard.hand = (shard.hand + 1) % shard.ring.len();
            } else {
                shard.map.remove(&victim);
                shard.ring[shard.hand] = key;
                shard.hand = (shard.hand + 1) % shard.ring.len();
                // New entries start unreferenced: only an actual hit
                // earns the second chance, so a one-shot insert stream
                // can't starve the hand.
                shard.map.insert(key, (value.clone(), false));
                return value;
            }
        }
    }
    if cap != usize::MAX {
        shard.ring.push(key);
    }
    shard.map.insert(key, (value.clone(), false));
    value
}

impl<V: Clone> ShardedMap<V> {
    /// Creates an empty unbounded map with the default shard count.
    pub fn new() -> Self {
        Self::with_shards(DEFAULT_SHARDS)
    }

    /// Creates an empty unbounded map with at least `shards` shards
    /// (rounded up to a power of two, minimum 1).
    pub fn with_shards(shards: usize) -> Self {
        Self::with_shards_and_cap(shards, usize::MAX)
    }

    /// Creates an empty map bounded at `cap` entries total (`0` =
    /// unbounded), evicting per shard with the CLOCK rule once full.
    ///
    /// The budget is split evenly across shards — the shard count drops
    /// to a power of two ≤ `cap` when the cap is small — and the floor
    /// division guarantees `len()` can never exceed `cap`.
    pub fn bounded(cap: usize) -> Self {
        if cap == 0 {
            return Self::new();
        }
        // Largest power of two ≤ min(DEFAULT_SHARDS, cap), so every
        // shard gets a cap of at least one entry.
        let n = DEFAULT_SHARDS.min(prev_power_of_two(cap));
        Self::with_shards_and_cap(n, cap / n)
    }

    fn with_shards_and_cap(shards: usize, shard_cap: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        let shards: Vec<Mutex<Shard<V>>> = (0..n).map(|_| Mutex::new(Shard::default())).collect();
        Self {
            shards: shards.into_boxed_slice(),
            mask: (n - 1) as u64,
            shard_cap,
        }
    }

    /// The total entry budget, or `None` when unbounded. May round the
    /// cap passed to [`ShardedMap::bounded`] down (even split across
    /// shards), never up.
    pub fn capacity(&self) -> Option<usize> {
        (self.shard_cap != usize::MAX).then(|| self.shard_cap * self.shards.len())
    }

    /// Index of the shard a key lives in. Keys are often sequential ids
    /// or packed id pairs, so the raw low bits would pile neighbouring
    /// keys into one shard; a Fibonacci multiply spreads them first.
    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        let spread = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        (spread & self.mask) as usize
    }

    #[inline]
    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        &self.shards[self.shard_of(key)]
    }

    /// Returns a clone of the value under `key`, if present. In bounded
    /// maps a hit also marks the entry *referenced* for the CLOCK rule.
    #[inline]
    pub fn get(&self, key: u64) -> Option<V> {
        let mut guard = self.shard(key).lock();
        if self.shard_cap == usize::MAX {
            return guard.map.get(&key).map(|e| e.0.clone());
        }
        guard.map.get_mut(&key).map(|e| {
            e.1 = true;
            e.0.clone()
        })
    }

    /// Inserts `value` unless the key is already present; returns the
    /// stored value (the existing one on conflict — first write wins,
    /// so racing computations of one deterministic value agree).
    pub fn insert_if_absent(&self, key: u64, value: V) -> V {
        insert_into(&mut self.shard(key).lock(), self.shard_cap, key, value)
    }

    /// Groups `0..n` key indices by shard with a stable counting sort:
    /// returns per-shard offsets into the returned order array. One
    /// `shard_of` per key, O(n) total — the batch operations below then
    /// lock each shard exactly once and visit only its own keys.
    fn group_by_shard(&self, keys: &[u64]) -> (Vec<u32>, Vec<u32>) {
        let n_shards = self.shards.len();
        let mut offsets = vec![0u32; n_shards + 1];
        let shard_ids: Vec<u32> = keys.iter().map(|&k| self.shard_of(k) as u32).collect();
        for &s in &shard_ids {
            offsets[s as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0u32; keys.len()];
        for (i, &s) in shard_ids.iter().enumerate() {
            let c = &mut cursor[s as usize];
            order[*c as usize] = i as u32;
            *c += 1;
        }
        (offsets, order)
    }

    /// Batched lookup: `out[i]` receives the cached value of `keys[i]`
    /// (or `None`). Probes are grouped so each shard is locked at most
    /// once per call instead of once per key — the shape the decision
    /// cache's probe pass wants for tens of thousands of pairs.
    pub fn get_batch(&self, keys: &[u64], out: &mut Vec<Option<V>>) {
        out.clear();
        out.resize(keys.len(), None);
        let (offsets, order) = self.group_by_shard(keys);
        for (shard_at, shard) in self.shards.iter().enumerate() {
            let mine = &order[offsets[shard_at] as usize..offsets[shard_at + 1] as usize];
            if mine.is_empty() {
                continue;
            }
            let mut guard = shard.lock();
            if guard.map.is_empty() {
                continue;
            }
            for &i in mine {
                let key = keys[i as usize];
                out[i as usize] = if self.shard_cap == usize::MAX {
                    guard.map.get(&key).map(|e| e.0.clone())
                } else {
                    guard.map.get_mut(&key).map(|e| {
                        e.1 = true;
                        e.0.clone()
                    })
                };
            }
        }
    }

    /// Batched first-write-wins insertion, locking each shard at most
    /// once per call.
    pub fn insert_batch(&self, entries: &[(u64, V)]) {
        let keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        let (offsets, order) = self.group_by_shard(&keys);
        for (shard_at, shard) in self.shards.iter().enumerate() {
            let mine = &order[offsets[shard_at] as usize..offsets[shard_at + 1] as usize];
            if mine.is_empty() {
                continue;
            }
            let mut guard = shard.lock();
            for &i in mine {
                let (key, value) = &entries[i as usize];
                insert_into(&mut guard, self.shard_cap, *key, value.clone());
            }
        }
    }

    /// Grows each shard's hash capacity for about `additional` more
    /// entries across the map, so a bulk fill (e.g. the decision
    /// cache's insert pass for one comparison batch) never rehashes
    /// mid-insert. Bounded maps clamp to their cap — eviction makes
    /// extra room pointless.
    pub fn reserve(&self, additional: usize) {
        let per_shard = additional.div_ceil(self.shards.len());
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            let want = if self.shard_cap == usize::MAX {
                per_shard
            } else {
                per_shard.min(self.shard_cap.saturating_sub(guard.map.len()))
            };
            guard.map.reserve(want);
        }
    }

    /// Number of cached entries across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().map.len()).sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.lock().map.is_empty())
    }

    /// Drops every cached entry, keeping shard allocations.
    pub fn clear(&self) {
        for s in self.shards.iter() {
            let mut guard = s.lock();
            guard.map.clear();
            guard.ring.clear();
            guard.hand = 0;
        }
    }

    /// Keeps only the entries for which `pred(key)` holds, locking each
    /// shard once. Used by the ingest path to drop e.g. every cached
    /// pair decision that touches a mutated record without enumerating
    /// the cache's keys up front.
    pub fn retain(&self, mut pred: impl FnMut(u64) -> bool) {
        for s in self.shards.iter() {
            let mut guard = s.lock();
            let before = guard.map.len();
            guard.map.retain(|&k, _| pred(k));
            if guard.map.len() != before {
                rebuild_ring(&mut guard, self.shard_cap);
            }
        }
    }
}

/// Restores the CLOCK invariant (`ring` mirrors the map's keys) after
/// entries were removed from a bounded shard. Surviving entries keep
/// their referenced bits; the hand restarts at slot 0, which only
/// perturbs the eviction *order*, never correctness.
fn rebuild_ring<V>(shard: &mut Shard<V>, shard_cap: usize) {
    if shard_cap == usize::MAX {
        return;
    }
    let map = &shard.map;
    shard.ring.retain(|k| map.contains_key(k));
    shard.hand = 0;
}

/// Largest power of two ≤ `n` (`n ≥ 1`).
fn prev_power_of_two(n: usize) -> usize {
    debug_assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

impl<V: Clone> Default for ShardedMap<V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins() {
        let m: ShardedMap<u32> = ShardedMap::new();
        assert_eq!(m.insert_if_absent(1, 10), 10);
        assert_eq!(m.insert_if_absent(1, 20), 10);
        assert_eq!(m.get(1), Some(10));
    }

    #[test]
    fn len_clear_and_spread() {
        let m: ShardedMap<bool> = ShardedMap::with_shards(4);
        for k in 0..100u64 {
            m.insert_if_absent(k, k % 2 == 0);
        }
        assert_eq!(m.len(), 100);
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn batch_ops_match_single_key_ops() {
        let m: ShardedMap<u64> = ShardedMap::with_shards(4);
        let keys: Vec<u64> = (0..500u64).map(|k| k.wrapping_mul(0x51ab)).collect();
        // Insert the even-indexed keys, first-write-wins semantics.
        let entries: Vec<(u64, u64)> = keys.iter().step_by(2).map(|&k| (k, k + 1)).collect();
        m.insert_batch(&entries);
        m.insert_batch(&[(keys[0], 999)]); // must not overwrite
        let mut out = Vec::new();
        m.get_batch(&keys, &mut out);
        assert_eq!(out.len(), keys.len());
        for (i, (&k, got)) in keys.iter().zip(&out).enumerate() {
            let want = if i % 2 == 0 { Some(k + 1) } else { None };
            assert_eq!(*got, want, "key index {i}");
            assert_eq!(m.get(k), want, "single-key get must agree");
        }
        // Empty batches are no-ops.
        m.insert_batch(&[]);
        m.get_batch(&[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn shard_count_rounds_up() {
        // 3 rounds to 4, 0 clamps to 1; both must behave identically.
        for shards in [0usize, 1, 3, 16] {
            let m: ShardedMap<u8> = ShardedMap::with_shards(shards);
            m.insert_if_absent(u64::MAX, 9);
            assert_eq!(m.get(u64::MAX), Some(9));
        }
    }

    #[test]
    fn concurrent_dedup_is_benign() {
        let m: ShardedMap<u64> = ShardedMap::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for k in 0..256u64 {
                        // Deterministic value per key: racing inserts
                        // agree, so every thread must read k * 3.
                        assert_eq!(m.insert_if_absent(k, k * 3), k * 3);
                    }
                });
            }
        });
        assert_eq!(m.len(), 256);
    }

    #[test]
    fn bounded_cap_zero_is_unbounded() {
        let m: ShardedMap<u8> = ShardedMap::bounded(0);
        assert_eq!(m.capacity(), None);
        for k in 0..1000u64 {
            m.insert_if_absent(k, 1);
        }
        assert_eq!(m.len(), 1000);
    }

    #[test]
    fn bounded_respects_entry_budget() {
        for cap in [1usize, 2, 3, 7, 16, 100, 1000] {
            let m: ShardedMap<u64> = ShardedMap::bounded(cap);
            let effective = m.capacity().unwrap();
            assert!(effective >= 1 && effective <= cap, "cap {cap}");
            for k in 0..5000u64 {
                m.insert_if_absent(k, k);
                assert!(m.len() <= cap, "len exceeded budget at cap {cap}");
            }
            assert_eq!(m.len(), effective, "a full stream fills the budget");
            // Survivors still serve correct values.
            for k in 0..5000u64 {
                if let Some(v) = m.get(k) {
                    assert_eq!(v, k);
                }
            }
        }
    }

    #[test]
    fn clock_eviction_prefers_unreferenced_victims() {
        // Single shard of cap 4 so the hand's behaviour is observable.
        let m: ShardedMap<u64> = ShardedMap::with_shards_and_cap(1, 4);
        for k in 0..4u64 {
            m.insert_if_absent(k, k);
        }
        // Touch keys 0 and 1 → referenced; 2 and 3 stay cold. Inserts
        // give second chances to 0 and 1, so 2 then 3 must go first.
        assert_eq!(m.get(0), Some(0));
        assert_eq!(m.get(1), Some(1));
        m.insert_if_absent(100, 100);
        assert_eq!(m.get(2), None, "cold entry evicted before hot ones");
        m.insert_if_absent(101, 101);
        assert_eq!(m.get(3), None, "next cold entry follows");
        for k in [0u64, 1, 100, 101] {
            assert_eq!(m.get(k), Some(k), "hot/new entries survive");
        }
        assert_eq!(m.len(), 4);
    }

    #[test]
    fn bounded_batch_ops_respect_budget() {
        let m: ShardedMap<u64> = ShardedMap::bounded(64);
        let entries: Vec<(u64, u64)> = (0..4096u64).map(|k| (k, k)).collect();
        m.insert_batch(&entries);
        assert!(m.len() <= 64);
        let keys: Vec<u64> = (0..4096u64).collect();
        let mut out = Vec::new();
        m.get_batch(&keys, &mut out);
        let hits = out.iter().flatten().count();
        assert_eq!(hits, m.len());
        for (k, got) in keys.iter().zip(&out) {
            if let Some(v) = got {
                assert_eq!(v, k);
            }
        }
    }

    #[test]
    fn retain_drops_only_its_keys() {
        for bounded in [false, true] {
            let m: ShardedMap<u64> = if bounded {
                ShardedMap::bounded(1024)
            } else {
                ShardedMap::new()
            };
            for k in 0..100u64 {
                m.insert_if_absent(k, k * 2);
            }
            // Drop a scattered subset, then another slice of the rest.
            m.retain(|k| k % 3 != 0);
            for k in 0..100u64 {
                let want = (k % 3 != 0).then_some(k * 2);
                assert_eq!(m.get(k), want, "bounded={bounded} key {k}");
            }
            m.retain(|k| k % 5 != 1);
            for k in 0..100u64 {
                let want = (k % 3 != 0 && k % 5 != 1).then_some(k * 2);
                assert_eq!(m.get(k), want, "bounded={bounded} key {k}");
            }
            // The survivors still accept inserts and (bounded) evictions:
            // the CLOCK hand must never meet a slot of a dropped key.
            for k in 200..2200u64 {
                m.insert_if_absent(k, k * 2);
                if bounded {
                    assert!(m.len() <= 1024);
                }
            }
            if let Some(v) = m.get(201) {
                assert_eq!(v, 402);
            }
        }
    }

    #[test]
    fn reserve_never_breaks_semantics() {
        let unbounded: ShardedMap<u64> = ShardedMap::new();
        unbounded.reserve(10_000);
        unbounded.insert_if_absent(5, 50);
        assert_eq!(unbounded.get(5), Some(50));
        let bounded: ShardedMap<u64> = ShardedMap::bounded(8);
        bounded.reserve(10_000); // clamped to the cap internally
        for k in 0..100u64 {
            bounded.insert_if_absent(k, k);
        }
        assert!(bounded.len() <= 8);
    }

    #[test]
    fn concurrent_bounded_access_stays_capped_and_consistent() {
        // Eviction must never serve a torn/wrong value mid-read: every
        // get that hits must return the key's deterministic value, and
        // the budget must hold at every point, under 8 threads racing
        // insert_if_absent over a keyspace 16× the cap.
        let m: ShardedMap<u64> = ShardedMap::bounded(64);
        std::thread::scope(|s| {
            for t in 0..8u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..2048u64 {
                        let k = (i * 7 + t * 131) % 1024;
                        assert_eq!(m.insert_if_absent(k, k * 3), k * 3);
                        if let Some(v) = m.get((k + 13) % 1024) {
                            assert_eq!(v, ((k + 13) % 1024) * 3);
                        }
                        assert!(m.len() <= 64);
                    }
                });
            }
        });
        assert!(m.len() <= 64 && !m.is_empty());
    }
}
