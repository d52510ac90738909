//! Memoization primitives: a stable 128-bit content hash and a sharded
//! LRU map over any [`ShardKey`].
//!
//! The hash names the `scalesim-server` crate's jobs, and keys that
//! server's result cache. The process-wide
//! [`layer_cache`](crate::layer_cache) keys the LRU by the structural
//! [`LayerKey`](crate::layer_cache::LayerKey) instead, compared by
//! equality.
//!
//! Sharding bounds lock contention under a worker pool: each shard owns an
//! independent mutex and an independent LRU list, so concurrent lookups
//! for different keys rarely serialize. Capacity is divided evenly across
//! shards; eviction is per-shard LRU, which approximates global LRU well
//! when the shard bits are well mixed.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

use scalesim_telemetry::{Counter, Gauge};

/// A 128-bit content hash (FNV-1a/128) naming a blob of canonical text.
///
/// Collision odds at design-space-exploration scale (even millions of
/// cached entries) are negligible, and the hash is stable across processes
/// and platforms — a prerequisite for a cache that could later be shared
/// between server shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ContentKey(pub u128);

impl ContentKey {
    const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

    /// Hashes arbitrary content into a key.
    pub fn from_content(bytes: &[u8]) -> ContentKey {
        let mut state = Self::FNV_OFFSET;
        for &b in bytes {
            state ^= u128::from(b);
            state = state.wrapping_mul(Self::FNV_PRIME);
        }
        ContentKey(state)
    }
}

impl fmt::Display for ContentKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// A key a [`ShardedLru`] can hold: compared by equality.
pub trait ShardKey: Copy + Eq + Hash {
    /// Well-mixed bits that pick the key's shard.
    fn shard_bits(&self) -> u64;
}

impl ShardKey for ContentKey {
    // The low 64 bits of an FNV-128 hash are well mixed.
    fn shard_bits(&self) -> u64 {
        self.0 as u64
    }
}

/// Slab sentinel: "no node".
const NIL: usize = usize::MAX;

/// A fixed-capacity sharded LRU map from keys to values.
///
/// Optionally instrumented via [`ShardedLru::with_metrics`]: an eviction
/// counter and a resident-entries gauge, updated as entries come and go.
pub struct ShardedLru<K, V> {
    shards: Box<[Mutex<Shard<K, V>>]>,
    evictions: Option<Arc<Counter>>,
    resident: Option<Arc<Gauge>>,
}

struct Shard<K, V> {
    /// key -> slab slot
    index: HashMap<K, usize>,
    slab: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
}

struct Node<K, V> {
    key: K,
    value: V,
    prev: usize,
    next: usize,
}

impl<K: ShardKey, V: Clone> ShardedLru<K, V> {
    /// Creates a cache holding at most `capacity` entries spread over
    /// `shards` shards (both forced to at least 1; per-shard capacity is
    /// rounded up so total capacity is never below the request).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = capacity.max(1).div_ceil(shards);
        let shards = (0..shards)
            .map(|_| {
                Mutex::new(Shard {
                    index: HashMap::new(),
                    slab: Vec::new(),
                    free: Vec::new(),
                    head: NIL,
                    tail: NIL,
                    capacity: per_shard,
                })
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        ShardedLru {
            shards,
            evictions: None,
            resident: None,
        }
    }

    /// Attaches telemetry: `evictions` increments on every LRU eviction,
    /// `resident` tracks the live entry count.
    pub fn with_metrics(mut self, evictions: Arc<Counter>, resident: Arc<Gauge>) -> Self {
        self.evictions = Some(evictions);
        self.resident = Some(resident);
        self
    }

    fn shard(&self, key: K) -> &Mutex<Shard<K, V>> {
        &self.shards[(key.shard_bits() % self.shards.len() as u64) as usize]
    }

    /// Looks up `key`, promoting it to most-recently-used on a hit.
    pub fn get(&self, key: K) -> Option<V> {
        let mut shard = self.shard(key).lock().unwrap();
        let slot = *shard.index.get(&key)?;
        shard.promote(slot);
        Some(shard.slab[slot].value.clone())
    }

    /// Inserts `key -> value`, evicting the least-recently-used entry of the
    /// target shard if it is full. Replaces (and promotes) on re-insert.
    pub fn insert(&self, key: K, value: V) {
        let mut shard = self.shard(key).lock().unwrap();
        if let Some(&slot) = shard.index.get(&key) {
            shard.slab[slot].value = value;
            shard.promote(slot);
            return;
        }
        let evicted = shard.index.len() >= shard.capacity && shard.evict_tail();
        if evicted {
            if let Some(evictions) = &self.evictions {
                evictions.inc();
            }
        } else if let Some(resident) = &self.resident {
            // A new entry without an eviction grows the cache by one;
            // evict-then-insert nets zero residents.
            resident.add(1);
        }
        let slot = match shard.free.pop() {
            Some(slot) => {
                shard.slab[slot] = Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                slot
            }
            None => {
                shard.slab.push(Node {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                shard.slab.len() - 1
            }
        };
        shard.index.insert(key, slot);
        shard.push_front(slot);
    }

    /// Number of live entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().index.len())
            .sum()
    }

    /// Whether the cache currently holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (all shards), releasing the slabs. The resident
    /// gauge is decremented by the number of removed entries; dropped
    /// entries do not count as evictions (this is a reset, not pressure).
    pub fn clear(&self) {
        let mut removed = 0i64;
        for shard in self.shards.iter() {
            let mut shard = shard.lock().unwrap();
            removed += shard.index.len() as i64;
            shard.index.clear();
            shard.slab.clear();
            shard.free.clear();
            shard.head = NIL;
            shard.tail = NIL;
        }
        if let Some(resident) = &self.resident {
            resident.sub(removed);
        }
    }
}

impl<K: ShardKey, V> Shard<K, V> {
    fn detach(&mut self, slot: usize) {
        let (prev, next) = (self.slab[slot].prev, self.slab[slot].next);
        match prev {
            NIL => self.head = next,
            p => self.slab[p].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n].prev = prev,
        }
        self.slab[slot].prev = NIL;
        self.slab[slot].next = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.slab[slot].prev = NIL;
        self.slab[slot].next = self.head;
        match self.head {
            NIL => self.tail = slot,
            h => self.slab[h].prev = slot,
        }
        self.head = slot;
    }

    fn promote(&mut self, slot: usize) {
        if self.head != slot {
            self.detach(slot);
            self.push_front(slot);
        }
    }

    /// Evicts the least-recently-used entry; false if the shard was empty.
    fn evict_tail(&mut self) -> bool {
        let tail = self.tail;
        if tail == NIL {
            return false;
        }
        self.detach(tail);
        let key = self.slab[tail].key;
        self.index.remove(&key);
        self.free.push(tail);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl ShardKey for u128 {
        fn shard_bits(&self) -> u64 {
            *self as u64
        }
    }

    #[test]
    fn content_key_is_stable_and_discriminating() {
        let a = ContentKey::from_content(b"hello");
        assert_eq!(a, ContentKey::from_content(b"hello"));
        assert_ne!(a, ContentKey::from_content(b"hello!"));
        // 128-bit FNV-1a of the empty string is the offset basis.
        assert_eq!(
            ContentKey::from_content(b"").to_string(),
            "6c62272e07bb014262b821756295c58d"
        );
    }

    #[test]
    fn hit_and_miss() {
        let lru = ShardedLru::new(8, 2);
        assert!(lru.is_empty());
        lru.insert(1, "a");
        lru.insert(2, "b");
        assert_eq!(lru.get(1), Some("a"));
        assert_eq!(lru.get(3), None);
        assert_eq!(lru.len(), 2);
    }

    #[test]
    fn reinsert_replaces() {
        let lru = ShardedLru::new(4, 1);
        lru.insert(1, "a");
        lru.insert(1, "a2");
        assert_eq!(lru.get(1), Some("a2"));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn evicts_least_recently_used() {
        let lru = ShardedLru::new(2, 1);
        lru.insert(1, 1);
        lru.insert(2, 2);
        assert_eq!(lru.get(1), Some(1)); // promote 1; LRU is now 2
        lru.insert(3, 3);
        assert_eq!(lru.get(2), None);
        assert_eq!(lru.get(1), Some(1));
        assert_eq!(lru.get(3), Some(3));
    }

    #[test]
    fn eviction_recycles_slots() {
        let lru = ShardedLru::new(2, 1);
        for k in 0..100u128 {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.get(99), Some(99));
        assert_eq!(lru.get(98), Some(98));
        assert_eq!(lru.get(0), None);
    }

    #[test]
    fn shards_partition_the_key_space() {
        let lru = ShardedLru::new(64, 8);
        for k in 0..64u128 {
            lru.insert(k, k);
        }
        assert_eq!(lru.len(), 64);
        for k in 0..64u128 {
            assert_eq!(lru.get(k), Some(k));
        }
    }

    #[test]
    fn metrics_track_residency_and_evictions() {
        let evictions = Arc::new(Counter::new());
        let resident = Arc::new(Gauge::new());
        let lru = ShardedLru::new(2, 1).with_metrics(Arc::clone(&evictions), Arc::clone(&resident));
        lru.insert(1, 1);
        lru.insert(2, 2);
        assert_eq!(resident.get(), 2);
        assert_eq!(evictions.get(), 0);
        lru.insert(2, 20); // replace: no residency change, no eviction
        assert_eq!(resident.get(), 2);
        lru.insert(3, 3); // full: evicts key 1
        assert_eq!(resident.get(), 2);
        assert_eq!(evictions.get(), 1);
        assert_eq!(lru.get(1), None);
        assert_eq!(resident.get() as usize, lru.len());
    }

    #[test]
    fn clear_empties_all_shards_and_fixes_the_gauge() {
        let evictions = Arc::new(Counter::new());
        let resident = Arc::new(Gauge::new());
        let lru =
            ShardedLru::new(16, 4).with_metrics(Arc::clone(&evictions), Arc::clone(&resident));
        for k in 0..10u128 {
            lru.insert(k, k);
        }
        assert_eq!(resident.get(), 10);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(resident.get(), 0);
        assert_eq!(evictions.get(), 0, "clear is not an eviction");
        // Reusable after clear.
        lru.insert(3, 33);
        assert_eq!(lru.get(3), Some(33));
        assert_eq!(resident.get(), 1);
    }

    #[test]
    fn concurrent_access_is_safe() {
        use std::sync::Arc;
        let lru = Arc::new(ShardedLru::new(128, 8));
        std::thread::scope(|s| {
            for t in 0..4u128 {
                let lru = Arc::clone(&lru);
                s.spawn(move || {
                    for i in 0..256u128 {
                        let k = t * 1000 + i;
                        lru.insert(k, k);
                        assert!(lru.get(k).is_some() || lru.len() <= 128);
                    }
                });
            }
        });
        assert!(lru.len() <= 128);
    }
}
