//! A small bounded LRU cache with hit/miss accounting: the
//! [`ChatStore`](crate::store::ChatStore)'s read-through cache of
//! decoded [`ChatLogView`](lightor_types::ChatLogView) records.
//!
//! Design: a `HashMap` keyed lookup plus a monotone access tick per
//! entry; eviction scans for the minimum tick. That makes `get`/`insert`
//! O(1) and eviction O(capacity) — the right trade for the small
//! capacity (tens of entries) the cache runs at, where a linked-list
//! LRU's pointer chasing would cost more than the scan. Values are
//! handed out by clone, so cache cheaply clonable handles (a view
//! shares its buffer through an `Arc`).

use std::collections::HashMap;
use std::hash::Hash;

/// Bounded least-recently-used cache.
#[derive(Debug)]
pub struct LruCache<K, V> {
    cap: usize,
    tick: u64,
    map: HashMap<K, (u64, V)>,
    hits: u64,
    misses: u64,
}

impl<K: Eq + Hash + Clone, V: Clone> LruCache<K, V> {
    /// Create a cache holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "LruCache capacity must be at least 1");
        LruCache {
            cap,
            tick: 0,
            map: HashMap::with_capacity(cap),
            hits: 0,
            misses: 0,
        }
    }

    /// Look a key up, refreshing its recency on hit.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some((t, v)) => {
                *t = self.tick;
                self.hits += 1;
                Some(v.clone())
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or replace) an entry, evicting the least recently used
    /// entry when full.
    pub fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if self.map.len() >= self.cap && !self.map.contains_key(&key) {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(k, _)| k.clone())
            {
                self.map.remove(&oldest);
            }
        }
        self.map.insert(key, (self.tick, value));
    }

    /// Drop one entry, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.map.remove(key).map(|(_, v)| v)
    }

    /// Lifetime `get` hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime `get` misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting() {
        let mut c: LruCache<u32, String> = LruCache::new(2);
        assert_eq!(c.get(&1), None);
        c.insert(1, "a".into());
        assert_eq!(c.get(&1).as_deref(), Some("a"));
        assert_eq!((c.hits(), c.misses()), (1, 1));
    }

    #[test]
    fn evicts_least_recently_used() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.get(&1); // 2 is now the LRU entry
        c.insert(3, 30);
        assert_eq!(c.get(&2), None, "LRU entry must be evicted");
        assert_eq!(c.get(&1), Some(10));
        assert_eq!(c.get(&3), Some(30));
        assert_eq!(c.map.len(), 2);
    }

    #[test]
    fn replace_does_not_evict() {
        let mut c: LruCache<u32, u32> = LruCache::new(2);
        c.insert(1, 10);
        c.insert(2, 20);
        c.insert(1, 11); // replacement, not growth
        assert_eq!(c.map.len(), 2);
        assert_eq!(c.get(&1), Some(11));
        assert_eq!(c.get(&2), Some(20));
    }

    #[test]
    fn remove_drops_one_entry() {
        let mut c: LruCache<u32, u32> = LruCache::new(4);
        c.insert(1, 10);
        c.insert(2, 20);
        assert_eq!(c.remove(&1), Some(10));
        assert_eq!(c.remove(&1), None);
        assert_eq!(c.get(&1), None);
        assert_eq!(c.get(&2), Some(20));
    }
}
