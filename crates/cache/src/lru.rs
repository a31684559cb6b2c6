//! A cost-budgeted LRU core.
//!
//! Classic intrusive doubly-linked list over a slab, indexed by a hash
//! map, with caller-supplied per-entry costs. Used with byte costs by the
//! database cache and entry counts by the triangle cache.
//!
//! An entry whose cost alone exceeds the whole budget is rejected at
//! insert (never cached) — matching the intuition that a single adjacency
//! set larger than the configured cache should not wipe the cache.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Node<K, V> {
    key: K,
    value: V,
    cost: u64,
    prev: usize,
    next: usize,
}

/// A least-recently-used cache with a total cost budget.
#[derive(Debug)]
pub struct Lru<K: Eq + Hash + Clone, V> {
    map: HashMap<K, usize>,
    nodes: Vec<Node<K, V>>,
    free: Vec<usize>,
    head: usize, // most recently used
    tail: usize, // least recently used
    capacity: u64,
    used: u64,
}

impl<K: Eq + Hash + Clone, V> Lru<K, V> {
    /// Creates a cache with the given total cost budget.
    pub fn new(capacity: u64) -> Self {
        Lru {
            map: HashMap::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            used: 0,
        }
    }

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of entry costs currently held.
    pub fn used_cost(&self) -> u64 {
        self.used
    }

    /// The configured budget.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    fn detach(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    /// Looks up a key, promoting it to most-recently-used on a hit.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let idx = *self.map.get(key)?;
        if idx != self.head {
            self.detach(idx);
            self.push_front(idx);
        }
        Some(&self.nodes[idx].value)
    }

    /// Peeks without promoting.
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key).map(|&idx| &self.nodes[idx].value)
    }

    /// Inserts (or replaces) an entry with the given cost, evicting from
    /// the LRU end until the budget holds. Returns the number of entries
    /// evicted. Oversized entries (cost > capacity) are not cached.
    pub fn insert(&mut self, key: K, value: V, cost: u64) -> usize {
        if let Some(&idx) = self.map.get(&key) {
            // Replace in place; adjust cost accounting.
            self.used = self.used - self.nodes[idx].cost + cost;
            self.nodes[idx].value = value;
            self.nodes[idx].cost = cost;
            if idx != self.head {
                self.detach(idx);
                self.push_front(idx);
            }
            return self.evict_to_budget();
        }
        if cost > self.capacity {
            return 0;
        }
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx] = Node {
                key: key.clone(),
                value,
                cost,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                key: key.clone(),
                value,
                cost,
                prev: NIL,
                next: NIL,
            });
            self.nodes.len() - 1
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        self.used += cost;
        self.evict_to_budget()
    }

    fn evict_to_budget(&mut self) -> usize {
        let mut evicted = 0;
        while self.used > self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL, "cost accounting out of sync");
            self.detach(victim);
            self.used -= self.nodes[victim].cost;
            self.map.remove(&self.nodes[victim].key);
            self.free.push(victim);
            evicted += 1;
        }
        evicted
    }

    /// Removes a specific key; returns true if it was present.
    pub fn remove(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.remove(key) else {
            return false;
        };
        self.detach(idx);
        self.used -= self.nodes[idx].cost;
        self.free.push(idx);
        true
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.used = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_least_recently_used_first() {
        let mut lru: Lru<u32, u32> = Lru::new(3);
        lru.insert(1, 10, 1);
        lru.insert(2, 20, 1);
        lru.insert(3, 30, 1);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(lru.get(&1), Some(&10));
        let evicted = lru.insert(4, 40, 1);
        assert_eq!(evicted, 1);
        assert!(lru.peek(&2).is_none());
        assert_eq!(lru.peek(&1), Some(&10));
    }

    #[test]
    fn cost_accounting_with_mixed_sizes() {
        let mut lru: Lru<u32, ()> = Lru::new(10);
        lru.insert(1, (), 4);
        lru.insert(2, (), 4);
        assert_eq!(lru.used_cost(), 8);
        // Inserting cost 6 evicts both 1 and 2 (LRU order).
        let evicted = lru.insert(3, (), 6);
        assert_eq!(evicted, 1); // 8 + 6 = 14 > 10 → evict 1 (cost 4) → 10 ok
        assert_eq!(lru.used_cost(), 10);
        assert!(lru.peek(&1).is_none());
        assert!(lru.peek(&2).is_some());
    }

    #[test]
    fn oversized_entries_are_rejected() {
        let mut lru: Lru<u32, ()> = Lru::new(5);
        lru.insert(1, (), 2);
        lru.insert(2, (), 9); // larger than the whole budget
        assert!(lru.peek(&2).is_none());
        assert!(lru.peek(&1).is_some());
        assert_eq!(lru.used_cost(), 2);
    }

    #[test]
    fn replace_updates_cost() {
        let mut lru: Lru<u32, u32> = Lru::new(10);
        lru.insert(1, 10, 3);
        lru.insert(1, 11, 7);
        assert_eq!(lru.used_cost(), 7);
        assert_eq!(lru.get(&1), Some(&11));
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn remove_and_reuse_slots() {
        let mut lru: Lru<u32, u32> = Lru::new(100);
        lru.insert(1, 1, 1);
        lru.insert(2, 2, 1);
        assert!(lru.remove(&1));
        assert!(!lru.remove(&1));
        lru.insert(3, 3, 1);
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.used_cost(), 2);
        assert_eq!(lru.get(&2), Some(&2));
        assert_eq!(lru.get(&3), Some(&3));
    }

    #[test]
    fn clear_empties_cache() {
        let mut lru: Lru<u32, ()> = Lru::new(10);
        lru.insert(1, (), 1);
        lru.clear();
        assert!(lru.is_empty());
        assert_eq!(lru.used_cost(), 0);
        assert!(lru.get(&1).is_none());
    }

    #[test]
    fn stress_random_ops_stay_within_budget() {
        // Deterministic pseudo-random workload.
        let mut lru: Lru<u32, u32> = Lru::new(64);
        let mut state = 0x12345678u32;
        for _ in 0..10_000 {
            state = state.wrapping_mul(1664525).wrapping_add(1013904223);
            let key = state % 97;
            let cost = 1 + (state >> 8) % 9;
            if state.is_multiple_of(3) {
                lru.get(&key);
            } else {
                lru.insert(key, state, cost as u64);
            }
            assert!(lru.used_cost() <= 64);
        }
    }
}
