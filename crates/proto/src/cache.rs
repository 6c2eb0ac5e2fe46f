//! Rendezvous-node caches.
//!
//! Paper §2.1 assumption 3: *"all nodes have a cache which is large enough
//! to store all (port, address) pairs associated with addresses `i` such
//! that `j ∈ P(i)` … caches are large enough … that they never have to
//! discard one for a server that is still active."* [`Cache`] defaults to
//! unbounded accordingly; a capacity can be set to model Lighthouse-style
//! small caches where *"too-small caches can discard (port, address)
//! pairs"* — eviction is oldest-stamp-first.

use mm_core::Port;
use mm_topo::NodeId;
use std::collections::HashMap;

/// One cached advertisement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Where the server said it was.
    pub addr: NodeId,
    /// When it said so (logical stamp; larger = newer).
    pub stamp: u64,
}

/// A `(port → (address, stamp))` cache with optional capacity.
#[derive(Debug, Clone)]
pub struct Cache {
    entries: HashMap<Port, CacheEntry>,
    /// Most entries kept; `usize::MAX` is unbounded.
    capacity: usize,
}

impl Default for Cache {
    fn default() -> Self {
        Cache::with_capacity(usize::MAX)
    }
}

impl Cache {
    /// Unbounded cache (the Shotgun Locate assumption).
    pub fn new() -> Self {
        Cache::default()
    }

    /// Cache that evicts its oldest entry beyond `capacity` (Lighthouse
    /// Locate's small caches).
    pub fn with_capacity(capacity: usize) -> Self {
        Cache {
            entries: HashMap::new(),
            capacity,
        }
    }

    /// Inserts or refreshes an advertisement. Older stamps never overwrite
    /// newer ones. Reports whether the cache changed.
    pub fn insert(&mut self, port: Port, addr: NodeId, stamp: u64) -> bool {
        match self.entries.get(&port) {
            Some(e) if e.stamp >= stamp => false,
            _ => {
                self.entries.insert(port, CacheEntry { addr, stamp });
                while self.entries.len() > self.capacity {
                    let oldest = self
                        .entries
                        .iter()
                        .min_by_key(|(p, e)| (e.stamp, p.raw()))
                        .map(|(p, _)| *p)
                        .expect("nonempty while over capacity");
                    self.entries.remove(&oldest);
                }
                true
            }
        }
    }

    /// Removes the entry for `port` if its stamp is `<= stamp` (withdrawal
    /// must not erase a newer advertisement). Reports whether an entry was
    /// removed.
    pub fn remove(&mut self, port: Port, stamp: u64) -> bool {
        match self.entries.get(&port) {
            Some(e) if e.stamp <= stamp => {
                self.entries.remove(&port);
                true
            }
            _ => false,
        }
    }

    /// Looks up a port.
    pub fn lookup(&self, port: Port) -> Option<CacheEntry> {
        self.entries.get(&port).copied()
    }

    /// Drops every entry and keeps the capacity (a restored node's lost
    /// volatile memory).
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn port(name: &str) -> Port {
        Port::from_name(name)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c = Cache::new();
        assert!(c.insert(port("a"), NodeId::new(1), 10));
        assert_eq!(
            c.lookup(port("a")),
            Some(CacheEntry {
                addr: NodeId::new(1),
                stamp: 10
            })
        );
        assert_eq!(c.lookup(port("b")), None);
    }

    #[test]
    fn newer_stamp_wins_older_ignored() {
        let mut c = Cache::new();
        c.insert(port("a"), NodeId::new(1), 10);
        assert!(
            !c.insert(port("a"), NodeId::new(2), 5),
            "stale update ignored"
        );
        assert_eq!(c.lookup(port("a")).unwrap().addr, NodeId::new(1));
        assert!(c.insert(port("a"), NodeId::new(3), 20));
        assert_eq!(c.lookup(port("a")).unwrap().addr, NodeId::new(3));
    }

    #[test]
    fn equal_stamp_does_not_flap() {
        let mut c = Cache::new();
        c.insert(port("a"), NodeId::new(1), 10);
        assert!(!c.insert(port("a"), NodeId::new(2), 10));
        assert_eq!(c.lookup(port("a")).unwrap().addr, NodeId::new(1));
    }

    #[test]
    fn remove_respects_stamps() {
        let mut c = Cache::new();
        c.insert(port("a"), NodeId::new(1), 10);
        assert!(
            !c.remove(port("a"), 5),
            "old unpost cannot erase newer post"
        );
        assert!(c.remove(port("a"), 10));
        assert!(c.is_empty());
        assert!(!c.remove(port("a"), 99), "nothing left to remove");
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut c = Cache::with_capacity(2);
        c.insert(port("a"), NodeId::new(1), 1);
        c.insert(port("b"), NodeId::new(2), 2);
        c.insert(port("c"), NodeId::new(3), 3);
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(port("a")), None, "oldest evicted");
        assert!(c.lookup(port("b")).is_some());
        assert!(c.lookup(port("c")).is_some());
    }

    /// Regression: both hosts cleared a node's cache by assigning
    /// `Cache::new()`, which turned a bounded cache into an unbounded one.
    #[test]
    fn clear_keeps_the_capacity() {
        let mut c = Cache::with_capacity(2);
        c.insert(port("a"), NodeId::new(1), 1);
        c.insert(port("b"), NodeId::new(2), 2);
        c.clear();
        assert!(c.is_empty());
        for (i, name) in ["c", "d", "e"].into_iter().enumerate() {
            c.insert(port(name), NodeId::new(3), 3 + i as u64);
        }
        assert_eq!(c.len(), 2, "still bounded after a clear");
        assert_eq!(c.lookup(port("c")), None, "oldest evicted");
    }
}
