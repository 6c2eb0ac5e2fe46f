//! Rendezvous-node caches.
//!
//! Paper §2.1 assumption 3: *"all nodes have a cache which is large enough
//! to store all (port, address) pairs associated with addresses `i` such
//! that `j ∈ P(i)` … caches are large enough … that they never have to
//! discard one for a server that is still active."* [`Cache`] is therefore
//! unbounded: an entry leaves only when a withdrawal or a newer stamp
//! replaces it, or when the node loses its memory.

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

/// A `(port → (address, stamp))` cache.
#[derive(Debug, Clone, Default)]
pub struct Cache {
    entries: HashMap<Port, CacheEntry>,
}

impl Cache {
    /// An empty cache.
    pub fn new() -> Self {
        Cache::default()
    }

    /// Inserts or refreshes an advertisement. Older stamps never overwrite
    /// newer ones. Reports whether the cache changed.
    pub fn insert(&mut self, port: Port, addr: NodeId, stamp: u64) -> bool {
        match self.entries.get(&port) {
            Some(e) if e.stamp >= stamp => false,
            _ => {
                self.entries.insert(port, CacheEntry { addr, stamp });
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

    /// Drops every entry (a restored node's lost volatile memory).
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
    fn clear_empties_and_inserts_work_after() {
        let mut c = Cache::new();
        c.insert(port("a"), NodeId::new(1), 1);
        c.insert(port("b"), NodeId::new(2), 2);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.lookup(port("a")), None);
        assert!(
            c.insert(port("a"), NodeId::new(3), 1),
            "old stamps are forgotten"
        );
        assert!(c.insert(port("c"), NodeId::new(4), 3));
        assert_eq!(c.len(), 2);
        assert_eq!(c.lookup(port("a")).unwrap().addr, NodeId::new(3));
    }
}
