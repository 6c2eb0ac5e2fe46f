//! Interning of resolver target sets.
//!
//! Post and query sets are pure functions of `(node, port)` — servers
//! re-post the same `P(i)` on every refresh, and clients at the same node
//! re-query the same `Q(j)` for every locate. [`TargetInterner`] memoizes
//! the resolver's answers as shared [`TargetSet`]s, so the engine hands
//! the simulator a reference-counted pointer instead of a freshly
//! allocated (and then repeatedly cloned) `Vec<NodeId>` per operation.
//!
//! The cache is bounded: once the configured number of cached node ids is
//! reached, further sets are still converted to [`TargetSet`] (one
//! allocation, no clones downstream) but not retained — at 64k nodes a
//! full per-client query-set cache would dwarf the simulation itself.
//! Caching is invisible to behavior: hit or miss, the same canonical set
//! is produced, so seeded runs stay byte-identical.

use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_sim::TargetSet;
use mm_topo::NodeId;
use std::collections::HashMap;

/// Default bound on retained ids (`4 Mi` ids ≈ 16 MiB of cached sets).
const DEFAULT_ID_BUDGET: usize = 4 << 20;

/// Memoizes `P(i, π)` / `Q(j, π)` resolver calls as shared [`TargetSet`]s.
///
/// # Concurrency (live host audit)
///
/// The interner lives on the *coordinator* side — the simulator engine,
/// or the thread driving a `LiveNet` — and is only ever touched through
/// `&mut self`. The live host's node threads never see it; they only
/// hold the `TargetSet` clones already embedded in in-flight messages
/// (safe: atomically refcounted, immutable contents). No interior
/// mutability is involved anywhere on this path. The assertion below pins
/// the types as `Send + Sync` so any future cell/`Rc`-based
/// "optimization" of the cache is caught at compile time rather than as
/// a data race.
#[derive(Debug)]
pub struct TargetInterner {
    post: HashMap<(NodeId, Port), TargetSet>,
    query: HashMap<(NodeId, Port), TargetSet>,
    /// Remaining node-id slots before the cache stops retaining new sets.
    budget: usize,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TargetInterner>();
};

impl Default for TargetInterner {
    fn default() -> Self {
        Self::with_budget(DEFAULT_ID_BUDGET)
    }
}

impl TargetInterner {
    /// An interner retaining at most `budget` total cached node ids.
    pub fn with_budget(budget: usize) -> Self {
        TargetInterner {
            post: HashMap::new(),
            query: HashMap::new(),
            budget,
        }
    }

    /// The interned `P(i, port)` — cached on first use.
    pub fn post_set<PM: PortMapped>(&mut self, pm: &PM, i: NodeId, port: Port) -> TargetSet {
        Self::lookup(&mut self.post, &mut self.budget, (i, port), || {
            pm.post_set_for(i, port)
        })
    }

    /// The interned `Q(j, port)` — cached on first use.
    pub fn query_set<PM: PortMapped>(&mut self, pm: &PM, j: NodeId, port: Port) -> TargetSet {
        Self::lookup(&mut self.query, &mut self.budget, (j, port), || {
            pm.query_set_for(j, port)
        })
    }

    /// Number of retained sets (post + query).
    pub fn cached_sets(&self) -> usize {
        self.post.len() + self.query.len()
    }

    fn lookup(
        map: &mut HashMap<(NodeId, Port), TargetSet>,
        budget: &mut usize,
        key: (NodeId, Port),
        compute: impl FnOnce() -> Vec<NodeId>,
    ) -> TargetSet {
        if let Some(set) = map.get(&key) {
            return set.clone();
        }
        let set = TargetSet::from_vec(compute());
        if set.len() <= *budget {
            *budget -= set.len();
            map.insert(key, set.clone());
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::strategies::Checkerboard;

    #[test]
    fn repeated_lookups_share_storage() {
        let strat = Checkerboard::new(16);
        let mut interner = TargetInterner::default();
        let p = Port::from_name("svc");
        let a = interner.query_set(&strat, NodeId::new(3), p);
        let b = interner.query_set(&strat, NodeId::new(3), p);
        assert!(std::ptr::eq(a.as_slice().as_ptr(), b.as_slice().as_ptr()));
        assert_eq!(interner.cached_sets(), 1);
    }

    #[test]
    fn post_and_query_are_cached_separately() {
        let strat = Checkerboard::new(16);
        let mut interner = TargetInterner::default();
        let p = Port::from_name("svc");
        let post = interner.post_set(&strat, NodeId::new(3), p);
        let query = interner.query_set(&strat, NodeId::new(3), p);
        assert_ne!(post, query, "checkerboard P (row) differs from Q (row+col)");
        assert_eq!(interner.cached_sets(), 2);
    }

    #[test]
    fn exhausted_budget_still_produces_sets() {
        let strat = Checkerboard::new(16);
        let mut interner = TargetInterner::with_budget(0);
        let p = Port::from_name("svc");
        let a = interner.query_set(&strat, NodeId::new(3), p);
        let b = interner.query_set(&strat, NodeId::new(3), p);
        assert_eq!(a, b, "uncached lookups stay deterministic");
        assert_eq!(interner.cached_sets(), 0, "nothing retained at budget 0");
    }
}
