//! The Shotgun Locate strategy framework.
//!
//! Paper §2.1: *"For each network `G = (U,E)` and associated match-making
//! algorithm, there are total functions `P, Q : U → 2^U`. Any server
//! residing at node `i` starts its stay there by posting its (port,
//! address) pair at each node in `P(i)`. Any client residing at node `j`
//! queries each node in `Q(j)` for each service (port) it requires."*
//!
//! [`Strategy`] captures exactly that pair of functions; everything else —
//! the rendezvous matrix, cost accounting, bounds, protocol simulation —
//! derives from it.

use crate::matrix::RendezvousMatrix;
use mm_topo::NodeId;
use std::fmt;

/// Errors detected when validating a match-making strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum StrategyError {
    /// Some (server node, client node) pair has an empty rendezvous set:
    /// the client can never locate the server.
    NoRendezvous {
        /// The server's node.
        server: NodeId,
        /// The client's node.
        client: NodeId,
    },
    /// A post or query set referenced a node outside the universe.
    NodeOutOfRange {
        /// The node whose `P`/`Q` set is invalid.
        of: NodeId,
        /// The offending member.
        member: NodeId,
        /// Universe size.
        node_count: usize,
    },
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::NoRendezvous { server, client } => write!(
                f,
                "no rendezvous: P({server}) and Q({client}) do not intersect"
            ),
            StrategyError::NodeOutOfRange {
                of,
                member,
                node_count,
            } => write!(
                f,
                "strategy set of node {of} contains {member}, outside universe of {node_count}"
            ),
        }
    }
}

impl std::error::Error for StrategyError {}

/// A match-making strategy: the pair of total functions `P, Q : U → 2^U`.
///
/// Implementations must be deterministic (same input, same set) so that
/// rendezvous matrices and simulations are reproducible. Sets are returned
/// as sorted, duplicate-free `Vec<NodeId>`: the set algebra relies on it,
/// and so does the simulator's shared `TargetSet`, which keeps a canonical
/// vector as it is and sorts only one that is not.
///
/// The provided methods derive the paper's cost measures; implementations
/// can override [`Strategy::post_count`] / [`Strategy::query_count`] with
/// closed forms when the default (materializing the set) is wasteful.
pub trait Strategy {
    /// Universe size `n = #U`. Nodes are `0..n`.
    fn node_count(&self) -> usize;

    /// `P(i)`: the nodes where a server residing at `i` posts its
    /// `(port, address)` pair. Sorted and duplicate-free.
    fn post_set(&self, i: NodeId) -> Vec<NodeId>;

    /// `Q(j)`: the nodes a client residing at `j` queries. Sorted and
    /// duplicate-free.
    fn query_set(&self, j: NodeId) -> Vec<NodeId>;

    /// Short human-readable name used in experiment tables.
    fn name(&self) -> String {
        "strategy".into()
    }

    /// `#P(i)`. Override with a closed form if available.
    fn post_count(&self, i: NodeId) -> usize {
        self.post_set(i).len()
    }

    /// `#Q(j)`. Override with a closed form if available.
    fn query_count(&self, j: NodeId) -> usize {
        self.query_set(j).len()
    }

    /// The rendezvous set `r_ij = P(i) ∩ Q(j)`.
    fn rendezvous(&self, i: NodeId, j: NodeId) -> Vec<NodeId> {
        let p = self.post_set(i);
        let q = self.query_set(j);
        intersect_sorted(&p, &q)
    }

    /// `m(i,j) = #P(i) + #Q(j)` — the match-making cost for the pair in a
    /// complete network (M3).
    fn pair_cost(&self, i: NodeId, j: NodeId) -> u64 {
        (self.post_count(i) + self.query_count(j)) as u64
    }

    /// `m(n) = (1/n²)·Σ_i Σ_j m(i,j)` — the paper's average number of
    /// message passes (M4). Computed in `O(n)` from the row/column sums.
    fn average_cost(&self) -> f64 {
        let n = self.node_count();
        if n == 0 {
            return 0.0;
        }
        let post: u64 = (0..n)
            .map(|i| self.post_count(NodeId::from(i)) as u64)
            .sum();
        let query: u64 = (0..n)
            .map(|j| self.query_count(NodeId::from(j)) as u64)
            .sum();
        (post + query) as f64 / n as f64
    }

    /// Minimum and maximum of `m(i,j)` over all pairs.
    fn cost_extremes(&self) -> (u64, u64) {
        let n = self.node_count();
        if n == 0 {
            return (0, 0);
        }
        let pmin_max = (0..n)
            .map(|i| self.post_count(NodeId::from(i)) as u64)
            .fold((u64::MAX, 0u64), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let qmin_max = (0..n)
            .map(|j| self.query_count(NodeId::from(j)) as u64)
            .fold((u64::MAX, 0u64), |(lo, hi), v| (lo.min(v), hi.max(v)));
        (pmin_max.0 + qmin_max.0, pmin_max.1 + qmin_max.1)
    }

    /// Materializes the full rendezvous matrix (`O(n²·set size)`; intended
    /// for analysis at moderate `n`).
    fn to_matrix(&self) -> RendezvousMatrix {
        RendezvousMatrix::from_strategy_dyn(
            &|i| self.post_set(i),
            &|j| self.query_set(j),
            self.node_count(),
        )
    }

    /// Checks that every pair can rendezvous and all sets stay in range.
    ///
    /// # Errors
    ///
    /// Returns the first [`StrategyError`] found.
    fn validate(&self) -> Result<(), StrategyError> {
        let n = self.node_count();
        let posts: Vec<Vec<NodeId>> = (0..n).map(|i| self.post_set(NodeId::from(i))).collect();
        let queries: Vec<Vec<NodeId>> = (0..n).map(|j| self.query_set(NodeId::from(j))).collect();
        for (i, p) in posts.iter().enumerate() {
            if let Some(&m) = p.iter().find(|m| m.index() >= n) {
                return Err(StrategyError::NodeOutOfRange {
                    of: NodeId::from(i),
                    member: m,
                    node_count: n,
                });
            }
            debug_assert!(
                p.windows(2).all(|w| w[0] < w[1]),
                "P({i}) must be sorted+deduped"
            );
        }
        for (j, q) in queries.iter().enumerate() {
            if let Some(&m) = q.iter().find(|m| m.index() >= n) {
                return Err(StrategyError::NodeOutOfRange {
                    of: NodeId::from(j),
                    member: m,
                    node_count: n,
                });
            }
            debug_assert!(
                q.windows(2).all(|w| w[0] < w[1]),
                "Q({j}) must be sorted+deduped"
            );
        }
        for (i, p) in posts.iter().enumerate() {
            for (j, q) in queries.iter().enumerate() {
                if intersect_sorted(p, q).is_empty() {
                    return Err(StrategyError::NoRendezvous {
                        server: NodeId::from(i),
                        client: NodeId::from(j),
                    });
                }
            }
        }
        Ok(())
    }
}

/// A boxed, dynamically dispatched strategy, for heterogeneous collections
/// in experiment harnesses.
pub type BoxedStrategy = Box<dyn Strategy + Send + Sync>;

impl Strategy for BoxedStrategy {
    fn node_count(&self) -> usize {
        (**self).node_count()
    }
    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        (**self).post_set(i)
    }
    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        (**self).query_set(j)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn post_count(&self, i: NodeId) -> usize {
        (**self).post_count(i)
    }
    fn query_count(&self, j: NodeId) -> usize {
        (**self).query_count(j)
    }
}

/// Intersection of two sorted, duplicate-free node lists.
pub fn intersect_sorted(a: &[NodeId], b: &[NodeId]) -> Vec<NodeId> {
    let mut out = Vec::new();
    let (mut x, mut y) = (0usize, 0usize);
    while x < a.len() && y < b.len() {
        match a[x].cmp(&b[y]) {
            std::cmp::Ordering::Less => x += 1,
            std::cmp::Ordering::Greater => y += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[x]);
                x += 1;
                y += 1;
            }
        }
    }
    out
}

/// Sorts and deduplicates a node list in place — helper for strategy
/// implementations assembling sets from parts.
pub fn normalize_set(v: &mut Vec<NodeId>) {
    v.sort_unstable();
    v.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal hand-rolled strategy for exercising the provided methods:
    /// P(i) = {i}, Q(j) = all nodes (broadcasting).
    struct TestBroadcast {
        n: usize,
    }

    impl Strategy for TestBroadcast {
        fn node_count(&self) -> usize {
            self.n
        }
        fn post_set(&self, i: NodeId) -> Vec<NodeId> {
            vec![i]
        }
        fn query_set(&self, _j: NodeId) -> Vec<NodeId> {
            (0..self.n).map(NodeId::from).collect()
        }
    }

    struct Broken;
    impl Strategy for Broken {
        fn node_count(&self) -> usize {
            3
        }
        fn post_set(&self, i: NodeId) -> Vec<NodeId> {
            // node 2 posts nowhere a client looks
            if i.index() == 2 {
                vec![]
            } else {
                vec![i]
            }
        }
        fn query_set(&self, j: NodeId) -> Vec<NodeId> {
            vec![j]
        }
    }

    struct OutOfRange;
    impl Strategy for OutOfRange {
        fn node_count(&self) -> usize {
            2
        }
        fn post_set(&self, _i: NodeId) -> Vec<NodeId> {
            vec![NodeId::new(5)]
        }
        fn query_set(&self, _j: NodeId) -> Vec<NodeId> {
            vec![NodeId::new(5)]
        }
    }

    #[test]
    fn broadcast_costs() {
        let s = TestBroadcast { n: 9 };
        s.validate().unwrap();
        assert_eq!(s.pair_cost(NodeId::new(0), NodeId::new(1)), 10);
        assert!((s.average_cost() - 10.0).abs() < 1e-12);
        assert_eq!(s.cost_extremes(), (10, 10));
        assert_eq!(
            s.rendezvous(NodeId::new(4), NodeId::new(7)),
            vec![NodeId::new(4)]
        );
    }

    #[test]
    fn validate_catches_missing_rendezvous() {
        let err = Broken.validate().unwrap_err();
        match err {
            StrategyError::NoRendezvous { server, client } => {
                assert!(server.index() == 2 || client.index() == 2 || server != client);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("no rendezvous"));
    }

    #[test]
    fn validate_catches_out_of_range() {
        let err = OutOfRange.validate().unwrap_err();
        assert!(matches!(err, StrategyError::NodeOutOfRange { .. }));
    }

    #[test]
    fn intersect_sorted_basics() {
        let a: Vec<NodeId> = [1u32, 3, 5, 7].iter().map(|&x| NodeId::new(x)).collect();
        let b: Vec<NodeId> = [2u32, 3, 4, 7, 9].iter().map(|&x| NodeId::new(x)).collect();
        assert_eq!(
            intersect_sorted(&a, &b),
            vec![NodeId::new(3), NodeId::new(7)]
        );
        assert!(intersect_sorted(&a, &[]).is_empty());
    }

    #[test]
    fn normalize_set_sorts_and_dedups() {
        let mut v = vec![NodeId::new(3), NodeId::new(1), NodeId::new(3)];
        normalize_set(&mut v);
        assert_eq!(v, vec![NodeId::new(1), NodeId::new(3)]);
    }

    #[test]
    fn boxed_strategy_delegates() {
        let b: BoxedStrategy = Box::new(TestBroadcast { n: 4 });
        assert_eq!(b.node_count(), 4);
        assert_eq!(b.post_count(NodeId::new(1)), 1);
        assert_eq!(b.query_count(NodeId::new(1)), 4);
        b.validate().unwrap();
    }

    #[test]
    fn empty_universe_average_cost() {
        struct Empty;
        impl Strategy for Empty {
            fn node_count(&self) -> usize {
                0
            }
            fn post_set(&self, _: NodeId) -> Vec<NodeId> {
                vec![]
            }
            fn query_set(&self, _: NodeId) -> Vec<NodeId> {
                vec![]
            }
        }
        assert_eq!(Empty.average_cost(), 0.0);
        assert_eq!(Empty.cost_extremes(), (0, 0));
        Empty.validate().unwrap();
    }
}
