//! Shortest-path routing.
//!
//! The paper assumes (§3): *"each node has a table containing the names of
//! all other nodes together with the minimum cost to reach them and the
//! neighbor at which the minimum cost path starts."* [`RoutingTable`] is
//! exactly that: all-pairs hop distances plus first-hop (next-hop) entries,
//! computed by `n` breadth-first searches. It also supports the
//! *reverse-path* trick of §4 (Dalal–Metcalfe tables used "back-to-front")
//! via [`Router::reverse_next_hops`].
//!
//! The table is *canonical*: when several neighbors start a shortest path,
//! the next hop is always the lowest-numbered one. That pins a unique path
//! per (src, dst) pair, which is what lets the closed-form routers in
//! [`crate::router`] reproduce table-backed runs byte-for-byte.

use crate::graph::{Graph, NodeId};
use crate::router::Router;
use std::sync::atomic::{AtomicU64, Ordering};

/// Global count of [`RoutingTable::new`] invocations (process-wide).
///
/// This exists for the memory-regression guard: structured-topology runs
/// that resolve to an analytic [`crate::router::AnyRouter`] must never
/// build an O(n²) table, and tests assert it by diffing this counter
/// around a run. Monotonic; never reset.
pub fn table_build_count() -> u64 {
    TABLE_BUILDS.load(Ordering::Relaxed)
}

static TABLE_BUILDS: AtomicU64 = AtomicU64::new(0);

/// Result of a single-source BFS: hop distances and BFS-tree parents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bfs {
    /// `dist[v]` is the hop distance from the source, `u32::MAX` if
    /// unreachable.
    pub dist: Vec<u32>,
    /// `parent[v]` is the predecessor of `v` on a shortest path from the
    /// source; `u32::MAX` for the source itself and unreachable nodes.
    pub parent: Vec<u32>,
    /// Nodes in visit (non-decreasing distance) order, starting with the
    /// source.
    pub order: Vec<NodeId>,
}

/// Runs a breadth-first search from `src`.
///
/// # Panics
///
/// Panics if `src` is out of range.
pub fn bfs(g: &Graph, src: NodeId) -> Bfs {
    let n = g.node_count();
    let mut dist = vec![u32::MAX; n];
    let mut parent = vec![u32::MAX; n];
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::new();
    dist[src.index()] = 0;
    queue.push_back(src.raw());
    while let Some(v) = queue.pop_front() {
        order.push(NodeId::new(v));
        let dv = dist[v as usize];
        for &u in g.neighbors(NodeId::new(v)) {
            if dist[u as usize] == u32::MAX {
                dist[u as usize] = dv + 1;
                parent[u as usize] = v;
                queue.push_back(u);
            }
        }
    }
    Bfs {
        dist,
        parent,
        order,
    }
}

/// All-pairs hop distances and next-hop table over a fixed graph.
///
/// Construction costs `O(n·(n+m))` time and `O(n²)` space, mirroring the
/// per-node tables the paper assumes each processor maintains.
///
/// # Example
///
/// ```
/// use mm_topo::{gen, RoutingTable, NodeId};
///
/// let g = gen::ring(6);
/// let rt = RoutingTable::new(&g);
/// assert_eq!(rt.distance(NodeId::new(0), NodeId::new(3)), Some(3));
/// let path = rt.path(NodeId::new(0), NodeId::new(2)).unwrap();
/// assert_eq!(path.len(), 3); // 0 -> 1 -> 2
/// ```
#[derive(Debug, Clone)]
pub struct RoutingTable {
    n: usize,
    /// Row-major `n×n`: hop distance or `u32::MAX`.
    dist: Vec<u32>,
    /// Row-major `n×n`: first hop on a shortest path from row to column;
    /// `u32::MAX` when unreachable or `row == col`.
    next: Vec<u32>,
}

impl RoutingTable {
    /// Builds the all-pairs table for `g`.
    ///
    /// Next hops are canonical: `next[s][v]` is the *lowest-numbered*
    /// neighbor `u` of `s` with `dist(u, v) + 1 == dist(s, v)`. This makes
    /// the table a deterministic oracle independent of BFS visit order, so
    /// the analytic routers in [`crate::router`] can match it exactly.
    pub fn new(g: &Graph) -> Self {
        TABLE_BUILDS.fetch_add(1, Ordering::Relaxed);
        let n = g.node_count();
        let mut dist = vec![u32::MAX; n * n];
        for s in 0..n {
            let b = bfs(g, NodeId::new(s as u32));
            dist[s * n..(s + 1) * n].copy_from_slice(&b.dist);
        }
        let mut next = vec![u32::MAX; n * n];
        for s in 0..n {
            for v in 0..n {
                let d = dist[s * n + v];
                if v == s || d == u32::MAX {
                    continue;
                }
                // adjacency lists are sorted ascending, so the first
                // distance-decreasing neighbor is the lowest-numbered one.
                for &u in g.neighbors(NodeId::new(s as u32)) {
                    if dist[u as usize * n + v] + 1 == d {
                        next[s * n + v] = u;
                        break;
                    }
                }
            }
        }
        RoutingTable { n, dist, next }
    }

    /// Number of nodes the table covers.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Hop distance from `a` to `b`, or `None` if unreachable.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> Option<u32> {
        let d = self.dist[a.index() * self.n + b.index()];
        (d != u32::MAX).then_some(d)
    }

    /// First hop on a shortest path from `a` to `b`.
    ///
    /// Returns `None` if `a == b` or `b` is unreachable from `a`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn next_hop(&self, a: NodeId, b: NodeId) -> Option<NodeId> {
        let h = self.next[a.index() * self.n + b.index()];
        (h != u32::MAX).then_some(NodeId::new(h))
    }

    /// Full shortest path from `a` to `b` inclusive of both endpoints.
    ///
    /// Returns `None` if `b` is unreachable from `a`. For `a == b` the path
    /// is the single node `[a]`.
    ///
    /// Allocates the whole path; hot paths that only need to *visit* the
    /// hops (hop counting, crash checks) should use [`Router::hops`]
    /// instead, which walks the same next-hop entries without
    /// materializing a `Vec`.
    ///
    /// # Panics
    ///
    /// Panics if `a` or `b` is out of range.
    pub fn path(&self, a: NodeId, b: NodeId) -> Option<Vec<NodeId>> {
        if a == b {
            return Some(vec![a]);
        }
        self.distance(a, b)?;
        let mut path = vec![a];
        path.extend(self.hops(a, b));
        Some(path)
    }

    /// Eccentricity of `v`: max distance to any reachable node.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn eccentricity(&self, v: NodeId) -> u32 {
        self.dist[v.index() * self.n..(v.index() + 1) * self.n]
            .iter()
            .copied()
            .filter(|&d| d != u32::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Graph diameter over reachable pairs (0 for empty/singleton graphs).
    pub fn diameter(&self) -> u32 {
        (0..self.n)
            .map(|v| self.eccentricity(NodeId::new(v as u32)))
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn bfs_on_path_graph() {
        let g = gen::path(5);
        let b = bfs(&g, n(0));
        assert_eq!(b.dist, vec![0, 1, 2, 3, 4]);
        assert_eq!(b.order[0], n(0));
        assert_eq!(b.parent[4], 3);
    }

    #[test]
    fn bfs_unreachable() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let b = bfs(&g, n(0));
        assert_eq!(b.dist[2], u32::MAX);
        assert_eq!(b.dist[3], u32::MAX);
        assert_eq!(b.order.len(), 2);
    }

    #[test]
    fn ring_distances_and_paths() {
        let g = gen::ring(8);
        let rt = RoutingTable::new(&g);
        assert_eq!(rt.distance(n(0), n(4)), Some(4));
        assert_eq!(rt.distance(n(0), n(7)), Some(1));
        assert_eq!(rt.diameter(), 4);
        let p = rt.path(n(0), n(3)).unwrap();
        assert_eq!(p, vec![n(0), n(1), n(2), n(3)]);
        assert_eq!(rt.path(n(2), n(2)).unwrap(), vec![n(2)]);
    }

    #[test]
    fn next_hop_is_a_neighbor_on_shortest_path() {
        let g = gen::grid(4, 5, false);
        let rt = RoutingTable::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                if a == b {
                    assert_eq!(rt.next_hop(a, b), None);
                    continue;
                }
                let h = rt.next_hop(a, b).unwrap();
                assert!(g.has_edge(a, h), "next hop must be adjacent");
                assert_eq!(
                    rt.distance(h, b).unwrap() + 1,
                    rt.distance(a, b).unwrap(),
                    "next hop must decrease distance by one"
                );
            }
        }
    }

    #[test]
    fn hops_walk_matches_materialized_path() {
        let g = gen::grid(4, 5, false);
        let rt = RoutingTable::new(&g);
        for a in g.nodes() {
            for b in g.nodes() {
                let walked: Vec<NodeId> = rt.hops(a, b).collect();
                let path = rt.path(a, b).unwrap();
                assert_eq!(path[0], a);
                assert_eq!(&path[1..], &walked[..], "walk is the path minus its start");
                assert_eq!(rt.hops(a, b).size_hint().0 as u32, walked.len() as u32);
            }
        }
    }

    #[test]
    fn hops_walk_is_empty_for_self_and_unreachable() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let rt = RoutingTable::new(&g);
        assert_eq!(rt.hops(n(1), n(1)).count(), 0);
        assert_eq!(rt.hops(n(0), n(2)).count(), 0, "unreachable walk ends");
    }

    #[test]
    fn unreachable_pairs_have_no_route() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]).unwrap();
        let rt = RoutingTable::new(&g);
        assert_eq!(rt.distance(n(0), n(2)), None);
        assert_eq!(rt.next_hop(n(0), n(2)), None);
        assert_eq!(rt.path(n(0), n(2)), None);
    }

    #[test]
    fn hypercube_distance_is_hamming() {
        let g = gen::hypercube(5);
        let rt = RoutingTable::new(&g);
        for a in 0u32..32 {
            for b in 0u32..32 {
                let hamming = (a ^ b).count_ones();
                assert_eq!(rt.distance(n(a), n(b)), Some(hamming));
            }
        }
    }

    #[test]
    fn reverse_next_hops_move_away_from_origin() {
        let g = gen::grid(5, 5, false);
        let rt = RoutingTable::new(&g);
        let origin = n(12); // center of the 5x5 grid
        for v in g.nodes() {
            for u in rt.reverse_next_hops(origin, v) {
                let dv = rt.distance(origin, v).unwrap();
                let du = rt.distance(origin, u).unwrap();
                assert_eq!(du, dv + 1, "beam step must increase distance from origin");
            }
        }
    }

    #[test]
    fn eccentricity_of_path_ends() {
        let g = gen::path(6);
        let rt = RoutingTable::new(&g);
        assert_eq!(rt.eccentricity(n(0)), 5);
        assert_eq!(rt.eccentricity(n(3)), 3);
        assert_eq!(rt.diameter(), 5);
    }
}
