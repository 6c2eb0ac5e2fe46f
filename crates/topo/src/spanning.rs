//! Spanning-tree broadcast and multicast cost accounting.
//!
//! The paper's complexity unit is the *message pass* (one hop). For a
//! complete network, posting at `P(i)` costs `#P(i)` passes. In a
//! store-and-forward network (§2.3.5):
//!
//! * if the subgraph induced by the addressed set (plus the sender) is
//!   connected, broadcasting over a spanning tree of it costs exactly
//!   `#addressed nodes` passes (one per tree edge reaching a new node);
//! * otherwise there is a routing *overhead*
//!   `m(i,j) − #P(i) − #Q(j) > 0`.
//!
//! [`multicast_cost`] computes the exact number of message passes needed to
//! deliver one message from a source to every node of a target set, using a
//! shortest-path Steiner-tree approximation (union of greedily-chosen
//! shortest paths): this is what a reasonable implementation would achieve
//! with per-node routing tables, and it degrades gracefully to the
//! spanning-tree number when the target set is locally connected.
//!
//! Cost accounting is generic over [`Router`], so it works equally on the
//! O(n²) table oracle and on the closed-form analytic routers — no
//! materialized graph or table is required. Every backend charges the
//! same number; the structured ones reach it without the greedy's anchor
//! scan and path walks ([`Router::multicast_cost_sorted`]), which remain
//! the implementation for unstructured graphs and the test reference.

use crate::graph::{Graph, NodeId};
use crate::router::Router;
use crate::routing::bfs;
use std::collections::HashSet;

/// A rooted spanning tree of (the reachable part of) a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanningTree {
    /// The root the tree was grown from.
    pub root: NodeId,
    /// `parent[v]` is `v`'s tree parent, `u32::MAX` for the root and for
    /// nodes unreachable from it.
    pub parent: Vec<u32>,
    /// Nodes reachable from the root, in BFS order (root first).
    pub order: Vec<NodeId>,
}

impl SpanningTree {
    /// Grows a BFS spanning tree of `g` from `root`.
    ///
    /// # Panics
    ///
    /// Panics if `root` is out of range.
    pub fn bfs(g: &Graph, root: NodeId) -> Self {
        let b = bfs(g, root);
        SpanningTree {
            root,
            parent: b.parent,
            order: b.order,
        }
    }

    /// Number of nodes the tree spans (reachable from the root).
    pub fn spanned(&self) -> usize {
        self.order.len()
    }

    /// Message passes to broadcast from the root to every spanned node:
    /// one per tree edge, i.e. `spanned() - 1`.
    pub fn broadcast_cost(&self) -> u64 {
        self.spanned().saturating_sub(1) as u64
    }

    /// The children lists of the tree (index = node).
    pub fn children(&self) -> Vec<Vec<NodeId>> {
        let mut ch = vec![Vec::new(); self.parent.len()];
        for &v in &self.order {
            let p = self.parent[v.index()];
            if p != u32::MAX {
                ch[p as usize].push(v);
            }
        }
        ch
    }
}

/// Message passes to deliver one message from `src` to every node in
/// `targets`, multicasting over a tree of shortest paths.
///
/// Builds a Steiner-tree approximation: targets are connected in ascending
/// node order, each through the canonical shortest path from its nearest
/// *anchor* — the source or an earlier-connected target, first-scanned wins
/// a distance tie — and each edge reaching a not-yet-covered node counts as
/// one message pass. Shared path prefixes are charged once. Duplicate
/// targets and `src` itself are ignored; input that is already strictly
/// ascending (a sim `TargetSet`) is used in place, anything else is
/// sorted and de-duplicated first.
///
/// The number is the greedy's, not the optimal Steiner tree's, and every
/// backend returns exactly it; what differs is the cost of computing it
/// ([`Router::multicast_cost_sorted`]): O(|targets|) on the ring and the
/// complete network (closed forms, no path is walked), O(|targets| log
/// |targets|) on grid, torus and hypercube whenever each target has an
/// already-connected neighbor (every checkerboard row or column sweep),
/// and the full greedy — O(|targets|² + Σ path lengths) — otherwise and
/// on the table backend. Nothing is sized by n: that is what keeps
/// hop-cost multicast feasible at n = 1,048,576.
///
/// Debug builds re-derive small instances (n ≤ 4096, ≤ 64 targets) with
/// the full greedy and assert equality, so every debug test that runs hop
/// cost checks the fast paths for free.
///
/// Returns `None` if some target is unreachable from `src`.
///
/// # Panics
///
/// Panics if `src` or any target is out of range.
///
/// # Example
///
/// ```
/// use mm_topo::{gen, spanning::multicast_cost, RoutingTable, NodeId};
///
/// let g = gen::path(5); // 0-1-2-3-4
/// let rt = RoutingTable::new(&g);
/// // reaching nodes 2 and 4 from 0 shares the prefix 0-1-2: 4 passes total
/// let cost = multicast_cost(&rt, NodeId::new(0),
///                           &[NodeId::new(2), NodeId::new(4)]).unwrap();
/// assert_eq!(cost, 4);
/// ```
pub fn multicast_cost<R: Router>(rt: &R, src: NodeId, targets: &[NodeId]) -> Option<u64> {
    let mut resorted = Vec::new();
    let sorted = if targets.windows(2).all(|w| w[0] < w[1]) {
        targets
    } else {
        resorted.extend_from_slice(targets);
        resorted.sort_unstable();
        resorted.dedup();
        &resorted
    };
    let n = rt.node_count();
    assert!(
        src.index() < n && sorted.last().is_none_or(|t| t.index() < n),
        "multicast endpoint out of range (n = {n})"
    );
    let cost = rt.multicast_cost_sorted(src, sorted);
    debug_assert!(
        n > 4096 || sorted.len() > 64 || cost == greedy_cost(rt, src, sorted, false),
        "fast multicast accounting left the greedy: {src:?} -> {sorted:?}"
    );
    cost
}

/// The nearest-anchor greedy behind [`multicast_cost`], over any router:
/// the implementation for unstructured graphs and the reference the
/// closed forms are tested against.
///
/// `sorted` is strictly ascending and may contain `src` (skipped). The
/// anchors of `sorted[i]` are `src` and `sorted[..i]`, so anchor
/// membership is a binary search, and the covered set holds only nodes a
/// path has reached — nothing here is sized by n.
///
/// With `cheap_neighbors` (routers whose `for_each_neighbor` is O(degree),
/// not the table's O(n) row scan) the anchor scan is skipped when a
/// neighbor of the target is already an anchor: distance 1 cannot be
/// beaten, and whichever adjacent anchor wins the tie, the path is the
/// single edge into the target.
pub(crate) fn greedy_cost<R: Router>(
    rt: &R,
    src: NodeId,
    sorted: &[NodeId],
    cheap_neighbors: bool,
) -> Option<u64> {
    let mut covered: HashSet<NodeId> = HashSet::with_capacity(sorted.len() + 1);
    covered.insert(src);
    let mut cost = 0u64;
    for (i, &t) in sorted.iter().enumerate() {
        if t == src {
            continue;
        }
        let earlier = &sorted[..i];
        if cheap_neighbors {
            // every earlier target is below `t`, so a higher neighbor can
            // only be the source
            let mut adjacent = false;
            rt.for_each_neighbor(t, &mut |u| {
                adjacent |= u == src || (u < t && earlier.binary_search(&u).is_ok());
            });
            if adjacent {
                cost += u64::from(covered.insert(t));
                continue;
            }
        }
        // nearest anchor; on ties the earliest-connected anchor wins.
        let mut best: Option<(u32, NodeId)> = None;
        for a in std::iter::once(src).chain(earlier.iter().copied()) {
            if let Some(d) = rt.distance(a, t) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, a));
                }
            }
        }
        let (_, attach) = best?;
        // walk the canonical shortest path without materializing it; each
        // edge reaching a new node is one message pass.
        for hop in rt.hops(attach, t) {
            if covered.insert(hop) {
                cost += 1;
            }
        }
    }
    Some(cost)
}

/// Message passes for a point-to-point send: the hop distance.
///
/// Returns `None` if `dst` is unreachable from `src`.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range.
pub fn unicast_cost<R: Router>(rt: &R, src: NodeId, dst: NodeId) -> Option<u64> {
    rt.distance(src, dst).map(u64::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::routing::RoutingTable;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn spanning_tree_of_ring() {
        let g = gen::ring(6);
        let t = SpanningTree::bfs(&g, n(0));
        assert_eq!(t.spanned(), 6);
        assert_eq!(t.broadcast_cost(), 5);
        let ch = t.children();
        assert_eq!(ch[0].len(), 2); // ring root has two subtrees
    }

    #[test]
    fn spanning_tree_of_disconnected_graph_spans_component() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2)]).unwrap();
        let t = SpanningTree::bfs(&g, n(0));
        assert_eq!(t.spanned(), 3);
        assert_eq!(t.broadcast_cost(), 2);
    }

    #[test]
    fn multicast_to_connected_neighborhood_is_set_size() {
        // In a complete graph every target is one hop: cost = #targets.
        let g = gen::complete(6);
        let rt = RoutingTable::new(&g);
        let targets: Vec<NodeId> = (1..5).map(n).collect();
        assert_eq!(multicast_cost(&rt, n(0), &targets), Some(4));
    }

    #[test]
    fn multicast_shares_path_prefixes() {
        let g = gen::path(7);
        let rt = RoutingTable::new(&g);
        // targets 3 and 6 share prefix 0-1-2-3: total = 6 edges not 9
        assert_eq!(multicast_cost(&rt, n(0), &[n(3), n(6)]), Some(6));
    }

    #[test]
    fn multicast_ignores_duplicates_and_source() {
        let g = gen::path(4);
        let rt = RoutingTable::new(&g);
        assert_eq!(multicast_cost(&rt, n(0), &[n(0), n(2), n(2)]), Some(2));
        assert_eq!(multicast_cost(&rt, n(0), &[]), Some(0));
    }

    #[test]
    fn multicast_unreachable_target_is_none() {
        let g = Graph::from_edges(4, [(0, 1)]).unwrap();
        let rt = RoutingTable::new(&g);
        assert_eq!(multicast_cost(&rt, n(0), &[n(3)]), None);
    }

    #[test]
    fn unicast_is_distance() {
        let g = gen::ring(10);
        let rt = RoutingTable::new(&g);
        assert_eq!(unicast_cost(&rt, n(0), n(5)), Some(5));
        assert_eq!(unicast_cost(&rt, n(0), n(9)), Some(1));
    }

    #[test]
    fn grid_multicast_row_costs_row_length_minus_one() {
        // In a p×q grid, posting along the whole row from a row member is a
        // connected sweep: q-1 passes. This is the Manhattan server cost.
        let g = gen::grid(4, 6, false);
        let rt = RoutingTable::new(&g);
        // row 2 = nodes 12..18
        let row: Vec<NodeId> = (12..18).map(n).collect();
        assert_eq!(multicast_cost(&rt, n(14), &row), Some(5));
    }

    /// Cost pins on every analytic family: the table oracle and the
    /// closed-form router must charge identical passes, and the values are
    /// pinned so accounting drift is loud.
    #[test]
    fn multicast_and_unicast_pin_on_all_generators() {
        use crate::router::AnyRouter;
        let cases: [(Graph, u32, Vec<u32>, u64); 5] = [
            // complete: every target one hop → #targets
            (gen::complete(8), 0, (1..6).collect(), 5),
            // ring(12): targets 3,6,9 from 0 — 0→3 (3), 3→6 (3), 9 via
            // 0 backwards (3): contiguous sweeps, 9 passes
            (gen::ring(12), 0, vec![3, 6, 9], 9),
            // grid(3x4): row 1 (4..8) plus far corner 11 from 5 — the
            // corner attaches to row-end 7, one hop down: 4 total
            (gen::grid(3, 4, false), 5, vec![4, 6, 7, 11], 4),
            // torus(4x4): opposite corner is 2 hops with wrap
            (gen::grid(4, 4, true), 0, vec![15], 2),
            // hypercube(4): antipode + two of its neighbors share a prefix
            (gen::hypercube(4), 0, vec![15, 14, 7], 6),
        ];
        for (g, src, targets, want) in cases {
            let targets: Vec<NodeId> = targets.into_iter().map(n).collect();
            let table = AnyRouter::table_for(&g);
            let analytic = AnyRouter::for_graph(&g);
            assert!(analytic.is_analytic(), "{}", g.name());
            let via_table = multicast_cost(&table, n(src), &targets);
            let via_closed = multicast_cost(&analytic, n(src), &targets);
            assert_eq!(via_table, via_closed, "{}", g.name());
            assert_eq!(via_table, Some(want), "{}", g.name());
            for &t in &targets {
                assert_eq!(
                    unicast_cost(&table, n(src), t),
                    unicast_cost(&analytic, n(src), t),
                    "{}",
                    g.name()
                );
            }
        }
    }
}
