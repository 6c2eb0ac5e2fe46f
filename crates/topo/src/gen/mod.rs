//! Topology generators for every network family the paper analyses.
//!
//! * basic: [`complete`], [`ring`], [`path`], [`star`]
//! * §3.1 Manhattan: [`grid()`](grid()), [`mesh()`](mesh()) (d-dimensional, optional wraparound)
//! * §3.2 hypercube: [`hypercube()`](hypercube())
//! * §3.3 fast permutation networks: [`cube_connected_cycles`]
//! * §3.4 projective planes: [`projective`]
//! * §3.5 hierarchical networks: [`hierarchy`]
//! * §3.6 organically grown (UUCP-like) networks: [`uucp`], [`tree`]
//! * random connected graphs for the general algorithm: [`random`]

pub mod grid;
pub mod hierarchy;
pub mod hypercube;
pub mod projective;
pub mod random;
pub mod tree;
pub mod uucp;

pub use grid::{grid, mesh};
pub use hierarchy::{hierarchy_graph, Hierarchy};
pub use hypercube::{cube_connected_cycles, hypercube, CccNode};
pub use projective::ProjectivePlane;
pub use random::{random_connected, random_tree};
pub use tree::{balanced_tree, profile_tree, TreeInfo};
pub use uucp::{uucp_like, UUCP_DEGREE_TABLE};

use crate::graph::{Graph, NodeId};

/// Complete graph `K_n`: the paper's topology-independent setting ("assume
/// that all messages can be routed in one message pass to their
/// destinations").
pub fn complete(n: usize) -> Graph {
    let mut g = Graph::with_name(n, format!("complete({n})"));
    for a in 0..n {
        for b in (a + 1)..n {
            g.add_edge_unchecked(NodeId::from(a), NodeId::from(b));
        }
    }
    g
}

/// An edgeless stand-in for [`complete`]: same node count and name, no
/// adjacency. O(n) to build instead of O(n²), which is what makes
/// 64k-node complete-network sweeps possible at all.
///
/// Only valid where edges are never consulted — e.g. simulations under
/// `mm_sim::CostModel::Uniform`, which charge one pass per destination
/// and never route. Anything that routes, measures degrees, or walks
/// neighbors must use [`complete`].
pub fn complete_shell(n: usize) -> Graph {
    Graph::with_name(n, format!("complete({n})"))
}

/// Cycle `C_n` (ring). Paper §2.3.5: on a ring no match-making algorithm
/// does significantly better than broadcasting, `m(n) = Ω(n)`.
///
/// For `n <= 2` this degenerates to the path (no multi-edges).
pub fn ring(n: usize) -> Graph {
    let mut g = Graph::with_name(n, format!("ring({n})"));
    if n >= 2 {
        for a in 0..n - 1 {
            g.add_edge_unchecked(NodeId::from(a), NodeId::from(a + 1));
        }
        if n >= 3 {
            g.add_edge_unchecked(NodeId::from(n - 1), NodeId::from(0usize));
        }
    }
    g
}

/// Path `P_n`: nodes `0..n` connected in a line.
pub fn path(n: usize) -> Graph {
    let mut g = Graph::with_name(n, format!("path({n})"));
    for a in 1..n {
        g.add_edge_unchecked(NodeId::from(a - 1), NodeId::from(a));
    }
    g
}

/// Star: node 0 is the center, nodes `1..=leaves` are leaves
/// (`leaves + 1` nodes in total). The pathological case for connected
/// decomposition and the idealized centralized name server.
pub fn star(leaves: usize) -> Graph {
    let mut g = Graph::with_name(leaves + 1, format!("star({leaves})"));
    for leaf in 1..=leaves {
        g.add_edge_unchecked(NodeId::from(0usize), NodeId::from(leaf));
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{degree_stats, is_connected};

    #[test]
    fn complete_graph_sizes() {
        let g = complete(7);
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 21);
        assert!(is_connected(&g));
        let s = degree_stats(&g).unwrap();
        assert_eq!((s.min, s.max), (6, 6));
    }

    #[test]
    fn complete_trivial() {
        assert_eq!(complete(0).node_count(), 0);
        assert_eq!(complete(1).edge_count(), 0);
        assert_eq!(complete(2).edge_count(), 1);
    }

    #[test]
    fn ring_shapes() {
        let g = ring(6);
        assert_eq!(g.edge_count(), 6);
        let s = degree_stats(&g).unwrap();
        assert_eq!((s.min, s.max), (2, 2));
        assert_eq!(ring(2).edge_count(), 1, "2-ring degenerates to an edge");
        assert_eq!(ring(1).edge_count(), 0);
        assert_eq!(ring(3).edge_count(), 3);
    }

    #[test]
    fn path_and_star() {
        assert_eq!(path(5).edge_count(), 4);
        assert!(is_connected(&path(5)));
        let st = star(9);
        assert_eq!(st.node_count(), 10);
        assert_eq!(st.degree(NodeId::new(0)), 9);
    }
}
