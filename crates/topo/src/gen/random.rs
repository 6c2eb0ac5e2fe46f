//! Random connected graphs and random trees, used as "general network"
//! inputs for the decomposition-based locate algorithm (paper §3) and for
//! randomized property tests.

use crate::graph::{Graph, NodeId, TopoError};
use rand::Rng;

/// Uniform-attachment random tree on `n` nodes: node `v` (for `v ≥ 1`)
/// attaches to a uniformly random earlier node.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::with_name(n, format!("random_tree({n})"));
    for v in 1..n {
        let parent = rng.gen_range(0..v);
        g.add_edge_unchecked(NodeId::from(v), NodeId::from(parent));
    }
    g
}

/// Connected random graph with `n` nodes and (about) `m` edges: a random
/// spanning tree plus uniformly random extra edges.
///
/// The result has exactly `max(m, n−1)` edges unless the graph saturates
/// (`m > n(n−1)/2`), in which case it is the complete graph.
///
/// # Errors
///
/// Returns [`TopoError::InvalidParameter`] if `n == 0`.
pub fn random_connected<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, TopoError> {
    if n == 0 {
        return Err(TopoError::InvalidParameter {
            reason: "random_connected requires n >= 1".into(),
        });
    }
    let mut g = random_tree(n, rng);
    g.set_name(format!("random_connected({n},{m})"));
    let max_edges = n * (n - 1) / 2;
    let want = m.clamp(g.edge_count(), max_edges);
    let mut guard = 0usize;
    while g.edge_count() < want && guard < 100 * max_edges + 100 {
        guard += 1;
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let _ = g.add_edge(NodeId::from(a), NodeId::from(b));
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{is_connected, is_tree};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_tree_is_tree() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 17, 100] {
            let g = random_tree(n, &mut rng);
            assert_eq!(g.node_count(), n);
            if n >= 1 {
                assert!(is_tree(&g), "n={n}");
            }
        }
    }

    #[test]
    fn random_connected_edge_counts() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = random_connected(50, 120, &mut rng).unwrap();
        assert_eq!(g.edge_count(), 120);
        assert!(is_connected(&g));

        // m below n-1 clamps to spanning tree
        let g2 = random_connected(50, 0, &mut rng).unwrap();
        assert_eq!(g2.edge_count(), 49);

        // m above max clamps to complete
        let g3 = random_connected(8, 1000, &mut rng).unwrap();
        assert_eq!(g3.edge_count(), 28);
    }

    #[test]
    fn zero_nodes_rejected() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(random_connected(0, 5, &mut rng).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = random_connected(40, 80, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = random_connected(40, 80, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }
}
