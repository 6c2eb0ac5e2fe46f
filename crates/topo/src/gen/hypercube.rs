//! Binary hypercubes and cube-connected cycles.
//!
//! Paper §3.2: the d-dimensional binary cube has `n = 2^d` nodes addressed
//! by `d`-bit strings, with edges between addresses differing in a single
//! bit. The match-making strategy splits the address in half: a server
//! broadcasts into the subcube fixing the *low* half of its address, a
//! client into the subcube fixing its *high* half; they meet at exactly one
//! corner. §3.3 applies a tuned variant to fast permutation networks such
//! as the cube-connected cycles (CCC).

use crate::graph::{Graph, NodeId, TopoError};

/// d-dimensional binary hypercube, `n = 2^d` nodes.
///
/// Node `v`'s neighbors are `v ^ (1 << b)` for each bit `b < d`. `d = 0`
/// yields the single-node graph.
///
/// # Panics
///
/// Panics if `d > 30` (the graph would not fit in memory anyway).
pub fn hypercube(d: u32) -> Graph {
    assert!(d <= 30, "hypercube dimension too large");
    let n = 1usize << d;
    let mut g = Graph::with_name(n, format!("hypercube({d})"));
    for v in 0..n {
        for b in 0..d {
            let u = v ^ (1usize << b);
            if v < u {
                g.add_edge_unchecked(NodeId::from(v), NodeId::from(u));
            }
        }
    }
    g
}

/// A node of the cube-connected cycles network: cycle position `pos` on the
/// cycle replacing hypercube corner `corner`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CccNode {
    /// The hypercube corner this cycle replaces (`0..2^d`).
    pub corner: u32,
    /// Position within the cycle (`0..d`).
    pub pos: u32,
}

impl CccNode {
    /// Flat node index for dimension `d`: `corner * d + pos`.
    pub fn index(self, d: u32) -> NodeId {
        NodeId::new(self.corner * d + self.pos)
    }

    /// Inverse of [`CccNode::index`].
    pub fn from_index(v: NodeId, d: u32) -> Self {
        CccNode {
            corner: v.raw() / d,
            pos: v.raw() % d,
        }
    }
}

/// Cube-connected cycles `CCC(d)`: each corner of the d-cube is replaced by
/// a cycle of `d` nodes; node `(w, i)` connects to `(w, i±1 mod d)` (cycle
/// edges) and `(w ^ 2^i, i)` (cube edge). `n = d·2^d`.
///
/// # Errors
///
/// Returns [`TopoError::InvalidParameter`] for `d < 1` or `d > 24`.
pub fn cube_connected_cycles(d: u32) -> Result<Graph, TopoError> {
    if !(1..=24).contains(&d) {
        return Err(TopoError::InvalidParameter {
            reason: format!("CCC dimension {d} out of supported range 1..=24"),
        });
    }
    let corners = 1u32 << d;
    let n = (corners * d) as usize;
    let mut g = Graph::with_name(n, format!("ccc({d})"));
    for w in 0..corners {
        for i in 0..d {
            let here = CccNode { corner: w, pos: i }.index(d);
            // cycle edge to (w, i+1 mod d); for d == 1 there is no cycle,
            // for d == 2 the two positions get a single edge
            if d >= 2 {
                let next = CccNode {
                    corner: w,
                    pos: (i + 1) % d,
                }
                .index(d);
                let _ = g.add_edge(here, next); // idempotent for d == 2
            }
            // cube edge to (w ^ 2^i, i)
            let across = CccNode {
                corner: w ^ (1 << i),
                pos: i,
            }
            .index(d);
            if here < across {
                g.add_edge_unchecked(here, across);
            }
        }
    }
    Ok(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{degree_stats, is_connected};
    use crate::routing::RoutingTable;

    #[test]
    fn hypercube_counts() {
        for d in 0..=6u32 {
            let g = hypercube(d);
            assert_eq!(g.node_count(), 1 << d);
            assert_eq!(g.edge_count(), (d as usize) << d.saturating_sub(1));
            assert!(is_connected(&g));
        }
    }

    #[test]
    fn hypercube_neighbors_differ_one_bit() {
        let g = hypercube(5);
        for (a, b) in g.edges() {
            assert_eq!((a.raw() ^ b.raw()).count_ones(), 1);
        }
    }

    #[test]
    fn hypercube_diameter_is_d() {
        let g = hypercube(4);
        let rt = RoutingTable::new(&g);
        assert_eq!(rt.diameter(), 4);
    }

    #[test]
    fn ccc_counts_and_regularity() {
        let g = cube_connected_cycles(3).unwrap();
        assert_eq!(g.node_count(), 24);
        assert!(is_connected(&g));
        let s = degree_stats(&g).unwrap();
        assert_eq!((s.min, s.max), (3, 3), "CCC(d>=3) is 3-regular");
        // edges: 3n/2
        assert_eq!(g.edge_count(), 36);
    }

    #[test]
    fn ccc_small_dims() {
        let g1 = cube_connected_cycles(1).unwrap();
        assert_eq!(g1.node_count(), 2);
        assert_eq!(g1.edge_count(), 1); // only the cube edge
        let g2 = cube_connected_cycles(2).unwrap();
        assert_eq!(g2.node_count(), 8);
        assert!(is_connected(&g2));
        assert!(cube_connected_cycles(0).is_err());
        assert!(cube_connected_cycles(25).is_err());
    }

    #[test]
    fn ccc_node_index_roundtrip() {
        let d = 4;
        let g = cube_connected_cycles(d).unwrap();
        for v in g.nodes() {
            let c = CccNode::from_index(v, d);
            assert_eq!(c.index(d), v);
            assert!(c.pos < d);
            assert!(c.corner < 1 << d);
        }
    }
}
