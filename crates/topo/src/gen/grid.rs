//! Manhattan networks: rectangular grids, tori and d-dimensional meshes.
//!
//! Paper §3.1: *"The network is laid out as a `p × q` rectangular grid of
//! nodes. Post availability of a service along its row and request a
//! service along the column the client is on."* — `m(n) = O(p+q)`, and for
//! `p = q`, `m(n) = 2√n`. Wrap-around versions serve cylindrical and
//! torus-shaped networks (the Stony Brook Microcomputer Network). The
//! obvious generalization to d-dimensional meshes takes
//! `m(n) = 2·n^{(d−1)/d}` message passes.

use crate::graph::{Graph, NodeId, TopoError};

/// `p × q` rectangular grid; node `(r, c)` has index `r*q + c`.
///
/// With `wrap = true` rows and columns close into cycles (torus). Wrapping
/// requires the side to have length ≥ 3 to stay a simple graph; shorter
/// sides are silently left unwrapped (a 2-long side already has its single
/// edge).
pub fn grid(p: usize, q: usize, wrap: bool) -> Graph {
    let name = if wrap {
        format!("torus({p}x{q})")
    } else {
        format!("grid({p}x{q})")
    };
    let mut g = Graph::with_name(p * q, name);
    let id = |r: usize, c: usize| NodeId::from(r * q + c);
    for r in 0..p {
        for c in 0..q {
            if c + 1 < q {
                g.add_edge_unchecked(id(r, c), id(r, c + 1));
            }
            if r + 1 < p {
                g.add_edge_unchecked(id(r, c), id(r + 1, c));
            }
        }
    }
    if wrap {
        if q >= 3 {
            for r in 0..p {
                g.add_edge_unchecked(id(r, q - 1), id(r, 0));
            }
        }
        if p >= 3 {
            for c in 0..q {
                g.add_edge_unchecked(id(p - 1, c), id(0, c));
            }
        }
    }
    g
}

/// d-dimensional mesh with the given side lengths; `wrap` closes every
/// dimension of length ≥ 3 into a cycle.
///
/// Node coordinates are mixed-radix over `sides`: the node with coordinates
/// `(x_0, …, x_{d−1})` has index `x_0 + x_1·s_0 + x_2·s_0·s_1 + …`.
///
/// # Errors
///
/// Returns [`TopoError::InvalidParameter`] if `sides` is empty or contains
/// a zero.
pub fn mesh(sides: &[usize], wrap: bool) -> Result<Graph, TopoError> {
    if sides.is_empty() || sides.contains(&0) {
        return Err(TopoError::InvalidParameter {
            reason: "mesh sides must be non-empty and positive".into(),
        });
    }
    let n: usize = sides.iter().product();
    let name = format!(
        "{}({})",
        if wrap { "torus" } else { "mesh" },
        sides
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("x")
    );
    let mut g = Graph::with_name(n, name);

    // stride[d] = product of sides[0..d]
    let mut stride = vec![1usize; sides.len()];
    for d in 1..sides.len() {
        stride[d] = stride[d - 1] * sides[d - 1];
    }

    for v in 0..n {
        for (d, &side) in sides.iter().enumerate() {
            let coord = (v / stride[d]) % side;
            if coord + 1 < side {
                g.add_edge_unchecked(NodeId::from(v), NodeId::from(v + stride[d]));
            } else if wrap && side >= 3 {
                let wrapped = v - coord * stride[d];
                g.add_edge_unchecked(NodeId::from(v), NodeId::from(wrapped));
            }
        }
    }
    Ok(g)
}

/// Decodes a mesh node index into coordinates under `sides`.
///
/// # Panics
///
/// Panics if `sides` contains a zero.
pub fn mesh_coords(v: NodeId, sides: &[usize]) -> Vec<usize> {
    let mut rest = v.index();
    sides
        .iter()
        .map(|&s| {
            let c = rest % s;
            rest /= s;
            c
        })
        .collect()
}

/// Encodes mesh coordinates into a node index under `sides`.
///
/// # Panics
///
/// Panics if `coords.len() != sides.len()` or a coordinate is out of range.
pub fn mesh_index(coords: &[usize], sides: &[usize]) -> NodeId {
    assert_eq!(coords.len(), sides.len(), "coordinate arity mismatch");
    let mut idx = 0usize;
    let mut stride = 1usize;
    for (&c, &s) in coords.iter().zip(sides) {
        assert!(c < s, "coordinate {c} out of range for side {s}");
        idx += c * stride;
        stride *= s;
    }
    NodeId::from(idx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{degree_stats, is_connected};
    use crate::routing::RoutingTable;

    #[test]
    fn grid_structure() {
        let g = grid(3, 4, false);
        assert_eq!(g.node_count(), 12);
        // edges: 3 rows * 3 + 4 cols * 2 = 9 + 8 = 17
        assert_eq!(g.edge_count(), 17);
        assert!(is_connected(&g));
        let rt = RoutingTable::new(&g);
        // manhattan distance from (0,0) to (2,3) = 5
        assert_eq!(rt.distance(NodeId::new(0), NodeId::new(11)), Some(5));
    }

    #[test]
    fn torus_is_regular() {
        let g = grid(4, 5, true);
        let s = degree_stats(&g).unwrap();
        assert_eq!((s.min, s.max), (4, 4));
        assert_eq!(g.edge_count(), 2 * 20);
    }

    #[test]
    fn small_torus_sides_do_not_double_edges() {
        let g = grid(2, 5, true);
        // p=2: column wrap suppressed (edge already there); rows wrap fine
        assert!(is_connected(&g));
        let s = degree_stats(&g).unwrap();
        assert_eq!(s.max, 3); // 2 row nbrs + 1 col nbr
    }

    #[test]
    fn mesh_matches_grid() {
        let m = mesh(&[4, 3], false).unwrap();
        let g = grid(3, 4, false); // note: grid(p,q) rows-major vs mesh dims
        assert_eq!(m.node_count(), g.node_count());
        assert_eq!(m.edge_count(), g.edge_count());
    }

    #[test]
    fn mesh_3d() {
        let m = mesh(&[3, 3, 3], false).unwrap();
        assert_eq!(m.node_count(), 27);
        // 3 dims * 3*3 planes * 2 edges-per-line = 54
        assert_eq!(m.edge_count(), 54);
        assert!(is_connected(&m));
        let t = mesh(&[3, 3, 3], true).unwrap();
        let s = degree_stats(&t).unwrap();
        assert_eq!((s.min, s.max), (6, 6));
    }

    #[test]
    fn mesh_invalid_params() {
        assert!(mesh(&[], false).is_err());
        assert!(mesh(&[3, 0], false).is_err());
    }

    #[test]
    fn coords_roundtrip() {
        let sides = [4usize, 3, 5];
        for v in 0..60usize {
            let c = mesh_coords(NodeId::from(v), &sides);
            assert_eq!(mesh_index(&c, &sides), NodeId::from(v));
        }
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let sides = [5usize, 4];
        let m = mesh(&sides, false).unwrap();
        let rt = RoutingTable::new(&m);
        let a = mesh_index(&[1, 1], &sides);
        let b = mesh_index(&[4, 3], &sides);
        assert_eq!(rt.distance(a, b), Some(3 + 2));
    }
}
