//! Trees: balanced `a`-ary trees and level-degree-profile trees.
//!
//! Paper §3.6 analyses organically grown networks that "resemble an
//! undirected tree with a core in which we can imagine the root". With
//! level-dependent degree `d(i)` (root at level `l`, leaves at level 0) a
//! factorial relation `d(l)·d(l−1)⋯d(1) = n` holds. Two profiles are
//! studied:
//!
//! * `d(i) = c·i^{1+ε}` ⟹ depth `l ≈ log n / ((1+ε)·log log n)`
//! * `d(i) = c·2^{εi}` ⟹ depth `l ≈ √(2·log n / ε)` (up to lower-order
//!   terms)
//!
//! The match-making strategy on such trees posts and queries along the path
//! to the root: `m(n) = O(l)`.

use crate::graph::{Graph, NodeId, TopoError};

/// Structural description of a generated tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeInfo {
    /// The tree itself (node 0 is the root).
    pub graph: Graph,
    /// `parent[v]`: tree parent, `u32::MAX` for the root.
    pub parent: Vec<u32>,
    /// `depth[v]`: distance from the root.
    pub depth: Vec<u32>,
    /// Number of levels (root level = 0, max depth = `levels − 1`).
    pub levels: usize,
}

impl TreeInfo {
    /// The path from `v` up to and including the root.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn path_to_root(&self, v: NodeId) -> Vec<NodeId> {
        let mut path = vec![v];
        let mut cur = v.raw();
        while self.parent[cur as usize] != u32::MAX {
            cur = self.parent[cur as usize];
            path.push(NodeId::new(cur));
        }
        path
    }

    /// Number of nodes in the subtree rooted at each node.
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let n = self.graph.node_count();
        let mut size = vec![1usize; n];
        // children have larger ids than parents in our generators, so a
        // reverse sweep accumulates sizes bottom-up
        for v in (1..n).rev() {
            let p = self.parent[v];
            if p != u32::MAX {
                size[p as usize] += size[v];
            }
        }
        size
    }
}

/// Balanced `a`-ary tree with the given number of `levels` (a single root
/// for `levels = 1`). Node ids are assigned in BFS order, root = 0.
///
/// # Errors
///
/// Returns [`TopoError::InvalidParameter`] if `arity == 0`, `levels == 0`,
/// or the tree would exceed `2^31` nodes.
pub fn balanced_tree(arity: usize, levels: usize) -> Result<TreeInfo, TopoError> {
    if arity == 0 || levels == 0 {
        return Err(TopoError::InvalidParameter {
            reason: "balanced tree needs arity >= 1 and levels >= 1".into(),
        });
    }
    let mut level_sizes = Vec::with_capacity(levels);
    let mut sz = 1usize;
    for _ in 0..levels {
        level_sizes.push(sz);
        sz = sz
            .checked_mul(arity)
            .ok_or_else(|| TopoError::InvalidParameter {
                reason: "balanced tree too large".into(),
            })?;
    }
    profile_tree(
        &level_sizes
            .iter()
            .skip(1)
            .map(|_| arity)
            .collect::<Vec<_>>(),
    )
    .map(|mut t| {
        t.graph
            .set_name(format!("balanced_tree(a={arity},l={levels})"));
        t
    })
}

/// Tree from a *branching profile*: `branching[i]` children for every node
/// at depth `i` (so `branching.len()` is the number of edge-levels; the
/// tree has `branching.len() + 1` node-levels). An empty profile yields the
/// single-root tree.
///
/// This directly realizes the paper's `d(l)·d(l−1)⋯d(1) = n` factorial
/// relation with `d` read off per level.
///
/// # Errors
///
/// Returns [`TopoError::InvalidParameter`] if any branching factor is zero
/// or the tree exceeds `2^31` nodes.
pub fn profile_tree(branching: &[usize]) -> Result<TreeInfo, TopoError> {
    if branching.contains(&0) {
        return Err(TopoError::InvalidParameter {
            reason: "branching factors must be positive".into(),
        });
    }
    // count nodes
    let mut n: usize = 1;
    let mut level = 1usize;
    for &b in branching {
        level = level
            .checked_mul(b)
            .ok_or_else(|| TopoError::InvalidParameter {
                reason: "profile tree too large".into(),
            })?;
        n = n
            .checked_add(level)
            .ok_or_else(|| TopoError::InvalidParameter {
                reason: "profile tree too large".into(),
            })?;
    }
    if n > (1 << 31) {
        return Err(TopoError::InvalidParameter {
            reason: "profile tree too large".into(),
        });
    }

    let mut g = Graph::with_name(
        n,
        format!(
            "profile_tree({})",
            branching
                .iter()
                .map(|b| b.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    let mut parent = vec![u32::MAX; n];
    let mut depth = vec![0u32; n];
    let mut frontier = vec![0u32]; // current level's nodes
    let mut next_id = 1u32;
    for (lvl, &b) in branching.iter().enumerate() {
        let mut next_frontier = Vec::with_capacity(frontier.len() * b);
        for &p in &frontier {
            for _ in 0..b {
                let c = next_id;
                next_id += 1;
                parent[c as usize] = p;
                depth[c as usize] = (lvl + 1) as u32;
                g.add_edge_unchecked(NodeId::new(p), NodeId::new(c));
                next_frontier.push(c);
            }
        }
        frontier = next_frontier;
    }
    Ok(TreeInfo {
        graph: g,
        parent,
        depth,
        levels: branching.len() + 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::is_tree;

    #[test]
    fn balanced_binary_tree() {
        let t = balanced_tree(2, 4).unwrap(); // 1+2+4+8 = 15
        assert_eq!(t.graph.node_count(), 15);
        assert!(is_tree(&t.graph));
        assert_eq!(t.levels, 4);
        assert_eq!(t.depth[14], 3);
        assert_eq!(t.parent[0], u32::MAX);
    }

    #[test]
    fn single_root() {
        let t = balanced_tree(5, 1).unwrap();
        assert_eq!(t.graph.node_count(), 1);
        assert_eq!(t.levels, 1);
        let p = profile_tree(&[]).unwrap();
        assert_eq!(p.graph.node_count(), 1);
    }

    #[test]
    fn profile_tree_structure() {
        // root with 3 children, each with 2 children: 1 + 3 + 6 = 10
        let t = profile_tree(&[3, 2]).unwrap();
        assert_eq!(t.graph.node_count(), 10);
        assert!(is_tree(&t.graph));
        assert_eq!(t.graph.degree(NodeId::new(0)), 3);
        // level-1 nodes: degree 3 (parent + 2 children)
        assert_eq!(t.graph.degree(NodeId::new(1)), 3);
    }

    #[test]
    fn invalid_params_rejected() {
        assert!(balanced_tree(0, 3).is_err());
        assert!(balanced_tree(2, 0).is_err());
        assert!(profile_tree(&[2, 0, 2]).is_err());
    }

    #[test]
    fn path_to_root_lengths() {
        let t = balanced_tree(2, 5).unwrap();
        for v in t.graph.nodes() {
            let path = t.path_to_root(v);
            assert_eq!(path.len() as u32, t.depth[v.index()] + 1);
            assert_eq!(*path.last().unwrap(), NodeId::new(0));
        }
    }

    #[test]
    fn subtree_sizes_sum() {
        let t = balanced_tree(3, 3).unwrap(); // 1+3+9 = 13
        let sizes = t.subtree_sizes();
        assert_eq!(sizes[0], 13);
        assert_eq!(sizes[1], 4); // level-1 node: itself + 3 leaves
        assert_eq!(sizes[12], 1);
    }

    #[test]
    fn factorial_relation_holds() {
        // paper: d(l)*d(l-1)*...*d(1) = number of leaves
        let branching = [4usize, 3, 2];
        let t = profile_tree(&branching).unwrap();
        let leaves = t
            .graph
            .nodes()
            .filter(|&v| t.depth[v.index()] as usize == t.levels - 1)
            .count();
        assert_eq!(leaves, 4 * 3 * 2);
    }
}
