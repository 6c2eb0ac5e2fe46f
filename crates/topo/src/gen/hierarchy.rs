//! Hierarchical networks (paper §3.5).
//!
//! *"Assume that a level `i` network connects `n_i` level `i−1` networks
//! through `n_i` gateways, for each `1 < i ≤ k` (or basic nodes, at the
//! lowest level 0 for `i = 1`)."*
//!
//! [`Hierarchy`] is the combinatorial structure: basic nodes live at level
//! 0; a level-`i` group consists of `n_i` level-`(i−1)` subgroups; each
//! subgroup is represented by one *gateway* node inside it (its first basic
//! node). A server posts at `√n_i` gateways per level on its path to the
//! top; a client queries `√n_i` per level; they intersect at the lowest
//! common level — `m(n) = O(Σ_i √n_i)`, and for `n_i = a` with
//! `k = ½·log₂ n` levels, `m(n) = O(log n)`.
//!
//! [`hierarchy_graph`] realizes the hierarchy physically: the gateways of
//! every group form a complete subnetwork at their level.

use crate::graph::{Graph, NodeId, TopoError};

/// A `k`-level hierarchical network over `n = Π n_i` basic nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hierarchy {
    /// `branching[i]` = `n_{i+1}`: how many level-`i` groups make up a
    /// level-`i+1` group (index 0 = lowest level).
    branching: Vec<usize>,
    /// `stride[i]` = number of basic nodes in a level-`i` group
    /// (`stride[0] = 1`).
    stride: Vec<usize>,
    n: usize,
}

impl Hierarchy {
    /// Builds a hierarchy from per-level branching factors, lowest level
    /// first. `branching = [a, b]` means: groups of `a` basic nodes, and
    /// `b` such groups per top-level group; `n = a·b`.
    ///
    /// # Errors
    ///
    /// Returns [`TopoError::InvalidParameter`] if `branching` is empty,
    /// contains a factor `< 2`, or overflows.
    pub fn new(branching: &[usize]) -> Result<Self, TopoError> {
        if branching.is_empty() || branching.iter().any(|&b| b < 2) {
            return Err(TopoError::InvalidParameter {
                reason: "hierarchy needs >=1 level with branching factors >= 2".into(),
            });
        }
        let mut n = 1usize;
        let mut stride = Vec::with_capacity(branching.len() + 1);
        stride.push(n);
        for &b in branching {
            n = n
                .checked_mul(b)
                .ok_or_else(|| TopoError::InvalidParameter {
                    reason: "hierarchy too large".into(),
                })?;
            stride.push(n);
        }
        Ok(Hierarchy {
            branching: branching.to_vec(),
            stride,
            n,
        })
    }

    /// Uniform hierarchy: `levels` levels of branching `a` (`n = a^levels`).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Hierarchy::new`].
    pub fn uniform(a: usize, levels: usize) -> Result<Self, TopoError> {
        Self::new(&vec![a; levels])
    }

    /// Number of basic nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of levels `k`.
    pub fn levels(&self) -> usize {
        self.branching.len()
    }

    /// Branching factor `n_level` (`level` is 1-based, `1..=k`).
    ///
    /// # Panics
    ///
    /// Panics if `level` is 0 or greater than [`Hierarchy::levels`].
    pub fn branching_at(&self, level: usize) -> usize {
        self.branching[level - 1]
    }

    /// Index of the level-`level` group containing basic node `v`
    /// (`level = 0` gives `v` itself; `level = k` gives 0).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `level > levels()`.
    pub fn group_of(&self, v: NodeId, level: usize) -> usize {
        assert!(v.index() < self.n, "node out of range");
        v.index() / self.stride[level]
    }

    /// Which subgroup (0-based child index) of its level-`level` group the
    /// node `v` belongs to, for `level` in `1..=k`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or `level` is not in `1..=levels()`.
    pub fn child_index(&self, v: NodeId, level: usize) -> usize {
        assert!(v.index() < self.n, "node out of range");
        (v.index() / self.stride[level - 1]) % self.branching[level - 1]
    }

    /// The gateway node representing subgroup `child` of the level-`level`
    /// group `group`: the first basic node of that subgroup.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `level`, `group` or `child`.
    pub fn gateway(&self, level: usize, group: usize, child: usize) -> NodeId {
        assert!(level >= 1 && level <= self.levels(), "level out of range");
        assert!(child < self.branching[level - 1], "child out of range");
        let base = group * self.stride[level];
        assert!(base < self.n, "group out of range");
        NodeId::from(base + child * self.stride[level - 1])
    }

    /// All gateways of the level-`level` group `group` (one per subgroup).
    ///
    /// # Panics
    ///
    /// Panics on out-of-range `level` or `group`.
    pub fn gateways(&self, level: usize, group: usize) -> Vec<NodeId> {
        (0..self.branching[level - 1])
            .map(|c| self.gateway(level, group, c))
            .collect()
    }

    /// Number of level-`level` groups.
    ///
    /// # Panics
    ///
    /// Panics if `level > levels()`.
    pub fn group_count(&self, level: usize) -> usize {
        self.n / self.stride[level]
    }
}

/// Physical realization: within every group at every level, the group's
/// gateways form a complete subnetwork. Connected by construction.
pub fn hierarchy_graph(h: &Hierarchy) -> Graph {
    let mut g = Graph::with_name(
        h.node_count(),
        format!(
            "hierarchy({})",
            (1..=h.levels())
                .map(|l| h.branching_at(l).to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    for level in 1..=h.levels() {
        for group in 0..h.group_count(level) {
            let gws = h.gateways(level, group);
            for i in 0..gws.len() {
                for j in (i + 1)..gws.len() {
                    let _ = g.add_edge(gws[i], gws[j]);
                }
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::is_connected;

    #[test]
    fn uniform_hierarchy_counts() {
        let h = Hierarchy::uniform(4, 3).unwrap();
        assert_eq!(h.node_count(), 64);
        assert_eq!(h.levels(), 3);
        assert_eq!(h.group_count(1), 16);
        assert_eq!(h.group_count(2), 4);
        assert_eq!(h.group_count(3), 1);
    }

    #[test]
    fn mixed_branching() {
        let h = Hierarchy::new(&[3, 5, 2]).unwrap();
        assert_eq!(h.node_count(), 30);
        assert_eq!(h.branching_at(1), 3);
        assert_eq!(h.branching_at(2), 5);
        assert_eq!(h.branching_at(3), 2);
    }

    #[test]
    fn invalid_rejected() {
        assert!(Hierarchy::new(&[]).is_err());
        assert!(Hierarchy::new(&[1]).is_err());
        assert!(Hierarchy::new(&[4, 0]).is_err());
    }

    #[test]
    fn group_and_child_indices() {
        let h = Hierarchy::new(&[4, 3]).unwrap(); // n = 12
        let v = NodeId::new(7); // group at level1 = 1 (nodes 4..8), level2 = 0
        assert_eq!(h.group_of(v, 0), 7);
        assert_eq!(h.group_of(v, 1), 1);
        assert_eq!(h.group_of(v, 2), 0);
        assert_eq!(h.child_index(v, 1), 3); // 4th node of its level-1 group
        assert_eq!(h.child_index(v, 2), 1); // 2nd subgroup of the top group
    }

    #[test]
    fn gateways_are_subgroup_firsts() {
        let h = Hierarchy::new(&[4, 3]).unwrap();
        assert_eq!(
            h.gateways(2, 0),
            vec![NodeId::new(0), NodeId::new(4), NodeId::new(8)]
        );
        assert_eq!(
            h.gateways(1, 2),
            vec![
                NodeId::new(8),
                NodeId::new(9),
                NodeId::new(10),
                NodeId::new(11)
            ]
        );
    }

    #[test]
    fn graph_is_connected() {
        for (a, l) in [(2usize, 2usize), (3, 3), (4, 2), (5, 1)] {
            let h = Hierarchy::uniform(a, l).unwrap();
            let g = hierarchy_graph(&h);
            assert!(is_connected(&g), "hierarchy({a},{l}) must be connected");
            assert_eq!(g.node_count(), h.node_count());
        }
    }

    #[test]
    fn every_node_in_exactly_one_group_per_level() {
        let h = Hierarchy::new(&[3, 2, 2]).unwrap();
        for level in 1..=3usize {
            let mut seen = vec![0usize; h.node_count()];
            for group in 0..h.group_count(level) {
                for c in 0..h.branching_at(level) {
                    let _gw = h.gateway(level, group, c);
                }
            }
            for (v, s) in seen.iter_mut().enumerate() {
                let g = h.group_of(NodeId::from(v), level);
                assert!(g < h.group_count(level));
                *s += 1;
            }
            assert!(seen.iter().all(|&s| s == 1));
        }
    }
}
