//! Hierarchical match-making (paper §3.5 and Example 5).
//!
//! *"A server posts its (port, address) by selecting `√n_i` gateways,
//! connecting level `i−1` networks in a level `i` network, at each level
//! `i` of the hierarchy, on a path from its host node to the highest level
//! network. … a client's locate in a network of that level can be done in
//! `O(√n_i)` message passes. This gives an average message pass complexity
//! `m(n) ≈ O(Σ √n_i)` … the minimum value `m(n) ≈ O(log n)` is reached
//! for `k = ½·log n`."*
//!
//! At every level the `n_ℓ` gateways of the node's group form a miniature
//! complete universe; a [`Checkerboard`](super::Checkerboard)-style block
//! arrangement over the *child index* guarantees that two nodes sharing a
//! level-`ℓ` group rendezvous at one of its gateways. Since every pair
//! shares at least the top-level group, match-making always succeeds, and
//! pairs that are hierarchically close rendezvous low (locality!).

use crate::strategy::{normalize_set, Strategy};
use mm_topo::gen::Hierarchy;
use mm_topo::NodeId;

/// The per-level `√n_ℓ`-gateway strategy over a [`Hierarchy`].
#[derive(Debug, Clone)]
pub struct HierarchicalStrategy {
    h: Hierarchy,
}

impl HierarchicalStrategy {
    /// Builds the strategy for a hierarchy.
    pub fn new(h: Hierarchy) -> Self {
        HierarchicalStrategy { h }
    }

    /// The underlying hierarchy.
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.h
    }

    /// Band count at a level: `⌈√n_ℓ⌉`.
    fn bands(&self, level: usize) -> usize {
        (self.h.branching_at(level) as f64).sqrt().ceil() as usize
    }

    fn band_of(&self, child: usize, level: usize) -> usize {
        child * self.bands(level) / self.h.branching_at(level)
    }

    /// The gateways a server at `v` posts at within its level-`level`
    /// group: the row-band of its child index.
    fn level_post(&self, v: NodeId, level: usize) -> Vec<NodeId> {
        let group = self.h.group_of(v, level);
        let n_l = self.h.branching_at(level);
        let b = self.bands(level);
        let row = self.band_of(self.h.child_index(v, level), level);
        (0..b)
            .map(|c| self.h.gateway(level, group, (row * b + c) % n_l))
            .collect()
    }

    /// The gateways a client at `v` queries within its level-`level`
    /// group: the column-band of its child index.
    fn level_query(&self, v: NodeId, level: usize) -> Vec<NodeId> {
        let group = self.h.group_of(v, level);
        let n_l = self.h.branching_at(level);
        let b = self.bands(level);
        let col = self.band_of(self.h.child_index(v, level), level);
        (0..b)
            .map(|r| self.h.gateway(level, group, (r * b + col) % n_l))
            .collect()
    }

    /// The lowest level at which `i` and `j` share a group — where their
    /// rendezvous happens (1-based level; `0` if `i == j`). The top level
    /// is one group, so it is where any pair that shares no lower group
    /// meets.
    pub fn meeting_level(&self, i: NodeId, j: NodeId) -> usize {
        if i == j {
            return 0;
        }
        let top = self.h.levels();
        (1..top)
            .find(|&l| self.h.group_of(i, l) == self.h.group_of(j, l))
            .unwrap_or(top)
    }
}

impl Strategy for HierarchicalStrategy {
    fn node_count(&self) -> usize {
        self.h.node_count()
    }

    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for level in 1..=self.h.levels() {
            out.extend(self.level_post(i, level));
        }
        normalize_set(&mut out);
        out
    }

    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for level in 1..=self.h.levels() {
            out.extend(self.level_query(j, level));
        }
        normalize_set(&mut out);
        out
    }

    fn name(&self) -> String {
        format!(
            "hierarchical({})",
            (1..=self.h.levels())
                .map(|l| self.h.branching_at(l).to_string())
                .collect::<Vec<_>>()
                .join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strat(branching: &[usize]) -> HierarchicalStrategy {
        HierarchicalStrategy::new(Hierarchy::new(branching).unwrap())
    }

    #[test]
    fn always_valid() {
        for branching in [&[4usize][..], &[4, 4], &[2, 3, 4], &[9, 9], &[16, 4, 2]] {
            let s = strat(branching);
            s.validate()
                .unwrap_or_else(|e| panic!("{branching:?}: {e}"));
        }
    }

    #[test]
    fn cost_is_sum_of_sqrt_levels() {
        // n_l = 16 at two levels: per level 2*4 = 8, total m = 16
        let s = strat(&[16, 16]);
        let m = s.average_cost();
        assert!(
            m <= 2.0 * (4.0 + 4.0) + 1e-9,
            "m = {m} should be <= 16 (bands may overlap across levels)"
        );
        assert!(m >= 8.0, "m = {m}");
    }

    #[test]
    fn log_depth_beats_flat_sqrt() {
        // n = 4^5 = 1024: hierarchical m ~ 2*5*2 = 20 < 2 sqrt(1024) = 64
        let s = strat(&[4, 4, 4, 4, 4]);
        let flat = 2.0 * (1024f64).sqrt();
        assert!(s.average_cost() < flat / 2.0, "m = {}", s.average_cost());
    }

    #[test]
    fn meeting_level_is_lca_level() {
        let s = strat(&[3, 3, 3]);
        let a = NodeId::new(0);
        assert_eq!(s.meeting_level(a, NodeId::new(0)), 0);
        assert_eq!(s.meeting_level(a, NodeId::new(1)), 1); // same level-1 group
        assert_eq!(s.meeting_level(a, NodeId::new(4)), 2); // same level-2 group
        assert_eq!(s.meeting_level(a, NodeId::new(20)), 3); // only top shared
    }

    #[test]
    fn rendezvous_happens_at_meeting_level_gateways() {
        let s = strat(&[4, 4]);
        let h = s.hierarchy().clone();
        for i in 0..16usize {
            for j in 0..16usize {
                let (vi, vj) = (NodeId::from(i), NodeId::from(j));
                let rdv = s.rendezvous(vi, vj);
                assert!(!rdv.is_empty());
                let lvl = s.meeting_level(vi, vj).max(1);
                // some rendezvous node must be a gateway of the shared
                // group at the meeting level
                let group = h.group_of(vi, lvl);
                let gws = h.gateways(lvl, group);
                assert!(
                    rdv.iter().any(|r| gws.contains(r)),
                    "pair ({i},{j}) must meet at level {lvl}"
                );
            }
        }
    }

    #[test]
    fn local_pairs_meet_locally() {
        // locality: nodes in the same level-1 group rendezvous inside it
        let s = strat(&[4, 4, 4]);
        let h = s.hierarchy().clone();
        let (a, b) = (NodeId::new(1), NodeId::new(2));
        let rdv = s.rendezvous(a, b);
        let group = h.group_of(a, 1);
        assert!(rdv.iter().any(|r| h.group_of(*r, 1) == group));
    }

    #[test]
    fn single_level_is_checkerboard_like() {
        let s = strat(&[16]);
        s.validate().unwrap();
        // one level of 16 gateways = the 16 nodes themselves: 2*sqrt(16) = 8
        assert!((s.average_cost() - 8.0).abs() < 1e-9);
        assert!(s.to_matrix().satisfies_m2());
    }
}
