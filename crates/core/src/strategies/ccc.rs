//! Cube-connected-cycles strategy (paper §3.3).
//!
//! *"An algorithm similar to that of the d-dimensional cube yields,
//! appropriately tuned, for an n-node CCC network caches of size
//! `√(n/log n)` and `m(n) ≈ O(√(n·log n))`."*
//!
//! Tuning: `CCC(d)` has `n = d·2^d` nodes `(corner w, position i)`. Split
//! the corner address into `h` low bits and `d−h` high bits.
//!
//! * A server at `(s, j)` posts at one node per corner matching its low
//!   bits: corners `{ a‖s_low }` for all high parts `a`, at a *hashed*
//!   cycle position `f(a)` — `#P = 2^{d−h}`.
//! * A client at `(c, i)` queries **every** cycle position of every corner
//!   matching its high bits: `{ (c_high‖b, p) }` — `#Q = d·2^h`.
//!
//! They intersect at exactly `(c_high‖s_low, f(c_high >> h))`. Balancing
//! `2^{d−h} ≈ d·2^h` gives `h ≈ (d − log₂d)/2` and
//! `m(n) = Θ(√(d·2^d·d)) = Θ(√(n·log n))`, while each rendezvous node
//! caches only the `≈ 2^{d−h} / d`-fraction the hash assigns it — the
//! paper's `√(n/log n)` cache size.

use crate::strategy::Strategy;
use mm_topo::gen::CccNode;
use mm_topo::NodeId;

/// The tuned split strategy for cube-connected cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CccStrategy {
    d: u32,
    /// Number of low corner bits the server keeps.
    h: u32,
}

impl CccStrategy {
    /// Strategy with the balanced split `h = round((d − log₂d)/2)`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 1` or `d > 24`.
    pub fn new(d: u32) -> Self {
        assert!((1..=24).contains(&d), "CCC dimension out of range");
        let h = (((d as f64) - (d as f64).log2()) / 2.0).round().max(0.0) as u32;
        CccStrategy { d, h: h.min(d) }
    }

    /// Strategy with an explicit split.
    ///
    /// # Panics
    ///
    /// Panics if `d < 1`, `d > 24`, or `h > d`.
    pub fn with_split(d: u32, h: u32) -> Self {
        assert!((1..=24).contains(&d), "CCC dimension out of range");
        assert!(h <= d, "split must not exceed dimension");
        CccStrategy { d, h }
    }

    /// Cycle position assigned to the high corner part `a` — a cheap
    /// multiplicative hash spreading the post load over the cycle.
    fn position_hash(&self, a: u32) -> u32 {
        (a.wrapping_mul(2654435761)) % self.d
    }
}

impl Strategy for CccStrategy {
    fn node_count(&self) -> usize {
        (self.d as usize) << self.d
    }

    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        let node = CccNode::from_index(i, self.d);
        let low = node.corner & ((1u32 << self.h) - 1);
        let low = if self.h == 0 { 0 } else { low };
        let mut out: Vec<NodeId> = (0..(1u32 << (self.d - self.h)))
            .map(|a| {
                CccNode {
                    corner: (a << self.h) | low,
                    pos: self.position_hash(a),
                }
                .index(self.d)
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        let node = CccNode::from_index(j, self.d);
        let high = if self.h >= 32 {
            0
        } else {
            node.corner & !((1u32 << self.h) - 1)
        };
        let mut out = Vec::with_capacity((self.d as usize) << self.h);
        for b in 0..(1u32 << self.h) {
            for p in 0..self.d {
                out.push(
                    CccNode {
                        corner: high | b,
                        pos: p,
                    }
                    .index(self.d),
                );
            }
        }
        out.sort_unstable();
        out
    }

    fn name(&self) -> String {
        format!("ccc_split(d={}, h={})", self.d, self.h)
    }

    fn post_count(&self, _i: NodeId) -> usize {
        1usize << (self.d - self.h)
    }

    fn query_count(&self, _j: NodeId) -> usize {
        (self.d as usize) << self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_for_small_dims() {
        for d in 1..=6u32 {
            let s = CccStrategy::new(d);
            s.validate().unwrap_or_else(|e| panic!("d={d}: {e}"));
        }
    }

    #[test]
    fn cost_scales_like_sqrt_n_log_n() {
        for d in [4u32, 6, 8, 10] {
            let s = CccStrategy::new(d);
            let n = (d as f64) * f64::from(1u32 << d);
            let target = (n * n.log2()).sqrt();
            let m = s.average_cost();
            assert!(
                m <= 4.0 * target && m >= target / 4.0,
                "d={d}: m = {m}, sqrt(n log n) = {target}"
            );
        }
    }

    #[test]
    fn rendezvous_is_single_node() {
        let s = CccStrategy::new(4);
        let n = s.node_count();
        for i in (0..n).step_by(5) {
            for j in (0..n).step_by(7) {
                let rdv = s.rendezvous(NodeId::from(i), NodeId::from(j));
                assert_eq!(rdv.len(), 1, "pair ({i},{j})");
            }
        }
    }

    #[test]
    fn cache_load_is_sub_sqrt_n() {
        let d = 6u32;
        let s = CccStrategy::new(d);
        let k = s.to_matrix().multiplicities();
        let n = s.node_count() as f64;
        let max_k = *k.iter().max().unwrap() as f64;
        // distinct servers posting at one node ~ sqrt(n / log n) * n-ish
        // load spread: no node should hoard more than a few times the mean
        let mean = k.iter().sum::<u64>() as f64 / n;
        assert!(max_k <= 8.0 * mean, "max {max_k} vs mean {mean}");
    }

    #[test]
    fn explicit_split_extremes() {
        let s0 = CccStrategy::with_split(3, 0);
        s0.validate().unwrap();
        assert_eq!(s0.post_count(NodeId::new(0)), 8);
        assert_eq!(s0.query_count(NodeId::new(0)), 3);
        let s3 = CccStrategy::with_split(3, 3);
        s3.validate().unwrap();
        assert_eq!(s3.post_count(NodeId::new(0)), 1);
        assert_eq!(s3.query_count(NodeId::new(0)), 24);
    }

    #[test]
    fn beats_flat_checkerboard_cache_at_same_cost_class() {
        // sanity: the tuned strategy's m stays within a log factor of 2 sqrt n
        let d = 8u32;
        let s = CccStrategy::new(d);
        let n = s.node_count() as f64;
        assert!(s.average_cost() <= 2.0 * (n.log2()) * n.sqrt());
    }
}
