//! UUCPnet: the paper's example of an organically grown wide-area network
//! (§3.6), including the published August-15-1984 degree table and a
//! synthetic generator producing networks with the same character
//! ("an undirected tree with a core ... and some additional edges thrown
//! in", extra edges between nearby nodes, pronounced degree hierarchy).

use crate::graph::{Graph, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// One row of the paper's UUCPnet degree table: `sites` nodes of degree
/// `degree`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DegreeBucket {
    /// Node degree.
    pub degree: u32,
    /// Number of sites with that degree.
    pub sites: u32,
    /// `true` for the rows whose site counts are illegible in the 1985
    /// scan and were reconstructed (see module docs of `uucp`); the
    /// reconstruction preserves the published totals to within 0.5%.
    pub reconstructed: bool,
}

const fn row(degree: u32, sites: u32) -> DegreeBucket {
    DegreeBucket {
        degree,
        sites,
        reconstructed: false,
    }
}

const fn row_r(degree: u32, sites: u32) -> DegreeBucket {
    DegreeBucket {
        degree,
        sites,
        reconstructed: true,
    }
}

/// The UUCPnet degree table of paper §3.6 (state of the known sites at
/// August 15, 1984; 1916 sites, 3848 edges).
///
/// Rows for degrees 16–24 are marked [`DegreeBucket::reconstructed`]: their
/// site counts are illegible in the scanned paper and were filled with a
/// smoothly decreasing tail that preserves the published totals (the
/// reconstruction yields 1916 sites and 3829 edges, within 0.5% of the
/// published 3848). Famous sites from the text are recognizable: `ihnp4`
/// at degree 641, the 471-degree super-backbone, `decvax`/`mcvax` around
/// degree 40–45, feeder sites near 17, and 840 terminal sites of degree 1.
pub const UUCP_DEGREE_TABLE: &[DegreeBucket] = &[
    row(0, 25),
    row(1, 840),
    row(2, 384),
    row(3, 207),
    row(4, 115),
    row(5, 83),
    row(6, 71),
    row(7, 32),
    row(8, 29),
    row(9, 11),
    row(10, 17),
    row(11, 5),
    row(12, 7),
    row(13, 14),
    row(14, 10),
    row(15, 6),
    row_r(16, 6),
    row_r(17, 4),
    row_r(18, 3),
    row_r(19, 3),
    row_r(20, 3),
    row_r(21, 2),
    row_r(22, 2),
    row_r(23, 2),
    row_r(24, 1),
    row(25, 3),
    row(27, 1),
    row(28, 2),
    row(30, 2),
    row(32, 2),
    row(33, 1),
    row(34, 2),
    row(35, 1),
    row(36, 2),
    row(37, 1),
    row(38, 1),
    row(39, 1),
    row(40, 1),
    row(42, 1),
    row(43, 1),
    row(44, 1),
    row(45, 3),
    row(46, 1),
    row(47, 1),
    row(52, 1),
    row(63, 2),
    row(70, 1),
    row(471, 1),
    row(641, 1),
];

/// Totals of the embedded table: `(sites, edges)` where
/// `edges = Σ sites·degree / 2`.
pub fn uucp_table_totals() -> (u64, u64) {
    let sites: u64 = UUCP_DEGREE_TABLE.iter().map(|b| b.sites as u64).sum();
    let degsum: u64 = UUCP_DEGREE_TABLE
        .iter()
        .map(|b| b.sites as u64 * b.degree as u64)
        .sum();
    (sites, degsum / 2)
}

/// Samples a degree from the (nonzero-degree part of the) table
/// distribution.
fn sample_degree<R: Rng + ?Sized>(rng: &mut R) -> u32 {
    let total: u32 = UUCP_DEGREE_TABLE
        .iter()
        .filter(|b| b.degree > 0)
        .map(|b| b.sites)
        .sum();
    let pick = rng.gen_range(0..total);
    // the row whose run of sites holds `pick`: the last to start at or
    // before it (an empty row starts where the next one does)
    let (mut start, mut degree) = (0, 0);
    for b in UUCP_DEGREE_TABLE.iter().filter(|b| b.degree > 0) {
        if start > pick {
            break;
        }
        (start, degree) = (start + b.sites, b.degree);
    }
    degree
}

/// Generates a connected UUCP-like network of `n ≥ 1` nodes.
///
/// Construction mirrors §3.6's description:
///
/// 1. target degrees are sampled from the published table (scaled to `n`),
/// 2. a spanning tree is grown by attaching each new node to an existing
///    node chosen with probability proportional to its *remaining* target
///    degree — producing the pronounced backbone/feeder/terminal hierarchy,
/// 3. up to `n/2` extra edges are thrown in between tree-nearby nodes
///    (endpoints within 3 tree hops), keeping the network "planar to a
///    large extent" in spirit and the number of extra edges below the
///    spanning-tree size, as observed for UUCPnet.
pub fn uucp_like<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Graph {
    let mut g = Graph::with_name(n, format!("uucp_like({n})"));
    if n <= 1 {
        return g;
    }

    // 1. target degrees, sorted descending so the backbone forms first
    let mut targets: Vec<u32> = (0..n).map(|_| sample_degree(rng)).collect();
    targets.sort_unstable_by(|a, b| b.cmp(a));

    // 2. capacity-weighted tree growth
    let mut capacity: Vec<u64> = targets.iter().map(|&t| t as u64).collect();
    for v in 1..n {
        let total: u64 = capacity[..v].iter().sum();
        let parent = if total == 0 {
            rng.gen_range(0..v)
        } else {
            let mut pick = rng.gen_range(0..total);
            let mut chosen = 0;
            for (u, &c) in capacity[..v].iter().enumerate() {
                if pick < c {
                    chosen = u;
                    break;
                }
                pick -= c;
            }
            chosen
        };
        g.add_edge_unchecked(NodeId::from(v), NodeId::from(parent));
        capacity[parent] = capacity[parent].saturating_sub(1);
        capacity[v] = capacity[v].saturating_sub(1);
    }

    // 3. extra local edges: random walks of length 2..=3 from random nodes
    let extra_target = n / 2;
    let mut added = 0usize;
    let mut attempts = 0usize;
    while added < extra_target && attempts < 10 * extra_target + 10 {
        attempts += 1;
        let u = NodeId::from(rng.gen_range(0..n));
        // short random walk
        let mut cur = u;
        let steps = rng.gen_range(2..=3);
        for _ in 0..steps {
            // an isolated node draws nothing and ends the walk
            let Some(&next) = g.neighbors(cur).choose(rng) else {
                break;
            };
            cur = NodeId::new(next);
        }
        if cur != u && !g.has_edge(u, cur) {
            g.add_edge_unchecked(u, cur);
            added += 1;
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::{degree_stats, is_connected};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn table_totals_match_paper() {
        let (sites, edges) = uucp_table_totals();
        assert_eq!(sites, 1916, "published site count");
        // published edge count is 3848; the reconstructed rows land within 0.5%
        assert!((edges as i64 - 3848).abs() <= 20, "edges = {edges}");
    }

    #[test]
    fn table_extremes_present() {
        let max = UUCP_DEGREE_TABLE.iter().map(|b| b.degree).max().unwrap();
        assert_eq!(max, 641, "ihnp4's degree");
        let deg1 = UUCP_DEGREE_TABLE
            .iter()
            .find(|b| b.degree == 1)
            .unwrap()
            .sites;
        assert_eq!(deg1, 840, "terminal sites");
        assert_eq!(
            UUCP_DEGREE_TABLE.iter().filter(|b| b.reconstructed).count(),
            9
        );
    }

    #[test]
    fn generated_network_is_connected_tree_plus_extras() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 10, 200, 1000] {
            let g = uucp_like(n, &mut rng);
            assert_eq!(g.node_count(), n);
            if n >= 2 {
                assert!(is_connected(&g), "n={n} must be connected");
                assert!(g.edge_count() >= n - 1);
                assert!(
                    g.edge_count() <= 2 * n,
                    "extra edges bounded by spanning-tree size"
                );
            }
        }
    }

    #[test]
    fn generated_degree_hierarchy_is_pronounced() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = uucp_like(1500, &mut rng);
        let s = degree_stats(&g).unwrap();
        // backbone node should tower over the mean like ihnp4 does
        assert!(
            s.max as f64 > 10.0 * s.mean,
            "max {} vs mean {}",
            s.max,
            s.mean
        );
        assert!(s.min >= 1);
    }

    #[test]
    fn generation_is_deterministic_under_seed() {
        let g1 = uucp_like(300, &mut StdRng::seed_from_u64(5));
        let g2 = uucp_like(300, &mut StdRng::seed_from_u64(5));
        assert_eq!(g1, g2);
    }

    #[test]
    fn degree_sampler_never_returns_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            assert!(sample_degree(&mut rng) >= 1);
        }
    }
}
