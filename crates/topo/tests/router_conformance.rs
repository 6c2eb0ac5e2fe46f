//! Conformance gate for the analytic routers (ISSUE 10, satellite 1).
//!
//! The closed-form routers must be *indistinguishable* from the BFS
//! routing-table oracle: same distances, same canonical min-index next
//! hops, same reverse-path neighbor sets, on every (src, dst) pair of
//! every generated topology. Property tests sweep randomized generator
//! parameters (hundreds of topology instances), and fixed spot checks
//! pin the n = 4096 upper edge of the oracle's range — beyond it only
//! the analytic forms exist, which is exactly why byte-equivalence must
//! be airtight below it.

use mm_topo::{gen, AnyRouter, NodeId, Router};
use proptest::prelude::*;

/// Asserts full all-pairs agreement between the analytic router for `g`
/// and the freshly-built table oracle.
fn assert_conformant(g: &mm_topo::Graph) {
    let analytic = AnyRouter::for_graph(g);
    assert!(
        analytic.is_analytic(),
        "{}: expected an analytic resolution",
        g.name()
    );
    let oracle = AnyRouter::table_for(g);
    let n = g.node_count();
    assert_eq!(analytic.node_count(), n, "{}", g.name());
    for a in 0..n {
        let a = NodeId::new(a as u32);
        for b in 0..n {
            let b = NodeId::new(b as u32);
            assert_eq!(
                analytic.distance(a, b),
                oracle.distance(a, b),
                "{}: distance({a}, {b})",
                g.name()
            );
            assert_eq!(
                analytic.next_hop(a, b),
                oracle.next_hop(a, b),
                "{}: next_hop({a}, {b})",
                g.name()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ring_router_matches_oracle(n in 1usize..96) {
        assert_conformant(&gen::ring(n));
    }

    #[test]
    fn grid_and_torus_routers_match_oracle(
        p in 1usize..14,
        q in 1usize..14,
        wrap in 0u8..2,
    ) {
        assert_conformant(&gen::grid(p, q, wrap == 1));
    }

    #[test]
    fn hypercube_router_matches_oracle(d in 0u32..8) {
        assert_conformant(&gen::hypercube(d));
    }

    #[test]
    fn complete_router_matches_oracle(n in 1usize..48) {
        assert_conformant(&gen::complete(n));
    }

    #[test]
    fn hop_walks_reproduce_oracle_paths(
        p in 2usize..12,
        q in 2usize..12,
        wrap in 0u8..2,
        seed in any::<u64>(),
    ) {
        // the walk (the delivery-time hot path) must traverse the exact
        // oracle path, node for node, not merely match its length
        let g = gen::grid(p, q, wrap == 1);
        let analytic = AnyRouter::for_graph(&g);
        let oracle = AnyRouter::table_for(&g);
        let n = g.node_count() as u64;
        let a = NodeId::new((seed % n) as u32);
        let b = NodeId::new((seed / 7 % n) as u32);
        let walked: Vec<NodeId> = analytic.hops(a, b).collect();
        let want: Vec<NodeId> = oracle.hops(a, b).collect();
        prop_assert_eq!(walked, want);
    }

    #[test]
    fn reverse_next_hops_match_oracle(
        p in 1usize..10,
        q in 1usize..10,
        wrap in 0u8..2,
        seed in any::<u64>(),
    ) {
        // lighthouse beams (§4 reverse-path) depend on the away-from-origin
        // neighbor sets AND their order; both must agree with the oracle
        let g = gen::grid(p, q, wrap == 1);
        let analytic = AnyRouter::for_graph(&g);
        let oracle = AnyRouter::table_for(&g);
        let n = g.node_count() as u64;
        let origin = NodeId::new((seed % n) as u32);
        let v = NodeId::new((seed / 11 % n) as u32);
        prop_assert_eq!(
            analytic.reverse_next_hops(origin, v),
            oracle.reverse_next_hops(origin, v)
        );
    }
}

/// The oracle's upper edge: every structured family at n = 4096 (where
/// the workload layer's `TABLE_ROUTER_LIMIT` caps the table), checked
/// all-pairs. Everything larger is analytic-only, extrapolated from
/// exactly this boundary.
#[test]
fn conformance_holds_at_the_table_ceiling() {
    assert_conformant(&gen::ring(4096));
    assert_conformant(&gen::grid(64, 64, false));
    assert_conformant(&gen::grid(64, 64, true));
    assert_conformant(&gen::hypercube(12));
}

/// Analytic routing needs no adjacency: a named, edgeless shell answers
/// the same routes as the materialized graph.
#[test]
fn shell_graphs_route_identically_to_materialized_graphs() {
    let materialized = AnyRouter::for_graph(&gen::grid(9, 7, true));
    let shell = AnyRouter::analytic_for("torus(9x7)", 63).unwrap();
    for a in 0..63u32 {
        for b in 0..63u32 {
            let (a, b) = (NodeId::new(a), NodeId::new(b));
            assert_eq!(materialized.distance(a, b), shell.distance(a, b));
            assert_eq!(materialized.next_hop(a, b), shell.next_hop(a, b));
        }
    }
}

/// Distance spot checks at n = 1,048,576 — far beyond anything a table
/// could hold (it would need 8 TiB) — pin the closed forms at the scale
/// the topology-scale campaign actually runs.
#[test]
fn million_node_routers_answer_in_constant_space() {
    let ring = AnyRouter::analytic_for("ring(1048576)", 1 << 20).unwrap();
    assert_eq!(
        ring.distance(NodeId::new(0), NodeId::new(1 << 19)),
        Some(1 << 19)
    );
    let torus = AnyRouter::analytic_for("torus(1024x1024)", 1 << 20).unwrap();
    assert_eq!(
        torus.distance(NodeId::new(0), NodeId::new((1 << 20) - 1)),
        Some(2)
    );
    let cube = AnyRouter::analytic_for("hypercube(20)", 1 << 20).unwrap();
    assert_eq!(
        cube.distance(NodeId::new(0), NodeId::new((1 << 20) - 1)),
        Some(20)
    );
    // a full shortest walk across the hypercube terminates in d hops
    assert_eq!(
        cube.hops(NodeId::new(0), NodeId::new((1 << 20) - 1))
            .count(),
        20
    );
}
