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

//!
//! Multicast accounting (ISSUE 21) is held to the same standard: the
//! closed-form and shortcut paths behind `spanning::multicast_cost` must
//! return the number of the plain nearest-anchor greedy, a copy of which
//! lives here as [`reference_greedy`] and runs on the table oracle.

use mm_topo::spanning::multicast_cost;
use mm_topo::{gen, AnyRouter, Graph, NodeId, Router};
use proptest::prelude::*;

/// The greedy as `spanning::multicast_cost` computed it before it had any
/// fast path (n-sized `covered`, full anchor scan, hop walk), kept
/// verbatim as the oracle.
fn reference_greedy(rt: &AnyRouter, src: NodeId, targets: &[NodeId]) -> Option<u64> {
    let n = rt.node_count();
    let mut covered = vec![false; n];
    covered[src.index()] = true;
    let sorted: Vec<NodeId> = targets
        .iter()
        .copied()
        .filter(|&t| t != src)
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut anchors: Vec<NodeId> = Vec::with_capacity(sorted.len() + 1);
    anchors.push(src);
    let mut cost = 0u64;

    for &t in &sorted {
        // nearest anchor; on ties the earliest-connected anchor wins.
        let mut best: Option<(u32, NodeId)> = None;
        for &a in &anchors {
            if let Some(d) = rt.distance(a, t) {
                if best.is_none_or(|(bd, _)| d < bd) {
                    best = Some((d, a));
                }
            }
        }
        let (_, attach) = best?;
        for hop in rt.hops(attach, t) {
            if !covered[hop.index()] {
                covered[hop.index()] = true;
                cost += 1;
            }
        }
        anchors.push(t);
    }
    Some(cost)
}

/// `multicast_cost` on both backends of `g` against the reference greedy
/// on the table; returns the agreed cost.
fn assert_multicast_agrees(
    g: &Graph,
    analytic: &AnyRouter,
    table: &AnyRouter,
    src: NodeId,
    targets: &[NodeId],
) -> Option<u64> {
    let want = reference_greedy(table, src, targets);
    assert_eq!(
        multicast_cost(analytic, src, targets),
        want,
        "{}: analytic, {src} -> {targets:?}",
        g.name()
    );
    assert_eq!(
        multicast_cost(table, src, targets),
        want,
        "{}: table, {src} -> {targets:?}",
        g.name()
    );
    want
}

/// Asserts full all-pairs agreement between the analytic router for `g`
/// and the freshly-built table oracle.
fn assert_conformant(g: &Graph) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn multicast_cost_matches_the_greedy_on_random_sets(
        family in 0u8..3,
        p in 1usize..65,
        q in 1usize..65,
        src in any::<u32>(),
        picks in proptest::collection::vec(any::<u32>(), 0..96),
    ) {
        // up to the n = 4096 table ceiling; the picks arrive unsorted,
        // repeat, and may name the source
        let g = match family {
            0 => gen::ring(p * q),
            _ => gen::grid(p, q, family == 2),
        };
        let n = g.node_count() as u32;
        let targets: Vec<NodeId> = picks.iter().map(|&v| NodeId::new(v % n)).collect();
        let (analytic, table) = (AnyRouter::for_graph(&g), AnyRouter::table_for(&g));
        assert_multicast_agrees(&g, &analytic, &table, NodeId::new(src % n), &targets);
    }
}

/// Every source and every target subset (the source included) of every
/// small structured topology: rings through both parities, grid and torus
/// shapes with sides < 3 (wrap suppressed), a hypercube, a complete graph.
#[test]
fn multicast_cost_matches_the_greedy_on_every_small_instance() {
    let mut graphs: Vec<Graph> = (1..=11).map(gen::ring).collect();
    for (p, q) in [(1, 5), (2, 2), (2, 6), (3, 3), (3, 4), (4, 3)] {
        graphs.push(gen::grid(p, q, false));
        graphs.push(gen::grid(p, q, true));
    }
    graphs.push(gen::hypercube(3));
    graphs.push(gen::complete(6));
    for g in &graphs {
        let (analytic, table) = (AnyRouter::for_graph(g), AnyRouter::table_for(g));
        assert!(analytic.is_analytic(), "{}", g.name());
        let n = g.node_count() as u32;
        for mask in 0u32..1 << n {
            let subset: Vec<NodeId> = (0..n)
                .filter(|v| mask >> v & 1 == 1)
                .map(NodeId::new)
                .collect();
            for src in 0..n {
                assert_multicast_agrees(g, &analytic, &table, NodeId::new(src), &subset);
            }
        }
    }
}

/// The cases the ring's gap formula can get wrong, each pinned to its
/// hand-derived cost as well as to the reference.
#[test]
fn ring_gap_formula_regressions() {
    let rows: [(&str, usize, u32, &[u32], u64); 18] = [
        // the path to 90 runs 4, 3, .., 0, 99, .. and passes over 95
        ("wrap-over", 100, 5, &[90, 95], 15),
        // antipodal first target: the lower-numbered neighbor of src
        // picks the side, which decides what the second target costs
        ("antipodal, upward", 10, 0, &[5, 6], 6),
        ("antipodal, downward", 10, 3, &[8, 9], 5),
        ("antipodal, downward, first below src", 10, 8, &[3, 4, 9], 6),
        ("antipodal, upward and around", 10, 9, &[4, 5], 6),
        ("src above all targets", 30, 29, &[3, 4, 20], 14),
        ("src below all targets", 30, 0, &[3, 4, 20], 14),
        ("src between targets", 30, 10, &[3, 4, 20], 17),
        // 9 is 7 from both 2 and src 16: src wins and covers 10
        ("tie, src above", 20, 16, &[2, 9, 10], 13),
        // 13 is 8 from both src 5 and 1 (around): src wins, 14 stays open
        ("tie, src below", 20, 5, &[1, 13, 14], 13),
        // 18 is 4 from both 14 and 2 (around): the lower-numbered 2 wins
        // and its path covers 19
        ("tie without src", 20, 10, &[2, 14, 18, 19], 16),
        ("ring(1)", 1, 0, &[0], 0),
        ("ring(2)", 2, 0, &[1], 1),
        ("ring(2), src in set", 2, 1, &[0, 1], 1),
        ("ring(3), both ways", 3, 1, &[0, 2], 2),
        ("empty set", 9, 4, &[], 0),
        ("only the source", 9, 4, &[4], 0),
        ("unsorted, repeats, src", 100, 5, &[95, 5, 90, 95, 5], 15),
    ];
    for (what, n, src, targets, want) in rows {
        let g = gen::ring(n);
        let (analytic, table) = (AnyRouter::for_graph(&g), AnyRouter::table_for(&g));
        let targets: Vec<NodeId> = targets.iter().copied().map(NodeId::new).collect();
        let got = assert_multicast_agrees(&g, &analytic, &table, NodeId::new(src), &targets);
        assert_eq!(got, Some(want), "{what}");
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
