//! Property-based tests (proptest) over the core invariants:
//! the rendezvous guarantee m(P,Q) ≥ 1, strategy coverage, lower bounds,
//! matrix identities, decomposition, lifting, caches and the ruler
//! sequence — for randomized parameters.

use match_making::core::lift::LiftedStrategy;
use match_making::core::strategy::intersect_sorted;
use match_making::core::{bounds, Strategy};
use match_making::prelude::*;
use match_making::proto::cache::Cache;
use match_making::proto::ruler::ruler;
use mm_topo::props::components;
use proptest::prelude::*;
use std::sync::Arc;

/// The paper's match-making guarantee, checked *directly* on the sets:
/// for a random (server, client) pair, `P(s) ∩ Q(c)` is non-empty — at
/// least one rendezvous node exists, so `m(P,Q) ≥ 1`. This is the
/// invariant both the simulator and the live threaded runtime rely on,
/// independent of any scheduler.
fn assert_rendezvous<S: Strategy>(strat: &S, s_pick: usize, c_pick: usize) {
    let n = strat.node_count();
    let s = NodeId::from(s_pick % n);
    let c = NodeId::from(c_pick % n);
    let p = strat.post_set(s);
    let q = strat.query_set(c);
    assert!(
        !intersect_sorted(&p, &q).is_empty(),
        "m(P,Q) ≥ 1 violated: P({s}) ∩ Q({c}) = ∅ for {}",
        strat.name()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// m(P,Q) ≥ 1 for the checkerboard (paper §2.2) at arbitrary n —
    /// including non-square n, where the virtual grid wraps.
    #[test]
    fn checkerboard_rendezvous_nonempty(n in 1usize..300, s in any::<usize>(), c in any::<usize>()) {
        assert_rendezvous(&Checkerboard::new(n), s, c);
    }

    /// m(P,Q) ≥ 1 for the generalized p×q shotgun blocks (post a row,
    /// query a column) at arbitrary shapes.
    #[test]
    fn blocks_rendezvous_nonempty(n in 1usize..150, x in 1usize..20,
                                  s in any::<usize>(), c in any::<usize>()) {
        let x = x.min(n);
        let y = n.div_ceil(x).min(n);
        prop_assume!(x * y >= n);
        assert_rendezvous(&Blocks::new(n, x, y), s, c);
    }

    /// m(P,Q) ≥ 1 for the exact p×q grid row/column split (no wrapping).
    #[test]
    fn grid_row_column_rendezvous_nonempty(p in 1usize..18, q in 1usize..18,
                                           s in any::<usize>(), c in any::<usize>()) {
        assert_rendezvous(&GridRowColumn::new(p, q), s, c);
    }

    /// m(P,Q) ≥ 1 for the sweep variant (Example 3's asymmetric split).
    #[test]
    fn sweep_rendezvous_nonempty(n in 1usize..300, s in any::<usize>(), c in any::<usize>()) {
        assert_rendezvous(&Sweep::new(n), s, c);
    }

    /// m(P,Q) ≥ 1 for Hash Locate (§5): `P = Q` are port-indexed, so for
    /// *every* port the server's posting replicas are exactly the nodes
    /// any client queries — the intersection is the full replica set.
    #[test]
    fn hash_locate_rendezvous_nonempty(n in 1usize..200, r in 1usize..8, port in any::<u128>(),
                                       s in any::<usize>(), c in any::<usize>()) {
        let r = r.min(n);
        let h = HashLocate::new(n, r);
        let s = NodeId::from(s % n);
        let c = NodeId::from(c % n);
        let p = h.post_set_for(s, Port::new(port));
        let q = h.query_set_for(c, Port::new(port));
        let meet = intersect_sorted(&p, &q);
        prop_assert!(!meet.is_empty(), "hash locate m(P,Q) ≥ 1");
        prop_assert_eq!(meet.len(), r, "P = Q: the whole replica set rendezvouses");
    }

    /// Every strategy family produces a valid (always-rendezvous) strategy
    /// for arbitrary universe sizes.
    #[test]
    fn checkerboard_always_valid(n in 1usize..200) {
        Checkerboard::new(n).validate().unwrap();
    }

    #[test]
    fn blocks_always_valid(n in 1usize..120, x in 1usize..20) {
        let x = x.min(n);
        let y = n.div_ceil(x).min(n);
        prop_assume!(x * y >= n);
        Blocks::new(n, x, y).validate().unwrap();
    }

    #[test]
    fn hypercube_split_always_valid(d in 1u32..9, mask in 0u32..512) {
        let mask = mask & ((1 << d) - 1);
        HypercubeSplit::new(d, mask).validate().unwrap();
    }

    #[test]
    fn grid_always_valid(p in 1usize..15, q in 1usize..15) {
        GridRowColumn::new(p, q).validate().unwrap();
    }

    /// The §2.4 *redundant* criterion is a contract, not a tendency:
    /// `Replicated(base, r)` guarantees `#(P(i) ∩ Q(j)) ≥ r = f + 1` for
    /// every pair, because the `r` cyclic shifts of any base rendezvous
    /// node are distinct mod n ((r−1)·⌊n/r⌋ < n). Checked for arbitrary
    /// universes — including non-square n, where the grid wraps — and
    /// arbitrary pairs.
    #[test]
    fn replicated_redundancy_contract(
        n in 2usize..200,
        r in 1usize..6,
        i in any::<usize>(),
        j in any::<usize>(),
    ) {
        use match_making::core::robust::Replicated;
        let r = r.min(n);
        let s = Replicated::new(Checkerboard::new(n), r);
        let p = s.post_set(NodeId::from(i % n));
        let q = s.query_set(NodeId::from(j % n));
        let meet = intersect_sorted(&p, &q);
        prop_assert!(
            meet.len() >= r,
            "n={n} r={r}: #(P ∩ Q) = {} < f + 1",
            meet.len()
        );
    }

    /// Proposition 2 holds for every checkerboard/blocks instance: the
    /// average cost never beats (2/n)·Σ√k_i.
    #[test]
    fn prop2_bound_never_violated(n in 2usize..80, x in 1usize..12) {
        let x = x.min(n);
        let y = n.div_ceil(x).min(n);
        prop_assume!(x * y >= n);
        let s = Blocks::new(n, x, y);
        let k = s.to_matrix().multiplicities();
        let bound = bounds::prop2_lower_bound(&k, n);
        prop_assert!(s.average_cost() >= bound - 1e-9);
    }

    /// (M2): Σ k_i ≥ n² for every valid strategy's matrix, with equality
    /// exactly when the matrix is optimal (singleton entries).
    #[test]
    fn m2_and_optimality(n in 1usize..60) {
        let s = Checkerboard::new(n);
        let m = s.to_matrix();
        prop_assert!(m.satisfies_m2());
        let total: u64 = m.multiplicities().iter().sum();
        prop_assert!(total >= (n * n) as u64);
        if m.is_optimal() {
            prop_assert_eq!(total, (n * n) as u64);
        }
    }

    /// Lifting: m'(4n) = 2·m(n) and validity, for arbitrary bases.
    #[test]
    fn lift_doubles_cost(n in 1usize..40) {
        let base = Checkerboard::new(n);
        let m = base.average_cost();
        let lifted = LiftedStrategy::new(base);
        prop_assert_eq!(Strategy::node_count(&lifted), 4 * n);
        prop_assert!((lifted.average_cost() - 2.0 * m).abs() < 1e-9);
        lifted.validate().unwrap();
    }

    /// Decomposition on random connected graphs: connected parts, full
    /// cover, size ≤ 2t, every label in every part.
    #[test]
    fn decomposition_invariants(n in 2usize..80, extra in 0usize..100, seed in 0u64..1000) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let g = gen::random_connected(n, n - 1 + extra, &mut rng).unwrap();
        let d = Decomposition::new(&g).unwrap();
        let mut seen = vec![false; n];
        for part in d.parts() {
            prop_assert!(part.len() <= 2 * d.t);
            let (sub, _) = g.induced_subgraph(part).unwrap();
            prop_assert_eq!(components(&sub).len(), 1, "part must be connected");
            for &v in part {
                prop_assert!(!seen[v.index()]);
                seen[v.index()] = true;
            }
        }
        prop_assert!(seen.iter().all(|&b| b));
        for part in 0..d.part_count() {
            for label in 0..d.t as u32 {
                prop_assert_eq!(d.part_of(d.node_with_label(part, label)), part);
            }
        }
        // ... and the derived strategy is valid
        DecomposedStrategy::new(Arc::new(d)).validate().unwrap();
    }

    /// Caches: the newest stamp always wins, and nothing inserted is ever
    /// discarded (§2.1 assumption 3).
    #[test]
    fn cache_newest_wins(ops in prop::collection::vec((0u128..8, 0u32..16, 0u64..100), 1..60)) {
        let mut cache = Cache::new();
        let mut newest: std::collections::HashMap<u128, u64> = Default::default();
        for (port, addr, stamp) in ops {
            cache.insert(Port::new(port), NodeId::new(addr), stamp);
            let e = newest.entry(port).or_insert(0);
            *e = (*e).max(stamp);
            prop_assert_eq!(cache.len(), newest.len());
            for (&p, &s) in &newest {
                let entry = cache.lookup(Port::new(p)).expect("an inserted port stays cached");
                prop_assert_eq!(entry.stamp, s, "cache must hold the newest stamp");
            }
        }
    }

    /// The ruler sequence: value v appears once every 2^v trials.
    #[test]
    fn ruler_period(v in 1u32..12, k in 0u64..64) {
        // the (k+1)-th occurrence of value v is at trial (2k+1) * 2^(v-1)
        let trial = (2 * k + 1) << (v - 1);
        prop_assert_eq!(ruler(trial), v);
    }

    /// Hash locate: exactly r distinct nodes per port, deterministic.
    #[test]
    fn hash_locate_replicas(n in 1usize..100, r in 1usize..8, port in any::<u128>()) {
        let r = r.min(n);
        let h = HashLocate::new(n, r);
        let nodes = h.rendezvous_nodes(Port::new(port));
        prop_assert_eq!(nodes.len(), r);
        let mut d = nodes.clone();
        d.dedup();
        prop_assert_eq!(d.len(), r, "replicas distinct");
        prop_assert_eq!(nodes.clone(), h.rendezvous_nodes(Port::new(port)));
        prop_assert!(nodes.iter().all(|v| v.index() < n));
    }

    /// The probabilistic expectation formula is symmetric and monotone.
    #[test]
    fn expected_intersection_props(n in 1usize..500, p in 0usize..100, q in 0usize..100) {
        let p = p.min(n);
        let q = q.min(n);
        let e = bounds::expected_intersection(n, p, q);
        prop_assert!((e - bounds::expected_intersection(n, q, p)).abs() < 1e-12);
        if p < n {
            prop_assert!(bounds::expected_intersection(n, p + 1, q) >= e);
        }
        prop_assert!(e <= p.min(q) as f64 + 1e-12);
    }
}

/// Weighted optimum: the closed form beats a grid of feasible integer
/// alternatives (deterministic exhaustive check, not proptest-random).
#[test]
fn weighted_split_beats_grid_search() {
    for n in [36usize, 100, 256] {
        for alpha in [0.5f64, 1.0, 3.0, 9.0] {
            let (p_opt, q_opt) = bounds::weighted_optimal_split(n, alpha);
            let best = p_opt + alpha * q_opt;
            for p in 1..=n {
                let q = n.div_ceil(p);
                let cost = bounds::weighted_pair_cost(p, q, alpha);
                assert!(
                    cost >= best - 1e-9,
                    "integer ({p},{q}) beats optimum at n={n}, alpha={alpha}"
                );
            }
        }
    }
}

/// Over-replication must fail loudly at construction, not corrupt the
/// arrangement: `Replicated::new` rejects every `replication > n` with
/// the documented panic message (deterministic sweep, `catch_unwind`).
#[test]
fn replication_beyond_universe_panics_gracefully() {
    use match_making::core::robust::Replicated;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    for n in [1usize, 2, 4, 9, 33] {
        for extra in [1usize, 2, 100] {
            let r = n + extra;
            let err = catch_unwind(AssertUnwindSafe(|| {
                Replicated::new(Checkerboard::new(n), r)
            }))
            .expect_err("replication > n must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or("");
            assert!(
                msg.contains("replication must be in 1..=n"),
                "n={n} r={r}: unexpected panic {msg:?}"
            );
        }
    }
}
