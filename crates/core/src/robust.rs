//! Robustness and fault tolerance (paper §2.4).
//!
//! Two criteria from the paper:
//!
//! * **distributed** — no set of node crashes that leaves a surviving
//!   network can prevent surviving clients from locating surviving servers
//!   *after relocation* (rules out the centralized server);
//! * **redundant** — no `≤ f` crashes can prevent a client at a surviving
//!   node from locating a service at a surviving node *in place*:
//!   `#(P(i) ∩ Q(j)) ≥ f + 1` for all `i, j`.
//!
//! [`Replicated`] upgrades any strategy to the redundant condition by
//! superimposing `f+1` rotated copies; [`survives`] and
//! [`max_tolerated_faults`] analyze concrete crash sets. *"Robustness is
//! inefficient and has a price tag in number of message passes"* — the
//! overhead is measurable via `Strategy::average_cost`.

use crate::port::Port;
use crate::strategies::PortMapped;
use crate::strategy::{normalize_set, Strategy};
use mm_topo::NodeId;

/// A strategy wrapped to guarantee `#(P ∩ Q) ≥ replication` rendezvous
/// nodes per pair: the base sets are unioned with `replication − 1`
/// cyclically shifted copies (shift stride `⌊n / replication⌋`).
///
/// Each shifted copy contributes a disjointly-shifted rendezvous, so the
/// intersection grows to at least `replication` distinct nodes whenever
/// the base strategy's rendezvous sets are singletons or larger.
#[derive(Debug, Clone)]
pub struct Replicated<S> {
    base: S,
    replication: usize,
    stride: usize,
}

impl<S: Strategy> Replicated<S> {
    /// Wraps `base` to tolerate `replication − 1` rendezvous-node crashes.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ replication ≤ n` (where `n` is the base
    /// universe size).
    pub fn new(base: S, replication: usize) -> Self {
        let n = base.node_count();
        assert!(
            replication >= 1 && replication <= n,
            "replication must be in 1..=n"
        );
        let stride = (n / replication).max(1);
        Replicated {
            base,
            replication,
            stride,
        }
    }

    /// The wrapped strategy.
    pub fn base(&self) -> &S {
        &self.base
    }

    /// The replication factor (`f + 1`).
    pub fn replication(&self) -> usize {
        self.replication
    }

    fn shifted(&self, set: &[NodeId], copy: usize) -> impl Iterator<Item = NodeId> + '_ {
        let n = self.base.node_count();
        let offset = copy * self.stride;
        set.iter()
            .map(move |v| NodeId::from((v.index() + offset) % n))
            .collect::<Vec<_>>()
            .into_iter()
    }
}

impl<S: Strategy> Strategy for Replicated<S> {
    fn node_count(&self) -> usize {
        self.base.node_count()
    }

    fn post_set(&self, i: NodeId) -> Vec<NodeId> {
        let base = self.base.post_set(i);
        let mut out = Vec::with_capacity(base.len() * self.replication);
        for c in 0..self.replication {
            out.extend(self.shifted(&base, c));
        }
        normalize_set(&mut out);
        out
    }

    fn query_set(&self, j: NodeId) -> Vec<NodeId> {
        let base = self.base.query_set(j);
        let mut out = Vec::with_capacity(base.len() * self.replication);
        for c in 0..self.replication {
            out.extend(self.shifted(&base, c));
        }
        normalize_set(&mut out);
        out
    }

    fn name(&self) -> String {
        format!("replicated(x{}, {})", self.replication, self.base.name())
    }
}

/// Can a server at `i` and client at `j` still rendezvous when the nodes
/// in `crashed` are down? (`i`/`j` themselves are assumed alive; a crashed
/// rendezvous node keeps no cache.)
pub fn survives(s: &impl Strategy, i: NodeId, j: NodeId, crashed: &[NodeId]) -> bool {
    s.rendezvous(i, j).iter().any(|r| !crashed.contains(r))
}

/// The redundancy level of a strategy: `min_{i,j} #(P(i) ∩ Q(j)) − 1`,
/// the largest `f` for which the *redundant* condition holds (adversarial
/// crashes of rendezvous nodes cannot sever any alive pair).
pub fn max_tolerated_faults(s: &impl Strategy) -> usize {
    let n = s.node_count();
    let mut min_overlap = usize::MAX;
    for i in 0..n {
        let p = s.post_set(NodeId::from(i));
        for j in 0..n {
            let q = s.query_set(NodeId::from(j));
            let overlap = crate::strategy::intersect_sorted(&p, &q).len();
            min_overlap = min_overlap.min(overlap);
        }
    }
    min_overlap.saturating_sub(1)
}

/// Sampled, port-mapped variant of [`max_tolerated_faults`] for large
/// universes, usable by the workload runners (generic over
/// [`PortMapped`], which covers §5's Hash Locate as well as every
/// node-based strategy through the blanket impl): the minimum
/// `#(post ∩ query) − 1` over a deterministic stride-`7919` sample of
/// `(server, client, port)` triples. For the homogeneous strategies in
/// this repository the per-pair overlap is uniform, so even small sample
/// counts reproduce the exact value.
pub fn max_tolerated_faults_pm(pm: &impl PortMapped, ports: &[Port], samples: usize) -> usize {
    let n = pm.node_count();
    if n == 0 || ports.is_empty() {
        return 0;
    }
    let mut min_overlap = usize::MAX;
    for k in 0..samples.max(1) {
        let pair = k.wrapping_mul(7919) % (n * n);
        let (i, j) = (pair / n, pair % n);
        let port = ports[k % ports.len()];
        let p = pm.post_set_for(NodeId::from(i), port);
        let q = pm.query_set_for(NodeId::from(j), port);
        min_overlap = min_overlap.min(crate::strategy::intersect_sorted(&p, &q).len());
    }
    min_overlap.saturating_sub(1)
}

/// Port-mapped, sampled twin of [`survival_fraction`]: over a
/// deterministic stride-`7919` sample of alive `(server, client, port)`
/// triples, the fraction whose rendezvous overlap retains at least one
/// alive node. `1.0` (vacuously) when nobody is alive. `alive` is the
/// ascending complement of the `crashed` flags (the caller keeps both).
pub fn survival_fraction_pm(
    pm: &impl PortMapped,
    ports: &[Port],
    crashed: &[bool],
    alive: &[NodeId],
    samples: usize,
) -> f64 {
    if ports.is_empty() || alive.is_empty() {
        return 1.0;
    }
    let m = alive.len();
    let total = samples.max(1);
    let mut ok = 0usize;
    for k in 0..total {
        let pair = k.wrapping_mul(7919) % (m * m);
        let (i, j) = (alive[pair / m], alive[pair % m]);
        let port = ports[k % ports.len()];
        let p = pm.post_set_for(i, port);
        let q = pm.query_set_for(j, port);
        if crate::strategy::intersect_sorted(&p, &q)
            .iter()
            .any(|r| !crashed[r.index()])
        {
            ok += 1;
        }
    }
    ok as f64 / total as f64
}

/// Fraction of alive (server, client) pairs that can still rendezvous
/// after `crashed` nodes go down — the experiment E16 metric.
pub fn survival_fraction(s: &impl Strategy, crashed: &[NodeId]) -> f64 {
    let n = s.node_count();
    let alive: Vec<NodeId> = (0..n)
        .map(NodeId::from)
        .filter(|v| !crashed.contains(v))
        .collect();
    if alive.is_empty() {
        return 1.0;
    }
    let mut ok = 0usize;
    for &i in &alive {
        for &j in &alive {
            if survives(s, i, j, crashed) {
                ok += 1;
            }
        }
    }
    ok as f64 / (alive.len() * alive.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies::{Broadcast, Centralized, Checkerboard};

    #[test]
    fn replication_reaches_f_plus_one() {
        for f in 0..4usize {
            let s = Replicated::new(Checkerboard::new(25), f + 1);
            s.validate().unwrap();
            assert!(
                max_tolerated_faults(&s) >= f,
                "f={f}: tolerates only {}",
                max_tolerated_faults(&s)
            );
        }
    }

    #[test]
    fn replication_cost_scales_linearly_at_most() {
        let base = Checkerboard::new(36);
        let m1 = base.average_cost();
        let s3 = Replicated::new(Checkerboard::new(36), 3);
        let m3 = s3.average_cost();
        assert!(m3 <= 3.0 * m1 + 1e-9, "m3 = {m3} vs 3*m1 = {}", 3.0 * m1);
        assert!(m3 > m1, "robustness has a price tag");
    }

    #[test]
    fn centralized_fails_any_crash_of_center() {
        let s = Centralized::new(9, NodeId::new(4));
        assert_eq!(max_tolerated_faults(&s), 0);
        assert!(!survives(
            &s,
            NodeId::new(0),
            NodeId::new(1),
            &[NodeId::new(4)]
        ));
        let frac = survival_fraction(&s, &[NodeId::new(4)]);
        assert_eq!(frac, 0.0, "losing the center severs everyone");
    }

    #[test]
    fn broadcast_survives_rendezvous_crashes() {
        // broadcast rendezvous = server's own node; crashing *other* nodes
        // never severs an alive pair
        let s = Broadcast::new(6);
        let crashed = [NodeId::new(5)];
        let frac = survival_fraction(&s, &crashed);
        assert_eq!(frac, 1.0);
    }

    #[test]
    fn checkerboard_partially_survives() {
        let s = Checkerboard::new(16);
        // crash one rendezvous node: only the pairs using it suffer
        let frac = survival_fraction(&s, &[NodeId::new(5)]);
        assert!(frac > 0.8 && frac < 1.0, "frac = {frac}");
        // replicated version shrugs it off
        let r = Replicated::new(Checkerboard::new(16), 2);
        assert_eq!(survival_fraction(&r, &[NodeId::new(5)]), 1.0);
    }

    #[test]
    fn survival_fraction_with_everything_crashed() {
        let s = Checkerboard::new(4);
        let all: Vec<NodeId> = (0..4u32).map(NodeId::from).collect();
        assert_eq!(survival_fraction(&s, &all), 1.0, "vacuously true");
    }

    #[test]
    #[should_panic(expected = "replication must be in 1..=n")]
    fn replication_bounds() {
        let _ = Replicated::new(Checkerboard::new(4), 5);
    }

    #[test]
    fn sampled_matches_exact_on_homogeneous_strategies() {
        let ports: Vec<Port> = (0..4u128).map(Port::new).collect();
        for r in 1..=3usize {
            let s = Replicated::new(Checkerboard::new(36), r);
            let exact = max_tolerated_faults(&s);
            assert_eq!(max_tolerated_faults_pm(&s, &ports, 48), exact, "r={r}");
        }
        // Hash Locate with r replicas tolerates r − 1 rendezvous crashes
        let h = crate::strategies::HashLocate::new(36, 3);
        assert_eq!(max_tolerated_faults_pm(&h, &ports, 48), 2);
    }

    #[test]
    fn sampled_survival_tracks_the_exact_metric() {
        let ports: Vec<Port> = (0..4u128).map(Port::new).collect();
        let s = Checkerboard::new(16);
        let mut crashed = vec![false; 16];
        crashed[5] = true;
        let alive: Vec<NodeId> = (0..16u32).filter(|&v| v != 5).map(NodeId::from).collect();
        let exact = survival_fraction(&s, &[NodeId::new(5)]);
        let sampled = survival_fraction_pm(&s, &ports, &crashed, &alive, 16 * 16);
        // the exact metric samples only alive pairs of a 15-node world;
        // the pm sampler covers all alive (i, j) — both see a small dent
        assert!(sampled < 1.0 && exact < 1.0);
        assert!((sampled - exact).abs() < 0.1, "{sampled} vs {exact}");
        let r = Replicated::new(Checkerboard::new(16), 2);
        assert_eq!(survival_fraction_pm(&r, &ports, &crashed, &alive, 64), 1.0);
        assert_eq!(
            survival_fraction_pm(&s, &ports, &[true; 16], &[], 64),
            1.0,
            "vacuous when everyone is down"
        );
    }
}
