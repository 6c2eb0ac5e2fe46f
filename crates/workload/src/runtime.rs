//! The seam between the scenario runner and whatever executes the
//! protocol: a [`Runtime`] is everything [`crate::ScenarioRunner`] needs
//! from a network of protocol nodes, and nothing about how the network is
//! scheduled.
//!
//! Two adapters live here. [`ShotgunEngine`] (the `mm-sim` event queue)
//! issues operations into simulated time and reports each one as it
//! settles, through [`Runtime::drain_settled`], while the runner advances
//! the clock. [`LiveRuntime`] (one OS thread per node) executes each
//! operation synchronously — lock-step — so everything it issues is
//! already *settled* when the call returns; it keeps no clock at all. The
//! runner never asks which of the two it is driving: the difference
//! reaches it only as [`Issued::settled`] or a report, and either way it
//! reads an operation's outcome once, when it is final.
//!
//! Lock-step execution has two knowable consequences, both tolerated
//! (with documented bounds) by `tests/live_workload_equivalence.rs`:
//!
//! 1. **Churn races.** In simulated time a locate can be in flight when a
//!    crash/restore/migration lands, and its verdict then depends on
//!    tick-level interleaving. A settled operation completes before the
//!    churn fires, so operations issued within `op_timeout` ticks before a
//!    *racy* churn event (crash, restore, migrate — not cache wipes or
//!    refreshes, which commute with completed operations) may
//!    legitimately differ. Everything outside those windows must agree
//!    exactly. For the same reason a migration never lands between a
//!    settled locate and its follow-up request: stale-address bounces
//!    only happen off Byzantine forgeries there.
//! 2. **Phase bucketing.** A verdict is attributed to the phase where it
//!    is *read*: an open-loop arrival in the last tick of a phase
//!    completes in the next phase in simulated time, but in its own phase
//!    when it settles at issue. Totals across phases agree; per-phase
//!    operation counters can shift by the handful of boundary operations.

use crate::observe::uniform_round_trip;
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_obs::HIST_BUCKETS;
use mm_proto::{
    FaultProfile, LiveNet, LocateHandle, LocateOutcome, RequestOutcome, Settled, ShotgunEngine,
};
use mm_sim::{Metrics, SimTime, TargetSet};
use mm_topo::{NodeId, Router as _};
use std::borrow::Cow;

/// An operation a [`Runtime`] has just been asked to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Issued<T> {
    /// How to ask for the operation's outcome.
    pub token: T,
    /// The outcome is final already: no amount of [`Runtime::advance`]
    /// will change it, so the caller may read it on the spot instead of
    /// waiting out its timeout.
    pub settled: bool,
}

/// A network of protocol nodes the scenario runner can drive.
///
/// Time is virtual ([`SimTime`] ticks): the runner moves it with
/// [`advance`](Runtime::advance) and reads outcomes in between. An
/// adapter for a new transport provides the operations below over its own
/// notion of delivery; whether an operation takes simulated ticks or is
/// done when the call returns is its own business. Either way the runtime
/// says when an operation is final — at issue through [`Issued::settled`],
/// or later through [`drain_settled`](Runtime::drain_settled) — and the
/// runner reads its outcome then, once, not while it is still running.
pub trait Runtime {
    /// The match-making strategy resolving `P`/`Q`.
    type Resolver: PortMapped;

    /// The strategy in use (its universe is the network's node set).
    fn resolver(&self) -> &Self::Resolver;
    /// Topology label echoed in reports.
    fn topology(&self) -> String;
    /// Cost-model label echoed in reports (`uniform` / `hops`).
    fn cost_model(&self) -> &'static str;
    /// The client timeout to use for a spec that asks for `spec_timeout`:
    /// a runtime whose healthy round trips can exceed it stretches it,
    /// so slow answers are not misreported as unresolved.
    fn op_timeout(&self, spec_timeout: SimTime) -> SimTime {
        spec_timeout
    }

    /// The post set `P(at, port)` a registration uses, built fresh from
    /// the resolver: a host keeps no memo of it.
    fn post_targets(&self, at: NodeId, port: Port) -> TargetSet {
        TargetSet::from_vec(self.resolver().post_set_for(at, port))
    }
    /// The query set `Q(client, port)` a locate uses, built fresh from
    /// the resolver.
    fn query_targets(&self, client: NodeId, port: Port) -> TargetSet {
        TargetSet::from_vec(self.resolver().query_set_for(client, port))
    }

    /// Starts serving `port` at `at` and posts the address at `P(at, port)`.
    fn register_server(&mut self, at: NodeId, port: Port);
    /// Moves the server for `port` from `from` to `to` (fresher posting).
    fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId);
    /// Starts a locate for `port` from `client`.
    fn locate(&mut self, client: NodeId, port: Port) -> Issued<LocateHandle>;
    /// The locate's state as of the last [`advance`](Runtime::advance).
    fn locate_outcome(&self, h: LocateHandle) -> LocateOutcome;
    /// Starts an application request from `client` to `addr`.
    fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> Issued<u64>;
    /// The request's answer, if one has arrived by the last
    /// [`advance`](Runtime::advance).
    fn request_outcome(&self, client: NodeId, id: u64) -> Option<RequestOutcome>;
    /// Every operation that became final since the last call and was not
    /// [`Issued::settled`]: a locate with every answer in (or nobody to
    /// ask), as `Settled::Locate(handle.id)`, and an answered request, as
    /// `Settled::Request(id)`. Each is reported once. An operation that
    /// never completes (a crashed rendezvous, a lost request) is never
    /// reported; the runner's timeout decides it.
    fn drain_settled(&mut self) -> Vec<Settled>;

    /// Crashes a node: it handles nothing until restored.
    fn crash(&mut self, v: NodeId);
    /// Restores a crashed node, cache intact.
    fn restore(&mut self, v: NodeId);
    /// Empties a node's rendezvous cache.
    fn clear_cache(&mut self, v: NodeId);
    /// Assigns a Byzantine behavior profile to a node.
    fn set_fault(&mut self, v: NodeId, profile: FaultProfile);

    /// Lets virtual time pass up to (and including) `deadline`.
    fn advance(&mut self, deadline: SimTime);
    /// Cumulative message accounting so far: borrowed when the runtime
    /// keeps its counters in a [`Metrics`] (the simulator), so reading
    /// them copies nothing, or a fresh snapshot when it has to gather
    /// them (the thread network).
    fn metrics(&self) -> Cow<'_, Metrics>;
    /// Cumulative event-queue depth histogram, for runtimes that have a
    /// global event queue.
    fn queue_depth_buckets(&self) -> Option<[u64; HIST_BUCKETS]> {
        None
    }
}

/// The simulator adapter: operations enter simulated time unsettled, and
/// the engine reports each one as the node machine settles it.
impl<PM: PortMapped> Runtime for ShotgunEngine<PM> {
    type Resolver = PM;

    fn resolver(&self) -> &PM {
        ShotgunEngine::resolver(self)
    }

    fn topology(&self) -> String {
        self.sim().graph().name().to_string()
    }

    fn cost_model(&self) -> &'static str {
        // the simulator routes exactly when hops are what it charges
        match self.sim().routing() {
            Some(_) => "hops",
            None => "uniform",
        }
    }

    /// Under hop cost a healthy answer takes a store-and-forward round
    /// trip (≈ 2·diameter), which on sparse topologies exceeds any fixed
    /// timeout: stretch by it.
    fn op_timeout(&self, spec_timeout: SimTime) -> SimTime {
        let Some(rt) = self.sim().routing() else {
            return spec_timeout;
        };
        // double-sweep estimate of the diameter via the router:
        // eccentricity of node 0, then of the farthest node
        let n = self.sim().graph().node_count();
        // the farthest node, the last of equals as `max_by_key` picks it
        let ecc = |from: NodeId| -> (NodeId, u32) {
            (0..n)
                .map(NodeId::from)
                .map(|v| (v, rt.distance(from, v).unwrap_or(0)))
                .fold(
                    (from, 0),
                    |far, (v, d)| if d >= far.1 { (v, d) } else { far },
                )
        };
        let (far, _) = ecc(NodeId::new(0));
        let (_, diameter) = ecc(far);
        // 2·diameter covers query + reply; the spec's timeout is kept as
        // slack for the double-sweep underestimate
        2 * diameter as SimTime + spec_timeout
    }

    fn register_server(&mut self, at: NodeId, port: Port) {
        ShotgunEngine::register_server(self, at, port);
    }

    fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId) {
        ShotgunEngine::migrate_server(self, port, from, to);
    }

    fn locate(&mut self, client: NodeId, port: Port) -> Issued<LocateHandle> {
        Issued {
            token: ShotgunEngine::locate(self, client, port),
            settled: false,
        }
    }

    fn locate_outcome(&self, h: LocateHandle) -> LocateOutcome {
        self.outcome(h)
    }

    fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> Issued<u64> {
        Issued {
            token: ShotgunEngine::request(self, client, addr, port, body),
            settled: false,
        }
    }

    fn request_outcome(&self, client: NodeId, id: u64) -> Option<RequestOutcome> {
        ShotgunEngine::request_outcome(self, client, id)
    }

    fn drain_settled(&mut self) -> Vec<Settled> {
        ShotgunEngine::drain_settled(self).collect()
    }

    fn crash(&mut self, v: NodeId) {
        ShotgunEngine::crash(self, v);
    }

    fn restore(&mut self, v: NodeId) {
        ShotgunEngine::restore(self, v);
    }

    fn clear_cache(&mut self, v: NodeId) {
        ShotgunEngine::clear_cache(self, v);
    }

    fn set_fault(&mut self, v: NodeId, profile: FaultProfile) {
        ShotgunEngine::set_fault(self, v, profile);
    }

    fn advance(&mut self, deadline: SimTime) {
        self.run_until(deadline);
    }

    fn metrics(&self) -> Cow<'_, Metrics> {
        Cow::Borrowed(ShotgunEngine::metrics(self))
    }

    fn queue_depth_buckets(&self) -> Option<[u64; HIST_BUCKETS]> {
        Some(*self.sim().queue_depth_buckets())
    }
}

/// The thread-network adapter: a [`LiveNet`] of `n` node threads plus the
/// strategy that resolves its `P`/`Q` sets. [`LiveNet`]'s driver calls
/// are synchronous, so every operation is settled when issued and its
/// outcome is banked here for the runner to read; advancing time has
/// nothing left to do. The network is inherently complete under the
/// uniform cost model (every thread can message every thread in one
/// pass), which is also the timing law stamped on the outcomes
/// (`observe::uniform_round_trip`: 0 ticks when no target is remote,
/// 2 otherwise) — on churn-free scenarios exactly the simulator's
/// measured elapsed, which is what lets closed-loop latency percentiles
/// match byte-for-byte across the runtimes.
#[derive(Debug)]
pub struct LiveRuntime<PM> {
    net: LiveNet,
    resolver: PM,
    /// Settled outcomes, indexed by the handle/request id handed out.
    locates: Vec<LocateOutcome>,
    requests: Vec<Option<RequestOutcome>>,
}

impl<PM: PortMapped> LiveRuntime<PM> {
    /// Spawns `n` node threads running `resolver`'s strategy.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0 or the resolver universe differs from `n`.
    pub fn new(n: usize, resolver: PM) -> Self {
        assert!(n > 0, "empty network");
        assert_eq!(
            n,
            resolver.node_count(),
            "resolver universe must match the network"
        );
        LiveRuntime {
            net: LiveNet::new(n),
            resolver,
            locates: Vec::new(),
            requests: Vec::new(),
        }
    }
}

impl<PM: PortMapped> Runtime for LiveRuntime<PM> {
    type Resolver = PM;

    fn resolver(&self) -> &PM {
        &self.resolver
    }

    fn topology(&self) -> String {
        "live-threads".to_string()
    }

    fn cost_model(&self) -> &'static str {
        "uniform"
    }

    fn register_server(&mut self, at: NodeId, port: Port) {
        let targets = self.post_targets(at, port);
        self.net.register_server(at, port, targets);
    }

    fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId) {
        let targets = self.post_targets(to, port);
        self.net.migrate_server(port, from, to, targets);
    }

    fn locate(&mut self, client: NodeId, port: Port) -> Issued<LocateHandle> {
        let targets = self.query_targets(client, port);
        let round_trip = uniform_round_trip(&targets, client);
        let mut outcome = self.net.locate(client, port, targets);
        if let LocateOutcome::Found { elapsed, .. } | LocateOutcome::NotFound { elapsed } =
            &mut outcome
        {
            *elapsed = round_trip;
        }
        self.locates.push(outcome);
        Issued {
            token: LocateHandle {
                client,
                id: self.locates.len() as u64 - 1,
            },
            settled: true,
        }
    }

    fn locate_outcome(&self, h: LocateHandle) -> LocateOutcome {
        self.locates[h.id as usize].clone()
    }

    fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> Issued<u64> {
        let outcome = self.net.request(client, addr, port, body);
        self.requests.push(outcome);
        Issued {
            token: self.requests.len() as u64 - 1,
            settled: true,
        }
    }

    fn request_outcome(&self, _client: NodeId, id: u64) -> Option<RequestOutcome> {
        self.requests[id as usize]
    }

    /// Every operation settled when it was issued: there is nothing left
    /// to report.
    fn drain_settled(&mut self) -> Vec<Settled> {
        Vec::new()
    }

    fn crash(&mut self, v: NodeId) {
        self.net.crash(v);
    }

    fn restore(&mut self, v: NodeId) {
        self.net.restore(v);
    }

    fn clear_cache(&mut self, v: NodeId) {
        self.net.clear_cache(v);
    }

    fn set_fault(&mut self, v: NodeId, profile: FaultProfile) {
        self.net.set_fault(v, profile);
    }

    /// Every operation settled when it was issued.
    fn advance(&mut self, _deadline: SimTime) {}

    fn metrics(&self) -> Cow<'_, Metrics> {
        Cow::Owned(self.net.metrics())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_core::strategies::Checkerboard;
    use mm_sim::CostModel;
    use mm_topo::gen;

    /// Checkerboard, except that one client's `Q` is empty.
    struct EmptyQueryAt {
        inner: Checkerboard,
        client: NodeId,
    }

    impl PortMapped for EmptyQueryAt {
        fn node_count(&self) -> usize {
            self.inner.node_count()
        }
        fn post_set_for(&self, i: NodeId, port: Port) -> Vec<NodeId> {
            self.inner.post_set_for(i, port)
        }
        fn query_set_for(&self, j: NodeId, port: Port) -> Vec<NodeId> {
            if j == self.client {
                Vec::new()
            } else {
                self.inner.query_set_for(j, port)
            }
        }
    }

    fn locate_by<R: Runtime>(
        rt: &mut R,
        client: NodeId,
        port: Port,
        deadline: u64,
    ) -> LocateOutcome {
        let issued = rt.locate(client, port);
        rt.advance(deadline);
        rt.locate_outcome(issued.token)
    }

    /// Regression (drift between the hosts): the machine settles a locate
    /// over an empty query set at issue, so both hosts must report it 0
    /// ticks long, not the 2-tick round trip of a remote fan-out.
    #[test]
    fn an_empty_query_set_takes_no_ticks_on_either_host() {
        let n = 9;
        let lonely = NodeId::new(4);
        let resolver = || EmptyQueryAt {
            inner: Checkerboard::new(n),
            client: lonely,
        };
        let port = Port::from_name("svc");
        let server = NodeId::new(1);
        let mut sim = ShotgunEngine::new(gen::complete(n), resolver(), CostModel::Uniform);
        let mut live = LiveRuntime::new(n, resolver());
        Runtime::register_server(&mut sim, server, port);
        sim.advance(8);
        live.register_server(server, port);
        let lonely_sim = locate_by(&mut sim, lonely, port, 16);
        let lonely_live = locate_by(&mut live, lonely, port, 16);
        assert_eq!(lonely_sim, LocateOutcome::NotFound { elapsed: 0 });
        assert_eq!(lonely_live, lonely_sim);
        for outcome in [
            locate_by(&mut sim, NodeId::new(7), port, 32),
            locate_by(&mut live, NodeId::new(7), port, 32),
        ] {
            assert!(
                matches!(outcome, LocateOutcome::Found { addr, elapsed: 2, .. } if addr == server),
                "{outcome:?}"
            );
        }
    }
}
