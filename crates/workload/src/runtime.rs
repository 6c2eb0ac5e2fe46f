//! The seam between the scenario runner and whatever executes the
//! protocol: a [`Runtime`] is everything [`crate::ScenarioRunner`] needs
//! from a network of protocol nodes, and nothing about how the network is
//! scheduled.
//!
//! Two adapters live here. [`ShotgunEngine`] (the `mm-sim` event queue)
//! issues operations into simulated time and is polled for their
//! outcomes as the runner advances the clock. [`LiveRuntime`] (one OS
//! thread per node) executes each operation synchronously — lock-step —
//! so everything it issues is already *settled* when the call returns;
//! it keeps no clock at all. The runner never asks which of the two it
//! is driving: the difference reaches it only as [`Issued::settled`].
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
    FaultProfile, LiveNet, LocateHandle, LocateOutcome, RequestOutcome, ShotgunEngine,
    TargetInterner,
};
use mm_sim::{Metrics, SimTime, TargetSet};
use mm_topo::{NodeId, Router as _};

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
/// done when the call returns is its own business, reported per operation
/// through [`Issued::settled`].
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

    /// The post set `P(at, port)` a registration uses.
    fn post_targets(&mut self, at: NodeId, port: Port) -> TargetSet;
    /// The query set `Q(client, port)` a locate uses.
    fn query_targets(&mut self, client: NodeId, port: Port) -> TargetSet;

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
    /// Cumulative message accounting so far.
    fn metrics(&self) -> Metrics;
    /// Cumulative event-queue depth histogram, for runtimes that have a
    /// global event queue.
    fn queue_depth_buckets(&self) -> Option<[u64; HIST_BUCKETS]> {
        None
    }
}

/// The simulator adapter: operations enter simulated time unsettled and
/// the runner polls them as it advances the event queue.
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
        let ecc = |from: NodeId| -> (NodeId, u32) {
            (0..n)
                .map(NodeId::from)
                .map(|v| (v, rt.distance(from, v).unwrap_or(0)))
                .max_by_key(|&(_, d)| d)
                .expect("nonempty graph")
        };
        let (far, _) = ecc(NodeId::new(0));
        let (_, diameter) = ecc(far);
        // 2·diameter covers query + reply; the spec's timeout is kept as
        // slack for the double-sweep underestimate
        2 * diameter as SimTime + spec_timeout
    }

    fn post_targets(&mut self, at: NodeId, port: Port) -> TargetSet {
        ShotgunEngine::post_targets(self, at, port)
    }

    fn query_targets(&mut self, client: NodeId, port: Port) -> TargetSet {
        ShotgunEngine::query_targets(self, client, port)
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

    fn metrics(&self) -> Metrics {
        ShotgunEngine::metrics(self).clone()
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
/// (`observe::uniform_round_trip`: 0 ticks for a purely local query set,
/// 2 otherwise) — on churn-free scenarios exactly the simulator's
/// measured elapsed, which is what lets closed-loop latency percentiles
/// match byte-for-byte across the runtimes.
#[derive(Debug)]
pub struct LiveRuntime<PM> {
    net: LiveNet,
    resolver: PM,
    interner: TargetInterner,
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
            interner: TargetInterner::default(),
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

    fn post_targets(&mut self, at: NodeId, port: Port) -> TargetSet {
        self.interner.post_set(&self.resolver, at, port)
    }

    fn query_targets(&mut self, client: NodeId, port: Port) -> TargetSet {
        self.interner.query_set(&self.resolver, client, port)
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

    fn metrics(&self) -> Metrics {
        self.net.metrics()
    }
}
