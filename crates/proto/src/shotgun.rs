//! The Shotgun Locate engine (paper §1.5, §2.1).
//!
//! *"A server process `s` located at address `A_s` and offering a service
//! identified by a port `π` selects a collection `P_s` of network nodes
//! and posts at these nodes that server `s` receives requests on port `π`
//! at the address `A_s`. … When a client process `c` … has a request to
//! send to `π`, it selects a collection of network nodes `Q_c` and queries
//! each node in `Q_c` for the address of `π`. When `P_s ∩ Q_c ≠ ∅`, the
//! node(s) in the intersection will return a message to `c` stating that
//! `π` is available at `A_s`."*
//!
//! [`ShotgunEngine`] drives that protocol on the [`mm_sim`] simulator. It
//! is generic over [`PortMapped`], the `P, Q : U × Π → 2^U` generalization
//! of §5 — so plain strategies (which ignore the port) and Hash Locate
//! (which ignores the node) both run unchanged.
//!
//! A locate completes when every queried node has answered; the client
//! prefers the answer with the newest timestamp, which makes locates
//! return the *current* address even right after a migration (the server's
//! fresh posting necessarily intersects the client's query set).
//!
//! The engine reports completions instead of waiting to be polled: the
//! machine's [`Settled`] verdict travels from the handler to the engine as
//! a simulator report, and [`ShotgunEngine::drain_settled`] hands out what
//! settled since it was last asked.

use crate::fault::FaultProfile;
use crate::messages::ProtoMsg;
use crate::node::{NodeMachine, Outbox, Settled};
use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_sim::{
    CostModel, Envelope, FanInApi, Metrics, Node, NodeApi, QueueKind, RouterKind, ShardMode, Sim,
    SimTime, TargetSet,
};
use mm_topo::{Graph, NodeId};

pub use crate::node::{LocateOutcome, RequestOutcome};

/// Handle identifying a locate operation: `(client node, locate id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LocateHandle {
    /// The client node the locate was issued from.
    pub client: NodeId,
    /// Engine-unique id.
    pub id: u64,
}

/// The simulator hosts the node machine: messages come off the event
/// queue, effects go back onto it through [`NodeApi`].
impl Outbox for NodeApi<'_, ProtoMsg> {
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        NodeApi::send(self, to, msg);
    }

    fn multicast(&mut self, to: TargetSet, msg: ProtoMsg) {
        self.multicast_set(to, msg);
    }
}

/// Hands the machine's verdicts to the engine as simulator reports.
///
/// Equal `Miss` answers a locate's fan makes for one client join into a
/// fan-in, handled by the same rule as one `Miss` (`NodeMachine::missed`):
/// a miss sends nothing and reads nothing of its envelope but the payload.
/// A `Hit` never joins — each carries the node it came from.
///
/// A `Query`'s one effect is its answer (`NodeMachine::answer`, the rule
/// `handle` sends by), so the simulator may take it as the delivery's
/// [`reply`](Node::reply) and answer a locate's fan in bulk.
impl Node<ProtoMsg> for NodeMachine {
    fn on_message(&mut self, env: Envelope<ProtoMsg>, api: &mut NodeApi<'_, ProtoMsg>) {
        if let Some(settled) = self.handle(api.me(), env.msg, api.now(), api) {
            api.report(token(settled));
        }
    }

    fn joins(a: &ProtoMsg, b: &ProtoMsg) -> bool {
        matches!(a, ProtoMsg::Miss { .. }) && a == b
    }

    fn reply(&self, me: NodeId, msg: &ProtoMsg) -> Option<(NodeId, ProtoMsg)> {
        match *msg {
            ProtoMsg::Query {
                port,
                reply_to,
                locate_id,
            } => Some((reply_to, self.answer(me, port, locate_id))),
            _ => None,
        }
    }

    fn on_fan_in(&mut self, msg: &ProtoMsg, count: u64, api: &mut FanInApi<'_>) {
        if let ProtoMsg::Miss { locate_id, .. } = *msg {
            // lossless: a fan-in counts answers sent in one tick, one
            // handler call each, far fewer than `usize::MAX`
            if let Some(settled) = self.missed(locate_id, count as usize, api.now()) {
                api.report(token(settled));
            }
        }
    }
}

/// A verdict as a simulator report token: the id, with the kind in the
/// low bit (engine ids are counters, far below 2⁶³).
fn token(settled: Settled) -> u64 {
    match settled {
        Settled::Locate(id) => id << 1,
        Settled::Request(id) => id << 1 | 1,
    }
}

/// The verdict a [`token`] stands for.
fn settled(token: u64) -> Settled {
    let id = token >> 1;
    if token & 1 == 0 {
        Settled::Locate(id)
    } else {
        Settled::Request(id)
    }
}

/// The engine: a simulator full of [`NodeMachine`]s plus the `P`/`Q` resolver
/// and operation bookkeeping.
#[derive(Debug)]
pub struct ShotgunEngine<PM> {
    sim: Sim<ProtoMsg, NodeMachine>,
    resolver: PM,
    next_locate: u64,
    next_request: u64,
    clock: u64,
    /// Locates complete at issue (an empty query set), not yet handed out.
    vacuous: Vec<Settled>,
}

impl<PM: PortMapped> ShotgunEngine<PM> {
    /// Builds an engine over `graph` using `resolver` for `P`/`Q`.
    ///
    /// # Panics
    ///
    /// Panics if the resolver's universe size differs from the graph's.
    pub fn new(graph: Graph, resolver: PM, cost_model: CostModel) -> Self {
        Self::with_router(
            graph,
            resolver,
            cost_model,
            QueueKind::Calendar,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Builds an engine with every execution axis explicit: the event
    /// queue ([`QueueKind`]) and the routing backend ([`RouterKind`]).
    /// Both are output-invariant; the differential suite runs each setting
    /// against the workload layer's reference host. `mode` is
    /// a compatibility alias that selects nothing (see [`ShardMode`]).
    ///
    /// # Panics
    ///
    /// Panics if the resolver's universe size differs from the graph's.
    pub fn with_router(
        graph: Graph,
        resolver: PM,
        cost_model: CostModel,
        kind: QueueKind,
        mode: ShardMode,
        router: RouterKind,
    ) -> Self {
        assert_eq!(
            graph.node_count(),
            resolver.node_count(),
            "resolver universe must match the graph"
        );
        let n = graph.node_count();
        let nodes = (0..n).map(|_| NodeMachine::default()).collect();
        ShotgunEngine {
            sim: Sim::with_router(graph, nodes, cost_model, kind, mode, router),
            resolver,
            next_locate: 0,
            next_request: 0,
            clock: 0,
            vacuous: Vec::new(),
        }
    }

    /// The underlying simulator (for inspection).
    pub fn sim(&self) -> &Sim<ProtoMsg, NodeMachine> {
        &self.sim
    }

    /// The resolver in use.
    pub fn resolver(&self) -> &PM {
        &self.resolver
    }

    /// Accumulated metrics (message passes etc.).
    pub fn metrics(&self) -> &Metrics {
        self.sim.metrics()
    }

    /// The query set `Q(client, port)` a locate from `client` uses, built
    /// fresh from the resolver — exposed so tracing layers can enumerate
    /// the fan-out.
    pub fn query_targets(&self, client: NodeId, port: Port) -> TargetSet {
        TargetSet::from_vec(self.resolver.query_set_for(client, port))
    }

    /// The post set `P(at, port)` a registration at `at` uses — the
    /// tracing-layer counterpart of [`ShotgunEngine::query_targets`].
    pub fn post_targets(&self, at: NodeId, port: Port) -> TargetSet {
        TargetSet::from_vec(self.resolver.post_set_for(at, port))
    }

    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Starts (`on`) or stops serving `port` at `at` and posts or
    /// withdraws `(port, at)` at `targets` under a fresh stamp, which it
    /// returns.
    fn advertise(&mut self, at: NodeId, port: Port, targets: TargetSet, on: bool) -> u64 {
        let stamp = self.next_stamp();
        let node = self.sim.node_mut(at);
        if on {
            node.serve(port);
        } else {
            node.unserve(port);
        }
        let cmd = ProtoMsg::advertise(on, port, at, stamp, targets);
        self.sim.inject(at, at, cmd);
        stamp
    }

    /// Registers a server for `port` at node `at` and posts its address at
    /// `P(at, port)`. Returns the posting timestamp.
    pub fn register_server(&mut self, at: NodeId, port: Port) -> u64 {
        let targets = self.post_targets(at, port);
        self.advertise(at, port, targets, true)
    }

    /// Posts `(port, at)` for the server at `at` at an explicit target set
    /// (Hash Locate repair posting to rehash backups). Returns the posting
    /// timestamp.
    pub fn post_at(&mut self, at: NodeId, port: Port, targets: Vec<NodeId>) -> u64 {
        self.advertise(at, port, TargetSet::from_vec(targets), true)
    }

    /// Deregisters the server and withdraws its postings.
    pub fn deregister_server(&mut self, at: NodeId, port: Port) {
        let targets = self.post_targets(at, port);
        self.advertise(at, port, targets, false);
    }

    /// Migrates the server for `port` from `from` to `to`: the paper's
    /// mobile-process scenario. The new posting carries a newer stamp, so
    /// caches and clients converge on the new address.
    pub fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId) -> u64 {
        self.sim.node_mut(from).unserve(port);
        self.register_server(to, port)
    }

    /// Issues a locate for `port` from `client`; run the engine, then read
    /// the result with [`ShotgunEngine::outcome`].
    pub fn locate(&mut self, client: NodeId, port: Port) -> LocateHandle {
        let targets = self.query_targets(client, port);
        self.issue_locate(client, port, targets)
    }

    /// Issues a locate querying an explicit target set (used by Hash
    /// Locate's rehash retries).
    pub fn locate_at(&mut self, client: NodeId, port: Port, targets: Vec<NodeId>) -> LocateHandle {
        self.issue_locate(client, port, TargetSet::from_vec(targets))
    }

    /// The client's record opens here, at issue, so that a locate whose
    /// fan-out command is lost (the client crashed this very tick) still
    /// reports what it asked for and never heard back — and a locate with
    /// nobody to ask is complete, and reported, on the spot.
    fn issue_locate(&mut self, client: NodeId, port: Port, targets: TargetSet) -> LocateHandle {
        let id = self.next_locate;
        self.next_locate += 1;
        let now = self.sim.now();
        let begun = self
            .sim
            .node_mut(client)
            .begin_locate(id, targets.len(), now);
        self.vacuous.extend(begun);
        self.sim.inject(
            client,
            client,
            ProtoMsg::DoLocate {
                port,
                locate_id: id,
                targets,
            },
        );
        LocateHandle { client, id }
    }

    /// Sends an application request to a located address (charging the
    /// client→server route). Check the result with
    /// [`ShotgunEngine::request_outcome`] after running.
    pub fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> u64 {
        let id = self.next_request;
        self.next_request += 1;
        let now = self.sim.now();
        self.sim.node_mut(client).begin_request(id, now);
        self.sim.inject(
            client,
            client,
            ProtoMsg::DoRequest {
                port,
                addr,
                body,
                request_id: id,
            },
        );
        id
    }

    /// Runs the simulation until idle; returns the metrics.
    pub fn run(&mut self) -> &Metrics {
        self.sim.run();
        self.sim.metrics()
    }

    /// Runs the simulation up to (and including) `deadline`, advancing
    /// the clock through idle gaps — the open-loop driver used by
    /// workload generators that interleave injections with simulated
    /// time. Returns the new simulated time.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.sim.run_until(deadline)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The locates and requests that reached their verdict since the last
    /// call: every answer of a locate is in (or it asked nobody), or a
    /// request was answered. A locate still waiting on a crashed node is
    /// never here; its caller's timeout decides it. Read the verdict itself
    /// with [`ShotgunEngine::outcome`] / [`ShotgunEngine::request_outcome`].
    pub fn drain_settled(&mut self) -> impl Iterator<Item = Settled> + '_ {
        self.vacuous
            .drain(..)
            .chain(self.sim.reports().map(settled))
    }

    /// The current state of a locate operation. A locate whose client
    /// crashed before fanning out stays [`LocateOutcome::Unresolved`] with
    /// its whole query set missing; the caller's operation timeout
    /// classifies it. A handle this engine never issued reads as a locate
    /// that asked nobody.
    pub fn outcome(&self, h: LocateHandle) -> LocateOutcome {
        self.sim
            .node(h.client)
            .locate_outcome(h.id)
            .unwrap_or(LocateOutcome::unanswered(0))
    }

    /// The outcome of an application request, if the reply arrived.
    pub fn request_outcome(&self, client: NodeId, id: u64) -> Option<RequestOutcome> {
        self.sim.node(client).request_outcome(id)
    }

    /// Crashes a node (it keeps no cache and answers nothing).
    pub fn crash(&mut self, v: NodeId) {
        self.sim.crash(v);
    }

    /// Restores a crashed node (cache intact; real systems would rebuild —
    /// callers can clear it via [`ShotgunEngine::clear_cache`]).
    pub fn restore(&mut self, v: NodeId) {
        self.sim.restore(v);
    }

    /// Empties a node's rendezvous cache (e.g. after restoring a crash to
    /// model lost volatile memory).
    pub fn clear_cache(&mut self, v: NodeId) {
        self.sim.node_mut(v).clear_cache();
    }

    /// Assigns an adversarial behavior profile to a node (see
    /// [`FaultProfile`]). Takes effect for all messages the node handles
    /// from now on; pass [`FaultProfile::Honest`] to heal it.
    pub fn set_fault(&mut self, v: NodeId, profile: FaultProfile) {
        self.sim.node_mut(v).set_fault(profile);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FORGED_STAMP;
    use mm_core::strategies::{Broadcast, Checkerboard};
    use mm_topo::gen;

    fn port(name: &str) -> Port {
        Port::from_name(name)
    }

    #[test]
    fn locate_finds_posted_server() {
        let g = gen::complete(16);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(16), CostModel::Uniform);
        let p = port("file");
        eng.register_server(NodeId::new(3), p);
        eng.run();
        let h = eng.locate(NodeId::new(12), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, meets, .. } => {
                assert_eq!(addr, NodeId::new(3));
                assert_eq!(
                    meets.len(),
                    1,
                    "checkerboard row ∩ column meets at exactly one node"
                );
                let q = mm_core::Strategy::query_set(eng.resolver(), NodeId::new(12));
                let p = mm_core::Strategy::post_set(eng.resolver(), NodeId::new(3));
                assert!(q.contains(&meets[0]) && p.contains(&meets[0]));
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn locate_unknown_port_is_not_found() {
        let g = gen::complete(9);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(9), CostModel::Uniform);
        let h = eng.locate(NodeId::new(0), port("ghost"));
        eng.run();
        assert!(matches!(eng.outcome(h), LocateOutcome::NotFound { .. }));
    }

    #[test]
    fn message_cost_matches_strategy_prediction() {
        let n = 25;
        let g = gen::complete(n);
        let strat = Checkerboard::new(n);
        let post = mm_core::Strategy::post_count(&strat, NodeId::new(7));
        let query = mm_core::Strategy::query_count(&strat, NodeId::new(19));
        let mut eng = ShotgunEngine::new(g, strat, CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(7), p);
        eng.run();
        let before = eng.metrics().message_passes;
        // posting costs #P passes, minus a free self-delivery if the
        // server's own node is in P
        let self_in_p = mm_core::Strategy::post_set(eng.resolver(), NodeId::new(7))
            .contains(&NodeId::new(7)) as usize;
        assert_eq!(before as usize, post - self_in_p, "posting costs #P passes");
        let h = eng.locate(NodeId::new(19), p);
        eng.run();
        let after = eng.metrics().message_passes;
        // locate costs #Q queries + #Q replies (self queries/replies free)
        let self_in_q = mm_core::Strategy::query_set(eng.resolver(), NodeId::new(19))
            .contains(&NodeId::new(19)) as usize;
        assert_eq!((after - before) as usize, 2 * (query - self_in_q));
        assert!(matches!(eng.outcome(h), LocateOutcome::Found { .. }));
    }

    #[test]
    fn migration_newest_stamp_wins() {
        let g = gen::complete(16);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(16), CostModel::Uniform);
        let p = port("db");
        eng.register_server(NodeId::new(2), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(2), NodeId::new(13));
        eng.run();
        let h = eng.locate(NodeId::new(5), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, .. } => {
                assert_eq!(addr, NodeId::new(13), "locate must see the new address")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn crashed_rendezvous_leaves_unresolved_with_broadcast_still_working() {
        let g = gen::complete(9);
        let mut eng = ShotgunEngine::new(g, Broadcast::new(9), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(4), p);
        eng.run();
        // crash one *non-rendezvous* node: broadcast queries it, gets no answer
        eng.crash(NodeId::new(8));
        let h = eng.locate(NodeId::new(0), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Unresolved { best, missing, .. } => {
                assert_eq!(best.map(|(a, _)| a), Some(NodeId::new(4)));
                assert_eq!(missing, 1);
            }
            other => panic!("expected unresolved with partial hit, got {other:?}"),
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let g = gen::complete(8);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(8), CostModel::Uniform);
        let p = port("adder");
        eng.register_server(NodeId::new(6), p);
        eng.run();
        let id = eng.request(NodeId::new(1), NodeId::new(6), p, 41);
        eng.run();
        assert_eq!(
            eng.request_outcome(NodeId::new(1), id),
            Some(RequestOutcome::Replied {
                body: 42,
                elapsed: 2
            })
        );
    }

    #[test]
    fn stale_address_yields_not_here() {
        let g = gen::complete(8);
        let mut eng = ShotgunEngine::new(g, Checkerboard::new(8), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(6), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(6), NodeId::new(2));
        eng.run();
        // request the *old* address
        let id = eng.request(NodeId::new(1), NodeId::new(6), p, 0);
        eng.run();
        assert_eq!(
            eng.request_outcome(NodeId::new(1), id),
            Some(RequestOutcome::StaleAddress)
        );
    }

    #[test]
    fn forged_address_wins_stamp_but_is_flagged_by_dissent() {
        let n = 16;
        let mut eng = ShotgunEngine::new(gen::complete(n), Broadcast::new(n), CostModel::Uniform);
        let p = port("svc");
        eng.register_server(NodeId::new(3), p);
        eng.run();
        let liar = NodeId::new(7);
        eng.set_fault(liar, FaultProfile::ForgedAddress);
        let h = eng.locate(NodeId::new(0), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found {
                addr,
                stamp,
                dissent,
                ..
            } => {
                assert_eq!(addr, liar, "the forged stamp out-bids honesty");
                assert_eq!(stamp, FORGED_STAMP);
                assert!(dissent >= 1, "the honest hit disagrees: lie is detectable");
            }
            other => panic!("expected a (detectable) forged hit, got {other:?}"),
        }
    }

    #[test]
    fn drop_posts_and_refuse_match_erode_redundancy() {
        // checkerboard rendezvous are singletons: one bad rendezvous node
        // converts a sure hit into a clean miss
        let n = 16;
        let strat = Checkerboard::new(n);
        let server = NodeId::new(3);
        let client = NodeId::new(12);
        let rdv = mm_core::Strategy::rendezvous(&strat, server, client);
        assert_eq!(rdv.len(), 1);
        for fault in [FaultProfile::DropPosts, FaultProfile::RefuseMatch] {
            let mut eng =
                ShotgunEngine::new(gen::complete(n), Checkerboard::new(n), CostModel::Uniform);
            eng.set_fault(rdv[0], fault);
            let p = port("svc");
            eng.register_server(server, p);
            eng.run();
            let h = eng.locate(client, p);
            eng.run();
            assert!(
                matches!(eng.outcome(h), LocateOutcome::NotFound { .. }),
                "{fault:?} at the only rendezvous must sever the pair"
            );
        }
    }

    #[test]
    fn stale_address_fault_pins_the_first_posting() {
        use mm_core::strategies::HashLocate;
        let n = 16;
        let mut eng =
            ShotgunEngine::new(gen::complete(n), HashLocate::new(n, 2), CostModel::Uniform);
        let p = port("svc");
        let replicas = eng.resolver().rendezvous_nodes(p);
        for &r in &replicas {
            eng.set_fault(r, FaultProfile::StaleAddress);
        }
        eng.register_server(NodeId::new(2), p);
        eng.run();
        eng.migrate_server(p, NodeId::new(2), NodeId::new(13));
        eng.run();
        let h = eng.locate(NodeId::new(5), p);
        eng.run();
        match eng.outcome(h) {
            LocateOutcome::Found { addr, dissent, .. } => {
                assert_eq!(
                    addr,
                    NodeId::new(2),
                    "pinned first posting survives the migration"
                );
                assert_eq!(
                    dissent, 0,
                    "unanimous staleness is undetectable by cross-check"
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn hops_model_costs_more_on_sparse_graphs() {
        let n = 16;
        let run = |cost| {
            let g = gen::ring(n);
            let mut eng = ShotgunEngine::new(g, Checkerboard::new(n), cost);
            let p = port("svc");
            eng.register_server(NodeId::new(0), p);
            eng.run();
            let h = eng.locate(NodeId::new(8), p);
            eng.run();
            assert!(eng.outcome(h).is_complete());
            eng.metrics().message_passes
        };
        assert!(
            run(CostModel::Hops) > run(CostModel::Uniform),
            "store-and-forward overhead must show up on a ring"
        );
    }

    /// Regression (drift between the hosts): a locate over an empty query
    /// set used to stay `Unresolved { missing: 0 }` forever here while the
    /// threaded host reported `NotFound`, and a locate issued at a crashed
    /// client reported nothing missing here and `|Q|` there.
    #[test]
    fn empty_query_set_and_crashed_client_match_the_threaded_host() {
        let n = 16;
        let mut eng =
            ShotgunEngine::new(gen::complete(n), Checkerboard::new(n), CostModel::Uniform);
        let p = port("svc");
        let client = NodeId::new(9);
        let h = eng.locate_at(client, p, vec![]);
        eng.run();
        assert_eq!(eng.outcome(h), LocateOutcome::NotFound { elapsed: 0 });
        let q = mm_core::Strategy::query_count(eng.resolver(), client);
        eng.crash(client);
        let h = eng.locate(client, p);
        eng.run();
        assert_eq!(eng.outcome(h), LocateOutcome::unanswered(q));
    }

    /// The engine reports each verdict once, as it lands: a vacuous locate
    /// at issue — at a crashed client too, whose `DoLocate` is dropped (a
    /// retry or relocate can reuse a client that has since crashed) — and
    /// a request once its `Reply` or `NotHere` arrives. A locate waiting on
    /// a crashed rendezvous is never reported; its caller's timeout decides
    /// it.
    #[test]
    fn the_engine_reports_every_verdict_once_when_it_lands() {
        let n = 16;
        let mut eng = ShotgunEngine::new(gen::complete(n), Broadcast::new(n), CostModel::Uniform);
        let p = port("svc");
        let (server, client) = (NodeId::new(6), NodeId::new(9));
        eng.register_server(server, p);
        eng.run();
        assert_eq!(eng.drain_settled().count(), 0, "posting settles nothing");

        let vacuous = eng.locate_at(client, p, vec![]);
        let reported = |eng: &mut ShotgunEngine<Broadcast>| eng.drain_settled().collect::<Vec<_>>();
        assert_eq!(
            reported(&mut eng),
            [Settled::Locate(vacuous.id)],
            "at issue"
        );
        eng.run();
        assert_eq!(reported(&mut eng), [], "its DoLocate reports nothing more");

        eng.crash(client);
        let lost = eng.locate_at(client, p, vec![]);
        let unasked = eng.locate(client, p);
        eng.run();
        assert_eq!(reported(&mut eng), [Settled::Locate(lost.id)]);
        assert_eq!(eng.outcome(lost), LocateOutcome::NotFound { elapsed: 0 });
        assert!(!eng.outcome(unasked).is_complete());

        eng.restore(client);
        let found = eng.locate(client, p);
        let replied = eng.request(client, server, p, 1);
        let bounced = eng.request(client, NodeId::new(7), p, 1);
        eng.run();
        let got = reported(&mut eng);
        assert_eq!(got.len(), 3, "{got:?}");
        for settled in [
            Settled::Locate(found.id),
            Settled::Request(replied),
            Settled::Request(bounced),
        ] {
            assert!(got.contains(&settled), "{settled:?} missing from {got:?}");
        }
        assert!(eng.outcome(found).is_complete());
        assert!(matches!(
            eng.request_outcome(client, replied),
            Some(RequestOutcome::Replied { .. })
        ));
        assert_eq!(
            eng.request_outcome(client, bounced),
            Some(RequestOutcome::StaleAddress)
        );

        eng.crash(NodeId::new(8));
        let stuck = eng.locate(client, p);
        eng.run();
        assert_eq!(reported(&mut eng), [], "one rendezvous never answers");
        assert!(!eng.outcome(stuck).is_complete());
    }
}
