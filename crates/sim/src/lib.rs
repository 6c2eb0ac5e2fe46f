//! # mm-sim — deterministic discrete-event network simulator
//!
//! The paper measures match-making algorithms in *message passes* ("hops"):
//! the sending of a message from one node to a direct neighbor in the
//! store-and-forward communications graph. This crate provides a simulator
//! that accounts for exactly that quantity:
//!
//! * [`Sim`] — the event loop: nodes implement [`Node`] handlers, exchange
//!   messages over a [`mm_topo::Graph`], and every edge traversal is
//!   counted.
//! * [`CostModel`] — `Hops` routes every message along shortest paths
//!   (store-and-forward, §2.3.5); `Uniform` charges one pass per
//!   destination (the paper's complete-network assumption of §2.1, "all
//!   messages can be routed in one message pass to their destinations").
//! * [`Metrics`] — message passes, sends, deliveries, drops, per-node load.
//! * fault injection — [`Sim::crash`]/[`Sim::restore`]: crashed processors
//!   neither receive nor forward; messages die at the first crashed node
//!   on their path, and the passes spent up to that point stay spent.
//! * [`ShardMode`] — a compatibility name that selects nothing: there
//!   is one execution core, and every value runs it.
//!
//! The paper's model has one network, and [`Sim`] is the handlers plus
//! one copy of it: graph, routes, crash flags, clock, metrics, the
//! queue-depth histogram and the queue of pending deliveries. A queue
//! entry is one [`Envelope`] — or, for a multicast under
//! [`CostModel::Uniform`], one *fan*: every remote copy lands on the next
//! tick (§2.1), so the copies share a single entry that holds the
//! [`TargetSet`] and the payload once. The loop takes one tick's whole
//! FIFO run off the queue at a time, runs each delivery its entries stand
//! for in run order — a fan's in target order, each counted, charged and
//! dropped exactly as an envelope of its own would be — and hands the
//! handler a [`NodeApi`] over that network, so a send is routed, charged
//! and queued while the handler runs; a send for the same tick queues
//! behind the whole run, as it would behind the rest of the tick. Queue
//! depth is the number of pending deliveries, not of entries, so every
//! report reads the same as with one entry per copy. A parallel per-tick
//! scheduler was built, measured behind this loop at every setting, and
//! deleted (README "Sharded execution").
//!
//! Everything is deterministic: events execute in time order, FIFO within
//! a timestamp, and the only randomness is whatever the embedded
//! protocols draw from their own seeded generators.
//!
//! # Example
//!
//! ```
//! use mm_sim::{Sim, Node, NodeApi, Envelope, CostModel};
//! use mm_topo::{gen, NodeId};
//!
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Echo;
//! impl Node<Msg> for Echo {
//!     fn on_message(&mut self, env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
//!         if matches!(env.msg, Msg::Ping) {
//!             api.send(env.from, Msg::Pong);
//!         }
//!     }
//! }
//!
//! let g = gen::ring(8);
//! let mut sim = Sim::new(g, (0..8).map(|_| Echo).collect(), CostModel::Hops);
//! sim.inject(NodeId::new(0), NodeId::new(4), Msg::Ping);
//! sim.run();
//! // the injected ping is an external stimulus (free); the pong 4->0
//! // travels 4 hops around the ring
//! assert_eq!(sim.metrics().message_passes, 4);
//! ```

pub mod metrics;
pub mod queue;
mod route;
mod single;
pub mod targets;

pub use metrics::Metrics;
pub use queue::QueueKind;
pub use targets::TargetSet;

use mm_topo::{AnyRouter, Graph, NodeId};
use queue::EventQueue;

/// Which routing backend a hop-cost simulation uses.
///
/// Output-invariant by construction: the analytic routers are
/// byte-conformant to the [`mm_topo::RoutingTable`] oracle,
/// so every variant produces identical simulations — they differ only in
/// memory (O(1) vs O(n²)) and next-hop cost. Like [`QueueKind`]'s, the
/// non-default variant exists for conformance checks.
///
/// No binary selects `Table`: it is the oracle of
/// `tests/router_identity.rs`, `tests/router_memory_guard.rs` and
/// `crates/topo/tests/router_conformance.rs`. The policy stays a public
/// parameter because `benchmark/layers` passes one through
/// `RunConfig.router` and the `with_router` constructors; making `Table`
/// test-only is a one-variant cut once that harness stops naming the type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// Closed-form router when the graph is a recognized structured
    /// family (by generator name), BFS table otherwise. The default.
    #[default]
    Auto,
    /// Always the O(n²) BFS [`mm_topo::RoutingTable`] oracle of §3.
    Table,
}

impl RouterKind {
    /// Builds the routing backend for `g` under this policy.
    pub fn build(self, g: &Graph) -> AnyRouter {
        match self {
            RouterKind::Auto => AnyRouter::for_graph(g),
            RouterKind::Table => AnyRouter::table_for(g),
        }
    }
}

/// Simulated time in abstract ticks (one tick = one hop of latency).
pub type SimTime = u64;

/// How message passes are charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CostModel {
    /// Store-and-forward: a message from `a` to `b` costs `dist(a,b)`
    /// passes and arrives after that many ticks; multicasts share path
    /// prefixes (Steiner-tree accounting).
    Hops,
    /// Complete-network abstraction: every destination costs exactly one
    /// pass and one tick (paper §2.1 framework assumption 1).
    Uniform,
}

/// A delivered message with its envelope metadata.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Originating node.
    pub from: NodeId,
    /// Destination node (the node receiving this envelope).
    pub to: NodeId,
    /// Tick at which the message was sent.
    pub sent_at: SimTime,
    /// The payload.
    pub msg: M,
}

/// Handler interface for a simulated processor.
///
/// Handlers react to messages through [`NodeApi`]; they never block.
/// State lives in the implementing struct.
pub trait Node<M> {
    /// A message arrived at this node.
    fn on_message(&mut self, env: Envelope<M>, api: &mut NodeApi<'_, M>);
}

/// The per-invocation API handed to [`Node`] handlers.
///
/// A send is routed, charged and queued when it is made, in call order.
/// The handler sees only [`now`](NodeApi::now) and [`me`](NodeApi::me),
/// never the network it is sending into.
#[derive(Debug)]
pub struct NodeApi<'a, M> {
    net: &'a mut Net<M>,
    me: NodeId,
}

impl<M> NodeApi<'_, M> {
    /// Sends `msg` to `to` (point-to-point).
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.net.route(self.me, to, msg);
    }

    /// Sends `msg` to every node in `to`, sharing path prefixes under
    /// [`CostModel::Hops`]. Duplicates and the sender itself are delivered
    /// once / locally for free.
    pub fn multicast(&mut self, to: &[NodeId], msg: M)
    where
        M: Clone,
    {
        self.net.route_multicast(self.me, TargetSet::new(to), msg);
    }

    /// Sends `msg` to a shared target set without copying it — the path
    /// for a set that is already a [`TargetSet`], such as the `P`/`Q` set
    /// an operation carries. The sender itself (if a member) is delivered
    /// locally for free.
    pub fn multicast_set(&mut self, to: TargetSet, msg: M)
    where
        M: Clone,
    {
        self.net.route_multicast(self.me, to, msg);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// The node this handler runs on.
    pub fn me(&self) -> NodeId {
        self.me
    }
}

/// Number of log₂ queue-depth buckets tracked by [`Sim`].
pub const QUEUE_DEPTH_BUCKETS: usize = 65;

/// Compatibility alias: every value runs the one execution core.
///
/// `Sharded` used to select a per-tick parallel scheduler; it never beat
/// the single core (README "Sharded execution") and was deleted in PR 24.
/// The enum and the `mode` parameter of the `with_router` constructors
/// stay only because `benchmark/layers` names them, and are removed with
/// ROADMAP item 1(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardMode {
    /// The one core.
    Single,
    /// Also the one core; both fields are ignored.
    Sharded { shards: usize, threads: usize },
}

/// The simulated network: everything in a [`Sim`] but the handlers. A
/// handler's [`NodeApi`] borrows it for the one event it runs.
#[derive(Debug)]
struct Net<M> {
    graph: Graph,
    /// Built only under [`CostModel::Hops`]; `Uniform` never routes.
    routing: Option<AnyRouter>,
    /// The runtime's truth about who is down. `mm-workload`'s runner keeps
    /// exactly one view of its own (`timeline::Draws`, which it draws
    /// over); a third copy anywhere is a mirror to delete, not to sync.
    crashed: Vec<bool>,
    /// Number of currently crashed nodes (lets routing skip hop walks
    /// entirely while everyone is alive).
    crashed_count: usize,
    now: SimTime,
    metrics: Metrics,
    /// Log₂ histogram of queue depth, sampled once per queued delivery:
    /// bucket 0 holds depth 0, bucket `k > 0` holds depths in
    /// `[2^(k-1), 2^k)`. Identical across queue implementations (same
    /// pending-delivery set).
    depth_buckets: [u64; QUEUE_DEPTH_BUCKETS],
    /// Deliveries queued and not yet popped — the queue depth. A fan
    /// entry counts once per copy it stands for.
    pending: u64,
    /// Deliveries in flight, keyed by arrival tick.
    queue: EventQueue<Queued<M>>,
}

/// One queue entry: a single delivery, or every remote copy of one
/// uniform-cost multicast.
///
/// A fan is boxed so the enum can keep its tag in the payload's niche: an
/// entry is then no larger than an envelope (64 B for `mm-proto`'s
/// messages, against 80 B unboxed).
#[derive(Debug)]
enum Queued<M> {
    One(Envelope<M>),
    Fan(Box<Fan<M>>),
}

/// The remote copies of one uniform-cost multicast, all due on the same
/// tick: one delivery of `msg` to each member of `targets` but `from`.
#[derive(Debug)]
struct Fan<M> {
    from: NodeId,
    sent_at: SimTime,
    targets: TargetSet,
    msg: M,
}

impl<M: Clone> Fan<M> {
    /// The copy `to` receives, as its own envelope would carry it.
    fn copy_to(&self, to: NodeId) -> Envelope<M> {
        Envelope {
            from: self.from,
            to,
            sent_at: self.sent_at,
            msg: self.msg.clone(),
        }
    }
}

/// The simulator: a graph, one [`Node`] state machine per graph node, an
/// event queue, and exact message-pass metrics.
#[derive(Debug)]
pub struct Sim<M, N> {
    nodes: Vec<N>,
    net: Net<M>,
}

impl<M: Clone, N: Node<M>> Sim<M, N> {
    /// Creates a simulator over `graph` with one handler per node, using
    /// the production calendar event queue and the default router policy.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn new(graph: Graph, nodes: Vec<N>, cost_model: CostModel) -> Self {
        Self::with_router(
            graph,
            nodes,
            cost_model,
            QueueKind::Calendar,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Creates a simulator with every backend choice explicit: event
    /// queue (the [`QueueKind::BTree`] reference is kept for determinism
    /// cross-checks) and routing backend. Both axes are output-invariant;
    /// this is the constructor conformance suites use to pit the analytic
    /// routers against the table oracle. `mode` is ignored (see
    /// [`ShardMode`]).
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len() != graph.node_count()`.
    pub fn with_router(
        graph: Graph,
        nodes: Vec<N>,
        cost_model: CostModel,
        kind: QueueKind,
        _mode: ShardMode,
        router: RouterKind,
    ) -> Self {
        let n = graph.node_count();
        assert_eq!(nodes.len(), n, "one handler per graph node required");
        let routing = match cost_model {
            CostModel::Hops => Some(router.build(&graph)),
            CostModel::Uniform => None,
        };
        let net = Net {
            graph,
            routing,
            crashed: vec![false; n],
            crashed_count: 0,
            now: 0,
            metrics: Metrics::new(n),
            depth_buckets: [0; QUEUE_DEPTH_BUCKETS],
            pending: 0,
            queue: EventQueue::new(kind),
        };
        Sim { nodes, net }
    }

    /// The simulated network graph.
    pub fn graph(&self) -> &Graph {
        &self.net.graph
    }

    /// The routing backend in use (`None` under [`CostModel::Uniform`],
    /// which never routes).
    pub fn routing(&self) -> Option<&AnyRouter> {
        self.net.routing.as_ref()
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// Accumulated metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.net.metrics
    }

    /// Immutable access to a node's state.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node(&self, v: NodeId) -> &N {
        &self.nodes[v.index()]
    }

    /// Mutable access to a node's state (for test setup and inspection —
    /// protocol logic should live in handlers).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn node_mut(&mut self, v: NodeId) -> &mut N {
        &mut self.nodes[v.index()]
    }

    /// Marks `v` crashed: it stops receiving and forwarding.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn crash(&mut self, v: NodeId) {
        let net = &mut self.net;
        if !net.crashed[v.index()] {
            net.crashed[v.index()] = true;
            net.crashed_count += 1;
        }
        net.metrics.crashes += 1;
    }

    /// Restores a crashed node (its state is as it was; protocols decide
    /// what re-joining means).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn restore(&mut self, v: NodeId) {
        let net = &mut self.net;
        if net.crashed[v.index()] {
            net.crashed[v.index()] = false;
            net.crashed_count -= 1;
        }
    }

    /// Is `v` currently crashed?
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn is_crashed(&self, v: NodeId) -> bool {
        self.net.crashed[v.index()]
    }

    /// Injects an external message to `at` (delivered at the current time,
    /// no message passes charged — models a local request arriving at a
    /// process, e.g. "locate port X").
    pub fn inject(&mut self, from: NodeId, at: NodeId, msg: M) {
        self.net.deliver(from, at, 0, msg);
    }

    /// Cumulative queue-depth histogram (one observation per queued
    /// delivery, taken as it is queued). Snapshot and subtract to
    /// attribute pressure to a phase.
    pub fn queue_depth_buckets(&self) -> &[u64; QUEUE_DEPTH_BUCKETS] {
        &self.net.depth_buckets
    }

    /// Runs until the event queue drains; returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.drain(SimTime::MAX);
        self.net.now
    }

    /// Runs every event scheduled at or before `deadline`, then advances
    /// the clock to `deadline` (idle gaps between scheduled work — e.g.
    /// quiet phases of a workload — pass in one jump). The clock never
    /// moves backwards: a `deadline` already in the past only drains
    /// events due now.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        let deadline = deadline.max(self.net.now);
        self.drain(deadline);
        self.net.now = deadline;
        deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mm_topo::gen;
    use proptest::prelude::*;

    #[derive(Clone, Debug, PartialEq)]
    enum Msg {
        Ping,
        Pong,
        Spread(Vec<NodeId>),
        /// Multicasts a `Ping`: the pongs come back to the sender in the
        /// order the copies ran.
        Ask(Vec<NodeId>),
        Note,
        /// Re-sent to oneself, one shorter, until it reaches 0: a chain
        /// of zero-delay events inside one tick.
        Chain(u8),
    }

    #[derive(Default)]
    struct Recorder {
        got: Vec<(NodeId, Msg, SimTime)>,
    }

    impl Node<Msg> for Recorder {
        fn on_message(&mut self, env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
            self.got.push((env.from, env.msg.clone(), api.now()));
            match env.msg {
                Msg::Ping => api.send(env.from, Msg::Pong),
                Msg::Spread(targets) => api.multicast(&targets, Msg::Note),
                Msg::Ask(targets) => api.multicast(&targets, Msg::Ping),
                Msg::Chain(k) if k > 0 => api.send(api.me(), Msg::Chain(k - 1)),
                _ => {}
            }
        }
    }

    fn recorders(n: usize) -> Vec<Recorder> {
        (0..n).map(|_| Recorder::default()).collect()
    }

    fn nid(v: u32) -> NodeId {
        NodeId::new(v)
    }

    #[test]
    fn ping_pong_hop_accounting() {
        let g = gen::path(5); // 0-1-2-3-4
        let mut sim = Sim::new(g, recorders(5), CostModel::Hops);
        sim.inject(nid(0), nid(4), Msg::Ping);
        sim.run();
        // the injected ping is free; the pong reply travels 4 hops back
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().delivered, 2);
        let back = &sim.node(nid(0)).got;
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].1, Msg::Pong);
        assert_eq!(back[0].2, 4, "pong arrives at t=4");
    }

    #[test]
    fn uniform_model_charges_one_per_send() {
        let g = gen::path(5);
        let mut sim = Sim::new(g, recorders(5), CostModel::Uniform);
        sim.inject(nid(0), nid(4), Msg::Ping);
        sim.run();
        // free injection + one uniform pass for the pong
        assert_eq!(sim.metrics().message_passes, 1);
    }

    #[test]
    fn multicast_shares_prefix() {
        let g = gen::path(7);
        let mut sim = Sim::new(g, recorders(7), CostModel::Hops);
        // node 0 spreads to 3 and 6: Steiner cost = 6
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(3), nid(6)]));
        sim.run();
        assert_eq!(sim.metrics().message_passes, 6);
        assert_eq!(sim.node(nid(3)).got.len(), 1);
        assert_eq!(sim.node(nid(6)).got.len(), 1);
        assert_eq!(sim.node(nid(6)).got[0].1, Msg::Note);
    }

    #[test]
    fn multicast_to_self_is_free() {
        let g = gen::ring(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Hops);
        sim.inject(nid(1), nid(1), Msg::Spread(vec![nid(1)]));
        sim.run();
        // the external inject + the self-delivery
        assert_eq!(sim.metrics().message_passes, 0);
        assert_eq!(sim.node(nid(1)).got.len(), 2);
    }

    #[test]
    fn crashed_destination_drops() {
        let g = gen::path(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        sim.crash(nid(2));
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(2)]));
        sim.run();
        assert_eq!(sim.node(nid(2)).got.len(), 0);
        // the Steiner tree to {2} is the 2-edge path; both passes are
        // charged even though the message dies at its destination
        assert_eq!(sim.metrics().message_passes, 2);
        assert_eq!(sim.metrics().dropped, 1);
    }

    #[test]
    fn crashed_intermediate_truncates_path_cost() {
        let g = gen::path(5);
        let mut sim = Sim::new(g, recorders(5), CostModel::Hops);
        sim.crash(nid(2));
        // handler-driven multicast 0 -> {4} dies at node 2
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(4)]));
        sim.run();
        assert_eq!(sim.node(nid(4)).got.len(), 0);
        // the Steiner tree 0-1-2-3-4 is charged in full (4 passes): the
        // spanning-tree forwarding commits the copies before the crash is
        // discovered, so a dead intermediate wastes the whole branch
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().sends, 1);
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.metrics().delivered, 1, "only the free injection lands");
    }

    #[test]
    fn crashed_branch_keeps_live_deliveries_and_full_tree_cost() {
        // 0-1-2-3-4-5-6 with node 2 dead: multicast 0 -> {1, 4}.
        // The Steiner tree (0-1-2-3-4, 4 edges) is charged once; the live
        // branch to 1 still delivers while the branch through 2 drops.
        let g = gen::path(7);
        let mut sim = Sim::new(g, recorders(7), CostModel::Hops);
        sim.crash(nid(2));
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(1), nid(4)]));
        sim.run();
        assert_eq!(sim.metrics().message_passes, 4);
        assert_eq!(sim.metrics().dropped, 1);
        assert_eq!(sim.node(nid(1)).got.len(), 1);
        assert_eq!(sim.node(nid(4)).got.len(), 0);
    }

    /// Both queue kinds over a hop-cost path of `k + 1` nodes: a ping
    /// injected at node 0 on behalf of node `k` is answered by a pong that
    /// spends `k` ticks in flight — the way to schedule an event `k` ticks
    /// out.
    fn path_sims(k: usize) -> [Sim<Msg, Recorder>; 2] {
        [QueueKind::Calendar, QueueKind::BTree].map(|kind| {
            Sim::with_router(
                gen::path(k + 1),
                recorders(k + 1),
                CostModel::Hops,
                kind,
                ShardMode::Single,
                RouterKind::Auto,
            )
        })
    }

    #[test]
    fn run_until_advances_clock_through_idle_gaps() {
        // 1500 ticks out is past the calendar queue's initial window, so
        // the pong also takes the far-map route
        let far = nid(1500);
        for mut sim in path_sims(1500) {
            // nothing scheduled at all: the clock must still reach the deadline
            assert_eq!(sim.run_until(100), 100);
            assert_eq!(sim.now(), 100);
            // a delivery far in the future is not executed early, but the
            // clock advances to the deadline between phases
            sim.inject(far, nid(0), Msg::Ping); // pong lands at t = 1600
            assert_eq!(sim.run_until(850), 850);
            assert!(sim.node(far).got.is_empty());
            assert_eq!(sim.run_until(2000), 2000);
            assert_eq!(sim.node(far).got, vec![(nid(0), Msg::Pong, 1600)]);
            // the clock never moves backwards
            assert_eq!(sim.run_until(10), 2000);
        }
    }

    /// A deadline already behind the clock still drains what is due now
    /// (it used to leave an event injected at `now` queued).
    #[test]
    fn run_until_with_a_past_deadline_drains_events_due_now() {
        for mut sim in path_sims(1) {
            assert_eq!(sim.run_until(100), 100);
            sim.inject(nid(1), nid(0), Msg::Note);
            assert_eq!(sim.run_until(10), 100);
            assert_eq!(sim.node(nid(0)).got, vec![(nid(1), Msg::Note, 100)]);
        }
    }

    #[test]
    fn run_until_executes_events_at_deadline_inclusive() {
        for mut sim in path_sims(50) {
            sim.inject(nid(50), nid(0), Msg::Ping);
            assert_eq!(sim.run_until(50), 50);
            assert_eq!(sim.node(nid(50)).got, vec![(nid(0), Msg::Pong, 50)]);
        }
    }

    #[test]
    fn restore_lets_messages_flow_again() {
        let g = gen::path(3);
        let mut sim = Sim::new(g, recorders(3), CostModel::Hops);
        sim.crash(nid(1));
        sim.inject(nid(0), nid(1), Msg::Note);
        sim.run();
        assert_eq!(sim.node(nid(1)).got.len(), 0);
        sim.restore(nid(1));
        sim.inject(nid(0), nid(1), Msg::Note);
        sim.run();
        assert_eq!(sim.node(nid(1)).got.len(), 1);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let g = gen::grid(4, 4, false);
            let mut sim = Sim::new(g, recorders(16), CostModel::Hops);
            sim.inject(nid(0), nid(15), Msg::Ping);
            sim.inject(nid(3), nid(12), Msg::Ping);
            sim.inject(nid(5), nid(5), Msg::Spread(vec![nid(0), nid(10), nid(15)]));
            sim.run();
            (
                sim.metrics().message_passes,
                sim.metrics().delivered,
                sim.now(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn node_load_tracks_deliveries() {
        let g = gen::complete(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Uniform);
        sim.inject(nid(1), nid(0), Msg::Ping); // 0 receives, answers to 1
        sim.run();
        assert_eq!(sim.metrics().node_load[0], 1);
        assert_eq!(sim.metrics().node_load[1], 1);
        assert_eq!(sim.metrics().node_load[2], 0);
    }

    #[test]
    #[should_panic(expected = "one handler per graph node")]
    fn node_count_mismatch_panics() {
        let _ = Sim::new(gen::ring(3), recorders(2), CostModel::Hops);
    }

    #[test]
    fn queue_depth_histogram_counts_every_push() {
        let g = gen::complete(4);
        let mut sim = Sim::new(g, recorders(4), CostModel::Uniform);
        sim.inject(nid(1), nid(0), Msg::Ping); // push at depth 1
        sim.run(); // the pong is pushed at depth 1 again
        let buckets = sim.queue_depth_buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 2, "one sample per push");
        assert_eq!(buckets[1], 2, "both pushes saw depth 1");
    }

    #[test]
    fn unreachable_multicast_target_is_a_counted_drop() {
        // two components, 0-1-2 and 3-4: no Steiner tree from 0 spans
        // {0, 2, 4}, so each target is routed on its own
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        let mut sim = Sim::new(g, recorders(5), CostModel::Hops);
        sim.run_until(10);
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(0), nid(2), nid(4)]));
        sim.run();
        let m = sim.metrics();
        // 2 is two hops away, 4 is dropped, the local copy is free
        assert_eq!((m.sends, m.message_passes, m.dropped), (2, 2, 1));
        assert_eq!(sim.node(nid(2)).got, [(nid(0), Msg::Note, 12)]);
        assert_eq!(sim.node(nid(0)).got[1], (nid(0), Msg::Note, 10));
        assert!(sim.node(nid(4)).got.is_empty());
    }

    #[test]
    fn uniform_multicast_charges_each_remote_target_once() {
        let mut sim = Sim::new(gen::complete(6), recorders(6), CostModel::Uniform);
        sim.run_until(5);
        let spread = Msg::Spread([0, 2, 3, 5].map(nid).to_vec());
        sim.inject(nid(0), nid(0), spread.clone());
        sim.run();
        let m = sim.metrics();
        assert_eq!((m.sends, m.message_passes, m.dropped), (3, 3, 0));
        assert_eq!(
            sim.node(nid(0)).got,
            [(nid(0), spread, 5), (nid(0), Msg::Note, 5)],
            "the self copy lands at now"
        );
        for v in [2, 3, 5] {
            assert_eq!(sim.node(nid(v)).got, [(nid(0), Msg::Note, 6)]);
        }
        for v in [1, 4] {
            assert!(sim.node(nid(v)).got.is_empty());
        }
        // the inject at depth 1, then the four copies at depths 1-4
        let buckets = sim.queue_depth_buckets();
        assert_eq!(buckets.iter().sum::<u64>(), 5, "one sample per push");
        assert_eq!(&buckets[..4], &[0, 2, 2, 1]);
    }

    /// A fan's copies meet the crash flags at the pop, as envelopes do: a
    /// copy to a node that went down after the send is an event and a
    /// drop, a copy to a node that came back before the pop is delivered.
    #[test]
    fn fan_copies_check_the_crash_flag_when_popped() {
        let mut sim = Sim::new(gen::complete(5), recorders(5), CostModel::Uniform);
        sim.crash(nid(3));
        let spread = Msg::Spread([0, 1, 2, 3].map(nid).to_vec());
        sim.inject(nid(0), nid(0), spread);
        sim.run_until(0); // the spread ran, its fan waits on tick 1
        sim.crash(nid(1));
        sim.restore(nid(3));
        sim.run();
        let m = sim.metrics();
        assert_eq!((m.sends, m.message_passes), (3, 3));
        assert_eq!((m.events_executed, m.delivered, m.dropped), (5, 4, 1));
        assert!(sim.node(nid(1)).got.is_empty());
        for v in [2, 3] {
            assert_eq!(sim.node(nid(v)).got, [(nid(0), Msg::Note, 1)]);
        }
        assert_eq!(m.node_load, [2, 0, 1, 1, 0]);
    }

    /// The fan reuses the payload's niche for its tag, so a queue entry is
    /// no larger than an envelope.
    #[test]
    fn a_queue_entry_is_the_size_of_an_envelope() {
        /// Shaped like `mm-proto`'s messages: an explicit tag, a 16-byte
        /// port, and a shared target set in some variants.
        #[allow(dead_code)]
        enum Wire {
            Fan { port: u128, targets: TargetSet },
            Answer { port: u128, stamp: u64, id: u64 },
            Bare(u32),
        }
        assert_eq!(size_of::<Queued<Msg>>(), size_of::<Envelope<Msg>>());
        assert_eq!(size_of::<Queued<Wire>>(), size_of::<Envelope<Wire>>());
    }

    /// Crash-free traffic on `complete(n)`: pings, multicasts that may
    /// include their sender — of notes, and of pings whose pongs make the
    /// order of a fan's copies visible — same-tick chains and phased
    /// `run_until`s.
    fn fan_traffic(sim: &mut Sim<Msg, Recorder>, n: usize, mut s: u64) {
        let node = |s: &mut u64| nid((mix(s) % n as u64) as u32);
        for phase in 0..5 {
            for _ in 0..8 {
                match mix(&mut s) % 4 {
                    0 | 1 => {
                        let from = node(&mut s);
                        let mut targets: Vec<NodeId> =
                            (0..mix(&mut s) % 7).map(|_| node(&mut s)).collect();
                        if mix(&mut s) & 1 == 0 {
                            targets.push(from);
                        }
                        let msg = if mix(&mut s) & 1 == 0 {
                            Msg::Spread(targets)
                        } else {
                            Msg::Ask(targets)
                        };
                        sim.inject(from, from, msg);
                    }
                    2 => {
                        let v = node(&mut s);
                        sim.inject(v, v, Msg::Chain((mix(&mut s) % 5) as u8));
                    }
                    _ => {
                        let (a, b) = (node(&mut s), node(&mut s));
                        sim.inject(a, b, Msg::Ping);
                    }
                }
            }
            let deadline = sim.now() + mix(&mut s) % 3;
            sim.run_until(deadline);
            if phase == 3 {
                sim.run();
            }
        }
        sim.run();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The fan against the per-copy path as its oracle: on a complete
        /// graph, hop cost charges every remote copy one pass and one
        /// tick (`CompleteRouter`'s distance 1, a tree of |T| − self) and
        /// queues each copy on its own, while uniform cost queues one fan.
        /// Every observable output must agree.
        #[test]
        fn a_fan_runs_as_its_copies_would(seed in any::<u64>(), n in 1usize..24) {
            let run = |cost| {
                let mut sim = Sim::new(gen::complete(n), recorders(n), cost);
                fan_traffic(&mut sim, n, seed);
                sim
            };
            let (fan, copies) = (run(CostModel::Uniform), run(CostModel::Hops));
            prop_assert_eq!(fan.metrics(), copies.metrics());
            prop_assert_eq!(fan.queue_depth_buckets(), copies.queue_depth_buckets());
            prop_assert_eq!(fan.now(), copies.now());
            for v in (0..n as u32).map(nid) {
                prop_assert_eq!(&fan.node(v).got, &copies.node(v).got);
            }
        }
    }

    /// The event loop takes a tick's whole run off the queue, and a
    /// same-tick send refills the slot the run left; the `BTree` queue
    /// builds its runs by per-event pops, so calendar ≡ btree checks the
    /// refill against the oracle's order. Same-tick chains are the case to
    /// watch: a lone chain refills the taken slot at every event (each
    /// run is one entry long), thirty at once keep the run deeper than the
    /// lookahead while its slot refills mid-run, and a target may be
    /// crashed between the send and its run.
    #[test]
    fn same_tick_chains_refilling_a_taken_slot_match_the_oracle() {
        let n = 64;
        let run = |kind| {
            let mut sim = Sim::with_router(
                gen::ring(n),
                recorders(n),
                CostModel::Uniform,
                kind,
                ShardMode::Single,
                RouterKind::Auto,
            );
            sim.inject(nid(0), nid(0), Msg::Chain(40));
            sim.run();
            for v in 0..30 {
                sim.inject(nid(v), nid(v), Msg::Chain(3));
                sim.inject(nid(v), nid(63 - v), Msg::Ping);
            }
            sim.crash(nid(40));
            sim.run();
            let logs: Vec<_> = (0..n as u32)
                .map(|v| sim.node(nid(v)).got.clone())
                .collect();
            (sim.metrics().clone(), *sim.queue_depth_buckets(), logs)
        };
        let calendar = run(QueueKind::Calendar);
        assert_eq!(calendar.2[0].len(), 41 + 4 + 1, "chains and the pong");
        assert_eq!(calendar.0.dropped, 1, "the ping to the crashed node");
        assert_eq!(calendar, run(QueueKind::BTree));
    }

    // ---- `ShardMode` is an alias: every value runs the one core ----
    //
    // These suites were the sharded core's conformance checks. The core is
    // gone; they stay, one setting each, so that a `Sharded` value that
    // starts selecting something again fails here before `benchmark/layers`
    // (which still passes one) reads different numbers. They go with the
    // enum (ROADMAP 1(b)).

    const ALIAS: ShardMode = ShardMode::Sharded {
        shards: 16,
        threads: 2,
    };

    /// Drives one busy scenario (pings, multicasts, a crash + restore,
    /// phased `run_until` with replies in flight across each deadline)
    /// and returns every observable output.
    fn drive(mode: ShardMode) -> SimOutput {
        let n = 36;
        let mut sim = Sim::with_router(
            gen::grid(6, 6, false),
            recorders(n),
            CostModel::Hops,
            QueueKind::Calendar,
            mode,
            RouterKind::Auto,
        );
        sim.inject(nid(0), nid(35), Msg::Ping);
        sim.inject(nid(3), nid(30), Msg::Ping);
        sim.inject(nid(5), nid(5), Msg::Spread(vec![nid(0), nid(17), nid(35)]));
        sim.run_until(6);
        sim.crash(nid(14));
        sim.inject(nid(2), nid(14), Msg::Note);
        sim.inject(nid(20), nid(20), Msg::Spread(vec![nid(8), nid(26)]));
        sim.run_until(40);
        sim.restore(nid(14));
        sim.inject(nid(2), nid(14), Msg::Ping);
        sim.run();
        let logs = (0..n)
            .map(|v| sim.node(nid(v as u32)).got.clone())
            .collect();
        SimOutput {
            metrics: sim.metrics().clone(),
            buckets: *sim.queue_depth_buckets(),
            now: sim.now(),
            logs,
        }
    }

    #[derive(Debug, PartialEq)]
    struct SimOutput {
        metrics: Metrics,
        buckets: [u64; QUEUE_DEPTH_BUCKETS],
        now: SimTime,
        logs: Vec<Vec<(NodeId, Msg, SimTime)>>,
    }

    #[test]
    fn sharded_core_matches_single_oracle() {
        assert_eq!(drive(ALIAS), drive(ShardMode::Single));
    }

    /// splitmix64 — deterministic traffic generator for the property
    /// suite (no external RNG state, reproduces per test name).
    fn mix(x: &mut u64) -> u64 {
        *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drives a deterministic pseudo-random batch of pings, multicasts,
    /// phased `run_until`s and crash/restore toggles. A pong is in flight
    /// for the hop distance it covers, so on a path its delay is anything
    /// up to `n - 1` ticks — well across the 10–40 tick phase deadlines.
    fn random_traffic(sim: &mut Sim<Msg, Recorder>, n: usize, mut s: u64) {
        let node = |s: &mut u64| nid((mix(s) % n as u64) as u32);
        for phase in 0..4 {
            for _ in 0..6 {
                match mix(&mut s) % 4 {
                    0 => {
                        let from = node(&mut s);
                        let targets: Vec<NodeId> =
                            (0..1 + mix(&mut s) % 5).map(|_| node(&mut s)).collect();
                        sim.inject(from, from, Msg::Spread(targets));
                    }
                    1 => {
                        let v = node(&mut s);
                        if sim.is_crashed(v) {
                            sim.restore(v);
                        } else {
                            sim.crash(v);
                        }
                    }
                    _ => {
                        let (a, b) = (node(&mut s), node(&mut s));
                        sim.inject(a, b, Msg::Ping);
                    }
                }
            }
            let deadline = sim.now() + 10 + mix(&mut s) % 30;
            sim.run_until(deadline);
            if phase == 2 {
                // drain fully once mid-sequence, then keep going
                sim.run();
            }
        }
        sim.run();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random traffic on a grid (analytic router, short hops) or a
        /// path of the same size (table router, long delays): the
        /// `BTree` queue under the `Sharded` alias
        /// reproduces the default simulator's metrics, depth histogram,
        /// clock and per-node delivery logs.
        #[test]
        fn random_traffic_is_core_invariant_and_shard_metrics_merge(
            seed in any::<u64>(),
            w in 3usize..7,
            h in 3usize..7,
            long in any::<bool>(),
        ) {
            let n = w * h;
            let graph = || if long { gen::path(n) } else { gen::grid(w, h, false) };
            let mut plain = Sim::new(graph(), recorders(n), CostModel::Hops);
            random_traffic(&mut plain, n, seed);
            let mut other = Sim::with_router(
                graph(),
                recorders(n),
                CostModel::Hops,
                QueueKind::BTree,
                ALIAS,
                RouterKind::Auto,
            );
            random_traffic(&mut other, n, seed);
            // each queued delivery is sampled once and popped once
            let sampled: u64 = plain.queue_depth_buckets().iter().sum();
            prop_assert_eq!(sampled, plain.metrics().events_executed);
            prop_assert_eq!(other.metrics(), plain.metrics());
            prop_assert_eq!(other.queue_depth_buckets(), plain.queue_depth_buckets());
            prop_assert_eq!(other.now(), plain.now());
            for v in (0..n as u32).map(nid) {
                prop_assert_eq!(&other.node(v).got, &plain.node(v).got);
            }
        }
    }

    /// The cases a scheduler could get wrong, on a ring wide enough that
    /// a reply from the far side outlasts the calendar queue's bucket
    /// window: same-tick chains of self-sends next to multicasts that
    /// include their sender (zero-delay children in one tick), one-tick
    /// slices with nothing due, crashes and restores between slices, and
    /// an event parked in the queue's far map meanwhile.
    fn band_edge_traffic(sim: &mut Sim<Msg, Recorder>, n: u32) {
        let hosts = [0, 1, n / 3, n / 2, n - 1];
        for v in hosts {
            sim.inject(nid(v), nid(v), Msg::Chain(4));
            let set = vec![nid(v), nid((v + 1) % n), nid((v + 7) % n), nid(n - 1 - v)];
            sim.inject(nid(v), nid(v), Msg::Spread(set));
        }
        // the pong crosses half the ring: under hop cost it lands n / 2
        // ticks out, past the 1,024-tick window
        sim.inject(nid(n / 2), nid(0), Msg::Ping);
        for _ in 0..12 {
            sim.run_until(sim.now() + 1);
        }
        sim.crash(nid(1));
        sim.crash(nid(n / 3));
        sim.inject(nid(2), nid(1), Msg::Chain(3)); // dropped at the pop
        sim.inject(
            nid(0),
            nid(0),
            Msg::Spread(vec![nid(0), nid(1), nid(2), nid(3)]),
        );
        for v in hosts {
            sim.inject(nid(v), nid((v + 2) % n), Msg::Ping);
        }
        for _ in 0..5 {
            sim.run_until(sim.now() + 1);
        }
        sim.restore(nid(1));
        sim.inject(nid(1), nid(1), Msg::Chain(5));
        sim.inject(nid(1), nid(1), Msg::Spread(hosts.map(nid).to_vec()));
        sim.run_until(sim.now() + 40);
        sim.restore(nid(n / 3));
        sim.inject(nid(n / 3), nid(n / 3), Msg::Chain(3));
        sim.run();
    }

    #[test]
    fn band_edges_match_single_core_at_every_geometry() {
        let n = 2200;
        for cost in [CostModel::Hops, CostModel::Uniform] {
            let build = |kind, mode| {
                let mut sim = Sim::with_router(
                    gen::ring(n),
                    recorders(n),
                    cost,
                    kind,
                    mode,
                    RouterKind::Auto,
                );
                band_edge_traffic(&mut sim, n as u32);
                sim
            };
            let single = build(QueueKind::Calendar, ShardMode::Single);
            // each queued delivery is sampled once and popped once
            let sampled: u64 = single.queue_depth_buckets().iter().sum();
            assert_eq!(sampled, single.metrics().events_executed, "{cost:?}");
            if cost == CostModel::Hops {
                let far = &single.node(nid(n as u32 / 2)).got;
                assert!(far.contains(&(nid(0), Msg::Pong, n as u64 / 2)));
            }
            for (kind, mode) in [
                (QueueKind::BTree, ShardMode::Single),
                (QueueKind::Calendar, ALIAS),
            ] {
                let at = format!("{cost:?} {kind:?} {mode:?}");
                let other = build(kind, mode);
                assert_eq!(other.metrics(), single.metrics(), "{at}");
                assert_eq!(
                    other.queue_depth_buckets(),
                    single.queue_depth_buckets(),
                    "{at}"
                );
                assert_eq!(other.now(), single.now(), "{at}");
                for v in (0..n as u32).map(nid) {
                    assert_eq!(other.node(v).got, single.node(v).got, "{at} {v:?}");
                }
            }
        }
    }

    #[test]
    fn sharded_uniform_model_matches_oracle() {
        let run = |mode| {
            let mut sim = Sim::with_router(
                gen::complete(12),
                recorders(12),
                CostModel::Uniform,
                QueueKind::Calendar,
                mode,
                RouterKind::Auto,
            );
            for v in 0..12u32 {
                sim.inject(nid(v), nid((v + 5) % 12), Msg::Ping);
            }
            sim.inject(nid(0), nid(0), Msg::Spread((0..12).map(nid).collect()));
            sim.run();
            (sim.metrics().clone(), *sim.queue_depth_buckets())
        };
        assert_eq!(run(ALIAS), run(ShardMode::Single));
    }
}
