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
//! * reports — a handler can tell its host that a delivery finished
//!   something ([`NodeApi::report`], one `u64` token); the host takes the
//!   tokens with [`Sim::reports`] after [`Sim::run_until`], so it learns
//!   what completed without polling every operation it has open.
//! * [`ShardMode`] — a compatibility name that selects nothing: there
//!   is one execution core, and every value runs it.
//!
//! The paper's model has one network, and [`Sim`] is the handlers plus
//! one copy of it: graph, routes, crash flags, clock, metrics, the
//! queue-depth histogram, the queue of pending deliveries and the slab of
//! what they deliver. A queue entry is 8 bytes, a destination and a slab
//! slot; each send writes its payload into one slot, once, and the slot
//! holds one of three things. It is one send's payload, shared by every
//! copy of a multicast under [`CostModel::Hops`] and rebuilt into an
//! [`Envelope`] at each copy's pop. Or, for a multicast under
//! [`CostModel::Uniform`], it is one *fan*: every remote copy lands on
//! the next tick (§2.1), so the copies share a single entry that holds
//! the [`TargetSet`] and the payload once. Or it is the fan's mirror, a
//! *fan-in*: a fan's pure replies (a locate's answers, which
//! [`Node::reply`] names without a handler call) that go to one node and
//! that [`Node::joins`] pairs (a locate's `Miss` answers) are counted and
//! charged at once, and queued as one entry whose slot holds the payload
//! once, with their count as its copies; the entry's top slot bit marks
//! it, as it marks a fan. The loop takes one tick's whole FIFO run off
//! the queue at a time, runs each delivery its entries stand for in run
//! order — a fan's in target order, each counted, charged and dropped
//! exactly as an envelope of its own would be, a fan-in's all at once
//! through one [`Node::on_fan_in`] call — and hands the handler a
//! [`NodeApi`] over that network, so a send is routed, charged and queued
//! while the handler runs; a send for the same tick queues behind the
//! whole run, as it would behind the rest of the tick. The queue is only
//! pushed to and popped. Queue depth is the number of pending deliveries,
//! not of entries, so every report reads the same as with one entry per
//! copy. A parallel per-tick scheduler was built, measured behind this
//! loop at every setting, and deleted (README "Sharded execution").
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
mod slab;
pub mod targets;

pub use metrics::Metrics;
pub use queue::QueueKind;
pub use targets::TargetSet;

use mm_topo::{AnyRouter, Graph, NodeId};
use queue::EventQueue;
use slab::Slab;

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
///
/// A node type may also answer a fan's copies, and take the answers, in
/// bulk: [`joins`](Node::joins) pairs a fan's consecutive replies. When
/// [`reply`](Node::reply) names the one send a delivery would make, the
/// loop makes it itself, and the replies of one uniform-cost fan to one
/// other node that `joins` pairs, consecutive but for crashed targets, are
/// counted, charged and sampled at once and arrive as one
/// [`on_fan_in`](Node::on_fan_in) call. The contract is exactness: `reply`
/// may answer only where [`on_message`](Node::on_message) would make
/// exactly that one point-to-point send and nothing else — no state
/// change, no report, no other send — and only from the payload and the
/// node's own state, not from the envelope's `from` or `sent_at` or the
/// clock; and `on_fan_in` must leave the node, and the host's reports, as
/// `count` `on_message` calls with that payload would, in the same order.
/// So only payloads whose handling sends nothing may join ([`FanInApi`]
/// can report, not send), and the handler must not need the envelope's
/// `from`, which the joined deliveries do not share.
pub trait Node<M> {
    /// A message arrived at this node.
    fn on_message(&mut self, env: Envelope<M>, api: &mut NodeApi<'_, M>);

    /// May a fan's reply `b` join the reply `a` made just before it to the
    /// same node? Joins nothing by default.
    fn joins(_a: &M, _b: &M) -> bool {
        false
    }

    /// The send delivering `msg` at `me` would make, as `(to, payload)`,
    /// when that send is all the delivery would do. Asked only of a
    /// uniform-cost fan's live targets; `None`, the default, runs the
    /// delivery through [`on_message`](Node::on_message).
    fn reply(&self, _me: NodeId, _msg: &M) -> Option<(NodeId, M)> {
        None
    }

    /// `count` deliveries of `msg`, whose payloads [`joins`](Node::joins)
    /// paired, arrived back to back: handle them as `count`
    /// [`on_message`](Node::on_message) calls would. Never called while
    /// `joins` is `false`, which is the default.
    fn on_fan_in(&mut self, _msg: &M, _count: u64, _api: &mut FanInApi<'_>) {}
}

/// What a [`Node::on_fan_in`] handler may do: read the clock and report.
/// It cannot send — so the deliveries a fan-in stands for cause no queue
/// traffic between them.
#[derive(Debug)]
pub struct FanInApi<'a> {
    now: SimTime,
    reports: &'a mut Vec<u64>,
}

impl FanInApi<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// As [`NodeApi::report`].
    pub fn report(&mut self, token: u64) {
        self.reports.push(token);
    }
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

    /// Tells the host that this delivery finished something it waits on:
    /// `token` (its meaning is the host's) joins the list
    /// [`Sim::reports`] hands over.
    pub fn report(&mut self, token: u64) {
        self.net.reports.push(token);
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
    queue: EventQueue<Queued>,
    /// What the queued entries deliver: one slot per send.
    slab: Slab<M>,
    /// Tokens handlers reported and the host has not taken yet.
    reports: Vec<u64>,
}

/// One queue entry: a destination and the slab slot of what it delivers.
///
/// The slot holds one send's payload ([`slab::BULK`] clear), shared by
/// every copy of a hop-cost multicast, or ([`slab::BULK`] set) either the
/// box of a uniform-cost fan, which stands for every remote copy of one
/// multicast, or a fan-in, one payload whose copies are the `count`
/// replies of one fan it stands for, all to `to`. A fan's `to` is its
/// first target, the node the loop prefetches for it. An entry is 8
/// bytes whatever the message type, so a tick's run is a dense array of
/// them.
#[derive(Debug, Clone, Copy)]
struct Queued {
    to: NodeId,
    slot: u32,
}

const _: () = assert!(size_of::<Queued>() == 8);

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
            slab: Slab::new(),
            reports: Vec::new(),
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

    /// The tokens handlers have [reported](NodeApi::report) since the last
    /// call, in the order they were reported. A host that never asks keeps
    /// them all, one word per report.
    pub fn reports(&mut self) -> std::vec::Drain<'_, u64> {
        self.net.reports.drain(..)
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
        /// An answer carrying a value: equal tags may join into a fan-in,
        /// unequal ones may not.
        Tag(u8),
        /// Re-sent to oneself, one shorter, until it reaches 0: a chain
        /// of zero-delay events inside one tick.
        Chain(u8),
        /// A question answered to the first node or the second, by the
        /// answerer's rule (`Tally::probe_answer`).
        Probe(NodeId, NodeId),
        /// Multicasts a `Probe` of the two nodes: a fan whose answers
        /// may run without handler calls.
        Survey(Vec<NodeId>, NodeId, NodeId),
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
                // a pong finishes its ping: tell the host who got it
                Msg::Pong => api.report(u64::from(api.me().raw())),
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

    /// Reports reach the host in the order handlers made them, once each,
    /// and only what ran by the deadline has reported.
    #[test]
    fn handler_reports_reach_the_host_once_in_report_order() {
        let mut sim = Sim::new(gen::path(5), recorders(5), CostModel::Hops);
        // pongs land at 4 (4 hops back), 1 and 2
        sim.inject(nid(0), nid(4), Msg::Ping);
        sim.inject(nid(3), nid(2), Msg::Ping);
        sim.inject(nid(1), nid(3), Msg::Ping);
        sim.run_until(2);
        assert_eq!(sim.reports().collect::<Vec<_>>(), [3, 1]);
        assert_eq!(sim.reports().count(), 0, "taken once");
        sim.run();
        assert_eq!(sim.reports().collect::<Vec<_>>(), [0]);
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

    /// A queue entry is 8 bytes whatever the message, and the slot that
    /// holds the message is no larger than the envelope the entry used to
    /// be: the free link and the fan box take the payload's niche.
    #[test]
    fn a_queue_entry_is_8_bytes_and_a_slot_the_size_of_an_envelope() {
        /// Shaped like `mm-proto`'s messages: an explicit tag, a 16-byte
        /// port, and a shared target set in some variants.
        #[allow(dead_code)]
        enum Wire {
            Fan { port: u128, targets: TargetSet },
            Answer { port: u128, stamp: u64, id: u64 },
            Bare(u32),
        }
        assert_eq!(size_of::<Queued>(), 8);
        assert_eq!(size_of::<slab::Slot<Msg>>(), size_of::<Envelope<Msg>>());
        assert_eq!(size_of::<slab::Slot<Wire>>(), size_of::<Envelope<Wire>>());
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
    // ---- the payload slab: one slot per send, freed by its last copy ----

    /// A hop-cost multicast's copies share one slot. A copy dropped at a
    /// crashed destination still gives its share back, whether it pops
    /// before the copy that delivers or after it.
    #[test]
    fn a_copy_dropped_at_a_crashed_destination_releases_its_share() {
        for down in [3, 6] {
            let mut sim = Sim::new(gen::path(7), recorders(7), CostModel::Hops);
            sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(3), nid(6)]));
            sim.run_until(0); // the spread ran: its copies land at 3 and 6
            assert_eq!((sim.net.queue.len(), sim.net.slab.live()), (2, 1));
            sim.crash(nid(down));
            sim.run();
            let up = 9 - down;
            assert_eq!(sim.node(nid(up)).got, [(nid(0), Msg::Note, up as u64)]);
            assert!(sim.node(nid(down)).got.is_empty());
            assert_eq!(sim.metrics().dropped, 1);
            assert_eq!(sim.net.slab.live(), 0, "crashed {down}");
        }
    }

    /// A multicast whose every copy dies en route queues nothing and takes
    /// no slot; the next send takes the slot the last pop freed.
    #[test]
    fn a_multicast_with_no_surviving_copy_holds_no_slot() {
        let mut sim = Sim::new(gen::path(5), recorders(5), CostModel::Hops);
        sim.crash(nid(1));
        sim.inject(nid(0), nid(0), Msg::Spread(vec![nid(2), nid(3), nid(4)]));
        sim.run_until(0);
        let m = sim.metrics();
        assert_eq!((m.sends, m.dropped, m.message_passes), (3, 3, 4));
        assert_eq!((sim.net.queue.len(), sim.net.pending), (0, 0));
        assert_eq!((sim.net.slab.live(), sim.net.slab.capacity()), (0, 1));
        sim.inject(nid(3), nid(2), Msg::Ping);
        sim.run();
        assert_eq!(sim.node(nid(3)).got, [(nid(2), Msg::Pong, 1)]);
        assert_eq!((sim.net.slab.live(), sim.net.slab.capacity()), (0, 1));
    }

    /// Hop-cost traffic for the slab on `graph`: pings, multicasts that
    /// may include their sender, multicasts from a node whose neighbors
    /// are all down (no copy survives), same-tick chains, crashes and
    /// restores, all between `run_until` slices. After every slice no
    /// more slots are live than deliveries are pending, and after every
    /// drain to quiescence none is.
    fn slab_traffic(sim: &mut Sim<Msg, Recorder>, mut s: u64) {
        let n = sim.graph().node_count();
        let node = |s: &mut u64| nid((mix(s) % n as u64) as u32);
        let check = |sim: &Sim<Msg, Recorder>| {
            assert!(sim.net.slab.live() as u64 <= sim.net.pending);
        };
        for phase in 0..6 {
            for _ in 0..8 {
                match mix(&mut s) % 6 {
                    0 => {
                        let from = node(&mut s);
                        let mut targets: Vec<NodeId> =
                            (0..mix(&mut s) % 6).map(|_| node(&mut s)).collect();
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
                    1 => {
                        // wall a sender in: every copy dies on its first hop
                        let from = node(&mut s);
                        let walls: Vec<NodeId> = sim
                            .graph()
                            .neighbor_ids(from)
                            .filter(|&w| !sim.is_crashed(w))
                            .collect();
                        for &w in &walls {
                            sim.crash(w);
                        }
                        let targets = (0..1 + mix(&mut s) % 4).map(|_| node(&mut s)).collect();
                        sim.inject(from, from, Msg::Spread(targets));
                        sim.run_until(sim.now());
                        check(sim);
                        for w in walls {
                            sim.restore(w);
                        }
                    }
                    2 => {
                        let v = node(&mut s);
                        sim.inject(v, v, Msg::Chain((mix(&mut s) % 4) as u8));
                    }
                    3 => {
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
            let deadline = sim.now() + mix(&mut s) % 8;
            sim.run_until(deadline);
            check(sim);
            if phase % 2 == 1 {
                sim.run();
                assert_eq!(sim.net.slab.live(), 0, "quiescent after phase {phase}");
            }
        }
        sim.run();
        assert_eq!((sim.net.slab.live(), sim.net.pending), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Hop-cost traffic on a ring, a torus or a grid: the slab frees
        /// every slot once the queue drains, never holds more slots than
        /// pending deliveries, and the calendar queue and the `BTree`
        /// oracle deliver the same messages from the same senders on the
        /// same ticks.
        #[test]
        fn the_slab_frees_every_slot_and_both_queues_agree(
            seed in any::<u64>(),
            shape in 0u8..3,
            w in 3usize..9,
            h in 1usize..9,
        ) {
            let graph = || match shape {
                0 => gen::ring(w * h),
                1 => gen::grid(w, h, true),
                _ => gen::grid(w, h, false),
            };
            let run = |kind| {
                let n = w * h;
                let mut sim = Sim::with_router(
                    graph(),
                    recorders(n),
                    CostModel::Hops,
                    kind,
                    ShardMode::Single,
                    RouterKind::Auto,
                );
                slab_traffic(&mut sim, seed);
                sim
            };
            let (calendar, btree) = (run(QueueKind::Calendar), run(QueueKind::BTree));
            prop_assert_eq!(calendar.metrics(), btree.metrics());
            for v in (0..(w * h) as u32).map(nid) {
                prop_assert_eq!(&calendar.node(v).got, &btree.node(v).got);
            }
        }
    }

    // ---- a fan's pure replies: counted in bulk, queued as fan-ins ----

    /// Counts the answers it gets (`Note`s, `Tag`s and `Pong`s) and
    /// reports every third. With `REPLY`, it names its pure answers to a
    /// `Probe`, and a fan of probes is answered without handler calls, its
    /// equal answers to one node queued as one fan-in; without, every
    /// probe runs its handler and every answer is an envelope of its own.
    /// The two must be indistinguishable but for the handler calls
    /// (`calls`) and the fan-ins seen.
    #[derive(Default)]
    struct Tally<const REPLY: bool> {
        me: u32,
        answers: u64,
        sum: u64,
        calls: u64,
        fan_ins: Vec<u64>,
    }

    impl<const REPLY: bool> Tally<REPLY> {
        /// Takes one answer; the token to report when it is a third.
        fn take(&mut self, msg: &Msg) -> Option<u64> {
            let x = match msg {
                Msg::Note => 0,
                Msg::Tag(x) => u64::from(*x) + 1,
                Msg::Pong => 100,
                _ => return None,
            };
            self.answers += 1;
            self.sum += x;
            self.answers
                .is_multiple_of(3)
                .then_some(u64::from(self.me) << 40 | self.answers << 8 | x)
        }

        /// How node `me` answers `Probe(a, b)`: nodes 7 mod 8 have no pure
        /// answer (they also report); nodes 5 mod 8 answer `a` a `Pong`,
        /// which joins nothing; the rest answer tags in runs of four like
        /// `Ping`'s, nodes 0-11 to `a`, 12-23 to `b`, 24-35 to `a` and so
        /// on.
        fn probe_answer(me: NodeId, a: NodeId, b: NodeId) -> Option<(NodeId, Msg)> {
            let v = me.raw();
            match v % 8 {
                7 => None,
                5 => Some((a, Msg::Pong)),
                _ => {
                    let to = if (v / 12).is_multiple_of(2) { a } else { b };
                    Some((to, Msg::Tag((v / 4 % 3) as u8)))
                }
            }
        }
    }

    impl<const REPLY: bool> Node<Msg> for Tally<REPLY> {
        fn on_message(&mut self, env: Envelope<Msg>, api: &mut NodeApi<'_, Msg>) {
            self.calls += 1;
            match env.msg {
                Msg::Ask(targets) => api.multicast(&targets, Msg::Ping),
                Msg::Spread(targets) => api.multicast(&targets, Msg::Note),
                Msg::Survey(targets, a, b) => api.multicast(&targets, Msg::Probe(a, b)),
                Msg::Probe(a, b) => match Self::probe_answer(api.me(), a, b) {
                    Some((to, answer)) => api.send(to, answer),
                    None => {
                        api.report(u64::from(self.me) << 40 | 0xff);
                        api.send(a, Msg::Tag((self.me / 4 % 3) as u8));
                    }
                },
                // answered in runs of equal tags, by handlers: responders
                // 4k..4k+3 agree, but no handler's send joins another
                Msg::Ping => api.send(env.from, Msg::Tag((self.me / 4 % 3) as u8)),
                Msg::Chain(k) if k > 0 => api.send(api.me(), Msg::Chain(k - 1)),
                ref answer => {
                    if let Some(token) = self.take(answer) {
                        api.report(token);
                    }
                }
            }
        }

        fn joins(a: &Msg, b: &Msg) -> bool {
            matches!(a, Msg::Note | Msg::Tag(_)) && a == b
        }

        fn reply(&self, me: NodeId, msg: &Msg) -> Option<(NodeId, Msg)> {
            match *msg {
                Msg::Probe(a, b) if REPLY => Self::probe_answer(me, a, b),
                _ => None,
            }
        }

        fn on_fan_in(&mut self, msg: &Msg, count: u64, api: &mut FanInApi<'_>) {
            self.calls += 1;
            self.fan_ins.push(count);
            for _ in 0..count {
                if let Some(token) = self.take(msg) {
                    api.report(token);
                }
            }
        }
    }

    fn tally_sim<const REPLY: bool>(n: usize, kind: QueueKind) -> Sim<Msg, Tally<REPLY>> {
        let nodes = (0..n as u32)
            .map(|me| Tally {
                me,
                ..Tally::default()
            })
            .collect();
        Sim::with_router(
            gen::complete(n),
            nodes,
            CostModel::Uniform,
            kind,
            ShardMode::Single,
            RouterKind::Auto,
        )
    }

    /// Everything a host or a test can observe of a tally run but the
    /// handler calls and the fan-ins: the reports in order, metrics
    /// (per-node load included), the depth histogram, the clock and every
    /// node's count.
    #[derive(Debug, PartialEq)]
    struct Observed {
        reports: Vec<u64>,
        metrics: Metrics,
        buckets: [u64; QUEUE_DEPTH_BUCKETS],
        now: SimTime,
        counts: Vec<(u64, u64)>,
    }

    fn observe<const REPLY: bool>(sim: &Sim<Msg, Tally<REPLY>>, reports: Vec<u64>) -> Observed {
        Observed {
            reports,
            metrics: sim.metrics().clone(),
            buckets: *sim.queue_depth_buckets(),
            now: sim.now(),
            counts: sim.nodes.iter().map(|t| (t.answers, t.sum)).collect(),
        }
    }

    fn calls<const REPLY: bool>(sim: &Sim<Msg, Tally<REPLY>>) -> u64 {
        sim.nodes.iter().map(|t| t.calls).sum()
    }

    /// The handler calls a fan-in saves: one per delivery but the first.
    fn joined<const REPLY: bool>(sim: &Sim<Msg, Tally<REPLY>>) -> u64 {
        sim.nodes
            .iter()
            .flat_map(|t| &t.fan_ins)
            .map(|k| k - 1)
            .sum()
    }

    /// Two locates-alike on `complete(12)`, each a survey of eleven nodes
    /// answered to its sender, run to the tick their answers wait on.
    /// Returns the reports, and the queue entries and slab slots then
    /// held.
    fn fan_in_script<const REPLY: bool>(
        sim: &mut Sim<Msg, Tally<REPLY>>,
    ) -> (Vec<u64>, (usize, usize)) {
        sim.inject(
            nid(0),
            nid(0),
            Msg::Survey((1..12).map(nid).collect(), nid(0), nid(0)),
        );
        sim.inject(
            nid(5),
            nid(5),
            Msg::Survey((0..12).map(nid).collect(), nid(5), nid(5)),
        );
        sim.run_until(1); // every answer waits on tick 2
        assert_eq!(sim.net.pending, 22, "22 answers in flight");
        let held = (sim.net.queue.len(), sim.net.slab.live());
        sim.run();
        assert_eq!((sim.net.slab.live(), sim.net.pending), (0, 0));
        (sim.reports().collect(), held)
    }

    /// A fan-in runs as the deliveries it stands for: the same
    /// observables, in fewer entries and handler calls.
    #[test]
    fn fan_in_matches_one_by_one() {
        for kind in [QueueKind::Calendar, QueueKind::BTree] {
            let mut bulk = tally_sim::<true>(12, kind);
            let mut plain = tally_sim::<false>(12, kind);
            let (bulk_reports, (bulk_entries, bulk_slots)) = fan_in_script(&mut bulk);
            let (plain_reports, (plain_entries, plain_slots)) = fan_in_script(&mut plain);
            assert_eq!(
                observe(&bulk, bulk_reports),
                observe(&plain, plain_reports),
                "{kind:?}"
            );
            // node 0 hears from 1-3 | 4 | 5's pong | 6 | 7's handler |
            // 8-11, node 5 (itself not surveyed) from 0-3 | 4, 6 | 7 | 8-11
            assert_eq!(bulk.node(nid(0)).fan_ins, [3, 4], "{kind:?}");
            assert_eq!(bulk.node(nid(5)).fan_ins, [4, 2, 4], "{kind:?}");
            assert!(plain.nodes.iter().all(|t| t.fan_ins.is_empty()));
            // 22 answers in 6 + 4 entries, each holding one slot: a
            // fan-in of k > 1 is one payload, its copies the count
            assert_eq!((bulk_entries, bulk_slots), (10, 10), "{kind:?}");
            assert_eq!((plain_entries, plain_slots), (22, 22), "{kind:?}");
            // and the skipped handlers: all targets but 5 and 7 in the
            // first survey, but 7 in the second
            assert_eq!(
                calls(&plain) - calls(&bulk),
                9 + 10 + joined(&bulk),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn a_crashed_destination_drops_the_whole_fan_in() {
        let mut sim = tally_sim::<true>(8, QueueKind::Calendar);
        sim.inject(
            nid(0),
            nid(0),
            Msg::Survey((1..4).map(nid).collect(), nid(0), nid(0)),
        );
        sim.run_until(1); // three equal answers wait on tick 2 as one entry
        assert_eq!((sim.net.queue.len(), sim.net.slab.live()), (1, 1));
        let before = sim.metrics().clone();
        sim.crash(nid(0));
        sim.run();
        let m = sim.metrics();
        assert_eq!(m.dropped, before.dropped + 3);
        assert_eq!(m.events_executed, before.events_executed + 3);
        assert_eq!((m.delivered, m.node_load[0]), (before.delivered, 1));
        assert_eq!(sim.node(nid(0)).calls, 1, "only the survey ran");
        assert_eq!((sim.net.pending, sim.net.slab.live()), (0, 0));
    }

    /// Random uniform-cost traffic on `complete(n)` whose answers come
    /// back in runs of equal and unequal tags: asks, surveys (their
    /// sender a target or not, answered to one node or two), spreads,
    /// direct pings, same-tick chains, and crashes and restores between
    /// phased `run_until`s; with `surveys_only`, surveys and crashes
    /// alone. Returns the reports in order.
    fn answer_traffic<const REPLY: bool>(
        sim: &mut Sim<Msg, Tally<REPLY>>,
        n: usize,
        mut s: u64,
        surveys_only: bool,
    ) -> Vec<u64> {
        let node = |s: &mut u64| nid((mix(s) % n as u64) as u32);
        let mut reports = Vec::new();
        for phase in 0..6 {
            for _ in 0..8 {
                let kind = mix(&mut s) % 7;
                match if surveys_only && kind < 5 { 1 } else { kind } {
                    0 => {
                        let from = node(&mut s);
                        let targets = (0..mix(&mut s) % 12).map(|_| node(&mut s)).collect();
                        sim.inject(from, from, Msg::Ask(targets));
                    }
                    1 | 6 => {
                        let from = node(&mut s);
                        let targets = (0..mix(&mut s) % 16).map(|_| node(&mut s)).collect();
                        let (a, b) = (node(&mut s), node(&mut s));
                        sim.inject(from, from, Msg::Survey(targets, a, b));
                    }
                    2 => {
                        let from = node(&mut s);
                        let targets = (0..mix(&mut s) % 4).map(|_| node(&mut s)).collect();
                        sim.inject(from, from, Msg::Spread(targets));
                    }
                    3 => {
                        let (a, b) = (node(&mut s), node(&mut s));
                        sim.inject(a, b, Msg::Ping);
                    }
                    4 => {
                        let v = node(&mut s);
                        sim.inject(v, v, Msg::Chain((mix(&mut s) % 4) as u8));
                    }
                    _ => {
                        let v = node(&mut s);
                        if sim.is_crashed(v) {
                            sim.restore(v);
                        } else {
                            sim.crash(v);
                        }
                    }
                }
            }
            let deadline = sim.now() + mix(&mut s) % 3;
            sim.run_until(deadline);
            reports.extend(sim.reports());
            if phase == 3 {
                sim.run();
            }
        }
        sim.run();
        reports.extend(sim.reports());
        reports
    }

    /// Runs `answer_traffic` on a node type that names its replies and on
    /// its twin that does not, on both queues: they must agree on every
    /// observable, the bulk side in no more handler calls.
    fn bulk_matches_plain(seed: u64, n: usize, surveys_only: bool) {
        for kind in [QueueKind::Calendar, QueueKind::BTree] {
            let mut bulk = tally_sim::<true>(n, kind);
            let mut plain = tally_sim::<false>(n, kind);
            let bulk_reports = answer_traffic(&mut bulk, n, seed, surveys_only);
            let plain_reports = answer_traffic(&mut plain, n, seed, surveys_only);
            // quiescent: every fan and fan-in gave its slot back
            assert_eq!((bulk.net.slab.live(), plain.net.slab.live()), (0, 0));
            assert!(calls(&bulk) <= calls(&plain));
            assert_eq!(observe(&bulk, bulk_reports), observe(&plain, plain_reports));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Surveys among frequent crashes and restores, on few nodes: the
        /// fan-ins they make, crashed targets inside their streaks and
        /// crashed destinations included, run as their deliveries would.
        #[test]
        fn fan_ins_run_as_their_deliveries_would(seed in any::<u64>(), n in 1usize..24) {
            bulk_matches_plain(seed, n, true);
        }
    }

    /// One survey on `complete(32)` through every case the bulk path
    /// distinguishes, with 16 deliveries pending when it runs (the ping,
    /// 14 remote copies and the sender's own answer) — a power of two, so
    /// a depth sample one off lands in another bucket. Node 2 surveys
    /// 1-5, 9-17 and 20, itself among them, for 0 (nodes 0-11) and 20
    /// (nodes 12-23), after node 0 pinged node 1; node 10 is down. On
    /// tick 1, in target order:
    /// - 1 and 3 answer `Tag(0)` to 0, as one fan-in queued behind the
    ///   ping's answer, which 1's handler sent just before the fan ran;
    /// - 4's `Tag(1)` is a streak, 5's `Pong` joins nothing, so it runs
    ///   its handler between two streaks to 0;
    /// - 9 and 11 answer `Tag(2)` as one fan-in across the crashed 10;
    /// - 12 and 14 answer `Tag(0)` to 20, around 13's `Pong` to 0;
    /// - 15 has no pure answer: it reports and answers 0 itself;
    /// - 16 and 17 answer `Tag(1)` to 20;
    /// - 20 answers itself, locally.
    fn survey_script<const REPLY: bool>(sim: &mut Sim<Msg, Tally<REPLY>>) -> Vec<u64> {
        let targets = [1, 2, 3, 4, 5, 9, 10, 11, 12, 13, 14, 15, 16, 17, 20];
        sim.inject(nid(0), nid(0), Msg::Ask(vec![nid(1)]));
        sim.inject(
            nid(2),
            nid(2),
            Msg::Survey(targets.map(nid).to_vec(), nid(0), nid(20)),
        );
        sim.run_until(0);
        sim.crash(nid(10));
        sim.run_until(1);
        let mut reports: Vec<u64> = sim.reports().collect();
        // a locate's shape: the client surveys a set it belongs to, for
        // itself; then again once 10 is back
        let all: Vec<NodeId> = (0..32).map(nid).collect();
        sim.inject(nid(7), nid(7), Msg::Survey(all.clone(), nid(7), nid(7)));
        sim.run_until(3);
        sim.restore(nid(10));
        sim.inject(nid(6), nid(6), Msg::Survey(all, nid(6), nid(30)));
        sim.run();
        reports.extend(sim.reports());
        reports
    }

    #[test]
    fn a_fans_replies_run_as_their_handlers_would() {
        for kind in [QueueKind::Calendar, QueueKind::BTree] {
            let mut bulk = tally_sim::<true>(32, kind);
            let mut plain = tally_sim::<false>(32, kind);
            let bulk_reports = survey_script(&mut bulk);
            let plain_reports = survey_script(&mut plain);
            let bulk_seen = observe(&bulk, bulk_reports);
            assert_eq!(bulk_seen, observe(&plain, plain_reports), "{kind:?}");
            // the first survey's fan-ins on tick 2: to 0, 1's and 3's, then
            // 9's and 11's; to 20, 16's and 17's
            assert_eq!(bulk.node(nid(0)).fan_ins[..2], [2, 2], "{kind:?}");
            assert_eq!(bulk.node(nid(20)).fan_ins[0], 2, "{kind:?}");
            // every live remote target but those answering a `Pong`
            // (5 mod 8), without a pure answer (7 mod 8) or to itself
            // (20, once) skips its handler: 13 − 4, 30 − 7 and 31 − 8
            assert_eq!(
                calls(&plain) - calls(&bulk),
                9 + 23 + 23 + joined(&bulk),
                "{kind:?}"
            );
            let (m, buckets) = (&bulk_seen.metrics, &bulk_seen.buckets);
            assert_eq!(
                m.dropped, 2,
                "{kind:?}: two surveys' copies to the crashed 10"
            );
            assert_eq!(m.events_executed, buckets.iter().sum::<u64>());
        }
    }

    /// A streak stays open across crashed targets, so each streak of a
    /// fan is one queue entry, and the run observes what one handler call
    /// per target would. Node 0 surveys 1-3 and 8-13 for itself, with 2,
    /// 9, 10 and 13 down: 1 and 3 answer `Tag(0)` across 2; 8 and 11
    /// `Tag(2)` across 9 and 10; 12 `Tag(0)`, ahead of the trailing 13.
    #[test]
    fn a_streak_spans_crashed_targets_as_one_entry() {
        fn run<const REPLY: bool>(kind: QueueKind) -> (Sim<Msg, Tally<REPLY>>, usize, Observed) {
            let mut sim = tally_sim::<REPLY>(16, kind);
            let targets = [1, 2, 3, 8, 9, 10, 11, 12, 13].map(nid).to_vec();
            sim.inject(nid(0), nid(0), Msg::Survey(targets, nid(0), nid(0)));
            sim.run_until(0);
            for v in [2, 9, 10, 13] {
                sim.crash(nid(v));
            }
            sim.run_until(1);
            let entries = sim.net.queue.len();
            sim.run();
            let reports = sim.reports().collect();
            let seen = observe(&sim, reports);
            (sim, entries, seen)
        }
        for kind in [QueueKind::Calendar, QueueKind::BTree] {
            let (bulk, bulk_entries, bulk_seen) = run::<true>(kind);
            let (_, plain_entries, plain_seen) = run::<false>(kind);
            assert_eq!(bulk_seen, plain_seen, "{kind:?}");
            assert_eq!((bulk_entries, plain_entries), (3, 5), "{kind:?}");
            assert_eq!(bulk.node(nid(0)).fan_ins, [2, 2], "{kind:?}");
            assert_eq!(bulk_seen.metrics.dropped, 4, "{kind:?}");
        }
    }

    /// The depth a streak samples is the one its deliveries leave
    /// unchanged — each pops one pending delivery and queues one — and a
    /// crashed target inside a streak lowers it for the replies after it
    /// only.
    #[test]
    fn a_streak_samples_the_depth_its_pops_and_sends_leave() {
        let mut sim = tally_sim::<true>(16, QueueKind::Calendar);
        // four remote targets, each answering `Tag(0)` to 0; 2 is down
        let targets = [1, 2, 3, 12].map(nid).to_vec();
        sim.inject(nid(0), nid(0), Msg::Survey(targets, nid(0), nid(0)));
        sim.run_until(0);
        sim.crash(nid(2));
        let before = *sim.queue_depth_buckets();
        sim.run_until(1);
        let after = sim.queue_depth_buckets();
        let added: Vec<u64> = (0..5).map(|b| after[b] - before[b]).collect();
        // 1 answers at depth 4, 3 and 12 at depth 3 after 2's drop
        assert_eq!(added, [0, 0, 2, 1, 0]);
        assert_eq!(sim.node(nid(0)).answers, 0, "the answers wait on tick 2");
        sim.run();
        assert_eq!(sim.node(nid(0)).fan_ins, [3], "one streak across 2");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Random surveys, asks, pings, chains, crashes and restores: a
        /// node type that names its replies and its twin that does not
        /// agree on every observable, on both queues.
        #[test]
        fn replies_run_as_their_handlers_would(seed in any::<u64>(), n in 1usize..40) {
            bulk_matches_plain(seed, n, false);
        }
    }
}
