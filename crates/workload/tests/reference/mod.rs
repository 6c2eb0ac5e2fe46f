//! The reference host: the protocol's [`NodeMachine`]s under the most
//! naive scheduler that still keeps the simulator's order. Its state is
//! one machine per node and one `BTreeMap<(tick, seq), Envelope>`; it
//! pops one envelope at a time and calls [`NodeMachine::handle`] once per
//! delivery — no fan, streak, slab or prefetch, and never `Node::reply`,
//! `Node::joins` or `Node::on_fan_in`. It shares the engine's rules, not
//! its code: FIFO within a tick; charging as `crates/sim/src/route.rs`
//! does, through the same [`AnyRouter`] (every hop-cost send walked with
//! [`Router::hops_until_flagged`]); drops at a crashed node's pop; one
//! depth sample per queued delivery; and `ShotgunEngine`'s host rules —
//! id counters, one stamp per advertisement, commands injected now and
//! free, a locate that asks nobody settled at issue, and a double-sweep
//! diameter stretching the client timeout under hop cost.

use mm_core::strategies::PortMapped;
use mm_core::Port;
use mm_obs::HIST_BUCKETS;
use mm_proto::{
    FaultProfile, LocateHandle, LocateOutcome, NodeMachine, Outbox, ProtoMsg, RequestOutcome,
    Settled,
};
use mm_sim::{CostModel, Envelope, Metrics, RouterKind, SimTime, TargetSet};
use mm_topo::spanning::multicast_cost;
use mm_topo::{AnyRouter, Graph, NodeId, Router};
use mm_workload::{Issued, Runtime};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Everything but the machines: a handler's sends land here.
struct Net {
    /// `None` under uniform cost, which never routes.
    router: Option<AnyRouter>,
    crashed: Vec<bool>,
    now: SimTime,
    seq: u64,
    queue: BTreeMap<(SimTime, u64), Envelope<ProtoMsg>>,
    metrics: Metrics,
    depth: [u64; HIST_BUCKETS],
    /// Verdicts the machines reached, not yet handed out.
    reports: Vec<Settled>,
}

impl Net {
    /// Queues a delivery `delay` ticks out; samples the depth it makes.
    fn push(&mut self, from: NodeId, to: NodeId, delay: u64, msg: ProtoMsg) {
        let sent_at = self.now;
        let env = Envelope {
            from,
            to,
            sent_at,
            msg,
        };
        self.queue.insert((sent_at + delay, self.seq), env);
        self.seq += 1;
        let depth = self.queue.len() as u64;
        self.depth[(64 - depth.leading_zeros()) as usize] += 1;
        self.metrics.peak_queue_depth = self.metrics.peak_queue_depth.max(depth);
    }

    /// Hops a send covers, and whether a crashed node stopped it; `None`
    /// when out of reach. Uniform cost: one hop that nothing stops.
    fn travel(&self, from: NodeId, to: NodeId) -> Option<(u64, bool)> {
        let Some(router) = &self.router else {
            return Some((1, false));
        };
        router.distance(from, to)?;
        let (hops, blocked) = router.hops_until_flagged(from, to, &self.crashed);
        Some((u64::from(hops), blocked))
    }

    /// Sends one copy; an `alone` copy (not one of a multicast's, whose
    /// tree is charged once) is counted even to oneself and pays its hops.
    fn send(&mut self, from: NodeId, to: NodeId, msg: ProtoMsg, alone: bool) {
        if from == to {
            self.metrics.sends += u64::from(alone);
            return self.push(from, to, 0, msg);
        }
        self.metrics.sends += 1;
        let Some((hops, blocked)) = self.travel(from, to) else {
            self.metrics.dropped += 1;
            return;
        };
        self.metrics.message_passes += if alone { hops } else { 0 };
        if blocked {
            self.metrics.dropped += 1;
        } else {
            self.push(from, to, hops, msg);
        }
    }

    /// Uniform cost queues the local copy first; hop cost charges the
    /// tree and queues every copy in target order, unless a target is out
    /// of reach: then every other copy goes alone, and the local one last.
    fn multicast(&mut self, from: NodeId, targets: &TargetSet, msg: ProtoMsg) {
        let tree = self
            .router
            .as_ref()
            .map(|r| multicast_cost(r, from, targets.as_slice()));
        if let Some(Some(tree)) = tree {
            self.metrics.message_passes += tree;
            for to in targets.iter() {
                self.send(from, to, msg.clone(), false);
            }
            return;
        }
        let local = targets.contains(from);
        if local && tree.is_none() {
            self.push(from, from, 0, msg.clone());
        }
        for to in targets.iter().filter(|&to| to != from) {
            self.send(from, to, msg.clone(), true);
        }
        if local && tree.is_some() {
            self.push(from, from, 0, msg);
        }
    }
}

/// The outbox of the delivery being handled at the node it names.
struct Sender<'a>(&'a mut Net, NodeId);

impl Outbox for Sender<'_> {
    fn send(&mut self, to: NodeId, msg: ProtoMsg) {
        self.0.send(self.1, to, msg, true);
    }

    fn multicast(&mut self, to: TargetSet, msg: ProtoMsg) {
        self.0.multicast(self.1, &to, msg);
    }
}

/// The naive [`Runtime`]: see the module docs.
pub struct ReferenceHost<PM> {
    nodes: Vec<NodeMachine>,
    net: Net,
    resolver: PM,
    topology: String,
    next_locate: u64,
    next_request: u64,
    stamp: u64,
    /// Locates settled at issue, handed out before the reports.
    vacuous: Vec<Settled>,
}

impl<PM: PortMapped> ReferenceHost<PM> {
    /// A host over `graph`, routing under hop cost by the default policy.
    pub fn new(graph: &Graph, resolver: PM, cost: CostModel) -> Self {
        let n = graph.node_count();
        assert_eq!(n, resolver.node_count(), "one resolver node per graph node");
        let net = Net {
            router: (cost == CostModel::Hops).then(|| RouterKind::Auto.build(graph)),
            crashed: vec![false; n],
            now: 0,
            seq: 0,
            queue: BTreeMap::new(),
            metrics: Metrics::new(n),
            depth: [0; HIST_BUCKETS],
            reports: Vec::new(),
        };
        ReferenceHost {
            nodes: (0..n).map(|_| NodeMachine::default()).collect(),
            net,
            resolver,
            topology: graph.name().to_string(),
            next_locate: 0,
            next_request: 0,
            stamp: 0,
            vacuous: Vec::new(),
        }
    }

    fn advertise(&mut self, addr: NodeId, port: Port) {
        self.stamp += 1;
        self.nodes[addr.index()].serve(port);
        let (targets, stamp) = (self.post_targets(addr, port), self.stamp);
        let post = ProtoMsg::DoPost {
            port,
            addr,
            stamp,
            targets,
        };
        self.net.push(addr, addr, 0, post);
    }
}

impl<PM: PortMapped> Runtime for ReferenceHost<PM> {
    type Resolver = PM;

    fn resolver(&self) -> &PM {
        &self.resolver
    }

    fn topology(&self) -> String {
        self.topology.clone()
    }

    fn cost_model(&self) -> &'static str {
        ["uniform", "hops"][usize::from(self.net.router.is_some())]
    }

    /// Two diameters more than the spec's timeout, the diameter read by a
    /// double sweep: node 0's farthest node (the last of equals), then
    /// that node's eccentricity.
    fn op_timeout(&self, spec_timeout: SimTime) -> SimTime {
        let Some(router) = &self.net.router else {
            return spec_timeout;
        };
        let farthest = |from: NodeId| {
            let all = (0..self.nodes.len()).map(NodeId::from);
            let far = all.map(|v| (v, router.distance(from, v).unwrap_or(0)));
            far.fold((from, 0), |a, b| if b.1 >= a.1 { b } else { a })
        };
        let (far, _) = farthest(NodeId::new(0));
        2 * SimTime::from(farthest(far).1) + spec_timeout
    }

    fn register_server(&mut self, at: NodeId, port: Port) {
        self.advertise(at, port);
    }

    fn migrate_server(&mut self, port: Port, from: NodeId, to: NodeId) {
        self.nodes[from.index()].unserve(port);
        self.advertise(to, port);
    }

    fn locate(&mut self, client: NodeId, port: Port) -> Issued<LocateHandle> {
        let (targets, id) = (self.query_targets(client, port), self.next_locate);
        self.next_locate += 1;
        let begun = self.nodes[client.index()].begin_locate(id, targets.len(), self.net.now);
        self.vacuous.extend(begun);
        let locate_id = id;
        let cmd = ProtoMsg::DoLocate {
            port,
            locate_id,
            targets,
        };
        self.net.push(client, client, 0, cmd);
        let token = LocateHandle { client, id };
        Issued {
            token,
            settled: false,
        }
    }

    fn locate_outcome(&self, h: LocateHandle) -> LocateOutcome {
        let outcome = self.nodes[h.client.index()].locate_outcome(h.id);
        outcome.unwrap_or(LocateOutcome::unanswered(0))
    }

    fn request(&mut self, client: NodeId, addr: NodeId, port: Port, body: u64) -> Issued<u64> {
        let request_id = self.next_request;
        self.next_request += 1;
        self.nodes[client.index()].begin_request(request_id, self.net.now);
        let cmd = ProtoMsg::DoRequest {
            port,
            addr,
            body,
            request_id,
        };
        self.net.push(client, client, 0, cmd);
        Issued {
            token: request_id,
            settled: false,
        }
    }

    fn request_outcome(&self, client: NodeId, id: u64) -> Option<RequestOutcome> {
        self.nodes[client.index()].request_outcome(id)
    }

    fn drain_settled(&mut self) -> Vec<Settled> {
        let mut settled = std::mem::take(&mut self.vacuous);
        settled.append(&mut self.net.reports);
        settled
    }

    fn crash(&mut self, v: NodeId) {
        self.net.crashed[v.index()] = true;
        self.net.metrics.crashes += 1;
    }

    fn restore(&mut self, v: NodeId) {
        self.net.crashed[v.index()] = false;
    }

    fn clear_cache(&mut self, v: NodeId) {
        self.nodes[v.index()].clear_cache();
    }

    fn set_fault(&mut self, v: NodeId, profile: FaultProfile) {
        self.nodes[v.index()].set_fault(profile);
    }

    /// Handles every delivery due by `deadline`, one pop at a time.
    fn advance(&mut self, deadline: SimTime) {
        let deadline = deadline.max(self.net.now);
        while let Some(next) = self.net.queue.first_entry() {
            if next.key().0 > deadline {
                break;
            }
            let ((now, _), env) = next.remove_entry();
            let (net, me) = (&mut self.net, env.to);
            net.now = now;
            net.metrics.events_executed += 1;
            if net.crashed[me.index()] {
                net.metrics.dropped += 1;
                continue;
            }
            net.metrics.delivered += 1;
            net.metrics.node_load[me.index()] += 1;
            let settled = self.nodes[me.index()].handle(me, env.msg, now, &mut Sender(net, me));
            self.net.reports.extend(settled);
        }
        self.net.now = deadline;
    }

    fn metrics(&self) -> Cow<'_, Metrics> {
        Cow::Borrowed(&self.net.metrics)
    }

    fn queue_depth_buckets(&self) -> Option<[u64; HIST_BUCKETS]> {
        Some(self.net.depth)
    }
}
