//! The single-threaded scheduler: one event queue, one event at a time,
//! in the queue's order (by time, FIFO within a tick). It is the default
//! core and the byte-for-byte oracle the sharded core is checked against
//! (as `QueueKind::BTree` is the oracle for the calendar queue).

use crate::queue::{EventQueue, QueueKind};
use crate::route::{self, RouteCounters};
use crate::{Envelope, Node, NodeApi, Op, SimTime, World};
use mm_topo::NodeId;

/// Single-threaded core: one [`Node`] state machine per graph node and
/// the queue of envelopes in flight between them.
#[derive(Debug)]
pub(crate) struct SingleCore<M, N> {
    nodes: Vec<N>,
    queue: EventQueue<Envelope<M>>,
    /// Handler-op buffer reused across events (no per-event `Vec`).
    scratch: Vec<Op<M>>,
}

impl<M: Clone, N: Node<M>> SingleCore<M, N> {
    pub(crate) fn new(nodes: Vec<N>, kind: QueueKind) -> Self {
        SingleCore {
            nodes,
            queue: EventQueue::new(kind),
            scratch: Vec::new(),
        }
    }

    pub(crate) fn node(&self, v: NodeId) -> &N {
        &self.nodes[v.index()]
    }

    pub(crate) fn node_mut(&mut self, v: NodeId) -> &mut N {
        &mut self.nodes[v.index()]
    }

    /// Queues `env` for delivery at the current time.
    pub(crate) fn push(&mut self, w: &mut World, env: Envelope<M>) {
        self.queue.push(w.now, env);
        w.sample_depth(self.queue.len() as u64);
    }

    /// Executes every event due at or before `deadline`, in queue order.
    pub(crate) fn drain(&mut self, w: &mut World, deadline: SimTime) {
        while let Some((t, env)) = self.queue.pop_next_until(deadline) {
            w.now = t;
            w.metrics.events_executed += 1;
            let at = env.to;
            if w.crashed[at.index()] {
                w.metrics.dropped += 1;
                continue;
            }
            w.metrics.delivered += 1;
            w.metrics.node_load[at.index()] += 1;
            let mut api = NodeApi {
                ops: &mut self.scratch,
                now: t,
                me: at,
            };
            self.nodes[at.index()].on_message(env, &mut api);

            let mut c = RouteCounters::default();
            let queued = self.queue.len();
            let queue = &mut self.queue;
            route::apply_ops(
                &w.net_env(),
                t,
                at,
                &mut self.scratch,
                &mut c,
                &mut |at, env| queue.push(at, env),
            );
            // nothing pops between one handler's pushes, so the depths
            // they saw are the consecutive ones up to the depth now
            for depth in queued + 1..=self.queue.len() {
                w.sample_depth(depth as u64);
            }
            w.metrics.sends += c.sends;
            w.metrics.message_passes += c.passes;
            w.metrics.dropped += c.dropped;
        }
    }
}
