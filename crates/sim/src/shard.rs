//! The sharded scheduler: the single core's one queue, with each tick's
//! handlers run as a parallel map.
//!
//! A shard is a *band*: one of `shards` balanced contiguous ranges of
//! node indices. The core keeps one [`EventQueue`] and one `Vec` of
//! handlers, exactly as [`SingleCore`](crate::single::SingleCore) does,
//! and drains a tick in three steps:
//!
//! 1. **Pop.** Every event due at the earliest queued time `t` leaves
//!    the queue, in queue order, into the lane of its target's band. A
//!    crashed target is a drop, charged here as on the single core.
//! 2. **Run.** Each lane runs its events' handlers and routes what they
//!    send, recording the emissions flat with one count per event.
//!    Lanes run on the worker pool, or inline on the calling thread when
//!    the batch is small or falls in one band.
//! 3. **Push.** The calling thread walks the batch in its popped order
//!    and pushes each event's emissions into the queue.
//!
//! A zero-delay emission lands back in bucket `t`, behind everything
//! already popped, and is part of the next batch of the same tick.
//!
//! # Determinism
//!
//! Output is byte-identical to the single core's at every band and
//! worker count, because the queue goes through the same states:
//!
//! * *Batch order is queue order.* When the first event of time `t` pops,
//!   every other event due at `t` is already queued behind it, and
//!   anything pushed at `t` from then on sorts after them all — so the
//!   single core would execute exactly this batch, in this order, before
//!   any of its children.
//! * *Handlers of one batch are independent.* A handler touches only its
//!   own node's state and its lane's buffers, and reads the [`World`]
//!   (routes, crash flags) that no one writes during a drain. Two events
//!   for one node share a lane and keep their order.
//! * *One thread pushes, in batch order*, so every timestamp's FIFO run
//!   fills in the order it would have on the single core; push order is
//!   the only tiebreak there is.
//! * *Depth is counted, not reconstructed.* When the single core pushes
//!   while executing the batch's `k`-th event, its queue holds what this
//!   one holds plus the batch events after `k`: the sampled depth is
//!   `queue.len()` + the batch events not yet applied.
//!
//! Metrics are commutative sums: event counts are charged at the pop,
//! routing counters once per lane per batch.

use crate::pool::{Job, ShardPool};
use crate::queue::{EventQueue, QueueKind};
use crate::route::{self, NetEnv, RouteCounters};
use crate::{Envelope, Node, NodeApi, Op, SimTime, World};
use mm_topo::NodeId;
use std::collections::VecDeque;

/// A batch with fewer events than this runs inline: waking the pool
/// costs more than the handlers it would take off the calling thread.
/// (2 in this crate's own tests, whose networks are too small to reach
/// the real figure: there every multi-band batch goes through the pool.)
const MIN_PARALLEL_BATCH: usize = if cfg!(test) { 2 } else { 128 };

/// `order` entry of an event whose target was crashed: it holds its place
/// in the batch (the depth count needs it) but ran in no lane.
const DROPPED: u32 = u32::MAX;

/// One band's share of a batch: what it runs and what that emitted.
#[derive(Debug)]
struct Lane<M> {
    /// The batch's events for this band, in batch order.
    events: Vec<Envelope<M>>,
    /// What those events emitted, flat, in execution order…
    emitted: VecDeque<(SimTime, Envelope<M>)>,
    /// …and how many of them each event emitted.
    counts: VecDeque<u32>,
    /// Routing counters summed over the batch.
    routed: RouteCounters,
    /// Reusable handler-op buffer.
    scratch: Vec<Op<M>>,
}

/// What one lane's run borrows: its band's handlers and its buffers.
struct Task<'a, M, N> {
    /// The band's handlers; `nodes[0]` is node `first`.
    nodes: &'a mut [N],
    first: usize,
    lane: &'a mut Lane<M>,
}

/// Read-only world view shared by every lane of one batch.
struct TickCtx<'a> {
    net: NetEnv<'a>,
    tick: SimTime,
}

/// Runs one lane: handlers in batch order, emissions recorded per event.
fn run_lane<M: Clone, N: Node<M>>(task: &mut Task<'_, M, N>, ctx: &TickCtx<'_>) {
    let Lane {
        events,
        emitted,
        counts,
        routed,
        scratch,
    } = &mut *task.lane;
    for env in events.drain(..) {
        let node = env.to;
        let mut api = NodeApi {
            ops: scratch,
            now: ctx.tick,
            me: node,
        };
        task.nodes[node.index() - task.first].on_message(env, &mut api);
        let before = emitted.len();
        route::apply_ops(
            &ctx.net,
            ctx.tick,
            node,
            scratch,
            routed,
            &mut |at, child| emitted.push_back((at, child)),
        );
        counts.push_back((emitted.len() - before) as u32);
    }
}

/// [`run_lane`] behind the worker pool's erased signature.
///
/// # Safety
///
/// `task` must point to a live `Task<M, N>` with no other borrows for the
/// duration of the call, and `ctx` to a `TickCtx` that outlives it.
unsafe fn lane_job<M: Clone, N: Node<M>>(task: *mut (), ctx: *const ()) {
    let task = unsafe { &mut *(task.cast::<Task<'_, M, N>>()) };
    let ctx = unsafe { &*(ctx.cast::<TickCtx<'_>>()) };
    run_lane(task, ctx);
}

/// The sharded core: one queue, one handler vector, one lane per band.
#[derive(Debug)]
pub(crate) struct ShardedCore<M, N> {
    nodes: Vec<N>,
    queue: EventQueue<Envelope<M>>,
    /// One per band; node `v` belongs to band `v * lanes.len() / n`.
    lanes: Vec<Lane<M>>,
    /// The batch in popped order: each event's band, or [`DROPPED`].
    order: Vec<u32>,
    /// Worker pool (`None` ⇒ every batch runs inline).
    pool: Option<ShardPool>,
}

impl<M: Clone, N: Node<M>> ShardedCore<M, N> {
    pub(crate) fn new(nodes: Vec<N>, kind: QueueKind, shards: usize, threads: usize) -> Self
    where
        M: Send,
        N: Send,
    {
        // what `lane_job` needs of the two pointers a worker is handed;
        // this is the only way to build a core, so the bounds above hold
        // wherever a pool exists
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<Task<'_, M, N>>();
        assert_sync::<TickCtx<'_>>();

        // clamped to the node count, so every band is populated
        let shards = shards.clamp(1, nodes.len().max(1));
        let lanes = (0..shards)
            .map(|_| Lane {
                events: Vec::new(),
                emitted: VecDeque::new(),
                counts: VecDeque::new(),
                routed: RouteCounters::default(),
                scratch: Vec::new(),
            })
            .collect();
        ShardedCore {
            nodes,
            queue: EventQueue::new(kind),
            lanes,
            order: Vec::new(),
            pool: (threads > 1 && shards > 1).then(|| ShardPool::new(threads.min(shards))),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.lanes.len()
    }

    pub(crate) fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ShardPool::threads)
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

    /// Executes every event due at or before `deadline`, one batch (all
    /// that is queued for the earliest time) after another.
    // out of line: inlined into `Sim::run_until` beside the single core's
    // loop, it costs that loop 5 % (the benchmark's `closed-uniform`)
    #[inline(never)]
    pub(crate) fn drain(&mut self, w: &mut World, deadline: SimTime) {
        while let Some((t, first)) = self.queue.pop_next_until(deadline) {
            w.now = t;
            let mut next = Some(first);
            while let Some(env) = next {
                self.admit(w, env);
                next = self.queue.pop_next_until(t).map(|(_, env)| env);
            }
            self.run_batch(w, t);
            self.push_emissions(w);
        }
    }

    /// Step 1 for one popped event: charge it and hand it to its lane.
    fn admit(&mut self, w: &mut World, env: Envelope<M>) {
        let to = env.to.index();
        w.metrics.events_executed += 1;
        if w.crashed[to] {
            w.metrics.dropped += 1;
            self.order.push(DROPPED);
            return;
        }
        w.metrics.delivered += 1;
        w.metrics.node_load[to] += 1;
        let band = to * self.lanes.len() / self.nodes.len();
        self.lanes[band].events.push(env);
        self.order.push(band as u32);
    }

    /// Step 2: runs every lane that has events, then charges what they
    /// routed.
    fn run_batch(&mut self, w: &mut World, t: SimTime) {
        let (n, bands) = (self.nodes.len(), self.lanes.len());
        let mut tasks = Vec::new();
        let (mut rest, mut rest_first) = (&mut self.nodes[..], 0);
        for (b, lane) in self.lanes.iter_mut().enumerate() {
            if lane.events.is_empty() {
                continue;
            }
            // band b is the v with b <= v * bands / n < b + 1
            let first = (b * n).div_ceil(bands);
            let end = ((b + 1) * n).div_ceil(bands);
            let (_, tail) = rest.split_at_mut(first - rest_first);
            let (nodes, tail) = tail.split_at_mut(end - first);
            (rest, rest_first) = (tail, end);
            tasks.push(Task { nodes, first, lane });
        }
        let ctx = TickCtx {
            net: w.net_env(),
            tick: t,
        };
        match &self.pool {
            Some(pool) if tasks.len() > 1 && self.order.len() >= MIN_PARALLEL_BATCH => {
                let ctx_ptr = (&raw const ctx).cast::<()>();
                let jobs = tasks
                    .iter_mut()
                    .map(|task| Job {
                        run: lane_job::<M, N>,
                        state: (&raw mut *task).cast::<()>(),
                        ctx: ctx_ptr,
                    })
                    .collect();
                // blocks until every lane has run — the barrier that
                // bounds the erased pointers' lifetimes
                pool.run(jobs);
            }
            _ => tasks.iter_mut().for_each(|task| run_lane(task, &ctx)),
        }
        for task in tasks {
            let c = std::mem::take(&mut task.lane.routed);
            w.metrics.sends += c.sends;
            w.metrics.message_passes += c.passes;
            w.metrics.dropped += c.dropped;
        }
    }

    /// Step 3: pushes the batch's emissions in batch order, sampling the
    /// depth the single core's queue would have at each push.
    fn push_emissions(&mut self, w: &mut World) {
        let mut unapplied = self.order.len();
        for band in self.order.drain(..) {
            unapplied -= 1;
            if band == DROPPED {
                continue;
            }
            let lane = &mut self.lanes[band as usize];
            let count = lane.counts.pop_front().expect("one count per run event");
            for (at, env) in lane.emitted.drain(..count as usize) {
                self.queue.push(at, env);
                w.sample_depth((self.queue.len() + unapplied) as u64);
            }
        }
    }
}
