//! The sharded parallel executor core.
//!
//! Nodes are partitioned across a fixed number of shards (balanced
//! contiguous index bands — output is identical under any assignment, and
//! the measured fabrics route over edgeless shells with no locality to
//! key on), each shard owning one calendar queue and its nodes' handler
//! state. The network itself — routes, crash flags, clock, metrics — is
//! the [`World`] the core is handed, exactly as on the single core; what
//! lives here is scheduling state only. Execution is conservative
//! parallel discrete-event simulation with a per-tick barrier: the
//! minimum cross-shard hop cost is one tick (every remote send costs
//! ≥ 1 tick under both cost models; zero-delay events are strictly
//! node-local), so all shards can execute one tick's events concurrently
//! without ever seeing a message from the "future".
//!
//! # Determinism: exact replay of the single-core order
//!
//! Byte-identical output regardless of shard count and worker-thread
//! count is achieved by *reconstructing the single core's global
//! `(time, sequence)` execution order* at every tick boundary, not by
//! merely approximating it:
//!
//! * One global sequence counter lives at the coordinator. Every event in
//!   any shard queue carries the seq it would have had in the single
//!   core's queue.
//! * During a tick, a shard executes its due events in local `(seq, FIFO)`
//!   order — provably the projection of the single core's global order
//!   onto that shard (zero-delay children are node-local, and their
//!   breadth-first FIFO order matches global seq order restricted to the
//!   shard) — recording a flat execution log: outcome, routing counter
//!   deltas, and emitted pushes, in order.
//! * After the barrier, the coordinator performs a k-way merge of the
//!   shard logs by ascending seq, replaying pops and pushes in exactly
//!   the single core's order: it assigns fresh seqs to pushes from the
//!   global counter, samples the queue-depth histogram at the same
//!   depths, accumulates the world's `Metrics` in the same order, and
//!   routes future-tick events into the destination shard's inbox.
//!
//! The merge is sequential but cheap (tens of ns per event) compared to
//! handler execution; Amdahl leaves near-linear scaling to a handful of
//! worker threads.

use crate::pool::{Job, ShardPool};
use crate::queue::{EventQueue, QueueKind};
use crate::route::{self, NetEnv, RouteCounters};
use crate::{Envelope, Node, NodeApi, Op, SimTime, World};
use mm_topo::NodeId;
use std::collections::VecDeque;

/// Where an executed event came from, as recorded in a shard's log.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// Popped from the shard queue under this coordinator-assigned seq.
    Queue(u64),
    /// Zero-delay child executed within the tick; its seq is assigned by
    /// the coordinator's merge when the parent's push is replayed.
    Child,
}

/// One executed event in a shard's per-tick log.
#[derive(Debug)]
struct ExecRec {
    src: Source,
    /// The node the event targeted (for `node_load`).
    node: NodeId,
    /// `false` when the target was crashed and the envelope dropped.
    delivered: bool,
    sends: u64,
    passes: u64,
    route_dropped: u64,
    /// Number of entries this event appended to the shard's flat push
    /// buffer (the merge consumes them with a per-shard cursor).
    push_count: u32,
}

/// One event emission recorded during shard execution.
#[derive(Debug)]
struct PushRec<M> {
    at: SimTime,
    /// `None` for zero-delay (same-node, hence same-shard) children:
    /// their payload went straight onto the shard's work deque and only
    /// the seq assignment happens at the coordinator.
    env: Option<Envelope<M>>,
}

/// Per-shard state: handler slices, queue, inbox, and round buffers.
#[derive(Debug)]
struct ShardState<M, N> {
    /// Handlers owned by this shard, in ascending global `NodeId` order.
    nodes: Vec<N>,
    queue: EventQueue<Envelope<M>>,
    /// Cross-round mail from the coordinator, in ascending seq order.
    inbox: Vec<(SimTime, u64, Envelope<M>)>,
    /// Earliest `at` currently in the inbox.
    inbox_min: Option<SimTime>,
    /// The queue's next event time as of the end of this shard's last
    /// round (`None` before the first round / when drained).
    cached_next: Option<SimTime>,
    /// Round output: executed events in local order.
    log: Vec<ExecRec>,
    /// Round output: emitted pushes, flat, in log order.
    pushes: Vec<PushRec<M>>,
    /// Merge scratch: seqs assigned to zero-delay children whose exec
    /// records have not been replayed yet (FIFO).
    pending: VecDeque<u64>,
    /// Reusable work deque for the tick-local breadth-first execution.
    fifo: VecDeque<(Source, Envelope<M>)>,
    /// Reusable handler-op buffer.
    scratch: Vec<Op<M>>,
}

impl<M, N> ShardState<M, N> {
    fn push_inbox(&mut self, at: SimTime, seq: u64, env: Envelope<M>) {
        self.inbox.push((at, seq, env));
        if self.inbox_min.is_none_or(|m| at < m) {
            self.inbox_min = Some(at);
        }
    }

    /// Earliest event time owned by this shard (queue or inbox).
    fn next_time(&self) -> Option<SimTime> {
        match (self.cached_next, self.inbox_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// Read-only world view shared by every shard during one round, plus the
/// tick being executed. Non-generic so it erases to one pointer.
struct RoundCtx<'a> {
    net: NetEnv<'a>,
    local_idx: &'a [u32],
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    shard_of: &'a [u32],
    tick: SimTime,
}

/// Executes one shard's share of tick `ctx.tick`: drain the inbox into
/// the queue, pop everything due, run the tick-local breadth-first
/// cascade (zero-delay children execute inline, never entering the
/// queue), and record the execution log for the coordinator's merge.
fn run_shard_round<M: Clone, N: Node<M>>(st: &mut ShardState<M, N>, ctx: &RoundCtx<'_>) {
    for (at, seq, env) in st.inbox.drain(..) {
        st.queue.push_seq(at, seq, env);
    }
    st.inbox_min = None;
    let t = ctx.tick;
    debug_assert!(st.log.is_empty() && st.pushes.is_empty());
    let mut fifo = std::mem::take(&mut st.fifo);
    debug_assert!(fifo.is_empty());
    while let Some((at, seq, env)) = st.queue.pop_seq_until(t) {
        debug_assert_eq!(at, t, "rounds run at the global minimum event time");
        fifo.push_back((Source::Queue(seq), env));
    }
    while let Some((src, env)) = fifo.pop_front() {
        let node = env.to;
        let delivered = !ctx.net.crashed[node.index()];
        let mut c = RouteCounters::default();
        let pushes_before = st.pushes.len();
        if delivered {
            let mut api = NodeApi {
                ops: &mut st.scratch,
                now: t,
                me: node,
            };
            st.nodes[ctx.local_idx[node.index()] as usize].on_message(env, &mut api);
            let pushes = &mut st.pushes;
            route::apply_ops(
                &ctx.net,
                t,
                node,
                &mut st.scratch,
                &mut c,
                &mut |at, child| {
                    if at == t {
                        // zero-delay events are node-local by the cost
                        // models' construction — this is the conservative
                        // lookahead the per-tick barrier relies on
                        debug_assert_eq!(
                            ctx.shard_of[child.to.index()],
                            ctx.shard_of[node.index()],
                            "zero-delay events must be shard-local"
                        );
                        pushes.push(PushRec { at, env: None });
                        fifo.push_back((Source::Child, child));
                    } else {
                        pushes.push(PushRec {
                            at,
                            env: Some(child),
                        });
                    }
                },
            );
        }
        st.log.push(ExecRec {
            src,
            node,
            delivered,
            sends: c.sends,
            passes: c.passes,
            route_dropped: c.dropped,
            push_count: (st.pushes.len() - pushes_before) as u32,
        });
    }
    st.fifo = fifo;
    st.cached_next = st.queue.peek_next_time();
}

/// Erased round entry point handed to the worker pool. Monomorphized at
/// [`ShardedCore::new`], where the concrete `M`/`N` are known and their
/// `Send` obligations are discharged.
///
/// # Safety
///
/// `state` must point to a live `ShardState<M, N>` with no other borrows
/// for the duration of the call, and `ctx` to a `RoundCtx` that outlives
/// it.
unsafe fn shard_job<M: Clone, N: Node<M>>(state: *mut (), ctx: *const ()) {
    let st = unsafe { &mut *(state.cast::<ShardState<M, N>>()) };
    let ctx = unsafe { &*(ctx.cast::<RoundCtx<'_>>()) };
    run_shard_round(st, ctx);
}

/// The sharded parallel core: per-shard queues + handler slices, a
/// coordinator-owned global sequence space, and a canonical per-tick
/// merge that replays the single core's execution order exactly.
#[derive(Debug)]
pub(crate) struct ShardedCore<M, N> {
    /// Global node id → owning shard.
    shard_of: Vec<u32>,
    /// Global node id → index within its shard's `nodes`.
    local_idx: Vec<u32>,
    // boxed so each shard's state keeps a stable heap address for the
    // type-erased job pointers handed to the worker pool
    #[allow(clippy::vec_box)]
    shards: Vec<Box<ShardState<M, N>>>,
    /// Worker pool (`None` ⇒ rounds run inline on the coordinator).
    pool: Option<ShardPool>,
    /// Monomorphized erased round entry point (see [`shard_job`]).
    job: unsafe fn(*mut (), *const ()),
    /// The single global sequence counter (mirrors the single core's
    /// queue-internal counter exactly).
    next_seq: u64,
    /// Conceptual global queue depth (what the single core's queue `len`
    /// would be), maintained by the merge replay.
    global_depth: u64,
    /// Round scratch: indices of shards active at the current tick.
    active: Vec<usize>,
}

impl<M: Clone, N: Node<M>> ShardedCore<M, N> {
    pub(crate) fn new(nodes: Vec<N>, kind: QueueKind, shard_count: usize, threads: usize) -> Self
    where
        M: Send,
        N: Send,
    {
        // the erased-job contract additionally needs the shared world
        // view to be safely shareable across workers
        fn assert_sync<T: Sync>() {}
        assert_sync::<RoundCtx<'_>>();

        let n = nodes.len();
        // balanced contiguous index bands; every shard is populated
        // because the count is clamped to the node count
        let shard_count = shard_count.clamp(1, n.max(1));
        let shard_of: Vec<u32> = (0..n).map(|v| (v * shard_count / n) as u32).collect();
        let mut counts = vec![0u32; shard_count];
        let mut local_idx = vec![0u32; n];
        for v in 0..n {
            let s = shard_of[v] as usize;
            local_idx[v] = counts[s];
            counts[s] += 1;
        }
        let mut shards: Vec<Box<ShardState<M, N>>> = counts
            .iter()
            .map(|&c| {
                Box::new(ShardState {
                    nodes: Vec::with_capacity(c as usize),
                    queue: EventQueue::new(kind),
                    inbox: Vec::new(),
                    inbox_min: None,
                    cached_next: None,
                    log: Vec::new(),
                    pushes: Vec::new(),
                    pending: VecDeque::new(),
                    fifo: VecDeque::new(),
                    scratch: Vec::new(),
                })
            })
            .collect();
        for (v, node) in nodes.into_iter().enumerate() {
            shards[shard_of[v] as usize].nodes.push(node);
        }
        let pool =
            (threads > 1 && shard_count > 1).then(|| ShardPool::new(threads.min(shard_count)));
        ShardedCore {
            shard_of,
            local_idx,
            shards,
            pool,
            job: shard_job::<M, N>,
            next_seq: 0,
            global_depth: 0,
            active: Vec::new(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn threads(&self) -> usize {
        self.pool.as_ref().map_or(1, ShardPool::threads)
    }

    pub(crate) fn node(&self, v: NodeId) -> &N {
        let s = &self.shards[self.shard_of[v.index()] as usize];
        &s.nodes[self.local_idx[v.index()] as usize]
    }

    pub(crate) fn node_mut(&mut self, v: NodeId) -> &mut N {
        let s = &mut self.shards[self.shard_of[v.index()] as usize];
        &mut s.nodes[self.local_idx[v.index()] as usize]
    }

    /// Coordinator-side push (injects between rounds) for delivery at the
    /// current time: assigns the next global seq, samples depth, and
    /// mails the owning shard.
    pub(crate) fn push(&mut self, w: &mut World, env: Envelope<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.global_depth += 1;
        w.sample_depth(self.global_depth);
        self.shards[self.shard_of[env.to.index()] as usize].push_inbox(w.now, seq, env);
    }

    /// Earliest event time across every shard (queues and inboxes).
    fn next_time(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.next_time()).min()
    }

    /// Executes every tick due at or before `deadline`, in time order.
    pub(crate) fn drain(&mut self, w: &mut World, deadline: SimTime) {
        while let Some(t) = self.next_time() {
            if t > deadline {
                break;
            }
            w.now = t;
            self.round(w, t);
        }
    }

    /// Runs tick `t` on every shard that has work due, then merges.
    fn round(&mut self, w: &mut World, t: SimTime) {
        let mut active = std::mem::take(&mut self.active);
        active.clear();
        for (i, s) in self.shards.iter().enumerate() {
            if s.next_time() == Some(t) {
                active.push(i);
            }
        }
        debug_assert!(!active.is_empty(), "a round only runs at an event time");
        {
            let ctx = RoundCtx {
                net: w.net_env(),
                local_idx: &self.local_idx,
                shard_of: &self.shard_of,
                tick: t,
            };
            let ctx_ptr = (&raw const ctx).cast::<()>();
            match &self.pool {
                Some(pool) if active.len() > 1 => {
                    let jobs: Vec<Job> = active
                        .iter()
                        .map(|&i| Job {
                            run: self.job,
                            state: (&raw mut *self.shards[i]).cast::<()>(),
                            ctx: ctx_ptr,
                        })
                        .collect();
                    // blocks until every shard's round completes — the
                    // barrier that bounds the erased pointers' lifetimes
                    pool.run(jobs);
                }
                _ => {
                    for &i in &active {
                        // SAFETY: unique state pointer, live ctx, same
                        // M/N monomorphization as at construction.
                        unsafe { (self.job)((&raw mut *self.shards[i]).cast::<()>(), ctx_ptr) };
                    }
                }
            }
        }
        self.merge_round(w, t, &active);
        self.active = active;
    }

    /// Replays the shard logs in ascending global-seq order — exactly the
    /// single core's execution order at tick `t` — assigning push seqs,
    /// sampling queue depth, accumulating metrics, and mailing
    /// future-tick events to their destination shards.
    fn merge_round(&mut self, w: &mut World, t: SimTime, active: &[usize]) {
        struct Cursor<M> {
            shard: usize,
            log: Vec<ExecRec>,
            pushes: Vec<PushRec<M>>,
            pending: VecDeque<u64>,
            r: usize,
            p: usize,
        }
        let mut cursors: Vec<Cursor<M>> = active
            .iter()
            .map(|&i| {
                let s = &mut self.shards[i];
                Cursor {
                    shard: i,
                    log: std::mem::take(&mut s.log),
                    pushes: std::mem::take(&mut s.pushes),
                    pending: std::mem::take(&mut s.pending),
                    r: 0,
                    p: 0,
                }
            })
            .collect();
        loop {
            // k-way pick: smallest next seq across shard logs (k is the
            // shard count, so a linear scan beats a heap by locality)
            let mut best: Option<(usize, u64)> = None;
            for (k, cur) in cursors.iter().enumerate() {
                if cur.r < cur.log.len() {
                    let seq = match cur.log[cur.r].src {
                        Source::Queue(s) => s,
                        Source::Child => *cur
                            .pending
                            .front()
                            .expect("child seq assigned before its exec record"),
                    };
                    if best.is_none_or(|(_, b)| seq < b) {
                        best = Some((k, seq));
                    }
                }
            }
            let Some((k, _)) = best else { break };
            let cur = &mut cursors[k];
            let rec = &cur.log[cur.r];
            cur.r += 1;
            if matches!(rec.src, Source::Child) {
                cur.pending.pop_front();
            }
            // the pop, in oracle order
            self.global_depth -= 1;
            w.metrics.events_executed += 1;
            if rec.delivered {
                w.metrics.delivered += 1;
                w.metrics.node_load[rec.node.index()] += 1;
            } else {
                w.metrics.dropped += 1;
            }
            w.metrics.sends += rec.sends;
            w.metrics.message_passes += rec.passes;
            w.metrics.dropped += rec.route_dropped;
            // the pushes, in oracle order
            let pushed = cur.p..cur.p + rec.push_count as usize;
            cur.p = pushed.end;
            for push in &mut cur.pushes[pushed] {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.global_depth += 1;
                w.sample_depth(self.global_depth);
                let env = push.env.take();
                if push.at == t {
                    debug_assert!(env.is_none(), "zero-delay payloads stay shard-local");
                    cur.pending.push_back(seq);
                } else {
                    let env = env.expect("future push carries its payload");
                    let d = self.shard_of[env.to.index()] as usize;
                    self.shards[d].push_inbox(push.at, seq, env);
                }
            }
        }
        // hand the (now empty) buffers back for reuse
        for cur in cursors {
            debug_assert!(
                cur.pending.is_empty(),
                "zero-delay children all execute within their round"
            );
            debug_assert_eq!(cur.p, cur.pushes.len(), "every recorded push replayed");
            let s = &mut self.shards[cur.shard];
            s.log = cur.log;
            s.log.clear();
            s.pushes = cur.pushes;
            s.pushes.clear();
            s.pending = cur.pending;
        }
    }
}
