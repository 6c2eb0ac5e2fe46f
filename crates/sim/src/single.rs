//! The scheduler: one event queue, one event at a time, in the queue's
//! order (by time, FIFO within a tick), on the calling thread. It is the
//! only execution core `Sim` has.
//!
//! A protocol event's cost is mostly its first touch of per-node state:
//! a locate visits `2·√n` distinct nodes once each, so at large `n` the
//! handler struct, the load counter and the crash flag of the target are
//! all cache misses. The queue knows the targets of the next events
//! before they run ([`EventQueue::upcoming`]), so the loop prefetches
//! those three for the event [`LOOKAHEAD`] places ahead. A prefetch
//! changes no architectural state and the hint is read-only, so order,
//! counters and reports are what they are without it — which is what the
//! `BTree` queue, whose hint is always `None`, runs.

use crate::queue::{EventQueue, QueueKind};
use crate::route::{self, RouteCounters};
use crate::{Envelope, Node, NodeApi, Op, SimTime, World};
use mm_topo::NodeId;

/// How many events ahead of the one executing the loop prefetches: far
/// enough to cover a memory round trip at a few tens of nanoseconds per
/// event, near enough that the lines are still in L1 when needed.
/// Measured on `overload-ramp` at n = 262,144 (medians of 7, one
/// session): no prefetch 2.11 s, 8 → 1.21 s, 16 → 1.19 s, 32 → 1.14 s —
/// flat across the range, so not worth a knob.
const LOOKAHEAD: usize = 16;

/// Asks the CPU to start loading every cache line `*r` spans.
#[inline(always)]
fn prefetch_read<T>(r: &T) {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        const LINE: usize = 64;
        let (size, align) = (size_of::<T>(), align_of::<T>());
        if size == 0 {
            return;
        }
        // the most lines a `T` can straddle at its alignment
        let lines = (LINE - align.min(LINE) + size).div_ceil(LINE);
        let p = std::ptr::from_ref(r).cast::<i8>();
        for line in 0..lines {
            let at = p.wrapping_add((line * LINE).min(size - 1));
            // SAFETY: `at` points into `*r`, which the shared reference
            // keeps live; and a prefetch is a hint that is architecturally
            // a no-op for any address — it cannot fault or change memory.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(at) };
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = r;
}

/// Prefetches `v[i]`; an index out of range is left for the event's own
/// execution to report.
#[inline(always)]
fn prefetch_at<T>(v: &[T], i: usize) {
    if let Some(r) = v.get(i) {
        prefetch_read(r);
    }
}

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
    ///
    /// Kept out of line on measurement: left to the inliner it is folded
    /// into `Sim::run_until` and on into the workload runner, and
    /// `overload-ramp` at n = 262,144 read 1.03 s against 0.95 s pinned
    /// (0 of 10 alternating pairs won against the parent's out-of-line
    /// loop; `#[inline(always)]` read the same 1.03 s).
    #[inline(never)]
    pub(crate) fn drain(&mut self, w: &mut World, deadline: SimTime) {
        while let Some((t, env)) = self.queue.pop_next_until(deadline) {
            if let Some(next) = self.queue.upcoming(LOOKAHEAD) {
                let to = next.to.index();
                prefetch_at(&self.nodes, to);
                prefetch_at(&w.metrics.node_load, to);
                prefetch_at(&w.crashed, to);
            }
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
