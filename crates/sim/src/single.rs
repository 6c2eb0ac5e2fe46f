//! The event loop: one event queue, one event at a time, in the queue's
//! order (by time, FIFO within a tick), on the calling thread.
//!
//! Each popped envelope is charged to its destination and handed to that
//! node's handler together with a [`NodeApi`] over the network, through
//! which the handler's sends go straight into the same queue.
//!
//! A protocol event's cost is mostly its first touch of per-node state:
//! a locate visits `2·√n` distinct nodes once each, so at large `n` the
//! handler struct, the load counter and the crash flag of the target are
//! all cache misses. The queue knows the targets of the next events
//! before they run (`EventQueue::upcoming`), so the loop prefetches
//! those three for the event [`LOOKAHEAD`] places ahead. A prefetch
//! changes no architectural state and the hint is read-only, so order,
//! counters and reports are what they are without it — which is what the
//! `BTree` queue, whose hint is always `None`, runs.

use crate::{Node, NodeApi, Sim, SimTime};

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

impl<M, N: Node<M>> Sim<M, N> {
    /// Executes every event due at or before `deadline`, in queue order.
    pub(crate) fn drain(&mut self, deadline: SimTime) {
        let net = &mut self.net;
        while let Some((t, env)) = net.queue.pop_next_until(deadline) {
            if let Some(next) = net.queue.upcoming(LOOKAHEAD) {
                let to = next.to.index();
                prefetch_at(&self.nodes, to);
                prefetch_at(&net.metrics.node_load, to);
                prefetch_at(&net.crashed, to);
            }
            net.now = t;
            net.metrics.events_executed += 1;
            let me = env.to;
            if net.crashed[me.index()] {
                net.metrics.dropped += 1;
                continue;
            }
            net.metrics.delivered += 1;
            net.metrics.node_load[me.index()] += 1;
            self.nodes[me.index()].on_message(env, &mut NodeApi { net, me });
        }
    }
}
