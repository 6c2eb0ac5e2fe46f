//! The event loop: one event queue, one run of a tick at a time, in the
//! queue's order (by time, FIFO within a tick), on the calling thread.
//!
//! Each pop takes the whole FIFO run of the earliest due tick off the
//! queue, and the loop executes its entries by value, in order. Sends a
//! handler makes for that same tick land in the slot the run just left,
//! so they come back as the tick's next run — behind everything the taken
//! run still holds, which is where one pop per entry would have put them.
//!
//! An entry is 8 bytes: a destination and a slot of the network's payload
//! slab (`slab.rs`), where every send wrote its payload once. Each delivery
//! an entry stands for is charged to its destination and handed to that
//! node's handler together with a [`NodeApi`] over the network, through
//! which the handler's sends go straight into the same queue. An entry
//! whose slot holds a payload is one delivery: the loop rebuilds its
//! [`Envelope`] at the pop, cloning the message while other copies of a
//! hop-cost multicast still share the slot and moving it out of the last,
//! which frees the slot for the next send — the handler's own, often. A
//! copy that meets a crashed destination gives its share back too. An
//! entry whose slot index has the bulk bit set holds a fan or a fan-in
//! ([`execute_bulk`], out of line), so one bit of the entry tells the two
//! paths apart. A fan (the remote copies of one uniform-cost multicast)
//! is one per target but the sender, run back to back in target order.
//! That is the order one envelope per copy would pop in: the copies were
//! queued together, so on their tick nothing sits between them, and
//! whatever their handlers queue for the same tick goes behind the last
//! of them. A fan-in (a streak of a fan's replies: one payload to the
//! entry's node, assembled whole before it was queued, its copies the
//! streak's `count`) is `count` deliveries run at once: one crash check,
//! every counter moved by `count`, and one [`Node::on_fan_in`] call. That
//! handler can only report, so nothing it does lands between the
//! deliveries it stands for.
//!
//! A fan's pure replies run in bulk ([`execute_fan`]). A target whose
//! node names the one send its delivery would make ([`Node::reply`]) is
//! charged without a handler call, and targets whose replies go to one
//! other node and join form a *streak*, with only crashed targets between
//! them: counted once, sampled once per reply at the depth that a pop
//! followed by a send leaves unchanged, and pushed as one entry. A
//! locate's `Miss` answers are such a streak. Every other live target
//! runs as an envelope of its own, after the open streak is pushed, so
//! the queue receives the same deliveries in the same order as one
//! handler call per target would send them.
//!
//! A protocol event's cost is mostly its first touch of per-node state:
//! a locate visits `2·√n` distinct nodes once each, so at large `n` the
//! handler struct, the load counter and the crash flag of the target are
//! all cache misses. The loop holds the targets of the next deliveries
//! before they run — the rest of a fan's target list, and the rest of the
//! run — so it prefetches those three for the delivery [`LOOKAHEAD`]
//! places ahead, and for an entry of the run also its payload slot (for a
//! fan, the slot that holds its box; a fan's entry names its first
//! target). Only the handler's own slot is prefetched, not what it
//! points to: the protocol's node machine is two box pointers, and at
//! scale most targets of a locate have neither box, so the slot is all
//! a delivery to them reads. A prefetch changes no architectural state,
//! so order, counters and reports are what they are without it.

use crate::slab::{Slot, BULK};
use crate::{Envelope, Fan, FanInApi, Net, Node, NodeApi, Queued, Sim, SimTime};
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

/// Prefetches what delivering to `to` touches first: its handler, its
/// load counter and its crash flag.
#[inline(always)]
fn prefetch_node<M, N>(nodes: &[N], net: &Net<M>, to: NodeId) {
    let to = to.index();
    prefetch_at(nodes, to);
    prefetch_at(&net.metrics.node_load, to);
    prefetch_at(&net.crashed, to);
}

/// Runs one delivery: counted as an event, then dropped at a crashed
/// destination or charged to it and handed to its handler.
#[inline(always)]
fn execute<M, N: Node<M>>(nodes: &mut [N], net: &mut Net<M>, env: Envelope<M>) {
    net.pending -= 1;
    net.metrics.events_executed += 1;
    let me = env.to;
    if net.crashed[me.index()] {
        net.metrics.dropped += 1;
        return;
    }
    net.metrics.delivered += 1;
    net.metrics.node_load[me.index()] += 1;
    nodes[me.index()].on_message(env, &mut NodeApi { net, me });
}

/// Runs the fan or the fan-in (a payload under [`BULK`]) of an entry for
/// `to`: the entry's slot is freed first, so the replies a fan's targets
/// make can take it again.
///
/// Out of line: it runs once per fan or fan-in, hundreds of deliveries,
/// and hop cost never takes it; the bulk fan code inlined into the loop
/// slowed the hop-cost runs.
#[inline(never)]
fn execute_bulk<M: Clone, N: Node<M>>(nodes: &mut [N], net: &mut Net<M>, to: NodeId, slot: u32) {
    match net.slab.remove(slot) {
        Slot::Fan(fan) => execute_fan(nodes, net, &fan),
        Slot::Sent(fan_in) => {
            execute_fan_in(nodes, net, to, &fan_in.msg, u64::from(fan_in.copies));
        }
        // `remove` asserts that a queued slot is in use
        Slot::Free(_) => {}
    }
}

/// Runs the `count` deliveries to `to` of a fan-in as that many
/// [`execute`]s would: all counted as events, then all dropped at a
/// crashed destination or all charged to it, and the handler called once.
/// A fan-in handler cannot send, so nothing is queued between the
/// deliveries, and no depth sample can see `pending` part way down.
fn execute_fan_in<M, N: Node<M>>(
    nodes: &mut [N],
    net: &mut Net<M>,
    to: NodeId,
    msg: &M,
    count: u64,
) {
    net.pending -= count;
    net.metrics.events_executed += count;
    let me = to.index();
    if net.crashed[me] {
        net.metrics.dropped += count;
        return;
    }
    net.metrics.delivered += count;
    net.metrics.node_load[me] += count;
    let mut api = FanInApi {
        now: net.now,
        reports: &mut net.reports,
    };
    nodes[me].on_fan_in(msg, count, &mut api);
}

/// The open streak of a fan: `count` targets, the first `from`, whose
/// replies go to `to` and join `msg`; only crashed targets, which send
/// nothing, lie between them. `count` is at most the fan's targets, so
/// it fits the `u32` node id space.
struct Streak<M> {
    from: NodeId,
    to: NodeId,
    msg: M,
    count: u32,
    /// Replies not yet depth-sampled: those since the streak opened or
    /// since its last crashed target.
    unsampled: u64,
}

/// Runs a streak's deliveries and queues their replies as `count`
/// handler calls would have, each send right after its own delivery's
/// pop: every counter moved by `count`, the unsampled replies sampled at
/// the depth each pop and send left unchanged, and one payload queued
/// for the next tick — a delivery for one reply, under [`BULK`] a fan-in
/// for more.
fn flush<M>(net: &mut Net<M>, streak: Option<Streak<M>>) {
    let Some(Streak {
        from,
        to,
        msg,
        count,
        unsampled,
    }) = streak
    else {
        return;
    };
    net.sampled(unsampled);
    let m = &mut net.metrics;
    let replies = u64::from(count);
    m.events_executed += replies;
    m.delivered += replies;
    m.sends += replies;
    m.message_passes += replies;
    let slot = net.slab.insert_sent(from, net.now, msg, count);
    let slot = if count > 1 { slot | BULK } else { slot };
    net.queue.push(net.now + 1, Queued { to, slot });
}

/// Runs a fan's deliveries in target order, the sender skipped. A live
/// target whose node names its [reply](Node::reply) to another node is
/// charged here and its reply joins the open streak when it goes to the
/// same node and [joins](Node::joins) it; the streak is queued whole
/// ([`flush`]) when a live target cannot join it. A crashed target sends
/// nothing, so the streak stays open across it: the replies before it are
/// sampled at the depth they saw, and it drops as its own [`execute`]
/// would. Every other target — without a pure reply, replying to itself
/// or with a reply that joins nothing — first flushes the streak and then
/// runs as an envelope of its own. Each delivery is thus counted, charged
/// and sampled as its own `execute` would be, and the queue receives the
/// same deliveries in the same order.
fn execute_fan<M: Clone, N: Node<M>>(nodes: &mut [N], net: &mut Net<M>, fan: &Fan<M>) {
    let mut streak: Option<Streak<M>> = None;
    for (i, to) in fan.targets.iter().enumerate() {
        if let Some(&ahead) = fan.targets.get(i + LOOKAHEAD) {
            prefetch_node(nodes, net, ahead);
        }
        if to == fan.from {
            continue;
        }
        let me = to.index();
        if net.crashed[me] {
            if let Some(s) = &mut streak {
                net.sampled(std::mem::take(&mut s.unsampled));
            }
            execute(nodes, net, fan.copy_to(to));
            continue;
        }
        let reply = nodes[me]
            .reply(to, &fan.msg)
            .filter(|(dest, msg)| *dest != to && N::joins(msg, msg));
        let Some((dest, msg)) = reply else {
            flush(net, streak.take());
            execute(nodes, net, fan.copy_to(to));
            continue;
        };
        net.metrics.node_load[me] += 1;
        match &mut streak {
            Some(s) if s.to == dest && N::joins(&s.msg, &msg) => {
                s.count += 1;
                s.unsampled += 1;
            }
            _ => {
                flush(net, streak.take());
                streak = Some(Streak {
                    from: to,
                    to: dest,
                    msg,
                    count: 1,
                    unsampled: 1,
                });
            }
        }
    }
    flush(net, streak);
}

impl<M: Clone, N: Node<M>> Sim<M, N> {
    /// Executes every delivery due at or before `deadline`, in queue order.
    pub(crate) fn drain(&mut self, deadline: SimTime) {
        let (nodes, net) = (&mut self.nodes, &mut self.net);
        while let Some((t, run)) = net.queue.pop_run_until(deadline) {
            net.now = t;
            // O(1): a run is only ever pushed to, so it starts at the
            // front of its buffer
            let mut entries = Vec::from(run).into_iter();
            while let Some(Queued { to, slot }) = entries.next() {
                if let Some(ahead) = entries.as_slice().get(LOOKAHEAD - 1) {
                    prefetch_node(nodes, net, ahead.to);
                    prefetch_at(net.slab.slots(), (ahead.slot & !BULK) as usize);
                }
                if slot & BULK != 0 {
                    execute_bulk(nodes, net, to, slot);
                } else if let Some(env) = net.slab.take_copy(slot, to) {
                    execute(nodes, net, env);
                }
            }
        }
    }
}
