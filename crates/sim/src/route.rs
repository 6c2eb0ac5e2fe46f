//! Routing: what a send costs and when it arrives.
//!
//! A handler's [`NodeApi`](crate::NodeApi) calls `Net::route` and
//! `Net::route_multicast` while the handler runs; they charge the send to
//! the network's `Metrics` and queue each copy that survives. Every send
//! writes its payload once, into one slot of the network's slab
//! (`slab.rs`), and queues an 8-byte entry per copy that names the slot:
//! a unicast, an inject or a local copy through `Net::deliver`; a hop-cost
//! multicast one entry per surviving copy, all naming the one slot (none,
//! and no slot, when every copy dies on the way); a uniform-cost multicast
//! all its remote copies at once as one fan entry. Every send is a push:
//! the only fan-ins are the streaks of a fan's replies, which the loop
//! assembles whole before it queues them (`single.rs`).
//! Under `CostModel::Uniform` there is no router:
//! every remote destination is one pass and one tick away, and nothing is
//! truncated.
//!
//! Routing goes through [`AnyRouter`](mm_topo::AnyRouter), never through graph adjacency:
//! under an analytic backend a structured topology needs no edges at all,
//! which is what lets hop-cost runs scale to n = 1,048,576. When no node
//! is crashed, hop walks collapse to O(1) `distance` lookups — the walk
//! exists only to find the first crashed intermediate.

use crate::slab::{Slot, BULK};
use crate::{Fan, Net, Queued, TargetSet};
use mm_topo::spanning::multicast_cost;
use mm_topo::{NodeId, Router};

impl<M> Net<M> {
    /// Counts `k` more pending deliveries, sampling the depth each one
    /// brings the queue to — `L + 1, …, L + k` from depth `L`, one
    /// range-add per log₂ bucket.
    fn queued(&mut self, k: u64) {
        let mut depth = self.pending + 1;
        self.pending += k;
        let last = self.pending;
        self.metrics.peak_queue_depth = self.metrics.peak_queue_depth.max(last);
        while depth <= last {
            // bucket `b` holds the depths up to `2^b - 1`
            let zeros = depth.leading_zeros();
            let top = (u64::MAX >> zeros).min(last);
            self.depth_buckets[(64 - zeros) as usize] += top - depth + 1;
            depth = top + 1;
        }
    }

    /// Samples `count` deliveries at the current depth without counting
    /// them: replies the loop made in bulk, each sent right after its own
    /// delivery's pop, so each left the depth where it found it.
    pub(crate) fn sampled(&mut self, count: u64) {
        let depth = self.pending;
        debug_assert!(
            depth <= self.metrics.peak_queue_depth,
            "a depth reached before"
        );
        self.depth_buckets[(64 - depth.leading_zeros()) as usize] += count;
    }

    /// Queues `msg` from `from` to `to`, arriving `delay` ticks from now.
    pub(crate) fn deliver(&mut self, from: NodeId, to: NodeId, delay: u64, msg: M) {
        let slot = self.slab.insert_sent(from, self.now, msg, 1);
        self.queue.push(self.now + delay, Queued { to, slot });
        self.queued(1);
    }

    /// Hops from `from` to `to`, `None` if no path exists. Hop cost only:
    /// a uniform-cost send never asks.
    fn distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        self.routing.as_ref()?.distance(from, to)
    }

    /// Hops a message covers on its `dist`-hop way to `to`, and whether a
    /// crashed node stopped it. With nobody crashed the answer is
    /// immediate; otherwise the router finds the first crashed node on
    /// the path (passes spent up to and into it stay spent).
    fn travel(&self, from: NodeId, to: NodeId, dist: u32) -> (u64, bool) {
        match &self.routing {
            Some(r) if self.crashed_count > 0 => {
                let (travelled, blocked) = r.hops_until_flagged(from, to, &self.crashed);
                (u64::from(travelled), blocked)
            }
            _ => (u64::from(dist), false),
        }
    }

    /// Point-to-point routing with hop accounting and crash truncation.
    /// A send to oneself is local delivery: counted, but free.
    pub(crate) fn route(&mut self, from: NodeId, to: NodeId, msg: M) {
        self.metrics.sends += 1;
        if from == to {
            self.deliver(from, to, 0, msg);
            return;
        }
        if self.routing.is_none() {
            // uniform cost: one pass, one tick, and no crash on the way
            self.metrics.message_passes += 1;
            self.deliver(from, to, 1, msg);
            return;
        }
        let Some(dist) = self.distance(from, to) else {
            self.metrics.dropped += 1;
            return;
        };
        let (travelled, blocked) = self.travel(from, to, dist);
        self.metrics.message_passes += travelled;
        if blocked {
            self.metrics.dropped += 1;
        } else {
            self.deliver(from, to, travelled, msg);
        }
    }

    /// Multicast with shared-prefix (spanning/Steiner tree) accounting:
    /// the tree is charged once, then each remote target gets a copy along
    /// its shortest path, truncated at crashed nodes. The sender's own copy
    /// (if it is a target) is local and free. The surviving copies share
    /// one payload slot.
    ///
    /// Under uniform cost every remote copy is one pass, one send and one
    /// tick, and a crash can only stop a copy at its destination — which
    /// the loop checks at the pop — so the copies are queued as one fan.
    ///
    /// `targets` is already sorted and duplicate-free ([`TargetSet`]'s
    /// construction invariant), so no per-operation sort/dedup happens here.
    pub(crate) fn route_multicast(&mut self, from: NodeId, targets: TargetSet, msg: M)
    where
        M: Clone,
    {
        // the accounting skips the sender, which under checkerboard is
        // always a member of its own set
        let Some(r) = &self.routing else {
            let local = targets.contains(from);
            let remote = (targets.len() - usize::from(local)) as u64;
            self.metrics.message_passes += remote;
            self.metrics.sends += remote;
            if local {
                self.deliver(from, from, 0, msg.clone());
            }
            if remote > 0 {
                let to = targets.as_slice()[0];
                let fan = Slot::Fan(Box::new(Fan {
                    from,
                    sent_at: self.now,
                    targets,
                    msg,
                }));
                let slot = self.slab.insert(fan) | BULK;
                self.queue.push(self.now + 1, Queued { to, slot });
                self.queued(remote);
            }
            return;
        };
        let Some(cost) = multicast_cost(r, from, targets.as_slice()) else {
            // unreachable targets: per-target routing, then the local copy
            for t in targets.iter().filter(|&t| t != from) {
                self.route(from, t, msg.clone());
            }
            if targets.contains(from) {
                self.deliver(from, from, 0, msg);
            }
            return;
        };
        self.metrics.message_passes += cost;
        // every surviving copy, the local one included, is an entry
        // pointing at the one slot the payload is written to once the
        // copies are counted; nothing else is stored in between, so that
        // slot is still the vacant one then
        let slot = self.slab.vacant();
        let mut copies = 0;
        for t in targets.iter() {
            let delay = if t == from {
                0
            } else {
                self.metrics.sends += 1;
                // the tree cost above found every target reachable; should
                // a router ever disagree with itself, the copy is dropped
                // as `route` would drop it
                let Some(dist) = self.distance(from, t) else {
                    self.metrics.dropped += 1;
                    continue;
                };
                let (travelled, blocked) = self.travel(from, t, dist);
                if blocked {
                    self.metrics.dropped += 1;
                    continue;
                }
                travelled
            };
            self.queue.push(self.now + delay, Queued { to: t, slot });
            self.queued(1);
            copies += 1;
        }
        if copies > 0 {
            let stored = self.slab.insert_sent(from, self.now, msg, copies);
            debug_assert_eq!(
                stored, slot,
                "the payload lands in the slot its copies name"
            );
        }
    }
}
