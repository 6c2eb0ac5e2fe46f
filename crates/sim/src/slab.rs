//! The payloads of queued deliveries.
//!
//! A queue entry is a destination and a slot index, 8 bytes; what was sent
//! lives once in a slot of the network's [`Slab`]. A hop-cost multicast
//! writes one payload for all its surviving copies, each copy an entry of
//! its own, and the last copy to pop or drop frees the slot. A unicast, an
//! inject, a one-reply streak's flush and a uniform-cost local copy hold
//! one slot for one copy. A uniform-cost fan holds a slot with its box,
//! and a fan-in of `count` joined replies a payload whose `copies` is that
//! count; the entry of either carries [`BULK`] in its index, so the loop
//! tells the bulk path from a delivery by one bit of the entry it already
//! holds.
//!
//! Freed slots go on a LIFO free list threaded through the slots
//! themselves: the next send takes the slot the last pop freed, whose line
//! is still in cache, and the slab holds no more slots than the peak of
//! payloads in flight.

use crate::{Envelope, Fan, SimTime};
use mm_topo::NodeId;

/// Set in an entry's slot index when the slot holds a fan or a fan-in.
pub(crate) const BULK: u32 = 1 << 31;

/// End of the free list.
const NIL: u32 = u32::MAX;

/// What one send queued: its copies still in flight share it.
#[derive(Debug)]
pub(crate) struct Sent<M> {
    from: NodeId,
    /// Queue entries that still point here, or under [`BULK`] the replies
    /// a fan-in joins; at most the targets of one multicast, so it fits
    /// the `u32` node id space.
    pub(crate) copies: u32,
    sent_at: SimTime,
    pub(crate) msg: M,
}

/// One slot of the slab.
#[derive(Debug)]
pub(crate) enum Slot<M> {
    /// Unused; the next free slot, or `NIL`.
    Free(u32),
    /// A point-to-point send's or a hop-cost multicast's payload; under
    /// [`BULK`], a fan-in: one joined reply standing for `copies`. The
    /// payloads it joins are interchangeable (that is what joining them
    /// says); the senders of all but the first are not kept.
    Sent(Sent<M>),
    /// Every remote copy of one uniform-cost multicast.
    Fan(Box<Fan<M>>),
}

/// The payloads of every delivery in flight, indexed by queue entries.
#[derive(Debug)]
pub(crate) struct Slab<M> {
    slots: Vec<Slot<M>>,
    /// Head of the LIFO free list, `NIL` when every slot is in use.
    free: u32,
}

impl<M> Slab<M> {
    pub(crate) fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: NIL,
        }
    }

    /// The slot the next [`insert`](Self::insert) takes.
    pub(crate) fn vacant(&self) -> u32 {
        if self.free == NIL {
            // the cast cannot truncate, nor reach `BULK`: the slab grows
            // only when every slot is in use, each slot in use stands for
            // a pending delivery, and 2^31 slots of at least 24 bytes
            // would be 48 GiB, more than any run keeps in memory
            self.slots.len() as u32
        } else {
            self.free
        }
    }

    /// Stores `slot` and returns its position; a caller queueing a fan or
    /// a fan-in sets [`BULK`] in the index its entry carries.
    pub(crate) fn insert(&mut self, slot: Slot<M>) -> u32 {
        let i = self.vacant();
        debug_assert!(i < BULK, "slot index {i} overflows into the bulk bit");
        match self.slots.get_mut(i as usize) {
            Some(free) => {
                debug_assert!(
                    matches!(free, Slot::Free(_)),
                    "the free list links free slots"
                );
                if let Slot::Free(next) = std::mem::replace(free, slot) {
                    self.free = next;
                }
            }
            None => self.slots.push(slot),
        }
        i
    }

    /// Stores the payload of `copies` deliveries of `msg` from `from`, or
    /// of a fan-in of `copies` replies.
    pub(crate) fn insert_sent(
        &mut self,
        from: NodeId,
        sent_at: SimTime,
        msg: M,
        copies: u32,
    ) -> u32 {
        debug_assert!(copies > 0, "a payload serves at least one copy");
        self.insert(Slot::Sent(Sent {
            from,
            copies,
            sent_at,
            msg,
        }))
    }

    /// Takes a fan or fan-in out of the slot `index` (its [`BULK`] bit
    /// set or not) and frees the slot.
    pub(crate) fn remove(&mut self, index: u32) -> Slot<M> {
        let i = index & !BULK;
        let slot = std::mem::replace(&mut self.slots[i as usize], Slot::Free(self.free));
        debug_assert!(!matches!(slot, Slot::Free(_)), "a queued slot is in use");
        self.free = i;
        slot
    }

    /// The copy for `to` of the payload in slot `index`: the message moved
    /// out if this is the payload's last copy, which frees the slot, or
    /// cloned if copies remain. `None` only for a slot not holding a
    /// payload, which no queue entry points to.
    pub(crate) fn take_copy(&mut self, index: u32, to: NodeId) -> Option<Envelope<M>>
    where
        M: Clone,
    {
        let slot = self.slots.get_mut(index as usize)?;
        debug_assert!(
            matches!(slot, Slot::Sent(_)),
            "a delivery's slot holds its payload"
        );
        let Slot::Sent(sent) = &mut *slot else {
            return None;
        };
        if sent.copies > 1 {
            sent.copies -= 1;
            return Some(Envelope {
                from: sent.from,
                to,
                sent_at: sent.sent_at,
                msg: sent.msg.clone(),
            });
        }
        let Slot::Sent(sent) = std::mem::replace(slot, Slot::Free(self.free)) else {
            return None;
        };
        self.free = index;
        Some(Envelope {
            from: sent.from,
            to,
            sent_at: sent.sent_at,
            msg: sent.msg,
        })
    }

    /// Every slot, for the loop's prefetch.
    pub(crate) fn slots(&self) -> &[Slot<M>] {
        &self.slots
    }

    /// Slots in use.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| !matches!(s, Slot::Free(_)))
            .count()
    }

    /// Slots ever allocated, in use or free.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}
