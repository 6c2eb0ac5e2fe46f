//! Event-queue implementations for the simulator core.
//!
//! The simulator's contract is strict: events execute in ascending time
//! order, and same-timestamp events run in the order they were pushed
//! (FIFO). Two implementations honor it:
//!
//! * [`CalendarQueue`] — the production queue, in three tiers by how far
//!   ahead an event is due (all simulator delays are integers: hop
//!   latencies). A fixed ring of 1,024 unit-time slots holds one FIFO run
//!   of bare events per tick near the cursor; the slot position is the
//!   event's time and the position in the run its push order, so nothing
//!   is stamped on the event. Past it, a ring of coarse buckets, one per
//!   64-tick block, each a `Vec` of events in push order beside a `Vec`
//!   of their `u8` tick offsets in the block. Past the buckets'
//!   horizon, a `BTreeMap` of runs. A block is distributed into the unit
//!   slots, in push order and in one pass, once the window covers it
//!   whole; far runs move into buckets whole as the horizon advances, and
//!   far pressure doubles the bucket ring, never the unit window. Each
//!   move keeps a tick's events together and in order, which is why FIFO
//!   per tick holds (see the type's docs). Push and pop are O(1)
//!   amortized, against the reference queue's O(log n) with node churn
//!   on every operation.
//! * [`BTreeQueue`] — the reference implementation, a
//!   `BTreeMap<(SimTime, u64), T>` keyed by time and a push counter, kept
//!   as the behavioral oracle: property tests drive both with identical
//!   op sequences, and the determinism suite runs whole scenarios
//!   through each and asserts byte-identical reports.
//!
//! [`QueueKind`] selects between them at `Sim` construction time. `Sim`
//! pushes through `push` and pops through `pop_run_until` alone: one call
//! hands over every event of the earliest due tick, in push order, and
//! leaves that tick's slot empty. A push at the same tick while the run is
//! out starts the tick's next run, which is where a per-event pop would
//! have put it too — behind everything the taken run still holds. No
//! queued event is read or edited in place. The per-event
//! `pop_next_until` / `pop_next` stay on the two queues as the oracle's
//! view and for callers that want one event at a time. An event
//! here is one queue entry, which for `Sim` may stand for many deliveries
//! (a uniform-cost multicast's fan, or a fan-in), so the queue does not
//! know the simulator's queue depth and does not report one: `Sim` counts
//! pending deliveries itself.

use crate::SimTime;
use std::collections::{BTreeMap, VecDeque};

/// Which event-queue implementation a [`Sim`](crate::Sim) uses.
///
/// `BTree` is the oracle of `tests/queue_determinism.rs`, the queue
/// proptests in this module and the `sustained` campaign (`BENCH_6.json`).
/// It is still a CLI axis (`--queue btree`) only because `benchmark/e2e`
/// names it; once that comparison moves into `benchmark/layers`, dropping
/// the flag is the same one-arm cut the router flag got.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueKind {
    /// Bucketed calendar queue (production default).
    #[default]
    Calendar,
    /// `BTreeMap` reference queue — the ordering oracle for determinism
    /// cross-checks.
    BTree,
}

/// Unit window width (a power of two): the ticks from the cursor that the
/// slot ring covers. Fixed: every tick beyond it waits in a coarse bucket
/// or the far map instead of widening the ring.
const UNIT_SPAN: u64 = 1024;

/// Widest coarse block, in ticks (a power of two, at most 256 so that an
/// event's offset in its block fits a `u8`).
const MAX_BLOCK: u64 = 64;

/// A coarse block's events in push order, each with its tick's offset in
/// the block.
#[derive(Debug)]
struct Bucket<T> {
    events: Vec<T>,
    offsets: Vec<u8>,
}

impl<T> Default for Bucket<T> {
    fn default() -> Self {
        Bucket {
            events: Vec::new(),
            offsets: Vec::new(),
        }
    }
}

/// Calendar queue: one FIFO run per timestamp, kept in three tiers by how
/// far ahead of the cursor it is due.
///
/// * **Unit slots** — a ring of `span` slots (1,024 by default, fixed for
///   the queue's life), one per tick, holding the ticks of every
///   *distributed* block. The slot position is the
///   event's tick and the position in the run its push order.
/// * **Coarse buckets** — a ring of buckets, one per block (64 ticks by
///   default), for the blocks after the distributed ones. A
///   bucket is a `Vec` of events in push order and a `Vec` of their
///   ticks' `u8` offsets in the block. A push appends to its block's
///   tail, so a long-haul send lands on one of a few hundred hot tails,
///   not in a cold per-tick slot; a distributed bucket gives its buffers
///   back.
/// * **Far map** — a `BTreeMap` of runs for the ticks past the coarse
///   horizon.
///
/// Once a whole block lies inside the window `[cursor, cursor + span)`,
/// its bucket is distributed into the unit slots, in push order and in
/// one pass, before any push or pop can observe those ticks (right after
/// the cursor moves); its bucket is then reused for the block one ring
/// further on, and the far runs of that block move into it whole and in
/// tick order. Far pressure (more far events than buckets) doubles the
/// bucket ring, which pulls the horizon out.
///
/// FIFO per tick holds because a tick's events are in exactly one tier at
/// a time and every move keeps their order: a tick leaves the far map for
/// an empty bucket before any push can reach that bucket, and leaves the
/// bucket for an empty slot before any push can reach that slot. A push
/// goes to the tier its tick is in *now*, so it lands behind everything
/// its tick holds, and the tiers only ever move ticks nearer.
///
/// Invariants:
/// * the unit slots hold ticks in `[cursor, next_block · block)`, and
///   `next_block · block ≤ cursor + span`: one tick per slot;
/// * bucket `b & bucket_mask` holds block `b` for
///   `b ∈ [next_block, next_block + buckets.len())`; the far map holds
///   blocks at or beyond that horizon;
/// * `cursor` never exceeds the earliest queued event's time, and every
///   block it has brought wholly inside the window is distributed.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `ring[t & mask]` is the run of unit tick `t`.
    ring: Vec<VecDeque<T>>,
    /// `ring.len() - 1`; the length is a power of two.
    mask: u64,
    /// Scan position: a lower bound on the earliest queued event time.
    cursor: SimTime,
    /// Number of events currently in the unit slots.
    ringed: usize,
    /// A block is `1 << block_bits` ticks wide, at most half the window.
    block_bits: u32,
    /// The first block not yet distributed. A block is at least 2 ticks
    /// wide, so this stays at most 2^63 even past the end of time.
    next_block: u64,
    /// `buckets[b & bucket_mask]` is coarse block `b`'s events.
    buckets: Vec<Bucket<T>>,
    /// `buckets.len() - 1`; the length is a power of two.
    bucket_mask: u64,
    /// Number of events currently in the buckets.
    coarse: usize,
    /// The runs at or beyond the coarse horizon, none empty.
    far: BTreeMap<SimTime, VecDeque<T>>,
    /// Number of events currently in `far`.
    parked: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::with_span(UNIT_SPAN)
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with an explicit unit window width (rounded up to a power
    /// of two, at least 2). Blocks are half the window wide, at least 2
    /// and at most 64 ticks, and the bucket ring starts out as wide as the
    /// window. For tests that want narrow tiers; production code uses
    /// `Default`.
    pub fn with_span(span: u64) -> Self {
        let span = span.next_power_of_two().max(2);
        let block = (span / 2).clamp(2, MAX_BLOCK);
        let blocks = span / block;
        let mut q = CalendarQueue {
            ring: (0..span).map(|_| VecDeque::new()).collect(),
            mask: span - 1,
            cursor: 0,
            ringed: 0,
            block_bits: block.trailing_zeros(),
            next_block: 0,
            buckets: (0..blocks).map(|_| Bucket::default()).collect(),
            bucket_mask: blocks - 1,
            coarse: 0,
            far: BTreeMap::new(),
            parked: 0,
        };
        q.next_block = q.distributable_end();
        q
    }

    fn span(&self) -> u64 {
        self.ring.len() as u64
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.ringed + self.coarse + self.parked
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `ev` at `at`, after every already-queued event with the
    /// same timestamp.
    ///
    /// `at` must not precede an already-popped event (the simulator never
    /// schedules into the past); pushing earlier than the last popped time
    /// would violate the window invariant.
    pub fn push(&mut self, at: SimTime, ev: T) {
        debug_assert!(
            at >= self.cursor,
            "push into the past: {at} < {}",
            self.cursor
        );
        let block = at >> self.block_bits;
        if block < self.next_block {
            debug_assert!(at - self.cursor < self.span(), "one tick per slot");
            self.ring[(at & self.mask) as usize].push_back(ev);
            self.ringed += 1;
        } else if block - self.next_block <= self.bucket_mask {
            self.append(at, ev);
        } else {
            self.far.entry(at).or_default().push_back(ev);
            self.parked += 1;
            if self.parked > self.buckets.len() {
                self.double_buckets();
            }
        }
    }

    /// Appends `ev` to the tail of its (coarse) block's bucket.
    fn append(&mut self, at: SimTime, ev: T) {
        let offset = (at & ((1 << self.block_bits) - 1)) as u8;
        let bucket = &mut self.buckets[((at >> self.block_bits) & self.bucket_mask) as usize];
        bucket.events.push(ev);
        bucket.offsets.push(offset);
        self.coarse += 1;
    }

    /// One past the last block that lies wholly inside the window.
    ///
    /// Block `b` ends at `(b + 1) · block`, inside the window when that is
    /// at most `cursor + span`. Near the end of time `cursor + span`
    /// overflows `u64`, and then every block is inside: the saturated
    /// add still yields the last block, `u64::MAX >> block_bits`, and the
    /// `+ 1` cannot overflow because a block is at least 2 ticks wide.
    fn distributable_end(&self) -> u64 {
        let block = 1 << self.block_bits;
        (self.cursor.saturating_add(self.span() - block) >> self.block_bits) + 1
    }

    /// Distributes every block the window now covers whole, in block
    /// order, moving the coarse horizon along and the far runs it passes
    /// into their buckets. Called whenever the cursor moves.
    fn advance(&mut self) {
        let end = self.distributable_end();
        while self.next_block < end {
            if self.coarse == 0 {
                // every bucket is empty: skip to the first block whose
                // bucket a far run would enter
                let far_from = self.far.first_key_value().map_or(end, |(&t, _)| {
                    (t >> self.block_bits) - self.buckets.len() as u64
                });
                if far_from > self.next_block {
                    self.next_block = far_from.min(end);
                    continue;
                }
            }
            self.distribute(self.next_block);
            self.next_block += 1;
            self.migrate_far();
        }
    }

    /// Moves block `block`'s bucket into the unit slots, in push order;
    /// the bucket is left holding no buffer, as a drained slot is.
    fn distribute(&mut self, block: u64) {
        let bucket = std::mem::take(&mut self.buckets[(block & self.bucket_mask) as usize]);
        let base = block << self.block_bits;
        // size each tick's slot buffer once, from the block's own counts
        let mut counts = [0usize; MAX_BLOCK as usize];
        for &offset in &bucket.offsets {
            counts[usize::from(offset)] += 1;
        }
        for (offset, &count) in counts.iter().enumerate() {
            if count > 0 {
                self.ring[((base + offset as u64) & self.mask) as usize].reserve_exact(count);
            }
        }
        self.coarse -= bucket.events.len();
        self.ringed += bucket.events.len();
        for (ev, offset) in bucket.events.into_iter().zip(bucket.offsets) {
            let at = base + u64::from(offset);
            debug_assert!(at - self.cursor <= self.mask, "one tick per slot");
            self.ring[(at & self.mask) as usize].push_back(ev);
        }
    }

    /// Moves every far run the coarse horizon now covers into its bucket:
    /// whole, in tick order, into a bucket no push has reached yet.
    fn migrate_far(&mut self) {
        let horizon = self.next_block + self.buckets.len() as u64;
        while let Some(first) = self.far.first_entry() {
            if *first.key() >> self.block_bits >= horizon {
                break;
            }
            let (at, run) = first.remove_entry();
            debug_assert!(
                self.last_coarse_offset(at)
                    .is_none_or(|o| u64::from(o) < at & ((1 << self.block_bits) - 1)),
                "a far run enters a bucket holding only earlier far runs"
            );
            self.parked -= run.len();
            for ev in run {
                self.append(at, ev);
            }
        }
    }

    /// The offset of the last event in `at`'s bucket, if it has one.
    fn last_coarse_offset(&self, at: SimTime) -> Option<u8> {
        let bucket = &self.buckets[((at >> self.block_bits) & self.bucket_mask) as usize];
        bucket.offsets.last().copied()
    }

    /// Doubles the bucket ring: every bucket keeps its block and moves to
    /// that block's index in the wider ring, then the far runs the wider
    /// horizon covers follow.
    fn double_buckets(&mut self) {
        let blocks = self.buckets.len() as u64;
        let mask = 2 * blocks - 1;
        let mut wider: Vec<Bucket<T>> = (0..2 * blocks).map(|_| Bucket::default()).collect();
        for b in self.next_block..self.next_block + blocks {
            wider[(b & mask) as usize] =
                std::mem::take(&mut self.buckets[(b & self.bucket_mask) as usize]);
        }
        self.buckets = wider;
        self.bucket_mask = mask;
        self.migrate_far();
    }

    /// The earliest coarse tick: the least offset in the first nonempty
    /// bucket. Needs `coarse > 0`.
    fn first_coarse(&self) -> SimTime {
        let mut block = self.next_block;
        loop {
            let bucket = &self.buckets[(block & self.bucket_mask) as usize];
            if let Some(&least) = bucket.offsets.iter().min() {
                return (block << self.block_bits) + u64::from(least);
            }
            block += 1;
        }
    }

    /// Moves the cursor to the earliest queued tick if that tick is
    /// `<= deadline` and returns it; its whole run is then in its slot.
    ///
    /// Returns `None` when the queue is empty or the earliest tick lies
    /// beyond the deadline. The cursor only moves to a tick that is
    /// popped: a deadline miss must leave every time >= the last popped
    /// event legal for future pushes.
    fn seek_front(&mut self, deadline: SimTime) -> Option<SimTime> {
        let t = if self.ringed > 0 {
            // scan unit slots from the cursor; bounded by the window width
            // because the slots hold at least one event
            let mut t = self.cursor;
            while self.ring[(t & self.mask) as usize].is_empty() {
                t += 1;
                debug_assert!(
                    t - self.cursor < self.span(),
                    "ringed > 0 guarantees a hit within one window"
                );
            }
            t
        } else if self.coarse > 0 {
            // the window is empty: jump to the earliest coarse tick
            self.first_coarse()
        } else {
            *self.far.first_key_value()?.0
        };
        if t > deadline {
            return None;
        }
        if t != self.cursor {
            self.cursor = t;
            self.advance();
        }
        debug_assert!(
            !self.ring[(t & self.mask) as usize].is_empty(),
            "the front tick's block is distributed"
        );
        Some(t)
    }

    /// Pops the earliest event if its time is `<= deadline`.
    ///
    /// Returns `None` when the queue is empty or the next event lies
    /// beyond the deadline (the queue is left untouched in both cases,
    /// though the internal scan cursor may advance up to the earliest
    /// event time).
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let t = self.seek_front(deadline)?;
        let run = &mut self.ring[(t & self.mask) as usize];
        let ev = run.pop_front()?;
        if run.is_empty() {
            // give the drained run's buffer back: a kept one pins every
            // slot at the largest tick it ever held
            *run = VecDeque::new();
        }
        self.ringed -= 1;
        Some((t, ev))
    }

    /// Pops the earliest event unconditionally.
    pub fn pop_next(&mut self) -> Option<(SimTime, T)> {
        self.pop_next_until(SimTime::MAX)
    }

    /// Pops every event of the earliest tick if that tick is
    /// `<= deadline`: the tick and its run, in push order — what that
    /// many [`pop_next_until`](Self::pop_next_until) calls would return.
    ///
    /// The slot is left holding no buffer. A push at the same tick while
    /// the run is out starts the tick's next run, behind the whole of this
    /// one; `None` under the same conditions as `pop_next_until`.
    pub fn pop_run_until(&mut self, deadline: SimTime) -> Option<(SimTime, VecDeque<T>)> {
        let t = self.seek_front(deadline)?;
        let run = std::mem::take(&mut self.ring[(t & self.mask) as usize]);
        self.ringed -= run.len();
        Some((t, run))
    }
}

/// Reference queue: a `BTreeMap` keyed by `(time, sequence)`.
#[derive(Debug)]
pub struct BTreeQueue<T> {
    map: BTreeMap<(SimTime, u64), T>,
    seq: u64,
}

impl<T> Default for BTreeQueue<T> {
    fn default() -> Self {
        BTreeQueue {
            map: BTreeMap::new(),
            seq: 0,
        }
    }
}

impl<T> BTreeQueue<T> {
    /// Total queued events.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Schedules `ev` at `at` (FIFO among equal timestamps).
    pub fn push(&mut self, at: SimTime, ev: T) {
        self.map.insert((at, self.seq), ev);
        self.seq += 1;
    }

    /// Pops the earliest event if its time is `<= deadline`.
    pub fn pop_next_until(&mut self, deadline: SimTime) -> Option<(SimTime, T)> {
        let first = self.map.first_entry()?;
        if first.key().0 > deadline {
            return None;
        }
        let ((t, _), ev) = first.remove_entry();
        Some((t, ev))
    }

    /// Pops the earliest event unconditionally.
    pub fn pop_next(&mut self) -> Option<(SimTime, T)> {
        self.pop_next_until(SimTime::MAX)
    }

    /// Pops every event of the earliest tick if that tick is
    /// `<= deadline`, in push order.
    pub fn pop_run_until(&mut self, deadline: SimTime) -> Option<(SimTime, VecDeque<T>)> {
        let (&(t, _), _) = self.map.first_key_value()?;
        if t > deadline {
            return None;
        }
        let mut run = VecDeque::new();
        while let Some(first) = self.map.first_entry() {
            if first.key().0 != t {
                break;
            }
            run.push_back(first.remove());
        }
        Some((t, run))
    }
}

/// Runtime-selected queue implementation used by `Sim`.
#[derive(Debug)]
pub(crate) enum EventQueue<T> {
    Calendar(CalendarQueue<T>),
    BTree(BTreeQueue<T>),
}

impl<T> EventQueue<T> {
    pub(crate) fn new(kind: QueueKind) -> Self {
        match kind {
            QueueKind::Calendar => EventQueue::Calendar(CalendarQueue::default()),
            QueueKind::BTree => EventQueue::BTree(BTreeQueue::default()),
        }
    }

    pub(crate) fn push(&mut self, at: SimTime, ev: T) {
        match self {
            EventQueue::Calendar(q) => q.push(at, ev),
            EventQueue::BTree(q) => q.push(at, ev),
        }
    }

    pub(crate) fn pop_run_until(&mut self, deadline: SimTime) -> Option<(SimTime, VecDeque<T>)> {
        match self {
            EventQueue::Calendar(q) => q.pop_run_until(deadline),
            EventQueue::BTree(q) => q.pop_run_until(deadline),
        }
    }

    /// Queue entries held (not deliveries: a fan or fan-in is one entry).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        match self {
            EventQueue::Calendar(q) => q.len(),
            EventQueue::BTree(q) => q.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn fifo_within_a_timestamp() {
        let mut q = CalendarQueue::default();
        q.push(5, "a");
        q.push(5, "b");
        q.push(3, "c");
        q.push(5, "d");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, vec![(3, "c"), (5, "a"), (5, "b"), (5, "d")]);
    }

    #[test]
    fn deadline_leaves_later_events_queued() {
        let mut q = CalendarQueue::default();
        q.push(10, 1u32);
        q.push(20, 2);
        assert_eq!(q.pop_next_until(15), Some((10, 1)));
        assert_eq!(q.pop_next_until(15), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_next_until(25), Some((20, 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_overflow_and_come_back() {
        let mut q = CalendarQueue::with_span(4);
        q.push(2, "near");
        q.push(1_000_000, "far");
        q.push(500, "mid");
        assert_eq!(q.pop_next(), Some((2, "near")));
        assert_eq!(q.pop_next(), Some((500, "mid")));
        assert_eq!(q.pop_next(), Some((1_000_000, "far")));
        assert_eq!(q.pop_next(), None);
    }

    /// Far pressure widens the coarse tier, never the unit window: more far
    /// events than buckets doubles the bucket ring until its horizon takes
    /// them in.
    #[test]
    fn far_pressure_doubles_the_bucket_ring() {
        let mut q = CalendarQueue::with_span(2);
        for i in 0..64u64 {
            q.push(10 + i * 7, i);
        }
        assert!(
            q.buckets.len() > 1,
            "far pressure must widen the bucket ring"
        );
        assert_eq!(q.span(), 2, "the unit window never grows");
        assert!(q.parked <= q.buckets.len(), "the horizon took the pressure");
        for i in 0..64u64 {
            assert_eq!(q.pop_next(), Some((10 + i * 7, i)));
        }
        assert_eq!(q.pop_next(), None);
    }

    /// Regression: a bucket drained by `pop_next_until` kept its buffer, so
    /// after one lap of the window every bucket held the largest tick it
    /// had ever seen (735 MiB vs the btree queue's 97 on `overload-ramp`
    /// at n = 262,144). A drained slot gives its buffer back, and so does
    /// a coarse bucket once its block is distributed: after a far-heavy
    /// burst that doubled the bucket ring, no bucket and no slot holds
    /// any event storage.
    #[test]
    fn drained_buckets_give_their_buffers_back() {
        let mut q = CalendarQueue::default();
        for t in 0..2 * UNIT_SPAN {
            for i in 0..300u32 {
                q.push(t, i);
            }
            let burst: Vec<u32> = std::iter::from_fn(|| q.pop_next_until(t))
                .map(|(_, i)| i)
                .collect();
            assert_eq!(burst, (0..300).collect::<Vec<_>>(), "tick {t}");
        }
        assert!(q.is_empty());
        let held: usize = q.ring.iter().map(VecDeque::capacity).sum();
        assert_eq!(held, 0, "an empty queue holds no event storage");

        // every tick sends eight events 2,000–10,000 ticks ahead, past the
        // coarse horizon the queue starts with, so the bucket ring doubles
        // and far runs keep moving into buckets as blocks are distributed
        let start = q.cursor;
        for t in start..start + 4 * UNIT_SPAN {
            q.push(t, 8);
            for i in 0..8u32 {
                q.push(t + 2_000 + (u64::from(i) * 977 + t * 31) % 8_000, i);
            }
            while q.pop_next_until(t).is_some() {}
        }
        while q.pop_next().is_some() {}
        assert!(q.is_empty());
        assert!(
            q.buckets.len() > UNIT_SPAN as usize / 64,
            "the burst doubled the ring"
        );
        for (b, bucket) in q.buckets.iter().enumerate() {
            let held = (bucket.events.capacity(), bucket.offsets.capacity());
            assert_eq!(held, (0, 0), "distributed bucket {b} holds no buffer");
        }
        let held: usize = q.ring.iter().map(VecDeque::capacity).sum();
        assert_eq!(held, 0, "drained slots hold no buffer");
    }

    #[test]
    fn interleaved_pushes_at_a_migrated_timestamp_stay_fifo() {
        // regression for the far/slot FIFO race: an event parked in the
        // far map for time T must still pop before a later push at T.
        // With span 2 (2-tick blocks, one bucket) and cursor 0, t=5 parks
        // in the far map; popping t=2 advances the cursor to 2, which moves
        // the horizon over block 2 — the parked event enters its bucket
        // before the next push at t=5 can append there.
        let mut q = CalendarQueue::with_span(2);
        q.push(5, "early-seq"); // past the coarse horizon: far map
        q.push(2, "near");
        assert_eq!(q.parked, 1);
        assert_eq!(q.pop_next(), Some((2, "near"))); // cursor -> 2
        q.push(5, "late-seq"); // a bucket push behind its far twin
        assert_eq!(q.pop_next(), Some((5, "early-seq")));
        assert_eq!(q.pop_next(), Some((5, "late-seq")));
    }

    /// Satellite regression (PR 8): `migrate_due`'s horizon used to be
    /// `cursor.saturating_add(span)`, which pins at `u64::MAX` — an event
    /// scheduled *at* `u64::MAX` then never satisfied the strict `<` and
    /// never migrated out of overflow, so the queue claimed to be
    /// nonempty while `pop_next_until(u64::MAX)` found nothing bucketed
    /// and ran its scan cursor off the end of time. Both `QueueKind`s
    /// must drain events at the saturation boundary.
    #[test]
    fn events_at_the_end_of_time_still_pop() {
        let mut cal = CalendarQueue::default();
        let mut bt = BTreeQueue::default();
        for q in [
            &mut cal as &mut dyn FnPush,
            &mut bt as &mut dyn FnPush, // both kinds, same sequence
        ] {
            q.do_push(3, 0);
            q.do_push(u64::MAX - 1, 1);
            q.do_push(u64::MAX, 2);
            q.do_push(u64::MAX, 3); // FIFO twin at the last representable tick
        }
        for q in [&mut cal as &mut dyn FnPush, &mut bt as &mut dyn FnPush] {
            assert_eq!(q.do_pop(u64::MAX), Some((3, 0)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX - 1, 1)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX, 2)));
            assert_eq!(q.do_pop(u64::MAX), Some((u64::MAX, 3)));
            assert_eq!(q.do_pop(u64::MAX), None);
        }
    }

    /// Object-safe push/pop facade so the boundary tests can drive both
    /// queue kinds through one code path (mirrors `EventQueue`'s match).
    trait FnPush {
        fn do_push(&mut self, at: SimTime, v: u32);
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)>;
    }
    impl FnPush for CalendarQueue<u32> {
        fn do_push(&mut self, at: SimTime, v: u32) {
            self.push(at, v);
        }
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
            self.pop_next_until(deadline)
        }
    }
    impl FnPush for BTreeQueue<u32> {
        fn do_push(&mut self, at: SimTime, v: u32) {
            self.push(at, v);
        }
        fn do_pop(&mut self, deadline: SimTime) -> Option<(SimTime, u32)> {
            self.pop_next_until(deadline)
        }
    }

    /// A deadline below the far event must leave it queued — and the
    /// cursor parked — even when the event sits at `u64::MAX`.
    #[test]
    fn deadline_below_the_boundary_leaves_the_last_event_queued() {
        let mut q = CalendarQueue::with_span(4);
        q.push(u64::MAX, "omega");
        assert_eq!(q.pop_next_until(u64::MAX - 1), None);
        assert_eq!(q.len(), 1, "the boundary event must not be lost");
        assert_eq!(q.pop_next_until(u64::MAX), Some((u64::MAX, "omega")));
        assert!(q.is_empty());
    }

    /// Pushing at `u64::MAX` once the cursor itself sits at `u64::MAX`
    /// takes the bucket path (distance 0 < span); the overflow twin
    /// parked earlier must still pop first (FIFO by sequence).
    #[test]
    fn push_at_a_saturated_cursor_keeps_fifo_with_parked_twins() {
        let mut q = CalendarQueue::with_span(4);
        q.push(u64::MAX, "first");
        q.push(10, "near");
        assert_eq!(q.pop_next(), Some((10, "near")));
        // cursor advances to u64::MAX on the next pop's overflow jump;
        // push another twin before that pop to exercise push-side
        // migration at the pinned horizon
        q.push(u64::MAX, "second");
        assert_eq!(q.pop_next(), Some((u64::MAX, "first")));
        assert_eq!(q.pop_next(), Some((u64::MAX, "second")));
        assert_eq!(q.pop_next(), None);
    }

    /// Bucket-ring doubling with the cursor near the top of the time
    /// domain: the coarse horizon passes the last block, and everything —
    /// including events at `u64::MAX` — must land in buckets and slots,
    /// not bounce back into the far map forever.
    #[test]
    fn bucket_growth_at_the_boundary_rehomes_everything() {
        let mut q = CalendarQueue::with_span(2);
        let base = u64::MAX - 64;
        q.push(base, 0u64);
        assert_eq!(q.pop_next(), Some((base, 0)), "advance cursor near MAX");
        // flood the far map to force doubling while cursor ~ MAX
        for i in 1..=64u64 {
            q.push(base + i, i);
        }
        assert!(
            q.buckets.len() > 1,
            "far pressure must widen the bucket ring"
        );
        for i in 1..=64u64 {
            assert_eq!(q.pop_next(), Some((base + i, i)));
        }
        assert_eq!(q.pop_next(), None);
    }

    /// Pushes one event, numbered by the oracle's push counter, into the
    /// queue under test and the oracle.
    fn push_both(cal: &mut CalendarQueue<u64>, oracle: &mut BTreeQueue<u64>, at: SimTime) {
        let nth = oracle.seq;
        cal.push(at, nth);
        oracle.push(at, nth);
    }

    /// Doubling moves buckets by block arithmetic, not by sorting stamped
    /// events: with the cursor at tick 5 the coarse blocks 3 and 4 sit in
    /// buckets 1 and 0, straddling the ring's seam, so they land in
    /// different halves of the wider ring, and the far runs the wider
    /// horizon now covers must come in with them.
    #[test]
    fn growth_rehomes_runs_across_the_ring_seam() {
        // window 8, blocks of 4 ticks, two buckets
        let mut cal = CalendarQueue::with_span(8);
        let mut oracle = BTreeQueue::default();
        push_both(&mut cal, &mut oracle, 5);
        assert_eq!(cal.pop_next(), oracle.pop_next()); // cursor 5
        assert_eq!(cal.next_block, 3, "slots [5, 12), buckets [12, 20)");
        for at in [6, 7, 7, 8, 9, 9, 11, 12, 19, 13, 16, 12, 30, 21] {
            push_both(&mut cal, &mut oracle, at); // 2 far: not yet pressure
        }
        let tiers = |q: &CalendarQueue<u64>| (q.buckets.len(), q.ringed, q.coarse, q.parked);
        assert_eq!(tiers(&cal), (2, 7, 5, 2));
        push_both(&mut cal, &mut oracle, 22);
        // horizon 28: the events at 21 and 22 came in, 30 stays far
        assert_eq!(tiers(&cal), (4, 7, 7, 1));
        for at in [12, 21, 9, 30] {
            push_both(&mut cal, &mut oracle, at);
        }
        while let Some(expected) = oracle.pop_next() {
            assert_eq!(cal.pop_next(), Some(expected));
        }
        assert_eq!(cal.pop_next(), None);
    }

    #[test]
    fn a_far_run_migrates_whole_and_later_pushes_queue_behind_it() {
        // window 4, blocks of 2 ticks, two buckets: slots [0, 4), buckets
        // [4, 8), the far map beyond
        let mut q = CalendarQueue::with_span(4);
        for name in ["a", "b"] {
            q.push(9, name); // one far run of two
        }
        q.push(3, "near");
        q.push(7, "edge");
        let tiers = |q: &CalendarQueue<_>| (q.ringed, q.coarse, q.parked);
        assert_eq!(tiers(&q), (1, 1, 2));
        assert_eq!(q.pop_next(), Some((3, "near")));
        // cursor 3: block 2 is distributed and the horizon passes tick 9,
        // whose run enters its bucket in one move
        assert_eq!(tiers(&q), (0, 3, 0));
        q.push(9, "c"); // behind the run, in the same bucket
                        // the slots are empty, so the cursor jumps to 7 and both blocks
                        // are distributed
        assert_eq!(q.pop_next(), Some((7, "edge")));
        assert_eq!(tiers(&q), (3, 0, 0));
        q.push(9, "d");
        q.push(9, "e");
        let order: Vec<_> = std::iter::from_fn(|| q.pop_next()).collect();
        assert_eq!(order, [(9, "a"), (9, "b"), (9, "c"), (9, "d"), (9, "e")]);
    }

    /// Pops one run off a queue as `Sim` does, as `(tick, entries)`.
    fn take_run<T>(q: &mut CalendarQueue<T>, deadline: SimTime) -> Option<(SimTime, Vec<T>)> {
        q.pop_run_until(deadline)
            .map(|(t, run)| (t, Vec::from(run)))
    }

    #[test]
    fn a_run_holds_exactly_its_ticks_entries_in_push_order() {
        let mut q = CalendarQueue::with_span(4);
        for name in ["a", "b", "c"] {
            q.push(2, name);
        }
        q.push(3, "next tick");
        q.push(2, "d");
        assert_eq!(take_run(&mut q, 1), None, "nothing is due by tick 1");
        assert_eq!(take_run(&mut q, 3), Some((2, vec!["a", "b", "c", "d"])));
        assert_eq!(q.len(), 1, "the run is off the queue");
        assert_eq!(take_run(&mut q, 2), None, "tick 3 is past the deadline");
        assert_eq!(take_run(&mut q, 3), Some((3, vec!["next tick"])));
        assert_eq!(take_run(&mut q, SimTime::MAX), None);
        assert!(q.is_empty());
    }

    /// A far run is taken whole once due, and a deadline that stops short
    /// of its bucket while the slots are empty leaves the cursor where it
    /// was, so an earlier push stays legal.
    #[test]
    fn a_far_run_comes_back_as_one_run_after_a_missed_deadline() {
        let mut q = CalendarQueue::with_span(4);
        for name in ["a", "b", "c"] {
            // past the horizon: the third far push doubles the bucket
            // ring, which takes the run of three into its bucket whole
            q.push(9, name);
        }
        q.push(3, "near");
        assert_eq!(take_run(&mut q, 3), Some((3, vec!["near"])));
        q.push(9, "d"); // a bucket push, behind the run
        assert_eq!((q.ringed, q.coarse), (0, 4), "only the bucket holds events");
        assert_eq!(
            take_run(&mut q, 8),
            None,
            "the bucket's first tick is not due"
        );
        assert_eq!(q.cursor, 3, "a miss does not move the cursor");
        q.push(4, "late");
        assert_eq!(take_run(&mut q, 8), Some((4, vec!["late"])));
        assert_eq!(take_run(&mut q, 9), Some((9, vec!["a", "b", "c", "d"])));
        assert!(q.is_empty());
    }

    /// The bucket ring may double while a run is out (a handler's far
    /// sends overflow the far map): the unit slots do not move, and a
    /// same-tick send made after the growth still comes back as the tick's
    /// next run.
    #[test]
    fn a_run_out_while_the_bucket_ring_grows_keeps_its_tick() {
        let mut q = CalendarQueue::with_span(2);
        q.push(5, "a");
        q.push(5, "b");
        let (t, run) = take_run(&mut q, 5).expect("tick 5 is due");
        let before = q.buckets.len();
        for (i, at) in [10, 20, 30].into_iter().enumerate() {
            q.push(at, run[i % 2]); // the third far push doubles the ring
        }
        assert!(
            q.buckets.len() > before,
            "far pressure must widen the bucket ring"
        );
        q.push(t, "c");
        assert_eq!(take_run(&mut q, 5), Some((5, vec!["c"])));
        let rest: Vec<_> = std::iter::from_fn(|| take_run(&mut q, SimTime::MAX)).collect();
        assert_eq!(rest, [(10, vec!["a"]), (20, vec!["b"]), (30, vec!["a"])]);
    }

    /// `drained_buckets_give_their_buffers_back` on the run path: the
    /// taken buffer leaves with the run, so the slot holds none even when
    /// a same-tick send refills it while the run is out.
    #[test]
    fn taken_runs_leave_no_buffer_behind() {
        let mut q = CalendarQueue::default();
        for t in 0..2 * UNIT_SPAN {
            for i in 0..300u32 {
                q.push(t, i);
            }
            let (at, run) = take_run(&mut q, t).expect("tick t is due");
            assert_eq!((at, run), (t, (0..300).collect()), "tick {t}");
            q.push(t, 300);
            assert_eq!(take_run(&mut q, t), Some((t, vec![300])));
        }
        assert!(q.is_empty());
        let held: usize = q.ring.iter().map(VecDeque::capacity).sum();
        assert_eq!(held, 0, "an empty queue holds no event storage");
    }

    /// Pops the calendar queue once — one event, or with `by_runs` one
    /// run — checks what it got against the oracle's per-event pops, and
    /// returns the tick popped at. While a run is out, each of its events
    /// spends three bits of `sends` on what its "handler" pushes: nothing,
    /// a same-tick send (the tick's next run), a near one, or a far one
    /// (which may double the bucket ring under the run). Once `sends` is spent
    /// nothing more is pushed, so a drain always ends.
    fn pop_checked(
        cal: &mut CalendarQueue<u64>,
        oracle: &mut BTreeQueue<u64>,
        deadline: SimTime,
        by_runs: bool,
        sends: &mut u64,
    ) -> Option<SimTime> {
        if !by_runs {
            let popped = cal.pop_next_until(deadline);
            prop_assert_eq!(popped, oracle.pop_next_until(deadline));
            return popped.map(|(t, _)| t);
        }
        let Some((t, run)) = cal.pop_run_until(deadline) else {
            prop_assert_eq!(oracle.pop_next_until(deadline), None, "both miss");
            return None;
        };
        prop_assert!(!run.is_empty(), "a run holds at least one event");
        let mut refills = 0;
        for ev in run {
            prop_assert_eq!(oracle.pop_next_until(deadline), Some((t, ev)));
            let (what, at) = (*sends & 7, *sends >> 3);
            *sends >>= 3;
            let to = match what {
                4 | 5 => t,
                6 => t + at % 16,
                7 => t + 1_000 + at % (1 << 30),
                _ => continue,
            };
            push_both(cal, oracle, to);
            refills += usize::from(to == t);
        }
        let left_at_t = oracle.map.range((t, 0)..=(t, u64::MAX)).count();
        prop_assert_eq!(left_at_t, refills, "the run was all of its tick");
        Some(t)
    }

    /// One proptest case: `ops` applied to a calendar queue of window
    /// width `span` and to the oracle, every pop — per event, or with
    /// `by_runs` per run — compared event by event.
    ///
    /// Kinds 0–5 push near, mid-range and far, drain and pop; 6–9 aim at
    /// the tier boundaries: the edge of the unit slots and of the window,
    /// block boundaries, the coarse tier's inside and just past its
    /// horizon (which forces the bucket ring to double); 10 pops with a
    /// deadline one tick short of the front, which must miss without
    /// moving the cursor; 11 and up push same-tick bursts.
    fn check_against_oracle(ops: &[(u8, u64)], span: u64, by_runs: bool) {
        let mut cal = CalendarQueue::with_span(span);
        let mut oracle = BTreeQueue::default();
        let mut now = 0u64;
        let mut far_used: Vec<u64> = Vec::new();
        for &(kind, x) in ops {
            let mut sends = x.rotate_left(17);
            let mut pop = |cal: &mut _, oracle: &mut _, deadline| {
                pop_checked(cal, oracle, deadline, by_runs, &mut sends)
            };
            let bits = cal.block_bits;
            let slots_end = cal.next_block << bits;
            let horizon = (cal.next_block + cal.buckets.len() as u64) << bits;
            match kind {
                0 => {
                    // near-future push
                    push_both(&mut cal, &mut oracle, now + x % 16);
                }
                1 => {
                    // mid-range push, crosses windows
                    push_both(&mut cal, &mut oracle, now + x % 5000);
                }
                2 => {
                    // far-future push: far map + bucket-ring doubling
                    let at = now + 1_000 + x % (1 << 30);
                    far_used.push(at);
                    push_both(&mut cal, &mut oracle, at);
                }
                3 => {
                    // a far timestamp again (unless time has passed it):
                    // multi-event runs, in any tier
                    let at = match far_used.len() {
                        0 => now + 1_000,
                        len => far_used[x as usize % len].max(now),
                    };
                    push_both(&mut cal, &mut oracle, at);
                }
                4 => {
                    // drain up to a bounded deadline
                    while let Some(t) = pop(&mut cal, &mut oracle, now + x % 64) {
                        now = t;
                    }
                }
                5 => {
                    // single pop
                    if let Some(t) = pop(&mut cal, &mut oracle, SimTime::MAX) {
                        now = t;
                    }
                }
                6 => {
                    // the last slot tick or the first bucket tick, or the
                    // same around the window's own edge
                    let edge = if x & 1 == 0 {
                        slots_end
                    } else {
                        now + cal.span()
                    };
                    push_both(
                        &mut cal,
                        &mut oracle,
                        (edge + (x >> 1) % 3).max(now + 1) - 1,
                    );
                }
                7 => {
                    // either side of a block boundary a few blocks ahead
                    let boundary = ((now >> bits) + 1 + x % 8) << bits;
                    push_both(&mut cal, &mut oracle, boundary - (x >> 3) % 2);
                }
                8 => {
                    // anywhere in the coarse tier
                    let at = slots_end + x % (horizon - slots_end);
                    push_both(&mut cal, &mut oracle, at);
                }
                9 => {
                    // just past the coarse horizon
                    push_both(&mut cal, &mut oracle, horizon + x % (horizon - slots_end));
                }
                10 => {
                    // a deadline one tick short of the front misses and
                    // leaves the cursor alone, whichever tier the front is in
                    if let Some((&(front, _), _)) = oracle.map.first_key_value() {
                        let cursor = cal.cursor;
                        if front > cursor {
                            prop_assert_eq!(pop(&mut cal, &mut oracle, front - 1), None);
                            prop_assert_eq!(cal.cursor, cursor, "a miss moved the cursor");
                        }
                    }
                }
                _ => {
                    // same-tick sends: a burst behind the run being popped
                    for _ in 0..1 + x % 8 {
                        push_both(&mut cal, &mut oracle, now);
                    }
                }
            }
        }
        // full drain must agree event by event
        let mut sends = 0;
        while pop_checked(&mut cal, &mut oracle, SimTime::MAX, by_runs, &mut sends).is_some() {}
        prop_assert!(cal.is_empty() && oracle.is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn calendar_matches_btreemap_oracle(
            ops in prop::collection::vec((0u8..11, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, false);
        }

        /// Popping by runs, with sends made while a run is out, reads the
        /// oracle's per-event pops in order.
        #[test]
        fn calendar_runs_match_btreemap_oracle(
            ops in prop::collection::vec((0u8..11, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, true);
        }

        /// The run check on a mix where every other op is a same-tick
        /// burst (kind 11 and up), so runs are deep and same-tick pushes
        /// keep refilling the slot a run was taken from.
        #[test]
        fn same_tick_pushes_come_back_as_the_next_run(
            ops in prop::collection::vec((0u8..22, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, true);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8192))]

        #[test]
        #[ignore = "release tier: 8,192 cases"]
        fn calendar_matches_btreemap_oracle_at_scale(
            ops in prop::collection::vec((0u8..11, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, false);
        }

        #[test]
        #[ignore = "release tier: 8,192 cases"]
        fn calendar_runs_match_btreemap_oracle_at_scale(
            ops in prop::collection::vec((0u8..11, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, true);
        }
    }
}
