//! Event-queue implementations for the simulator core.
//!
//! The simulator's contract is strict: events execute in ascending time
//! order, and same-timestamp events run in the order they were pushed
//! (FIFO). Two implementations honor it:
//!
//! * [`CalendarQueue`] — the production queue. One FIFO run of bare
//!   events per timestamp, placed by time: a ring of unit-time slots for
//!   the current window (all simulator delays are small integers: hop
//!   latencies), a `BTreeMap` of runs for the timestamps beyond it, and
//!   geometric window growth under far-push pressure. The slot position
//!   is the event's time and the position in the run is its push order,
//!   so nothing is stamped on the event. Push and pop are O(1)
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
//! have put it too — behind everything the taken run still holds. The
//! per-event `pop_next_until` / `pop_next` stay on the two queues as the
//! oracle's view and for callers that want one event at a time. An event
//! here is one queue entry, which for `Sim` may stand for many deliveries
//! (a uniform-cost multicast's fan), so the queue does not know the
//! simulator's queue depth and does not report one: `Sim` counts pending
//! deliveries itself.

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

/// Initial window width (must be a power of two). Typical delays are a
/// handful of ticks, so almost everything lands in the window.
const INITIAL_SPAN: u64 = 1024;

/// Windows stop doubling here; runs beyond this span stay in the far map
/// (bounded memory for pathological far-future schedules).
const MAX_SPAN: u64 = 1 << 22;

/// Calendar queue: one FIFO run per timestamp, in a ring of unit-time
/// slots for the window `[cursor, cursor + span)` and a far map beyond.
///
/// Invariants:
/// * one timestamp per slot: the window is no wider than the ring, so the
///   run in slot `t & mask` holds exactly the events scheduled at window
///   tick `t`, in push order;
/// * a timestamp's events are all in the ring or all in `far`, never
///   split: a far run moves into its (therefore empty) slot whole, before
///   any push or pop that could observe that its tick entered the window,
///   and the cursor never moves backwards, so no later push at that
///   timestamp can go anywhere but behind it;
/// * `cursor` never exceeds the earliest queued event's time.
#[derive(Debug)]
pub struct CalendarQueue<T> {
    /// `ring[t & mask]` is the run of window tick `t`.
    ring: Vec<VecDeque<T>>,
    /// `ring.len() - 1`; the length is a power of two.
    mask: u64,
    /// Scan position: a lower bound on the earliest queued event time.
    cursor: SimTime,
    /// Number of events currently in the ring.
    ringed: usize,
    /// The runs at or beyond `cursor + span`, none empty.
    far: BTreeMap<SimTime, VecDeque<T>>,
    /// Number of events currently in `far`.
    parked: usize,
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        Self::with_span(INITIAL_SPAN)
    }
}

impl<T> CalendarQueue<T> {
    /// A queue with an explicit initial window width (rounded up to a
    /// power of two). Mainly for tests that want to exercise window
    /// growth; production code uses `Default`.
    pub fn with_span(span: u64) -> Self {
        let span = span.next_power_of_two().max(2);
        CalendarQueue {
            ring: (0..span).map(|_| VecDeque::new()).collect(),
            mask: span - 1,
            cursor: 0,
            ringed: 0,
            far: BTreeMap::new(),
            parked: 0,
        }
    }

    fn span(&self) -> u64 {
        self.ring.len() as u64
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.ringed + self.parked
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
        if at.saturating_sub(self.cursor) >= self.span() {
            self.far.entry(at).or_default().push_back(ev);
            self.parked += 1;
            if self.parked > self.ring.len() && self.span() < MAX_SPAN {
                self.grow();
            }
        } else {
            // keep FIFO: a run parked at this timestamp while it lay
            // beyond the window must enter the slot first
            self.migrate_due();
            self.ring[(at & self.mask) as usize].push_back(ev);
            self.ringed += 1;
        }
    }

    /// Moves every far run whose tick the window now covers into its slot.
    ///
    /// The window is `[cursor, cursor + span)`. Near the top of the time
    /// domain `cursor + span` overflows `u64`; a saturating add would pin
    /// the horizon at `u64::MAX` and the strict `<` comparison would then
    /// refuse to migrate a run scheduled *at* `u64::MAX` forever — the
    /// queue would report itself nonempty while the pop scan finds the
    /// ring empty and runs off the end of time. `checked_add`
    /// distinguishes the two cases: `None` means the window already
    /// covers everything up to and including `u64::MAX` (its true size,
    /// `u64::MAX − cursor + 1`, is ≤ span exactly when the add overflows,
    /// so the one-timestamp-per-slot invariant still holds).
    fn migrate_due(&mut self) {
        let horizon = self.cursor.checked_add(self.span());
        while let Some(first) = self.far.first_entry() {
            if horizon.is_some_and(|h| *first.key() >= h) {
                break;
            }
            let (at, run) = first.remove_entry();
            self.parked -= run.len();
            self.ringed += run.len();
            let slot = &mut self.ring[(at & self.mask) as usize];
            debug_assert!(slot.is_empty(), "a timestamp is never split");
            *slot = run;
        }
    }

    /// Doubles the window: every run keeps its tick and moves to that
    /// tick's slot in the wider ring, then the far runs the wider window
    /// covers follow.
    fn grow(&mut self) {
        let new_span = (self.span() * 2).min(MAX_SPAN);
        let new_mask = new_span - 1;
        let mut wider: Vec<VecDeque<T>> = (0..new_span).map(|_| VecDeque::new()).collect();
        for offset in 0..self.span() {
            // the add wraps only for ticks past the end of time, whose
            // slots are empty
            let t = self.cursor.wrapping_add(offset);
            wider[(t & new_mask) as usize] =
                std::mem::take(&mut self.ring[(t & self.mask) as usize]);
        }
        self.ring = wider;
        self.mask = new_mask;
        self.migrate_due();
    }

    /// Moves the cursor to the earliest queued tick if that tick is
    /// `<= deadline` and returns it; its whole run is then in its slot.
    ///
    /// Returns `None` when the queue is empty or the earliest tick lies
    /// beyond the deadline. The cursor only moves to a tick that is
    /// popped: a deadline miss must leave every time >= the last popped
    /// event legal for future pushes.
    fn seek_front(&mut self, deadline: SimTime) -> Option<SimTime> {
        if self.is_empty() {
            return None;
        }
        self.migrate_due();
        if self.ringed == 0 {
            // everything lives beyond the window: jump straight there
            let (&t, _) = self.far.first_key_value().expect("len > 0");
            if t > deadline {
                return None;
            }
            self.cursor = t;
            self.migrate_due();
        }
        // scan unit slots from the cursor; bounded by the window width
        // because the ring holds at least one event
        let mut t = self.cursor;
        loop {
            if !self.ring[(t & self.mask) as usize].is_empty() {
                if t > deadline {
                    return None;
                }
                self.cursor = t;
                return Some(t);
            }
            t += 1;
            debug_assert!(
                t - self.cursor <= self.span(),
                "ringed > 0 guarantees a hit within one window"
            );
        }
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
        let ev = run.pop_front().expect("nonempty run");
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
        let (&(t, _), _) = self.map.iter().next()?;
        if t > deadline {
            return None;
        }
        let ((t, _), ev) = self.map.pop_first().expect("nonempty");
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

    #[test]
    fn overflow_pressure_grows_the_window() {
        let mut q = CalendarQueue::with_span(2);
        for i in 0..64u64 {
            q.push(10 + i * 7, i);
        }
        assert!(q.span() > 2, "overflow pressure must widen the window");
        let mut last = None;
        while let Some((t, _)) = q.pop_next() {
            assert!(last.is_none_or(|l| l <= t));
            last = Some(t);
        }
    }

    /// Regression: a bucket drained by `pop_next_until` kept its buffer, so
    /// after one lap of the window every bucket held the largest tick it
    /// had ever seen (735 MiB vs the btree queue's 97 on `overload-ramp`
    /// at n = 262,144).
    #[test]
    fn drained_buckets_give_their_buffers_back() {
        let mut q = CalendarQueue::default();
        for t in 0..2 * INITIAL_SPAN {
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
    }

    #[test]
    fn interleaved_pushes_at_a_migrated_timestamp_stay_fifo() {
        // regression for the overflow/bucket FIFO race: an event parked in
        // overflow for time T must still pop before a later push at T.
        // With span 4 and cursor 0, t=5 parks in overflow; popping t=2
        // advances the cursor to 2 (window now [2, 6)) WITHOUT migrating
        // the parked event — the next push at t=5 takes the bucket path
        // and must migrate the older overflow twin first.
        let mut q = CalendarQueue::with_span(4);
        q.push(5, "early-seq"); // 5 - 0 >= span: parked in overflow
        q.push(2, "near");
        assert_eq!(q.pop_next(), Some((2, "near"))); // cursor -> 2
        q.push(5, "late-seq"); // 5 - 2 < span: bucket insert at a due time
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

    /// Window growth with the cursor near the top of the time domain:
    /// `grow()`'s re-homing horizon overflows `u64`, and everything —
    /// including events at `u64::MAX` — must land in buckets, not bounce
    /// back into overflow forever.
    #[test]
    fn window_growth_at_the_boundary_rehomes_everything() {
        let mut q = CalendarQueue::with_span(2);
        let base = u64::MAX - 64;
        q.push(base, 0u64);
        assert_eq!(q.pop_next(), Some((base, 0)), "advance cursor near MAX");
        // flood the overflow heap to force grow() while cursor ~ MAX
        for i in 1..=64u64 {
            q.push(base + i, i);
        }
        assert!(q.span() > 2, "overflow pressure must widen the window");
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

    /// Growth moves runs by slot arithmetic, not by sorting stamped
    /// events: with the cursor mid-ring the window straddles slot 0, so
    /// the runs on either side of the seam land in different halves of
    /// the wider ring, and the far run the wider window now covers must
    /// come in with them.
    #[test]
    fn growth_rehomes_runs_across_the_ring_seam() {
        let mut cal = CalendarQueue::with_span(8);
        let mut oracle = BTreeQueue::default();
        push_both(&mut cal, &mut oracle, 5);
        assert_eq!(cal.pop_next(), oracle.pop_next()); // cursor 5: window [5, 13)
        for at in [6, 7, 7, 8, 9, 9, 12, 6, 8] {
            push_both(&mut cal, &mut oracle, at); // slots 6, 7 | 0, 1, 4
        }
        for at in [14, 14, 14, 30, 21, 30, 40, 55] {
            push_both(&mut cal, &mut oracle, at); // 8 parked: one short of growth
        }
        assert_eq!((cal.span(), cal.ringed, cal.parked), (8, 9, 8));
        push_both(&mut cal, &mut oracle, 20);
        // window [5, 21): the run at 14 and the event at 20 came in
        assert_eq!((cal.span(), cal.ringed, cal.parked), (16, 13, 5));
        push_both(&mut cal, &mut oracle, 14);
        push_both(&mut cal, &mut oracle, 9);
        while let Some(expected) = oracle.pop_next() {
            assert_eq!(cal.pop_next(), Some(expected));
        }
        assert_eq!(cal.pop_next(), None);
    }

    #[test]
    fn a_far_run_migrates_whole_and_later_pushes_queue_behind_it() {
        let mut q = CalendarQueue::with_span(4);
        for name in ["a", "b", "c"] {
            q.push(9, name); // 9 - 0 >= span: one far run of three
        }
        q.push(3, "near");
        q.push(7, "edge");
        assert_eq!((q.ringed, q.parked), (1, 4));
        assert_eq!(q.pop_next(), Some((3, "near")));
        // the ring is empty, so the cursor jumps to 7 and the window
        // [7, 11) takes the run at 9 in one move
        assert_eq!(q.pop_next(), Some((7, "edge")));
        assert_eq!((q.ringed, q.parked), (3, 0));
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

    /// A far run is taken whole once due, and a deadline that misses it
    /// leaves the cursor where it was, so an earlier push stays legal.
    #[test]
    fn a_far_run_comes_back_as_one_run_after_a_missed_deadline() {
        let mut q = CalendarQueue::with_span(4);
        for name in ["a", "b", "c"] {
            q.push(9, name); // 9 - 0 >= span: one far run of three
        }
        q.push(3, "near");
        assert_eq!(take_run(&mut q, 3), Some((3, vec!["near"])));
        q.push(9, "d"); // still beyond the window [3, 7): joins the far run
        assert_eq!(take_run(&mut q, 8), None, "the far run is not due");
        assert_eq!(q.cursor, 3, "a miss does not move the cursor");
        q.push(4, "late");
        assert_eq!(take_run(&mut q, 8), Some((4, vec!["late"])));
        assert_eq!(take_run(&mut q, 9), Some((9, vec!["a", "b", "c", "d"])));
        assert!(q.is_empty());
    }

    /// The window may double while a run is out (a handler's far sends
    /// overflow the far map): the taken tick's slot moves with the rest,
    /// and a same-tick send made after the growth still comes back as the
    /// tick's next run.
    #[test]
    fn a_run_out_while_the_window_grows_keeps_its_tick() {
        let mut q = CalendarQueue::with_span(2);
        q.push(5, "a");
        q.push(5, "b");
        let (t, run) = take_run(&mut q, 5).expect("tick 5 is due");
        for (i, at) in [10, 20, 30].into_iter().enumerate() {
            q.push(at, run[i % 2]); // the third far push grows the window
        }
        assert!(q.span() > 2, "far pressure must widen the window");
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
        for t in 0..2 * INITIAL_SPAN {
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
    /// (which may grow the window under the run). Once `sends` is spent
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

    /// One proptest case: `ops` applied to a calendar queue of initial
    /// width `span` and to the oracle, every pop — per event, or with
    /// `by_runs` per run — compared event by event.
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
                    // far-future push: far map + window growth
                    let at = now + 1_000 + x % (1 << 30);
                    far_used.push(at);
                    push_both(&mut cal, &mut oracle, at);
                }
                3 => {
                    // a far timestamp again (unless time has passed it):
                    // multi-event runs, parked or already in the ring
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
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, false);
        }

        /// Popping by runs, with sends made while a run is out, reads the
        /// oracle's per-event pops in order.
        #[test]
        fn calendar_runs_match_btreemap_oracle(
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, true);
        }

        /// The run check on a mix where every other op is a same-tick
        /// burst (kind 6 and up), so runs are deep and same-tick pushes
        /// keep refilling the slot a run was taken from.
        #[test]
        fn same_tick_pushes_come_back_as_the_next_run(
            ops in prop::collection::vec((0u8..12, any::<u64>()), 1..200),
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
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, false);
        }

        #[test]
        #[ignore = "release tier: 8,192 cases"]
        fn calendar_runs_match_btreemap_oracle_at_scale(
            ops in prop::collection::vec((0u8..6, any::<u64>()), 1..200),
            span in 1u64..64,
        ) {
            check_against_oracle(&ops, span, true);
        }
    }
}
