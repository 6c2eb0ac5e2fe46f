//! The closed-loop client pool.
//!
//! Open-loop arrivals (the historical mode) issue every offered operation
//! the tick it arrives, so overload only ever shows up as unresolved
//! counters. A [`ClientPool`] turns the same offered-arrival schedule into
//! a latency instrument: offered operations wait in a FIFO dispatch queue
//! until one of `clients` slots is free, each slot runs one operation at a
//! time (with an optional retry budget and exponential backoff on
//! unresolved verdicts), and thinks for a spec-drawn pause before taking
//! the next operation. Queueing delay (offer → dispatch) is therefore the
//! direct image of saturation: past the knee where offered rate exceeds
//! `clients / (service + think)`, the queue — and its delay percentiles —
//! grow without bound.
//!
//! # Determinism contract
//!
//! The pool decides *when* a closed-loop run draws, whatever runtime
//! executes it: the dispatched operation's client node and port and the
//! think pause are asked of the runner's [`Draws`] inside
//! [`ClientPool::service`], in slot-index order at canonical virtual
//! times, so every runtime consumes the spec's RNG in exactly the same
//! order — the contract [`crate::timeline`] states. Actually issuing a
//! locate, and settling and recording its verdict, hides behind
//! [`OpDriver`] (the runner's one settlement path; the pool only decides
//! what a verdict means for the slot: retry, or finish and think); the
//! simulator reports the engine's real issue→verdict elapsed, the thread
//! network the uniform-cost model's deterministic elapsed, and on
//! churn-free scenarios the two are provably identical — which is what
//! lets `tests/live_workload_equivalence.rs` assert byte-equal latency
//! percentiles across the runtimes.

use crate::report::{LocateRecord, LocateVerdict};
use crate::spec::ClientModel;
use crate::timeline::Draws;
use mm_proto::LocateHandle;
use mm_sim::SimTime;
use mm_topo::NodeId;
use std::collections::VecDeque;

/// One locate attempt in flight: the facts fixed at dispatch. They ride
/// with whoever waits for the verdict — an open-loop in-flight entry or a
/// pool slot — back to the runner's settlement path.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LocateOp {
    pub handle: LocateHandle,
    pub port_idx: usize,
    /// Spec-relative tick the attempt was issued.
    pub issued: SimTime,
    /// Causal-trace id allocated at dispatch; `None` when tracing is off
    /// or the attempt is an untraced stale-recovery retry.
    pub trace: Option<u64>,
    /// Position in the deterministic arrival sequence the verdict is
    /// logged under. `None` for attempts that are not logged themselves:
    /// stale-recovery retries (timing-dependent, so excluded from the
    /// cross-runtime operation log) and pool attempts (the pool logs an
    /// operation once, with its final verdict).
    pub arrival: Option<u64>,
}

/// How the pool gets a single locate executed.
///
/// `issue` starts the operation at virtual time `now` and returns the
/// attempt plus an optional wake-up hint (the virtual time its verdict is
/// known to be ready; `None` = ask again every tick until it is). `poll`
/// reports the verdict once it is final — address and the exact virtual
/// tick it landed (≤ `now`) — and the pool uses that tick, not the
/// discovery tick, for latency accounting, so the tick a slot asks on
/// cannot skew percentiles. Asking about an attempt that is not final
/// reads nothing: the driver knows which attempts its runtime has
/// reported. Each attempt's verdict is reported exactly once; counting
/// and tracing it is the driver's business.
pub(crate) trait OpDriver {
    /// Starts a locate from `client` for port `port_idx` at virtual `now`.
    fn issue(
        &mut self,
        now: SimTime,
        client: NodeId,
        port_idx: usize,
    ) -> (LocateOp, Option<SimTime>);
    /// The verdict, once decided by virtual time `now`.
    fn poll(
        &mut self,
        op: &LocateOp,
        now: SimTime,
    ) -> Option<(LocateVerdict, Option<NodeId>, SimTime)>;
}

/// One offered operation's life, from offer to (maybe) final verdict.
/// The closed-loop report sections are built from these after the run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ClientOpRecord {
    /// Offered-arrival index (position in the spec's timeline).
    pub arrival: u64,
    /// Tick the timeline offered the operation.
    pub offered_at: SimTime,
    /// Tick a client slot picked it up (`None` = never dispatched —
    /// abandoned in the queue when the horizon arrived).
    pub dispatched_at: Option<SimTime>,
    /// Tick of the final verdict.
    pub completed_at: Option<SimTime>,
    /// Locate attempts issued (1 + retries).
    pub attempts: u32,
    /// Final verdict.
    pub verdict: Option<LocateVerdict>,
    /// Located address for hits.
    pub addr: Option<NodeId>,
    /// The node the operation was issued from (drawn at dispatch).
    pub client: Option<NodeId>,
    /// The port requested (drawn at dispatch).
    pub port_idx: Option<usize>,
}

impl ClientOpRecord {
    /// The operation's op-log entry, once it has its final verdict: keyed
    /// like the open-loop log, by arrival index and offered tick.
    pub(crate) fn logged(&self) -> Option<LocateRecord> {
        Some(LocateRecord {
            arrival: self.arrival,
            at: self.offered_at,
            client: self.client?,
            port_idx: self.port_idx?,
            verdict: self.verdict?,
            addr: self.addr,
        })
    }
}

/// A client slot's state machine.
#[derive(Debug)]
enum Slot {
    /// Ready for the next queued operation.
    Free,
    /// An attempt is in flight; `wake` is the next tick worth polling.
    Busy {
        rec: usize,
        op: LocateOp,
        wake: SimTime,
        attempts: u32,
    },
    /// The last attempt was unresolved; retry fires at `resume_at`, from
    /// the same client for the same port.
    Backoff {
        rec: usize,
        client: NodeId,
        port_idx: usize,
        resume_at: SimTime,
        attempts: u32,
        /// When the unresolved verdict landed (final-verdict tick if the
        /// budget runs out before the retry fires).
        last_done: SimTime,
    },
    /// Thinking after a final verdict; free again at `until`.
    Thinking { until: SimTime },
}

/// The pool itself. The runner owns one per closed-loop run and drives it
/// with [`offer`](ClientPool::offer) / [`service`](ClientPool::service) /
/// [`next_wakeup`](ClientPool::next_wakeup) from its event loop.
#[derive(Debug)]
pub(crate) struct ClientPool {
    model: ClientModel,
    slots: Vec<Slot>,
    /// FIFO of offered-but-undispatched operations (indices into
    /// `records`).
    queue: VecDeque<usize>,
    records: Vec<ClientOpRecord>,
    /// Past the horizon: no new dispatches or retries, drain only.
    frozen: bool,
}

impl ClientPool {
    pub(crate) fn new(model: ClientModel) -> Self {
        let slots = (0..model.clients).map(|_| Slot::Free).collect();
        ClientPool {
            model,
            slots,
            queue: VecDeque::new(),
            records: Vec::new(),
            frozen: false,
        }
    }

    /// Accepts one offered arrival from the timeline.
    pub(crate) fn offer(&mut self, now: SimTime, arrival: u64) {
        debug_assert!(!self.frozen, "no offers past the horizon");
        let rec = self.records.len();
        self.records.push(ClientOpRecord {
            arrival,
            offered_at: now,
            dispatched_at: None,
            completed_at: None,
            attempts: 0,
            verdict: None,
            addr: None,
            client: None,
            port_idx: None,
        });
        self.queue.push_back(rec);
    }

    /// The earliest virtual time any slot needs attention, if any.
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        self.slots
            .iter()
            .filter_map(|s| match *s {
                Slot::Free => None,
                Slot::Busy { wake, .. } => Some(wake),
                // once frozen, a pending retry will never fire: the slot
                // is due *immediately* (at its last verdict tick, already
                // in the past) so the drain loop settles it instead of
                // waiting out — or silently skipping — a backoff that may
                // extend past the drain window
                Slot::Backoff {
                    resume_at,
                    last_done,
                    ..
                } => Some(if self.frozen { last_done } else { resume_at }),
                Slot::Thinking { until } => {
                    if self.frozen {
                        None
                    } else {
                        Some(until)
                    }
                }
            })
            .min()
    }

    /// Processes everything due at virtual time `now`, to a fixpoint:
    /// reads verdicts, schedules retries, starts think pauses, frees
    /// thinking slots, and dispatches queued operations onto free slots.
    /// All draws happen here, in slot-index order then queue order — the
    /// canonical order every runtime shares.
    pub(crate) fn service<D: OpDriver>(&mut self, now: SimTime, driver: &mut D, draws: &mut Draws) {
        loop {
            let mut progress = false;

            // 1. verdicts + retries + backoff resumes, slot-index order
            for si in 0..self.slots.len() {
                match self.slots[si] {
                    Slot::Busy {
                        rec,
                        op,
                        wake,
                        attempts,
                    } if wake <= now => {
                        match driver.poll(&op, now) {
                            Some((verdict, addr, done_at)) => {
                                progress = true;
                                // Byzantine classifications are final: the
                                // retry budget is for unanswered queries,
                                // not for answers the client has (or
                                // hasn't) seen through
                                let retry = verdict == LocateVerdict::Unresolved
                                    && attempts <= self.model.retry_budget
                                    && !self.frozen;
                                if retry {
                                    // double per retry round, saturating —
                                    // and a wake-up past the end of time
                                    // stays there instead of wrapping
                                    let shift = (attempts - 1).min(16);
                                    let delay = self.model.retry_backoff.saturating_mul(1 << shift);
                                    self.slots[si] = Slot::Backoff {
                                        rec,
                                        client: op.handle.client,
                                        port_idx: op.port_idx,
                                        resume_at: done_at.saturating_add(delay),
                                        attempts,
                                        last_done: done_at,
                                    };
                                } else {
                                    self.finish(rec, verdict, addr, done_at);
                                    let until =
                                        done_at.saturating_add(draws.think(self.model.think));
                                    self.slots[si] = Slot::Thinking { until };
                                }
                            }
                            None => {
                                self.slots[si] = Slot::Busy {
                                    rec,
                                    op,
                                    wake: now + 1,
                                    attempts,
                                };
                            }
                        }
                    }
                    Slot::Backoff {
                        rec,
                        client,
                        port_idx,
                        resume_at,
                        attempts,
                        last_done,
                    } if resume_at <= now || self.frozen => {
                        progress = true;
                        if self.frozen {
                            // the horizon arrived before the retry fired:
                            // the operation ends on its last verdict
                            self.finish(rec, LocateVerdict::Unresolved, None, last_done);
                            self.slots[si] = Slot::Free;
                        } else {
                            self.records[rec].attempts += 1;
                            let (op, hint) = driver.issue(now, client, port_idx);
                            self.slots[si] = Slot::Busy {
                                rec,
                                op,
                                wake: hint.unwrap_or(now),
                                attempts: attempts + 1,
                            };
                        }
                    }
                    _ => {}
                }
            }

            // 2. think pauses ending at or before now
            for slot in &mut self.slots {
                if let Slot::Thinking { until } = *slot {
                    if until <= now {
                        *slot = Slot::Free;
                        progress = true;
                    }
                }
            }

            // 3. dispatch queued operations onto free slots, FIFO
            if !self.frozen {
                while let Some(&rec) = self.queue.front() {
                    let Some(si) = self.slots.iter().position(|s| matches!(s, Slot::Free)) else {
                        break;
                    };
                    // total outage: nobody can issue; the queue waits for
                    // a restore (the RNG is *not* consumed)
                    let Some((client, port_idx)) = draws.arrival() else {
                        break;
                    };
                    self.queue.pop_front();
                    let r = &mut self.records[rec];
                    r.dispatched_at = Some(now);
                    r.client = Some(client);
                    r.port_idx = Some(port_idx);
                    r.attempts = 1;
                    let (op, hint) = driver.issue(now, client, port_idx);
                    self.slots[si] = Slot::Busy {
                        rec,
                        op,
                        wake: hint.unwrap_or(now),
                        attempts: 1,
                    };
                    progress = true;
                }
            }

            if !progress {
                break;
            }
        }
    }

    /// Marks the horizon: no further dispatches or retries; operations
    /// still queued are abandoned where they stand (their records keep
    /// `dispatched_at = None`), and pending backoffs resolve to their last
    /// verdict at the next [`service`](ClientPool::service) call.
    pub(crate) fn freeze(&mut self) {
        self.frozen = true;
        self.queue.clear();
    }

    /// Consumes the pool, returning every operation record in offered
    /// order.
    pub(crate) fn into_records(self) -> Vec<ClientOpRecord> {
        self.records
    }

    /// Records an operation's final verdict.
    fn finish(
        &mut self,
        rec: usize,
        verdict: LocateVerdict,
        addr: Option<NodeId>,
        done_at: SimTime,
    ) {
        let r = &mut self.records[rec];
        r.verdict = Some(verdict);
        r.addr = addr;
        r.completed_at = Some(done_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ChurnAction, PortPopularity, ThinkTime};

    /// A deterministic mock runtime: every locate takes `service` ticks
    /// and yields the scripted verdict (round-robin).
    struct MockDriver {
        service: SimTime,
        script: Vec<LocateVerdict>,
        issued: Vec<(SimTime, NodeId, usize)>,
        outcomes: Vec<(LocateVerdict, SimTime)>,
        /// Every verdict the pool has read, in poll order.
        verdicts: Vec<LocateVerdict>,
    }

    impl MockDriver {
        fn new(service: SimTime, script: Vec<LocateVerdict>) -> Self {
            MockDriver {
                service,
                script,
                issued: Vec::new(),
                outcomes: Vec::new(),
                verdicts: Vec::new(),
            }
        }
    }

    impl OpDriver for MockDriver {
        fn issue(
            &mut self,
            now: SimTime,
            client: NodeId,
            port_idx: usize,
        ) -> (LocateOp, Option<SimTime>) {
            let id = self.outcomes.len();
            let verdict = self.script[id % self.script.len()];
            self.issued.push((now, client, port_idx));
            let done = now + self.service;
            self.outcomes.push((verdict, done));
            let op = LocateOp {
                handle: LocateHandle {
                    client,
                    id: id as u64,
                },
                port_idx,
                issued: now,
                trace: None,
                arrival: None,
            };
            (op, Some(done))
        }

        fn poll(
            &mut self,
            op: &LocateOp,
            now: SimTime,
        ) -> Option<(LocateVerdict, Option<NodeId>, SimTime)> {
            let (verdict, done) = self.outcomes[op.handle.id as usize];
            (now >= done).then(|| {
                self.verdicts.push(verdict);
                let addr = (verdict == LocateVerdict::Hit).then(|| NodeId::new(0));
                (verdict, addr, done)
            })
        }
    }

    /// A pool and everything a runner would service it with.
    struct Fixture {
        pool: ClientPool,
        driver: MockDriver,
        /// Seed 1, eight live nodes, four uniform ports.
        draws: Draws,
    }

    impl Fixture {
        fn new(
            clients: usize,
            retry_budget: u32,
            service: SimTime,
            verdict: LocateVerdict,
        ) -> Self {
            let model = ClientModel {
                clients,
                think: ThinkTime::Fixed { ticks: 2 },
                retry_budget,
                retry_backoff: 4,
                window: 100,
            };
            Fixture {
                pool: ClientPool::new(model),
                driver: MockDriver::new(service, vec![verdict]),
                draws: Draws::new(1, 8, 4, PortPopularity::Uniform),
            }
        }

        fn service(&mut self, now: SimTime) {
            self.pool.service(now, &mut self.driver, &mut self.draws);
        }

        /// Drives the pool like a runner would: service at every wakeup
        /// up to and including `until`.
        fn drive(&mut self, until: SimTime) {
            while let Some(t) = self.pool.next_wakeup().filter(|&t| t <= until) {
                self.service(t);
            }
        }

        /// The pool's records and the op log they yield.
        fn finish(self) -> (Vec<ClientOpRecord>, Vec<LocateRecord>) {
            let recs = self.pool.into_records();
            let log = recs.iter().filter_map(ClientOpRecord::logged).collect();
            (recs, log)
        }
    }

    #[test]
    fn single_client_serializes_and_queues() {
        let mut f = Fixture::new(1, 0, 2, LocateVerdict::Hit);
        // two offers in the same tick: the second must wait a full
        // service + think cycle
        f.pool.offer(10, 0);
        f.pool.offer(10, 1);
        f.service(10);
        f.drive(100);
        assert_eq!(f.driver.issued.len(), 2);
        assert_eq!(f.driver.verdicts, vec![LocateVerdict::Hit; 2]);
        let (recs, log) = f.finish();
        assert_eq!(recs[0].dispatched_at, Some(10));
        assert_eq!(recs[0].completed_at, Some(12));
        // verdict at 12, think 2 → free at 14, second dispatch at 14
        assert_eq!(recs[1].dispatched_at, Some(14));
        assert_eq!(recs[1].completed_at, Some(16));
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].at, 10, "op log keys on the offered tick");
    }

    #[test]
    fn retries_backoff_exponentially_then_give_up() {
        let mut f = Fixture::new(1, 2, 3, LocateVerdict::Unresolved);
        f.pool.offer(0, 0);
        f.service(0);
        f.drive(200);
        // attempt 1 at 0 (done 3), retry at 3+4=7 (done 10), retry at
        // 10+8=18 (done 21), budget exhausted → final verdict at 21
        assert_eq!(
            f.driver
                .issued
                .iter()
                .map(|&(t, _, _)| t)
                .collect::<Vec<_>>(),
            vec![0, 7, 18]
        );
        assert_eq!(
            f.driver.verdicts,
            vec![LocateVerdict::Unresolved; 3],
            "every attempt's verdict is read"
        );
        let (recs, log) = f.finish();
        assert_eq!(recs[0].attempts, 3);
        assert_eq!(recs[0].verdict, Some(LocateVerdict::Unresolved));
        assert_eq!(recs[0].completed_at, Some(21));
        assert_eq!(log.len(), 1, "one op-log entry per offered operation");
    }

    #[test]
    fn freeze_abandons_the_queue_and_settles_backoffs() {
        let mut f = Fixture::new(1, 3, 2, LocateVerdict::Unresolved);
        f.pool.offer(0, 0);
        f.pool.offer(0, 1);
        f.service(0);
        // run to the first unresolved verdict (t=2), entering backoff
        f.service(2);
        f.pool.freeze();
        f.service(3);
        let (recs, log) = f.finish();
        assert_eq!(recs[0].verdict, Some(LocateVerdict::Unresolved));
        assert_eq!(recs[0].completed_at, Some(2), "last verdict tick kept");
        assert_eq!(recs[1].dispatched_at, None, "abandoned in the queue");
        assert_eq!(recs[1].verdict, None);
        assert_eq!(log.len(), 1);
    }

    /// A backoff scheduled beyond the post-horizon drain window must
    /// still settle: once frozen, the slot reports an already-due wakeup
    /// so a drain loop bounded by `horizon + op_timeout` services it —
    /// otherwise the operation would vanish from all accounting (no
    /// verdict, not abandoned, no op-log entry).
    #[test]
    fn frozen_backoff_beyond_the_drain_window_still_settles() {
        // service takes 3 ticks, backoff base 4 doubles per round
        let mut f = Fixture::new(1, 3, 3, LocateVerdict::Unresolved);
        let horizon = 12;
        f.pool.offer(0, 0);
        f.service(0);
        // attempt 1 done at 3, retry at 7, done at 10 → next backoff
        // resumes at 10 + 8 = 18, past the drain window [12, 12 + 4]
        f.drive(horizon - 1);
        f.pool.freeze();
        f.drive(horizon + 4);
        let (recs, log) = f.finish();
        assert_eq!(recs[0].verdict, Some(LocateVerdict::Unresolved));
        assert_eq!(recs[0].completed_at, Some(10), "last verdict tick kept");
        assert_eq!(log.len(), 1, "the operation must not vanish");
    }

    #[test]
    fn total_outage_defers_dispatch_without_consuming_rng() {
        let mut f = Fixture::new(2, 0, 2, LocateVerdict::Hit);
        let everyone = ChurnAction::CrashGroup {
            nodes: (0..8).collect(),
        };
        f.draws.churn(&everyone, &[]);
        f.pool.offer(5, 0);
        let before = f.draws.rng().clone();
        f.service(5);
        assert_eq!(f.draws.rng(), &before, "no draw happened");
        assert!(f.driver.issued.is_empty());
        // nodes come back: the queued operation dispatches late, and the
        // queueing delay records the outage
        let restore = ChurnAction::RestoreAll {
            clear_caches: false,
        };
        f.draws.churn(&restore, &[]);
        f.service(40);
        f.drive(100);
        let (recs, _) = f.finish();
        assert_eq!(recs[0].dispatched_at, Some(40));
        assert_eq!(recs[0].offered_at, 5);
    }
}
